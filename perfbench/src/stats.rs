//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// closest ranks; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The smallest sample; 0 for an empty sample.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The geometric mean; 0 for an empty sample or one holding a value
/// that is not positive.
pub fn gmean(samples: &[f64]) -> f64 {
    if samples.is_empty() || samples.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// How many samples lie strictly above the `q`-quantile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&x| x > cut).count()
}

/// Latency of a stream that mixes statements whose typical latencies
/// differ by orders of magnitude. A pooled percentile of such a mix sits on the boundary
/// between two kinds' samples and jumps between them from run to run, so
/// both figures are taken per kind and combined with equal weight.
pub struct MixedLatency {
    /// Samples over all kinds.
    pub samples: usize,
    /// Geometric mean over kinds of each kind's median.
    pub p50_gmean: f64,
    /// The `q`-quantile of every sample divided by its kind's median.
    pub tail_factor: f64,
    /// `p50_gmean × tail_factor`: the `q`-quantile of a typical kind.
    pub tail_gmean: f64,
    /// Samples beyond the `q`-quantile of the normalized samples.
    pub beyond_tail: usize,
}

impl MixedLatency {
    /// Summarize per-kind samples at tail quantile `q`; kinds without
    /// samples are skipped.
    pub fn of(per_kind: &[Vec<f64>], q: f64) -> MixedLatency {
        let kinds: Vec<(&Vec<f64>, f64)> =
            per_kind.iter().filter(|v| !v.is_empty()).map(|v| (v, median(v))).collect();
        let p50_gmean = gmean(&kinds.iter().map(|(_, m)| *m).collect::<Vec<_>>());
        let normalized: Vec<f64> =
            kinds.iter().flat_map(|(v, m)| v.iter().map(move |x| x / m)).collect();
        let tail_factor = quantile(&normalized, q);
        MixedLatency {
            samples: normalized.len(),
            p50_gmean,
            tail_factor,
            tail_gmean: p50_gmean * tail_factor,
            beyond_tail: beyond(&normalized, q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(beyond(&v, 0.5), 2);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min(&v), 1.0);
        assert_eq!(min(&[]), 0.0);
    }

    #[test]
    fn gmean_of_positive_samples() {
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 0.0);
        assert_eq!(gmean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn mixed_latency_weighs_kinds_equally() {
        let fast = vec![1.0, 1.0, 1.0, 2.0];
        let slow = vec![100.0, 100.0, 100.0, 200.0];
        let m = MixedLatency::of(&[fast, slow, vec![]], 0.8);
        assert!((m.p50_gmean - 10.0).abs() < 1e-9);
        assert_eq!(m.samples, 8);
        assert!((m.tail_factor - 1.6).abs() < 1e-9, "{}", m.tail_factor);
        assert!((m.tail_gmean - 16.0).abs() < 1e-9);
        assert_eq!(m.beyond_tail, 2);
    }
}
