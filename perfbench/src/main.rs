//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] --seconds <s> --trace <0|1>
//!           [--docs <n>] [--out <dir>] [--corrupt-oracle]
//! ```
//!
//! Two workloads, each one process with one closed-loop client and the
//! executor degree pinned to one worker:
//!
//! * `nobench` — NoBench Q1–Q11 plus the Fig 9 DataGuide aggregate, each
//!   run on TEXT storage (JSON text parsing and streaming path
//!   evaluation do the work) and after OSON-IMC and VC-IMC population
//!   (columnar kernels and OSON navigation do the work).
//! * `olap` — Table-13 Q1–Q9 against OSON (JSON_TABLE views) and REL
//!   (master ⋈ detail) storage.
//!
//! With `--trace 0` the run measures the end-to-end metrics untraced;
//! with `--trace 1` it measures the per-layer metrics from spans the
//! benchmark records around its calls into each layer. Every statement
//! result is checked against a digest computed at set-up on the
//! workload's other storage of the same corpus. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. A failed check still prints it, then exits 1.

mod layers;
mod oracle;
mod reads;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{ratio, Counts, LayerCosts};
use reads::{ReadWorkload, TracedCounts};
use spans::Recorder;
use stats::MixedLatency;

/// Corpus size of every workload (documents per corpus).
const DEFAULT_DOCS: usize = 20_000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Tail percentile of the run record: the highest one with at least ten
/// samples beyond it on every workload at the benchmark's run length
/// (OLAP completes about 200 statements in 45 s). It is not an
/// end-to-end metric: on a shared host it did not repeat within a tenth
/// from run to run (and neither did the median).
const TAIL_Q: f64 = 0.90;
/// Largest share of traced statement wall the layer spans may leave
/// uncovered before the traced run fails its attribution check.
const ATTRIBUTION_BOUND: f64 = 0.05;
const WORKLOADS: [&str; 2] = ["nobench", "olap"];
const USAGE: &str = "usage: perfbench --workload <nobench|olap> \
                     [--seed <n>] --seconds <s> --trace <0|1> [--docs <n>] [--out <dir>] \
                     [--corrupt-oracle]";

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The executor degree every session is pinned to. One worker: on a
/// shared host with few cores, a statement split across workers waits
/// for whichever worker the host scheduler delayed most, and its latency
/// then measures the host rather than the engine (NoBench over the IMC
/// spread 0.16 of its median across seeds at degree 2 on 2 vCPUs, 0.035
/// at degree 1).
pub fn degree() -> usize {
    1
}

/// The host's available parallelism, for the run record.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 so the output stays parseable.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Times of the set-up phases, in seconds unless named otherwise.
#[derive(Default, Clone)]
pub struct Setup {
    /// Corpus generation.
    pub generate_s: f64,
    /// Loading both storages.
    pub load_s: f64,
    /// IMC population.
    pub populate_s: f64,
    /// Running every statement on both storages to digest its result.
    pub oracle_s: f64,
    /// OSON-IMC population alone.
    pub populate_oson_ms: f64,
    /// VC-IMC population alone.
    pub populate_vc_ms: f64,
}

impl Setup {
    fn total_s(&self) -> f64 {
        self.generate_s + self.load_s + self.populate_s + self.oracle_s
    }
}

struct Args {
    workload: String,
    /// The workload seed; without one, each corpus takes the seed the
    /// paper figures use.
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    docs: usize,
    out: String,
    corrupt_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 0.0,
        trace: false,
        docs: DEFAULT_DOCS,
        out: "perfbench/runs".to_string(),
        corrupt_oracle: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-oracle" {
            args.corrupt_oracle = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--docs" => args.docs = value.parse().map_err(|_| bad())?,
            "--out" => args.out = value.clone(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 || args.docs < 10 {
        return Err("a positive --seconds and at least 10 --docs are required".into());
    }
    Ok(args)
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Extra run-record fields, as `"key":value` JSON members.
    record: Vec<String>,
    /// The span dump of a traced run.
    spans: Option<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run_reads(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in outcome.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    if let Err(e) = write_record(&args, &outcome) {
        eprintln!("perfbench: cannot write the run record: {e}");
        return ExitCode::FAILURE;
    }
    let line = result_line(&outcome);
    if let Err(e) = fsdm::json::parse(&line) {
        eprintln!("perfbench: result line is not JSON: {e}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|x| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failures.is_empty(),
        o.attempted.max(1),
        o.failures.len(),
        metrics.join(",")
    )
}

/// Write the run record (and the span dump of a traced run) under
/// `--out`.
fn write_record(args: &Args, o: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let seed = args.seed.map_or("default".to_string(), |s| s.to_string());
    let stem = format!("{}/{}-seed{seed}-trace{}", args.out, args.workload, u8::from(args.trace));
    let mut rec = format!(
        "{{\"schema\":\"perfbench-run-v1\",\"workload\":{},\"seed\":{},\"trace\":{},\
         \"seconds\":{},\"host\":{{\"nproc\":{},\"executor_degree\":{},\"git_rev\":{},\
         \"os\":{},\"arch\":{}}},\"docs_per_corpus\":{}",
        json_str(&args.workload),
        args.seed.map_or("null".to_string(), |s| s.to_string()),
        args.trace,
        json_num(args.seconds),
        nproc(),
        degree(),
        json_str(&git_rev()),
        json_str(std::env::consts::OS),
        json_str(std::env::consts::ARCH),
        args.docs,
    );
    for member in &o.record {
        rec.push(',');
        rec.push_str(member);
    }
    let failures: Vec<String> = o.failures.iter().map(|f| json_str(f)).collect();
    let _ = write!(rec, ",\"failures\":[{}],\"result\":{}}}", failures.join(","), result_line(o));
    std::fs::write(format!("{stem}.json"), rec)?;
    if let Some(spans) = &o.spans {
        std::fs::write(format!("{stem}-spans.json"), spans)?;
    }
    Ok(())
}

/// The checkout's git revision, `unknown` unless the working directory
/// is the root of a git work tree: git does not look for a repository
/// above it, so the benchmark reads nothing outside its checkout.
fn git_rev() -> String {
    let mut git = std::process::Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = std::env::current_dir().ok().as_deref().and_then(Path::parent) {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// VmHWM of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `build` `reps` times, keeping the last result; returns it with the
/// median set-up and every repetition's phase times.
fn repeated_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<(T, Setup), String>,
) -> Result<(T, f64, Vec<Setup>), String> {
    let mut kept = None;
    let mut parts = Vec::with_capacity(reps);
    for _ in 0..reps {
        // drop the previous set-up first, so repetitions do not overlap
        // in memory
        drop(kept.take());
        let (w, setup) = build()?;
        parts.push(setup);
        kept = Some(w);
    }
    let totals: Vec<f64> = parts.iter().map(Setup::total_s).collect();
    let w = kept.ok_or("no set-up ran")?;
    Ok((w, stats::median(&totals), parts))
}

fn setup_record(parts: &[Setup], median_s: f64) -> String {
    let phase =
        |f: fn(&Setup) -> f64| json_num(stats::median(&parts.iter().map(f).collect::<Vec<_>>()));
    let totals: Vec<String> = parts.iter().map(|p| json_num(p.total_s())).collect();
    format!(
        "\"setup\":{{\"reps\":{},\"total_s\":[{}],\"median_s\":{},\"median_parts_s\":\
         {{\"generate\":{},\"load\":{},\"populate\":{},\"oracle\":{}}}}}",
        parts.len(),
        totals.join(","),
        json_num(median_s),
        phase(|p| p.generate_s),
        phase(|p| p.load_s),
        phase(|p| p.populate_s),
        phase(|p| p.oracle_s),
    )
}

fn latency_record(per_kind_ms: &[Vec<f64>]) -> String {
    let l = MixedLatency::of(per_kind_ms, TAIL_Q);
    let pooled: Vec<f64> = per_kind_ms.iter().flatten().copied().collect();
    format!(
        "\"latency\":{{\"kinds\":{},\"samples\":{},\"p50_gmean_ms\":{},\"tail_q\":{},\
         \"tail_factor\":{},\"tail_gmean_ms\":{},\"samples_beyond_tail\":{},\
         \"pooled_p50_ms\":{},\"pooled_tail_ms\":{}}}",
        per_kind_ms.len(),
        l.samples,
        json_num(l.p50_gmean),
        TAIL_Q,
        json_num(l.tail_factor),
        json_num(l.tail_gmean),
        l.beyond_tail,
        json_num(stats::median(&pooled)),
        json_num(stats::quantile(&pooled, TAIL_Q)),
    )
}

/// The latency and throughput metrics from each statement's fastest
/// execution over the run's cycles. Contention from other tenants of the
/// host only ever adds time, and comes and goes in phases of seconds; a
/// statement's fastest execution is the run's best estimate of its own
/// cost, where a median reports how much of the run fell into slow
/// phases.
///
/// Returns the geometric mean over statements of their fastest times,
/// and statements per second of the cycle those times add up to.
fn best_metrics(untraced_ms: &[Vec<f64>]) -> (f64, f64) {
    let best: Vec<f64> = untraced_ms.iter().map(|v| stats::min(v)).collect();
    let cycle_s = best.iter().sum::<f64>() / 1e3;
    (stats::gmean(&best), ratio(best.len() as f64, cycle_s))
}

// ---------------------------------------------------------------- reads

struct ReadRun {
    /// Untraced latency of every statement execution, per statement.
    untraced_ms: Vec<Vec<f64>>,
    /// Traced latency, per statement.
    traced_ms: Vec<Vec<f64>>,
    attempted: u64,
    failures: Vec<String>,
    cycles: usize,
    /// Wall of each cycle.
    cycle_s: Vec<f64>,
    wall_s: f64,
    rec: Recorder,
    counts: Counts,
    traced: TracedCounts,
}

/// Execute the statement cycle in a closed loop until `seconds` have
/// passed. An untraced run stops at the deadline, mid-cycle once every
/// statement has run. A traced run alternates whole untraced and traced
/// cycles (at least one of each), so the gap between them is the tracing
/// overhead.
fn read_loop(w: &mut ReadWorkload, seconds: f64, trace: bool) -> ReadRun {
    let n = w.stmts.len();
    let mut run = ReadRun {
        untraced_ms: vec![Vec::new(); n],
        traced_ms: vec![Vec::new(); n],
        attempted: 0,
        failures: Vec::new(),
        cycles: 0,
        cycle_s: Vec::new(),
        wall_s: 0.0,
        rec: Recorder::new(),
        counts: Counts::default(),
        traced: TracedCounts::default(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    'cycles: while start.elapsed() < budget || (trace && run.cycles < 2) {
        let traced = trace && run.cycles % 2 == 1;
        let before = traced.then(fsdm::obs::snapshot);
        let cycle = Instant::now();
        for (i, s) in w.stmts.iter().enumerate() {
            if !trace && run.cycles > 0 && start.elapsed() >= budget {
                break 'cycles;
            }
            let session = &mut w.sessions[s.session];
            let id = run.attempted;
            let t = Instant::now();
            let out = if traced {
                reads::run_traced(session, &s.kind, &mut run.rec, id, &mut run.traced)
            } else {
                reads::run_kind(session, &s.kind)
            };
            let ms = secs(t) * 1e3;
            run.attempted += 1;
            let samples = if traced { &mut run.traced_ms } else { &mut run.untraced_ms };
            samples[i].push(ms);
            check(s, out, &mut run.failures);
        }
        if let Some(before) = before {
            run.counts += Counts::between(&before, &fsdm::obs::snapshot());
        }
        run.cycle_s.push(secs(cycle));
        run.cycles += 1;
    }
    run.wall_s = secs(start);
    run
}

/// Compare a statement's result with its oracle digest.
fn check(
    s: &reads::Stmt,
    out: Result<fsdm::store::QueryResult, String>,
    failures: &mut Vec<String>,
) {
    match out {
        Ok(r) => {
            let got = oracle::Digest::of(&r, s.ordered);
            if got != s.expect {
                failures.push(format!(
                    "{}: result {} does not match oracle {}",
                    s.label,
                    got.render(),
                    s.expect.render()
                ));
            }
        }
        Err(e) => failures.push(format!("{}: {e}", s.label)),
    }
}

fn run_reads(args: &Args) -> Result<Outcome, String> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut w, setup_s, parts) = repeated_setup(reps, || {
        let w = match args.workload.as_str() {
            "nobench" => reads::nobench(args.seed, args.docs)?,
            _ => reads::olap(args.seed, args.docs)?,
        };
        let setup = w.setup.clone();
        Ok((w, setup))
    })?;
    if args.corrupt_oracle {
        w.stmts[0].expect.hash ^= 1;
    }
    let mut failures = w.setup_failures.clone();
    // warm-up: the set-up's oracle pass has already run every statement
    // once on the measured sessions
    let warmup_s = w.setup.oracle_s;

    let run = read_loop(&mut w, args.seconds, args.trace);
    failures.extend(run.failures.iter().cloned());
    let attempted = w.setup_checks + run.attempted;

    for (s, samples) in w.stmts.iter().zip(&run.untraced_ms) {
        eprintln!(
            "perfbench: {:<8} {:<8} median {:>9.3} ms over {:>3} runs; result {}",
            s.label,
            s.mode,
            stats::median(samples),
            samples.len(),
            s.shown
        );
    }
    let mut record = vec![
        setup_record(&parts, setup_s),
        format!(
            "\"warmup\":{{\"policy\":\"the oracle pass of the set-up\",\"wall_s\":{}}}",
            json_num(warmup_s)
        ),
        format!(
            "\"loop\":{{\"client\":\"one closed-loop client\",\"cycles\":{},\"wall_s\":{},\
             \"cycle_s\":[{}]}}",
            run.cycles,
            json_num(run.wall_s),
            run.cycle_s.iter().map(|&c| json_num(c)).collect::<Vec<_>>().join(",")
        ),
        latency_record(&run.untraced_ms),
        statements_record(&w, &run),
    ];
    let mut spans = None;
    let metrics = if args.trace {
        let costs = layers::measure(&w.texts, w.paths, w.json_table.as_ref())?;
        let (metrics, unattributed) = read_layer_metrics(&w, &run, &costs);
        if unattributed > ATTRIBUTION_BOUND {
            failures.push(format!(
                "layer spans leave {unattributed:.4} of statement wall unattributed \
                 (bound {ATTRIBUTION_BOUND})"
            ));
        }
        record.push(format!("\"attribution_bound\":{ATTRIBUTION_BOUND}"));
        spans = Some(run.rec.to_json());
        metrics
    } else {
        let (op_best_ms, ops_per_s) = best_metrics(&run.untraced_ms);
        vec![
            m("setup_s", setup_s, "s"),
            m("op_best_gmean_ms", op_best_ms, "ms"),
            m("ops_per_s", ops_per_s, "1/s"),
            m(
                "stored_bytes_per_json_byte",
                ratio(w.stored_bytes as f64, w.json_bytes as f64),
                "ratio",
            ),
            m("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };
    Ok(Outcome { attempted, failures, metrics, record, spans })
}

fn statements_record(w: &ReadWorkload, run: &ReadRun) -> String {
    let items: Vec<String> = w
        .stmts
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let text = match &s.kind {
                reads::Kind::Sql { sql, .. } => sql.clone(),
                reads::Kind::Plan(p) => p.render(),
            };
            format!(
                "{{\"label\":{},\"mode\":\"{}\",\"ordered\":{},\"oracle\":\"{}\",\"result\":{},\
                 \"samples\":{},\"median_ms\":{},\"best_ms\":{},\"samples_ms\":[{}],\
                 \"traced_samples\":{},\"traced_median_ms\":{},\"text\":{}}}",
                json_str(&s.label),
                s.mode,
                s.ordered,
                s.expect.render(),
                json_str(&s.shown),
                run.untraced_ms[i].len(),
                json_num(stats::median(&run.untraced_ms[i])),
                json_num(stats::min(&run.untraced_ms[i])),
                run.untraced_ms[i].iter().map(|&x| json_num(x)).collect::<Vec<_>>().join(","),
                run.traced_ms[i].len(),
                json_num(stats::median(&run.traced_ms[i])),
                json_str(&text)
            )
        })
        .collect();
    format!("\"statements\":[{}]", items.join(","))
}

/// Operator categories reported as `store.op.<category>_ms`.
const OP_CATEGORIES: [(&str, &str); 8] = [
    ("Scan", "store.op.scan_ms"),
    ("Filter", "store.op.filter_ms"),
    ("Project", "store.op.project_ms"),
    ("JsonTable", "store.op.json_table_ms"),
    ("HashJoin", "store.op.hash_join_ms"),
    ("GroupBy", "store.op.group_by_ms"),
    ("Sort", "store.op.sort_ms"),
    ("Window", "store.op.window_ms"),
];

/// The per-layer metrics of a traced read run, and the share of traced
/// statement wall the layer spans leave unattributed.
fn read_layer_metrics(w: &ReadWorkload, run: &ReadRun, c: &LayerCosts) -> (Vec<Metric>, f64) {
    let rec = &run.rec;
    let stmts = rec.count("statement") as f64;
    let per_stmt = |name: &str, scale: f64| ratio(rec.total_ns(name) as f64 / scale, stmts);
    let exec_ns = rec.total_ns("store.exec") as f64;
    // the DataGuide aggregate also runs a scan on the executor's workers
    let executor_ns = exec_ns + rec.total_ns("dataguide.agg") as f64;
    let op_ns: f64 = rec.ops.iter().map(|o| o.self_ns as f64).sum();
    let coverage = rec.root_coverage();
    let wall: u64 = coverage.iter().map(|c| c.0).sum();
    let uncovered: u64 = coverage.iter().map(|c| c.1).sum();
    let unattributed = ratio(uncovered as f64, wall as f64);
    let k = &run.counts;
    let traced_sum: f64 = run.traced_ms.iter().map(|v| stats::median(v)).sum();
    let untraced_sum: f64 = run.untraced_ms.iter().map(|v| stats::median(v)).sum();
    let mut out = vec![
        m("sql.parse_us", per_stmt("sql.parse", 1e3), "us"),
        m("sql.plan_us", per_stmt("sql.plan", 1e3), "us"),
        m("store.optimize_us", per_stmt("store.optimize", 1e3), "us"),
        m("store.exec_ms", per_stmt("store.exec", 1e6), "ms"),
        m("store.materialize_ms", ratio((exec_ns - op_ns).max(0.0) / 1e6, stmts), "ms"),
    ];
    for (prefix, name) in OP_CATEGORIES {
        let ns: u64 = rec.ops.iter().filter(|o| o.op.starts_with(prefix)).map(|o| o.self_ns).sum();
        out.push(m(name, ratio(ns as f64 / 1e6, stmts), "ms"));
    }
    out.extend([
        m(
            "store.rows_examined_per_row_returned",
            ratio(run.traced.rows_examined as f64, run.traced.rows_returned as f64),
            "ratio",
        ),
        m("store.parallel.morsels", ratio(k.morsels as f64, stmts), "count"),
        m(
            "store.parallel.worker_busy_frac",
            ratio(k.worker_busy_ns as f64, degree() as f64 * executor_ns),
            "ratio",
        ),
        m("store.vector.kernel_ms", ratio(k.kernel_ns as f64 / 1e6, stmts), "ms"),
        m("store.vector.batch_rows", ratio(k.batch_rows as f64, stmts), "count"),
        m("store.vector.late_materialize_rows", ratio(k.late_rows as f64, stmts), "count"),
        m("store.imc.populate_oson_ms", w.setup.populate_oson_ms, "ms"),
        m("store.imc.populate_vc_ms", w.setup.populate_vc_ms, "ms"),
        m(
            "sqljson.lookback_hit_frac",
            ratio(k.lookback_hit as f64, (k.lookback_hit + k.lookback_other) as f64),
            "ratio",
        ),
        m("sqljson.nodes_visited_per_eval", ratio(k.nodes_visited as f64, k.evals as f64), "count"),
        m(
            "oson.dict_probes_per_lookup",
            ratio(k.dict_probes as f64, k.dict_lookups as f64),
            "count",
        ),
        m(
            "dataguide.agg_ms",
            ratio(rec.total_ns("dataguide.agg") as f64 / 1e6, rec.count("dataguide.agg") as f64),
            "ms",
        ),
        m("store.unattributed_frac", unattributed, "ratio"),
        m("trace_overhead_frac", ratio(traced_sum, untraced_sum) - 1.0, "ratio"),
    ]);
    out.extend(layer_cost_metrics(c));
    (out, unattributed)
}

fn layer_cost_metrics(c: &LayerCosts) -> Vec<Metric> {
    vec![
        m("json.parse_mb_s", c.parse_mb_s, "MB/s"),
        m("sqljson.eval_ns_per_doc.text", c.eval_text_ns, "ns"),
        m("sqljson.eval_ns_per_doc.oson", c.eval_oson_ns, "ns"),
        m("sqljson.json_table_us_per_doc", c.json_table_us_per_doc, "us"),
        m("sqljson.json_table_rows_per_doc", c.json_table_rows_per_doc, "count"),
        m("oson.encode_us_per_doc", c.encode_us_per_doc, "us"),
        m("oson.encode_bytes_per_doc", c.encode_bytes_per_doc, "B"),
        m("oson.get_field_ns", c.get_field_ns, "ns"),
        m("dataguide.add_us_per_doc", c.guide_add_us_per_doc, "us"),
        m("dataguide.changed_frac", c.guide_changed_frac, "ratio"),
        m("index.insert_us_per_doc", c.index_insert_us_per_doc, "us"),
        m("index.postings_per_doc", c.index_postings_per_doc, "count"),
        m("store.put_us_per_doc", c.put_us_per_doc, "us"),
        m("store.guide_fast_path_frac", c.guide_fast_path_frac, "ratio"),
    ]
}
