//! Per-layer measurements: counter deltas read from the program's
//! `metrics_snapshot()` around the traced statements, and timed calls
//! into each layer crate's public functions over the workload's own
//! corpus.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::ops::AddAssign;
use std::time::Instant;

use fsdm::dataguide::DataGuide;
use fsdm::index::SearchIndex;
use fsdm::json::{field_hash, JsonDom, JsonValue};
use fsdm::obs::{catalog, MetricsSnapshot};
use fsdm::oson::OsonDoc;
use fsdm::sqljson::{parse_path, JsonTableCursor, JsonTableDef, PathEvaluator};
use fsdm::{CollectionOptions, FsdmDatabase};

/// Documents the path, field and JSON_TABLE measurements visit.
const SAMPLE_DOCS: usize = 4000;

/// Counter deltas over a stretch of execution.
#[derive(Default, Clone, Copy)]
pub struct Counts {
    pub morsels: u64,
    pub worker_busy_ns: u64,
    pub kernel_ns: u64,
    pub batch_rows: u64,
    pub late_rows: u64,
    pub lookback_hit: u64,
    pub lookback_other: u64,
    pub nodes_visited: u64,
    pub evals: u64,
    pub dict_lookups: u64,
    pub dict_probes: u64,
}

impl Counts {
    /// `after − before`.
    pub fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Counts {
        let d = after.diff(before);
        let hist_sum = |name: &str| d.histograms.get(name).map_or(0, |h| h.sum);
        Counts {
            morsels: d.counter(catalog::EXEC_MORSEL_COUNT),
            worker_busy_ns: hist_sum(catalog::EXEC_WORKER_BUSY_NS),
            kernel_ns: hist_sum(catalog::IMC_KERNEL_NS),
            batch_rows: hist_sum(catalog::EXEC_BATCH_ROWS),
            late_rows: d.counter(catalog::EXEC_LATE_MATERIALIZE_ROWS),
            lookback_hit: d.counter(catalog::SQLJSON_LOOKBACK_HIT),
            lookback_other: d.counter(catalog::SQLJSON_LOOKBACK_MISS)
                + d.counter(catalog::SQLJSON_LOOKBACK_ABSENT),
            nodes_visited: d.counter(catalog::SQLJSON_EVAL_NODES_VISITED),
            evals: d.counter(catalog::SQLJSON_EVAL_PATHS),
            dict_lookups: d.counter(catalog::OSON_DICT_LOOKUPS),
            dict_probes: d.counter(catalog::OSON_DICT_PROBES),
        }
    }
}

impl AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.morsels += o.morsels;
        self.worker_busy_ns += o.worker_busy_ns;
        self.kernel_ns += o.kernel_ns;
        self.batch_rows += o.batch_rows;
        self.late_rows += o.late_rows;
        self.lookback_hit += o.lookback_hit;
        self.lookback_other += o.lookback_other;
        self.nodes_visited += o.nodes_visited;
        self.evals += o.evals;
        self.dict_lookups += o.dict_lookups;
        self.dict_probes += o.dict_probes;
    }
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Costs of each layer on one corpus, each from timed calls into the
/// layer crate's public functions.
#[derive(Default)]
pub struct LayerCosts {
    pub parse_mb_s: f64,
    pub encode_us_per_doc: f64,
    pub encode_bytes_per_doc: f64,
    pub eval_text_ns: f64,
    pub eval_oson_ns: f64,
    pub get_field_ns: f64,
    pub json_table_us_per_doc: f64,
    pub json_table_rows_per_doc: f64,
    pub guide_add_us_per_doc: f64,
    pub guide_changed_frac: f64,
    pub index_insert_us_per_doc: f64,
    pub index_postings_per_doc: f64,
    pub put_us_per_doc: f64,
    pub guide_fast_path_frac: f64,
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Measure every layer over `texts`, evaluating `paths` and, when given,
/// expanding `json_table`.
pub fn measure(
    texts: &[String],
    paths: &[&str],
    json_table: Option<&JsonTableDef>,
) -> Result<LayerCosts, String> {
    let n = texts.len().max(1) as f64;
    let mut c = LayerCosts::default();

    // json: text → value
    let t = Instant::now();
    let values: Vec<JsonValue> = texts
        .iter()
        .map(|s| fsdm::json::parse(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let ns = ns_since(t);
    let bytes: usize = texts.iter().map(String::len).sum();
    c.parse_mb_s = ratio(bytes as f64 / 1e6, ns / 1e9);

    // oson: value → binary
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = values
        .iter()
        .map(|v| fsdm::oson::encode(v).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    c.encode_us_per_doc = ns_since(t) / n / 1e3;
    c.encode_bytes_per_doc = encoded.iter().map(Vec::len).sum::<usize>() as f64 / n;

    let sample = texts.len().min(SAMPLE_DOCS);
    let docs: Vec<OsonDoc> = encoded[..sample]
        .iter()
        .map(|b| OsonDoc::new(b).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let compiled: Vec<_> =
        paths.iter().map(|p| parse_path(p).map_err(|e| e.message)).collect::<Result<_, _>>()?;
    let evals = (sample * compiled.len()).max(1) as f64;

    // sqljson: streaming evaluation over text
    let t = Instant::now();
    for p in &compiled {
        for s in &texts[..sample] {
            black_box(fsdm::sqljson::streaming::eval_text(s, p).map_err(|e| e.to_string())?);
        }
    }
    c.eval_text_ns = ns_since(t) / evals;

    // sqljson: jump navigation over OSON
    let t = Instant::now();
    for p in &compiled {
        let mut ev = PathEvaluator::new(p.clone());
        for d in &docs {
            black_box(ev.evaluate_values(d));
        }
    }
    c.eval_oson_ns = ns_since(t) / evals;

    // oson: top-level field lookups by name
    let names: BTreeSet<&str> =
        paths.iter().filter_map(|p| p.strip_prefix("$.")?.split(['.', '[', '?']).next()).collect();
    let hashes: Vec<(&str, u32)> = names.iter().map(|&f| (f, field_hash(f))).collect();
    let t = Instant::now();
    for d in &docs {
        for &(name, hash) in &hashes {
            black_box(d.get_field(d.root(), name, hash));
        }
    }
    c.get_field_ns = ns_since(t) / (sample * hashes.len()).max(1) as f64;

    // sqljson: JSON_TABLE row expansion
    if let Some(def) = json_table {
        let mut cursor = JsonTableCursor::new(def);
        let mut rows = 0usize;
        let t = Instant::now();
        for d in &docs {
            rows += black_box(cursor.rows(d)).len();
        }
        c.json_table_us_per_doc = ns_since(t) / sample.max(1) as f64 / 1e3;
        c.json_table_rows_per_doc = rows as f64 / sample.max(1) as f64;
    }

    // dataguide: merge every document (no signature fast path)
    let mut guide = DataGuide::new();
    let mut changed = 0usize;
    let t = Instant::now();
    for v in &values {
        if guide.add_document(v) > 0 {
            changed += 1;
        }
    }
    c.guide_add_us_per_doc = ns_since(t) / n / 1e3;
    c.guide_changed_frac = changed as f64 / n;

    // index: postings for every document
    let before = fsdm::obs::snapshot();
    let mut index = SearchIndex::new();
    let t = Instant::now();
    for (i, v) in values.iter().enumerate() {
        index.insert(i as u64, v);
    }
    c.index_insert_us_per_doc = ns_since(t) / n / 1e3;
    let postings = fsdm::obs::snapshot().diff(&before).counter(catalog::INDEX_POSTINGS_ADDED);
    c.index_postings_per_doc = postings as f64 / n;

    // store: puts into a default collection (OSON, IS JSON, DataGuide
    // on), and the share whose structure signature skipped the DataGuide
    // merge
    let mut db = FsdmDatabase::new();
    db.create_collection("layers", CollectionOptions::default()).map_err(|e| e.to_string())?;
    let before = fsdm::obs::snapshot();
    let t = Instant::now();
    for text in &texts[..sample] {
        db.put("layers", text).map_err(|e| e.to_string())?;
    }
    c.put_us_per_doc = ns_since(t) / sample.max(1) as f64 / 1e3;
    let d = fsdm::obs::snapshot().diff(&before);
    c.guide_fast_path_frac =
        d.counter(catalog::STORE_INSERT_GUIDE_FAST_PATH) as f64 / sample.max(1) as f64;
    Ok(c)
}
