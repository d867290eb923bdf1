//! Self-test of the benchmark at tiny scale: every workload completes in
//! both modes, prints every metric `BENCHMARK.json` names, and its output
//! re-parses with `fsdm-json`; a deliberately wrong oracle digest makes a
//! run fail.

use std::process::Command;

use fsdm::json::JsonValue;

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    fsdm::json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(manifest: &JsonValue, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("manifest list")
        .iter()
        .map(|e| e.get("name").and_then(JsonValue::as_str).expect("named entry").to_string())
        .collect()
}

/// Run one tiny workload; returns (exit success, parsed last stdout line).
fn run(workload: &str, trace: u8, extra: &[&str]) -> (bool, JsonValue) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.05"])
        .args(["--trace", &trace.to_string(), "--docs", "200"])
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!("{workload}: no output; stderr: {}", String::from_utf8_lossy(&out.stderr))
    });
    let result = fsdm::json::parse(last).expect("result line re-parses with fsdm-json");
    (out.status.success(), result)
}

#[test]
fn every_workload_reports_every_named_metric() {
    let manifest = manifest();
    let workloads = names(&manifest, "workloads");
    assert_eq!(workloads.len(), 2);
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let expected = names(&manifest, key);
        for w in &workloads {
            let (ok, result) = run(w, trace, &[]);
            assert!(ok, "{w} trace {trace} failed: {}", fsdm::json::to_string(&result));
            assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)), "{w}");
            assert_eq!(result.get("failed").and_then(JsonValue::as_i64), Some(0), "{w}");
            assert!(result.get("attempted").and_then(JsonValue::as_i64) >= Some(1), "{w}");
            let metrics = result.get("metrics").and_then(JsonValue::as_object).expect("metrics");
            assert_eq!(metrics.len(), expected.len(), "{w} trace {trace}: extra metrics");
            for name in &expected {
                let m = metrics.get(name).unwrap_or_else(|| panic!("{w} lacks {name}"));
                assert!(m.get("value").and_then(JsonValue::as_f64).is_some(), "{w} {name}");
                assert!(m.get("unit").and_then(JsonValue::as_str).is_some(), "{w} {name}");
            }
            if trace == 0 {
                for name in &expected {
                    let v = metrics.get(name).and_then(|m| m.get("value")?.as_f64());
                    assert!(v > Some(0.0), "{w}: end-to-end metric {name} reads {v:?}");
                }
            }
        }
    }
}

fn metric(result: &JsonValue, name: &str) -> f64 {
    result.get("metrics").and_then(|m| m.get(name)?.get("value")?.as_f64()).expect(name)
}

#[test]
fn bypassed_layers_read_zero() {
    let (_, olap) = run("olap", 1, &[]);
    assert_eq!(metric(&olap, "store.vector.batch_rows"), 0.0, "olap ran columnar kernels");
    assert_eq!(metric(&olap, "store.imc.populate_oson_ms"), 0.0, "olap populated the IMC");
    let (_, nobench) = run("nobench", 1, &[]);
    assert!(
        metric(&nobench, "store.vector.batch_rows") > 0.0,
        "nobench never reached the columnar kernels"
    );
    assert_eq!(metric(&nobench, "store.op.json_table_ms"), 0.0, "nobench expanded a JSON_TABLE");
}

#[test]
fn a_wrong_oracle_digest_fails_the_run() {
    for w in ["nobench", "olap"] {
        let (ok, result) = run(w, 0, &["--corrupt-oracle"]);
        assert!(!ok, "{w}: a corrupted oracle must fail the run");
        assert_eq!(result.get("correct"), Some(&JsonValue::Bool(false)), "{w}");
        assert!(result.get("failed").and_then(JsonValue::as_i64) > Some(0), "{w}");
    }
}

#[test]
fn the_layer_map_names_exactly_the_per_layer_metrics() {
    let manifest = manifest();
    let per_layer = names(&manifest, "per_layer");
    let workloads = names(&manifest, "workloads");
    let end_to_end = names(&manifest, "end_to_end");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
    let map = fsdm::json::parse(&std::fs::read_to_string(path).expect("layers.json"))
        .expect("layers.json parses");
    let mut mapped = Vec::new();
    for layer in map.get("layers").and_then(JsonValue::as_array).expect("layers") {
        for metric in layer.get("metrics").and_then(JsonValue::as_array).expect("metrics") {
            mapped.push(metric.as_str().expect("metric name").to_string());
        }
        for mv in layer.get("moves").and_then(JsonValue::as_array).expect("moves") {
            let metric = mv.get("metric").and_then(JsonValue::as_str).expect("moved metric");
            assert!(end_to_end.iter().any(|m| m == metric), "unknown end-to-end {metric}");
            for w in mv.get("workloads").and_then(JsonValue::as_array).expect("workloads") {
                let w = w.as_str().expect("workload name");
                assert!(workloads.iter().any(|x| x == w), "unknown workload {w}");
            }
        }
    }
    mapped.sort();
    let mut expected = per_layer.clone();
    expected.sort();
    assert_eq!(mapped, expected);
}
