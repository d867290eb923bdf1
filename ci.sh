#!/usr/bin/env bash
# Offline-safe CI gate for the fsdm workspace.
#
# The build environment has no crates.io access: every dependency is an
# in-workspace path crate (including the rand/proptest/criterion
# stand-ins), so nothing here touches the network.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== build (release) =="
cargo build --release

echo "== tests (tier-1: root package, serial executor) =="
FSDM_THREADS=1 cargo test -q

echo "== tests (tier-1: root package, 4-way parallel executor) =="
FSDM_THREADS=4 cargo test -q

echo "== tests (full workspace, serial executor) =="
FSDM_THREADS=1 cargo test --workspace -q

echo "== tests (full workspace, 4-way parallel executor) =="
FSDM_THREADS=4 cargo test --workspace -q

echo "== perfbench self-test (TEXT-vs-IMC and OSON-vs-REL result oracle, 200 docs) =="
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== fsdm-planck (workload plan typecheck, zero-error budget) =="
cargo run --release -p fsdm-bench --bin fsdm-planck -- --workload both --scale 1000 --json \
  > planck-report.json \
  || { echo "fsdm-planck found error-severity findings:"; cat planck-report.json; exit 1; }
grep -q '"errors": 0' planck-report.json

echo "== bench concurrency smoke (4-thread wall <= 1.1x 1-thread) =="
# --json persists the run in the stable fsdm-bench-concurrency-v1 schema
# so CI revisions accumulate into a machine-readable perf trajectory
cargo run --release -p fsdm-bench --bin bench -- concurrency --scale small --smoke \
  --json BENCH_concurrency.json

echo "== bench imc smoke (columnar Q1-3 wall <= row-path wall) =="
# --json persists the run in the stable fsdm-bench-imc-v1 schema so CI
# revisions accumulate the row-vs-columnar trajectory alongside the
# concurrency one
cargo run --release -p fsdm-bench --bin bench -- imc --scale small --smoke \
  --json BENCH_imc.json

echo "== bench trace-overhead smoke (disabled tracing <= 2% of Q1-3 wall) =="
cargo run --release -p fsdm-bench --bin bench -- trace-overhead --scale 2000 --smoke

echo "== bench chaos smoke (seeded fault schedules, zero violations, disarmed <= 2%) =="
# --json persists the run in the stable fsdm-bench-chaos-v1 schema; the
# command itself exits non-zero on any contract violation or if the
# disarmed governance overhead estimate exceeds the 2% budget
cargo run --release -p fsdm-bench --bin bench -- chaos --smoke --json BENCH_chaos.json
grep -q '"violation":0' BENCH_chaos.json

echo "== repro chaos report (writes repro-chaos.json, re-parses) =="
cargo run --release -p fsdm-bench --bin repro -- table10 --scale 120 --no-metrics \
  --chaos-report repro-chaos.json
grep -q '"violation":0' repro-chaos.json

echo "== repro trace smoke (span trees validate, exports re-parse) =="
FSDM_THREADS=4 cargo run --release -p fsdm-bench --bin repro -- \
  --trace /tmp/fsdm-trace.json --slow-log /tmp/fsdm-slow.json --scale 300

echo "== repro typecheck report (writes repro-planck.json, re-parses) =="
cargo run --release -p fsdm-bench --bin repro -- table10 --scale 120 --no-metrics \
  --typecheck-report repro-planck.json
grep -q '"errors": 0' repro-planck.json

echo "== repro sentinel report (writes repro-sentinel.json, re-parses) =="
cargo run --release -p fsdm-bench --bin repro -- table10 --scale 120 --no-metrics \
  --sentinel-report repro-sentinel.json
grep -q '"errors": 0' repro-sentinel.json

echo "== fsdm-tidy (repo-native static analysis) =="
cargo run --release -p fsdm-tidy

echo "== fsdm-analyze (workload semantic lint, zero-error budget) =="
cargo run --release -p fsdm-bench --bin fsdm-analyze -- --workload both --scale 1000 --json \
  > analyze-report.json \
  || { echo "fsdm-analyze found error-severity findings:"; cat analyze-report.json; exit 1; }
grep -q '"errors": 0' analyze-report.json

echo "== fsdm-sentinel (concurrency static analysis, zero-error budget) =="
cargo run --release -p fsdm-sentinel --bin fsdm-sentinel -- --json \
  > sentinel-report.json \
  || { echo "fsdm-sentinel found concurrency findings:"; cat sentinel-report.json; exit 1; }
grep -q '"errors": 0' sentinel-report.json

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
