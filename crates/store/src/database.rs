//! The database: named tables, registered views, and the morsel-driven
//! parallel batch executor for [`Query`] plans.
//!
//! Every data-parallel operator (scan, filter, project, JSON_TABLE, the
//! hash-join build/probe, group-by evaluation, sort/window key
//! evaluation) runs per-morsel on scoped workers (see
//! [`crate::parallel`]); order-sensitive reassembly always happens in
//! morsel-index order, so results are byte-identical at every degree —
//! and `degree = 1` executes strictly serially on the calling thread.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fsdm_sqljson::Datum;

use fsdm_fault::catalog::{
    FP_EXEC_GROUPBY_PARTIAL, FP_EXEC_JOIN_BUILD, FP_EXEC_JSONTABLE_ROW, FP_EXEC_MORSEL,
    FP_EXEC_SORT_PERMUTE,
};
use fsdm_obs::trace::{self, Trace, TraceSession};

use crate::expr::{AggFun, EvalScratch, Expr};
use crate::govern::{fault_err, CancelHandle, CancelToken, QueryGovernor};
use crate::parallel::{
    default_degree, run_morsels, ExecContext, ParStats, RowRange, DEFAULT_MORSEL_ROWS,
};
use crate::profile::{OpProfile, QueryProfile};
use crate::query::{AggSpec, Query, QueryResult, SortKey, WindowFun};
use crate::slowlog::SlowLog;
use crate::table::{Cell, ErrorKind, Row, StoreError, Table};
use crate::vector::{Batch, PredKernel, ValKernel};

/// Rough per-entry byte estimates the memory budget charges for operator
/// state. Deliberately coarse — the budget is a governor, not an
/// allocator — but monotone in the real footprint, so a limit always
/// trips before memory grows unboundedly past it.
const BUDGET_BYTES_PER_JOIN_ENTRY: u64 = 48;
/// Per evaluated datum held by group-by partials and sort key tuples.
const BUDGET_BYTES_PER_DATUM: u64 = 32;
/// Per cell of a JSON_TABLE output row buffer.
const BUDGET_BYTES_PER_CELL: u64 = 32;

/// Result of attempting a fused columnar pipeline: `Ok(None)` means the
/// plan does not lower to kernels — fall back to the row path.
type FusedResult = Result<Option<(Vec<String>, Vec<Row>)>, StoreError>;

/// An embedded database instance.
pub struct Database {
    tables: HashMap<String, Table>,
    views: HashMap<String, Query>,
    prune_dead_json_predicates: bool,
    /// Configured parallel degree; 0 means "resolve the process default"
    /// (`FSDM_THREADS`, else `available_parallelism`).
    parallelism: usize,
    /// Configured morsel size in rows; 0 means [`DEFAULT_MORSEL_ROWS`].
    morsel_rows: usize,
    /// Slow-query ring log; disarmed by default.
    slow_log: SlowLog,
    /// Whether the executor may select vectorized columnar pipelines.
    columnar: bool,
    /// Statement timeout in milliseconds; `None` = unlimited.
    statement_timeout_ms: Option<u64>,
    /// Per-statement memory budget in bytes; `None` = unlimited.
    mem_limit: Option<u64>,
    /// The shared cancel token every statement of this database runs
    /// under; handed out to [`CancelHandle`]s for cross-thread kills.
    cancel: Arc<CancelToken>,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            tables: HashMap::new(),
            views: HashMap::new(),
            prune_dead_json_predicates: false,
            parallelism: 0,
            morsel_rows: 0,
            slow_log: SlowLog::default(),
            // columnar pipeline selection is on by default: it only fires
            // where kernels reproduce row semantics exactly
            columnar: true,
            statement_timeout_ms: crate::govern::default_timeout_ms(),
            mem_limit: None,
            cancel: Arc::new(CancelToken::new()),
        }
    }
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable vectorized columnar pipeline selection (on by
    /// default). With it off, every operator takes the scratch-based row
    /// path. Results are byte-identical either way — the switch exists
    /// for A/B verification and the `bench imc` row-vs-columnar
    /// comparison.
    pub fn set_columnar(&mut self, on: bool) {
        self.columnar = on;
    }

    /// Whether columnar pipeline selection is enabled.
    pub fn columnar(&self) -> bool {
        self.columnar
    }

    /// Pin the executor's parallel degree for this database. `1` forces
    /// strictly serial execution; values are clamped to at least 1. The
    /// default (until this is called) comes from the `FSDM_THREADS`
    /// environment variable, falling back to
    /// [`std::thread::available_parallelism`].
    pub fn set_parallelism(&mut self, degree: usize) {
        self.parallelism = degree.max(1);
    }

    /// The effective parallel degree queries will run with.
    pub fn parallelism(&self) -> usize {
        if self.parallelism == 0 {
            default_degree()
        } else {
            self.parallelism
        }
    }

    /// Override the morsel size in rows (mainly for tests and benchmarks;
    /// results are identical for any morsel size — only scheduling
    /// granularity changes). Clamped to at least 1.
    pub fn set_morsel_rows(&mut self, rows: usize) {
        self.morsel_rows = rows.max(1);
    }

    /// Set (or clear) the statement timeout: every subsequent statement
    /// gets a deadline of `now + ms` at execution start and dies with a
    /// typed deadline error when it runs past it.
    pub fn set_statement_timeout(&mut self, ms: Option<u64>) {
        self.statement_timeout_ms = ms;
    }

    /// The configured statement timeout in milliseconds, if any.
    pub fn statement_timeout(&self) -> Option<u64> {
        self.statement_timeout_ms
    }

    /// Set (or clear) the per-statement memory budget in bytes. Operators
    /// that materialize state (hash-join builds, group-by partials, sort
    /// key tuples, JSON_TABLE row buffers) charge against it and degrade
    /// into a typed budget error when it is exhausted.
    pub fn set_mem_limit(&mut self, bytes: Option<u64>) {
        self.mem_limit = bytes;
    }

    /// The configured per-statement memory budget in bytes, if any.
    pub fn mem_limit(&self) -> Option<u64> {
        self.mem_limit
    }

    /// A cross-thread handle that can kill this database's running
    /// statement (and, until the next statement starts, mark the token
    /// cancelled). The handle stays valid for the database's lifetime.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle::new(Arc::clone(&self.cancel))
    }

    /// The shared cancel token (statement entry points reset it).
    pub fn cancel_token(&self) -> &Arc<CancelToken> {
        &self.cancel
    }

    /// The execution context every operator of one query shares.
    fn exec_context(&self, profile: bool) -> ExecContext {
        // a caught worker panic leaves a peer-panic cancellation behind;
        // it is transient by design — clear it so the database stays
        // usable through `&self` surfaces (a pending *user* cancel is
        // preserved; `Session`'s `&mut` entry points do the full reset)
        self.cancel.clear_transient();
        ExecContext {
            degree: self.parallelism(),
            morsel_rows: if self.morsel_rows == 0 { DEFAULT_MORSEL_ROWS } else { self.morsel_rows },
            profile,
            governor: Arc::new(QueryGovernor::for_statement(
                Arc::clone(&self.cancel),
                self.statement_timeout_ms,
                self.mem_limit,
            )),
        }
    }

    /// Opt into the analyzer/optimizer handshake: scans whose filter
    /// contains a JSON predicate over a path the table's DataGuide proves
    /// empty (`fsdm_analyze::path_provably_empty`) are rewritten to
    /// constant-false scans. Off by default; results are identical either
    /// way, only the plan changes.
    pub fn set_dead_path_pruning(&mut self, on: bool) {
        self.prune_dead_json_predicates = on;
    }

    /// Whether dead-JSON-path pruning is enabled.
    pub fn dead_path_pruning(&self) -> bool {
        self.prune_dead_json_predicates
    }

    /// Register a table. If a table with the same name already exists it
    /// is replaced and the old table is returned, so callers can detect
    /// (and refuse, or log) accidental overwrites instead of silently
    /// losing data.
    pub fn add_table(&mut self, table: Table) -> Option<Table> {
        self.tables.insert(table.schema.name.clone(), table)
    }

    /// Access a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Mutable access to a table.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }

    /// Register a named view over a plan (DataGuide-generated DMDVs land
    /// here).
    pub fn create_view(&mut self, name: impl Into<String>, plan: Query) {
        self.views.insert(name.into(), plan);
    }

    /// Look up a view plan.
    pub fn view(&self, name: &str) -> Option<&Query> {
        self.views.get(name)
    }

    /// Output column names of a plan without executing it (the SQL planner
    /// resolves identifiers against this).
    pub fn plan_columns(&self, plan: &Query) -> Result<Vec<String>, StoreError> {
        Ok(match plan {
            Query::Scan { table, .. } => self
                .tables
                .get(table)
                .ok_or_else(|| StoreError::new(format!("no table {table}")))?
                .scan_column_names(),
            Query::ViewScan { view } => {
                let plan = self
                    .views
                    .get(view)
                    .ok_or_else(|| StoreError::new(format!("no view {view}")))?;
                self.plan_columns(plan)?
            }
            Query::Filter { input, .. }
            | Query::Limit { input, .. }
            | Query::Sort { input, .. }
            | Query::Sample { input, .. } => self.plan_columns(input)?,
            Query::Project { exprs, .. } => exprs.iter().map(|(n, _)| n.clone()).collect(),
            Query::JsonTable { input, def, .. } => {
                let mut cols = self.plan_columns(input)?;
                cols.extend(def.column_names());
                cols
            }
            Query::HashJoin { left, right, .. } => {
                let mut cols = self.plan_columns(left)?;
                cols.extend(self.plan_columns(right)?);
                cols
            }
            Query::GroupBy { keys, aggs, .. } => keys
                .iter()
                .map(|(n, _)| n.clone())
                .chain(aggs.iter().map(|a| a.name.clone()))
                .collect(),
            Query::Window { input, name, .. } => {
                let mut cols = self.plan_columns(input)?;
                cols.push(name.clone());
                cols
            }
        })
    }

    /// Execute a plan to a materialized result. Plans are first run
    /// through the optimizer (notably the §6.3 JSON_EXISTS predicate
    /// pushdown into JSON_TABLE pipelines).
    pub fn execute(&self, plan: &Query) -> Result<QueryResult, StoreError> {
        self.execute_sourced(plan, None)
    }

    /// [`Database::execute`] with the originating SQL text attached, so
    /// slow-query-log entries name the statement instead of the plan
    /// root. While the slow log is armed, execution runs through the
    /// profiled path so captured entries carry a full operator tree.
    pub fn execute_sourced(
        &self,
        plan: &Query,
        source: Option<&str>,
    ) -> Result<QueryResult, StoreError> {
        if self.slow_log.armed() {
            let (result, profile) = self.execute_profiled_inner(plan, source)?;
            self.log_slow(source, plan, &profile, None);
            return Ok(result);
        }
        let optimized = crate::optimizer::optimize(self, plan.clone());
        self.execute_unoptimized(&optimized)
    }

    /// Execute a plan exactly as given (no rewrites) — used by tests and
    /// by the ablation benchmark that measures the pushdown's effect.
    pub fn execute_unoptimized(&self, plan: &Query) -> Result<QueryResult, StoreError> {
        let start = Instant::now();
        let ctx = self.exec_context(false);
        fsdm_obs::gauge!(fsdm_obs::catalog::EXEC_DEGREE).set(ctx.degree as i64);
        let mut root_span = trace::span(fsdm_obs::catalog::SPAN_STORE_QUERY);
        root_span.record_args(|| op_label(plan));
        let out = self.exec(plan, &mut None, &ctx);
        drop(root_span);
        self.finish_statement(&ctx, None, plan, out.as_ref().err(), start);
        let (columns, rows) = out?;
        fsdm_obs::counter!(fsdm_obs::catalog::STORE_EXEC_QUERIES).inc();
        fsdm_obs::histogram!(fsdm_obs::catalog::STORE_EXEC_NS)
            .record(start.elapsed().as_nanos() as u64);
        Ok(materialize(columns, rows))
    }

    /// Execute a plan (optimized, like [`Database::execute`]) while
    /// recording per-operator output cardinality and inclusive wall time.
    /// Returns the result together with an `EXPLAIN ANALYZE`-style
    /// [`QueryProfile`] mirroring the *optimized* plan shape.
    pub fn execute_profiled(
        &self,
        plan: &Query,
    ) -> Result<(QueryResult, QueryProfile), StoreError> {
        let (result, profile) = self.execute_profiled_inner(plan, None)?;
        self.log_slow(None, plan, &profile, None);
        Ok((result, profile))
    }

    /// The profiled execution core, shared by the profiled, traced and
    /// slow-log-armed surfaces; no slow-log side effects of its own.
    fn execute_profiled_inner(
        &self,
        plan: &Query,
        source: Option<&str>,
    ) -> Result<(QueryResult, QueryProfile), StoreError> {
        let start = Instant::now();
        let optimized = crate::optimizer::optimize(self, plan.clone());
        let ctx = self.exec_context(true);
        fsdm_obs::gauge!(fsdm_obs::catalog::EXEC_DEGREE).set(ctx.degree as i64);
        let mut root_span = trace::span(fsdm_obs::catalog::SPAN_STORE_QUERY);
        root_span.record_args(|| op_label(plan));
        let mut sink = Some(Vec::new());
        let out = self.exec(&optimized, &mut sink, &ctx);
        drop(root_span);
        self.finish_statement(&ctx, source, plan, out.as_ref().err(), start);
        let (columns, rows) = out?;
        let root =
            sink.and_then(|mut ops| ops.pop()).expect("profiled execution yields a root operator");
        fsdm_obs::counter!(fsdm_obs::catalog::STORE_EXEC_QUERIES).inc();
        fsdm_obs::histogram!(fsdm_obs::catalog::STORE_EXEC_NS).record(root.elapsed_ns);
        Ok((materialize(columns, rows), QueryProfile::new(root)))
    }

    /// Execute a plan under an armed [`TraceSession`]: runs the profiled
    /// path with span capture and returns the result, the operator
    /// profile, and the finished span tree. Sessions are process-global,
    /// so concurrent traced executions serialize.
    pub fn execute_traced(
        &self,
        plan: &Query,
    ) -> Result<(QueryResult, QueryProfile, Trace), StoreError> {
        self.execute_traced_sourced(plan, None)
    }

    /// [`Database::execute_traced`] with the originating SQL text
    /// attached for slow-query-log entries, which also capture the trace
    /// summary.
    pub fn execute_traced_sourced(
        &self,
        plan: &Query,
        source: Option<&str>,
    ) -> Result<(QueryResult, QueryProfile, Trace), StoreError> {
        let session = TraceSession::begin();
        let out = self.execute_profiled_inner(plan, source);
        let trace = session.finish();
        let (result, profile) = out?;
        self.log_slow(source, plan, &profile, Some(trace.summary()));
        Ok((result, profile, trace))
    }

    /// Arm the slow-query ring log: queries whose wall time reaches
    /// `threshold_ns` (0 captures everything) are kept in a ring of the
    /// last `cap` entries, each with its SQL text (when known via the
    /// `*_sourced` surfaces), operator profile, and trace summary. A
    /// `cap` of 0 disarms. Re-arming clears previous contents.
    pub fn set_slow_log(&self, threshold_ns: u64, cap: usize) {
        self.slow_log.arm(threshold_ns, cap);
    }

    /// The slow-query ring log.
    pub fn slow_log(&self) -> &SlowLog {
        &self.slow_log
    }

    /// JSON dump of the slow-query ring log (see [`SlowLog::to_json`]).
    pub fn slow_log_json(&self) -> String {
        self.slow_log.to_json()
    }

    /// Statement-exit governance bookkeeping, run on success *and*
    /// failure: publishes the memory high-water gauge, counts governance
    /// kills by reason, and lands killed statements in the slow-query
    /// ring (threshold-exempt) so a dump shows *why* they died.
    fn finish_statement(
        &self,
        ctx: &ExecContext,
        source: Option<&str>,
        plan: &Query,
        err: Option<&StoreError>,
        started: Instant,
    ) {
        fsdm_obs::gauge!(fsdm_obs::catalog::EXEC_MEM_HIGHWATER)
            .set(ctx.governor.mem_highwater() as i64);
        let reason = match err.map(|e| e.kind) {
            Some(ErrorKind::Cancelled(r)) => {
                fsdm_obs::counter!(fsdm_obs::catalog::GOVERN_CANCELLED).inc();
                Some(r.label())
            }
            Some(ErrorKind::DeadlineExceeded) => {
                fsdm_obs::counter!(fsdm_obs::catalog::GOVERN_DEADLINE_EXCEEDED).inc();
                Some("deadline")
            }
            Some(ErrorKind::BudgetExceeded) => {
                fsdm_obs::counter!(fsdm_obs::catalog::GOVERN_BUDGET_EXCEEDED).inc();
                Some("budget")
            }
            // worker panics are counted at the catch site in `run_morsels`
            Some(ErrorKind::WorkerPanic { .. } | ErrorKind::Generic) | None => None,
        };
        let Some(reason) = reason else { return };
        if !self.slow_log.armed() {
            return;
        }
        let label;
        let source = match source {
            Some(s) => s,
            None => {
                label = op_label(plan);
                &label
            }
        };
        self.slow_log.record_killed(
            source,
            started.elapsed().as_nanos() as u64,
            self.parallelism(),
            reason,
        );
    }

    fn log_slow(
        &self,
        source: Option<&str>,
        plan: &Query,
        profile: &QueryProfile,
        trace_summary: Option<String>,
    ) {
        if !self.slow_log.armed() {
            return;
        }
        let label;
        let source = match source {
            Some(s) => s,
            None => {
                label = op_label(plan);
                &label
            }
        };
        self.slow_log.record(
            source,
            profile.elapsed_ns(),
            self.parallelism(),
            Some(profile),
            trace_summary,
        );
    }

    /// Recursive entry point of the volcano executor. When `prof` carries
    /// a sink, the operator's output row count and inclusive elapsed time
    /// are measured and pushed into it (children collected via a fresh
    /// sink passed down to [`Database::exec_inner`]); with `None` the
    /// executor runs with zero profiling overhead.
    fn exec(
        &self,
        plan: &Query,
        prof: &mut Option<Vec<OpProfile>>,
        ctx: &ExecContext,
    ) -> Result<(Vec<String>, Vec<Row>), StoreError> {
        let mut op_span = trace::span(fsdm_obs::catalog::SPAN_EXEC_OP);
        op_span.record_args(|| op_label(plan));
        match prof {
            None => {
                let mut stats = ParStats::default();
                self.exec_inner(plan, &mut None, ctx, &mut stats)
            }
            Some(sink) => {
                let mut child_sink = Some(Vec::new());
                let mut stats = ParStats::default();
                let start = Instant::now();
                let (names, rows) = self.exec_inner(plan, &mut child_sink, ctx, &mut stats)?;
                sink.push(OpProfile {
                    op: op_label(plan),
                    rows_out: rows.len(),
                    elapsed_ns: start.elapsed().as_nanos() as u64,
                    workers: stats.workers.max(1),
                    morsels: stats.morsels,
                    mode: self.plan_mode(plan),
                    children: child_sink.unwrap_or_default(),
                });
                Ok((names, rows))
            }
        }
    }

    fn exec_inner(
        &self,
        plan: &Query,
        prof: &mut Option<Vec<OpProfile>>,
        ctx: &ExecContext,
        stats: &mut ParStats,
    ) -> Result<(Vec<String>, Vec<Row>), StoreError> {
        match plan {
            Query::Scan { table, filter } => {
                let t = self
                    .tables
                    .get(table)
                    .ok_or_else(|| StoreError::new(format!("no table {table}")))?;
                let names = t.scan_column_names();
                // constant-false scan (the dead-path pruning rewrite):
                // nothing can qualify, so skip the row loop entirely
                if let Some(Expr::Lit(d)) = filter {
                    if !matches!(d, Datum::Bool(true)) {
                        return Ok((names, Vec::new()));
                    }
                }
                // columnar fast path (§5.2.1): a filter that lowers fully
                // to predicate kernels evaluates per morsel over the typed
                // IMC vectors — masks and selection vectors only; rows are
                // rebuilt for qualifying ids alone (late materialization)
                if self.columnar {
                    if let Some(pred) = filter {
                        if let Some(kernel) = pred.compile_predicate(&t.imc.vectors, t.rows.len()) {
                            let chunks =
                                run_morsels(ctx, t.rows.len(), stats, |range, scratch| {
                                    fsdm_fault::fire(FP_EXEC_MORSEL).map_err(fault_err)?;
                                    let start = Instant::now();
                                    let batch = columnar_batch(range, Some(&kernel));
                                    let mut out = Vec::with_capacity(batch.len());
                                    let mut acc = 0;
                                    for i in batch.sel.iter() {
                                        ctx.governor.check_rows(&mut acc, 1)?;
                                        out.push(scan_row(t, i, &t.rows[i], scratch)?);
                                    }
                                    fsdm_obs::counter!(
                                        fsdm_obs::catalog::EXEC_LATE_MATERIALIZE_ROWS
                                    )
                                    .add(out.len() as u64);
                                    fsdm_obs::histogram!(fsdm_obs::catalog::EXEC_BATCH_NS)
                                        .record(start.elapsed().as_nanos() as u64);
                                    Ok(out)
                                })?;
                            return Ok((names, chunks.into_iter().flatten().collect()));
                        }
                    }
                }
                // heap path: materialize + filter per-morsel; morsel-order
                // concatenation keeps row order identical to a serial scan
                let chunks = run_morsels(ctx, t.rows.len(), stats, |range, scratch| {
                    fsdm_fault::fire(FP_EXEC_MORSEL).map_err(fault_err)?;
                    let mut out = Vec::with_capacity(range.len());
                    let mut acc = 0;
                    for i in range.start..range.end {
                        ctx.governor.check_rows(&mut acc, 1)?;
                        let r = scan_row(t, i, &t.rows[i], scratch)?;
                        if let Some(pred) = filter {
                            if !pred.matches_with(&r, scratch)? {
                                continue;
                            }
                        }
                        out.push(r);
                    }
                    Ok(out)
                })?;
                Ok((names, chunks.into_iter().flatten().collect()))
            }
            Query::ViewScan { view } => {
                let plan = self
                    .views
                    .get(view)
                    .ok_or_else(|| StoreError::new(format!("no view {view}")))?;
                self.exec(plan, prof, ctx)
            }
            Query::Filter { input, pred } => {
                let (names, rows) = self.exec(input, prof, ctx)?;
                // parallel predicate evaluation into per-morsel boolean
                // masks; the move-filter over owned rows stays serial
                let masks = run_morsels(ctx, rows.len(), stats, |range, scratch| {
                    fsdm_fault::fire(FP_EXEC_MORSEL).map_err(fault_err)?;
                    rows[range.start..range.end]
                        .iter()
                        .map(|r| pred.matches_with(r, scratch))
                        .collect::<Result<Vec<bool>, _>>()
                })?;
                let keep: Vec<bool> = masks.into_iter().flatten().collect();
                let out = rows.into_iter().zip(keep).filter_map(|(r, k)| k.then_some(r)).collect();
                Ok((names, out))
            }
            Query::Project { input, exprs } => {
                // full fusion: Scan→Filter→Project stays columnar end to
                // end, gathering only selected rows per output expression;
                // rows exist for the first time in the transposed result
                if let Some(out) = self.try_columnar_project(input, exprs, prof, ctx, stats)? {
                    return Ok(out);
                }
                let (_, rows) = self.exec(input, prof, ctx)?;
                let names = exprs.iter().map(|(n, _)| n.clone()).collect();
                let chunks = run_morsels(ctx, rows.len(), stats, |range, scratch| {
                    let mut out = Vec::with_capacity(range.len());
                    for r in &rows[range.start..range.end] {
                        let mut o = Vec::with_capacity(exprs.len());
                        for (_, e) in exprs {
                            o.push(Cell::D(e.eval_with(r, scratch)?));
                        }
                        out.push(o);
                    }
                    Ok(out)
                })?;
                Ok((names, chunks.into_iter().flatten().collect()))
            }
            Query::JsonTable { input, json_col, def } => {
                let (mut names, rows) = self.exec(input, prof, ctx)?;
                names.extend(def.column_names());
                let width = def.width();
                // one cursor per worker, held across all the documents that
                // worker expands: compiled paths and their §4.2.1 look-back
                // caches persist exactly as the old whole-scan cursor did
                let chunks = run_morsels(ctx, rows.len(), stats, |range, scratch| {
                    fsdm_fault::fire(FP_EXEC_JSONTABLE_ROW).map_err(fault_err)?;
                    let mut out = Vec::new();
                    for r in &rows[range.start..range.end] {
                        let jt_rows = match r.get(*json_col) {
                            Some(Cell::J(j)) => j.json_table_rows_with(scratch.cursor(def)),
                            _ => Vec::new(),
                        };
                        if jt_rows.is_empty() {
                            let mut padded = r.clone();
                            padded.extend(std::iter::repeat_n(Cell::D(Datum::Null), width));
                            out.push(padded);
                        } else {
                            for jt in jt_rows {
                                let mut combined = r.clone();
                                combined.extend(jt.into_iter().map(Cell::D));
                                out.push(combined);
                            }
                        }
                    }
                    // the expanded buffer is this operator's memory bill:
                    // every output row holds the input row plus `width`
                    // JSON_TABLE columns
                    ctx.governor
                        .charge(out.len() as u64 * (width as u64 + 1) * BUDGET_BYTES_PER_CELL)?;
                    Ok(out)
                })?;
                Ok((names, chunks.into_iter().flatten().collect()))
            }
            Query::HashJoin { left, right, left_key, right_key } => {
                let (lnames, lrows) = self.exec(left, prof, ctx)?;
                let (rnames, rrows) = self.exec(right, prof, ctx)?;
                let mut names = lnames;
                names.extend(rnames);
                // build: per-morsel partial tables merged at a barrier in
                // morsel order. Each partial holds ascending, disjoint row
                // ids, so per-key concatenation reproduces the serial
                // insertion order exactly.
                let partials = run_morsels(ctx, lrows.len(), stats, |range, _| {
                    fsdm_fault::fire(FP_EXEC_JOIN_BUILD).map_err(fault_err)?;
                    let mut m: HashMap<Datum, Vec<usize>> = HashMap::new();
                    let mut entries = 0u64;
                    for (off, r) in lrows[range.start..range.end].iter().enumerate() {
                        if let Some(Cell::D(d)) = r.get(*left_key) {
                            if !d.is_null() {
                                m.entry(d.clone()).or_default().push(range.start + off);
                                entries += 1;
                            }
                        }
                    }
                    ctx.governor.charge(entries * BUDGET_BYTES_PER_JOIN_ENTRY)?;
                    Ok(m)
                })?;
                let mut build: HashMap<Datum, Vec<usize>> = HashMap::new();
                for m in partials {
                    for (k, v) in m {
                        build.entry(k).or_default().extend(v);
                    }
                }
                // probe: per-morsel over the right input, morsel-ordered
                let chunks = run_morsels(ctx, rrows.len(), stats, |range, _| {
                    let mut out = Vec::new();
                    for r in &rrows[range.start..range.end] {
                        if let Some(Cell::D(d)) = r.get(*right_key) {
                            if let Some(matches) = build.get(d) {
                                for &li in matches {
                                    let mut combined = lrows[li].clone();
                                    combined.extend(r.iter().cloned());
                                    out.push(combined);
                                }
                            }
                        }
                    }
                    Ok(out)
                })?;
                Ok((names, chunks.into_iter().flatten().collect()))
            }
            Query::GroupBy { input, keys, aggs } => {
                // keyless aggregate pushdown: COUNT/SUM/MIN/MAX/AVG fold
                // over the selection vectors without building input rows
                if keys.is_empty() {
                    if let Some(out) = self.try_columnar_agg(input, aggs, prof, ctx, stats)? {
                        return Ok(out);
                    }
                }
                let (_, rows) = self.exec(input, prof, ctx)?;
                group_by(rows, keys, aggs, ctx, stats)
            }
            Query::Sort { input, keys } => {
                let (names, rows) = self.exec(input, prof, ctx)?;
                let rows = sort_rows(rows, keys, ctx, stats)?;
                Ok((names, rows))
            }
            Query::Window { input, name, fun, order } => {
                let (mut names, rows) = self.exec(input, prof, ctx)?;
                let mut rows = sort_rows(rows, order, ctx, stats)?;
                names.push(name.clone());
                match fun {
                    WindowFun::Lag { expr, offset, default } => {
                        // parallel: evaluate the lagged expression per-morsel
                        let chunks = run_morsels(ctx, rows.len(), stats, |range, scratch| {
                            rows[range.start..range.end]
                                .iter()
                                .map(|r| expr.eval_with(r, scratch))
                                .collect::<Result<Vec<Datum>, _>>()
                        })?;
                        let vals: Vec<Datum> = chunks.into_iter().flatten().collect();
                        // serial tail: stitch lagged values back in order
                        let mut scratch = EvalScratch::new();
                        for i in 0..rows.len() {
                            let cell = if i >= *offset {
                                vals[i - *offset].clone()
                            } else {
                                match default {
                                    Some(d) => d.eval_with(&rows[i], &mut scratch)?,
                                    None => Datum::Null,
                                }
                            };
                            rows[i].push(Cell::D(cell));
                        }
                    }
                }
                Ok((names, rows))
            }
            Query::Limit { input, n } => {
                let (names, mut rows) = self.exec(input, prof, ctx)?;
                rows.truncate(*n);
                Ok((names, rows))
            }
            Query::Sample { input, pct } => {
                let (names, rows) = self.exec(input, prof, ctx)?;
                let keep = |i: usize| -> bool {
                    let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32;
                    ((h % 10_000) as f64) < pct * 100.0
                };
                let out = rows
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| keep(*i))
                    .map(|(_, r)| r)
                    .collect();
                Ok((names, out))
            }
        }
    }

    /// Compile the columnar Scan→Filter front of a fused pipeline: the
    /// input must be a base-table scan whose filter (if any) lowers fully
    /// to predicate kernels. This is the single decision point shared by
    /// the executor's fused operators and the EXPLAIN mode report, so the
    /// two can never disagree.
    fn scan_pipeline<'a>(&'a self, input: &Query) -> Option<(&'a Table, Option<PredKernel>)> {
        if !self.columnar {
            return None;
        }
        let Query::Scan { table, filter } = input else { return None };
        let t = self.tables.get(table)?;
        let kernel = match filter {
            None => None,
            Some(pred) => Some(pred.compile_predicate(&t.imc.vectors, t.rows.len())?),
        };
        Some((t, kernel))
    }

    /// `Project` over a columnar scan pipeline, fully fused: per morsel,
    /// kernels filter the batch and each output expression gathers only
    /// the selected rows; the gathered columns are transposed into result
    /// rows — the first (and only) point rows exist in this pipeline.
    fn try_columnar_project(
        &self,
        input: &Query,
        exprs: &[(String, Expr)],
        prof: &mut Option<Vec<OpProfile>>,
        ctx: &ExecContext,
        stats: &mut ParStats,
    ) -> FusedResult {
        let Some((t, kernel)) = self.scan_pipeline(input) else { return Ok(None) };
        let floor = t.schema.width();
        let mut vals = Vec::with_capacity(exprs.len());
        for (_, e) in exprs {
            match e.compile_value(&t.imc.vectors, t.rows.len(), floor) {
                Some(v) => vals.push(v),
                None => return Ok(None),
            }
        }
        let scan_start = Instant::now();
        let chunks = run_morsels(ctx, t.rows.len(), stats, |range, _| {
            fsdm_fault::fire(FP_EXEC_MORSEL).map_err(fault_err)?;
            let mut acc = 0;
            let start = Instant::now();
            let batch = columnar_batch(range, kernel.as_ref());
            ctx.governor.check_rows(&mut acc, batch.len())?;
            let mut cols = Vec::with_capacity(vals.len());
            for v in &vals {
                cols.push(batch.gather(v)?);
            }
            // transpose the gathered columns into rows, moving each datum
            // exactly once
            let mut rows: Vec<Row> =
                (0..batch.len()).map(|_| Vec::with_capacity(cols.len())).collect();
            for col in cols {
                for (r, d) in rows.iter_mut().zip(col) {
                    r.push(Cell::D(d));
                }
            }
            fsdm_obs::counter!(fsdm_obs::catalog::EXEC_LATE_MATERIALIZE_ROWS)
                .add(rows.len() as u64);
            fsdm_obs::histogram!(fsdm_obs::catalog::EXEC_BATCH_NS)
                .record(start.elapsed().as_nanos() as u64);
            Ok(rows)
        })?;
        let rows: Vec<Row> = chunks.into_iter().flatten().collect();
        // the scan never ran as a plan node; report it as part of this
        // fused pipeline so profiled trees keep their plan shape
        if let Some(sink) = prof {
            sink.push(OpProfile {
                op: op_label(input),
                rows_out: rows.len(),
                elapsed_ns: scan_start.elapsed().as_nanos() as u64,
                workers: stats.workers.max(1),
                morsels: stats.morsels,
                mode: "columnar",
                children: Vec::new(),
            });
        }
        let names = exprs.iter().map(|(n, _)| n.clone()).collect();
        Ok(Some((names, rows)))
    }

    /// Keyless aggregation over a columnar scan pipeline: per morsel,
    /// kernels filter the batch and each aggregate argument gathers only
    /// the selected rows; the gathered columns then replay **serially in
    /// morsel order** into the accumulators, so order-sensitive float
    /// SUM/AVG see exactly the update sequence of a serial row scan.
    fn try_columnar_agg(
        &self,
        input: &Query,
        aggs: &[AggSpec],
        prof: &mut Option<Vec<OpProfile>>,
        ctx: &ExecContext,
        stats: &mut ParStats,
    ) -> FusedResult {
        let Some((t, kernel)) = self.scan_pipeline(input) else { return Ok(None) };
        let floor = t.schema.width();
        let mut arg_kernels: Vec<Option<ValKernel>> = Vec::with_capacity(aggs.len());
        for spec in aggs {
            match &spec.arg {
                None => arg_kernels.push(None), // COUNT(*) needs no values
                Some(e) => match e.compile_value(&t.imc.vectors, t.rows.len(), floor) {
                    Some(v) => arg_kernels.push(Some(v)),
                    None => return Ok(None),
                },
            }
        }
        let scan_start = Instant::now();
        let chunks = run_morsels(ctx, t.rows.len(), stats, |range, _| {
            fsdm_fault::fire(FP_EXEC_MORSEL).map_err(fault_err)?;
            let start = Instant::now();
            let batch = columnar_batch(range, kernel.as_ref());
            let mut cols: Vec<Option<Vec<Datum>>> = Vec::with_capacity(arg_kernels.len());
            for k in &arg_kernels {
                cols.push(match k {
                    Some(v) => Some(batch.gather(v)?),
                    None => None,
                });
            }
            fsdm_obs::histogram!(fsdm_obs::catalog::EXEC_BATCH_NS)
                .record(start.elapsed().as_nanos() as u64);
            Ok((batch.len(), cols))
        })?;
        let mut selected = 0usize;
        let mut accs: Vec<Acc> = aggs.iter().map(|a| Acc::new(a.fun)).collect();
        let mut acc_rows = 0;
        for (n, cols) in chunks {
            ctx.governor.check_rows(&mut acc_rows, n)?;
            selected += n;
            for (acc, col) in accs.iter_mut().zip(cols) {
                match col {
                    Some(vals) => {
                        for v in vals {
                            acc.update(Some(v));
                        }
                    }
                    None => {
                        for _ in 0..n {
                            acc.update(None);
                        }
                    }
                }
            }
        }
        if let Some(sink) = prof {
            sink.push(OpProfile {
                op: op_label(input),
                rows_out: selected,
                elapsed_ns: scan_start.elapsed().as_nanos() as u64,
                workers: stats.workers.max(1),
                morsels: stats.morsels,
                mode: "columnar",
                children: Vec::new(),
            });
        }
        let names: Vec<String> = aggs.iter().map(|a| a.name.clone()).collect();
        let row: Row = accs.into_iter().map(|a| Cell::D(a.finish())).collect();
        fsdm_obs::counter!(fsdm_obs::catalog::EXEC_LATE_MATERIALIZE_ROWS).add(1);
        Ok(Some((names, vec![row])))
    }

    /// The pipeline the executor selects for the root operator of an
    /// (already optimized) plan: `"columnar"` when it lowers to
    /// vectorized kernels over IMC vectors, `"row"` otherwise. Backed by
    /// the same kernel compilation the executor runs, so the report
    /// matches the execution.
    pub fn plan_mode(&self, plan: &Query) -> &'static str {
        if self.columnar_root(plan) {
            "columnar"
        } else {
            "row"
        }
    }

    fn columnar_root(&self, plan: &Query) -> bool {
        match plan {
            // a bare scan only counts as columnar when a kernel filter
            // actually runs over the vectors
            Query::Scan { filter: Some(_), .. } => {
                matches!(self.scan_pipeline(plan), Some((_, Some(_))))
            }
            Query::Project { input, exprs } => self
                .scan_pipeline(input)
                .map(|(t, _)| {
                    exprs.iter().all(|(_, e)| {
                        e.compile_value(&t.imc.vectors, t.rows.len(), t.schema.width()).is_some()
                    })
                })
                .unwrap_or(false),
            Query::GroupBy { input, keys, aggs } if keys.is_empty() => self
                .scan_pipeline(input)
                .map(|(t, _)| {
                    aggs.iter().all(|spec| match &spec.arg {
                        None => true,
                        Some(e) => e
                            .compile_value(&t.imc.vectors, t.rows.len(), t.schema.width())
                            .is_some(),
                    })
                })
                .unwrap_or(false),
            _ => false,
        }
    }

    /// [`Query::render`] of an (already optimized) plan with the
    /// executor's pipeline selection appended to every line:
    /// `… mode=columnar|row`. The scan feeding a fused columnar operator
    /// is part of that pipeline and annotates columnar as well.
    pub fn explain_modes(&self, plan: &Query) -> String {
        let mut modes = Vec::new();
        self.collect_modes(plan, false, &mut modes);
        let mut out = String::new();
        for (line, mode) in plan.render().lines().zip(modes) {
            out.push_str(line);
            out.push_str("  mode=");
            out.push_str(mode);
            out.push('\n');
        }
        out
    }

    /// Pre-order mode walk mirroring [`Query::render`]'s line order.
    fn collect_modes(&self, plan: &Query, fused: bool, out: &mut Vec<&'static str>) {
        let columnar = fused || self.columnar_root(plan);
        out.push(if columnar { "columnar" } else { "row" });
        // a fused Project/GroupBy absorbs its scan child into the
        // columnar pipeline; every other child is its own decision
        let fuse_child = columnar && matches!(plan, Query::Project { .. } | Query::GroupBy { .. });
        match plan {
            Query::Filter { input, .. }
            | Query::Project { input, .. }
            | Query::JsonTable { input, .. }
            | Query::GroupBy { input, .. }
            | Query::Sort { input, .. }
            | Query::Window { input, .. }
            | Query::Limit { input, .. }
            | Query::Sample { input, .. } => self.collect_modes(input, fuse_child, out),
            Query::HashJoin { left, right, .. } => {
                self.collect_modes(left, false, out);
                self.collect_modes(right, false, out);
            }
            Query::Scan { .. } | Query::ViewScan { .. } => {}
        }
    }
}

/// Evaluate the (optional) predicate kernel over one morsel, recording
/// kernel time and the surviving batch size.
fn columnar_batch(range: RowRange, kernel: Option<&PredKernel>) -> Batch {
    let batch = match kernel {
        Some(k) => {
            let start = Instant::now();
            let batch = Batch::all(range).filter(k);
            fsdm_obs::histogram!(fsdm_obs::catalog::IMC_KERNEL_NS)
                .record(start.elapsed().as_nanos() as u64);
            batch
        }
        None => Batch::all(range),
    };
    fsdm_obs::histogram!(fsdm_obs::catalog::EXEC_BATCH_ROWS).record(batch.len() as u64);
    batch
}

/// Materialize one scan row: §5.2.2 transparent rewrite (substitute cached
/// OSON bytes for text cells when the IMC is populated), then virtual
/// columns from IMC vectors when materialized, computed on the fly
/// otherwise.
fn scan_row(t: &Table, i: usize, row: &Row, scratch: &mut EvalScratch) -> Result<Row, StoreError> {
    let mut r = t.imc_row(row, Some(i));
    for (vi, vc) in t.virtual_columns.iter().enumerate() {
        let idx = t.schema.width() + vi;
        let cell = match t.imc.vectors.get(&idx) {
            // borrow the slot first so string cells clone straight out of
            // the dictionary without an intermediate owned Datum
            Some(vector) => Cell::D(vector.slot(i).to_datum()),
            None => Cell::D(vc.expr.eval_with(&r, scratch)?),
        };
        r.push(cell);
    }
    Ok(r)
}

/// Per-morsel partial group table: keys in first-seen order, and for each
/// key the evaluated aggregate-argument rows in input order. Keeping raw
/// argument lists (instead of partial [`Acc`]s) lets the merge replay the
/// exact serial accumulation sequence, so non-associative float SUM/AVG
/// come out bit-identical at every degree.
struct GroupPartial {
    order: Vec<Vec<Datum>>,
    args: HashMap<Vec<Datum>, Vec<Vec<Option<Datum>>>>,
}

fn group_by(
    rows: Vec<Row>,
    keys: &[(String, Expr)],
    aggs: &[AggSpec],
    ctx: &ExecContext,
    stats: &mut ParStats,
) -> Result<(Vec<String>, Vec<Row>), StoreError> {
    let names: Vec<String> =
        keys.iter().map(|(n, _)| n.clone()).chain(aggs.iter().map(|a| a.name.clone())).collect();
    // no input rows + no keys: SQL still returns one row of aggregates
    if rows.is_empty() && keys.is_empty() {
        let accs: Vec<Acc> = aggs.iter().map(|a| Acc::new(a.fun)).collect();
        let row: Row = accs.into_iter().map(|a| Cell::D(a.finish())).collect();
        return Ok((names, vec![row]));
    }
    // phase 1 (parallel): per-morsel key + argument evaluation into
    // partial tables that remember first-seen group order
    let partials = run_morsels(ctx, rows.len(), stats, |range, scratch| {
        fsdm_fault::fire(FP_EXEC_GROUPBY_PARTIAL).map_err(fault_err)?;
        // partial tables hold one evaluated datum per key and aggregate
        // argument for every input row of the morsel
        ctx.governor.charge(
            (keys.len() + aggs.len()) as u64 * BUDGET_BYTES_PER_DATUM * range.len() as u64,
        )?;
        let mut p = GroupPartial { order: Vec::new(), args: HashMap::new() };
        for r in &rows[range.start..range.end] {
            let key: Vec<Datum> =
                keys.iter().map(|(_, e)| e.eval_with(r, scratch)).collect::<Result<_, _>>()?;
            let mut arg_row = Vec::with_capacity(aggs.len());
            for spec in aggs {
                arg_row.push(match &spec.arg {
                    Some(e) => Some(e.eval_with(r, scratch)?),
                    None => None,
                });
            }
            match p.args.get_mut(&key) {
                Some(group_rows) => group_rows.push(arg_row),
                None => {
                    p.order.push(key.clone());
                    p.args.insert(key, vec![arg_row]);
                }
            }
        }
        Ok(p)
    })?;
    // phase 2 (serial merge barrier): concatenating each group's argument
    // rows in morsel order is exactly global input order restricted to
    // that group, so the accumulators see the same update sequence a
    // serial run would; likewise first-seen order across morsels in
    // morsel order equals serial first-seen order
    let mut groups: HashMap<Vec<Datum>, Vec<Acc>> = HashMap::new();
    let mut order: Vec<Vec<Datum>> = Vec::new();
    for p in partials {
        let mut args = p.args;
        for key in p.order {
            let arg_rows = args.remove(&key).unwrap_or_default();
            let accs = match groups.get_mut(&key) {
                Some(a) => a,
                None => {
                    order.push(key.clone());
                    groups
                        .entry(key)
                        .or_insert_with(|| aggs.iter().map(|a| Acc::new(a.fun)).collect())
                }
            };
            for arg_row in arg_rows {
                for (acc, arg) in accs.iter_mut().zip(arg_row) {
                    acc.update(arg);
                }
            }
        }
    }
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let accs = groups.remove(&key).expect("group present");
        let mut row: Row = key.into_iter().map(Cell::D).collect();
        row.extend(accs.into_iter().map(|a| Cell::D(a.finish())));
        out.push(row);
    }
    Ok((names, out))
}

/// Convert executor rows (which may still hold binary JSON cells) into the
/// datum-only [`QueryResult`] surface.
fn materialize(columns: Vec<String>, rows: Vec<Row>) -> QueryResult {
    let rows = rows
        .into_iter()
        .map(|r| {
            r.into_iter()
                .map(|c| match c {
                    Cell::D(d) => d,
                    Cell::J(j) => Datum::Str(j.decode_to_text()),
                })
                .collect()
        })
        .collect();
    QueryResult { columns, rows }
}

/// Display label of a plan node for [`QueryProfile`] output.
fn op_label(plan: &Query) -> String {
    match plan {
        Query::Scan { table, filter } => {
            if filter.is_some() {
                format!("Scan({table},filtered)")
            } else {
                format!("Scan({table})")
            }
        }
        Query::ViewScan { view } => format!("ViewScan({view})"),
        Query::Filter { .. } => "Filter".to_string(),
        Query::Project { .. } => "Project".to_string(),
        Query::JsonTable { .. } => "JsonTable".to_string(),
        Query::HashJoin { .. } => "HashJoin".to_string(),
        Query::GroupBy { .. } => "GroupBy".to_string(),
        Query::Sort { .. } => "Sort".to_string(),
        Query::Window { name, .. } => format!("Window({name})"),
        Query::Limit { n, .. } => format!("Limit({n})"),
        Query::Sample { pct, .. } => format!("Sample({pct})"),
    }
}

fn sort_rows(
    rows: Vec<Row>,
    keys: &[SortKey],
    ctx: &ExecContext,
    stats: &mut ParStats,
) -> Result<Vec<Row>, StoreError> {
    if rows.len() <= 1 {
        return Ok(rows);
    }
    // precompute key tuples per-morsel (expressions may be JSON ops —
    // evaluate once, in parallel); the sort itself is the serial tail
    let chunks = run_morsels(ctx, rows.len(), stats, |range, scratch| {
        // the sort's memory bill is the precomputed key-tuple table
        ctx.governor.charge(keys.len() as u64 * BUDGET_BYTES_PER_DATUM * range.len() as u64)?;
        rows[range.start..range.end]
            .iter()
            .map(|r| {
                keys.iter().map(|s| s.expr.eval_with(r, scratch)).collect::<Result<Vec<Datum>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let keyed: Vec<Vec<Datum>> = chunks.into_iter().flatten().collect();
    // fired once, serially, before the permutation is applied — a fault
    // here proves the sort tail cleans up owned rows mid-operator
    fsdm_fault::fire(FP_EXEC_SORT_PERMUTE).map_err(fault_err)?;
    // stable permutation sort over indices: ties keep input order
    let mut perm: Vec<usize> = (0..rows.len()).collect();
    perm.sort_by(|&x, &y| {
        for (i, sk) in keys.iter().enumerate() {
            let ord = keyed[x][i].order_key_cmp(&keyed[y][i]);
            let ord = if sk.desc { ord.reverse() } else { ord };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    // apply the permutation by moving each owned row once — no per-row
    // clone (the previous implementation duplicated the whole row set)
    let mut slots: Vec<Option<Row>> = rows.into_iter().map(Some).collect();
    let mut out = Vec::with_capacity(slots.len());
    for src in perm {
        out.push(slots[src].take().expect("each source row moves exactly once"));
    }
    Ok(out)
}

/// Aggregate accumulator.
enum Acc {
    Count(u64),
    CountNonNull(u64),
    Sum { total: f64, any: bool },
    Avg { total: f64, n: u64 },
    Min(Option<Datum>),
    Max(Option<Datum>),
}

impl Acc {
    fn new(fun: AggFun) -> Acc {
        match fun {
            AggFun::CountStar => Acc::Count(0),
            AggFun::Count => Acc::CountNonNull(0),
            AggFun::Sum => Acc::Sum { total: 0.0, any: false },
            AggFun::Avg => Acc::Avg { total: 0.0, n: 0 },
            AggFun::Min => Acc::Min(None),
            AggFun::Max => Acc::Max(None),
        }
    }

    fn update(&mut self, arg: Option<Datum>) {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::CountNonNull(n) => {
                if matches!(&arg, Some(d) if !d.is_null()) {
                    *n += 1;
                }
            }
            Acc::Sum { total, any } => {
                if let Some(v) = arg.as_ref().and_then(|d| d.as_num()) {
                    *total += v.to_f64();
                    *any = true;
                }
            }
            Acc::Avg { total, n } => {
                if let Some(v) = arg.as_ref().and_then(|d| d.as_num()) {
                    *total += v.to_f64();
                    *n += 1;
                }
            }
            Acc::Min(cur) => {
                if let Some(d) = arg {
                    if !d.is_null()
                        && cur.as_ref().map(|c| d.order_key_cmp(c).is_lt()).unwrap_or(true)
                    {
                        *cur = Some(d);
                    }
                }
            }
            Acc::Max(cur) => {
                if let Some(d) = arg {
                    if !d.is_null()
                        && cur.as_ref().map(|c| d.order_key_cmp(c).is_gt()).unwrap_or(true)
                    {
                        *cur = Some(d);
                    }
                }
            }
        }
    }

    fn finish(self) -> Datum {
        match self {
            Acc::Count(n) | Acc::CountNonNull(n) => Datum::from(n as i64),
            Acc::Sum { total, any } => {
                if any {
                    Datum::from(total)
                } else {
                    Datum::Null
                }
            }
            Acc::Avg { total, n } => {
                if n > 0 {
                    Datum::from(total / n as f64)
                } else {
                    Datum::Null
                }
            }
            Acc::Min(d) | Acc::Max(d) => d.unwrap_or(Datum::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::jsonaccess::JsonStorage;
    use crate::schema::{ColType, ColumnSpec, ConstraintMode, TableSchema};
    use crate::table::InsertValue;
    use fsdm_sqljson::json_table::{ColumnDef, JsonTableDef};
    use fsdm_sqljson::{parse_path, SqlType};

    fn sample_db(storage: JsonStorage) -> Database {
        let mut t = Table::new(TableSchema::new(
            "po",
            vec![
                ColumnSpec::new("did", ColType::Number),
                ColumnSpec::json("jdoc", storage, ConstraintMode::IsJson),
            ],
        ));
        for (i, (cc, items)) in [
            ("A", vec![("phone", 100.0, 2), ("case", 15.0, 1)]),
            ("B", vec![("ipad", 350.86, 3)]),
            ("A", vec![("tv", 500.0, 1), ("mount", 40.0, 2), ("cable", 5.0, 3)]),
        ]
        .iter()
        .enumerate()
        {
            let items_json: Vec<String> = items
                .iter()
                .map(|(n, p, q)| format!(r#"{{"name":"{n}","price":{p},"quantity":{q}}}"#))
                .collect();
            let doc = format!(
                r#"{{"costcenter":"{cc}","reference":"R-{i}","items":[{}]}}"#,
                items_json.join(",")
            );
            t.insert(vec![(i as i64).into(), InsertValue::Json(doc)]).unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    fn items_def() -> JsonTableDef {
        JsonTableDef {
            row_path: parse_path("$.items[*]").unwrap(),
            columns: vec![
                ColumnDef::value("name", SqlType::Varchar2(16), parse_path("$.name").unwrap()),
                ColumnDef::value("price", SqlType::Number, parse_path("$.price").unwrap()),
                ColumnDef::value("quantity", SqlType::Number, parse_path("$.quantity").unwrap()),
            ],
            nested: vec![],
        }
    }

    #[test]
    fn scan_filter_project() {
        for storage in [JsonStorage::Text, JsonStorage::Bson, JsonStorage::Oson] {
            let db = sample_db(storage);
            let q = Query::scan("po")
                .filter(Expr::cmp(
                    Expr::json_value(1, parse_path("$.costcenter").unwrap(), SqlType::Varchar2(4)),
                    CmpOp::Eq,
                    Expr::Lit(Datum::from("A")),
                ))
                .project(vec![("did", Expr::Col(0))]);
            let r = db.execute(&q).unwrap();
            assert_eq!(r.rows.len(), 2, "{storage:?}");
        }
    }

    #[test]
    fn between_over_text_returns_the_oson_rows() {
        // the planner lowers BETWEEN to two clones of one JSON_VALUE, which
        // share a path slot: TEXT reads each row's document once
        let price = Expr::json_value(1, parse_path("$.items[0].price").unwrap(), SqlType::Number);
        let q = Query::scan("po")
            .filter(Expr::And(
                Box::new(Expr::cmp(price.clone(), CmpOp::Ge, Expr::Lit(Datum::from(50i64)))),
                Box::new(Expr::cmp(price.clone(), CmpOp::Le, Expr::Lit(Datum::from(400i64)))),
            ))
            .project(vec![("did", Expr::Col(0)), ("price", price)]);
        let text = sample_db(JsonStorage::Text).execute(&q).unwrap();
        let oson = sample_db(JsonStorage::Oson).execute(&q).unwrap();
        assert_eq!(text.rows.len(), 2);
        assert_eq!(text.rows, oson.rows);
    }

    #[test]
    fn json_table_lateral_expansion() {
        let db = sample_db(JsonStorage::Oson);
        let q =
            Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def: items_def() };
        let r = db.execute(&q).unwrap();
        assert_eq!(r.rows.len(), 6, "2 + 1 + 3 items");
        assert_eq!(r.columns, vec!["did", "jdoc", "name", "price", "quantity"]);
    }

    #[test]
    fn group_by_aggregates() {
        let db = sample_db(JsonStorage::Oson);
        // revenue per costcenter over the un-nested items
        let q = Query::GroupBy {
            input: Box::new(Query::JsonTable {
                input: Box::new(Query::scan("po")),
                json_col: 1,
                def: items_def(),
            }),
            keys: vec![(
                "cc".to_string(),
                Expr::json_value(1, parse_path("$.costcenter").unwrap(), SqlType::Varchar2(4)),
            )],
            aggs: vec![
                AggSpec::count_star("n"),
                AggSpec::of(
                    "revenue",
                    AggFun::Sum,
                    Expr::Arith(
                        Box::new(Expr::Col(3)),
                        crate::expr::ArithOp::Mul,
                        Box::new(Expr::Col(4)),
                    ),
                ),
                AggSpec::of("maxp", AggFun::Max, Expr::Col(3)),
                AggSpec::of("avgq", AggFun::Avg, Expr::Col(4)),
            ],
        };
        let mut r = db.execute(&q).unwrap();
        r.rows.sort_by(|a, b| a[0].order_key_cmp(&b[0]));
        assert_eq!(r.rows.len(), 2);
        // A: phone 100*2 + case 15*1 + tv 500 + mount 80 + cable 15 = 810
        assert_eq!(r.cell(0, "cc"), Some(&Datum::from("A")));
        assert_eq!(r.cell(0, "revenue"), Some(&Datum::from(810.0)));
        assert_eq!(r.cell(0, "n"), Some(&Datum::from(5i64)));
        assert_eq!(r.cell(0, "maxp"), Some(&Datum::from(500.0)));
        // B: 350.86 * 3
        assert_eq!(r.cell(1, "revenue"), Some(&Datum::from(1052.58)));
    }

    #[test]
    fn sort_and_limit() {
        let db = sample_db(JsonStorage::Text);
        let q =
            Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def: items_def() }
                .sort(vec![SortKey::desc(Expr::Col(3))])
                .limit(2);
        let r = db.execute(&q).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.cell(0, "name"), Some(&Datum::from("tv")));
        assert_eq!(r.cell(1, "name"), Some(&Datum::from("ipad")));
    }

    #[test]
    fn window_lag() {
        let db = sample_db(JsonStorage::Oson);
        let q = Query::Window {
            input: Box::new(Query::JsonTable {
                input: Box::new(Query::scan("po")),
                json_col: 1,
                def: items_def(),
            }),
            name: "prev_price".to_string(),
            fun: WindowFun::Lag { expr: Expr::Col(3), offset: 1, default: Some(Expr::Col(3)) },
            order: vec![SortKey::asc(Expr::Col(3))],
        };
        let r = db.execute(&q).unwrap();
        // sorted by price asc: 5,15,40,100,350.86,500
        assert_eq!(r.cell(0, "prev_price"), Some(&Datum::from(5.0)), "default = own value");
        assert_eq!(r.cell(1, "prev_price"), Some(&Datum::from(5.0)));
        assert_eq!(r.cell(5, "prev_price"), Some(&Datum::from(350.86)));
    }

    #[test]
    fn hash_join() {
        // relational master/detail join
        let mut master = Table::new(TableSchema::new(
            "m",
            vec![
                ColumnSpec::new("id", ColType::Number),
                ColumnSpec::new("cc", ColType::Varchar2(4)),
            ],
        ));
        master.insert(vec![1i64.into(), "A".into()]).unwrap();
        master.insert(vec![2i64.into(), "B".into()]).unwrap();
        let mut detail = Table::new(TableSchema::new(
            "d",
            vec![
                ColumnSpec::new("mid", ColType::Number),
                ColumnSpec::new("price", ColType::Number),
            ],
        ));
        detail.insert(vec![1i64.into(), InsertValue::Datum(Datum::from(10i64))]).unwrap();
        detail.insert(vec![1i64.into(), InsertValue::Datum(Datum::from(20i64))]).unwrap();
        detail.insert(vec![2i64.into(), InsertValue::Datum(Datum::from(30i64))]).unwrap();
        detail.insert(vec![9i64.into(), InsertValue::Datum(Datum::from(99i64))]).unwrap();
        let mut db = Database::new();
        db.add_table(master);
        db.add_table(detail);
        let q = Query::HashJoin {
            left: Box::new(Query::scan("m")),
            right: Box::new(Query::scan("d")),
            left_key: 0,
            right_key: 0,
        };
        let r = db.execute(&q).unwrap();
        assert_eq!(r.rows.len(), 3, "unmatched detail row drops");
        assert_eq!(r.columns, vec!["id", "cc", "mid", "price"]);
    }

    #[test]
    fn views_expand() {
        let db = {
            let mut db = sample_db(JsonStorage::Oson);
            let plan = Query::JsonTable {
                input: Box::new(Query::scan("po")),
                json_col: 1,
                def: items_def(),
            };
            db.create_view("po_item_dmdv", plan);
            db
        };
        let r = db.execute(&Query::view("po_item_dmdv")).unwrap();
        assert_eq!(r.rows.len(), 6);
        assert!(db.execute(&Query::view("nope")).is_err());
    }

    #[test]
    fn empty_group_by_returns_single_row() {
        let db = sample_db(JsonStorage::Text);
        let q = Query::scan_where(
            "po",
            Expr::cmp(Expr::Col(0), CmpOp::Eq, Expr::Lit(Datum::from(999i64))),
        )
        .group_by(vec![], vec![AggSpec::count_star("n")]);
        let r = db.execute(&q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.cell(0, "n"), Some(&Datum::from(0i64)));
    }

    #[test]
    fn execute_profiled_reports_per_operator_rows_and_time() {
        let db = sample_db(JsonStorage::Oson);
        let q =
            Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def: items_def() }
                .sort(vec![SortKey::desc(Expr::Col(3))])
                .limit(2);
        let (result, profile) = db.execute_profiled(&q).unwrap();
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result, db.execute(&q).unwrap(), "profiling must not change results");
        // operator tree mirrors the plan: Limit -> Sort -> JsonTable -> Scan
        let labels: Vec<&str> = profile.ops().iter().map(|o| o.op.as_str()).collect();
        assert_eq!(labels, vec!["Limit(2)", "Sort", "JsonTable", "Scan(po)"]);
        assert_eq!(profile.find("Limit").unwrap().rows_out, 2);
        assert_eq!(profile.find("Sort").unwrap().rows_out, 6);
        assert_eq!(profile.find("JsonTable").unwrap().rows_out, 6, "2 + 1 + 3 items");
        assert_eq!(profile.find("Scan").unwrap().rows_out, 3);
        // inclusive timing: every parent covers its children
        assert!(profile.elapsed_ns() > 0);
        assert!(
            profile.find("Limit").unwrap().elapsed_ns >= profile.find("Sort").unwrap().elapsed_ns
        );
        assert!(
            profile.find("JsonTable").unwrap().elapsed_ns
                >= profile.find("Scan").unwrap().elapsed_ns
        );
        let rendered = profile.render();
        assert!(rendered.contains("JsonTable  rows=6"), "{rendered}");
    }

    #[test]
    fn profiled_view_scan_nests_view_plan() {
        let mut db = sample_db(JsonStorage::Oson);
        db.create_view(
            "po_item_dmdv",
            Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def: items_def() },
        );
        let (r, p) = db.execute_profiled(&Query::view("po_item_dmdv")).unwrap();
        assert_eq!(r.rows.len(), 6);
        // the optimizer inlines the view, so the profile shows its plan
        assert_eq!(p.root.op, "JsonTable");
        assert_eq!(p.find("JsonTable").unwrap().rows_out, 6);
        assert_eq!(p.find("Scan(po)").unwrap().rows_out, 3);
    }

    #[test]
    fn add_table_returns_replaced_table() {
        let mut db = Database::new();
        let mut t1 = Table::new(TableSchema::new("t", vec![ColumnSpec::new("a", ColType::Number)]));
        t1.insert(vec![1i64.into()]).unwrap();
        assert!(db.add_table(t1).is_none(), "first registration replaces nothing");
        let t2 = Table::new(TableSchema::new("t", vec![ColumnSpec::new("a", ColType::Number)]));
        let replaced = db.add_table(t2).expect("same-name registration returns old table");
        assert_eq!(replaced.rows.len(), 1, "the displaced table is handed back intact");
        assert_eq!(db.table("t").unwrap().rows.len(), 0);
    }

    #[test]
    fn oson_imc_transparent_rewrite() {
        let mut db = sample_db(JsonStorage::Text);
        let q = Query::scan("po").project(vec![(
            "cc",
            Expr::json_value(1, parse_path("$.costcenter").unwrap(), SqlType::Varchar2(4)),
        )]);
        let before = db.execute(&q).unwrap();
        db.table_mut("po").unwrap().populate_oson_imc().unwrap();
        let after = db.execute(&q).unwrap();
        assert_eq!(before, after, "IMC must not change results");
    }
}
