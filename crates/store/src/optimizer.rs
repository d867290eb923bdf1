//! Plan rewrites. Views are inlined first (`map_children` expands every
//! `ViewScan`), so the rewrites see the base tables under them.
//!
//! **View merging.** Four rewrites move work below a view's projection
//! or join, so a `WHERE` or `GROUP BY` over a view costs what it would
//! over the base tables:
//! - `Filter(p) → Project(e)` becomes `Project(e) → Filter(p[col i := e_i])`,
//!   and the filter keeps moving down (into a scan, a join input, or the
//!   JSON_TABLE pushdown below).
//! - `Filter(p) → HashJoin` splits `p` into conjuncts: one that reads only
//!   left columns filters the left input, one that reads only right
//!   columns filters the right input (columns shifted), mixed ones stay
//!   above the join.
//! - `Project(a) → Project(b)` fuses into `Project(a[col i := b_i])`.
//! - `GroupBy → Project(b)` reads `b` in its keys and aggregate arguments.
//!
//! Each keeps the result rows and their order (the output is the same
//! rows or a subsequence filtered in the same order) and keeps errors
//! identical on plans `fsdm-planck` accepts — every column reference
//! inside its input, every JSON operator over a JSON column:
//! - an expression is evaluated on more rows, or skipped on rows, only if
//!   it cannot fail (`cannot_fail`): a filter moving below a projection
//!   skips the projection on rejected rows, a conjunct moving into a join
//!   input also sees rows without a partner, and the conjuncts left above
//!   see only the survivors;
//! - a JSON operator never reads a projected column: `Project` emits
//!   decoded values, so over a projection the operator fails, and
//!   reading the base column instead would make it succeed;
//! - fusion never duplicates a computed projection expression: one read
//!   more than once keeps its projection.
//!
//! **§6.3 pushdown.** "The WHERE predicates on the views are pushed down
//! as JSON_EXISTS() with JSON path predicates to be filtered." A filter
//! over a JSON_TABLE expansion is augmented with a document-level
//! `JSON_EXISTS` pre-filter on the base scan: documents that cannot
//! produce any qualifying row are skipped *before* the (expensive)
//! master-detail expansion. The original row-level filter is kept, so the
//! rewrite never changes results — any document admitted by the exists
//! probe still has its rows checked exactly.
//!
//! The last rewrite is the `fsdm-analyze` handshake (opt-in via
//! [`Database::set_dead_path_pruning`]): a scan-filter conjunct probing a
//! JSON path the table's DataGuide proves empty can never accept a row —
//! `JSON_EXISTS` is false everywhere, and a comparison over `JSON_VALUE`
//! only ever sees SQL NULL — so the scan collapses to a constant-false
//! scan the executor answers without touching a single row.

use fsdm_sqljson::json_table::{ColKind, ColumnDef, JsonTableDef, NestedDef};
use fsdm_sqljson::parse_path;
use fsdm_sqljson::path::{ArraySel, IndexExpr, JsonPath, Step};
use fsdm_sqljson::Datum;

use crate::database::Database;
use crate::expr::{CmpOp, Expr};
use crate::query::{AggSpec, Query};
use crate::schema::{ColType, ConstraintMode};

/// Apply all rewrites bottom-up. `db` supplies schema information (scan
/// widths) and view expansion.
///
/// Debug builds run the `fsdm-planck` translation validator on every
/// call (and, through the recursion, on every rewritten subtree): the
/// output plan must be schema-equivalent to the input — same columns,
/// same types, nullability no looser — with its determinism and
/// parallel-safety classes preserved.
pub fn optimize(db: &Database, plan: Query) -> Query {
    #[cfg(debug_assertions)]
    let before = plan.clone();
    let optimized = optimize_inner(db, plan);
    #[cfg(debug_assertions)]
    {
        let violations = crate::typecheck::rewrite_violations(db, &before, &optimized);
        debug_assert!(
            violations.is_empty(),
            "optimizer rewrite is not translation-valid: {violations:?}\nbefore:\n{}after:\n{}",
            before.render(),
            optimized.render()
        );
    }
    optimized
}

fn optimize_inner(db: &Database, plan: Query) -> Query {
    let plan = map_children(db, plan);
    rewrite(db, plan)
}

/// The rewrites of one node whose children are already optimized. A
/// filter that moves down is rewritten again at its new place.
fn rewrite(db: &Database, plan: Query) -> Query {
    let plan = match plan {
        Query::Filter { input, pred } => push_filter(db, *input, pred),
        Query::Project { input, exprs } => fuse_project(*input, exprs),
        Query::GroupBy { input, keys, aggs } => fuse_group_by(*input, keys, aggs),
        other => other,
    };
    let plan = if db.dead_path_pruning() { prune_dead_scan(db, plan) } else { plan };
    // runs after pruning so dead-path proofs still see the JSON operators
    substitute_imc_vcs(db, plan)
}

fn push_filter(db: &Database, input: Query, pred: Expr) -> Query {
    match input {
        // merge into the scan so the executor's vectorized path can
        // evaluate the predicate over IMC column vectors (§5.2.1)
        Query::Scan { table, filter } => {
            let merged = match filter {
                None => pred,
                Some(f) => Expr::And(Box::new(f), Box::new(pred)),
            };
            Query::Scan { table, filter: Some(merged) }
        }
        Query::Project { input, exprs } if mergeable(&exprs) && inlinable(&pred, &exprs) => {
            let pred = inline(pred, &exprs);
            Query::Project { input: Box::new(rewrite(db, Query::Filter { input, pred })), exprs }
        }
        Query::HashJoin { left, right, left_key, right_key } => {
            push_into_join(db, *left, *right, left_key, right_key, pred)
        }
        other => try_pushdown(db, other, pred),
    }
}

/// `Filter(pred) → HashJoin`: conjuncts over one side filter that side's
/// input. The join emits, for each right row in order, its left partners
/// in order, so filtering an input keeps the remaining output rows in
/// their order. Moves nothing unless every conjunct cannot fail: a moved
/// one also sees input rows without a partner, and one left above sees
/// only the rows the moved ones accept.
fn push_into_join(
    db: &Database,
    left: Query,
    right: Query,
    left_key: usize,
    right_key: usize,
    pred: Expr,
) -> Query {
    let mut conjuncts = Vec::new();
    split_and(&pred, &mut conjuncts);
    let left_width = db.plan_columns(&left).map(|c| c.len());
    let (Ok(lw), true) = (left_width, conjuncts.iter().all(cannot_fail)) else {
        let join =
            Query::HashJoin { left: Box::new(left), right: Box::new(right), left_key, right_key };
        return Query::Filter { input: Box::new(join), pred };
    };
    let (mut on_left, mut on_right, mut above) = (Vec::new(), Vec::new(), Vec::new());
    for c in conjuncts {
        let mut cols = Vec::new();
        visit_cols(&c, &mut |i, _| cols.push(i));
        if cols.iter().all(|&i| i < lw) {
            on_left.push(c);
        } else if cols.iter().all(|&i| i >= lw) {
            on_right.push(shift_cols(c, lw));
        } else {
            above.push(c);
        }
    }
    let side = |input: Query, conjuncts: Vec<Expr>| match and_all(conjuncts) {
        Some(pred) => rewrite(db, Query::Filter { input: Box::new(input), pred }),
        None => input,
    };
    let join = Query::HashJoin {
        left: Box::new(side(left, on_left)),
        right: Box::new(side(right, on_right)),
        left_key,
        right_key,
    };
    match and_all(above) {
        Some(pred) => Query::Filter { input: Box::new(join), pred },
        None => join,
    }
}

/// `Project(outer) → Project(inner)` fuses into one projection over the
/// inner projection's input.
fn fuse_project(input: Query, outer: Vec<(String, Expr)>) -> Query {
    match input {
        Query::Project { input, exprs } if fusable(outer.iter().map(|(_, e)| e), &exprs) => {
            let outer = outer.into_iter().map(|(n, e)| (n, inline(e, &exprs))).collect();
            Query::Project { input, exprs: outer }
        }
        input => Query::Project { input: Box::new(input), exprs: outer },
    }
}

/// `GroupBy → Project`: the keys and aggregate arguments read the
/// projected expressions directly.
fn fuse_group_by(input: Query, keys: Vec<(String, Expr)>, aggs: Vec<AggSpec>) -> Query {
    match input {
        Query::Project { input, exprs }
            if fusable(
                keys.iter().map(|(_, e)| e).chain(aggs.iter().filter_map(|a| a.arg.as_ref())),
                &exprs,
            ) =>
        {
            let (keys, aggs) = map_group_exprs(keys, aggs, |e| inline(e, &exprs));
            Query::GroupBy { input, keys, aggs }
        }
        input => Query::GroupBy { input: Box::new(input), keys, aggs },
    }
}

/// A group-by's keys and aggregates with `f` applied to every key
/// expression and aggregate argument.
fn map_group_exprs(
    keys: Vec<(String, Expr)>,
    aggs: Vec<AggSpec>,
    f: impl Fn(Expr) -> Expr,
) -> (Vec<(String, Expr)>, Vec<AggSpec>) {
    let keys = keys.into_iter().map(|(n, e)| (n, f(e))).collect();
    let aggs = aggs.into_iter().map(|a| AggSpec { arg: a.arg.map(&f), ..a }).collect();
    (keys, aggs)
}

/// Can `readers` be rewritten over the input of the projection `exprs`
/// with the projection gone? Every projected expression must be
/// mergeable and each reader inlinable, and a computed expression may be
/// read at most once, so fusion never evaluates it twice per row.
fn fusable<'a>(readers: impl Iterator<Item = &'a Expr>, exprs: &[(String, Expr)]) -> bool {
    if !mergeable(exprs) {
        return false;
    }
    let mut reads = vec![0usize; exprs.len()];
    for e in readers {
        if !inlinable(e, exprs) {
            return false;
        }
        visit_cols(e, &mut |i, _| reads[i] += 1);
    }
    reads.iter().zip(exprs).all(|(&n, (_, e))| n <= 1 || matches!(e, Expr::Col(_) | Expr::Lit(_)))
}

/// A projection whose expressions may be skipped on rows: each is
/// evaluated only where a reader needs it once the projection merges
/// into what is above or below it.
fn mergeable(exprs: &[(String, Expr)]) -> bool {
    exprs.iter().all(|(_, e)| cannot_fail(e))
}

/// `e` reads the projection `exprs` only through plain column
/// references inside it (a JSON operator needs the raw cell, which a
/// projection never emits).
fn inlinable(e: &Expr, exprs: &[(String, Expr)]) -> bool {
    let mut ok = true;
    visit_cols(e, &mut |i, json| ok &= !json && i < exprs.len());
    ok
}

/// `e` with every column reference replaced by the projected expression
/// it reads (the caller checked [`inlinable`]).
fn inline(e: Expr, exprs: &[(String, Expr)]) -> Expr {
    map_expr(e, &|e| match e {
        Expr::Col(i) => Some(exprs[*i].1.clone()),
        _ => None,
    })
}

/// Expressions that evaluate without error on every row of a plan
/// `fsdm-planck` accepts. `Arith` (non-numeric operand, division by
/// zero), `Fun` (argument types) and `Not` (non-boolean operand) can fail.
fn cannot_fail(e: &Expr) -> bool {
    match e {
        Expr::Col(_) | Expr::Lit(_) | Expr::JsonValue { .. } | Expr::JsonExists { .. } => true,
        Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => cannot_fail(a) && cannot_fail(b),
        Expr::IsNull(a) | Expr::InList(a, _) | Expr::Like(a, _) => cannot_fail(a),
        Expr::Arith(..) | Expr::Fun(..) | Expr::Not(_) => false,
    }
}

/// Call `f(column, read_by_json_operator)` for every column `e` reads.
fn visit_cols(e: &Expr, f: &mut impl FnMut(usize, bool)) {
    match e {
        Expr::Col(i) => f(*i, false),
        Expr::JsonValue { col, .. } | Expr::JsonExists { col, .. } => f(*col, true),
        Expr::Lit(_) => {}
        Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) | Expr::Arith(a, _, b) => {
            visit_cols(a, f);
            visit_cols(b, f);
        }
        Expr::Not(a) | Expr::IsNull(a) | Expr::InList(a, _) | Expr::Like(a, _) => visit_cols(a, f),
        Expr::Fun(_, args) => args.iter().for_each(|a| visit_cols(a, f)),
    }
}

/// `e` with every column position (JSON operators' included) moved
/// `by` to the left.
fn shift_cols(e: Expr, by: usize) -> Expr {
    map_expr(e, &|e| match e {
        Expr::Col(i) => Some(Expr::Col(i - by)),
        Expr::JsonValue { col, path, ty } => {
            Some(Expr::JsonValue { col: col - by, path: path.clone(), ty: *ty })
        }
        Expr::JsonExists { col, path } => {
            Some(Expr::JsonExists { col: col - by, path: path.clone() })
        }
        _ => None,
    })
}

/// Rebuild `e` top-down: `f` replaces a node outright (`Some`) or lets
/// the walk descend into its operands (`None`).
fn map_expr(e: Expr, f: &impl Fn(&Expr) -> Option<Expr>) -> Expr {
    if let Some(replaced) = f(&e) {
        return replaced;
    }
    let m = |a: Box<Expr>| Box::new(map_expr(*a, f));
    match e {
        Expr::Cmp(a, op, b) => Expr::Cmp(m(a), op, m(b)),
        Expr::And(a, b) => Expr::And(m(a), m(b)),
        Expr::Or(a, b) => Expr::Or(m(a), m(b)),
        Expr::Not(a) => Expr::Not(m(a)),
        Expr::IsNull(a) => Expr::IsNull(m(a)),
        Expr::InList(a, list) => Expr::InList(m(a), list),
        Expr::Like(a, p) => Expr::Like(m(a), p),
        Expr::Arith(a, op, b) => Expr::Arith(m(a), op, m(b)),
        Expr::Fun(fun, args) => Expr::Fun(fun, args.into_iter().map(|a| map_expr(a, f)).collect()),
        leaf => leaf,
    }
}

/// The conjunction of `conjuncts` in order, `None` when empty.
fn and_all(conjuncts: Vec<Expr>) -> Option<Expr> {
    conjuncts.into_iter().reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
}

/// The pipeline-selection rewrite feeding the vectorized executor
/// (§5.2.1): in expressions evaluated directly over a scan — the scan's
/// own filter, a projection over the scan, a group-by's keys and
/// aggregate arguments — any sub-expression structurally equal to a
/// virtual column's defining expression, where that virtual column has a
/// **fresh IMC vector** materialized, is replaced by a direct column
/// reference. `scan_row` already emits every virtual column, so the
/// rewrite never changes results; what it buys is that the expression
/// becomes kernel-compilable (`Expr::compile_predicate` /
/// `Expr::compile_value` only lower column references), letting the
/// executor run the operator columnar over the vectors.
///
/// Translation-valid by construction: the scan schema types virtual
/// columns by inferring their defining expressions, so `Col(vc)` has
/// exactly the inferred type of the sub-expression it replaces; and
/// `Col` never matches a defining expression, so the rewrite is
/// idempotent.
fn substitute_imc_vcs(db: &Database, plan: Query) -> Query {
    match plan {
        Query::Scan { table, filter: Some(pred) } => {
            let pred = substitute_expr(pred, &imc_vc_defs(db, &table));
            Query::Scan { table, filter: Some(pred) }
        }
        Query::Project { input, exprs } => {
            let defs = scan_vc_defs(db, &input);
            let exprs = exprs.into_iter().map(|(n, e)| (n, substitute_expr(e, &defs))).collect();
            Query::Project { input, exprs }
        }
        Query::GroupBy { input, keys, aggs } => {
            let defs = scan_vc_defs(db, &input);
            let (keys, aggs) = map_group_exprs(keys, aggs, |e| substitute_expr(e, &defs));
            Query::GroupBy { input, keys, aggs }
        }
        other => other,
    }
}

/// (defining expression, scan column) of every virtual column of `table`
/// whose IMC vector covers every current row.
fn imc_vc_defs<'a>(db: &'a Database, table: &str) -> Vec<(&'a Expr, usize)> {
    let Some(t) = db.table(table) else { return Vec::new() };
    let width = t.schema.width();
    t.virtual_columns
        .iter()
        .enumerate()
        .filter(|(vi, _)| t.imc.vectors.get(&(width + vi)).is_some_and(|v| v.len() == t.rows.len()))
        .map(|(vi, vc)| (&vc.expr, width + vi))
        .collect()
}

/// [`imc_vc_defs`] for expressions that run directly over a scan's rows
/// (the child has already been optimized, so a merged `Filter` is a
/// `Scan` by now).
fn scan_vc_defs<'a>(db: &'a Database, input: &Query) -> Vec<(&'a Expr, usize)> {
    match input {
        Query::Scan { table, .. } => imc_vc_defs(db, table),
        _ => Vec::new(),
    }
}

/// Top-down replacement of defining expressions by their virtual-column
/// references (a linear scan: tables carry a handful of virtual columns).
fn substitute_expr(e: Expr, defs: &[(&Expr, usize)]) -> Expr {
    if defs.is_empty() {
        return e;
    }
    map_expr(e, &|e| defs.iter().find(|(d, _)| *d == e).map(|&(_, col)| Expr::Col(col)))
}

/// The analyzer handshake: rewrite `Scan{filter}` to a constant-false
/// scan when one of the filter's conjuncts is provably false against the
/// table's DataGuide. Sound only when the guide covers every stored row,
/// which is checked here (the insert pipeline maintains exactly that for
/// `IsJsonWithDataGuide` columns).
fn prune_dead_scan(db: &Database, plan: Query) -> Query {
    let Query::Scan { table, filter: Some(pred) } = plan else { return plan };
    let mut conjuncts = Vec::new();
    split_and(&pred, &mut conjuncts);
    if conjuncts.iter().any(|c| conjunct_provably_false(db, &table, c)) {
        fsdm_obs::counter!(fsdm_obs::catalog::ANALYZE_PRUNE_DEAD_PREDICATES).inc();
        Query::Scan { table, filter: Some(Expr::Lit(Datum::Bool(false))) }
    } else {
        Query::Scan { table, filter: Some(pred) }
    }
}

/// A conjunct that cannot accept any row: `JSON_EXISTS` over a provably
/// empty path, or a comparison where one operand is `JSON_VALUE` of a
/// provably empty path (always SQL NULL, so the comparison is never
/// true under three-valued logic).
fn conjunct_provably_false(db: &Database, table: &str, c: &Expr) -> bool {
    match c {
        Expr::JsonExists { col, path, .. } => json_path_dead(db, table, *col, path.as_ref()),
        Expr::Cmp(a, _, b) => operand_dead(db, table, a) || operand_dead(db, table, b),
        _ => false,
    }
}

fn operand_dead(db: &Database, table: &str, e: &Expr) -> bool {
    match e {
        Expr::JsonValue { col, path, .. } => json_path_dead(db, table, *col, path.as_ref()),
        _ => false,
    }
}

fn json_path_dead(db: &Database, table: &str, col: usize, path: &JsonPath) -> bool {
    let Some(t) = db.table(table) else { return false };
    let Some(spec) = t.schema.columns.get(col) else { return false };
    if spec.constraint != ConstraintMode::IsJsonWithDataGuide
        || !matches!(spec.ty, ColType::Json(_))
    {
        return false;
    }
    // full coverage check: every stored row contributed to the guide
    // (a second guided JSON column would overcount and disable pruning,
    // which errs on the safe side)
    if t.dataguide.doc_count != t.rows.len() as u64 {
        return false;
    }
    fsdm_analyze::path_provably_empty(&t.dataguide, path)
}

fn map_children(db: &Database, plan: Query) -> Query {
    match plan {
        Query::Filter { input, pred } => {
            Query::Filter { input: Box::new(optimize(db, *input)), pred }
        }
        Query::Project { input, exprs } => {
            Query::Project { input: Box::new(optimize(db, *input)), exprs }
        }
        Query::JsonTable { input, json_col, def } => {
            Query::JsonTable { input: Box::new(optimize(db, *input)), json_col, def }
        }
        Query::HashJoin { left, right, left_key, right_key } => Query::HashJoin {
            left: Box::new(optimize(db, *left)),
            right: Box::new(optimize(db, *right)),
            left_key,
            right_key,
        },
        Query::GroupBy { input, keys, aggs } => {
            Query::GroupBy { input: Box::new(optimize(db, *input)), keys, aggs }
        }
        Query::Sort { input, keys } => Query::Sort { input: Box::new(optimize(db, *input)), keys },
        Query::Window { input, name, fun, order } => {
            Query::Window { input: Box::new(optimize(db, *input)), name, fun, order }
        }
        Query::Limit { input, n } => Query::Limit { input: Box::new(optimize(db, *input)), n },
        Query::Sample { input, pct } => {
            Query::Sample { input: Box::new(optimize(db, *input)), pct }
        }
        // expand views so pushdown sees through them
        Query::ViewScan { view } => match db.view(&view) {
            Some(plan) => optimize(db, plan.clone()),
            None => Query::ViewScan { view },
        },
        leaf @ Query::Scan { .. } => leaf,
    }
}

/// `Filter(pred)` over `JsonTable → Scan`: derive a JSON_EXISTS scan
/// pre-filter from the pushable conjuncts. A filter over a view's
/// projection reaches this shape by moving below the projection first.
fn try_pushdown(db: &Database, input: Query, pred: Expr) -> Query {
    let Query::JsonTable { input: jt_input, json_col, def } = input else {
        return Query::Filter { input: Box::new(input), pred };
    };
    let Query::Scan { table, filter } = *jt_input else {
        let restored = Query::JsonTable { input: jt_input, json_col, def };
        return Query::Filter { input: Box::new(restored), pred };
    };
    let scan_width = db.table(&table).map(|t| t.scan_column_names().len()).unwrap_or(0);
    let mut conjuncts = Vec::new();
    split_and(&pred, &mut conjuncts);
    let col_paths = column_exists_paths(&def);
    let mut exists_exprs: Vec<Expr> = Vec::new();
    // a JSON_TABLE column's exists-path parts (a base column is not a
    // JT pushdown)
    let resolve = |col: usize| -> Option<&(String, String)> {
        col_paths.get(col.checked_sub(scan_width)?)?.as_ref()
    };
    for c in &conjuncts {
        match c {
            Expr::Cmp(l, op, r) => {
                let (col, lit, op) = match (&**l, &**r) {
                    (Expr::Col(i), Expr::Lit(d)) => (*i, d, *op),
                    (Expr::Lit(d), Expr::Col(i)) => (*i, d, flip(*op)),
                    _ => continue,
                };
                let Some(parts) = resolve(col) else { continue };
                if let Some(path_text) = exists_path(parts, op, lit) {
                    if let Ok(p) = parse_path(&path_text) {
                        exists_exprs.push(Expr::json_exists(json_col, p));
                    }
                }
            }
            // `col IN (a, b, c)` → one exists probe with an OR-chain filter
            Expr::InList(inner, list) => {
                let Expr::Col(col) = &**inner else { continue };
                let Some((prefix, sub)) = resolve(*col) else { continue };
                let mut terms = Vec::with_capacity(list.len());
                let mut ok = true;
                for d in list {
                    match render_literal(d) {
                        Some(t) => terms.push(format!("@{sub} == {t}")),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok && !terms.is_empty() {
                    let path_text = format!("${prefix}?({})", terms.join(" || "));
                    if let Ok(p) = parse_path(&path_text) {
                        exists_exprs.push(Expr::json_exists(json_col, p));
                    }
                }
            }
            _ => {}
        }
    }
    // dedupe against probes already on the scan filter: the row-level
    // filter is kept above, so a second optimize() pass re-derives the
    // same exists probes — re-ANDing them would break idempotence
    let mut existing = Vec::new();
    if let Some(f) = &filter {
        split_and(f, &mut existing);
    }
    let mut scan_filter = filter;
    for e in exists_exprs {
        if existing.contains(&e) {
            continue;
        }
        scan_filter = Some(match scan_filter {
            None => e,
            Some(f) => Expr::And(Box::new(f), Box::new(e)),
        });
    }
    let jt = Query::JsonTable {
        input: Box::new(Query::Scan { table, filter: scan_filter }),
        json_col,
        def,
    };
    Query::Filter { input: Box::new(jt), pred }
}

fn split_and(e: &Expr, out: &mut Vec<Expr>) {
    if let Expr::And(a, b) = e {
        split_and(a, out);
        split_and(b, out);
    } else {
        out.push(e.clone());
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// For each JSON_TABLE output column (in `column_names()` order): the
/// (container path text, column sub-path text) to build an exists probe,
/// or `None` when the column is not a simple value column.
fn column_exists_paths(def: &JsonTableDef) -> Vec<Option<(String, String)>> {
    let mut out = Vec::new();
    let root = steps_text(&def.row_path.steps);
    collect_paths(&def.columns, &def.nested, &root, &mut out);
    out
}

fn collect_paths(
    cols: &[ColumnDef],
    nested: &[NestedDef],
    prefix: &str,
    out: &mut Vec<Option<(String, String)>>,
) {
    for c in cols {
        if c.kind == ColKind::Value {
            match simple_sub_path(&c.path.steps) {
                Some(sub) => out.push(Some((prefix.to_string(), sub))),
                None => out.push(None),
            }
        } else {
            out.push(None);
        }
    }
    for n in nested {
        let np = format!("{prefix}{}", steps_text(&n.path.steps));
        collect_paths(&n.columns, &n.nested, &np, out);
    }
}

/// Render steps as path text (fields and `[*]` only; anything else makes
/// the column non-pushable).
fn steps_text(steps: &[Step]) -> String {
    let mut s = String::new();
    for step in steps {
        match step {
            Step::Field { name, .. } => s.push_str(&fsdm_sqljson::path::path_step_text(name)),
            Step::ArrayWildcard => s.push_str("[*]"),
            Step::Array(sels) => {
                if let [ArraySel::Index(IndexExpr::At(i))] = sels.as_slice() {
                    s.push_str(&format!("[{i}]"));
                } else {
                    s.push_str("[*]");
                }
            }
            _ => s.push_str("[*]"), // conservative
        }
    }
    s
}

fn simple_sub_path(steps: &[Step]) -> Option<String> {
    let mut s = String::new();
    for step in steps {
        match step {
            Step::Field { name, .. } => s.push_str(&fsdm_sqljson::path::path_step_text(name)),
            _ => return None,
        }
    }
    Some(s)
}

/// Render a datum as a path literal (`None` when it cannot appear safely
/// inside path text).
fn render_literal(lit: &Datum) -> Option<String> {
    match lit {
        Datum::Num(n) => Some(n.to_literal()),
        Datum::Str(s) if !s.contains(['"', '\'', '\\']) => Some(format!("\"{s}\"")),
        Datum::Bool(b) => Some(b.to_string()),
        _ => None,
    }
}

/// `$<container>?(@<sub> <op> <literal>)` when the literal is renderable.
fn exists_path((prefix, sub): &(String, String), op: CmpOp, lit: &Datum) -> Option<String> {
    let op_text = match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    };
    let lit_text = render_literal(lit)?;
    // a column directly at the row node (`sub` empty) probes `@` itself
    Some(format!("${prefix}?(@{sub} {op_text} {lit_text})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_sqljson::json_table::ColumnDef as CD;
    use fsdm_sqljson::SqlType;

    fn sample_def() -> JsonTableDef {
        let p = |s: &str| parse_path(s).unwrap();
        JsonTableDef {
            row_path: p("$.purchaseOrder"),
            columns: vec![CD::value("reference", SqlType::Varchar2(32), p("$.reference"))],
            nested: vec![NestedDef {
                path: p("$.items[*]"),
                columns: vec![
                    CD::value("partno", SqlType::Varchar2(16), p("$.partno")),
                    CD::value("quantity", SqlType::Number, p("$.quantity")),
                ],
                nested: vec![],
            }],
        }
    }

    #[test]
    fn derives_exists_paths_per_column() {
        let paths = column_exists_paths(&sample_def());
        assert_eq!(paths.len(), 3);
        assert_eq!(
            paths[0].as_ref().unwrap(),
            &(".purchaseOrder".to_string(), ".reference".to_string())
        );
        assert_eq!(
            paths[1].as_ref().unwrap(),
            &(".purchaseOrder.items[*]".to_string(), ".partno".to_string())
        );
    }

    #[test]
    fn exists_path_rendering() {
        let p = (".purchaseOrder.items[*]".to_string(), ".partno".to_string());
        assert_eq!(
            exists_path(&p, CmpOp::Eq, &Datum::from("P100")).unwrap(),
            "$.purchaseOrder.items[*]?(@.partno == \"P100\")"
        );
        assert_eq!(
            exists_path(&p, CmpOp::Gt, &Datum::from(5i64)).unwrap(),
            "$.purchaseOrder.items[*]?(@.partno > 5)"
        );
        assert!(exists_path(&p, CmpOp::Eq, &Datum::Null).is_none());
        assert!(exists_path(&p, CmpOp::Eq, &Datum::from("a\"b")).is_none());
    }

    fn po_db() -> Database {
        use crate::jsonaccess::JsonStorage;
        use crate::schema::{ColType, ColumnSpec, ConstraintMode, TableSchema};
        use crate::table::Table;
        let mut db = Database::new();
        db.add_table(Table::new(TableSchema::new(
            "po",
            vec![
                ColumnSpec::new("did", ColType::Number),
                ColumnSpec::json("jdoc", JsonStorage::Text, ConstraintMode::IsJson),
            ],
        )));
        db
    }

    #[test]
    fn pushdown_adds_scan_prefilter_and_keeps_filter() {
        let def = sample_def();
        let plan = Query::Filter {
            input: Box::new(Query::JsonTable {
                input: Box::new(Query::scan("po")),
                json_col: 1,
                def,
            }),
            pred: Expr::cmp(Expr::Col(3), CmpOp::Eq, Expr::Lit(Datum::from("P100"))),
        };
        let opt = optimize(&po_db(), plan);
        match &opt {
            Query::Filter { input, .. } => match &**input {
                Query::JsonTable { input, .. } => match &**input {
                    Query::Scan { filter: Some(f), .. } => {
                        let s = format!("{f:?}");
                        assert!(s.contains("JSON_EXISTS"), "{s}");
                        assert!(s.contains("partno"), "{s}");
                    }
                    other => panic!("expected filtered scan, got {other:?}"),
                },
                other => panic!("expected JsonTable, got {other:?}"),
            },
            other => panic!("expected Filter kept on top, got {other:?}"),
        }
    }

    #[test]
    fn optimize_is_idempotent_on_pushdown_plans() {
        let db = po_db();
        let plan = Query::Filter {
            input: Box::new(Query::JsonTable {
                input: Box::new(Query::scan("po")),
                json_col: 1,
                def: sample_def(),
            }),
            pred: Expr::And(
                Box::new(Expr::cmp(Expr::Col(3), CmpOp::Eq, Expr::Lit(Datum::from("P100")))),
                Box::new(Expr::InList(
                    Box::new(Expr::Col(4)),
                    vec![Datum::from(1i64), Datum::from(2i64)],
                )),
            ),
        };
        let once = optimize(&db, plan);
        let twice = optimize(&db, once.clone());
        assert_eq!(
            format!("{once:?}"),
            format!("{twice:?}"),
            "a second optimize pass re-fired a rewrite:\n{}vs\n{}",
            once.render(),
            twice.render()
        );
        // the derived probes are still there, exactly once each
        let text = format!("{twice:?}");
        assert_eq!(text.matches("JSON_EXISTS").count(), 2, "{text}");
    }

    fn guided_db() -> Database {
        use crate::jsonaccess::JsonStorage;
        use crate::schema::{ColType, ColumnSpec, TableSchema};
        use crate::table::{InsertValue, Table};
        let mut t = Table::new(TableSchema::new(
            "po",
            vec![
                ColumnSpec::new("did", ColType::Number),
                ColumnSpec::json("jdoc", JsonStorage::Oson, ConstraintMode::IsJsonWithDataGuide),
            ],
        ));
        for i in 0..3i64 {
            t.insert(vec![i.into(), InsertValue::Json(format!(r#"{{"price":{i}}}"#))]).unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    #[test]
    fn dead_json_exists_prunes_only_when_opted_in() {
        let dead =
            || Query::scan("po").filter(Expr::json_exists(1, parse_path("$.persno").unwrap()));
        let mut db = guided_db();
        // off by default: the filter merges into the scan but stays live
        let plan = optimize(&db, dead());
        match &plan {
            Query::Scan { filter: Some(f), .. } => {
                assert!(format!("{f:?}").contains("JSON_EXISTS"), "{f:?}");
            }
            other => panic!("expected merged scan, got {other:?}"),
        }
        db.set_dead_path_pruning(true);
        let plan = optimize(&db, dead());
        assert!(
            matches!(&plan, Query::Scan { filter: Some(Expr::Lit(Datum::Bool(false))), .. }),
            "{plan:?}"
        );
        // the rewrite is visible in EXPLAIN renderings, and execution
        // still returns the (empty) result the live filter would
        assert!(plan.render().contains("filter=false"), "{}", plan.render());
        assert!(db.execute(&dead()).unwrap().rows.is_empty());
    }

    #[test]
    fn dead_json_value_comparison_prunes() {
        let mut db = guided_db();
        db.set_dead_path_pruning(true);
        let dead = Query::scan("po").filter(Expr::cmp(
            Expr::json_value(1, parse_path("$.persno").unwrap(), SqlType::Number),
            CmpOp::Eq,
            Expr::Lit(Datum::from(7i64)),
        ));
        let plan = optimize(&db, dead);
        assert!(
            matches!(&plan, Query::Scan { filter: Some(Expr::Lit(Datum::Bool(false))), .. }),
            "{plan:?}"
        );
    }

    #[test]
    fn live_paths_and_unguided_tables_never_prune() {
        let mut db = guided_db();
        db.set_dead_path_pruning(true);
        // live path: the guide has seen `price`
        let live = Query::scan("po").filter(Expr::json_exists(1, parse_path("$.price").unwrap()));
        match optimize(&db, live) {
            Query::Scan { filter: Some(f), .. } => {
                assert!(format!("{f:?}").contains("JSON_EXISTS"), "{f:?}");
            }
            other => panic!("{other:?}"),
        }
        // unguided table (plain IS JSON): no proof available, no rewrite
        let mut db = po_db();
        db.set_dead_path_pruning(true);
        let dead = Query::scan("po").filter(Expr::json_exists(1, parse_path("$.zz").unwrap()));
        match optimize(&db, dead) {
            Query::Scan { filter: Some(f), .. } => {
                assert!(format!("{f:?}").contains("JSON_EXISTS"), "{f:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_pushable_predicates_left_alone() {
        let def = sample_def();
        let plan = Query::Filter {
            input: Box::new(Query::JsonTable {
                input: Box::new(Query::scan("po")),
                json_col: 1,
                def,
            }),
            pred: Expr::IsNull(Box::new(Expr::Col(3))),
        };
        let opt = optimize(&po_db(), plan);
        match &opt {
            Query::Filter { input, .. } => match &**input {
                Query::JsonTable { input, .. } => {
                    assert!(matches!(&**input, Query::Scan { filter: None, .. }));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    /// `m(did, name)` and `d(did, qty)`: the master/detail shape of the
    /// REL views, small enough to execute both plans of every rewrite.
    fn join_db() -> Database {
        use crate::schema::{ColumnSpec, TableSchema};
        use crate::table::Table;
        let mut m = Table::new(TableSchema::new(
            "m",
            vec![
                ColumnSpec::new("did", ColType::Number),
                ColumnSpec::new("name", ColType::Varchar2(8)),
            ],
        ));
        let mut d = Table::new(TableSchema::new(
            "d",
            vec![ColumnSpec::new("did", ColType::Number), ColumnSpec::new("qty", ColType::Number)],
        ));
        for i in 0..4i64 {
            m.insert(vec![i.into(), format!("n{i}").as_str().into()]).unwrap();
            for q in 0..3i64 {
                d.insert(vec![i.into(), (i * 10 + q).into()]).unwrap();
            }
        }
        // a master row without details: a pushed conjunct sees it, the
        // joined filter never did
        m.insert(vec![9i64.into(), "n9".into()]).unwrap();
        let mut db = Database::new();
        db.add_table(m);
        db.add_table(d);
        db
    }

    fn join() -> Query {
        Query::HashJoin {
            left: Box::new(Query::scan("m")),
            right: Box::new(Query::scan("d")),
            left_key: 0,
            right_key: 0,
        }
    }

    fn lit(d: impl Into<Datum>) -> Expr {
        Expr::Lit(d.into())
    }

    fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// Optimize, check the result rows (and their order) against the
    /// plan as written, and return the optimized plan.
    fn optimize_checked(db: &Database, plan: Query) -> Query {
        let opt = optimize(db, plan.clone());
        assert_eq!(
            db.execute_unoptimized(&opt).unwrap(),
            db.execute_unoptimized(&plan).unwrap(),
            "rewrite changed results:\n{}into\n{}",
            plan.render(),
            opt.render()
        );
        assert_eq!(optimize(db, opt.clone()), opt, "a second pass re-fired a rewrite");
        opt
    }

    #[test]
    fn filter_moves_through_a_projection_into_the_scan() {
        let p = |s: &str| parse_path(s).unwrap();
        let view = Query::scan("po").project(vec![
            ("did", Expr::Col(0)),
            ("price", Expr::json_value(1, p("$.price"), SqlType::Number)),
        ]);
        let plan = view.filter(Expr::cmp(Expr::Col(1), CmpOp::Ge, lit(1i64)));
        let opt = optimize_checked(&guided_db(), plan);
        let Query::Project { input, .. } = &opt else { panic!("{}", opt.render()) };
        let Query::Scan { filter: Some(f), .. } = &**input else { panic!("{}", opt.render()) };
        assert_eq!(
            *f,
            Expr::cmp(Expr::json_value(1, p("$.price"), SqlType::Number), CmpOp::Ge, lit(1i64))
        );
    }

    #[test]
    fn a_fallible_unread_projection_blocks_the_filter() {
        // the filter never reads `twice`, but moving it down would skip
        // the projection's arithmetic on rejected rows
        let twice =
            Expr::Arith(Box::new(Expr::Col(0)), crate::expr::ArithOp::Mul, Box::new(lit(2i64)));
        let plan = Query::scan("m")
            .project(vec![("did", Expr::Col(0)), ("twice", twice)])
            .filter(Expr::cmp(Expr::Col(0), CmpOp::Eq, lit(1i64)));
        let opt = optimize_checked(&join_db(), plan);
        let Query::Filter { input, .. } = &opt else { panic!("{}", opt.render()) };
        assert!(matches!(&**input, Query::Project { .. }), "{}", opt.render());
    }

    #[test]
    fn a_json_operator_over_a_projected_column_blocks_substitution() {
        let db = guided_db();
        let exists = || Expr::json_exists(1, parse_path("$.price").unwrap());
        // over a computed column and over a plain one alike: the
        // projection emits decoded text, so the operator reads no JSON
        // cell there, while the base column would hand it one
        for e in [Expr::Fun(crate::expr::ScalarFun::Upper, vec![Expr::Col(1)]), Expr::Col(1)] {
            let plan = Query::scan("po").project(vec![("did", Expr::Col(0)), ("j", e)]);
            let opt = optimize(&db, plan.clone().filter(exists()));
            let Query::Filter { input, pred } = &opt else { panic!("{}", opt.render()) };
            assert_eq!(*pred, exists());
            assert_eq!(**input, plan);
        }
    }

    #[test]
    fn filter_conjuncts_move_into_the_join_input_they_read() {
        let db = join_db();
        let left_only = Expr::cmp(Expr::Col(1), CmpOp::Ne, lit("n2"));
        let right_only = Expr::cmp(Expr::Col(3), CmpOp::Gt, lit(10i64));
        let mixed = Expr::cmp(Expr::Col(0), CmpOp::Lt, Expr::Col(3));
        let plan = join().filter(and(and(left_only.clone(), right_only), mixed.clone()));
        let opt = optimize_checked(&db, plan);
        let Query::Filter { input, pred } = &opt else { panic!("{}", opt.render()) };
        assert_eq!(*pred, mixed, "the mixed conjunct stays above the join");
        let Query::HashJoin { left, right, .. } = &**input else { panic!("{}", opt.render()) };
        assert_eq!(**left, Query::scan_where("m", left_only));
        // right columns are shifted by the left width
        assert_eq!(**right, Query::scan_where("d", Expr::cmp(Expr::Col(1), CmpOp::Gt, lit(10i64))));
    }

    #[test]
    fn a_fallible_conjunct_keeps_the_whole_filter_above_the_join() {
        // the division fails on the detail-less master row 9 only if it
        // is evaluated there: moving `name <> 'n2'` down would also
        // change the rows the division sees
        let ratio = Expr::cmp(
            Expr::Arith(Box::new(Expr::Col(3)), crate::expr::ArithOp::Div, Box::new(Expr::Col(0))),
            CmpOp::Gt,
            lit(1i64),
        );
        let pred = and(Expr::cmp(Expr::Col(1), CmpOp::Ne, lit("n2")), ratio);
        let db = join_db();
        let opt = optimize(&db, join().filter(pred.clone()));
        assert_eq!(opt, join().filter(pred.clone()));
        // and the error it raises is the one the plan as written raises
        let err = |q: &Query| db.execute_unoptimized(q).unwrap_err().message;
        assert_eq!(err(&opt), err(&join().filter(pred)));
    }

    #[test]
    fn projections_fuse_and_group_by_reads_through_a_projection() {
        let db = join_db();
        let view = join().project(vec![
            ("did", Expr::Col(0)),
            ("name", Expr::Col(1)),
            ("qty", Expr::Col(3)),
            ("big", Expr::cmp(Expr::Col(3), CmpOp::Gt, lit(20i64))),
        ]);
        let outer = view.clone().project(vec![("q", Expr::Col(2)), ("b", Expr::Col(3))]);
        let opt = optimize_checked(&db, outer);
        let Query::Project { input, exprs } = &opt else { panic!("{}", opt.render()) };
        assert_eq!(**input, join());
        assert_eq!(exprs[0].1, Expr::Col(3));
        let grouped = view.group_by(
            vec![("name", Expr::Col(1))],
            vec![AggSpec::of("total", crate::expr::AggFun::Sum, Expr::Col(2))],
        );
        let opt = optimize_checked(&db, grouped);
        let Query::GroupBy { input, keys, aggs } = &opt else { panic!("{}", opt.render()) };
        assert_eq!(**input, join());
        assert_eq!(keys[0].1, Expr::Col(1));
        assert_eq!(aggs[0].arg, Some(Expr::Col(3)));
    }

    #[test]
    fn a_computed_expression_read_twice_blocks_fusion() {
        let db = guided_db();
        let price = Expr::json_value(1, parse_path("$.price").unwrap(), SqlType::Number);
        let view = Query::scan("po").project(vec![("did", Expr::Col(0)), ("price", price)]);
        let sum =
            |a: Expr, b: Expr| Expr::Arith(Box::new(a), crate::expr::ArithOp::Add, Box::new(b));
        // `price` read twice: fusing would evaluate the JSON_VALUE twice
        let twice = view.clone().project(vec![("p2", sum(Expr::Col(1), Expr::Col(1)))]);
        let opt = optimize_checked(&db, twice);
        let Query::Project { input, .. } = &opt else { panic!("{}", opt.render()) };
        assert!(matches!(&**input, Query::Project { .. }), "{}", opt.render());
        // a plain column read twice fuses
        let did_twice = view.project(vec![("d2", sum(Expr::Col(0), Expr::Col(0)))]);
        let opt = optimize_checked(&db, did_twice);
        let Query::Project { input, .. } = &opt else { panic!("{}", opt.render()) };
        assert!(matches!(&**input, Query::Scan { .. }), "{}", opt.render());
    }

    #[test]
    fn nothing_moves_through_group_by_window_limit_or_sample() {
        let db = join_db();
        let pred = Expr::cmp(Expr::Col(0), CmpOp::Eq, lit(1i64));
        let order = vec![crate::query::SortKey::asc(Expr::Col(1))];
        let inputs = [
            Query::scan("d").group_by(vec![("did", Expr::Col(0))], vec![AggSpec::count_star("n")]),
            Query::Window {
                input: Box::new(Query::scan("d")),
                name: "prev".to_string(),
                fun: crate::query::WindowFun::Lag { expr: Expr::Col(1), offset: 1, default: None },
                order,
            },
            Query::scan("d").limit(2),
            Query::Sample { input: Box::new(Query::scan("d")), pct: 50.0 },
        ];
        for input in inputs {
            let plan = input.filter(pred.clone());
            assert_eq!(optimize_checked(&db, plan.clone()), plan);
        }
    }

    #[test]
    fn vc_substitution_tells_literal_types_apart() {
        // `NVL(JSON_VALUE(..), '10')` prints like `NVL(JSON_VALUE(..), 10)`
        // and `'NULL'` like `NULL`, yet each pair yields different values
        let mut db = guided_db();
        let nvl = |d: Datum| {
            let cost = Expr::json_value(1, parse_path("$.cost").unwrap(), SqlType::Number);
            Expr::Fun(crate::expr::ScalarFun::Nvl, vec![cost, Expr::Lit(d)])
        };
        let t = db.table_mut("po").unwrap();
        t.add_virtual_column("ten", nvl(Datum::from("10")));
        t.add_virtual_column("null", nvl(Datum::from("NULL")));
        t.populate_vc_imc(&["ten", "null"]).unwrap();
        let projected =
            |d: Datum| match optimize(&db, Query::scan("po").project(vec![("v", nvl(d))])) {
                Query::Project { mut exprs, .. } => exprs.remove(0).1,
                other => panic!("{other:?}"),
            };
        assert!(matches!(projected(Datum::from("10")), Expr::Col(2)));
        assert!(matches!(projected(Datum::from("NULL")), Expr::Col(3)));
        assert!(matches!(projected(Datum::from(10i64)), Expr::Fun(..)));
        assert!(matches!(projected(Datum::Null), Expr::Fun(..)));
    }
}
