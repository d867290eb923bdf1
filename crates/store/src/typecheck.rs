//! Plan-level type/schema inference and the optimizer translation
//! validator — the `fsdm-planck` core.
//!
//! [`infer`] walks a [`Query`] plan bottom-up and computes each
//! operator's output schema: column names, scalar types, and
//! nullability, derived from table schemas, virtual-column definitions,
//! DMDV `JSON_TABLE` column lists, and `JSON_VALUE` RETURNING clauses.
//! Inference is **sound** with respect to the executor: whatever
//! [`crate::database::Database::execute`] materializes for a plan is
//! admitted by the inferred schema, and a column inferred non-nullable
//! never materializes SQL NULL. Findings are reported as
//! [`fsdm_analyze::Diagnostic`]s with the stable `PK001`–`PK006` codes,
//! rendered by the same machinery as the `fsdm-analyze` lint.
//!
//! [`rewrite_violations`] is the translation validator: it proves each
//! [`crate::optimizer::optimize`] rewrite schema-equivalent to its input
//! (same columns, same types, nullability no looser) and shows the
//! determinism and parallel-safety classification of the plan — which
//! morsel-merge discipline [`crate::parallel::run_morsels`] needs — is
//! preserved. `optimize` enforces it with a `debug_assert!` on every
//! rewrite; [`check_plan`] exposes the same verdict as diagnostics.

use fsdm_analyze::{Code, Diagnostic};
use fsdm_sqljson::json_table::{ColumnDef, NestedDef};
use fsdm_sqljson::{Datum, Span, SqlType};

use crate::database::Database;
use crate::expr::{AggFun, Expr, ScalarFun};
use crate::query::{Query, SortKey, WindowFun};
use crate::schema::ColType;

/// The scalar-type lattice of the inference pass. `Null` is the bottom
/// (an expression that is always SQL NULL), `Any` the top (a value the
/// pass cannot constrain, e.g. `RETURNING ANY`); `Int`/`Float` both
/// admit the executor's numeric datums but let the pass distinguish
/// counts from measures statically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarType {
    /// Always SQL NULL.
    Null,
    /// Boolean.
    Bool,
    /// Integer-valued number (counts, lengths, positions).
    Int,
    /// General number.
    Float,
    /// String.
    Str,
    /// A JSON document column (materializes as its text rendering).
    Json,
    /// Unconstrained.
    Any,
}

impl ScalarType {
    /// Lowercase name used by schema renderings.
    pub fn label(&self) -> &'static str {
        match self {
            ScalarType::Null => "null",
            ScalarType::Bool => "bool",
            ScalarType::Int => "int",
            ScalarType::Float => "float",
            ScalarType::Str => "str",
            ScalarType::Json => "json",
            ScalarType::Any => "any",
        }
    }

    /// True for `Int`/`Float`.
    pub fn is_numeric(&self) -> bool {
        matches!(self, ScalarType::Int | ScalarType::Float)
    }

    /// Least upper bound in the lattice (numeric widening, else `Any`).
    pub fn join(self, other: ScalarType) -> ScalarType {
        match (self, other) {
            (a, b) if a == b => a,
            (ScalarType::Null, t) | (t, ScalarType::Null) => t,
            (a, b) if a.is_numeric() && b.is_numeric() => ScalarType::Float,
            _ => ScalarType::Any,
        }
    }

    /// Soundness predicate: can a **non-null** materialized datum of this
    /// static type be `d`? (JSON columns materialize as their text
    /// rendering, integers as general numbers.)
    pub fn admits(&self, d: &Datum) -> bool {
        match self {
            ScalarType::Any => true,
            ScalarType::Null => d.is_null(),
            ScalarType::Bool => matches!(d, Datum::Bool(_)),
            ScalarType::Int | ScalarType::Float => matches!(d, Datum::Num(_)),
            ScalarType::Str | ScalarType::Json => matches!(d, Datum::Str(_)),
        }
    }

    fn of_sql_type(ty: SqlType) -> ScalarType {
        match ty {
            SqlType::Varchar2(_) => ScalarType::Str,
            SqlType::Number => ScalarType::Float,
            SqlType::Boolean => ScalarType::Bool,
            SqlType::Any => ScalarType::Any,
        }
    }

    fn of_col_type(ty: &ColType) -> ScalarType {
        match ty {
            ColType::Number => ScalarType::Float,
            ColType::Varchar2(_) => ScalarType::Str,
            ColType::Boolean => ScalarType::Bool,
            ColType::Json(_) => ScalarType::Json,
        }
    }
}

/// One inferred output column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColInfo {
    /// Column name.
    pub name: String,
    /// Inferred scalar type.
    pub ty: ScalarType,
    /// May this column materialize SQL NULL? Never under-approximated:
    /// `false` is a proof the executor cannot produce NULL here.
    pub nullable: bool,
}

/// The inferred output schema of a plan node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanSchema {
    /// Columns in output position order.
    pub cols: Vec<ColInfo>,
}

impl PlanSchema {
    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Column info by name.
    pub fn col(&self, name: &str) -> Option<&ColInfo> {
        self.cols.iter().find(|c| c.name == name)
    }

    /// One-line rendering, e.g. `did:float?, reference:str?` (the `?`
    /// marks nullable columns).
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .cols
            .iter()
            .map(|c| format!("{}:{}{}", c.name, c.ty.label(), if c.nullable { "?" } else { "" }))
            .collect();
        parts.join(", ")
    }
}

/// How an operator participates in the morsel-parallel executor (see
/// `crates/store/src/parallel.rs`): fully morsel-parallel with
/// order-preserving reassembly, parallel with a serial merge barrier, or
/// a serial tail. Ordered from least to most restrictive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ParallelSafety {
    /// Per-morsel work reassembled in morsel order (Scan, Filter,
    /// Project, JsonTable).
    Morsel,
    /// Parallel phases joined by a serial merge barrier (HashJoin build,
    /// GroupBy merge, Sort/Window tail).
    Barrier,
    /// Inherently serial (Limit truncation, Sample selection).
    Serial,
}

/// The inference result: the root schema plus every finding made while
/// walking the plan.
#[derive(Debug, Clone)]
pub struct Inference {
    /// Output schema of the plan root.
    pub schema: PlanSchema,
    /// Findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Inference {
    /// Error-severity findings (the CI budget).
    pub fn errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == fsdm_analyze::Severity::Error).count()
    }
}

/// Infer the output schema of `plan` and collect diagnostics. Never
/// fails: unresolvable references produce `PK001` findings and an
/// `Any`-typed placeholder instead of an error.
pub fn infer(db: &Database, plan: &Query) -> Inference {
    let mut diags = Vec::new();
    let schema = infer_plan(db, plan, &mut diags);
    Inference { schema, diagnostics: diags }
}

/// This node's parallel-execution class (children not considered).
pub fn op_safety(q: &Query) -> ParallelSafety {
    match q {
        Query::Scan { .. }
        | Query::ViewScan { .. }
        | Query::Filter { .. }
        | Query::Project { .. }
        | Query::JsonTable { .. } => ParallelSafety::Morsel,
        Query::HashJoin { .. }
        | Query::GroupBy { .. }
        | Query::Sort { .. }
        | Query::Window { .. } => ParallelSafety::Barrier,
        Query::Limit { .. } | Query::Sample { .. } => ParallelSafety::Serial,
    }
}

/// The whole plan's class: the most restrictive operator in the tree
/// (views expand to their definitions first).
pub fn plan_safety(db: &Database, q: &Query) -> ParallelSafety {
    let own = match q {
        Query::ViewScan { view } => match db.view(view) {
            Some(inner) => plan_safety(db, inner),
            None => ParallelSafety::Morsel,
        },
        other => op_safety(other),
    };
    let children = match q {
        Query::Filter { input, .. }
        | Query::Project { input, .. }
        | Query::JsonTable { input, .. }
        | Query::GroupBy { input, .. }
        | Query::Sort { input, .. }
        | Query::Window { input, .. }
        | Query::Limit { input, .. }
        | Query::Sample { input, .. } => plan_safety(db, input),
        Query::HashJoin { left, right, .. } => plan_safety(db, left).max(plan_safety(db, right)),
        Query::Scan { .. } | Query::ViewScan { .. } => ParallelSafety::Morsel,
    };
    own.max(children)
}

/// Is the plan's output order pinned by the plan itself? False when a
/// Sort or window ORDER BY leaves ties to the input order (empty key
/// list, constant key, or duplicated key expression) — the conditions
/// `PK005` reports. Rewrites must preserve this classification.
pub fn plan_deterministic(db: &Database, q: &Query) -> bool {
    let own = match q {
        Query::Sort { keys, .. } => order_keys_pin(keys),
        Query::Window { order, .. } => order_keys_pin(order),
        Query::ViewScan { view } => match db.view(view) {
            Some(inner) => return plan_deterministic(db, inner),
            None => true,
        },
        _ => true,
    };
    let children = match q {
        Query::Filter { input, .. }
        | Query::Project { input, .. }
        | Query::JsonTable { input, .. }
        | Query::GroupBy { input, .. }
        | Query::Sort { input, .. }
        | Query::Window { input, .. }
        | Query::Limit { input, .. }
        | Query::Sample { input, .. } => plan_deterministic(db, input),
        Query::HashJoin { left, right, .. } => {
            plan_deterministic(db, left) && plan_deterministic(db, right)
        }
        Query::Scan { .. } | Query::ViewScan { .. } => true,
    };
    own && children
}

fn order_keys_pin(keys: &[SortKey]) -> bool {
    if keys.is_empty() {
        return false;
    }
    let mut seen: Vec<&Expr> = Vec::with_capacity(keys.len());
    for k in keys {
        if matches!(k.expr, Expr::Lit(_)) || seen.contains(&&k.expr) {
            return false;
        }
        seen.push(&k.expr);
    }
    true
}

/// The translation validator: every way `after` fails to be a valid
/// rewrite of `before` — schema equivalence (same columns, same types,
/// nullability no looser) plus preserved determinism and parallel-safety
/// classification. Empty means the rewrite is proven equivalent.
pub fn rewrite_violations(db: &Database, before: &Query, after: &Query) -> Vec<String> {
    let mut out = Vec::new();
    let b = infer(db, before).schema;
    let a = infer(db, after).schema;
    if a.width() != b.width() {
        out.push(format!("rewrite changed the column count: {} -> {}", b.width(), a.width()));
        return out;
    }
    for (i, (bc, ac)) in b.cols.iter().zip(&a.cols).enumerate() {
        if bc.name != ac.name {
            out.push(format!("column {i} renamed: {} -> {}", bc.name, ac.name));
        }
        if bc.ty != ac.ty {
            out.push(format!(
                "column {} changed type: {} -> {}",
                bc.name,
                bc.ty.label(),
                ac.ty.label()
            ));
        }
        if ac.nullable && !bc.nullable {
            out.push(format!("column {} loosened nullability", bc.name));
        }
    }
    let (bs, asf) = (plan_safety(db, before), plan_safety(db, after));
    if bs != asf {
        out.push(format!("parallel-safety class changed: {bs:?} -> {asf:?}"));
    }
    let (bd, ad) = (plan_deterministic(db, before), plan_deterministic(db, after));
    if bd != ad {
        out.push(format!("determinism class changed: {bd} -> {ad}"));
    }
    out
}

/// The full static gate over one plan: inference findings, then the
/// translation validator and the idempotence check run against the
/// optimizer's actual output, reported as `PK006` findings.
pub fn check_plan(db: &Database, plan: &Query) -> Inference {
    let mut inf = infer(db, plan);
    let optimized = crate::optimizer::optimize(db, plan.clone());
    for v in rewrite_violations(db, plan, &optimized) {
        inf.diagnostics.push(node_diag(Code::RewriteDivergence, plan, v));
    }
    let twice = crate::optimizer::optimize(db, optimized.clone());
    if twice != optimized {
        inf.diagnostics.push(node_diag(
            Code::RewriteDivergence,
            plan,
            "optimize(optimize(p)) != optimize(p): a rewrite re-fires on its own output"
                .to_string(),
        ));
    }
    inf
}

/// A finding anchored on a plan node: the node's one-line EXPLAIN
/// rendering stands in for the path text the span indexes.
fn node_diag(code: Code, node: &Query, message: String) -> Diagnostic {
    let label = node_label(node);
    Diagnostic::new(code, Span::new(0, label.len()), &label, message)
}

fn node_label(node: &Query) -> String {
    node.render().lines().next().unwrap_or_default().to_string()
}

/// An inferred expression: scalar type + nullability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExprType {
    ty: ScalarType,
    nullable: bool,
}

impl ExprType {
    fn new(ty: ScalarType, nullable: bool) -> ExprType {
        ExprType { ty, nullable }
    }

    fn any() -> ExprType {
        ExprType::new(ScalarType::Any, true)
    }
}

fn infer_plan(db: &Database, plan: &Query, diags: &mut Vec<Diagnostic>) -> PlanSchema {
    match plan {
        Query::Scan { table, filter } => {
            let Some(t) = db.table(table) else {
                diags.push(node_diag(
                    Code::UnknownColumn,
                    plan,
                    format!("scan of unknown table `{table}`"),
                ));
                return PlanSchema::default();
            };
            let mut cols: Vec<ColInfo> = t
                .schema
                .columns
                .iter()
                .map(|c| ColInfo {
                    name: c.name.clone(),
                    ty: ScalarType::of_col_type(&c.ty),
                    nullable: true,
                })
                .collect();
            // virtual columns are expressions over the base row only
            let base = PlanSchema { cols: cols.clone() };
            for vc in &t.virtual_columns {
                let et = infer_expr(&vc.expr, &base, plan, diags);
                cols.push(ColInfo { name: vc.name.clone(), ty: et.ty, nullable: et.nullable });
            }
            let schema = PlanSchema { cols };
            if let Some(pred) = filter {
                check_predicate(pred, &schema, plan, diags);
            }
            schema
        }
        Query::ViewScan { view } => match db.view(view) {
            Some(inner) => infer_plan(db, inner, diags),
            None => {
                diags.push(node_diag(
                    Code::UnknownColumn,
                    plan,
                    format!("scan of unknown view `{view}`"),
                ));
                PlanSchema::default()
            }
        },
        Query::Filter { input, pred } => {
            let schema = infer_plan(db, input, diags);
            check_predicate(pred, &schema, plan, diags);
            schema
        }
        Query::Project { input, exprs } => {
            let input_schema = infer_plan(db, input, diags);
            let mut cols = Vec::with_capacity(exprs.len());
            for (name, e) in exprs {
                let et = infer_expr(e, &input_schema, plan, diags);
                cols.push(ColInfo { name: name.clone(), ty: et.ty, nullable: et.nullable });
            }
            check_duplicates(&cols, plan, diags);
            PlanSchema { cols }
        }
        Query::JsonTable { input, json_col, def } => {
            let mut schema = infer_plan(db, input, diags);
            check_json_col(*json_col, &schema, plan, diags);
            // outer semantics: every JSON_TABLE column is NULL-padded
            // when the document yields no rows, so all are nullable
            collect_jt_cols(&def.columns, &def.nested, &mut schema.cols);
            schema
        }
        Query::HashJoin { left, right, left_key, right_key } => {
            let l = infer_plan(db, left, diags);
            let r = infer_plan(db, right, diags);
            let lk = join_key(&l, *left_key, "left", plan, diags);
            let rk = join_key(&r, *right_key, "right", plan, diags);
            if let (Some(lt), Some(rt)) = (lk, rk) {
                let hash_compatible = lt == rt
                    || (lt.is_numeric() && rt.is_numeric())
                    || lt == ScalarType::Any
                    || rt == ScalarType::Any;
                if !hash_compatible {
                    diags.push(node_diag(
                        Code::PlanTypeMismatch,
                        plan,
                        format!("join keys can never hash-match: {} vs {}", lt.label(), rt.label()),
                    ));
                }
            }
            let mut cols = l.cols;
            cols.extend(r.cols);
            PlanSchema { cols }
        }
        Query::GroupBy { input, keys, aggs } => {
            let input_schema = infer_plan(db, input, diags);
            let mut cols = Vec::with_capacity(keys.len() + aggs.len());
            for (name, e) in keys {
                let et = infer_expr(e, &input_schema, plan, diags);
                cols.push(ColInfo { name: name.clone(), ty: et.ty, nullable: et.nullable });
            }
            for spec in aggs {
                cols.push(infer_agg(spec, keys.is_empty(), &input_schema, plan, diags));
            }
            check_duplicates(&cols, plan, diags);
            PlanSchema { cols }
        }
        Query::Sort { input, keys } => {
            let schema = infer_plan(db, input, diags);
            check_order_keys(keys, &schema, "sort", plan, diags);
            schema
        }
        Query::Window { input, name, fun, order } => {
            let mut schema = infer_plan(db, input, diags);
            check_order_keys(order, &schema, "window ORDER BY", plan, diags);
            let WindowFun::Lag { expr, offset, default } = fun;
            let et = infer_expr(expr, &schema, plan, diags);
            let (ty, nullable) = match default {
                Some(d) => {
                    let dt = infer_expr(d, &schema, plan, diags);
                    (et.ty.join(dt.ty), et.nullable || dt.nullable)
                }
                // rows before the window's start get NULL
                None => (et.ty, et.nullable || *offset > 0),
            };
            if schema.cols.iter().any(|c| &c.name == name) {
                diags.push(node_diag(
                    Code::ArityMismatch,
                    plan,
                    format!("window column `{name}` duplicates an input column"),
                ));
            }
            schema.cols.push(ColInfo { name: name.clone(), ty, nullable });
            schema
        }
        Query::Limit { input, .. } | Query::Sample { input, .. } => infer_plan(db, input, diags),
    }
}

fn join_key(
    side: &PlanSchema,
    key: usize,
    which: &str,
    node: &Query,
    diags: &mut Vec<Diagnostic>,
) -> Option<ScalarType> {
    match side.cols.get(key) {
        Some(c) => {
            if c.ty == ScalarType::Json {
                // the build/probe loops only accept scalar cells: a JSON
                // cell key never enters the hash table
                diags.push(node_diag(
                    Code::PlanTypeMismatch,
                    node,
                    format!("{which} join key `{}` is a JSON column and never matches", c.name),
                ));
            }
            Some(c.ty)
        }
        None => {
            diags.push(node_diag(
                Code::UnknownColumn,
                node,
                format!(
                    "{which} join key #{key} is outside the input schema (width {})",
                    side.width()
                ),
            ));
            None
        }
    }
}

fn infer_agg(
    spec: &crate::query::AggSpec,
    global: bool,
    input: &PlanSchema,
    node: &Query,
    diags: &mut Vec<Diagnostic>,
) -> ColInfo {
    let arg = match (&spec.arg, spec.fun) {
        (None, AggFun::CountStar) => None,
        (None, fun) => {
            diags.push(node_diag(
                Code::ArityMismatch,
                node,
                format!("aggregate `{}` ({fun:?}) needs an argument", spec.name),
            ));
            None
        }
        (Some(e), _) => Some(infer_expr(e, input, node, diags)),
    };
    let (ty, nullable) = match spec.fun {
        AggFun::CountStar | AggFun::Count => (ScalarType::Int, false),
        AggFun::Sum | AggFun::Avg => {
            if let Some(a) = &arg {
                if a.ty == ScalarType::Bool {
                    diags.push(node_diag(
                        Code::PlanTypeMismatch,
                        node,
                        format!("`{}`: SUM/AVG over a boolean is always NULL", spec.name),
                    ));
                }
            }
            // NULL for an empty global group or when no argument value
            // is numeric; groups keyed on at least one row with a
            // non-null numeric argument produce a number
            let nullable = global || arg.map(|a| a.nullable || !a.ty.is_numeric()).unwrap_or(true);
            (ScalarType::Float, nullable)
        }
        AggFun::Min | AggFun::Max => {
            let a = arg.unwrap_or_else(ExprType::any);
            (a.ty, global || a.nullable)
        }
    };
    ColInfo { name: spec.name.clone(), ty, nullable }
}

fn check_duplicates(cols: &[ColInfo], node: &Query, diags: &mut Vec<Diagnostic>) {
    for (i, c) in cols.iter().enumerate() {
        if cols.iter().take(i).any(|e| e.name == c.name) {
            diags.push(node_diag(
                Code::ArityMismatch,
                node,
                format!("duplicate output column `{}`", c.name),
            ));
        }
    }
}

fn check_order_keys(
    keys: &[SortKey],
    schema: &PlanSchema,
    what: &str,
    node: &Query,
    diags: &mut Vec<Diagnostic>,
) {
    if keys.is_empty() {
        diags.push(node_diag(
            Code::UnstableOrderKey,
            node,
            format!("{what} has no keys: output order is the input order"),
        ));
        return;
    }
    let mut seen: Vec<&Expr> = Vec::with_capacity(keys.len());
    for k in keys {
        infer_expr(&k.expr, schema, node, diags);
        if matches!(k.expr, Expr::Lit(_)) {
            diags.push(node_diag(
                Code::UnstableOrderKey,
                node,
                format!("{what} key {:?} is constant: every row ties", k.expr),
            ));
        }
        if seen.contains(&&k.expr) {
            diags.push(node_diag(
                Code::UnstableOrderKey,
                node,
                format!("{what} key {:?} is duplicated", k.expr),
            ));
        }
        seen.push(&k.expr);
    }
}

fn check_json_col(json_col: usize, input: &PlanSchema, node: &Query, diags: &mut Vec<Diagnostic>) {
    match input.cols.get(json_col) {
        None => diags.push(node_diag(
            Code::UnknownColumn,
            node,
            format!(
                "JSON column #{json_col} is outside the input schema (width {})",
                input.width()
            ),
        )),
        Some(c) if c.ty != ScalarType::Json && c.ty != ScalarType::Any => {
            diags.push(node_diag(
                Code::PlanTypeMismatch,
                node,
                format!("column `{}` ({}) is not a JSON column", c.name, c.ty.label()),
            ));
        }
        Some(_) => {}
    }
}

/// Append the JSON_TABLE output columns in
/// [`fsdm_sqljson::JsonTableDef::column_names`] order (level columns
/// first, then nested blocks, depth-first).
fn collect_jt_cols(cols: &[ColumnDef], nested: &[NestedDef], out: &mut Vec<ColInfo>) {
    for c in cols {
        out.push(ColInfo {
            name: c.name.clone(),
            ty: ScalarType::of_sql_type(c.ty),
            nullable: true,
        });
    }
    for n in nested {
        collect_jt_cols(&n.columns, &n.nested, out);
    }
}

/// A predicate position (Scan filter / Filter): anything statically
/// non-boolean can never accept a row.
fn check_predicate(pred: &Expr, schema: &PlanSchema, node: &Query, diags: &mut Vec<Diagnostic>) {
    let et = infer_expr(pred, schema, node, diags);
    if !matches!(et.ty, ScalarType::Bool | ScalarType::Null | ScalarType::Any) {
        diags.push(node_diag(
            Code::PlanTypeMismatch,
            node,
            format!("filter predicate has type {}, not boolean", et.ty.label()),
        ));
    }
}

/// Expected argument count per scalar function (an inclusive range).
fn fun_arity(fun: ScalarFun) -> (usize, usize) {
    match fun {
        ScalarFun::Upper | ScalarFun::Lower | ScalarFun::Length | ScalarFun::Abs => (1, 1),
        ScalarFun::Concat | ScalarFun::Instr | ScalarFun::Nvl => (2, 2),
        ScalarFun::Substr => (2, 3),
    }
}

fn infer_expr(e: &Expr, input: &PlanSchema, node: &Query, diags: &mut Vec<Diagnostic>) -> ExprType {
    match e {
        Expr::Col(i) => match input.cols.get(*i) {
            Some(c) => {
                // a JSON cell referenced as a scalar decodes to its text
                let ty = if c.ty == ScalarType::Json { ScalarType::Str } else { c.ty };
                ExprType::new(ty, c.nullable)
            }
            None => {
                diags.push(node_diag(
                    Code::UnknownColumn,
                    node,
                    format!("col#{i} is outside the input schema (width {})", input.width()),
                ));
                ExprType::any()
            }
        },
        Expr::Lit(d) => match d {
            Datum::Null => ExprType::new(ScalarType::Null, true),
            Datum::Bool(_) => ExprType::new(ScalarType::Bool, false),
            Datum::Str(_) => ExprType::new(ScalarType::Str, false),
            Datum::Num(n) => {
                let ty = if n.to_i64().is_some() { ScalarType::Int } else { ScalarType::Float };
                ExprType::new(ty, false)
            }
        },
        Expr::Cmp(a, _, b) => {
            let (at, bt) = (infer_expr(a, input, node, diags), infer_expr(b, input, node, diags));
            if at.ty == ScalarType::Null || bt.ty == ScalarType::Null {
                diags.push(node_diag(
                    Code::NullComparison,
                    node,
                    "comparison with an operand that is always SQL NULL is never true".to_string(),
                ));
            }
            if bool_mismatch(at.ty, bt.ty) {
                diags.push(node_diag(
                    Code::PlanTypeMismatch,
                    node,
                    format!("comparing {} with {} is always unknown", at.ty.label(), bt.ty.label()),
                ));
            }
            // NULL operands and failed cross-type coercion both yield
            // unknown, which materializes as NULL outside a filter
            let nullable = at.nullable || bt.nullable || !always_comparable(at.ty, bt.ty);
            ExprType::new(ScalarType::Bool, nullable)
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            let (at, bt) = (infer_expr(a, input, node, diags), infer_expr(b, input, node, diags));
            for t in [at, bt] {
                check_boolean_operand(t.ty, "AND/OR", node, diags);
            }
            ExprType::new(ScalarType::Bool, at.nullable || bt.nullable)
        }
        Expr::Not(a) => {
            let at = infer_expr(a, input, node, diags);
            check_boolean_operand(at.ty, "NOT", node, diags);
            ExprType::new(ScalarType::Bool, at.nullable)
        }
        Expr::IsNull(a) => {
            infer_expr(a, input, node, diags);
            ExprType::new(ScalarType::Bool, false)
        }
        Expr::InList(a, list) => {
            let at = infer_expr(a, input, node, diags);
            let list_has = |p: fn(&Datum) -> bool| list.iter().any(p);
            let mismatch = match at.ty {
                ScalarType::Bool => !list.is_empty() && !list_has(|d| matches!(d, Datum::Bool(_))),
                ScalarType::Int | ScalarType::Float | ScalarType::Str => {
                    !list.is_empty() && list.iter().all(|d| matches!(d, Datum::Bool(_)))
                }
                _ => false,
            };
            if mismatch {
                diags.push(node_diag(
                    Code::PlanTypeMismatch,
                    node,
                    format!("`IN` list can never match a {} operand", at.ty.label()),
                ));
            }
            ExprType::new(ScalarType::Bool, at.nullable)
        }
        Expr::Like(a, _) => {
            let at = infer_expr(a, input, node, diags);
            ExprType::new(ScalarType::Bool, at.nullable)
        }
        Expr::Arith(a, _, b) => {
            let (at, bt) = (infer_expr(a, input, node, diags), infer_expr(b, input, node, diags));
            for t in [at, bt] {
                if t.ty == ScalarType::Bool {
                    diags.push(node_diag(
                        Code::PlanTypeMismatch,
                        node,
                        "arithmetic over a boolean operand always errors".to_string(),
                    ));
                }
            }
            if at.ty == ScalarType::Null || bt.ty == ScalarType::Null {
                return ExprType::new(ScalarType::Null, true);
            }
            ExprType::new(ScalarType::Float, at.nullable || bt.nullable)
        }
        Expr::Fun(fun, args) => {
            let (lo, hi) = fun_arity(*fun);
            if args.len() < lo || args.len() > hi {
                diags.push(node_diag(
                    Code::ArityMismatch,
                    node,
                    format!("{fun:?} takes {lo}..={hi} arguments, got {}", args.len()),
                ));
            }
            let arg_types: Vec<ExprType> =
                args.iter().map(|a| infer_expr(a, input, node, diags)).collect();
            let arg = |i: usize| arg_types.get(i).copied().unwrap_or(ExprType::any());
            match fun {
                ScalarFun::Upper | ScalarFun::Lower => {
                    ExprType::new(ScalarType::Str, arg(0).nullable)
                }
                ScalarFun::Length => ExprType::new(ScalarType::Int, arg(0).nullable),
                ScalarFun::Concat => {
                    ExprType::new(ScalarType::Str, arg(0).nullable || arg(1).nullable)
                }
                ScalarFun::Instr => {
                    ExprType::new(ScalarType::Int, arg(0).nullable || arg(1).nullable)
                }
                ScalarFun::Substr => ExprType::new(ScalarType::Str, arg(0).nullable),
                // non-numeric input nulls out instead of erroring
                ScalarFun::Abs => {
                    ExprType::new(ScalarType::Float, arg(0).nullable || !arg(0).ty.is_numeric())
                }
                ScalarFun::Nvl => {
                    let (a, b) = (arg(0), arg(1));
                    ExprType::new(a.ty.join(b.ty), a.nullable && b.nullable)
                }
            }
        }
        Expr::JsonValue { col, ty, .. } => {
            check_expr_json_col(*col, input, node, diags);
            ExprType::new(ScalarType::of_sql_type(*ty), true)
        }
        Expr::JsonExists { col, .. } => {
            check_expr_json_col(*col, input, node, diags);
            ExprType::new(ScalarType::Bool, false)
        }
    }
}

fn check_expr_json_col(col: usize, input: &PlanSchema, node: &Query, diags: &mut Vec<Diagnostic>) {
    match input.cols.get(col) {
        None => diags.push(node_diag(
            Code::UnknownColumn,
            node,
            format!("col#{col} is outside the input schema (width {})", input.width()),
        )),
        Some(c) if c.ty != ScalarType::Json && c.ty != ScalarType::Any => {
            diags.push(node_diag(
                Code::PlanTypeMismatch,
                node,
                format!(
                    "SQL/JSON operator over `{}` ({}), which is not a JSON column",
                    c.name,
                    c.ty.label()
                ),
            ));
        }
        Some(_) => {}
    }
}

fn check_boolean_operand(ty: ScalarType, what: &str, node: &Query, diags: &mut Vec<Diagnostic>) {
    if matches!(ty, ScalarType::Int | ScalarType::Float | ScalarType::Str | ScalarType::Json) {
        diags.push(node_diag(
            Code::PlanTypeMismatch,
            node,
            format!("{what} over a non-boolean operand ({})", ty.label()),
        ));
    }
}

/// Non-null operands of these type pairs always produce an ordering, so
/// the comparison itself introduces no NULL.
fn always_comparable(a: ScalarType, b: ScalarType) -> bool {
    (a.is_numeric() && b.is_numeric())
        || (a == ScalarType::Str && b == ScalarType::Str)
        || (a == ScalarType::Bool && b == ScalarType::Bool)
}

/// Bool against a concrete non-bool scalar never compares under
/// [`Datum::sql_cmp`] (JSON cells decode to text first).
fn bool_mismatch(a: ScalarType, b: ScalarType) -> bool {
    let concrete =
        |t: ScalarType| matches!(t, ScalarType::Int | ScalarType::Float | ScalarType::Str);
    (a == ScalarType::Bool && concrete(b)) || (b == ScalarType::Bool && concrete(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::jsonaccess::JsonStorage;
    use crate::query::AggSpec;
    use crate::schema::{ColumnSpec, ConstraintMode, TableSchema};
    use crate::table::{InsertValue, Table};
    use fsdm_sqljson::parse_path;

    /// `t(n NUMBER, s VARCHAR2, b BOOLEAN, j JSON)` with a few rows.
    fn db() -> Database {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("n", ColType::Number),
                ColumnSpec::new("s", ColType::Varchar2(32)),
                ColumnSpec::new("b", ColType::Boolean),
                ColumnSpec::json("j", JsonStorage::Text, ConstraintMode::IsJson),
            ],
        ));
        for i in 0..3i64 {
            t.insert(vec![
                i.into(),
                format!("s{i}").as_str().into(),
                Datum::Bool(i % 2 == 0).into(),
                InsertValue::Json(format!(r#"{{"price":{i}}}"#)),
            ])
            .unwrap();
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    fn codes(inf: &Inference) -> Vec<&'static str> {
        inf.diagnostics.iter().map(|d| d.code.id()).collect()
    }

    #[test]
    fn scan_schema_reflects_column_types() {
        let inf = infer(&db(), &Query::scan("t"));
        assert!(inf.diagnostics.is_empty(), "{:?}", inf.diagnostics);
        assert_eq!(inf.schema.render(), "n:float?, s:str?, b:bool?, j:json?");
    }

    #[test]
    fn pk001_unknown_table_view_and_column() {
        let db = db();
        assert_eq!(codes(&infer(&db, &Query::scan("nope"))), [Code::UnknownColumn.id()]);
        assert_eq!(codes(&infer(&db, &Query::view("nope"))), [Code::UnknownColumn.id()]);
        let oob = Query::Project {
            input: Box::new(Query::scan("t")),
            exprs: vec![("x".into(), Expr::Col(9))],
        };
        assert_eq!(codes(&infer(&db, &oob)), [Code::UnknownColumn.id()]);
        let join = Query::HashJoin {
            left: Box::new(Query::scan("t")),
            right: Box::new(Query::scan("t")),
            left_key: 0,
            right_key: 11,
        };
        assert_eq!(codes(&infer(&db, &join)), [Code::UnknownColumn.id()]);
    }

    #[test]
    fn pk001_negative_resolved_references_are_clean() {
        let db = db();
        let plan = Query::Project {
            input: Box::new(Query::scan("t")),
            exprs: vec![("n".into(), Expr::Col(0)), ("s".into(), Expr::Col(1))],
        };
        assert!(infer(&db, &plan).diagnostics.is_empty());
    }

    #[test]
    fn pk002_bool_vs_number_comparison() {
        let db = db();
        let plan =
            Query::scan("t").filter(Expr::cmp(Expr::Col(2), CmpOp::Eq, Expr::Lit(7i64.into())));
        assert_eq!(codes(&infer(&db, &plan)), [Code::PlanTypeMismatch.id()]);
        // negative: number against number compares fine
        let ok =
            Query::scan("t").filter(Expr::cmp(Expr::Col(0), CmpOp::Eq, Expr::Lit(7i64.into())));
        assert!(infer(&db, &ok).diagnostics.is_empty());
    }

    #[test]
    fn pk002_join_key_agg_and_predicate_positions() {
        let db = db();
        // str joined against float can never hash-match
        let join = Query::HashJoin {
            left: Box::new(Query::scan("t")),
            right: Box::new(Query::scan("t")),
            left_key: 1,
            right_key: 0,
        };
        assert_eq!(codes(&infer(&db, &join)), [Code::PlanTypeMismatch.id()]);
        // SUM over a boolean is always NULL
        let agg = Query::GroupBy {
            input: Box::new(Query::scan("t")),
            keys: vec![],
            aggs: vec![AggSpec { name: "s".into(), fun: AggFun::Sum, arg: Some(Expr::Col(2)) }],
        };
        assert_eq!(codes(&infer(&db, &agg)), [Code::PlanTypeMismatch.id()]);
        // a non-boolean filter predicate accepts nothing
        let pred = Query::scan("t").filter(Expr::Col(0));
        assert_eq!(codes(&infer(&db, &pred)), [Code::PlanTypeMismatch.id()]);
        // JSON_VALUE over a scalar column always errors at runtime
        let jv = Query::scan("t").filter(Expr::cmp(
            Expr::json_value(0, parse_path("$.price").unwrap(), SqlType::Number),
            CmpOp::Eq,
            Expr::Lit(1i64.into()),
        ));
        assert_eq!(codes(&infer(&db, &jv)), [Code::PlanTypeMismatch.id()]);
    }

    #[test]
    fn pk002_negative_json_operators_on_json_columns() {
        let db = db();
        let plan = Query::scan("t").filter(Expr::cmp(
            Expr::json_value(3, parse_path("$.price").unwrap(), SqlType::Number),
            CmpOp::Gt,
            Expr::Lit(1i64.into()),
        ));
        assert!(infer(&db, &plan).diagnostics.is_empty());
        let join = Query::HashJoin {
            left: Box::new(Query::scan("t")),
            right: Box::new(Query::scan("t")),
            left_key: 0,
            right_key: 0,
        };
        assert!(infer(&db, &join).diagnostics.is_empty());
    }

    #[test]
    fn pk003_comparison_against_always_null() {
        let db = db();
        let plan =
            Query::scan("t").filter(Expr::cmp(Expr::Col(0), CmpOp::Eq, Expr::Lit(Datum::Null)));
        assert_eq!(codes(&infer(&db, &plan)), [Code::NullComparison.id()]);
        // negative: IS NULL is the right spelling and is clean
        let ok = Query::scan("t").filter(Expr::IsNull(Box::new(Expr::Col(0))));
        assert!(infer(&db, &ok).diagnostics.is_empty());
    }

    #[test]
    fn pk004_arity_and_duplicate_columns() {
        let db = db();
        let bad_arity = Query::Project {
            input: Box::new(Query::scan("t")),
            exprs: vec![("x".into(), Expr::Fun(ScalarFun::Substr, vec![Expr::Col(1)]))],
        };
        assert_eq!(codes(&infer(&db, &bad_arity)), [Code::ArityMismatch.id()]);
        let dup = Query::Project {
            input: Box::new(Query::scan("t")),
            exprs: vec![("x".into(), Expr::Col(0)), ("x".into(), Expr::Col(1))],
        };
        assert_eq!(codes(&infer(&db, &dup)), [Code::ArityMismatch.id()]);
        let missing_arg = Query::GroupBy {
            input: Box::new(Query::scan("t")),
            keys: vec![],
            aggs: vec![AggSpec { name: "m".into(), fun: AggFun::Max, arg: None }],
        };
        assert_eq!(codes(&infer(&db, &missing_arg)), [Code::ArityMismatch.id()]);
        // negative: full arity and distinct names are clean
        let ok = Query::Project {
            input: Box::new(Query::scan("t")),
            exprs: vec![(
                "x".into(),
                Expr::Fun(ScalarFun::Substr, vec![Expr::Col(1), Expr::Lit(1i64.into())]),
            )],
        };
        assert!(infer(&db, &ok).diagnostics.is_empty());
    }

    #[test]
    fn pk005_unstable_sort_keys() {
        let db = db();
        let empty = Query::Sort { input: Box::new(Query::scan("t")), keys: vec![] };
        assert_eq!(codes(&infer(&db, &empty)), [Code::UnstableOrderKey.id()]);
        let constant = Query::Sort {
            input: Box::new(Query::scan("t")),
            keys: vec![SortKey::asc(Expr::Lit(1i64.into()))],
        };
        assert_eq!(codes(&infer(&db, &constant)), [Code::UnstableOrderKey.id()]);
        let dup = Query::Sort {
            input: Box::new(Query::scan("t")),
            keys: vec![SortKey::asc(Expr::Col(0)), SortKey::asc(Expr::Col(0))],
        };
        assert_eq!(codes(&infer(&db, &dup)), [Code::UnstableOrderKey.id()]);
        // negative: a column key pins the order
        let ok = Query::Sort {
            input: Box::new(Query::scan("t")),
            keys: vec![SortKey::asc(Expr::Col(0))],
        };
        assert!(infer(&db, &ok).diagnostics.is_empty());
        assert!(!plan_deterministic(&db, &empty));
        assert!(plan_deterministic(&db, &ok));
    }

    #[test]
    fn pk006_rewrite_violations_catch_schema_drift() {
        let db = db();
        let before = Query::Project {
            input: Box::new(Query::scan("t")),
            exprs: vec![("a".into(), Expr::Col(0)), ("b".into(), Expr::Col(1))],
        };
        // dropped column
        let narrowed = Query::Project {
            input: Box::new(Query::scan("t")),
            exprs: vec![("a".into(), Expr::Col(0))],
        };
        assert!(!rewrite_violations(&db, &before, &narrowed).is_empty());
        // renamed column
        let renamed = Query::Project {
            input: Box::new(Query::scan("t")),
            exprs: vec![("a".into(), Expr::Col(0)), ("c".into(), Expr::Col(1))],
        };
        assert!(!rewrite_violations(&db, &before, &renamed).is_empty());
        // retyped column
        let retyped = Query::Project {
            input: Box::new(Query::scan("t")),
            exprs: vec![("a".into(), Expr::Col(0)), ("b".into(), Expr::Col(0))],
        };
        assert!(!rewrite_violations(&db, &before, &retyped).is_empty());
        // loosened nullability
        let strict = Query::Project {
            input: Box::new(Query::scan("t")),
            exprs: vec![("a".into(), Expr::Lit(1i64.into())), ("b".into(), Expr::Col(1))],
        };
        let loose = Query::Project {
            input: Box::new(Query::scan("t")),
            exprs: vec![("a".into(), Expr::Col(0)), ("b".into(), Expr::Col(1))],
        };
        assert!(!rewrite_violations(&db, &strict, &loose).is_empty());
        // ...but tightening nullability is allowed
        assert!(rewrite_violations(&db, &loose, &strict)
            .iter()
            .all(|v| !v.contains("nullability")));
        // changed parallel-safety class
        let limited = Query::Limit { input: Box::new(before.clone()), n: 10 };
        assert!(!rewrite_violations(&db, &before, &limited).is_empty());
        // negative: identical plans are violation-free
        assert!(rewrite_violations(&db, &before, &before.clone()).is_empty());
    }

    #[test]
    fn pk006_check_plan_is_clean_on_well_formed_plans() {
        let db = db();
        let plan = Query::Sort {
            input: Box::new(Query::scan("t").filter(Expr::cmp(
                Expr::Col(0),
                CmpOp::Gt,
                Expr::Lit(0i64.into()),
            ))),
            keys: vec![SortKey::asc(Expr::Col(0))],
        };
        let inf = check_plan(&db, &plan);
        assert!(inf.diagnostics.is_empty(), "{:?}", inf.diagnostics);
    }

    #[test]
    fn parallel_safety_classes_match_executor_structure() {
        let db = db();
        assert_eq!(plan_safety(&db, &Query::scan("t")), ParallelSafety::Morsel);
        let join = Query::HashJoin {
            left: Box::new(Query::scan("t")),
            right: Box::new(Query::scan("t")),
            left_key: 0,
            right_key: 0,
        };
        assert_eq!(plan_safety(&db, &join), ParallelSafety::Barrier);
        let limited = Query::Limit { input: Box::new(join), n: 1 };
        assert_eq!(plan_safety(&db, &limited), ParallelSafety::Serial);
    }

    #[test]
    fn inference_agrees_with_execution() {
        let db = db();
        let plan = Query::GroupBy {
            input: Box::new(Query::scan("t")),
            keys: vec![("b".into(), Expr::Col(2))],
            aggs: vec![
                AggSpec { name: "cnt".into(), fun: AggFun::CountStar, arg: None },
                AggSpec { name: "total".into(), fun: AggFun::Sum, arg: Some(Expr::Col(0)) },
            ],
        };
        let inf = infer(&db, &plan);
        assert!(inf.diagnostics.is_empty(), "{:?}", inf.diagnostics);
        let res = db.execute(&plan).unwrap();
        assert_eq!(res.columns, inf.schema.cols.iter().map(|c| c.name.clone()).collect::<Vec<_>>());
        for row in &res.rows {
            for (d, c) in row.iter().zip(&inf.schema.cols) {
                if d.is_null() {
                    assert!(c.nullable, "column {} materialized NULL", c.name);
                } else {
                    assert!(
                        c.ty.admits(d),
                        "column {}: {:?} not admitted by {:?}",
                        c.name,
                        d,
                        c.ty
                    );
                }
            }
        }
        // COUNT(*) is proven non-nullable even over an empty global group
        let empty = Query::GroupBy {
            input: Box::new(Query::scan("t").filter(Expr::cmp(
                Expr::Col(0),
                CmpOp::Lt,
                Expr::Lit(0i64.into()),
            ))),
            keys: vec![],
            aggs: vec![
                AggSpec { name: "cnt".into(), fun: AggFun::CountStar, arg: None },
                AggSpec { name: "total".into(), fun: AggFun::Sum, arg: Some(Expr::Col(0)) },
            ],
        };
        let inf = infer(&db, &empty);
        assert!(!inf.schema.cols[0].nullable);
        assert!(inf.schema.cols[1].nullable);
        let res = db.execute(&empty).unwrap();
        assert_eq!(res.rows.len(), 1);
        assert!(!res.rows[0][0].is_null());
        assert!(res.rows[0][1].is_null());
    }
}
