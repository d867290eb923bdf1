//! Row expressions: column references, literals, comparisons, arithmetic,
//! scalar functions, and the SQL/JSON operators.
//!
//! Expression trees are **immutable and `Send + Sync`**: the SQL/JSON
//! operators carry only their compiled [`JsonPath`] (behind an `Arc`, so
//! clones share it). All mutable evaluation state — the per-path
//! [`PathSlot`]s with their §4.2.1 look-back caches, and the JSON_TABLE
//! cursors — lives in an [`EvalScratch`] that each executor
//! worker owns and passes by `&mut`. That split is what lets one plan tree
//! be shared across morsel workers (see [`crate::parallel`]).

use std::collections::HashMap;
use std::sync::Arc;

use fsdm_sqljson::json_table::{JsonTableCursor, JsonTableDef};
use fsdm_sqljson::path::JsonPath;
use fsdm_sqljson::{Datum, SqlType};

use crate::imc::ColumnVector;
use crate::jsonaccess::PathSlot;
use crate::table::{Cell, Row, StoreError};
use crate::vector::{cmp_tri, PredKernel, Tri, ValKernel};

/// Per-worker evaluation state: reusable path slots keyed by the shared
/// compiled path, and JSON_TABLE cursors keyed by definition. Both caches
/// exist so the look-back field-id caches (and a path slot's last TEXT
/// result) persist across the rows a worker processes — exactly the
/// state the expression tree itself used to hold in `RefCell`s before the
/// executor went parallel.
#[derive(Default)]
pub struct EvalScratch {
    /// One slot per distinct compiled path (keyed by `Arc` address:
    /// expression clones share the path, hence the slot).
    paths: HashMap<usize, PathSlot>,
    /// One cursor per JSON_TABLE definition (keyed by address; the
    /// definition outlives the execution it is scanned by).
    cursors: HashMap<usize, JsonTableCursor>,
}

impl EvalScratch {
    /// Fresh, empty scratch. Cheap: caches fill lazily on first use.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// The reusable slot for `path`, created on first use.
    pub(crate) fn path_slot(&mut self, path: &Arc<JsonPath>) -> &mut PathSlot {
        self.paths
            .entry(Arc::as_ptr(path) as usize)
            .or_insert_with(|| PathSlot::new((**path).clone()))
    }

    /// The reusable JSON_TABLE cursor for `def`, created on first use.
    pub(crate) fn cursor(&mut self, def: &JsonTableDef) -> &mut JsonTableCursor {
        self.cursors
            .entry(def as *const JsonTableDef as usize)
            .or_insert_with(|| JsonTableCursor::new(def))
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Built-in scalar functions (the subset the paper's queries use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFun {
    /// `SUBSTR(s, pos [, len])` — 1-based as in Oracle.
    Substr,
    /// `INSTR(s, sub)` — 1-based position, 0 when absent.
    Instr,
    /// `UPPER(s)`.
    Upper,
    /// `LOWER(s)`.
    Lower,
    /// `LENGTH(s)`.
    Length,
    /// `CONCAT(a, b)` / `||`.
    Concat,
    /// `ABS(n)`.
    Abs,
    /// `NVL(a, b)`.
    Nvl,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFun {
    /// `COUNT(*)`.
    CountStar,
    /// `COUNT(expr)` (non-null values).
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

/// A row expression tree. Equality is structural: JSON operators compare
/// their compiled paths, literals compare as [`Datum`]s.
#[derive(Clone, PartialEq)]
pub enum Expr {
    /// Column reference by position in the input row.
    Col(usize),
    /// Constant.
    Lit(Datum),
    /// Comparison (SQL three-valued logic; unknown is treated as false by
    /// filters).
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// `expr IS NULL`.
    IsNull(Box<Expr>),
    /// `expr IN (v1, v2, …)`.
    InList(Box<Expr>, Vec<Datum>),
    /// `a LIKE 'pat%'` (supports `%` and `_`).
    Like(Box<Expr>, String),
    /// Arithmetic.
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// Scalar function call.
    Fun(ScalarFun, Vec<Expr>),
    /// `JSON_VALUE(col, path RETURNING ty)`. The evaluation cursor (whose
    /// look-back field-id cache persists across rows) lives in the
    /// caller's [`EvalScratch`], keyed by the shared compiled path.
    JsonValue {
        /// JSON column position.
        col: usize,
        /// Compiled path (shared by clones, so they share one cursor per
        /// scratch).
        path: Arc<JsonPath>,
        /// RETURNING type.
        ty: SqlType,
    },
    /// `JSON_EXISTS(col, path)`.
    JsonExists {
        /// JSON column position.
        col: usize,
        /// Compiled path.
        path: Arc<JsonPath>,
    },
}

impl std::fmt::Debug for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "col#{i}"),
            Expr::Lit(d) => write!(f, "{d}"),
            Expr::Cmp(a, op, b) => write!(f, "({a:?} {op:?} {b:?})"),
            Expr::And(a, b) => write!(f, "({a:?} AND {b:?})"),
            Expr::Or(a, b) => write!(f, "({a:?} OR {b:?})"),
            Expr::Not(a) => write!(f, "NOT {a:?}"),
            Expr::IsNull(a) => write!(f, "{a:?} IS NULL"),
            Expr::InList(a, l) => write!(f, "{a:?} IN {l:?}"),
            Expr::Like(a, p) => write!(f, "{a:?} LIKE {p:?}"),
            Expr::Arith(a, op, b) => write!(f, "({a:?} {op:?} {b:?})"),
            Expr::Fun(fun, args) => write!(f, "{fun:?}{args:?}"),
            Expr::JsonValue { col, path, ty, .. } => {
                write!(f, "JSON_VALUE(col#{col}, '{}' RET {ty})", path.text())
            }
            Expr::JsonExists { col, path, .. } => {
                write!(f, "JSON_EXISTS(col#{col}, '{}')", path.text())
            }
        }
    }
}

impl Expr {
    /// Convenience constructor: `JSON_VALUE`.
    pub fn json_value(col: usize, path: JsonPath, ty: SqlType) -> Expr {
        Expr::JsonValue { col, path: Arc::new(path), ty }
    }

    /// Convenience constructor: `JSON_EXISTS`.
    pub fn json_exists(col: usize, path: JsonPath) -> Expr {
        Expr::JsonExists { col, path: Arc::new(path) }
    }

    /// Convenience constructor: comparison with a literal.
    pub fn cmp(lhs: Expr, op: CmpOp, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(lhs), op, Box::new(rhs))
    }

    /// Evaluate against a row with a throwaway scratch. Convenience for
    /// cold paths (planning, tests); hot loops should hold one
    /// [`EvalScratch`] per worker and call [`Expr::eval_with`] so path
    /// cursors and their look-back caches persist across rows.
    pub fn eval(&self, row: &Row) -> Result<Datum, StoreError> {
        self.eval_with(row, &mut EvalScratch::new())
    }

    /// Evaluate against a row, drawing cursor state from `scratch`.
    pub fn eval_with(&self, row: &Row, scratch: &mut EvalScratch) -> Result<Datum, StoreError> {
        Ok(match self {
            Expr::Col(i) => match row.get(*i) {
                Some(Cell::D(d)) => d.clone(),
                Some(Cell::J(j)) => Datum::Str(j.decode_to_text()),
                None => return Err(StoreError::new(format!("column {i} out of range"))),
            },
            Expr::Lit(d) => d.clone(),
            Expr::Cmp(a, op, b) => {
                let (x, y) = (a.eval_with(row, scratch)?, b.eval_with(row, scratch)?);
                match x.sql_cmp(&y) {
                    None => Datum::Null, // unknown
                    Some(ord) => Datum::Bool(match op {
                        CmpOp::Eq => ord.is_eq(),
                        CmpOp::Ne => ord.is_ne(),
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Le => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Ge => ord.is_ge(),
                    }),
                }
            }
            Expr::And(a, b) => {
                three_valued_and(a.eval_with(row, scratch)?, b.eval_with(row, scratch)?)
            }
            Expr::Or(a, b) => {
                three_valued_or(a.eval_with(row, scratch)?, b.eval_with(row, scratch)?)
            }
            Expr::Not(a) => match a.eval_with(row, scratch)? {
                Datum::Bool(v) => Datum::Bool(!v),
                Datum::Null => Datum::Null,
                _ => return Err(StoreError::new("NOT applied to non-boolean")),
            },
            Expr::IsNull(a) => Datum::Bool(a.eval_with(row, scratch)?.is_null()),
            Expr::InList(a, list) => {
                let v = a.eval_with(row, scratch)?;
                if v.is_null() {
                    Datum::Null
                } else {
                    Datum::Bool(
                        list.iter().any(|d| v.sql_cmp(d).map(|o| o.is_eq()).unwrap_or(false)),
                    )
                }
            }
            Expr::Like(a, pat) => {
                let v = a.eval_with(row, scratch)?;
                match v {
                    Datum::Null => Datum::Null,
                    other => Datum::Bool(like_match(&other.to_text(), pat)),
                }
            }
            Expr::Arith(a, op, b) => {
                let (x, y) = (a.eval_with(row, scratch)?, b.eval_with(row, scratch)?);
                arith_datums(&x, *op, &y)?
            }
            Expr::Fun(fun, args) => eval_fun(*fun, args, row, scratch)?,
            Expr::JsonValue { col, path, ty } => match row.get(*col) {
                Some(Cell::J(j)) => j.json_value(scratch.path_slot(path), *ty),
                Some(Cell::D(_)) | None => {
                    return Err(StoreError::new("JSON_VALUE on non-JSON column"))
                }
            },
            Expr::JsonExists { col, path } => match row.get(*col) {
                Some(Cell::J(j)) => Datum::Bool(j.json_exists(scratch.path_slot(path).evaluator())),
                Some(Cell::D(_)) | None => {
                    return Err(StoreError::new("JSON_EXISTS on non-JSON column"))
                }
            },
        })
    }

    /// Predicate evaluation: SQL WHERE semantics (NULL/unknown = reject).
    /// Throwaway-scratch convenience, like [`Expr::eval`].
    pub fn matches(&self, row: &Row) -> Result<bool, StoreError> {
        self.matches_with(row, &mut EvalScratch::new())
    }

    /// [`Expr::matches`] drawing cursor state from `scratch`.
    pub fn matches_with(&self, row: &Row, scratch: &mut EvalScratch) -> Result<bool, StoreError> {
        fsdm_fault::fire(fsdm_fault::catalog::FP_EXPR_EVAL).map_err(crate::govern::fault_err)?;
        Ok(matches!(self.eval_with(row, scratch)?, Datum::Bool(true)))
    }

    /// Lower this predicate to a vectorized kernel plan when every column
    /// it references is IMC-resident (and the vectors are not stale —
    /// `len == nrows` guards against inserts after `populate_vc_imc`).
    /// Returns `None` on any shape the kernels cannot express exactly;
    /// the caller then falls back to the scratch-based row path, which
    /// remains the semantic reference.
    ///
    /// The lowering assumes vector null-ness mirrors datum null-ness,
    /// which holds for typed base columns and for VC vectors (the only
    /// things `populate_vc_imc` materializes).
    pub(crate) fn compile_predicate(
        &self,
        vectors: &HashMap<usize, Arc<ColumnVector>>,
        nrows: usize,
    ) -> Option<PredKernel> {
        match self {
            Expr::Cmp(a, op, b) => {
                let (col, op, lit) = match (&**a, &**b) {
                    (Expr::Col(i), Expr::Lit(d)) => (*i, *op, d),
                    (Expr::Lit(d), Expr::Col(i)) => (*i, flip_cmp(*op), d),
                    _ => return None,
                };
                compile_cmp(resident(vectors, col, nrows)?, op, lit)
            }
            Expr::And(a, b) => Some(PredKernel::And(
                Box::new(a.compile_predicate(vectors, nrows)?),
                Box::new(b.compile_predicate(vectors, nrows)?),
            )),
            Expr::Or(a, b) => Some(PredKernel::Or(
                Box::new(a.compile_predicate(vectors, nrows)?),
                Box::new(b.compile_predicate(vectors, nrows)?),
            )),
            Expr::Not(a) => Some(PredKernel::Not(Box::new(a.compile_predicate(vectors, nrows)?))),
            Expr::IsNull(a) => match &**a {
                Expr::Col(i) => Some(PredKernel::IsNull { col: resident(vectors, *i, nrows)? }),
                _ => None,
            },
            Expr::InList(a, list) => match &**a {
                Expr::Col(i) => compile_in(resident(vectors, *i, nrows)?, list),
                _ => None,
            },
            Expr::Like(a, pat) => match &**a {
                Expr::Col(i) => {
                    let v = resident(vectors, *i, nrows)?;
                    let ColumnVector::Strings { dict, .. } = &*v else { return None };
                    // one LIKE match per distinct value, not per row
                    let verdicts: Arc<[Tri]> = dict
                        .iter()
                        .map(|d| if like_match(d, pat) { Tri::True } else { Tri::False })
                        .collect();
                    Some(PredKernel::StrVerdict { col: v, verdicts })
                }
                _ => None,
            },
            // a bare boolean column used as the filter
            Expr::Col(i) => {
                let v = resident(vectors, *i, nrows)?;
                matches!(&*v, ColumnVector::Bools(_)).then(|| PredKernel::Truth { col: v })
            }
            _ => None,
        }
    }

    /// Lower a projection/aggregate-argument expression to a gather
    /// kernel. Only virtual columns (`col >= floor`, the base-schema
    /// width) are read from vectors: VC vectors hold exactly the datums
    /// the defining expression produced, whereas base-column vectors
    /// normalize values (`from_datums` folds numbers to `f64`), which
    /// would break byte-identity with the row path on materialized
    /// output. Predicates tolerate that normalization (comparisons are
    /// value-based); gathers must not.
    pub(crate) fn compile_value(
        &self,
        vectors: &HashMap<usize, Arc<ColumnVector>>,
        nrows: usize,
        floor: usize,
    ) -> Option<ValKernel> {
        match self {
            Expr::Col(i) if *i >= floor => Some(ValKernel::Col(resident(vectors, *i, nrows)?)),
            Expr::Lit(d) => Some(ValKernel::Lit(d.clone())),
            Expr::Arith(a, op, b) => Some(ValKernel::Arith {
                l: Box::new(a.compile_value(vectors, nrows, floor)?),
                op: *op,
                r: Box::new(b.compile_value(vectors, nrows, floor)?),
            }),
            _ => None,
        }
    }
}

/// The vector for `col`, if materialized and covering every current row.
fn resident(
    vectors: &HashMap<usize, Arc<ColumnVector>>,
    col: usize,
    nrows: usize,
) -> Option<Arc<ColumnVector>> {
    let v = vectors.get(&col)?;
    (v.len() == nrows).then(|| v.clone())
}

/// Mirror a comparison so the column is always on the left.
fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Lower `col <op> lit` against the column's vector representation.
fn compile_cmp(v: Arc<ColumnVector>, op: CmpOp, lit: &Datum) -> Option<PredKernel> {
    match &*v {
        // `as_num` applies the same Str-side coercion `sql_cmp` uses, and
        // rejects Bool/Null literals (which compare unknown — fall back)
        ColumnVector::Numbers(_) => {
            let lit = lit.as_num()?;
            Some(PredKernel::NumCmp { col: v, op, lit })
        }
        ColumnVector::Strings { dict, .. } => match lit {
            Datum::Str(s) => Some(match op {
                // equality probes binary-search the sorted dictionary
                CmpOp::Eq | CmpOp::Ne => PredKernel::StrEq {
                    code: dict.binary_search(s).ok().map(|c| c as u32),
                    col: v,
                    negate: op == CmpOp::Ne,
                },
                // ranges become code-threshold tests: the dictionary is
                // sorted, so code order == string order
                CmpOp::Lt => PredKernel::StrBelow {
                    bound: dict.partition_point(|d| d < s) as u32,
                    col: v,
                    below: true,
                },
                CmpOp::Le => PredKernel::StrBelow {
                    bound: dict.partition_point(|d| d <= s) as u32,
                    col: v,
                    below: true,
                },
                CmpOp::Gt => PredKernel::StrBelow {
                    bound: dict.partition_point(|d| d <= s) as u32,
                    col: v,
                    below: false,
                },
                CmpOp::Ge => PredKernel::StrBelow {
                    bound: dict.partition_point(|d| d < s) as u32,
                    col: v,
                    below: false,
                },
            }),
            // numeric literal: evaluate `sql_cmp`'s coercion once per
            // dictionary entry instead of once per row
            Datum::Num(_) => {
                let verdicts: Arc<[Tri]> =
                    dict.iter().map(|d| cmp_tri(Datum::Str(d.clone()).sql_cmp(lit), op)).collect();
                Some(PredKernel::StrVerdict { col: v, verdicts })
            }
            _ => None,
        },
        ColumnVector::Bools(_) => match lit {
            Datum::Bool(b) => Some(PredKernel::BoolCmp { col: v, op, lit: *b }),
            _ => None,
        },
    }
}

/// Lower `col IN (…)` against the column's vector representation.
fn compile_in(v: Arc<ColumnVector>, list: &[Datum]) -> Option<PredKernel> {
    match &*v {
        // non-coercible list entries can never match a Num operand
        // (`sql_cmp` returns unknown → IN's `unwrap_or(false)`), so they
        // drop out of the compiled list entirely
        ColumnVector::Numbers(_) => {
            let nums: Vec<_> = list.iter().filter_map(|d| d.as_num()).collect();
            Some(PredKernel::NumIn { col: v, list: nums.into() })
        }
        ColumnVector::Strings { dict, .. } => {
            let verdicts: Arc<[Tri]> = dict
                .iter()
                .map(|e| {
                    let v = Datum::Str(e.clone());
                    let hit = list.iter().any(|d| v.sql_cmp(d).map(|o| o.is_eq()).unwrap_or(false));
                    if hit {
                        Tri::True
                    } else {
                        Tri::False
                    }
                })
                .collect();
            Some(PredKernel::StrVerdict { col: v, verdicts })
        }
        // bool IN reduces to equality kernels (nulls stay unknown)
        ColumnVector::Bools(_) => {
            let eq = |b: bool| PredKernel::BoolCmp { col: v.clone(), op: CmpOp::Eq, lit: b };
            let with_true = list.contains(&Datum::Bool(true));
            let with_false = list.contains(&Datum::Bool(false));
            Some(match (with_true, with_false) {
                (true, true) => PredKernel::Or(Box::new(eq(true)), Box::new(eq(false))),
                (true, false) => eq(true),
                (false, true) => eq(false),
                // nothing can match: false for non-null, unknown for null
                (false, false) => PredKernel::And(Box::new(eq(true)), Box::new(eq(false))),
            })
        }
    }
}

fn three_valued_and(a: Datum, b: Datum) -> Datum {
    match (a, b) {
        (Datum::Bool(false), _) | (_, Datum::Bool(false)) => Datum::Bool(false),
        (Datum::Bool(true), Datum::Bool(true)) => Datum::Bool(true),
        _ => Datum::Null,
    }
}

fn three_valued_or(a: Datum, b: Datum) -> Datum {
    match (a, b) {
        (Datum::Bool(true), _) | (_, Datum::Bool(true)) => Datum::Bool(true),
        (Datum::Bool(false), Datum::Bool(false)) => Datum::Bool(false),
        _ => Datum::Null,
    }
}

fn eval_fun(
    fun: ScalarFun,
    args: &[Expr],
    row: &Row,
    scratch: &mut EvalScratch,
) -> Result<Datum, StoreError> {
    let vals: Vec<Datum> =
        args.iter().map(|a| a.eval_with(row, scratch)).collect::<Result<_, _>>()?;
    let s = |i: usize| -> Option<String> {
        vals.get(i).and_then(|d| if d.is_null() { None } else { Some(d.to_text()) })
    };
    Ok(match fun {
        ScalarFun::Upper => match s(0) {
            Some(x) => Datum::Str(x.to_uppercase()),
            None => Datum::Null,
        },
        ScalarFun::Lower => match s(0) {
            Some(x) => Datum::Str(x.to_lowercase()),
            None => Datum::Null,
        },
        ScalarFun::Length => match s(0) {
            Some(x) => Datum::from(x.chars().count() as i64),
            None => Datum::Null,
        },
        ScalarFun::Concat => match (s(0), s(1)) {
            (Some(a), Some(b)) => Datum::Str(a + &b),
            _ => Datum::Null,
        },
        ScalarFun::Abs => match vals.first().and_then(|d| d.as_num()) {
            Some(n) => Datum::from(n.to_f64().abs()),
            None => Datum::Null,
        },
        ScalarFun::Nvl => {
            let first = vals.first().cloned().unwrap_or(Datum::Null);
            if first.is_null() {
                vals.get(1).cloned().unwrap_or(Datum::Null)
            } else {
                first
            }
        }
        ScalarFun::Instr => match (s(0), s(1)) {
            (Some(hay), Some(needle)) => {
                // 1-based character position, 0 when absent (Oracle INSTR)
                match hay.find(&needle) {
                    Some(byte_pos) => Datum::from(hay[..byte_pos].chars().count() as i64 + 1),
                    None => Datum::from(0i64),
                }
            }
            _ => Datum::Null,
        },
        ScalarFun::Substr => {
            let text = match s(0) {
                Some(t) => t,
                None => return Ok(Datum::Null),
            };
            let pos = vals
                .get(1)
                .and_then(|d| d.as_num())
                .and_then(|n| n.to_i64())
                .ok_or_else(|| StoreError::new("SUBSTR position must be an integer"))?;
            let chars: Vec<char> = text.chars().collect();
            // Oracle SUBSTR: 1-based; 0 treated as 1; negative counts from
            // the end
            let start = if pos > 0 {
                (pos - 1) as usize
            } else if pos == 0 {
                0
            } else {
                chars.len().saturating_sub((-pos) as usize)
            };
            let len = match vals.get(2) {
                None => chars.len().saturating_sub(start),
                Some(d) => match d.as_num().and_then(|n| n.to_i64()) {
                    Some(l) if l > 0 => l as usize,
                    _ => return Ok(Datum::Null),
                },
            };
            let out: String = chars.iter().skip(start).take(len).collect();
            Datum::Str(out)
        }
    })
}

/// Numeric arithmetic with SQL NULL propagation — the single definition
/// shared by the row evaluator above and the vectorized
/// [`crate::vector::ValKernel`], so both paths agree bit-for-bit on
/// nulls, coercion failures, and division by zero.
pub(crate) fn arith_datums(x: &Datum, op: ArithOp, y: &Datum) -> Result<Datum, StoreError> {
    if x.is_null() || y.is_null() {
        return Ok(Datum::Null);
    }
    let (nx, ny) = match (x.as_num(), y.as_num()) {
        (Some(nx), Some(ny)) => (nx.to_f64(), ny.to_f64()),
        _ => return Err(StoreError::new("arithmetic on non-numeric value")),
    };
    let r = match op {
        ArithOp::Add => nx + ny,
        ArithOp::Sub => nx - ny,
        ArithOp::Mul => nx * ny,
        ArithOp::Div => {
            if ny == 0.0 {
                return Err(StoreError::new("division by zero"));
            }
            nx / ny
        }
    };
    Ok(Datum::from(r))
}

/// SQL LIKE with `%` and `_` wildcards.
pub(crate) fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => (0..=t.len()).any(|k| rec(&t[k..], &p[1..])),
            Some('_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(c) => t.first() == Some(c) && rec(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonaccess::{JsonCell, JsonStorage};
    use fsdm_sqljson::parse_path;

    fn row() -> Row {
        let doc = fsdm_json::parse(r#"{"id":5,"name":"phone-x","price":99.5}"#).unwrap();
        vec![
            Cell::D(Datum::from(1i64)),
            Cell::D(Datum::from("REF-2021-77")),
            Cell::J(JsonCell::encode(&doc, JsonStorage::Oson).unwrap()),
            Cell::D(Datum::Null),
        ]
    }

    #[test]
    fn comparisons_and_logic() {
        let r = row();
        let e = Expr::cmp(Expr::Col(0), CmpOp::Eq, Expr::Lit(Datum::from(1i64)));
        assert!(e.matches(&r).unwrap());
        let f = Expr::And(
            Box::new(Expr::cmp(Expr::Col(0), CmpOp::Ge, Expr::Lit(Datum::from(1i64)))),
            Box::new(Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::Col(0)))))),
        );
        assert!(f.matches(&r).unwrap());
        // NULL comparisons are unknown, and filters reject unknown
        let g = Expr::cmp(Expr::Col(3), CmpOp::Eq, Expr::Lit(Datum::Null));
        assert!(!g.matches(&r).unwrap());
    }

    #[test]
    fn in_list_and_like() {
        let r = row();
        let e = Expr::InList(Box::new(Expr::Col(0)), vec![Datum::from(7i64), Datum::from(1i64)]);
        assert!(e.matches(&r).unwrap());
        let l = Expr::Like(Box::new(Expr::Col(1)), "REF-%".into());
        assert!(l.matches(&r).unwrap());
        let l2 = Expr::Like(Box::new(Expr::Col(1)), "REF-____-77".into());
        assert!(l2.matches(&r).unwrap());
        let l3 = Expr::Like(Box::new(Expr::Col(1)), "XYZ%".into());
        assert!(!l3.matches(&r).unwrap());
    }

    #[test]
    fn arithmetic() {
        let r = row();
        let e = Expr::Arith(
            Box::new(Expr::Col(0)),
            ArithOp::Add,
            Box::new(Expr::Lit(Datum::from(2i64))),
        );
        assert_eq!(e.eval(&r).unwrap(), Datum::from(3i64));
        let div0 = Expr::Arith(
            Box::new(Expr::Col(0)),
            ArithOp::Div,
            Box::new(Expr::Lit(Datum::from(0i64))),
        );
        assert!(div0.eval(&r).is_err());
        // NULL propagates
        let n = Expr::Arith(Box::new(Expr::Col(3)), ArithOp::Mul, Box::new(Expr::Col(0)));
        assert!(n.eval(&r).unwrap().is_null());
    }

    #[test]
    fn q6_style_substr_instr() {
        let r = row();
        // SUBSTR(ref, INSTR(ref, '-') + 1) → "2021-77"
        let instr = Expr::Fun(ScalarFun::Instr, vec![Expr::Col(1), Expr::Lit(Datum::from("-"))]);
        let sub = Expr::Fun(
            ScalarFun::Substr,
            vec![
                Expr::Col(1),
                Expr::Arith(Box::new(instr), ArithOp::Add, Box::new(Expr::Lit(Datum::from(1i64)))),
            ],
        );
        assert_eq!(sub.eval(&r).unwrap(), Datum::from("2021-77"));
    }

    #[test]
    fn substr_variants() {
        let r = vec![Cell::D(Datum::from("abcdef"))];
        let sub = |pos: i64, len: Option<i64>| {
            let mut args = vec![Expr::Col(0), Expr::Lit(Datum::from(pos))];
            if let Some(l) = len {
                args.push(Expr::Lit(Datum::from(l)));
            }
            Expr::Fun(ScalarFun::Substr, args).eval(&r).unwrap()
        };
        assert_eq!(sub(2, None), Datum::from("bcdef"));
        assert_eq!(sub(2, Some(3)), Datum::from("bcd"));
        assert_eq!(sub(-2, None), Datum::from("ef"));
        assert_eq!(sub(0, Some(2)), Datum::from("ab"));
    }

    #[test]
    fn json_exprs_on_rows() {
        let r = row();
        let jv = Expr::json_value(2, parse_path("$.price").unwrap(), SqlType::Number);
        assert_eq!(jv.eval(&r).unwrap(), Datum::from(99.5));
        let je = Expr::json_exists(2, parse_path("$?(@.id == 5)").unwrap());
        assert_eq!(je.eval(&r).unwrap(), Datum::Bool(true));
        // JSON op on a scalar column is a planning error
        let bad = Expr::json_value(0, parse_path("$.x").unwrap(), SqlType::Any);
        assert!(bad.eval(&r).is_err());
    }

    #[test]
    fn nvl_and_concat() {
        let r = row();
        let e = Expr::Fun(ScalarFun::Nvl, vec![Expr::Col(3), Expr::Lit(Datum::from("dflt"))]);
        assert_eq!(e.eval(&r).unwrap(), Datum::from("dflt"));
        let c = Expr::Fun(
            ScalarFun::Concat,
            vec![Expr::Lit(Datum::from("a")), Expr::Lit(Datum::from("b"))],
        );
        assert_eq!(c.eval(&r).unwrap(), Datum::from("ab"));
    }

    #[test]
    fn clone_preserves_behaviour() {
        let r = row();
        let jv = Expr::json_value(2, parse_path("$.id").unwrap(), SqlType::Number);
        let jv2 = jv.clone();
        assert_eq!(jv.eval(&r).unwrap(), jv2.eval(&r).unwrap());
    }

    #[test]
    fn exprs_are_send_sync_and_clones_share_scratch_slots() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Expr>();
        assert_send_sync::<EvalScratch>();
        let r = row();
        let jv = Expr::json_value(2, parse_path("$.price").unwrap(), SqlType::Number);
        let mut scratch = EvalScratch::new();
        for _ in 0..3 {
            assert_eq!(jv.eval_with(&r, &mut scratch).unwrap(), Datum::from(99.5));
        }
        // the clone shares the compiled path, hence the slot
        let jv2 = jv.clone();
        assert_eq!(jv2.eval_with(&r, &mut scratch).unwrap(), Datum::from(99.5));
        assert_eq!(scratch.paths.len(), 1, "one slot per distinct path");
        // a distinct path gets its own slot
        let other = Expr::json_value(2, parse_path("$.id").unwrap(), SqlType::Number);
        other.eval_with(&r, &mut scratch).unwrap();
        assert_eq!(scratch.paths.len(), 2);
    }
}
