//! `fsdm-store`: the miniature relational engine underneath the FSDM
//! stack — the substrate standing in for the Oracle kernel in the paper's
//! evaluation.
//!
//! What it provides, mapped to the paper:
//!
//! * **Tables with typed columns** including JSON columns in three
//!   physical storages — `Text` (compact JSON text), `Bson`, `Oson` — plus
//!   ordinary scalar columns for the relationally-decomposed baseline
//!   (§6.3's four storage methods).
//! * **IS JSON check constraints** with optional DataGuide maintenance
//!   integrated into the insert pipeline, including the structure-
//!   signature fast path (§3.2.1; measured in Figures 7–8). A table can
//!   also carry a full [`fsdm_index::SearchIndex`].
//! * **Virtual columns** defined by expressions (e.g. `JSON_VALUE(…)`), as
//!   produced by the DataGuide's `AddVC()` (§3.3.1, §5.2.1).
//! * A **volcano-style executor** (scan / filter / project / hash join /
//!   group by / sort / window LAG / JSON_TABLE lateral) sufficient for the
//!   paper's OLAP and NOBENCH query sets.
//! * The **in-memory store** (§5.2): an OSON byte cache per JSON column
//!   (OSON-IMC — text on disk, binary in memory, queries transparently
//!   rewritten) and typed column vectors for (virtual) columns (VC-IMC).

pub mod database;
pub mod expr;
pub mod govern;
pub mod imc;
pub mod jsonaccess;
pub mod optimizer;
pub mod parallel;
pub mod profile;
pub mod query;
pub mod schema;
pub mod slowlog;
pub mod table;
pub mod typecheck;
pub mod vector;

pub use database::Database;
pub use expr::{AggFun, CmpOp, EvalScratch, Expr, ScalarFun};
pub use govern::{CancelHandle, CancelToken, QueryGovernor, ROWS_PER_CHECK};
pub use imc::{ColumnVector, ImcStore, VectorSlot};
pub use jsonaccess::{JsonCell, JsonStorage, PathSlot};
pub use parallel::{
    default_degree, morsels, run_morsels, ExecContext, ParStats, RowRange, DEFAULT_MORSEL_ROWS,
};
pub use profile::{OpProfile, QueryProfile};
pub use query::{Query, QueryResult, SortKey, WindowFun};
pub use schema::{ColType, ColumnSpec, ConstraintMode, TableSchema};
pub use slowlog::{SlowEntry, SlowLog};
pub use table::{CancelReason, Cell, ErrorKind, InsertValue, Row, StoreError, Table};
pub use typecheck::{
    check_plan, infer, plan_deterministic, plan_safety, rewrite_violations, ColInfo, Inference,
    ParallelSafety, PlanSchema, ScalarType,
};
pub use vector::{Batch, Mask, PredKernel, SelVec, Tri, ValKernel};

pub use fsdm_sqljson::{Datum, SqlType};
