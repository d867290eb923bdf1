//! The workloads: NoBench over TEXT and over the in-memory store, and
//! the Table-13 OLAP queries over OSON and REL storage.
//!
//! Set-up is the benchmark's own: it generates the corpus with
//! `fsdm-workloads`, loads it into both storages through the store's
//! public table API, registers the views and virtual columns the
//! statements need, and runs every statement on both storages: each
//! storage's digest is the other's oracle.

use std::time::Instant;

use fsdm::json::JsonValue;
use fsdm::sql::{parse_sql, Session, Statement};
use fsdm::sqljson::json_table::{ColumnDef, JsonTableDef, NestedDef};
use fsdm::sqljson::{parse_path, Datum, SqlType};
use fsdm::store::query::AggSpec;
use fsdm::store::table::InsertValue;
use fsdm::store::{
    CmpOp, ColType, ColumnSpec, ConstraintMode, Expr, JsonStorage, Query, QueryProfile,
    QueryResult, Table, TableSchema,
};
use fsdm::workloads::{nobench, olap, rng_for};

use crate::oracle::Digest;
use crate::spans::Recorder;
use crate::{secs, Setup};

/// How a statement reaches the engine.
#[derive(Clone)]
pub enum Kind {
    /// SQL text with positional binds, through `Session`.
    Sql { sql: String, binds: Vec<Datum> },
    /// A hand-built plan, for a query the SQL front end cannot plan yet.
    Plan(Query),
}

/// One statement of a workload's cycle.
pub struct Stmt {
    /// Label in the run record, e.g. `Q3/imc` or `Q9/rel`.
    pub label: String,
    /// Index of the session that runs it.
    pub session: usize,
    /// The statement.
    pub kind: Kind,
    /// Whether row order is part of the result (an ORDER BY).
    pub ordered: bool,
    /// Digest of the same statement on another storage of the corpus.
    pub expect: Digest,
    /// `columnar` or `row`: the pipeline the optimized plan runs on.
    pub mode: &'static str,
    /// The oracle result, shown as it is (see `oracle::show`).
    pub shown: String,
}

/// A loaded read workload.
pub struct ReadWorkload {
    /// Sessions the statements run against.
    pub sessions: Vec<Session>,
    /// The statement cycle, in execution order.
    pub stmts: Vec<Stmt>,
    /// The corpus as JSON text, for the layer measurements.
    pub texts: Vec<String>,
    /// Summed `Table::storage_size` of the workload's tables.
    pub stored_bytes: usize,
    /// JSON text bytes the tables were loaded from (once per storage).
    pub json_bytes: usize,
    /// Set-up phase times.
    pub setup: Setup,
    /// Cross-storage comparisons made at set-up.
    pub setup_checks: u64,
    /// Statements whose two storages disagreed at set-up.
    pub setup_failures: Vec<String>,
    /// SQL/JSON paths the statements evaluate, for the layer measurements.
    pub paths: &'static [&'static str],
    /// The JSON_TABLE definition the statements expand, if any.
    pub json_table: Option<JsonTableDef>,
}

/// Paths NoBench Q1–Q10 evaluate, for the layer measurements.
const NOBENCH_PATHS: &[&str] = &[
    "$.str1",
    "$.num",
    "$.nested_obj.str",
    "$.nested_obj.num",
    "$.sparse_110",
    "$.sparse_119",
    "$.sparse_220",
    "$.dyn1",
    "$.nested_arr?(@ starts with \"a\")",
    "$.sparse_550",
    "$.thousandth",
];

/// Paths the OLAP views evaluate, for the layer measurements.
const OLAP_PATHS: &[&str] = &[
    "$.purchaseOrder.reference",
    "$.purchaseOrder.requestor",
    "$.purchaseOrder.costcenter",
    "$.purchaseOrder.podate",
    "$.purchaseOrder.items[*].partno",
    "$.purchaseOrder.items[*].quantity",
    "$.purchaseOrder.items[*].unitprice",
];

/// The Fig 9 transient DataGuide statement.
const DATAGUIDE_AGG_SQL: &str = "select json_dataguideagg(jdoc) from nobench sample (50)";

fn path(s: &str) -> fsdm::sqljson::JsonPath {
    parse_path(s).expect("benchmark paths parse")
}

/// Generate `n` NoBench documents as JSON text, plus the Q5 bind (the
/// `str1` of the middle document). Without a seed, the corpora are the
/// ones the paper figures are drawn from (NoBench seed 5, OLAP corpus
/// seed 7, OLAP binds seed 11).
fn nobench_corpus(seed: Option<u64>, n: usize) -> (Vec<String>, Datum) {
    let mut rng = rng_for("nobench-corpus", seed.unwrap_or(5));
    let mut bind = Datum::Null;
    let texts = (0..n)
        .map(|i| {
            let d = nobench::doc(&mut rng, i);
            if i == n / 2 {
                bind = d.get("str1").and_then(JsonValue::as_str).map_or(Datum::Null, Datum::from);
            }
            fsdm::json::to_string(&d)
        })
        .collect();
    (texts, bind)
}

/// Build and set up the NoBench workload: the TEXT session and the IMC
/// session, each statement run on both, each storage the other's oracle.
pub fn nobench(seed: Option<u64>, n: usize) -> Result<ReadWorkload, String> {
    let mut setup = Setup::default();
    let t = Instant::now();
    let (texts, bind) = nobench_corpus(seed, n);
    setup.generate_s = secs(t);

    let t = Instant::now();
    let (text, _) = nobench_session(&texts, false)?;
    let (imc, populate) = nobench_session(&texts, true)?;
    let total = secs(t);
    setup.populate_oson_ms = populate.0 * 1e3;
    setup.populate_vc_ms = populate.1 * 1e3;
    setup.populate_s = populate.0 + populate.1;
    setup.load_s = total - setup.populate_s;

    let t = Instant::now();
    let mut sessions = vec![text, imc];
    let specs = nobench_statements(n, bind);
    let setup_checks = specs.len() as u64;
    let (stmts, setup_failures) = cross_checked(&mut sessions, ["text", "imc"], specs)?;
    setup.oracle_s = secs(t);

    let stored_bytes =
        sessions.iter().map(|s| s.db.table("nobench").map_or(0, Table::storage_size)).sum();
    // both sessions hold the whole corpus
    let json_bytes = 2 * texts.iter().map(String::len).sum::<usize>();
    Ok(ReadWorkload {
        sessions,
        stmts,
        texts,
        stored_bytes,
        json_bytes,
        setup,
        setup_checks,
        setup_failures,
        paths: NOBENCH_PATHS,
        json_table: None,
    })
}

/// Run every statement on both sessions and make each session's result
/// digest the other's oracle. Returns the statements, two per spec
/// (labelled `<label>/<storage>`), and the specs whose storages
/// disagreed.
fn cross_checked(
    sessions: &mut [Session],
    storages: [&str; 2],
    specs: Vec<(String, Kind)>,
) -> Result<(Vec<Stmt>, Vec<String>), String> {
    let mut stmts = Vec::with_capacity(2 * specs.len());
    let mut failures = Vec::new();
    for (label, kind) in specs {
        let ordered = is_ordered(&kind);
        let mut digests = [Digest { rows: 0, hash: 0 }; 2];
        let mut shown = [String::new(), String::new()];
        for (s, d) in digests.iter_mut().enumerate() {
            let r = run_kind(&mut sessions[s], &kind).map_err(|e| format!("{label}: {e}"))?;
            *d = Digest::of(&r, ordered);
            shown[s] = crate::oracle::show(&r);
        }
        if digests[0] != digests[1] {
            failures.push(format!(
                "{label}: {} {} vs {} {}",
                storages[0],
                digests[0].render(),
                storages[1],
                digests[1].render()
            ));
        }
        for (s, storage) in storages.iter().enumerate() {
            stmts.push(Stmt {
                label: format!("{label}/{storage}"),
                session: s,
                mode: plan_mode(&sessions[s], &kind),
                kind: kind.clone(),
                ordered,
                expect: digests[1 - s],
                shown: shown[1 - s].clone(),
            });
        }
    }
    Ok((stmts, failures))
}

/// NoBench Q1–Q10 as SQL, Q11 as the hand plan, then the DataGuide
/// aggregate.
fn nobench_statements(n: usize, q5_bind: Datum) -> Vec<(String, Kind)> {
    let mut out: Vec<(String, Kind)> = (1..=10)
        .map(|q| {
            let binds = if q == 5 { vec![q5_bind.clone()] } else { vec![] };
            (format!("Q{q}"), Kind::Sql { sql: nobench::query_sql(q, n), binds })
        })
        .collect();
    out.push(("Q11".to_string(), Kind::Plan(nobench_q11_plan(n))));
    out.push(("DG".to_string(), Kind::Sql { sql: DATAGUIDE_AGG_SQL.to_string(), binds: vec![] }));
    out
}

/// NoBench Q11, the self equi-join of `query_sql(11, n)`, as a plan: the
/// SQL front end does not plan it yet. The range filter sits in the scan,
/// before the join key is computed.
fn nobench_q11_plan(n: usize) -> Query {
    let lo = (n / 2) as i64;
    let hi = lo + (n / 1000 + 2) as i64;
    let num = Expr::json_value(1, path("$.num"), SqlType::Number);
    let range = Expr::And(
        Box::new(Expr::cmp(num.clone(), CmpOp::Ge, Expr::Lit(Datum::from(lo)))),
        Box::new(Expr::cmp(num.clone(), CmpOp::Le, Expr::Lit(Datum::from(hi)))),
    );
    let left = Query::Project {
        input: Box::new(Query::scan_where("nobench", range)),
        exprs: vec![
            (
                "astr".to_string(),
                Expr::json_value(1, path("$.nested_obj.str"), SqlType::Varchar2(32)),
            ),
            ("anum".to_string(), num),
        ],
    };
    let right = Query::Project {
        input: Box::new(Query::scan("nobench")),
        exprs: vec![(
            "bstr".to_string(),
            Expr::json_value(1, path("$.str1"), SqlType::Varchar2(32)),
        )],
    };
    Query::GroupBy {
        input: Box::new(Query::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_key: 0,
            right_key: 0,
        }),
        keys: vec![],
        aggs: vec![AggSpec::count_star("n")],
    }
}

/// Virtual columns whose defining expressions equal the planner's
/// lowering of the scalar paths NoBench Q1–Q10 project or filter on
/// (default `RETURNING` type included), so the optimizer substitutes
/// their IMC vectors.
fn nobench_vcs() -> Vec<(&'static str, Expr)> {
    let text = SqlType::Varchar2(4000);
    let jv = |p: &str, ty: SqlType| Expr::json_value(1, path(p), ty);
    vec![
        ("nbq$str1", jv("$.str1", text)),
        ("nbq$num", jv("$.num", SqlType::Number)),
        ("nbq$nstr", jv("$.nested_obj.str", text)),
        ("nbq$nnum", jv("$.nested_obj.num", SqlType::Number)),
        ("nbq$s110", jv("$.sparse_110", text)),
        ("nbq$s119", jv("$.sparse_119", text)),
        ("nbq$s220", jv("$.sparse_220", text)),
        ("nbq$x110", Expr::json_exists(1, path("$.sparse_110"))),
        ("nbq$x220", Expr::json_exists(1, path("$.sparse_220"))),
        ("nbq$dyn1", jv("$.dyn1", text)),
        ("nbq$dyn1n", jv("$.dyn1", SqlType::Number)),
        ("nbq$arr1", Expr::json_exists(1, path("$.nested_arr?(@ == \"notpresent\")"))),
        ("nbq$arr2", Expr::json_exists(1, path("$.nested_arr?(@ starts with \"a\")"))),
        ("nbq$s550", jv("$.sparse_550", text)),
        ("nbq$thou", jv("$.thousandth", SqlType::Number)),
    ]
}

/// A session holding the `nobench` table in TEXT storage with IS JSON
/// and no DataGuide (the Fig 5 set-up); with `imc`, also the OSON-IMC
/// cache and the VC-IMC vectors. Returns the OSON-IMC and VC-IMC
/// populate times in seconds.
fn nobench_session(texts: &[String], imc: bool) -> Result<(Session, (f64, f64)), String> {
    let mut table = Table::new(TableSchema::new(
        "nobench",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", JsonStorage::Text, ConstraintMode::IsJson),
        ],
    ));
    for (i, text) in texts.iter().enumerate() {
        table
            .insert(vec![
                InsertValue::Datum(Datum::from(i as i64)),
                InsertValue::Json(text.clone()),
            ])
            .map_err(|e| e.message)?;
    }
    let mut populate = (0.0, 0.0);
    if imc {
        let t = Instant::now();
        table.populate_oson_imc().map_err(|e| e.message)?;
        populate.0 = secs(t);
        let t = Instant::now();
        let vcs = nobench_vcs();
        let names: Vec<&str> = vcs.iter().map(|(n, _)| *n).collect();
        for (name, expr) in vcs {
            table.add_virtual_column(name, expr);
        }
        table.populate_vc_imc(&names).map_err(|e| e.message)?;
        populate.1 = secs(t);
    }
    let mut session = new_session();
    session.db.add_table(table);
    Ok((session, populate))
}

/// Build and set up the OLAP workload: the OSON session and the REL
/// session, each statement run on both, each storage the other's oracle.
pub fn olap(seed: Option<u64>, n: usize) -> Result<ReadWorkload, String> {
    let mut setup = Setup::default();
    let t = Instant::now();
    let docs = olap_corpus(seed, n);
    let queries = olap::queries(&mut rng_for("olap-queries", seed.unwrap_or(11)), &docs);
    let texts: Vec<String> = docs.iter().map(fsdm::json::to_string).collect();
    setup.generate_s = secs(t);

    let t = Instant::now();
    let oson = olap_oson_session(&texts)?;
    let rel = olap_rel_session(&docs)?;
    drop(docs);
    setup.load_s = secs(t);

    let t = Instant::now();
    let mut sessions = vec![oson, rel];
    let specs: Vec<(String, Kind)> = queries
        .iter()
        .map(|q| {
            let binds = q.binds.iter().map(|b| bind_datum(b)).collect();
            (format!("Q{}", q.id), Kind::Sql { sql: q.sql.clone(), binds })
        })
        .collect();
    let (stmts, setup_failures) = cross_checked(&mut sessions, ["oson", "rel"], specs)?;
    setup.oracle_s = secs(t);

    let stored_bytes = sessions[0].db.table("po").map_or(0, Table::storage_size)
        + ["purchase_master_tab", "lineitem_detail_tab"]
            .iter()
            .map(|t| sessions[1].db.table(t).map_or(0, Table::storage_size))
            .sum::<usize>();
    // both sessions hold the whole corpus
    let json_bytes = 2 * texts.iter().map(String::len).sum::<usize>();
    Ok(ReadWorkload {
        sessions,
        stmts,
        texts,
        stored_bytes,
        json_bytes,
        setup,
        setup_checks: queries.len() as u64,
        setup_failures,
        paths: OLAP_PATHS,
        json_table: Some(po_dmdv_def()),
    })
}

/// The purchaseOrder corpus.
fn olap_corpus(seed: Option<u64>, n: usize) -> Vec<JsonValue> {
    olap::corpus(&mut rng_for("olap-corpus", seed.unwrap_or(7)), n)
}

/// An OLAP bind as a datum: numeric when it parses as a number.
fn bind_datum(s: &str) -> Datum {
    match fsdm::json::JsonNumber::from_literal(s) {
        Ok(n) => Datum::Num(n),
        Err(_) => Datum::Str(s.to_string()),
    }
}

/// The purchaseOrder master/detail JSON_TABLE behind `po_item_dmdv`.
pub fn po_dmdv_def() -> JsonTableDef {
    JsonTableDef {
        row_path: path("$.purchaseOrder"),
        columns: vec![
            ColumnDef::value("reference", SqlType::Varchar2(32), path("$.reference")),
            ColumnDef::value("requestor", SqlType::Varchar2(32), path("$.requestor")),
            ColumnDef::value("costcenter", SqlType::Varchar2(8), path("$.costcenter")),
            ColumnDef::value("instructions", SqlType::Varchar2(128), path("$.instructions")),
        ],
        nested: vec![NestedDef {
            path: path("$.items[*]"),
            columns: vec![
                ColumnDef::value("itemno", SqlType::Number, path("$.itemno")),
                ColumnDef::value("partno", SqlType::Varchar2(16), path("$.partno")),
                ColumnDef::value("description", SqlType::Varchar2(64), path("$.description")),
                ColumnDef::value("quantity", SqlType::Number, path("$.quantity")),
                ColumnDef::value("unitprice", SqlType::Number, path("$.unitprice")),
            ],
            nested: vec![],
        }],
    }
}

/// OSON storage with IS JSON, plus the `po_mv` (JSON_VALUE) and
/// `po_item_dmdv` (JSON_TABLE) views.
fn olap_oson_session(texts: &[String]) -> Result<Session, String> {
    let mut t = Table::new(TableSchema::new(
        "po",
        vec![
            ColumnSpec::new("did", ColType::Number),
            ColumnSpec::json("jdoc", JsonStorage::Oson, ConstraintMode::IsJson),
        ],
    ));
    for (i, text) in texts.iter().enumerate() {
        t.insert(vec![InsertValue::Datum(Datum::from(i as i64)), InsertValue::Json(text.clone())])
            .map_err(|e| e.message)?;
    }
    let mut session = new_session();
    session.db.add_table(t);
    let jv = |p: &str, n: usize| Expr::json_value(1, path(p), SqlType::Varchar2(n));
    let mv = Query::Project {
        input: Box::new(Query::scan("po")),
        exprs: vec![
            ("did".to_string(), Expr::Col(0)),
            ("reference".to_string(), jv("$.purchaseOrder.reference", 32)),
            ("requestor".to_string(), jv("$.purchaseOrder.requestor", 32)),
            ("costcenter".to_string(), jv("$.purchaseOrder.costcenter", 8)),
            ("podate".to_string(), jv("$.purchaseOrder.podate", 16)),
        ],
    };
    session.db.create_view("po_mv", mv);
    let def = po_dmdv_def();
    let names = def.column_names();
    let jt = Query::JsonTable { input: Box::new(Query::scan("po")), json_col: 1, def };
    let mut exprs = vec![("did".to_string(), Expr::Col(0))];
    for (i, n) in names.iter().enumerate() {
        exprs.push((n.clone(), Expr::Col(2 + i)));
    }
    session.db.create_view("po_item_dmdv", Query::Project { input: Box::new(jt), exprs });
    Ok(session)
}

/// REL storage: the corpus shredded into master and detail tables with
/// key indexes on `did`; `po_mv` projects the master, `po_item_dmdv` is
/// master ⋈ detail with the JSON view's columns.
fn olap_rel_session(docs: &[JsonValue]) -> Result<Session, String> {
    let cols = |names: &[(&str, ColType)]| {
        names.iter().map(|(n, t)| ColumnSpec::new(*n, *t)).collect::<Vec<_>>()
    };
    let mut master = Table::new(TableSchema::new(
        "purchase_master_tab",
        cols(&[
            ("did", ColType::Number),
            ("reference", ColType::Varchar2(32)),
            ("requestor", ColType::Varchar2(32)),
            ("costcenter", ColType::Varchar2(8)),
            ("podate", ColType::Varchar2(16)),
            ("instructions", ColType::Varchar2(128)),
        ]),
    ));
    let mut detail = Table::new(TableSchema::new(
        "lineitem_detail_tab",
        cols(&[
            ("did", ColType::Number),
            ("itemno", ColType::Number),
            ("partno", ColType::Varchar2(16)),
            ("description", ColType::Varchar2(64)),
            ("quantity", ColType::Number),
            ("unitprice", ColType::Number),
        ]),
    ));
    let cell = |v: Option<&JsonValue>| {
        InsertValue::Datum(match v {
            Some(JsonValue::String(x)) => Datum::Str(x.clone()),
            Some(JsonValue::Number(n)) => Datum::Num(*n),
            _ => Datum::Null,
        })
    };
    for (i, d) in docs.iter().enumerate() {
        let po = d.get("purchaseOrder").ok_or("purchaseOrder missing")?;
        let did = || InsertValue::Datum(Datum::from(i as i64));
        let mut row = vec![did()];
        for f in ["reference", "requestor", "costcenter", "podate", "instructions"] {
            row.push(cell(po.get(f)));
        }
        master.insert(row).map_err(|e| e.message)?;
        for item in po.get("items").and_then(JsonValue::as_array).into_iter().flatten() {
            let mut row = vec![did()];
            for f in ["itemno", "partno", "description", "quantity", "unitprice"] {
                row.push(cell(item.get(f)));
            }
            detail.insert(row).map_err(|e| e.message)?;
        }
    }
    master.create_key_index("did").map_err(|e| e.message)?;
    detail.create_key_index("did").map_err(|e| e.message)?;
    let mut session = new_session();
    session.db.add_table(master);
    session.db.add_table(detail);
    let mv = Query::Project {
        input: Box::new(Query::scan("purchase_master_tab")),
        exprs: ["did", "reference", "requestor", "costcenter", "podate"]
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), Expr::Col(i)))
            .collect(),
    };
    session.db.create_view("po_mv", mv);
    let join = Query::HashJoin {
        left: Box::new(Query::scan("purchase_master_tab")),
        right: Box::new(Query::scan("lineitem_detail_tab")),
        left_key: 0,
        right_key: 0,
    };
    // master columns 0..=5, then detail columns 6..=11
    let exprs = [
        ("did", 0),
        ("reference", 1),
        ("requestor", 2),
        ("costcenter", 3),
        ("instructions", 5),
        ("itemno", 7),
        ("partno", 8),
        ("description", 9),
        ("quantity", 10),
        ("unitprice", 11),
    ]
    .iter()
    .map(|(n, c)| (n.to_string(), Expr::Col(*c)))
    .collect();
    session.db.create_view("po_item_dmdv", Query::Project { input: Box::new(join), exprs });
    Ok(session)
}

/// A session pinned to the benchmark's executor degree, with no statement
/// timeout whatever `FSDM_TIMEOUT_MS` says: governance stays disarmed.
fn new_session() -> Session {
    let mut session = Session::new();
    session.set_parallelism(crate::degree());
    session.set_statement_timeout(None);
    session
}

fn is_ordered(kind: &Kind) -> bool {
    match kind {
        Kind::Sql { sql, .. } => {
            matches!(parse_sql(sql), Ok(Statement::Select(s)) if !s.order_by.is_empty())
        }
        Kind::Plan(_) => false,
    }
}

fn is_dataguide_agg(sql: &str) -> bool {
    sql.to_ascii_lowercase().contains("json_dataguideagg")
}

/// The pipeline the optimized plan runs on (`columnar` or `row`).
fn plan_mode(session: &Session, kind: &Kind) -> &'static str {
    let plan = match kind {
        Kind::Sql { sql, .. } if is_dataguide_agg(sql) => return "row",
        Kind::Sql { sql, binds } => match session.plan(sql, binds) {
            Ok(p) => p,
            Err(_) => return "row",
        },
        Kind::Plan(p) => p.clone(),
    };
    session.db.plan_mode(&fsdm::store::optimizer::optimize(&session.db, plan))
}

/// Run one statement the way an application does: SQL text in, result
/// out.
pub fn run_kind(session: &mut Session, kind: &Kind) -> Result<QueryResult, String> {
    match kind {
        Kind::Sql { sql, binds } => session.execute_with(sql, binds).map_err(|e| e.message),
        Kind::Plan(plan) => session.db.execute(plan).map_err(|e| e.message),
    }
}

/// What a traced execution measured besides its spans.
#[derive(Default)]
pub struct TracedCounts {
    /// Rows the scans read from their tables.
    pub rows_examined: u64,
    /// Rows the statements returned.
    pub rows_returned: u64,
}

/// Run one statement as the sequence of public calls `Session` makes,
/// each in its own span under a `statement` span: `sql.parse`,
/// `sql.plan`, `store.optimize`, `store.exec` (profiled, for the
/// operator self times). The DataGuide aggregate runs outside the plan
/// algebra, so it is one `dataguide.agg` span after its parse.
pub fn run_traced(
    session: &mut Session,
    kind: &Kind,
    rec: &mut Recorder,
    stmt: u64,
    counts: &mut TracedCounts,
) -> Result<QueryResult, String> {
    let root = rec.enter("statement", stmt);
    let out = run_traced_inner(session, kind, rec, stmt);
    rec.exit(root);
    let (result, profiled) = out?;
    counts.rows_returned += result.rows.len() as u64;
    if let Some((exec, profile)) = profiled {
        rec.add_profile(exec, &profile);
        for op in profile.ops() {
            if let Some(rest) = op.op.strip_prefix("Scan(") {
                let table = rest.split([',', ')']).next().unwrap_or(rest);
                counts.rows_examined += session.db.table(table).map_or(0, |t| t.len() as u64);
            }
        }
    }
    Ok(result)
}

type Profiled = (QueryResult, Option<(usize, QueryProfile)>);

fn run_traced_inner(
    session: &mut Session,
    kind: &Kind,
    rec: &mut Recorder,
    stmt: u64,
) -> Result<Profiled, String> {
    let plan = match kind {
        Kind::Sql { sql, binds } => {
            rec.time("sql.parse", stmt, || parse_sql(sql)).map_err(|e| e.message)?;
            if is_dataguide_agg(sql) {
                let r = rec.time("dataguide.agg", stmt, || session.execute_with(sql, binds));
                return Ok((r.map_err(|e| e.message)?, None));
            }
            rec.time("sql.plan", stmt, || session.plan(sql, binds)).map_err(|e| e.message)?
        }
        Kind::Plan(plan) => plan.clone(),
    };
    let db = &session.db;
    let optimized = rec.time("store.optimize", stmt, || fsdm::store::optimizer::optimize(db, plan));
    let exec = rec.enter("store.exec", stmt);
    let out = db.execute_profiled(&optimized);
    rec.exit(exec);
    let (result, profile) = out.map_err(|e| e.message)?;
    Ok((result, Some((exec, profile))))
}
