//! Statement-level plan type checking: the SQL front end of
//! `fsdm-planck`.
//!
//! The inference and translation-validation passes live in
//! `fsdm_store::typecheck`; this module plans the SQL text and runs
//! [`check_plan`] over the result, so callers get the PK001–PK006
//! findings for a statement the same way [`Session::analyze`] gives the
//! FA path findings. Every call feeds the `planck.*` metrics.

use std::time::Instant;

use fsdm_sqljson::Datum;
use fsdm_store::typecheck::{check_plan, Inference};

use crate::planner::Session;
use crate::Result;

impl Session {
    /// Type-check one SELECT: plan it, infer the output schema
    /// (column names, scalar types, nullability), and validate the
    /// optimizer's rewrite of the plan — schema equivalence, preserved
    /// determinism and parallel-safety class, idempotence. Statements
    /// that do not plan to the query algebra are an error here, like
    /// [`Session::plan`].
    pub fn typecheck(&self, sql: &str) -> Result<Inference> {
        self.typecheck_with(sql, &[])
    }

    /// [`Session::typecheck`] with positional `?` bind values.
    pub fn typecheck_with(&self, sql: &str, binds: &[Datum]) -> Result<Inference> {
        let plan = self.plan(sql, binds)?;
        Ok(self.typecheck_plan(&plan))
    }

    /// [`Session::typecheck`] over an already-built plan (the workload
    /// harness constructs some plans directly, e.g. NoBench Q11).
    pub fn typecheck_plan(&self, plan: &fsdm_store::Query) -> Inference {
        let start = Instant::now();
        let inf = check_plan(&self.db, plan);
        fsdm_obs::counter!(fsdm_obs::catalog::PLANCK_CHECKS).inc();
        let errors = inf.errors() as u64;
        if errors > 0 {
            fsdm_obs::counter!(fsdm_obs::catalog::PLANCK_ERRORS).add(errors);
        }
        let warnings = inf
            .diagnostics
            .iter()
            .filter(|d| d.severity == fsdm_analyze::Severity::Warning)
            .count() as u64;
        if warnings > 0 {
            fsdm_obs::counter!(fsdm_obs::catalog::PLANCK_WARNINGS).add(warnings);
        }
        fsdm_obs::histogram!(fsdm_obs::catalog::PLANCK_INFER_NS)
            .record(start.elapsed().as_nanos() as u64);
        inf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_analyze::Code;

    fn session() -> Session {
        let mut s = Session::new();
        s.execute("CREATE TABLE po (did NUMBER, jdoc JSON)").unwrap();
        s.execute(r#"INSERT INTO po VALUES (1, '{"reference": "R1", "price": 10}')"#).unwrap();
        s
    }

    #[test]
    fn typecheck_infers_statement_schema() {
        let s = session();
        let inf = s.typecheck("SELECT did FROM po WHERE did > 0").unwrap();
        assert!(inf.diagnostics.is_empty(), "{:?}", inf.diagnostics);
        assert_eq!(inf.schema.render(), "did:float?");
    }

    #[test]
    fn typecheck_flags_null_comparison() {
        let s = session();
        let inf = s.typecheck("SELECT did FROM po WHERE did = NULL").unwrap();
        assert_eq!(inf.diagnostics.len(), 1);
        assert_eq!(inf.diagnostics[0].code, Code::NullComparison);
        assert_eq!(inf.errors(), 0, "null comparison is a warning, not an error");
    }

    #[test]
    fn non_planning_statements_error() {
        let s = session();
        assert!(s.typecheck("CREATE TABLE x (a NUMBER)").is_err());
    }
}
