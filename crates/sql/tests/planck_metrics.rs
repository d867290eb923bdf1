//! The `planck.*` metrics are process-global counters, so an exact-delta
//! check only holds when no other test typechecks concurrently in the
//! same process. This binary holds that one test and nothing else.

use fsdm_sql::Session;

#[test]
fn typecheck_counts_into_the_planck_metrics() {
    let mut s = Session::new();
    s.execute("CREATE TABLE po (did NUMBER, jdoc JSON)").unwrap();
    s.execute(r#"INSERT INTO po VALUES (1, '{"reference": "R1", "price": 10}')"#).unwrap();
    let snap = |name: &str| fsdm_obs::snapshot().counters.get(name).copied().unwrap_or(0);
    let before = snap(fsdm_obs::catalog::PLANCK_CHECKS);
    s.typecheck("SELECT did FROM po").unwrap();
    assert_eq!(snap(fsdm_obs::catalog::PLANCK_CHECKS), before + 1);
}
