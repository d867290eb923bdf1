//! `fsdm-analyze`: DataGuide-powered semantic static analysis of
//! SQL/JSON path expressions (paper §3's "query validation" use case).
//!
//! The engine accepts any well-formed path and only discovers at run
//! time that `$.persno` matches nothing in a million documents. This
//! crate closes that gap: it walks a compiled [`fsdm_sqljson::JsonPath`]
//! in lockstep with the collection's [`fsdm_dataguide::DataGuide`] and
//! reports, before execution:
//!
//! | code  | name               | meaning                                          |
//! |-------|--------------------|--------------------------------------------------|
//! | FA001 | unknown-path       | no ingested document has the path (error)        |
//! | FA002 | type-mismatch      | comparison/method vs. observed kinds (warning)   |
//! | FA003 | dead-predicate     | filter constant-folds to true/false (warning)    |
//! | FA004 | missing-array-step | array step shape hazards, lax and strict (warn)  |
//! | FA005 | low-frequency-path | below the `add_vc` threshold (warning)           |
//! | FA006 | unstreamable-path  | TEXT streams the prefix, DOM for the rest (info) |
//! | FA007 | vc-candidate       | `add_vc`-eligible but not materialized (info)    |
//!
//! FA001 doubles as the optimizer's proof obligation: when
//! [`path_provably_empty`] holds, a predicate over the path is false for
//! every row, and the scan below it can be rewritten to an empty scan.
//! Statement-level collection of embedded paths lives in `fsdm-sql`
//! (which depends on this crate); the `fsdm-analyze` lint binary lives
//! in `fsdm-bench` next to the other workload tooling.

pub mod check;
pub mod diag;

pub use check::{analyze_path, normalized_field_path, path_provably_empty, AnalyzerConfig};
pub use diag::{render_json, render_text, Code, Diagnostic, Severity};

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use fsdm_dataguide::DataGuide;
    use fsdm_sqljson::parse_path;

    use super::*;

    /// A small heterogeneous corpus: `price` is all-number, `flag`
    /// all-boolean, `name` all-string, `items` an array of objects,
    /// `rare` appears in 1 of 20 documents.
    fn guide() -> DataGuide {
        let mut g = DataGuide::new();
        let docs = [
            r#"{"name":"a","price":10,"flag":true,"items":[{"sku":"x","qty":1}],"rare":1}"#,
            r#"{"name":"b","price":20,"flag":false,"items":[{"sku":"y","qty":2}]}"#,
        ];
        for t in docs {
            g.add_document(&fsdm_json::parse(t).unwrap());
        }
        for i in 0..18 {
            let t = format!(r#"{{"name":"n{i}","price":{i},"flag":true,"items":[]}}"#);
            g.add_document(&fsdm_json::parse(&t).unwrap());
        }
        g
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.id()).collect()
    }

    fn run(path: &str) -> Vec<Diagnostic> {
        analyze_path(&guide(), &parse_path(path).unwrap(), &AnalyzerConfig::default())
    }

    #[test]
    fn fa001_unknown_path_positive_and_negative() {
        let d = run("$.persno");
        assert_eq!(codes(&d), vec!["FA001"], "{d:?}");
        assert_eq!(d[0].severity, Severity::Error);
        assert!(path_provably_empty(&guide(), &parse_path("$.persno").unwrap()));
        // nested: known prefix, unknown leaf
        assert_eq!(codes(&run("$.items.missing")), vec!["FA001"]);
        // negative: known paths are clean of FA001
        assert!(!codes(&run("$.price")).contains(&"FA001"));
        assert!(!codes(&run("$.items.sku")).contains(&"FA001"), "lax array collapse");
        assert!(!path_provably_empty(&guide(), &parse_path("$.price").unwrap()));
        // empty guide: silent, nothing provable
        let empty = DataGuide::new();
        assert!(analyze_path(&empty, &parse_path("$.x").unwrap(), &Default::default()).is_empty());
        assert!(!path_provably_empty(&empty, &parse_path("$.x").unwrap()));
    }

    #[test]
    fn fa002_type_mismatch_positive_and_negative() {
        // method on all-boolean path
        let d = run("$.flag.number()");
        assert!(codes(&d).contains(&"FA002"), "{d:?}");
        // string compare against all-number path
        let d = run("$.items[*]?(@.qty == \"x\")");
        assert!(codes(&d).contains(&"FA002"), "{d:?}");
        // starts with on a number path
        let d = run("$.items[*]?(@.qty starts with 'a')");
        assert!(codes(&d).contains(&"FA002"), "{d:?}");
        // containers-only operand: items is an array of objects
        let d = run("$?(@.items == 1)");
        assert!(codes(&d).contains(&"FA002"), "{d:?}");
        let d = run("$?(@.name == 1)");
        assert!(codes(&d).contains(&"FA002"), "{d:?}");
        // negative: kind-consistent comparisons and methods are clean
        assert!(!codes(&run("$.price.number()")).contains(&"FA002"));
        assert!(!codes(&run("$.items[*]?(@.qty > 1)")).contains(&"FA002"));
        assert!(!codes(&run("$.name.upper()")).contains(&"FA002"));
    }

    #[test]
    fn fa003_dead_predicate_positive_and_negative() {
        // constant-folds false
        let d = run("$.items[*]?(1 == 2)");
        assert!(codes(&d).contains(&"FA003"), "{d:?}");
        // constant-folds true
        let d = run("$.items[*]?('a' == 'a')");
        assert!(codes(&d).contains(&"FA003"), "{d:?}");
        // dead because the operand path is unknown
        let d = run("$.items[*]?(@.nosuch == 1)");
        assert!(codes(&d).contains(&"FA003"), "{d:?}");
        // dead exists
        let d = run("$?(exists(@.nosuch))");
        assert!(codes(&d).contains(&"FA003"), "{d:?}");
        // folding composes through &&/||/!
        let d = run("$.items[*]?(@.qty > 1 && 1 == 2)");
        assert!(codes(&d).contains(&"FA003"), "{d:?}");
        // negative: a live filter is clean
        let d = run("$.items[*]?(@.qty > 1)");
        assert!(!codes(&d).contains(&"FA003"), "{d:?}");
        let d = run("$?(exists(@.rare))");
        assert!(!codes(&d).contains(&"FA003"), "{d:?}");
    }

    #[test]
    fn fa004_missing_array_step_positive_and_negative() {
        // array step over a scalar-only path
        let d = run("$.price[*]");
        assert!(codes(&d).contains(&"FA004"), "{d:?}");
        // strict mode reaching through an array without [*]
        let d = run("strict $.items.sku");
        assert!(codes(&d).contains(&"FA004"), "{d:?}");
        // negative: [*] on a real array, and the strict form with [*]
        assert!(!codes(&run("$.items[*]")).contains(&"FA004"));
        assert!(!codes(&run("strict $.items[*].sku")).contains(&"FA004"));
        assert!(!codes(&run("$.items.sku")).contains(&"FA004"), "lax unwraps fine");
    }

    #[test]
    fn fa005_low_frequency_positive_and_negative() {
        // `rare` is in 1/20 docs = 5% < default 10%
        let d = run("$.rare");
        assert!(codes(&d).contains(&"FA005"), "{d:?}");
        assert!(d.iter().any(|x| x.help.as_deref().is_some_and(|h| h.contains("JSON_EXISTS"))));
        // negative: a 100% path, and a lowered threshold
        assert!(!codes(&run("$.price")).contains(&"FA005"));
        let cfg = AnalyzerConfig { vc_frequency_pct: 5, ..Default::default() };
        let d = analyze_path(&guide(), &parse_path("$.rare").unwrap(), &cfg);
        assert!(!codes(&d).contains(&"FA005"), "{d:?}");
    }

    #[test]
    fn fa006_unstreamable_positive_and_negative() {
        let cfg = AnalyzerConfig { text_storage: true, ..Default::default() };
        let g = guide();
        let d = analyze_path(&g, &parse_path("$.items[*]?(@.qty > 1)").unwrap(), &cfg);
        assert!(codes(&d).contains(&"FA006"), "{d:?}");
        let d = analyze_path(&g, &parse_path("$.items[last]").unwrap(), &cfg);
        assert!(codes(&d).contains(&"FA006"), "last needs the array length: {d:?}");
        // negative: streamable path, or binary storage
        let d = analyze_path(&g, &parse_path("$.items[0].sku").unwrap(), &cfg);
        assert!(!codes(&d).contains(&"FA006"), "{d:?}");
        let d = run("$.items[*]?(@.qty > 1)");
        assert!(!codes(&d).contains(&"FA006"), "not text storage: {d:?}");
    }

    #[test]
    fn fa007_vc_candidate_positive_and_negative() {
        // price: singleton scalar in 100% of docs, not materialized
        let d = run("$.price");
        assert_eq!(codes(&d), vec!["FA007"], "{d:?}");
        assert_eq!(d[0].severity, Severity::Info);
        // negative: already materialized
        let cfg = AnalyzerConfig {
            materialized_vc_paths: BTreeSet::from(["$.price".to_string()]),
            ..Default::default()
        };
        let d = analyze_path(&guide(), &parse_path("$.price").unwrap(), &cfg);
        assert!(!codes(&d).contains(&"FA007"), "{d:?}");
        // negative: arrays are not singleton scalars
        assert!(!codes(&run("$.items")).contains(&"FA007"));
        // negative: non-field-chain paths are not add_vc shapes
        assert!(!codes(&run("$.items[*]")).contains(&"FA007"));
    }

    #[test]
    fn normalization_quotes_non_identifiers() {
        let p = parse_path(r#"$.a."b c""#).unwrap();
        assert_eq!(normalized_field_path(&p).as_deref(), Some(r#"$.a."b c""#));
        let p = parse_path("$.a[*]").unwrap();
        assert_eq!(normalized_field_path(&p), None);
    }

    #[test]
    fn renderers_cover_the_pipeline() {
        let d = run("$.persno");
        let text = render_text(&d);
        assert!(text.contains("FA001 error [unknown-path]"), "{text}");
        let json = render_json(&d);
        assert!(json.contains("\"code\": \"FA001\""), "{json}");
    }
}
