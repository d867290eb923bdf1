//! Property-based tests for the SQL/JSON layer: streaming/DOM engine
//! agreement, OSON/BSON backend agreement, and parser totality.

use fsdm_json::{JsonNumber, JsonValue, Object, ValueDom};
use fsdm_sqljson::streaming;
use fsdm_sqljson::{parse_path, PathEvaluator};
use proptest::prelude::*;

/// Documents shaped like realistic collections: bounded depth, fields
/// drawn from a small vocabulary so paths actually hit.
fn arb_doc() -> impl Strategy<Value = JsonValue> {
    let field = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("items".to_string()),
        Just("name".to_string()),
        Just("price".to_string()),
    ];
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        (-100i64..100).prop_map(|v| JsonValue::Number(JsonNumber::Int(v))),
        "[a-z]{0,6}".prop_map(JsonValue::String),
    ];
    leaf.prop_recursive(3, 40, 5, move |inner| {
        let field = field.clone();
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(JsonValue::Array),
            // duplicate keys included: every engine follows the first member
            prop::collection::vec((field, inner), 0..5).prop_map(|pairs| {
                let mut o = Object::new();
                for (k, v) in pairs {
                    o.push(k, v);
                }
                JsonValue::Object(o)
            }),
        ]
    })
}

/// Streamable paths over the same vocabulary.
fn arb_streamable_path() -> impl Strategy<Value = String> {
    let step = prop_oneof![
        Just(".a".to_string()),
        Just(".b".to_string()),
        Just(".items".to_string()),
        Just(".name".to_string()),
        Just(".price".to_string()),
        Just("[*]".to_string()),
        Just("[0]".to_string()),
        Just("[1]".to_string()),
        Just("[0 to 2]".to_string()),
    ];
    prop::collection::vec(step, 1..5).prop_map(|steps| format!("${}", steps.concat()))
}

/// Any path over the same vocabulary: streamable steps mixed with
/// filters, `last`, out-of-order selectors and wildcards (which the text
/// engine evaluates by streaming the prefix before them), an optional
/// final item method, in lax or strict mode.
fn arb_path() -> impl Strategy<Value = String> {
    let step = prop_oneof![
        Just(".a".to_string()),
        Just(".b".to_string()),
        Just(".items".to_string()),
        Just(".name".to_string()),
        Just(".price".to_string()),
        Just("[*]".to_string()),
        Just("[0]".to_string()),
        Just("[1]".to_string()),
        Just("[0 to 2]".to_string()),
        Just("?(@.price >= 0)".to_string()),
        Just("?(@ == 1)".to_string()),
        Just("[last]".to_string()),
        Just("[1, 0]".to_string()),
        Just(".*".to_string()),
    ];
    let method = prop_oneof![Just(""), Just(".size()"), Just(".type()")];
    let mode = prop_oneof![Just(""), Just("strict ")];
    (mode, prop::collection::vec(step, 1..5), method)
        .prop_map(|(mode, steps, method)| format!("{mode}${}{method}", steps.concat()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Text evaluation == DOM evaluation for every path on every
    /// document: streamable paths in one pass, the rest by streaming
    /// their prefix and running the DOM engine on the captured subtrees.
    #[test]
    fn streaming_agrees_with_dom(doc in arb_doc(), path in arb_path()) {
        let jp = parse_path(&path).unwrap();
        let text = fsdm_json::to_string(&doc);
        let streamed = streaming::eval_text(&text, &jp).unwrap();
        let dom = ValueDom::new(&doc);
        let mut ev = PathEvaluator::new(jp.clone());
        let via_dom = ev.evaluate_values(&dom);
        prop_assert_eq!(streamed.len(), via_dom.len(), "path {} on {}", path, text);
        for (a, b) in streamed.iter().zip(&via_dom) {
            prop_assert!(a.eq_unordered(b), "{}: {} vs {}", path, a, b);
        }
        // existence agrees too
        prop_assert_eq!(
            streaming::exists_text(&text, &jp).unwrap(),
            !via_dom.is_empty()
        );
    }

    /// OSON and BSON backends agree with the in-memory DOM for all paths,
    /// including filters.
    #[test]
    fn binary_backends_agree(doc in arb_doc(), path in arb_streamable_path()) {
        // only object-rooted docs encode to BSON
        prop_assume!(doc.is_object());
        let full = format!("{path}?(@.price >= 0)");
        for p in [path.as_str(), full.as_str()] {
            let jp = parse_path(p).unwrap();
            let dom = ValueDom::new(&doc);
            let mut e0 = PathEvaluator::new(jp.clone());
            let expected = e0.evaluate_values(&dom);

            let oson = fsdm_oson::encode(&doc).unwrap();
            let od = fsdm_oson::OsonDoc::new(&oson).unwrap();
            let mut e1 = PathEvaluator::new(jp.clone());
            let got = e1.evaluate_values(&od);
            prop_assert_eq!(expected.len(), got.len(), "oson {}", p);
            for (a, b) in expected.iter().zip(&got) {
                prop_assert!(a.eq_unordered(b), "oson {}: {} vs {}", p, a, b);
            }

            let bson = fsdm_bson::encode(&doc).unwrap();
            let bd = fsdm_bson::BsonDoc::new(&bson).unwrap();
            let mut e2 = PathEvaluator::new(jp.clone());
            let got_b = e2.evaluate_values(&bd);
            prop_assert_eq!(expected.len(), got_b.len(), "bson {}", p);
        }
    }

    /// The path parser is total (never panics) on arbitrary input.
    #[test]
    fn path_parser_total(input in "\\PC{0,40}") {
        let _ = parse_path(&input);
    }

    /// Any parsed path's text round-trips through Display.
    #[test]
    fn path_text_roundtrip(path in arb_streamable_path()) {
        let jp = parse_path(&path).unwrap();
        let again = parse_path(jp.text()).unwrap();
        prop_assert_eq!(jp.steps, again.steps);
    }
}
