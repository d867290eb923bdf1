//! Property-based tests for the JSON substrate: text round-tripping,
//! OraNum order preservation, and parser/scanner agreement.

use fsdm_json::{parse, to_string, JsonNumber, JsonValue, Object, OraNum, Scanner};
use proptest::prelude::*;

/// Validate a whole document with the streaming scanner, skipping every
/// value (what the text path engine does where no path step matches).
fn scan(text: &str) -> fsdm_json::Result<()> {
    let mut s = Scanner::new(text);
    s.skip_value(0)?;
    s.finish()
}

/// Bytes a mutation splices into a document: JSON's structural and
/// literal characters, so most mutants stay close to well-formed.
const MUTANT_BYTES: &[u8] = b"{}[],:\"\\ 0-.eEtnu";

/// Apply `(offset, op, byte)` edits: insert, delete or overwrite one byte.
fn mutate(text: &str, edits: &[(usize, usize, usize)]) -> String {
    let mut b = text.as_bytes().to_vec();
    for &(at, op, ch) in edits {
        let at = at % (b.len() + 1);
        let c = MUTANT_BYTES[ch % MUTANT_BYTES.len()];
        match op {
            1 if at < b.len() => {
                b.remove(at);
            }
            2 if at < b.len() => b[at] = c,
            _ => b.insert(at, c),
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Generator for arbitrary JSON values of bounded depth/size.
fn arb_json() -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<i64>().prop_map(|v| JsonValue::Number(JsonNumber::Int(v))),
        (-1_000_000i64..1_000_000, 0u32..10_000).prop_map(|(i, f)| JsonValue::Number(
            JsonNumber::from_literal(&format!("{i}.{f:04}")).unwrap()
        )),
        "[a-zA-Z0-9 _\\-\u{e9}\u{1F600}]{0,20}".prop_map(JsonValue::String),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..8).prop_map(JsonValue::Array),
            prop::collection::vec(("[a-zA-Z_][a-zA-Z0-9_]{0,12}", inner), 0..8).prop_map(|pairs| {
                let mut o = Object::new();
                let mut seen = std::collections::HashSet::new();
                for (k, v) in pairs {
                    if seen.insert(k.clone()) {
                        o.push(k, v);
                    }
                }
                JsonValue::Object(o)
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// serialize → parse is the identity on the value model.
    #[test]
    fn text_roundtrip(v in arb_json()) {
        let text = to_string(&v);
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    /// The scanner accepts every serialized document, and parsing a
    /// document through the scanner yields the DOM parser's value.
    #[test]
    fn scanner_accepts_serialized_documents(v in arb_json()) {
        let text = to_string(&v);
        prop_assert!(scan(&text).is_ok(), "{}", text);
        prop_assert_eq!(Scanner::new(&text).parse_value(0).unwrap(), v);
    }

    /// On mutated documents the scanner accepts exactly what `parse`
    /// accepts.
    #[test]
    fn scanner_accepts_iff_parse_accepts(
        v in arb_json(),
        edits in prop::collection::vec((any::<usize>(), 0usize..3, any::<usize>()), 1..4),
    ) {
        let text = mutate(&to_string(&v), &edits);
        prop_assert_eq!(scan(&text).is_ok(), parse(&text).is_ok(), "{}", text);
    }

    /// OraNum byte order equals numeric order over random i64 pairs.
    #[test]
    fn oranum_i64_order(a in any::<i64>(), b in any::<i64>()) {
        let (na, nb) = (OraNum::from_i64(a), OraNum::from_i64(b));
        prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
    }

    /// OraNum i64 encoding round-trips exactly.
    #[test]
    fn oranum_i64_roundtrip(a in any::<i64>()) {
        prop_assert_eq!(OraNum::from_i64(a).to_i64(), Some(a));
    }

    /// OraNum byte order equals numeric order over random decimals.
    #[test]
    fn oranum_decimal_order(
        (ai, af) in (-1_000_000i64..1_000_000, 0u32..1_000_000),
        (bi, bf) in (-1_000_000i64..1_000_000, 0u32..1_000_000),
    ) {
        // build decimals with explicit sign handling: value = i + sign*0.f
        let mk = |i: i64, f: u32| -> (f64, OraNum) {
            let s = if i < 0 {
                format!("-{}.{:06}", i.unsigned_abs(), f)
            } else {
                format!("{i}.{f:06}")
            };
            (s.parse::<f64>().unwrap(), OraNum::from_decimal_str(&s).unwrap())
        };
        let (fa, na) = mk(ai, af);
        let (fb, nb) = mk(bi, bf);
        prop_assert_eq!(na.cmp(&nb), fa.partial_cmp(&fb).unwrap());
    }

    /// Canonical decimal strings re-parse to an equal OraNum.
    #[test]
    fn oranum_string_roundtrip(i in -10_000_000i64..10_000_000, f in 0u32..100_000) {
        let s = if i < 0 {
            format!("-{}.{:05}", i.unsigned_abs(), f)
        } else {
            format!("{i}.{f:05}")
        };
        let n = OraNum::from_decimal_str(&s).unwrap();
        let n2 = OraNum::from_decimal_str(&n.to_decimal_string()).unwrap();
        prop_assert_eq!(n, n2);
    }

    /// from_bytes accepts exactly what as_bytes produced.
    #[test]
    fn oranum_bytes_roundtrip(a in any::<i64>()) {
        let n = OraNum::from_i64(a);
        prop_assert_eq!(OraNum::from_bytes(n.as_bytes()).unwrap(), n);
    }

    /// Parser and scanner never panic on arbitrary input bytes, and agree
    /// on whether the input is a document.
    #[test]
    fn parser_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = fsdm_json::parse_bytes(&bytes);
        let text = String::from_utf8_lossy(&bytes);
        prop_assert_eq!(scan(&text).is_ok(), parse(&text).is_ok());
    }
}
