//! Integration test: cross-format agreement over the workload corpora —
//! every collection document round-trips through all three formats, and
//! path evaluation agrees across text streaming, DOM, BSON and OSON.

use fsdm::json::ValueDom;
use fsdm::sqljson::{parse_path, PathEvaluator};
use fsdm_workloads::{generate, rng_for, Collection};

fn corpus(c: Collection, n: usize) -> Vec<fsdm::json::JsonValue> {
    let mut rng = rng_for(c.name(), 77);
    (0..n).map(|i| generate(c, &mut rng, i)).collect()
}

#[test]
fn all_small_collections_roundtrip_all_formats() {
    for c in Collection::ALL {
        if matches!(c, Collection::TwitterMsgArchive | Collection::SensorData) {
            continue; // covered by the dedicated large-doc test below
        }
        for d in corpus(c, 25) {
            let text = fsdm::json::to_string(&d);
            assert_eq!(fsdm::json::parse(&text).unwrap(), d, "{} text", c.name());
            let bson = fsdm::bson::encode(&d).unwrap();
            assert!(fsdm::bson::decode(&bson).unwrap().eq_unordered(&d), "{} bson", c.name());
            let oson = fsdm::oson::encode(&d).unwrap();
            assert!(fsdm::oson::decode(&oson).unwrap().eq_unordered(&d), "{} oson", c.name());
        }
    }
}

#[test]
fn large_documents_roundtrip_oson() {
    let mut rng = rng_for("big", 1);
    let archive = generate(Collection::TwitterMsgArchive, &mut rng, 0);
    let oson = fsdm::oson::encode(&archive).unwrap();
    // wide-offset mode must engage for multi-megabyte documents
    assert!(oson.len() > 500_000);
    let back = fsdm::oson::decode(&oson).unwrap();
    assert!(back.eq_unordered(&archive));
}

#[test]
fn path_engines_agree_on_purchase_orders() {
    let paths = [
        "$.purchaseOrder.reference",
        "$.purchaseOrder.items[*].partno",
        "$.purchaseOrder.items[0].unitprice",
        "$.purchaseOrder.items[*]?(@.quantity > 10).itemno",
        "$.purchaseOrder.items.size()",
    ];
    for d in corpus(Collection::PurchaseOrder, 40) {
        let text = fsdm::json::to_string(&d);
        let bson = fsdm::bson::encode(&d).unwrap();
        let oson = fsdm::oson::encode(&d).unwrap();
        for p in paths {
            let jp = parse_path(p).unwrap();
            let dom = ValueDom::new(&d);
            let mut e = PathEvaluator::new(jp.clone());
            let expected = e.evaluate_values(&dom);

            let via_text = fsdm::sqljson::streaming::eval_text(&text, &jp).unwrap();
            assert_eq!(via_text.len(), expected.len(), "{p} text");

            let bdoc = fsdm::bson::BsonDoc::new(&bson).unwrap();
            let mut eb = PathEvaluator::new(jp.clone());
            assert_eq!(eb.evaluate_values(&bdoc).len(), expected.len(), "{p} bson");

            let odoc = fsdm::oson::OsonDoc::new(&oson).unwrap();
            let mut eo = PathEvaluator::new(jp.clone());
            let via_oson = eo.evaluate_values(&odoc);
            assert_eq!(via_oson.len(), expected.len(), "{p} oson");
            for (a, b) in expected.iter().zip(&via_oson) {
                assert!(a.eq_unordered(b), "{p}: {a} vs {b}");
            }
        }
    }
}

#[test]
fn dataguide_identical_regardless_of_insertion_order() {
    use fsdm::dataguide::DataGuide;
    let docs = corpus(Collection::EventMessage, 30);
    let mut forward = DataGuide::new();
    for d in &docs {
        forward.add_document(d);
    }
    let mut backward = DataGuide::new();
    for d in docs.iter().rev() {
        backward.add_document(d);
    }
    let fr: Vec<(String, String)> =
        forward.rows().into_iter().map(|r| (r.path, r.type_str)).collect();
    let br: Vec<(String, String)> =
        backward.rows().into_iter().map(|r| (r.path, r.type_str)).collect();
    assert_eq!(fr, br, "path/type rows are order-independent");
}

#[test]
fn search_index_agrees_with_path_engine() {
    use fsdm::index::SearchIndex;
    let docs = corpus(Collection::PurchaseOrder, 60);
    let mut ix = SearchIndex::new();
    for (i, d) in docs.iter().enumerate() {
        ix.insert(i as u64, d);
    }
    // pick a partno that exists and cross-check index vs engine
    let target = docs[7]
        .get("purchaseOrder")
        .unwrap()
        .get("items")
        .unwrap()
        .at(0)
        .unwrap()
        .get("partno")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let via_index = ix.docs_with_value("$.purchaseOrder.items.partno", &target);
    let jp = parse_path(&format!("$.purchaseOrder.items[*]?(@.partno == \"{target}\")")).unwrap();
    let mut ev = PathEvaluator::new(jp);
    let via_engine: Vec<u64> = docs
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            let dom = ValueDom::new(d);
            ev.exists(&dom)
        })
        .map(|(i, _)| i as u64)
        .collect();
    assert_eq!(via_index, via_engine);
    assert!(via_index.contains(&7));
}

#[test]
fn duplicate_keys_take_the_first_member_on_every_storage() {
    use fsdm::sqljson::{Datum, SqlType};
    use fsdm::store::{JsonCell, JsonStorage, PathSlot};
    let doc = fsdm::json::parse(r#"{"a":1,"a":2}"#).unwrap();
    let jp = parse_path("$.a").unwrap();
    for storage in [JsonStorage::Text, JsonStorage::Bson, JsonStorage::Oson] {
        let cell = JsonCell::encode(&doc, storage).unwrap();
        let mut slot = PathSlot::new(jp.clone());
        assert_eq!(cell.json_value(&mut slot, SqlType::Number), Datum::from(1i64), "{storage:?}");
    }
    let via_text = fsdm::sqljson::streaming::eval_text(r#"{"a":1,"a":2}"#, &jp).unwrap();
    assert_eq!(via_text, vec![fsdm::json::parse("1").unwrap()]);
}

/// Bytes spliced into documents by the mutation test: JSON's structural
/// and literal characters, so most mutants stay close to well-formed.
const MUTANT_BYTES: &[u8] = b"{}[],:\"\\ 0-.eEtnu";

/// Insert, delete or overwrite one to three bytes of `text`.
fn mutate(text: &str, rng: &mut impl rand::Rng) -> String {
    let mut b = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        let at = rng.gen_range(0..b.len() + 1);
        let c = MUTANT_BYTES[rng.gen_range(0..MUTANT_BYTES.len())];
        match rng.gen_range(0..3u32) {
            1 if at < b.len() => {
                b.remove(at);
            }
            2 if at < b.len() => b[at] = c,
            _ => b.insert(at, c),
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

#[test]
fn text_engine_agrees_with_parse_on_mutated_documents() {
    let nobench_paths = [
        "$.str1",
        "$.num",
        "$.nested_obj.str",
        "$.sparse_110",
        "$.nested_arr[*]",
        "$.nested_arr?(@ starts with \"a\")",
        "$.thousandth",
    ];
    let po_paths = [
        "$.purchaseOrder.reference",
        "$.purchaseOrder.items[*].partno",
        "$.purchaseOrder.items.quantity",
        "$.purchaseOrder.items[0 to 1].unitprice",
        "$.purchaseOrder.items[*]?(@.quantity > 10).itemno",
        "$.purchaseOrder.items[last]",
    ];
    let mut rng = rng_for("text-engine-mutants", 12);
    let nobench: Vec<String> = (0..60)
        .map(|i| fsdm::json::to_string(&fsdm_workloads::nobench::doc(&mut rng, i)))
        .collect();
    let po: Vec<String> =
        corpus(Collection::PurchaseOrder, 30).iter().map(fsdm::json::to_string).collect();
    let (mut parsed, mut rejected) = (0, 0);
    for (docs, paths) in [(&nobench, &nobench_paths[..]), (&po, &po_paths[..])] {
        let compiled: Vec<_> = paths.iter().map(|p| parse_path(p).unwrap()).collect();
        for doc in docs {
            for text in std::iter::once(doc.clone()).chain((0..20).map(|_| mutate(doc, &mut rng))) {
                let dom_value = fsdm::json::parse(&text);
                match &dom_value {
                    Ok(_) => parsed += 1,
                    Err(_) => rejected += 1,
                }
                for (p, jp) in paths.iter().zip(&compiled) {
                    let via_text = fsdm::sqljson::streaming::eval_text(&text, jp);
                    let exists = fsdm::sqljson::streaming::exists_text(&text, jp);
                    let Ok(v) = &dom_value else {
                        assert!(via_text.is_err(), "{p} accepted malformed {text}");
                        // an existence test may stop at its first match
                        assert!(!matches!(exists, Ok(false)), "{p} exists on malformed {text}");
                        continue;
                    };
                    let dom = ValueDom::new(v);
                    let expected = PathEvaluator::new(jp.clone()).evaluate_values(&dom);
                    assert_eq!(via_text.unwrap(), expected, "{p} on {text}");
                    assert_eq!(exists.unwrap(), !expected.is_empty(), "{p} exists on {text}");
                }
            }
        }
    }
    // the mutants exercise both sides of the accept/reject boundary
    assert!(parsed > 200 && rejected > 500, "parsed {parsed}, rejected {rejected}");
}
