//! Criterion benches for §5.1: the same SQL/JSON path evaluated by the
//! streaming engine over text and the DOM engine over each binary format.

use criterion::{criterion_group, criterion_main, Criterion};
use fsdm_json::ValueDom;
use fsdm_sqljson::{parse_path, PathEvaluator};
use fsdm_workloads::{collections::purchase_order, rng_for};
use std::hint::black_box;

fn bench_paths(c: &mut Criterion) {
    let mut rng = rng_for("bench-path", 1);
    let doc = purchase_order(&mut rng, 7);
    let text = fsdm_json::to_string(&doc);
    let bson = fsdm_bson::encode(&doc).unwrap();
    let oson = fsdm_oson::encode(&doc).unwrap();
    let simple = parse_path("$.purchaseOrder.items[*].unitprice").unwrap();
    let filtered = parse_path("$.purchaseOrder.items[*]?(@.quantity > 5).partno").unwrap();

    let mut g = c.benchmark_group("path_eval");
    g.bench_function("text_streaming_simple", |b| {
        b.iter(|| fsdm_sqljson::streaming::eval_text(black_box(&text), &simple).unwrap())
    });
    g.bench_function("text_prefix_filtered", |b| {
        b.iter(|| fsdm_sqljson::streaming::eval_text(black_box(&text), &filtered).unwrap())
    });
    g.bench_function("oson_dom_simple", |b| {
        let mut ev = PathEvaluator::new(simple.clone());
        b.iter(|| {
            let d = fsdm_oson::OsonDoc::new(black_box(&oson)).unwrap();
            ev.evaluate(&d)
        })
    });
    g.bench_function("oson_dom_filtered", |b| {
        let mut ev = PathEvaluator::new(filtered.clone());
        b.iter(|| {
            let d = fsdm_oson::OsonDoc::new(black_box(&oson)).unwrap();
            ev.evaluate(&d)
        })
    });
    g.bench_function("bson_dom_simple", |b| {
        let mut ev = PathEvaluator::new(simple.clone());
        b.iter(|| {
            let d = fsdm_bson::BsonDoc::new(black_box(&bson)).unwrap();
            ev.evaluate(&d)
        })
    });
    g.bench_function("value_dom_simple", |b| {
        let mut ev = PathEvaluator::new(simple.clone());
        b.iter(|| {
            let dom = ValueDom::new(black_box(&doc));
            ev.evaluate(&dom)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_paths);
criterion_main!(benches);
