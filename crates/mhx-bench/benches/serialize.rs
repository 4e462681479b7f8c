//! E19 — the answer writer: serializing a query's nodes against copying
//! their text.
//!
//! Writes `BENCH_serialize.json` at the workspace root: for three of
//! e2ebench's `eval-large` query classes on one ~100k-char generated
//! document (that workload's settings, seed 1), the time to copy each
//! answer node's string value into one `String`, over the time to
//! serialize the same nodes. The copy is the text any serializer must
//! write, so the ratio is the share of serializing spent on the text
//! itself. A writer that collects each element's children, formats each
//! attribute and escapes text a `char` at a time, into a fresh `String`
//! per item, reads 0.04–0.10; one that writes the answer in one pass into
//! one buffer reads 0.16–0.38 (release build, 2-vCPU VM).
//!
//! * `overlap` — ~1.9k elements (121 KB of markup on the bench document);
//! * `xfollowing` — ~3.1k elements (171 KB);
//! * `chain` — ~1.9k nested elements (52 KB), mostly text.

use criterion::{criterion_group, criterion_main, Criterion};
use mhx_bench::time_pair;
use mhx_corpus::{generate, GeneratorConfig};
use mhx_goddag::StructIndex;
use mhx_xquery::serialize::serialize_sequence;
use mhx_xquery::{CompiledXQuery, EvalOptions, Evaluator, Item};
use std::hint::black_box;

/// Each row: its name and its (XPath) query.
const ROWS: [(&str, &str); 3] = [
    ("overlap", "/descendant::e1[overlapping::e0]"),
    ("xfollowing", "/descendant::e2[7]/xfollowing::e0"),
    ("chain", "/descendant::e0/descendant::s0"),
];

/// Snapshot rows written to `BENCH_serialize.json` at the workspace root.
fn emit_snapshot(_c: &mut Criterion) {
    let doc = generate(&GeneratorConfig {
        seed: 1,
        text_len: 100_000,
        hierarchies: 3,
        avg_element_len: 30,
        boundary_jitter: 0.7,
        nested: true,
    });
    let g = doc.build_goddag();
    let idx = StructIndex::build(&g);
    let opts = EvalOptions::default();
    let ev = Evaluator::new(&g, opts.clone());
    let mut rows = Vec::new();
    for (name, query) in ROWS {
        let plan = CompiledXQuery::compile_xpath(query).unwrap();
        let items = plan.evaluate(&g, Some(&idx), &opts, |_, seq| seq).unwrap().0;
        assert!(items.iter().all(|item| matches!(item, Item::Node(_))), "{name}: a node set");
        let copy = || {
            let mut text = String::new();
            for item in &items {
                if let Item::Node(n) = item {
                    text.push_str(g.string_value(*n));
                }
            }
            black_box(text);
        };
        let write = || {
            black_box(serialize_sequence(&ev, &items));
        };
        let (copy_ns, write_ns) = time_pair(41, copy, write);
        let bytes = serialize_sequence(&ev, &items).len();
        println!(
            "{name}: {} nodes, {bytes} bytes: copy {copy_ns:.0} ns, serialize {write_ns:.0} ns",
            items.len()
        );
        rows.push(format!("    \"{name}\": {:.3}", copy_ns / write_ns));
    }
    let json = format!(
        "{{\n  \"bench\": \"serialize\",\n  \"text_bytes\": {},\n  \"ratios\": {{\n{}\n  }}\n}}\n",
        g.text().len(),
        rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serialize.json");
    std::fs::write(path, &json).expect("write BENCH_serialize.json");
    println!("wrote {path}");
}

criterion_group!(benches, emit_snapshot);
criterion_main!(benches);
