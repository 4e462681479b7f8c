//! E20 — extended-axis lookups under a name test: what a step pays to
//! find its witnesses or answers, next to what it pays for its candidates.
//!
//! Writes `BENCH_probe.json` at the workspace root: on one ~100k-char
//! generated document (e2ebench's `eval-large` settings, seed 1, as
//! `benches/serialize.rs` uses), each row is the time of a candidate step
//! over the time of the same step with the lookup. The lookups read only
//! the named elements' spans, and a boolean axis predicate is one pass over
//! the candidate list:
//!
//! * `xdescendant` — `count(/descendant::e1)` over
//!   `count(/descendant::e1[xdescendant::e0])`;
//! * `overlapping` — `count(/descendant::e1)` over
//!   `count(/descendant::e1[overlapping::e0])`;
//! * `xfollowing` — `count(/descendant::e0)` over
//!   `count(/descendant::e2[7]/xfollowing::e0)`, whose first step keeps
//!   its literal position without evaluating the literal per candidate.
//!
//! Lookups that test every node's span, one probe per candidate, read
//! 0.087–0.139; name-keyed, one-pass ones read 0.234–0.390 (release build,
//! 2-vCPU VM).

use criterion::{criterion_group, criterion_main, Criterion};
use mhx_bench::time_pair;
use mhx_corpus::{generate, GeneratorConfig};
use mhx_goddag::StructIndex;
use mhx_xquery::{CompiledXQuery, EvalOptions};
use std::hint::black_box;

/// Each row: its name, the candidate step, and the step with the lookup
/// (XPath texts).
const ROWS: [(&str, &str, &str); 3] = [
    ("xdescendant", "count(/descendant::e1)", "count(/descendant::e1[xdescendant::e0])"),
    ("overlapping", "count(/descendant::e1)", "count(/descendant::e1[overlapping::e0])"),
    ("xfollowing", "count(/descendant::e0)", "count(/descendant::e2[7]/xfollowing::e0)"),
];

/// Snapshot rows written to `BENCH_probe.json` at the workspace root.
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
    let mut rows = Vec::new();
    for (name, candidates, lookup) in ROWS {
        let (candidates, lookup) = (
            CompiledXQuery::compile_xpath(candidates).unwrap(),
            CompiledXQuery::compile_xpath(lookup).unwrap(),
        );
        let run = |plan: &CompiledXQuery| {
            plan.evaluate(&g, Some(&idx), &opts, |ev, seq| ev.item_string(&seq[0])).unwrap().0
        };
        let answers = run(&lookup);
        let (candidates_ns, lookup_ns) = time_pair(
            41,
            || {
                black_box(run(&candidates));
            },
            || {
                black_box(run(&lookup));
            },
        );
        println!(
            "{name}: {answers} answers: candidates {candidates_ns:.0} ns, lookup {lookup_ns:.0} ns"
        );
        rows.push(format!("    \"{name}\": {:.3}", candidates_ns / lookup_ns));
    }
    let json = format!(
        "{{\n  \"bench\": \"probe\",\n  \"text_bytes\": {},\n  \"ratios\": {{\n{}\n  }}\n}}\n",
        g.text().len(),
        rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_probe.json");
    std::fs::write(path, &json).expect("write BENCH_probe.json");
    println!("wrote {path}");
}

criterion_group!(benches, emit_snapshot);
criterion_main!(benches);
