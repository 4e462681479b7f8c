//! E18 — variable bindings: what a binding that no expression reads costs.
//!
//! Writes `BENCH_bindings.json` at the workspace root: for four queries
//! over one ~100k-char generated document (the settings of e2ebench's
//! `eval-large`, seed 1), the query's time over its time behind an unused
//! `let $all := 1 to 3000`, with the same answer. A binding is pushed once
//! and never read, so each ratio sits near 1; an evaluator that copied its
//! variables per tuple, binding or predicate candidate reads a few
//! hundredths.
//!
//! * `flwor` — a FLWOR of ~3k tuples;
//! * `positional_predicate` — a positional predicate over ~3k candidates;
//! * `quantifier` — a `some` over ~3k items that never stops early;
//! * `order_by` — a FLWOR of ~3k tuples sorted by `order by`, with the
//!   `let` as its own first clause rather than around it: `order by` keeps
//!   its tuples, and a `let` before the first `for` must not be kept in
//!   each.

use criterion::{criterion_group, criterion_main, Criterion};
use mhx_bench::time_pair;
use mhx_corpus::{generate, GeneratorConfig};
use mhx_goddag::StructIndex;
use mhx_xquery::{CompiledXQuery, EvalOptions};

/// Each row: its name, the query, and the query behind the unused `let`
/// (`{q}` stands for the query).
const ROWS: [(&str, &str, &str); 4] = [
    ("flwor", "count(for $x in /descendant::e1 return $x)", AROUND),
    ("positional_predicate", "count(/descendant::e1[position() > 0])", AROUND),
    ("quantifier", "some $x in /descendant::e1 satisfies false()", AROUND),
    (
        "order_by",
        "for $x in /descendant::e1 order by string-length(string($x)) return $x",
        "let $all := 1 to 3000 {q}",
    ),
];

/// The unused `let` around a whole query.
const AROUND: &str = "let $all := 1 to 3000 return {q}";

/// Snapshot rows written to `BENCH_bindings.json` at the workspace root.
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
    for (name, query, with_let) in ROWS {
        let bare = CompiledXQuery::compile(query).unwrap();
        let behind = CompiledXQuery::compile(&with_let.replace("{q}", query)).unwrap();
        let run = |plan: &CompiledXQuery| plan.run_with_index(&g, Some(&idx), &opts).unwrap().0;
        let answer = run(&bare);
        assert_eq!(answer, run(&behind), "{name}: the unused let changes nothing");
        // Fastest of 9 runs per side, the two sides' runs interleaved.
        let (bare_ns, let_ns) = time_pair(
            9,
            || {
                std::hint::black_box(run(&bare));
            },
            || {
                std::hint::black_box(run(&behind));
            },
        );
        println!(
            "{name}: {bare_ns:.0} ns vs {let_ns:.0} ns behind the let ({} bytes)",
            answer.len()
        );
        rows.push(format!("    \"{name}\": {:.2}", bare_ns / let_ns));
    }
    let json = format!(
        "{{\n  \"bench\": \"bindings\",\n  \"text_bytes\": {},\n  \"ratios\": {{\n{}\n  }}\n}}\n",
        g.text().len(),
        rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bindings.json");
    std::fs::write(path, &json).expect("write BENCH_bindings.json");
    println!("wrote {path}");
}

criterion_group!(benches, emit_snapshot);
criterion_main!(benches);
