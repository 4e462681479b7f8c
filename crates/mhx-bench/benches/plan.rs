//! E16 — the plan-level optimizer, A/B on the same compiled queries.
//!
//! Every query is an XPath text compiled once onto the XQuery plan
//! (`CompiledXQuery::compile_xpath`), which carries both the plan as
//! written and the optimizer's rewrite; the `optimize` knob selects one at
//! evaluation time — so the two timings differ *only* by the rewrites
//! (predicate reordering, `//x` fusion, set-at-a-time routing of
//! position-free predicated steps, and the round-2 rewrites). Queries are predicate-heavy shapes on
//! a ≥10k-node corpus: extended-axis predicates over wide contexts (where
//! the per-node path re-evaluates the predicate per context × candidate
//! pair), `//`-abbreviated paths (where fusion turns four tree walks into
//! indexed scans), and deliberately positional queries that the optimizer
//! must leave alone (the parity floor).
//!
//! The machine-readable snapshot goes to `BENCH_plan.json` at the
//! workspace root; its `speedups` object is what the `bench-check` CI
//! gate tracks.

use criterion::{criterion_group, criterion_main, Criterion};
use mhx_bench::time_pair;
use mhx_corpus::{generate, GeneratorConfig};
use mhx_goddag::{Goddag, StructIndex};
use mhx_xpath::Value;
use mhx_xquery::{xpath_value, CompiledXQuery, EvalOptions};
use std::hint::black_box;
use std::time::Duration;

/// Same ≥10k-node corpus as the batch bench (counted, not assumed).
fn large_corpus() -> Goddag {
    let doc = generate(&GeneratorConfig {
        text_len: 24_000,
        hierarchies: 4,
        boundary_jitter: 0.8,
        avg_element_len: 25,
        nested: true,
        ..Default::default()
    });
    let g = doc.build_goddag();
    assert!(g.all_nodes().len() >= 10_000, "corpus too small: {} nodes", g.all_nodes().len());
    g
}

/// label → query. The first group profits from rewrites; the `positional_*`
/// rows are untouched by design and gate parity.
fn queries() -> Vec<(&'static str, &'static str)> {
    vec![
        // Pure `//` fusion: four desugared tree walks become one indexed
        // name scan.
        ("fused_scan", "//e0"),
        // `//` fusion + batch-routed extended-axis predicate.
        ("fused_ext_pred", "//s0[xancestor::e0]"),
        // Wide-context predicated step: 900+ e0 contexts, the predicate
        // runs once per unique candidate instead of per (ctx, candidate).
        ("wide_pred_batch", "/descendant::e0/descendant::s0[contains(string(.), 'sin')]"),
        // Fusion + overlap-axis predicate.
        ("overlap_fused", "//s0[overlapping::e1]"),
        // Reordering: the cheap string test moves before the span lookup.
        ("reorder_cheap_first", "/descendant::s0[xpreceding::e1][contains(string(.), 'sin')]"),
        // Round 2 — existential early-exit: the boolean axis predicate
        // stops at the first witness instead of materializing xfollowing
        // per candidate.
        ("existential_early_exit", "//e0[xfollowing::e1]"),
        // Round 2 — containment-chain join: two descendant name scans
        // become one merge join over the laminar containment chains.
        ("chain_join", "/descendant::e0/descendant::s0"),
        // Round 2 — predicate hoisting: the context-independent count()
        // evaluates once per step, not once per candidate.
        ("hoisted_pred", "/descendant::e0[count(/descendant::e1) > 0]"),
        // Round 2 — stats-driven ordering: both predicates are axis paths
        // with equal static weight, so only the document's name counts
        // (e0 is rarer than e1 on this corpus) decide that the
        // written-second predicate runs first.
        ("stats_reorder", "/descendant::s0[xdescendant::e1][xpreceding::e0]"),
        // Positional queries the optimizer must not touch — parity gates.
        ("positional_parity", "/descendant::e0[position() = 2]/xfollowing::*"),
        ("positional_last", "/descendant::e0[last()]"),
    ]
}

fn eval(g: &Goddag, idx: &StructIndex, q: &CompiledXQuery, optimize: bool) -> Value {
    let opts = EvalOptions { optimize, ..Default::default() };
    q.evaluate(g, Some(idx), &opts, |_, seq| xpath_value(&seq)).expect("bench queries evaluate").0
}

/// E16 through criterion (snapshot below carries the tracked numbers).
fn optimized_vs_as_written(c: &mut Criterion) {
    let g = large_corpus();
    let idx = StructIndex::build(&g);
    let mut grp = c.benchmark_group("e16_plan_optimizer");
    grp.sample_size(10).measurement_time(Duration::from_millis(600));
    for (label, src) in queries() {
        let q = CompiledXQuery::compile_xpath(src).unwrap();
        grp.bench_function(format!("as_written_{label}"), |b| {
            b.iter(|| black_box(eval(&g, &idx, &q, false)))
        });
        grp.bench_function(format!("optimized_{label}"), |b| {
            b.iter(|| black_box(eval(&g, &idx, &q, true)))
        });
    }
    grp.finish();
}

/// E16 snapshot — per-query timings, speedups and rewrite counts, written
/// to `BENCH_plan.json` at the workspace root.
fn emit_snapshot(_c: &mut Criterion) {
    let g = large_corpus();
    let idx = StructIndex::build(&g);
    let node_count = g.all_nodes().len();

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (label, src) in queries() {
        let q = CompiledXQuery::compile_xpath(src).unwrap();
        // Differential safety net: the snapshot never reports a speedup
        // for results that disagree.
        assert_eq!(
            eval(&g, &idx, &q, false),
            eval(&g, &idx, &q, true),
            "optimized disagrees with as-written on {label}"
        );
        // Fastest of 9 runs per plan, the two plans' runs interleaved.
        let (as_written, optimized) = time_pair(
            9,
            || {
                black_box(eval(&g, &idx, &q, false));
            },
            || {
                black_box(eval(&g, &idx, &q, true));
            },
        );
        let speedup = as_written / optimized;
        let rewrites = q.report().total();
        rows.push(format!(
            "    {{\"query\": \"{label}\", \"as_written_ns\": {as_written:.0}, \
             \"optimized_ns\": {optimized:.0}, \"speedup\": {speedup:.2}, \
             \"rewrites\": {rewrites}}}"
        ));
        println!(
            "{label:<22} as-written {as_written:>12.0} ns   optimized {optimized:>12.0} ns   \
             speedup {speedup:>8.2}x   rewrites {rewrites}"
        );
        speedups.push(format!("    \"{label}\": {speedup:.2}"));
    }
    let json = format!(
        "{{\n  \"bench\": \"plan_optimizer\",\n  \"nodes\": {node_count},\n  \
         \"rows\": [\n{}\n  ],\n  \"speedups\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n"),
        speedups.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plan.json");
    std::fs::write(path, json).expect("write BENCH_plan.json");
    println!("wrote {path} ({node_count} nodes)");
}

criterion_group!(benches, optimized_vs_as_written, emit_snapshot);
criterion_main!(benches);
