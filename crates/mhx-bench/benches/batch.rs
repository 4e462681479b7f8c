//! E15 — batched step evaluation against the per-node loop.
//!
//! `plan::resolve_step` takes a whole document-ordered context set through
//! the index in one pass; the baseline is what the evaluator runs for a
//! predicated step: `resolve_step` on each single context, concatenated,
//! then one document-order sort-dedup. Contexts are the `e0` elements of a
//! ≥10k-node corpus (a `//e0/xfollowing::*`-shaped intermediate result) at
//! several widths — the batch win grows with the context-set size, which
//! is the point of set-at-a-time evaluation — plus every element, whose
//! overlapping windows take the wide sweeps where the 911 `e0` contexts
//! take one scan per context. `xfollowing`/`xpreceding` skip that last
//! width: their per-node union there is ~17M nodes per run.
//!
//! The machine-readable snapshot goes to `BENCH_batch.json` at the
//! workspace root; its `wide_speedups` object (the full `e0` width only)
//! is what the `bench-check` CI gate tracks.

use criterion::{criterion_group, criterion_main, Criterion};
use mhx_corpus::{generate, GeneratorConfig};
use mhx_goddag::{Axis, Goddag, NodeId, StructIndex};
use mhx_xpath::NodeTest;
use mhx_xquery::plan::{choose_strategy, resolve_step};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A ≥10k-node generated corpus (counted, not assumed), with a nested
/// element layer so the name-indexed step has real work.
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

/// The measured steps: label, axis, node test. All predicate-free, i.e.
/// exactly the shape the evaluators batch.
fn steps() -> Vec<(&'static str, Axis, NodeTest)> {
    let any = NodeTest::AnyElement { hierarchies: None };
    vec![
        ("xfollowing::*", Axis::XFollowing, any.clone()),
        ("xpreceding::*", Axis::XPreceding, any.clone()),
        ("overlapping::*", Axis::Overlapping, any.clone()),
        ("xancestor::*", Axis::XAncestor, any.clone()),
        ("xdescendant::*", Axis::XDescendant, any),
        (
            "descendant::s0",
            Axis::Descendant,
            NodeTest::Name { name: "s0".into(), hierarchies: None },
        ),
        ("descendant::leaf()", Axis::Descendant, NodeTest::Leaf),
    ]
}

/// Evenly spread context subsets of the full `e0` run, in document order,
/// then the full run itself.
fn context_widths(full: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    for k in [4usize, 64] {
        if k < full.len() {
            out.push((0..k).map(|i| full[i * full.len() / k]).collect());
        }
    }
    out.push(full.to_vec());
    out
}

/// The evaluator's per-node shape: each context resolved as a batch of
/// one, one final document-order sort-dedup per step.
fn per_node_step(
    g: &Goddag,
    idx: &StructIndex,
    axis: Axis,
    test: &NodeTest,
    ctxs: &[NodeId],
) -> Vec<NodeId> {
    let strategy = choose_strategy(axis, test);
    let mut out: Vec<NodeId> = Vec::new();
    for &n in ctxs {
        out.extend(resolve_step(g, Some(idx), strategy, axis, test, &[n]));
    }
    g.sort_nodes(&mut out);
    out.dedup();
    out
}

fn batch_step(
    g: &Goddag,
    idx: &StructIndex,
    axis: Axis,
    test: &NodeTest,
    ctxs: &[NodeId],
) -> Vec<NodeId> {
    resolve_step(g, Some(idx), choose_strategy(axis, test), axis, test, ctxs)
}

/// E15 through criterion (full-width contexts only; the snapshot below
/// covers the width series).
fn batch_vs_per_node(c: &mut Criterion) {
    let g = large_corpus();
    let idx = StructIndex::build(&g);
    let ctxs = idx.elements_named("e0").to_vec();

    let mut grp = c.benchmark_group("e15_batch_vs_per_node");
    grp.sample_size(10).measurement_time(Duration::from_millis(600));
    for (label, axis, test) in steps() {
        grp.bench_function(format!("per_node_{label}"), |b| {
            b.iter(|| black_box(per_node_step(&g, &idx, axis, &test, &ctxs)))
        });
        grp.bench_function(format!("batch_{label}"), |b| {
            b.iter(|| black_box(batch_step(&g, &idx, axis, &test, &ctxs)))
        });
    }
    grp.finish();
}

/// E15 snapshot — per-step, per-width medians and speedups, written to
/// `BENCH_batch.json` at the workspace root.
fn emit_snapshot(_c: &mut Criterion) {
    let g = large_corpus();
    let idx = StructIndex::build(&g);
    let full = idx.elements_named("e0").to_vec();
    let every_element: Vec<NodeId> = g.all_nodes().into_iter().filter(|n| n.is_element()).collect();
    let node_count = g.all_nodes().len();

    let median_ns = |f: &dyn Fn()| -> f64 {
        f(); // warm
        let mut samples = Vec::with_capacity(9);
        for _ in 0..9 {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_secs_f64() * 1e9);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        samples[samples.len() / 2]
    };

    let mut rows = Vec::new();
    let mut wide = Vec::new();
    for (label, axis, test) in steps() {
        let mut widths = context_widths(&full);
        if !matches!(axis, Axis::XFollowing | Axis::XPreceding) {
            widths.push(every_element.clone());
        }
        for ctxs in widths {
            // Differential safety net: the snapshot never reports a
            // speedup for results that disagree.
            assert_eq!(
                per_node_step(&g, &idx, axis, &test, &ctxs),
                batch_step(&g, &idx, axis, &test, &ctxs),
                "batch disagrees with per-node on {label}"
            );
            let per_node = median_ns(&|| {
                black_box(per_node_step(&g, &idx, axis, &test, &ctxs));
            });
            let batch = median_ns(&|| {
                black_box(batch_step(&g, &idx, axis, &test, &ctxs));
            });
            let speedup = per_node / batch;
            rows.push(format!(
                "    {{\"step\": \"{label}\", \"contexts\": {}, \"per_node_ns\": {per_node:.0}, \
                 \"batch_ns\": {batch:.0}, \"speedup\": {speedup:.2}}}",
                ctxs.len()
            ));
            println!(
                "{label:<20} {:>5} ctxs   per-node {per_node:>12.0} ns   batch {batch:>12.0} ns   \
                 speedup {speedup:>8.2}x",
                ctxs.len()
            );
            if ctxs == full {
                wide.push(format!("    \"{label}\": {speedup:.2}"));
            }
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"batch_vs_per_node\",\n  \"nodes\": {node_count},\n  \
         \"wide_contexts\": {},\n  \"every_element_contexts\": {},\n  \"rows\": [\n{}\n  ],\n  \
         \"wide_speedups\": {{\n{}\n  }}\n}}\n",
        full.len(),
        every_element.len(),
        rows.join(",\n"),
        wide.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    std::fs::write(path, json).expect("write BENCH_batch.json");
    println!("wrote {path} ({node_count} nodes, {} wide contexts)", full.len());
}

criterion_group!(benches, batch_vs_per_node, emit_snapshot);
criterion_main!(benches);
