//! E16 — persistent store: snapshot cold start vs reparse, and query
//! correctness under a memory budget that forces eviction churn.
//!
//! Two claims, two rows in `BENCH_store.json`:
//!
//! * `cold_vs_reparse` — opening a columnar snapshot (`DocStore::load`:
//!   decoding the document, then the same `StructIndex::build` an upload
//!   runs, since a snapshot stores no index) must beat rebuilding the
//!   same document from its XML encodings (parse + GODDAG build + index
//!   build). This is the whole point of persisting: a restarted `mhxd`
//!   answers its first query from disk without paying the parse again.
//! * `over_budget_correct` — with N documents registered under a budget
//!   of roughly a quarter of their total snapshot bytes, a round-robin
//!   workload forces continuous evict/reload churn; every query must
//!   still return the same answer as an unconstrained catalog, and the
//!   store counters must account for the churn. The row is the fraction
//!   of correct answers (1.0 or the gate fails).

use criterion::{criterion_group, criterion_main, Criterion};
use mhx_corpus::{generate, GeneratedDoc, GeneratorConfig};
use mhx_goddag::{GoddagBuilder, StructIndex};
use mhx_store::DocStore;
use multihier_xquery::prelude::Catalog;
use std::hint::black_box;
use std::time::{Duration, Instant};

const N_DOCS: usize = 8;
const ROUNDS: usize = 3;

const QUERIES: [&str; 3] = [
    "count(/descendant::e0)",
    "/descendant::e1[overlapping::e0]",
    "/descendant::e0[1]/xfollowing::e1",
];

fn corpus(i: usize) -> GeneratedDoc {
    generate(&GeneratorConfig {
        seed: 0x5702 + i as u64,
        text_len: 1_200,
        hierarchies: 3,
        boundary_jitter: 0.7,
        avg_element_len: 30,
        ..Default::default()
    })
}

/// The reparse path a server without a store pays on restart: XML parse,
/// GODDAG build, struct-index build.
fn reparse(doc: &GeneratedDoc) -> usize {
    let mut b = GoddagBuilder::new();
    for (name, src) in &doc.encodings {
        b = b.hierarchy(name.clone(), src.clone());
    }
    let g = b.build().expect("generated encodings build");
    let idx = StructIndex::build(&g);
    g.text().len() + idx.element_count() as usize
}

/// A scratch directory under the system temp dir, unique per process.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mhx-store-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn median_ns(f: &mut dyn FnMut()) -> f64 {
    f(); // warm allocator and page cache — cold here means "no parse", not "no OS cache"
    let mut samples = Vec::with_capacity(9);
    for _ in 0..9 {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e9);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn snapshot_vs_reparse(c: &mut Criterion) {
    let docs: Vec<GeneratedDoc> = (0..N_DOCS).map(corpus).collect();
    let dir = scratch_dir("criterion");
    let store = DocStore::open(&dir).expect("open scratch store");
    for (i, d) in docs.iter().enumerate() {
        let g = d.build_goddag();
        let idx = StructIndex::build(&g);
        store.save(&format!("doc-{i}"), &g, &idx).expect("save snapshot");
    }

    let mut grp = c.benchmark_group("e16_store");
    grp.sample_size(10).measurement_time(Duration::from_millis(800));
    grp.bench_function("snapshot_load", |b| {
        b.iter(|| {
            for i in 0..N_DOCS {
                black_box(store.load(&format!("doc-{i}")).expect("load").expect("present"));
            }
        })
    });
    grp.bench_function("reparse", |b| {
        b.iter(|| {
            for d in &docs {
                black_box(reparse(d));
            }
        })
    });
    grp.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot rows written to `BENCH_store.json` at the workspace root.
fn emit_snapshot(_c: &mut Criterion) {
    let docs: Vec<GeneratedDoc> = (0..N_DOCS).map(corpus).collect();

    // --- Row 1: cold start. ---
    let dir = scratch_dir("cold");
    let store = DocStore::open(&dir).expect("open scratch store");
    let mut snapshot_bytes = 0u64;
    for (i, d) in docs.iter().enumerate() {
        let g = d.build_goddag();
        let idx = StructIndex::build(&g);
        snapshot_bytes += store.save(&format!("doc-{i}"), &g, &idx).expect("save snapshot");
    }
    let load_ns = median_ns(&mut || {
        for i in 0..N_DOCS {
            black_box(store.load(&format!("doc-{i}")).expect("load").expect("present"));
        }
    });
    let reparse_ns = median_ns(&mut || {
        for d in &docs {
            black_box(reparse(d));
        }
    });
    let cold_vs_reparse = reparse_ns / load_ns;
    let _ = std::fs::remove_dir_all(&dir);

    // --- Row 2: correctness through eviction churn. ---
    // Expected answers from an unconstrained catalog.
    let reference = Catalog::new();
    for (i, d) in docs.iter().enumerate() {
        reference.insert(format!("doc-{i}"), d.build_goddag());
    }
    let mut expected = Vec::new();
    for i in 0..N_DOCS {
        for q in QUERIES {
            let out = reference.xpath(&format!("doc-{i}"), q).expect("reference");
            expected.push(out.serialize().to_string());
        }
    }

    let dir = scratch_dir("budget");
    let budget = (snapshot_bytes / 4).max(1);
    let constrained = Catalog::new();
    constrained.attach_store(&dir, Some(budget)).expect("attach store");
    for (i, d) in docs.iter().enumerate() {
        constrained.put(format!("doc-{i}"), d.build_goddag()).expect("persist");
    }
    let mut checked = 0usize;
    let mut correct = 0usize;
    for _ in 0..ROUNDS {
        let mut k = 0;
        for i in 0..N_DOCS {
            for q in QUERIES {
                let got = constrained.xpath(&format!("doc-{i}"), q).expect("churn query");
                checked += 1;
                if got.serialize() == expected[k] {
                    correct += 1;
                }
                k += 1;
            }
        }
    }
    let stats = constrained.store_stats();
    let over_budget_correct = correct as f64 / checked as f64;
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        "{{\n  \"bench\": \"store\",\n  \
         \"documents\": {N_DOCS},\n  \"snapshot_bytes\": {snapshot_bytes},\n  \
         \"memory_budget\": {budget},\n  \
         \"snapshot_load_ns\": {load_ns:.0},\n  \"reparse_ns\": {reparse_ns:.0},\n  \
         \"churn\": {{\"queries\": {checked}, \"correct\": {correct}, \
         \"loads\": {}, \"evictions\": {}, \"cold_start_hits\": {}}},\n  \
         \"ratios\": {{\n    \"cold_vs_reparse\": {cold_vs_reparse:.2},\n    \
         \"over_budget_correct\": {over_budget_correct:.3}\n  }}\n}}\n",
        stats.loads, stats.evictions, stats.cold_start_hits,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    std::fs::write(path, &json).expect("write BENCH_store.json");
    println!(
        "cold start: snapshot load {load_ns:.0} ns vs reparse {reparse_ns:.0} ns \
         ({cold_vs_reparse:.2}x); churn: {correct}/{checked} correct, \
         {} loads / {} evictions",
        stats.loads, stats.evictions
    );
    println!("wrote {path}");
}

criterion_group!(benches, snapshot_vs_reparse, emit_snapshot);
criterion_main!(benches);
