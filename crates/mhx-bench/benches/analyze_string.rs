//! E11 — analyze-string: the cost of the temporary-hierarchy machinery
//! (Definition 4) by text size, pattern shape, and mode.
//!
//! Also writes `BENCH_analyze.json` at the workspace root: two ratios of
//! the match enumeration `analyze-string` runs (`captures_iter`) over a
//! ~100k-char generated text, each between two patterns with the same
//! matches, one of which hides its literal prefix behind a class:
//!
//! * `literal_speedup` — `[s]ceaft` (the VM from every byte) over
//!   `sceaft` (answered by `str::find` alone);
//! * `prefix_speedup` — `[s]ce(af)t` over `sce(af)t` (the VM seeded only
//!   at occurrences of the prefix `sceaft`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mhx_corpus::{generate, GeneratorConfig};
use mhx_regex::Regex;
use mhx_xquery::{run_query, run_query_with, AnalyzeMode, EvalOptions};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn by_text_size(c: &mut Criterion) {
    let mut grp = c.benchmark_group("e11_analyze_by_size");
    grp.sample_size(10).measurement_time(Duration::from_secs(1));
    for size in [500usize, 4_000, 16_000] {
        let doc =
            generate(&GeneratorConfig { text_len: size, hierarchies: 2, ..Default::default() });
        let g = doc.build_goddag();
        grp.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                black_box(
                    run_query(
                        &g,
                        "let $r := analyze-string(root(), 'sceaft') \
                         return count($r/child::m)",
                    )
                    .unwrap(),
                )
            })
        });
    }
    grp.finish();
}

fn by_pattern(c: &mut Criterion) {
    let doc = generate(&GeneratorConfig { text_len: 4_000, hierarchies: 2, ..Default::default() });
    let g = doc.build_goddag();
    let mut grp = c.benchmark_group("e11_analyze_by_pattern");
    grp.sample_size(10).measurement_time(Duration::from_secs(1));
    let patterns = [
        ("literal", "sceaft"),
        ("class_star", "g[ea]+[a-z]*m"),
        ("fragment_groups", "ge<a>sc</a>ea<b>ft</b>"),
        ("anchored_dotstar", ".*sceaft.*"),
    ];
    for (name, pat) in patterns {
        let q = format!(
            "let $r := analyze-string(root(), '{pat}') return count($r/descendant::leaf())"
        );
        grp.bench_function(name, |b| b.iter(|| black_box(run_query(&g, &q).unwrap())));
    }
    grp.finish();
}

fn mode_comparison(c: &mut Criterion) {
    let doc = generate(&GeneratorConfig { text_len: 4_000, hierarchies: 2, ..Default::default() });
    let g = doc.build_goddag();
    let q = "let $r := analyze-string(root(), '.*sceaft.*') return count($r/child::m)";
    let mut grp = c.benchmark_group("e11_analyze_mode");
    grp.sample_size(10).measurement_time(Duration::from_secs(1));
    grp.bench_function("paper_compat", |b| b.iter(|| black_box(run_query(&g, q).unwrap())));
    let xslt = EvalOptions { analyze_mode: AnalyzeMode::Xslt, ..Default::default() };
    grp.bench_function("xslt", |b| b.iter(|| black_box(run_query_with(&g, q, &xslt).unwrap())));
    grp.finish();
}

fn temp_hierarchy_cycle(c: &mut Criterion) {
    // Raw add/remove cost of the virtual-hierarchy machinery, without the
    // regex or query layers.
    use mhx_goddag::FragmentSpec;
    let doc = generate(&GeneratorConfig { text_len: 8_000, hierarchies: 3, ..Default::default() });
    let mut g = doc.build_goddag();
    let len = g.text().len() as u32;
    // Char-boundary-safe match positions.
    let positions: Vec<u32> = g.text().char_indices().map(|(i, _)| i as u32).collect();
    let matches: Vec<(u32, u32)> = (0..100usize)
        .map(|i| {
            let at = (i * positions.len() / 101).min(positions.len().saturating_sub(4));
            (positions[at], positions[at + 3])
        })
        .collect();
    let mut grp = c.benchmark_group("e11_temp_hierarchy_cycle");
    grp.sample_size(20).measurement_time(Duration::from_millis(800));
    grp.bench_function("add_remove_100_matches", |b| {
        b.iter(|| {
            let mut res = FragmentSpec::new("res", (0, len));
            for &(s, e) in &matches {
                res.children.push(FragmentSpec::new("m", (s, e)));
            }
            g.add_virtual_hierarchy("rest", &[res]).unwrap();
            let leaves = g.leaf_count();
            g.remove_last_hierarchy().unwrap();
            black_box(leaves)
        })
    });
    grp.finish();
}

/// Median of 9 timed runs of `f`, after one warm-up run.
fn median_ns(f: &mut dyn FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Snapshot rows written to `BENCH_analyze.json` at the workspace root.
fn emit_snapshot(_c: &mut Criterion) {
    let doc =
        generate(&GeneratorConfig { text_len: 100_000, hierarchies: 2, ..Default::default() });
    let g = doc.build_goddag();
    let text = g.text();
    // `(slow, fast)`: the same matches, with the prefix hidden or not.
    let pairs = [("literal", "[s]ceaft", "sceaft"), ("prefix", "[s]ce(af)t", "sce(af)t")];
    let mut rows = Vec::new();
    let mut matches = 0;
    for (name, slow, fast) in pairs {
        let (slow, fast) = (Regex::new(slow).unwrap(), Regex::new(fast).unwrap());
        let count = |re: &Regex| re.captures_iter(text).count();
        matches = count(&fast);
        assert!(matches > 0, "the generated text must contain `sceaft`");
        assert_eq!(count(&slow), matches, "{name}: both patterns find the same matches");
        let slow_ns = median_ns(&mut || {
            black_box(count(&slow));
        });
        let fast_ns = median_ns(&mut || {
            black_box(count(&fast));
        });
        println!("{name}: {slow_ns:.0} ns vs {fast_ns:.0} ns ({:.1}x)", slow_ns / fast_ns);
        rows.push(format!("    \"{name}_speedup\": {:.2}", slow_ns / fast_ns));
    }
    let json = format!(
        "{{\n  \"bench\": \"analyze\",\n  \"text_bytes\": {},\n  \"matches\": {matches},\n  \
         \"ratios\": {{\n{}\n  }}\n}}\n",
        text.len(),
        rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analyze.json");
    std::fs::write(path, &json).expect("write BENCH_analyze.json");
    println!("wrote {path}");
}

criterion_group!(
    benches,
    by_text_size,
    by_pattern,
    mode_comparison,
    temp_hierarchy_cycle,
    emit_snapshot
);
criterion_main!(benches);
