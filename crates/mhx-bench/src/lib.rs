//! # mhx-bench — benchmark harness
//!
//! One Criterion bench target per experiment family (see DESIGN.md §4):
//!
//! * `fig_paper` — E1/E2 (Figure 1 parse + Figure 2 build) and E3–E7
//!   (the §4 queries on the paper's document);
//! * `baseline_vs_goddag` — E8 (KyGODDAG vs milestone vs fragmentation,
//!   series over size and overlap density);
//! * `axes` — E9 (interval vs literal set semantics) and E12 (per-axis
//!   microbenchmarks) plus E10's order iteration, and E13's
//!   indexed-vs-scan snapshot (`BENCH_axes.json`);
//! * `catalog` — E14 (multi-document serving through the shared plan
//!   cache, `BENCH_catalog.json`);
//! * `batch` — E15 (batched vs per-node step evaluation on wide context
//!   sets, `BENCH_batch.json`);
//! * `serve` — E16 (the `mhxd` network stack under concurrent TCP load:
//!   worker-pool scaling, keep-alive vs fresh connections, prepared vs
//!   ad-hoc, `BENCH_serve.json`);
//! * `goddag_scaling` — E10 (construction scaling);
//! * `analyze_string` — E11 (Definition-4 machinery);
//! * `serialize` — E19 (the answer writer against copying the answer's
//!   text, `BENCH_serialize.json`);
//! * `probe` — E20 (extended-axis lookups under a name test against their
//!   candidate steps, `BENCH_probe.json`).
//!
//! Run with `cargo bench -p mhx-bench`; results feed EXPERIMENTS.md.
//!
//! The crate also ships the **`bench-check` binary** — the CI
//! perf-regression gate. It compares the freshly emitted `BENCH_*.json`
//! snapshots against the committed baselines ([`snapshot`] holds the
//! std-only JSON parser, the tracked-ratio extraction, and the pass/fail
//! rule) and exits nonzero when a tracked ratio regresses.
//!
//! [`time_pair`] is the timer of the ratio rows whose two sides run the
//! same kind of work (`plan`, `bindings`, `serialize`, `analyze_string`,
//! `probe`).

use std::time::Instant;

pub mod snapshot;

/// Time the two sides of a ratio: one warm-up run each, then `samples`
/// runs of each with the sides interleaved (`a`, `b`, `a`, `b`, …), so a
/// slow spell of the machine falls on both. Returns each side's fastest
/// run in nanoseconds: the minimum is the run least disturbed by noise.
pub fn time_pair(samples: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..samples {
        best_a = best_a.min(time(&mut a));
        best_b = best_b.min(time(&mut b));
    }
    (best_a, best_b)
}

fn time(f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e9
}

#[cfg(test)]
mod tests {
    #[test]
    fn time_pair_interleaves_the_sides_and_keeps_each_minimum() {
        let order = std::cell::RefCell::new(String::new());
        let (a, b) = super::time_pair(
            3,
            || order.borrow_mut().push('a'),
            || {
                order.borrow_mut().push('b');
                std::thread::sleep(std::time::Duration::from_millis(2));
            },
        );
        assert_eq!(order.into_inner(), "abababab");
        assert!(a < b && b >= 2e6, "{a} vs {b}");
    }
}
