//! Perf-snapshot parsing and regression checking — the library behind the
//! `bench-check` binary (the CI perf gate).
//!
//! The bench targets emit small, hand-formatted JSON snapshots
//! (`BENCH_axes.json`, `BENCH_catalog.json`, `BENCH_batch.json`) that are
//! committed as baselines. `bench-check` re-reads the freshly emitted
//! snapshots and compares the **tracked ratios** (speedups, hit rates —
//! dimensionless, so they transfer across machines far better than raw
//! nanoseconds) against the committed ones.
//!
//! A metric fails when it regresses **relative to the baseline beyond the
//! tolerance AND drops below its absolute health floor** — requiring both
//! keeps ordinary timing noise from flaking the gate (a 25% wobble on a
//! 700× speedup is still a vastly healthy 525×) while a real regression
//! (index stops helping, batch slower than per-node) trips both conditions
//! at once. Metrics with a `hard_min` (the batch acceptance floor) fail
//! unconditionally below it.
//!
//! The JSON layer lives in the shared std-only [`mhx_json`] crate (the
//! `mhxd` wire format uses the same parser/writer); `parse` and [`Json`]
//! are re-exported here so gate code and tests keep one import path.

use std::collections::BTreeMap;
use std::fmt;

pub use mhx_json::{parse, Json};

// ---------- tracked metrics ----------

/// One tracked higher-is-better ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `file:path` identifier, e.g. `axes:xfollowing:speedup`.
    pub name: String,
    pub value: f64,
    /// Absolute health floor: a fresh value at or above it never fails the
    /// relative check (guards microsecond-scale ratios against CI noise).
    pub healthy: f64,
    /// Unconditional minimum (acceptance floor); `None` = relative-only.
    pub hard_min: Option<f64>,
}

/// Verdict for one metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub name: String,
    pub baseline: f64,
    pub fresh: f64,
    pub passed: bool,
    pub detail: String,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:<40} baseline {:>10.2}  fresh {:>10.2}  {}",
            if self.passed { "PASS" } else { "FAIL" },
            self.name,
            self.baseline,
            self.fresh,
            self.detail
        )
    }
}

/// Extract the tracked metrics from one parsed snapshot. `file` is the
/// snapshot stem: `axes`, `catalog`, or `batch`.
pub fn tracked_metrics(file: &str, doc: &Json) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    match file {
        "axes" => {
            // Per-axis indexed-vs-scan speedups. Healthy = the index
            // subsystem's original ≥5x acceptance bar.
            let axes = doc
                .get("axes")
                .and_then(Json::as_arr)
                .ok_or("BENCH_axes.json: missing `axes` array")?;
            for row in axes {
                let axis = row
                    .get("axis")
                    .and_then(Json::as_str)
                    .ok_or("BENCH_axes.json: row without `axis`")?;
                let speedup = row
                    .get("speedup")
                    .and_then(Json::as_f64)
                    .ok_or("BENCH_axes.json: row without `speedup`")?;
                out.push(Metric {
                    name: format!("axes:{axis}:speedup"),
                    value: speedup,
                    healthy: 5.0,
                    hard_min: Some(2.0),
                });
            }
        }
        "catalog" => {
            // Deterministic cache-effectiveness ratios (counter-derived, so
            // noise-free); the raw pass timings are deliberately untracked.
            let shared = doc.get("shared").ok_or("BENCH_catalog.json: missing `shared`")?;
            let hit_rate = shared
                .get("hit_rate")
                .and_then(Json::as_f64)
                .ok_or("BENCH_catalog.json: missing `shared.hit_rate`")?;
            out.push(Metric {
                name: "catalog:hit_rate".into(),
                value: hit_rate,
                healthy: 0.9,
                hard_min: Some(0.5),
            });
            let shared_compiles = shared
                .get("compiles")
                .and_then(Json::as_f64)
                .ok_or("BENCH_catalog.json: missing `shared.compiles`")?;
            let per_doc_compiles = doc
                .get("per_doc_caches")
                .and_then(|p| p.get("compiles"))
                .and_then(Json::as_f64)
                .ok_or("BENCH_catalog.json: missing `per_doc_caches.compiles`")?;
            out.push(Metric {
                name: "catalog:compile_reduction".into(),
                value: per_doc_compiles / shared_compiles.max(1.0),
                healthy: 2.0,
                hard_min: Some(1.5),
            });
        }
        "batch" => {
            // Full-width batch-vs-per-node speedups. The min/max-reduction
            // and name-intersection steps must stay well ahead (the PR's
            // ≥2x acceptance bar); the window-parity steps (overlap,
            // xancestor, xdescendant — already output-local per node) are
            // gated against falling behind per-node, not for a big win.
            let wide = doc
                .get("wide_speedups")
                .and_then(Json::as_obj)
                .ok_or("BENCH_batch.json: missing `wide_speedups` object")?;
            for (step, v) in wide {
                let speedup = v.as_f64().ok_or("BENCH_batch.json: non-numeric wide speedup")?;
                let superior = matches!(
                    step.as_str(),
                    "xfollowing::*" | "xpreceding::*" | "descendant::s0" | "descendant::leaf()"
                );
                // The health floor sits just above the 2x acceptance bar
                // so a slower CI runner that still clears the bar (e.g.
                // the leaf() step's ~5.7x baseline measuring ~3x) never
                // fails on the relative check alone.
                let (healthy, hard_min) =
                    if superior { (2.5, Some(2.0)) } else { (1.0, Some(0.6)) };
                out.push(Metric {
                    name: format!("batch:{step}:wide_speedup"),
                    value: speedup,
                    healthy,
                    hard_min,
                });
            }
            if out.is_empty() {
                return Err("BENCH_batch.json: `wide_speedups` is empty".into());
            }
        }
        "plan" => {
            // Optimized-vs-as-written speedups on the same compiled query.
            // The rewrite-profiting shapes (fusion, batch-routed
            // predicates) must stay well ahead; the reorder row's win
            // depends on predicate selectivity so it gates above break-
            // even; the positional rows are untouched by design and gate
            // parity only.
            let speedups = doc
                .get("speedups")
                .and_then(Json::as_obj)
                .ok_or("BENCH_plan.json: missing `speedups` object")?;
            for (query, v) in speedups {
                let speedup = v.as_f64().ok_or("BENCH_plan.json: non-numeric speedup")?;
                // Every label is matched explicitly: an unknown row means
                // benches/plan.rs drifted from the gate, and silently
                // falling back to the parity floor would let a collapsed
                // optimizer win pass CI.
                let (healthy, hard_min) = match query.as_str() {
                    "fused_scan" | "fused_ext_pred" | "wide_pred_batch" | "overlap_fused" => {
                        (2.5, Some(2.0))
                    }
                    // Round-2 rewrites. The first-witness probe must stay
                    // an order of magnitude ahead (the PR's ≥20x bar);
                    // the chain join and hoist keep the ≥2x bar; the
                    // stats-reorder row pairs two equal-static-weight axis
                    // predicates so only name-count pricing picks the
                    // order — routed + probed it runs well ahead, and the
                    // floor guards that combined win.
                    "existential_early_exit" => (25.0, Some(20.0)),
                    "chain_join" => (2.5, Some(2.0)),
                    "hoisted_pred" => (5.0, Some(2.0)),
                    "stats_reorder" => (8.0, Some(4.0)),
                    "reorder_cheap_first" => (1.5, Some(1.0)),
                    "positional_parity" | "positional_last" => (1.0, Some(0.6)),
                    other => {
                        return Err(format!(
                            "BENCH_plan.json: unknown speedup row `{other}` — register its \
                             floors in tracked_metrics"
                        ));
                    }
                };
                out.push(Metric {
                    name: format!("plan:{query}:speedup"),
                    value: speedup,
                    healthy,
                    hard_min,
                });
            }
            if out.is_empty() {
                return Err("BENCH_plan.json: `speedups` is empty".into());
            }
        }
        "serve" => {
            // Network-serving throughput ratios from `benches/serve.rs`.
            // One-worker parity is the load-bearing row for the evented
            // front end: with think-time clients, 1 dispatch worker must
            // hold near the 8-worker throughput, because the event loop
            // multiplexes connections regardless of worker count —
            // worker-per-connection scores ~0.13 here, far under the hard
            // floor. The keep-alive and prepared rows measure per-request
            // overheads (connection setup, query-text re-transmission +
            // cache lookup) that are real but small next to evaluation, so
            // they gate near parity. The idle-fleet rows complete the
            // evented contract: 1000 parked keep-alive connections must
            // all be held (a hard count, not a ratio), must not dent
            // active throughput past the health floor, and must cost at
            // most a handful of threads (hard floor 100 idle connections
            // per extra thread — worker-per-connection scores ~1).
            out = ratio_rows("serve", "BENCH_serve.json", doc, |name| {
                Some(match name {
                    "workers1_vs_8" => (0.9, Some(0.7)),
                    "keepalive_vs_fresh" => (1.1, Some(0.9)),
                    "prepared_vs_adhoc" => (1.0, Some(0.7)),
                    "active_with_idle_fleet" => (0.8, Some(0.5)),
                    "idle_fleet_connections" => (1000.0, Some(1000.0)),
                    "idle_conns_per_extra_thread" => (500.0, Some(100.0)),
                    _ => return None,
                })
            })?;
        }
        "shard" => {
            // Shard-router throughput ratios from `benches/shard.rs`.
            // Aggregate scaling is the load-bearing row: its hard floor
            // sits above 1.0 — if routing onto two shards is not faster
            // than one node of the same size, the router is pure
            // overhead and the PR's acceptance bar is broken. The
            // routed-hop row prices the extra TCP leg; it gates only
            // against the hop becoming pathological.
            out = ratio_rows("shard", "BENCH_shard.json", doc, |name| {
                Some(match name {
                    "shard2_vs_single" => (1.5, Some(1.1)),
                    "routed_vs_direct" => (0.5, Some(0.3)),
                    _ => return None,
                })
            })?;
        }
        "store" => {
            // Persistent-store ratios from `benches/store.rs`. Cold start
            // is the load-bearing row: its hard floor sits above 1.0 — if
            // opening a columnar snapshot is not faster than reparsing the
            // XML encodings, persistence is pure disk cost and the PR's
            // acceptance bar is broken. The churn row is counter-derived
            // correctness (fraction of right answers while the memory
            // budget forces evict/reload cycles) and must be exactly 1.0.
            out = ratio_rows("store", "BENCH_store.json", doc, |name| {
                Some(match name {
                    "cold_vs_reparse" => (1.3, Some(1.05)),
                    "over_budget_correct" => (1.0, Some(1.0)),
                    _ => return None,
                })
            })?;
        }
        "analyze_string" => {
            // Prefix-skip ratios from `benches/analyze_string.rs`: the
            // match enumeration `analyze-string` runs, over the same text,
            // for two patterns with the same matches, one hiding its
            // literal prefix behind a class. A literal pattern must stay
            // an order of magnitude ahead of the VM stepping every byte;
            // a prefix read through a group must keep the VM's seeds to
            // the prefix's occurrences.
            out = ratio_rows("analyze_string", "BENCH_analyze.json", doc, |name| {
                Some(match name {
                    "literal_speedup" => (20.0, Some(10.0)),
                    "prefix_speedup" => (3.0, Some(2.0)),
                    _ => return None,
                })
            })?;
        }
        "bindings" => {
            // Binding-cost ratios from `benches/bindings.rs`: a query's time
            // over its time behind an unused `let`. Parity is the design
            // (a binding is pushed once, never copied, and `order by` keeps
            // no copy of a `let` before its first `for`), so every row
            // gates parity like the plan bench's positional rows; copying
            // the variables per tuple reads ~0.01.
            out = ratio_rows("bindings", "BENCH_bindings.json", doc, |name| {
                matches!(name, "flwor" | "positional_predicate" | "quantifier" | "order_by")
                    .then_some((1.0, Some(0.6)))
            })?;
        }
        "serialize" => {
            // Writer ratios from `benches/serialize.rs`: copying an answer's
            // text into a presized `String` over serializing the same
            // nodes, on three `eval-large` answers. Each hard floor sits
            // between the writer that walked every answer element's
            // subtree (overlap 0.138–0.149, xfollowing 0.202–0.230, chain
            // 0.300–0.323) and the one that slices each hierarchy's
            // markup, written once (0.732–0.809, 0.970–1.055,
            // 0.928–0.965), in 6 alternating runs each on one 2-vCPU VM.
            out = ratio_rows("serialize", "BENCH_serialize.json", doc, |name| {
                Some(match name {
                    "overlap" => (0.5, Some(0.3)),
                    "xfollowing" => (0.65, Some(0.4)),
                    "chain" => (0.7, Some(0.5)),
                    _ => return None,
                })
            })?;
        }
        "probe" => {
            // Name-keyed lookup ratios from `benches/probe.rs`: a candidate
            // step's time over the same step with an extended-axis lookup,
            // on one `eval-large` document. Each hard floor sits between
            // lookups that test every node's span, one probe per candidate
            // (xdescendant 0.079–0.082, overlapping 0.079–0.087, xfollowing
            // 0.167–0.174), and lookups that read only the named elements'
            // spans, one pass per predicate (0.147–0.157, 0.131–0.141,
            // 0.383–0.408), in 6 alternating runs on one 2-vCPU VM, both
            // sides with candidate steps that trust the name index's runs
            // (`count(/descendant::e1)` ~20 µs; ~45–70 µs while every
            // candidate's name was compared again).
            out = ratio_rows("probe", "BENCH_probe.json", doc, |name| {
                Some(match name {
                    "xdescendant" => (0.12, Some(0.11)),
                    "overlapping" => (0.11, Some(0.1)),
                    "xfollowing" => (0.3, Some(0.25)),
                    _ => return None,
                })
            })?;
        }
        other => return Err(format!("unknown snapshot kind `{other}`")),
    }
    Ok(out)
}

/// The rows of a snapshot's `ratios` object as `STEM:ROW:ratio` metrics,
/// each with the `(healthy, hard_min)` floors `floors` gives its label.
/// Every label is matched explicitly: an unknown row means the bench
/// drifted from the gate, and silently inheriting some floor would let a
/// collapsed win pass CI.
fn ratio_rows(
    stem: &str,
    file: &str,
    doc: &Json,
    floors: impl Fn(&str) -> Option<(f64, Option<f64>)>,
) -> Result<Vec<Metric>, String> {
    let ratios = doc
        .get("ratios")
        .and_then(Json::as_obj)
        .ok_or(format!("{file}: missing `ratios` object"))?;
    let mut out = Vec::new();
    for (name, v) in ratios {
        let value = v.as_f64().ok_or(format!("{file}: non-numeric ratio"))?;
        let (healthy, hard_min) = floors(name).ok_or(format!(
            "{file}: unknown ratio row `{name}` — register its floors in tracked_metrics"
        ))?;
        out.push(Metric { name: format!("{stem}:{name}:ratio"), value, healthy, hard_min });
    }
    if out.is_empty() {
        return Err(format!("{file}: `ratios` is empty"));
    }
    Ok(out)
}

/// Compare fresh metrics against baseline metrics. Baseline metrics with
/// no fresh counterpart fail (shape drift must be deliberate: update the
/// committed snapshot); fresh metrics with no baseline are reported as
/// informational passes (they gate once committed).
pub fn compare(baseline: &[Metric], fresh: &[Metric], tolerance: f64) -> Vec<Verdict> {
    let fresh_by_name: BTreeMap<&str, &Metric> =
        fresh.iter().map(|m| (m.name.as_str(), m)).collect();
    let mut verdicts = Vec::new();
    for base in baseline {
        let Some(new) = fresh_by_name.get(base.name.as_str()) else {
            verdicts.push(Verdict {
                name: base.name.clone(),
                baseline: base.value,
                fresh: f64::NAN,
                passed: false,
                detail: "metric missing from fresh snapshot".into(),
            });
            continue;
        };
        verdicts.push(judge(base, new, tolerance));
    }
    let baseline_names: BTreeMap<&str, ()> =
        baseline.iter().map(|m| (m.name.as_str(), ())).collect();
    for new in fresh {
        if !baseline_names.contains_key(new.name.as_str()) {
            verdicts.push(Verdict {
                name: new.name.clone(),
                baseline: f64::NAN,
                fresh: new.value,
                passed: true,
                detail: "new metric (no baseline yet)".into(),
            });
        }
    }
    verdicts
}

fn judge(base: &Metric, fresh: &Metric, tolerance: f64) -> Verdict {
    let floor = base.value * (1.0 - tolerance);
    if let Some(hard) = fresh.hard_min {
        if fresh.value < hard {
            return Verdict {
                name: base.name.clone(),
                baseline: base.value,
                fresh: fresh.value,
                passed: false,
                detail: format!("below hard minimum {hard:.2}"),
            };
        }
    }
    let relative_ok = fresh.value >= floor;
    let healthy_ok = fresh.value >= fresh.healthy;
    let passed = relative_ok || healthy_ok;
    let detail = if passed {
        if relative_ok {
            format!("within {:.0}% of baseline", tolerance * 100.0)
        } else {
            format!(
                "regressed past {:.0}% tolerance but still above health floor {:.2}",
                tolerance * 100.0,
                fresh.healthy
            )
        }
    } else {
        format!(
            "regressed more than {:.0}% (limit {floor:.2}) and below health floor {:.2}",
            tolerance * 100.0,
            fresh.healthy
        )
    };
    Verdict { name: base.name.clone(), baseline: base.value, fresh: fresh.value, passed, detail }
}

/// Raise the hard minimum on every metric whose name starts with
/// `prefix` (never lowers a built-in floor). This is how `bench-check
/// --min-floor STEM X` works (prefix `STEM:`) — and how CI proves the
/// gate can fail, by passing an impossibly high floor for each snapshot
/// and requiring a nonzero exit.
pub fn override_floor(metrics: &mut [Metric], prefix: &str, min: f64) {
    for m in metrics {
        if m.name.starts_with(prefix) {
            m.hard_min = Some(m.hard_min.map_or(min, |h| h.max(min)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AXES: &str = r#"{
  "bench": "axes_indexed_vs_scan",
  "nodes": 10547,
  "axes": [
    {"axis": "xfollowing", "scan_ns": 1987830, "indexed_ns": 102148, "speedup": 19.5},
    {"axis": "overlapping", "scan_ns": 2084460, "indexed_ns": 3073, "speedup": 678.3}
  ]
}"#;

    const CATALOG: &str = r#"{
  "shared": {"cold_pass_ns": 2954166, "hit_rate": 0.958, "compiles": 6},
  "per_doc_caches": {"cold_pass_ns": 3349886, "compiles": 48}
}"#;

    const BATCH: &str = r#"{
  "bench": "batch_vs_per_node",
  "wide_speedups": {
    "xfollowing::*": 4100.25,
    "overlapping::*": 0.99,
    "descendant::s0": 58.50
  }
}"#;

    const PLAN: &str = r#"{
  "bench": "plan_optimizer",
  "speedups": {
    "fused_scan": 270.0,
    "wide_pred_batch": 14.4,
    "reorder_cheap_first": 3.2,
    "positional_parity": 1.01,
    "existential_early_exit": 40.0,
    "chain_join": 3.0
  }
}"#;

    #[test]
    fn parser_handles_snapshot_shapes() {
        let doc = parse(AXES).unwrap();
        assert_eq!(doc.get("nodes").and_then(Json::as_f64), Some(10547.0));
        let axes = doc.get("axes").and_then(Json::as_arr).unwrap();
        assert_eq!(axes.len(), 2);
        assert_eq!(axes[0].get("axis").and_then(Json::as_str), Some("xfollowing"));
        let esc = parse(r#"{"s": "a\"b\\c\ndé"}"#).unwrap();
        assert_eq!(esc.get("s").and_then(Json::as_str), Some("a\"b\\c\ndé"));
        assert!(parse("{").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"x": nope}"#).is_err());
    }

    #[test]
    fn metrics_extracted_from_all_three_snapshots() {
        let axes = tracked_metrics("axes", &parse(AXES).unwrap()).unwrap();
        assert_eq!(axes.len(), 2);
        assert_eq!(axes[0].name, "axes:xfollowing:speedup");
        let catalog = tracked_metrics("catalog", &parse(CATALOG).unwrap()).unwrap();
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog[1].value, 8.0); // 48 / 6 compiles
        let batch = tracked_metrics("batch", &parse(BATCH).unwrap()).unwrap();
        assert_eq!(batch.len(), 3);
        let plan = tracked_metrics("plan", &parse(PLAN).unwrap()).unwrap();
        assert_eq!(plan.len(), 6);
        assert_eq!(plan[0].name, "plan:fused_scan:speedup");
        assert_eq!(plan[0].hard_min, Some(2.0));
        assert_eq!(plan[3].hard_min, Some(0.6), "positional rows gate parity only");
        assert_eq!(plan[4].name, "plan:existential_early_exit:speedup");
        assert_eq!(plan[4].hard_min, Some(20.0), "the probe keeps a 20x acceptance floor");
        assert_eq!(plan[5].hard_min, Some(2.0));
        assert!(tracked_metrics("nope", &parse(BATCH).unwrap()).is_err());
    }

    #[test]
    fn degraded_plan_snapshot_fails() {
        let base = tracked_metrics("plan", &parse(PLAN).unwrap()).unwrap();
        // The optimizer "stopped helping": rewrite-profiting shapes fall to
        // ~1x (below their 2x hard floor) and the parity row regresses to
        // slower-than-as-written (below the 0.6 parity floor).
        let degraded = r#"{
  "speedups": {
    "fused_scan": 1.1,
    "wide_pred_batch": 0.9,
    "reorder_cheap_first": 0.8,
    "positional_parity": 0.4,
    "existential_early_exit": 5.0,
    "chain_join": 1.2
  }
}"#;
        let fresh = tracked_metrics("plan", &parse(degraded).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");

        // A healthy wobble (25%+ down but above the health floors) passes.
        let wobbly = r#"{
  "speedups": {
    "fused_scan": 150.0,
    "wide_pred_batch": 9.0,
    "reorder_cheap_first": 2.0,
    "positional_parity": 0.95,
    "existential_early_exit": 32.0,
    "chain_join": 2.6
  }
}"#;
        let fresh = tracked_metrics("plan", &parse(wobbly).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");
    }

    const SERVE: &str = r#"{
  "bench": "serve",
  "ratios": {
    "workers1_vs_8": 1.0,
    "keepalive_vs_fresh": 1.6,
    "prepared_vs_adhoc": 1.1,
    "active_with_idle_fleet": 0.95,
    "idle_fleet_connections": 1000,
    "idle_conns_per_extra_thread": 1000
  }
}"#;

    #[test]
    fn serve_metrics_gate_the_evented_front_end_hard() {
        let base = tracked_metrics("serve", &parse(SERVE).unwrap()).unwrap();
        assert_eq!(base.len(), 6);
        let parity = base.iter().find(|m| m.name == "serve:workers1_vs_8:ratio").unwrap();
        assert_eq!(parity.hard_min, Some(0.7), "one worker must hold the think-time fleet");
        let fleet = base.iter().find(|m| m.name == "serve:idle_fleet_connections:ratio").unwrap();
        assert_eq!(fleet.hard_min, Some(1000.0), "the full fleet must be held concurrently");

        // The front end "regressed to worker-per-connection": one worker
        // serializes whole connections (parity collapses to ~1/8), the
        // fleet is capped at the worker count, each parked connection
        // costs a thread, and the per-request rows rot alongside.
        let degraded = r#"{
  "ratios": {
    "workers1_vs_8": 0.13,
    "keepalive_vs_fresh": 0.5,
    "prepared_vs_adhoc": 0.4,
    "active_with_idle_fleet": 0.3,
    "idle_fleet_connections": 8,
    "idle_conns_per_extra_thread": 1
  }
}"#;
        let fresh = tracked_metrics("serve", &parse(degraded).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");

        // A wobble above the floors passes.
        let wobbly = r#"{
  "ratios": {
    "workers1_vs_8": 0.92,
    "keepalive_vs_fresh": 1.2,
    "prepared_vs_adhoc": 1.0,
    "active_with_idle_fleet": 0.85,
    "idle_fleet_connections": 1000,
    "idle_conns_per_extra_thread": 500
  }
}"#;
        let fresh = tracked_metrics("serve", &parse(wobbly).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");

        // Unregistered rows fail loudly, like the plan table.
        let drifted = r#"{"ratios": {"threads_16_vs_1": 9.0}}"#;
        let err = tracked_metrics("serve", &parse(drifted).unwrap()).unwrap_err();
        assert!(err.contains("threads_16_vs_1"), "{err}");
    }

    #[test]
    fn serve_floor_override_raises_hard_min() {
        let mut metrics = tracked_metrics("serve", &parse(SERVE).unwrap()).unwrap();
        override_floor(&mut metrics, "serve:", 1_000_000.0);
        let verdicts = compare(&metrics.clone(), &metrics, 0.25);
        // Every serve metric is now below the impossible floor — the CI
        // self-test that proves the serve gate can fail.
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");
        // The override never lowers a built-in floor.
        let mut metrics = tracked_metrics("serve", &parse(SERVE).unwrap()).unwrap();
        override_floor(&mut metrics, "serve:", 0.01);
        let fleet =
            metrics.iter().find(|m| m.name == "serve:idle_fleet_connections:ratio").unwrap();
        assert_eq!(fleet.hard_min, Some(1000.0));
    }

    const SHARD: &str = r#"{
  "bench": "shard",
  "ratios": {
    "shard2_vs_single": 1.9,
    "routed_vs_direct": 0.8
  }
}"#;

    #[test]
    fn shard_metrics_gate_aggregate_scaling_hard() {
        let base = tracked_metrics("shard", &parse(SHARD).unwrap()).unwrap();
        assert_eq!(base.len(), 2);
        let scaling = base.iter().find(|m| m.name == "shard:shard2_vs_single:ratio").unwrap();
        assert_eq!(scaling.hard_min, Some(1.1), "two shards must always beat one node");

        // The cluster "stopped scaling": routing two shards is no faster
        // than one node (hard floor) and the routed hop turned
        // pathological (relative + health rule).
        let degraded = r#"{
  "ratios": {
    "shard2_vs_single": 0.95,
    "routed_vs_direct": 0.2
  }
}"#;
        let fresh = tracked_metrics("shard", &parse(degraded).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");

        // A wobble above the floors passes.
        let wobbly = r#"{
  "ratios": {
    "shard2_vs_single": 1.6,
    "routed_vs_direct": 0.65
  }
}"#;
        let fresh = tracked_metrics("shard", &parse(wobbly).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");

        // Unregistered rows fail loudly, like the plan and serve tables.
        let drifted = r#"{"ratios": {"shard4_vs_single": 3.5}}"#;
        let err = tracked_metrics("shard", &parse(drifted).unwrap()).unwrap_err();
        assert!(err.contains("shard4_vs_single"), "{err}");
        let empty = tracked_metrics("shard", &parse(r#"{"ratios": {}}"#).unwrap()).unwrap_err();
        assert!(empty.contains("empty"), "{empty}");
    }

    #[test]
    fn shard_floor_override_raises_hard_min() {
        let mut metrics = tracked_metrics("shard", &parse(SHARD).unwrap()).unwrap();
        override_floor(&mut metrics, "shard:", 1_000_000.0);
        let verdicts = compare(&metrics.clone(), &metrics, 0.25);
        // Every shard metric is now below the impossible floor — the CI
        // self-test that proves the shard gate can fail.
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");
        // The override never lowers a built-in floor.
        let mut metrics = tracked_metrics("shard", &parse(SHARD).unwrap()).unwrap();
        override_floor(&mut metrics, "shard:", 0.01);
        let scaling = metrics.iter().find(|m| m.name.contains("shard2")).unwrap();
        assert_eq!(scaling.hard_min, Some(1.1));
    }

    const STORE: &str = r#"{
  "bench": "store",
  "ratios": {
    "cold_vs_reparse": 1.47,
    "over_budget_correct": 1.0
  }
}"#;

    #[test]
    fn store_metrics_gate_cold_start_and_churn_correctness_hard() {
        let base = tracked_metrics("store", &parse(STORE).unwrap()).unwrap();
        assert_eq!(base.len(), 2);
        let cold = base.iter().find(|m| m.name == "store:cold_vs_reparse:ratio").unwrap();
        assert_eq!(cold.hard_min, Some(1.05), "snapshot load must always beat reparse");
        let churn = base.iter().find(|m| m.name == "store:over_budget_correct:ratio").unwrap();
        assert_eq!(churn.hard_min, Some(1.0), "every churn query must be correct");

        // The store "stopped helping": loading a snapshot is slower than
        // reparsing (hard floor) and eviction churn corrupted an answer
        // (hard floor — even one wrong query fails).
        let degraded = r#"{
  "ratios": {
    "cold_vs_reparse": 0.9,
    "over_budget_correct": 0.986
  }
}"#;
        let fresh = tracked_metrics("store", &parse(degraded).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");

        // A cold-start wobble above the floors passes; correctness has no
        // wobble room but 1.0 is 1.0.
        let wobbly = r#"{
  "ratios": {
    "cold_vs_reparse": 1.15,
    "over_budget_correct": 1.0
  }
}"#;
        let fresh = tracked_metrics("store", &parse(wobbly).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");

        // Unregistered rows fail loudly, like the plan/serve/shard tables.
        let drifted = r#"{"ratios": {"warm_vs_reparse": 5.0}}"#;
        let err = tracked_metrics("store", &parse(drifted).unwrap()).unwrap_err();
        assert!(err.contains("warm_vs_reparse"), "{err}");
        let empty = tracked_metrics("store", &parse(r#"{"ratios": {}}"#).unwrap()).unwrap_err();
        assert!(empty.contains("empty"), "{empty}");
    }

    #[test]
    fn store_floor_override_raises_hard_min() {
        let mut metrics = tracked_metrics("store", &parse(STORE).unwrap()).unwrap();
        override_floor(&mut metrics, "store:", 1_000_000.0);
        let verdicts = compare(&metrics.clone(), &metrics, 0.25);
        // Every store metric is now below the impossible floor — the CI
        // self-test that proves the store gate can fail.
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");
        // The override never lowers a built-in floor.
        let mut metrics = tracked_metrics("store", &parse(STORE).unwrap()).unwrap();
        override_floor(&mut metrics, "store:", 0.01);
        let churn = metrics.iter().find(|m| m.name.contains("over_budget")).unwrap();
        assert_eq!(churn.hard_min, Some(1.0));
    }

    const ANALYZE: &str = r#"{
  "bench": "analyze",
  "ratios": {
    "literal_speedup": 40.0,
    "prefix_speedup": 6.0
  }
}"#;

    #[test]
    fn analyze_metrics_gate_the_prefix_skip_hard() {
        let base = tracked_metrics("analyze_string", &parse(ANALYZE).unwrap()).unwrap();
        assert_eq!(base.len(), 2);
        let floor = |name: &str| base.iter().find(|m| m.name == name).unwrap().hard_min;
        assert_eq!(floor("analyze_string:literal_speedup:ratio"), Some(10.0));
        assert_eq!(floor("analyze_string:prefix_speedup:ratio"), Some(2.0));

        // The skip "stopped working": both patterns cost the same.
        let parity = r#"{"ratios": {"literal_speedup": 1.0, "prefix_speedup": 1.0}}"#;
        let fresh = tracked_metrics("analyze_string", &parse(parity).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");

        let drifted = r#"{"ratios": {"suffix_speedup": 5.0}}"#;
        let err = tracked_metrics("analyze_string", &parse(drifted).unwrap()).unwrap_err();
        assert!(err.contains("suffix_speedup"), "{err}");

        let mut metrics = base.clone();
        override_floor(&mut metrics, "analyze_string:", 1_000_000.0);
        let verdicts = compare(&metrics.clone(), &metrics, 0.25);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");
    }

    #[test]
    fn serialize_metrics_gate_the_markup_slices_hard() {
        let slices = r#"{"ratios": {"overlap": 0.78, "xfollowing": 1.0, "chain": 0.95}}"#;
        let base = tracked_metrics("serialize", &parse(slices).unwrap()).unwrap();
        assert_eq!(base.len(), 3);
        let floor = |name: &str| base.iter().find(|m| m.name == name).unwrap().hard_min;
        assert_eq!(floor("serialize:overlap:ratio"), Some(0.3));
        assert_eq!(floor("serialize:xfollowing:ratio"), Some(0.4));
        assert_eq!(floor("serialize:chain:ratio"), Some(0.5));

        // The writer "walks every answer element again": every row falls
        // to what the highest run of the subtree walk read.
        let walk = r#"{"ratios": {"overlap": 0.149, "xfollowing": 0.230, "chain": 0.323}}"#;
        let fresh = tracked_metrics("serialize", &parse(walk).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");

        // The lowest run of the slices clears every row.
        let low = r#"{"ratios": {"overlap": 0.732, "xfollowing": 0.970, "chain": 0.928}}"#;
        let fresh = tracked_metrics("serialize", &parse(low).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");

        let drifted = r#"{"ratios": {"flwor": 0.5}}"#;
        let err = tracked_metrics("serialize", &parse(drifted).unwrap()).unwrap_err();
        assert!(err.contains("flwor"), "{err}");

        let mut metrics = base.clone();
        override_floor(&mut metrics, "serialize:", 1_000_000.0);
        let verdicts = compare(&metrics.clone(), &metrics, 0.25);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");
    }

    #[test]
    fn probe_metrics_gate_the_name_keyed_lookups_hard() {
        let named =
            r#"{"ratios": {"xdescendant": 0.153, "overlapping": 0.14, "xfollowing": 0.376}}"#;
        let base = tracked_metrics("probe", &parse(named).unwrap()).unwrap();
        assert_eq!(base.len(), 3);
        let floor = |name: &str| base.iter().find(|m| m.name == name).unwrap().hard_min;
        assert_eq!(floor("probe:xdescendant:ratio"), Some(0.11));
        assert_eq!(floor("probe:overlapping:ratio"), Some(0.1));
        assert_eq!(floor("probe:xfollowing:ratio"), Some(0.25));

        // The lowest runs of the name-keyed lookups pass.
        let lowest =
            r#"{"ratios": {"xdescendant": 0.147, "overlapping": 0.131, "xfollowing": 0.383}}"#;
        let fresh = tracked_metrics("probe", &parse(lowest).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");

        // The lookups "test every node again": each row falls to the
        // highest a scan of every node's spans, one probe per candidate,
        // read.
        let every_node =
            r#"{"ratios": {"xdescendant": 0.082, "overlapping": 0.087, "xfollowing": 0.174}}"#;
        let fresh = tracked_metrics("probe", &parse(every_node).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");

        let drifted = r#"{"ratios": {"xancestor": 0.5}}"#;
        let err = tracked_metrics("probe", &parse(drifted).unwrap()).unwrap_err();
        assert!(err.contains("xancestor"), "{err}");

        let mut metrics = base.clone();
        override_floor(&mut metrics, "probe:", 1_000_000.0);
        let verdicts = compare(&metrics.clone(), &metrics, 0.25);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");
    }

    #[test]
    fn bindings_metrics_gate_parity_hard() {
        let parity = r#"{"ratios": {"flwor": 1.0, "positional_predicate": 0.97,
            "quantifier": 1.1, "order_by": 0.95}}"#;
        let base = tracked_metrics("bindings", &parse(parity).unwrap()).unwrap();
        assert_eq!(base.len(), 4);
        assert!(base.iter().all(|m| m.hard_min == Some(0.6)), "{base:?}");

        // Bindings "are copied again": each ratio falls to a few hundredths.
        let copied = r#"{"ratios": {"flwor": 0.005, "positional_predicate": 0.022,
            "quantifier": 0.02, "order_by": 0.03}}"#;
        let fresh = tracked_metrics("bindings", &parse(copied).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");

        let drifted = r#"{"ratios": {"group_by": 1.0}}"#;
        let err = tracked_metrics("bindings", &parse(drifted).unwrap()).unwrap_err();
        assert!(err.contains("group_by"), "{err}");
    }

    #[test]
    fn unregistered_plan_row_is_an_error() {
        // A renamed/typo'd bench label must not silently inherit the
        // parity floor — the gate fails loudly until it is registered.
        let drifted = r#"{"speedups": {"fusion_scan": 250.0}}"#;
        let err = tracked_metrics("plan", &parse(drifted).unwrap()).unwrap_err();
        assert!(err.contains("fusion_scan"), "{err}");
    }

    #[test]
    fn identical_snapshots_pass() {
        let base = tracked_metrics("axes", &parse(AXES).unwrap()).unwrap();
        let verdicts = compare(&base, &base, 0.25);
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");
    }

    #[test]
    fn degraded_snapshot_fails() {
        let base = tracked_metrics("axes", &parse(AXES).unwrap()).unwrap();
        // The index "stopped helping": speedups collapse to ~1x.
        let degraded = r#"{
  "axes": [
    {"axis": "xfollowing", "speedup": 1.1},
    {"axis": "overlapping", "speedup": 0.9}
  ]
}"#;
        let fresh = tracked_metrics("axes", &parse(degraded).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");
    }

    #[test]
    fn noise_within_tolerance_or_above_health_floor_passes() {
        let base = tracked_metrics("axes", &parse(AXES).unwrap()).unwrap();
        // 19.5 → 16.0 is within 25%; 678.3 → 400.0 is far past 25% but way
        // above the 5x health floor — neither should flake the gate.
        let wobbly = r#"{
  "axes": [
    {"axis": "xfollowing", "speedup": 16.0},
    {"axis": "overlapping", "speedup": 400.0}
  ]
}"#;
        let fresh = tracked_metrics("axes", &parse(wobbly).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        assert!(verdicts.iter().all(|v| v.passed), "{verdicts:?}");
    }

    #[test]
    fn batch_hard_floor_fails_unconditionally() {
        let base = tracked_metrics("batch", &parse(BATCH).unwrap()).unwrap();
        // Batch slower than per-node on a structurally superior step: even
        // a matching baseline would not save it (hard_min 2.0).
        let broken = r#"{
  "wide_speedups": {
    "xfollowing::*": 1.2,
    "overlapping::*": 0.99,
    "descendant::s0": 58.50
  }
}"#;
        let fresh = tracked_metrics("batch", &parse(broken).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        let failed: Vec<_> = verdicts.iter().filter(|v| !v.passed).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "batch:xfollowing::*:wide_speedup");
    }

    #[test]
    fn missing_metric_fails_new_metric_passes() {
        let base = tracked_metrics("batch", &parse(BATCH).unwrap()).unwrap();
        let reshaped = r#"{
  "wide_speedups": {
    "xfollowing::*": 4100.0,
    "descendant::s0": 60.0,
    "brand-new::*": 3.0
  }
}"#;
        let fresh = tracked_metrics("batch", &parse(reshaped).unwrap()).unwrap();
        let verdicts = compare(&base, &fresh, 0.25);
        let missing = verdicts.iter().find(|v| v.name.contains("overlapping")).unwrap();
        assert!(!missing.passed);
        let new = verdicts.iter().find(|v| v.name.contains("brand-new")).unwrap();
        assert!(new.passed);
    }

    #[test]
    fn batch_floor_override_raises_hard_min() {
        let mut metrics = tracked_metrics("batch", &parse(BATCH).unwrap()).unwrap();
        override_floor(&mut metrics, "batch:", 1_000_000.0);
        let verdicts = compare(&metrics.clone(), &metrics, 0.25);
        // Every batch metric is now below the impossible floor — this is
        // exactly the CI self-test that proves the gate can fail.
        assert!(verdicts.iter().all(|v| !v.passed), "{verdicts:?}");
    }
}
