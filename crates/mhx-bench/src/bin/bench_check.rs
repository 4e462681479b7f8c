//! `bench-check` — the CI perf-regression gate.
//!
//! Compares freshly emitted bench snapshots against the committed
//! baselines and exits nonzero when a tracked ratio regresses (see
//! `mhx_bench::snapshot` for the exact pass/fail rule). Usage:
//!
//! ```text
//! bench-check --baseline <dir> [--fresh <dir>] [--tolerance 0.25]
//!             [--min-floor <stem> <x>]...
//! bench-check --list
//! ```
//!
//! `--baseline` points at copies of the committed `BENCH_*.json` saved
//! *before* the bench run (the benches overwrite the files in place);
//! `--fresh` (default `.`) at the just-emitted ones. `--min-floor STEM X`
//! (repeatable) raises the unconditional floor on every metric of the
//! `STEM` snapshot (one of `--list`'s stems) to at least `X` — CI passes
//! an impossibly high value for each stem in turn to prove the gate can
//! fail on every snapshot.
//!
//! `--list` prints the tracked snapshot table, one `stem file` pair per
//! line, and exits. This is the **single source of truth** for CI: the
//! workflow derives its baseline-save, bench-run, and artifact steps
//! from this list, so registering a new snapshot here is the only step
//! needed to put it under the gate.

use mhx_bench::snapshot::{compare, override_floor, parse, tracked_metrics, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const SNAPSHOTS: [(&str, &str); 11] = [
    ("axes", "BENCH_axes.json"),
    ("catalog", "BENCH_catalog.json"),
    ("batch", "BENCH_batch.json"),
    ("plan", "BENCH_plan.json"),
    ("serve", "BENCH_serve.json"),
    ("shard", "BENCH_shard.json"),
    ("store", "BENCH_store.json"),
    ("analyze_string", "BENCH_analyze.json"),
    ("bindings", "BENCH_bindings.json"),
    ("serialize", "BENCH_serialize.json"),
    ("probe", "BENCH_probe.json"),
];

struct Args {
    list: bool,
    baseline: Option<PathBuf>,
    fresh: PathBuf,
    tolerance: f64,
    /// `--min-floor` overrides: a snapshot stem and its raised floor.
    floors: Vec<(String, f64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut list = false;
    let mut baseline = None;
    let mut fresh = PathBuf::from(".");
    let mut tolerance = 0.25;
    let mut floors = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} requires a value"));
        let number = |name: &str, v: String| {
            v.parse::<f64>().map_err(|_| format!("{name} must be a number"))
        };
        match flag.as_str() {
            "--list" => list = true,
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline")?)),
            "--fresh" => fresh = PathBuf::from(value("--fresh")?),
            "--tolerance" => tolerance = number("--tolerance", value("--tolerance")?)?,
            "--min-floor" => {
                let stem = value("--min-floor")?;
                if !SNAPSHOTS.iter().any(|(known, _)| *known == stem) {
                    return Err(format!("--min-floor: unknown snapshot stem `{stem}`"));
                }
                floors.push((stem, number("--min-floor", value("--min-floor")?)?));
            }
            "--help" | "-h" => {
                println!(
                    "bench-check --baseline <dir> [--fresh <dir>] [--tolerance 0.25] \
                     [--min-floor <stem> <x>]...\n\
                     bench-check --list    print the tracked `stem file` snapshot table \
                     (CI's single source of truth) and exit"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args { list, baseline, fresh, tolerance, floors })
}

fn load_metrics(dir: &Path, stem: &str, file: &str) -> Result<Vec<Metric>, String> {
    let path = dir.join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    tracked_metrics(stem, &doc)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-check: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for (stem, file) in SNAPSHOTS {
            println!("{stem} {file}");
        }
        return ExitCode::SUCCESS;
    }
    let Some(baseline) = args.baseline else {
        eprintln!("bench-check: --baseline <dir> is required (or --list)");
        return ExitCode::from(2);
    };
    let mut failures = 0usize;
    let mut total = 0usize;
    for (stem, file) in SNAPSHOTS {
        let base = match load_metrics(&baseline, stem, file) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("bench-check: baseline {e}");
                return ExitCode::from(2);
            }
        };
        let mut new = match load_metrics(&args.fresh, stem, file) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("bench-check: fresh {e}");
                return ExitCode::from(2);
            }
        };
        for (floor_stem, min) in &args.floors {
            override_floor(&mut new, &format!("{floor_stem}:"), *min);
        }
        println!("== {file}");
        for verdict in compare(&base, &new, args.tolerance) {
            println!("  {verdict}");
            total += 1;
            if !verdict.passed {
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "bench-check: {failures}/{total} tracked ratios regressed \
             (tolerance {:.0}%)",
            args.tolerance * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!("bench-check: all {total} tracked ratios within tolerance");
        ExitCode::SUCCESS
    }
}
