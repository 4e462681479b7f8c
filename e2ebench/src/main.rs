//! End-to-end benchmark of the `mhxd`/`mhxr` daemons.
//!
//! ```sh
//! bash e2ebench/run.sh --workload wire-small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) print the per-layer metrics. The last line of stdout is
//! one JSON object; the exit code is non-zero on any wrong answer. See
//! `e2ebench/README.md`.

mod corpus;
mod oracle;
mod probe;
mod procs;
mod stats;
mod trace;
mod workload;

use corpus::Doc;
use mhx_json::Json;
use oracle::Oracle;
use stats::Metric;
use std::path::{Path, PathBuf};
use std::process::exit;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where `run.sh` built `mhxd` and `mhxr`.
    pub bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !workload::names().any(|n| n == workload) {
        let known: Vec<_> = workload::names().collect();
        return Err(format!("unknown workload `{workload}` (known: {})", known.join(", ")));
    }
    let seed = get("--seed")?.parse().map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args { workload, seed, seconds, trace, bin_dir: get("--bin-dir")?.into() })
}

/// What a run prints: notes for people, then one JSON line.
pub struct Report {
    header: String,
    corpus: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn checks(&mut self, attempted: u64, failed: u64) {
        self.attempted = attempted;
        self.failed = failed;
    }

    /// Corpus statistics, so two runs can be checked as comparable.
    pub fn corpus(&mut self, docs: &[Doc], oracle: &Oracle, vocabulary: usize) {
        let sum = |f: fn(&oracle::VersionStats) -> f64| oracle.stats.iter().map(|v| f(&v[0])).sum();
        self.corpus = vec![
            ("docs", docs.len() as f64),
            ("versions_per_doc", docs.first().map_or(0, |d| d.versions.len()) as f64),
            ("nodes", sum(|s| s.nodes as f64)),
            ("xml_bytes", sum(|s| s.xml_bytes as f64)),
            ("snapshot_bytes", sum(|s| s.snapshot_bytes as f64)),
            ("vocabulary", vocabulary as f64),
        ];
    }

    /// Split the metrics into those `BENCHMARK.json` lists for this mode
    /// (the result; every one of them must be present) and the rest
    /// (printed as "not gated"), print everything, and save a record under
    /// `.bench_out/`.
    fn finish(&self, args: &Args) -> Result<bool, String> {
        let spec = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e}"))
            .and_then(|s| mhx_json::parse(&s))?;
        let list = if args.trace { "per_layer" } else { "end_to_end" };
        let mut want: Vec<&str> = spec
            .get(list)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no `{list}`"))?
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str))
            .collect();
        let (gated, ungated): (Vec<&Metric>, Vec<&Metric>) =
            self.metrics.iter().partition(|m| want.contains(&m.name.as_str()));
        let mut got: Vec<&str> = gated.iter().map(|m| m.name.as_str()).collect();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            return Err(format!("metrics {got:?} differ from BENCHMARK.json `{list}` {want:?}"));
        }
        let correct =
            self.failed == 0 && self.attempted > 0 && gated.iter().all(|m| m.value.is_finite());

        println!("{}", self.header);
        let corpus: Vec<String> = self.corpus.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("corpus: {}", corpus.join(" "));
        for note in &self.notes {
            println!("{note}");
        }
        println!("{:<40} {:>14} {:<6} {:>8}", "metric", "value", "unit", "samples");
        for m in &gated {
            println!("{:<40} {:>14.4} {:<6} {:>8}", m.name, m.value, m.unit, m.samples);
        }
        for m in &ungated {
            let name = format!("{} (not gated)", m.name);
            println!("{:<40} {:>14.4} {:<6} {:>8}", name, m.value, m.unit, m.samples);
        }
        println!(
            "error_rate {} ({} of {} operations failed or answered wrong)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );

        // Numbers print with all their digits; a non-finite one as null.
        let value = |m: &&Metric| {
            let value = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.into())),
            ];
            (m.name.clone(), Json::Obj(value))
        };
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(gated.iter().map(value).collect())),
        ]);
        let corpus = self.corpus.iter().map(|&(k, v)| (k.to_string(), Json::Num(v)));
        let samples = self.metrics.iter().map(|m| (m.name.clone(), Json::Num(m.samples as f64)));
        let record = Json::Obj(vec![
            ("run".into(), Json::Str(self.header.clone())),
            ("corpus".into(), Json::Obj(corpus.collect())),
            ("samples".into(), Json::Obj(samples.collect())),
            ("ungated".into(), Json::Obj(ungated.iter().map(value).collect())),
            ("result".into(), result.clone()),
        ]);
        let out = Path::new(".bench_out");
        std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
        let file =
            out.join(format!("{}-seed{}-trace{}.json", args.workload, args.seed, args.trace as u8));
        std::fs::write(&file, format!("{record}\n"))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!("record: {}", file.display());
        println!("{result}");
        Ok(correct)
    }
}

/// FNV-1a over the program's sources: identifies the code measured when
/// the checkout is not a git repository.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload NAME --seed N --seconds S --trace 0|1 --bin-dir DIR"
            );
            exit(2);
        }
    };
    procs::install_signal_handlers();
    let nproc = procs::nproc();
    let mut report = Report {
        header: format!(
            "e2ebench workload={} seed={} seconds={} trace={} nproc={nproc} commit={} source={}",
            args.workload,
            args.seed,
            args.seconds,
            args.trace as u8,
            git_commit(),
            source_fingerprint()
        ),
        corpus: Vec::new(),
        notes: Vec::new(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let outcome = workload::run(&args, &mut report).and_then(|()| report.finish(&args));
    match outcome {
        Ok(true) => {}
        Ok(false) => exit(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            exit(1);
        }
    }
}
