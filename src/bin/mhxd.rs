//! `mhxd` — the multihierarchical query daemon: serves a document
//! [`Catalog`] over the `mhxd` HTTP/1.1 wire protocol.
//!
//! ```sh
//! mhxd --listen 127.0.0.1:7077 --workers 8 \
//!      --doc a -h lines=a1.xml -h words=a2.xml \
//!      --doc b=encoding.xml --figure1
//! ```
//!
//! Document flags work exactly like `mhxq`'s: each `--doc ID` starts a
//! document, `-h NAME=FILE` adds hierarchies to it, `--doc ID=FILE` is the
//! single-hierarchy shorthand, `--figure1` registers the built-in corpus.
//! Clients can also upload documents at runtime (`PUT /documents/{id}`).
//!
//! Shutdown is graceful on SIGINT/SIGTERM or `POST /shutdown`: the
//! listener stops accepting, in-flight queries finish, every response in
//! progress is completed, then the process exits.

use multihier_xquery::corpus::figure1;
use multihier_xquery::goddag::GoddagBuilder;
use multihier_xquery::prelude::Catalog;
use multihier_xquery::server::{signal, Server, ServerConfig};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: mhxd [--listen ADDR] [--workers N] [--doc ID[=FILE]]... [-h NAME=FILE]...\n\
         \x20           [--figure1] [--data-dir DIR] [--memory-budget BYTES] [--max-idle SECS]\n\
         \n\
         --listen ADDR          bind address (default 127.0.0.1:7077; port 0 = ephemeral)\n\
         --workers N            dispatch worker threads — the concurrent request\n\
         \x20                     execution bound; connections are evented (default 8)\n\
         --doc ID               start document ID; following -h flags attach to it\n\
         --doc ID=FILE          register document ID from a single XML file\n\
         -h NAME=FILE           add hierarchy NAME from XML file FILE (repeatable)\n\
         --figure1              add the built-in Figure-1 manuscript corpus as a document\n\
         --data-dir DIR         persist documents as columnar snapshots in DIR and\n\
         \x20                     replay what's there at boot (loaded lazily on first query)\n\
         --memory-budget BYTES  evict least-recently-queried documents from RAM when\n\
         \x20                     resident snapshots exceed BYTES (requires --data-dir)\n\
         --max-idle SECS        close keep-alive connections idle longer than SECS"
    );
    exit(2);
}

fn read_file(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            exit(2);
        }
    }
}

/// One document being assembled from CLI flags (mirrors `mhxq`).
struct DocSpec {
    id: String,
    hierarchies: Vec<(String, String)>,
    prebuilt: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = "127.0.0.1:7077".to_string();
    let mut config = ServerConfig::default();
    let mut docs: Vec<DocSpec> = Vec::new();
    let mut data_dir: Option<String> = None;
    let mut memory_budget: Option<u64> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                let Some(addr) = args.get(i) else { usage() };
                listen = addr.clone();
            }
            "--workers" | "--threads" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()) else { usage() };
                config.workers = n;
            }
            "--doc" => {
                i += 1;
                let Some(spec) = args.get(i) else { usage() };
                match spec.split_once('=') {
                    Some((id, path)) => docs.push(DocSpec {
                        id: id.to_string(),
                        hierarchies: vec![("doc".to_string(), read_file(path))],
                        prebuilt: false,
                    }),
                    None => docs.push(DocSpec {
                        id: spec.clone(),
                        hierarchies: Vec::new(),
                        prebuilt: false,
                    }),
                }
            }
            "-h" | "--hierarchy" => {
                i += 1;
                let Some(spec) = args.get(i) else { usage() };
                let Some((name, path)) = spec.split_once('=') else {
                    eprintln!("-h needs NAME=FILE, got `{spec}`");
                    exit(2);
                };
                let src = read_file(path);
                if docs.is_empty() {
                    docs.push(DocSpec {
                        id: "main".to_string(),
                        hierarchies: Vec::new(),
                        prebuilt: false,
                    });
                }
                let doc = docs.last_mut().expect("just ensured non-empty");
                if doc.prebuilt {
                    eprintln!("document `{}` is prebuilt (--figure1); start a new --doc", doc.id);
                    exit(2);
                }
                doc.hierarchies.push((name.to_string(), src));
            }
            "--figure1" => docs.push(DocSpec {
                id: "figure1".to_string(),
                hierarchies: Vec::new(),
                prebuilt: true,
            }),
            "--data-dir" => {
                i += 1;
                let Some(dir) = args.get(i) else { usage() };
                data_dir = Some(dir.clone());
            }
            "--memory-budget" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse().ok()) else { usage() };
                memory_budget = Some(n);
            }
            "--max-idle" => {
                i += 1;
                let Some(secs) = args.get(i).and_then(|v| v.parse::<f64>().ok()) else { usage() };
                if !secs.is_finite() || secs <= 0.0 {
                    eprintln!("--max-idle needs a positive number of seconds");
                    exit(2);
                }
                config.max_idle = Some(Duration::from_secs_f64(secs));
            }
            "--help" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
        i += 1;
    }

    if memory_budget.is_some() && data_dir.is_none() {
        eprintln!("--memory-budget requires --data-dir (evicted documents reload from disk)");
        exit(2);
    }

    let catalog = Arc::new(Catalog::new());
    if let Some(dir) = &data_dir {
        // Replay before CLI preloads: a `--doc` of the same id overwrites
        // the stored snapshot, which is the intuitive precedence.
        match catalog.attach_store(dir, memory_budget) {
            Ok(replayed) if replayed.is_empty() => {}
            Ok(replayed) => eprintln!(
                "mhxd: data dir {dir} holds {} snapshot(s), loaded lazily on first query",
                replayed.len()
            ),
            Err(e) => {
                eprintln!("cannot open data dir {dir}: {e}");
                exit(1);
            }
        }
    }
    // With a store attached, `put` persists each preloaded document too.
    let register = |id: &str, g| {
        if catalog.store_attached() {
            if let Err(e) = catalog.put(id, g) {
                eprintln!("persisting document `{id}` failed: {e}");
                exit(1);
            }
        } else {
            catalog.insert(id, g);
        }
    };
    for d in &docs {
        if d.prebuilt {
            register(&d.id, figure1::goddag());
            continue;
        }
        if d.hierarchies.is_empty() {
            eprintln!("document `{}` has no hierarchies (add -h NAME=FILE after --doc)", d.id);
            exit(2);
        }
        let mut b = GoddagBuilder::new();
        for (name, src) in &d.hierarchies {
            b = b.hierarchy(name.clone(), src.clone());
        }
        match b.build() {
            Ok(g) => register(&d.id, g),
            Err(e) => {
                eprintln!("building document `{}` failed: {e}", d.id);
                exit(1);
            }
        }
    }

    signal::install();
    let workers = config.workers;
    let server = match Server::bind(Arc::clone(&catalog), &listen, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            exit(1);
        }
    };
    eprintln!(
        "mhxd: serving {} document(s) on http://{} with {workers} workers (evented)",
        catalog.len(),
        server.addr(),
    );

    signal::wait_for_shutdown(|| server.shutdown_requested());
    eprintln!("mhxd: draining ({} in flight)…", catalog.in_flight());
    let drained = server.shutdown();
    let stats = catalog.cache_stats();
    eprintln!(
        "mhxd: stopped ({}; plan cache: {} hits, {} misses)",
        if drained { "drained cleanly" } else { "drain timed out" },
        stats.hits,
        stats.misses,
    );
    exit(if drained { 0 } else { 1 });
}
