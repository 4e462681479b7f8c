//! `mhxr` — the shard router: one wire-protocol front end over N `mhxd`
//! backends, with consistent-hash document placement, `--replicas K`
//! replication, and drain-aware failover.
//!
//! ```sh
//! mhxd --listen 127.0.0.1:7081 &
//! mhxd --listen 127.0.0.1:7082 &
//! mhxr --listen 127.0.0.1:7077 \
//!      --shard 127.0.0.1:7081 --shard 127.0.0.1:7082 --replicas 2
//! ```
//!
//! Clients talk to the router exactly as they would to a single `mhxd`
//! (`mhxq --connect`, `server::client::Client`, plain curl). Shutdown is
//! graceful on SIGINT/SIGTERM or `POST /shutdown`: the router stops
//! accepting, completes every response in progress, and exits — the
//! shards keep running.

use multihier_xquery::server::client::Client;
use multihier_xquery::server::{signal, BackendPool, Server, ServerConfig};
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: mhxr [--listen ADDR] [--workers N] [--replicas K] --shard ADDR [--shard ADDR]...\n\
         \n\
         --listen ADDR      bind address (default 127.0.0.1:7077; port 0 = ephemeral)\n\
         --workers N        dispatch worker threads — the concurrent request\n\
         \x20                 execution bound; client connections are evented and\n\
         \x20                 backend connections pooled (default 8)\n\
         --shard ADDR       a backend mhxd address (repeatable; at least one required)\n\
         --replicas K       upload each document to K shards and round-robin reads\n\
         \x20                  (default 1; clamped to the shard count)"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = "127.0.0.1:7077".to_string();
    let mut config = ServerConfig::default();
    let mut shards: Vec<String> = Vec::new();
    let mut replicas = 1usize;

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
            "--shard" => {
                i += 1;
                let Some(addr) = args.get(i) else { usage() };
                shards.push(addr.clone());
            }
            "--replicas" => {
                i += 1;
                let Some(k) = args.get(i).and_then(|v| v.parse().ok()) else { usage() };
                replicas = k;
            }
            "--help" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
        i += 1;
    }

    if shards.is_empty() {
        eprintln!("mhxr: at least one --shard ADDR is required");
        usage();
    }

    // Probe each shard once so an operator typo is visible immediately;
    // a down shard is only a warning — it may come up later, and its
    // documents' replicas cover for it meanwhile.
    for addr in &shards {
        let probe = Client::connect(addr).and_then(|mut c| {
            c.call("GET", "/healthz", None)
                .map(|_| ())
                .map_err(|e| std::io::Error::other(e.to_string()))
        });
        if let Err(e) = probe {
            eprintln!("mhxr: warning: shard {addr} is not answering /healthz yet: {e}");
        }
    }

    let pool = Arc::new(BackendPool::new(shards, replicas));
    signal::install();
    let workers = config.workers;
    let router = match Server::bind_router(Arc::clone(&pool), &listen, config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            exit(1);
        }
    };
    eprintln!(
        "mhxr: routing {} shard(s) on http://{} with {workers} workers (evented, replicas={})",
        pool.len(),
        router.addr(),
        pool.replicas(),
    );

    signal::wait_for_shutdown(|| router.shutdown_requested());
    let health = pool.health_snapshot();
    let healthy = health.iter().filter(|h| h.healthy).count();
    eprintln!("mhxr: draining…");
    router.shutdown();
    eprintln!("mhxr: stopped ({healthy}/{} backends were healthy)", health.len());
}
