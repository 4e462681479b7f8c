//! E17 — shard routing: aggregate throughput of a routing `Server` over two
//! `Server` backends vs a single node of the same size.
//!
//! The load generator is the same think-time client swarm as
//! `benches/serve.rs` (a remote client is never back-to-back on
//! loopback), but the serving side differs: the single-node pass gives
//! one server the whole corpus, the sharded pass splits the corpus 4/4
//! across two servers behind a router. The snapshot (`BENCH_shard.json`)
//! tracks two throughput ratios:
//!
//! * `shard2_vs_single` — aggregate throughput of the 8-client swarm
//!   through the router over two 2-worker shards vs the same swarm on
//!   one 2-worker server. Sharding buys capacity by splitting both the
//!   documents and the worker pools; the CI hard floor (> 1.0) is the
//!   PR's acceptance bar: scatter/gather must add capacity, not just
//!   indirection.
//! * `routed_vs_direct` — sequential single-client throughput through
//!   the router vs straight to the shard holding the document, its passes
//!   interleaved and each side's fastest kept ([`mhx_bench::time_pair`]).
//!   This prices one routed hop (an extra TCP leg + envelope re-framing);
//!   it gates well below 1.0 because the hop is pure overhead — the gate
//!   only requires it to stay modest.

use criterion::{criterion_group, criterion_main, Criterion};
use mhx_bench::time_pair;
use mhx_corpus::{generate, GeneratedDoc, GeneratorConfig};
use multihier_xquery::prelude::Catalog;
use multihier_xquery::server::client::Client;
use multihier_xquery::server::{BackendPool, Server, ServerConfig};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Worker threads per serving node (shard or single). Kept small so the
/// routed pass wins on capacity, not on an unfairly larger pool; the
/// single-node pass uses the same figure.
const NODE_WORKERS: usize = 2;
/// Concurrent swarm: clients × requests with per-request think time.
const CLIENTS: usize = 8;
const REQUESTS: usize = 25;
const THINK: Duration = Duration::from_millis(2);
/// Documents in the corpus — split 4/4 in the sharded pass.
const DOCS: usize = 8;
/// Sequential requests per pass for the routed-hop overhead measurement.
const SEQ_REQUESTS: usize = 150;
/// Timed passes per side of the routed-hop measurement.
const SEQ_PASSES: usize = 6;

/// Moderate query, same shape as the serve bench's scaling workload.
const SERVE_QUERY: &str = "for $x in /descendant::e1[overlapping::e0] let $s := string($x) \
     where string-length($s) > 4 return '#'";

fn corpus_doc() -> GeneratedDoc {
    generate(&GeneratorConfig {
        seed: 0x5E21E,
        text_len: 1_200,
        hierarchies: 3,
        boundary_jitter: 0.7,
        avg_element_len: 30,
        ..Default::default()
    })
}

/// Doc ids balanced exactly `DOCS/2` per shard under the live ring —
/// chosen by probing the pool's own placement, so the sharded pass
/// measures a balanced cluster rather than hash luck.
fn balanced_ids(pool: &BackendPool) -> Vec<String> {
    let per_shard = DOCS / 2;
    let mut counts = [0usize; 2];
    let mut ids = Vec::with_capacity(DOCS);
    for i in 0..10_000 {
        if ids.len() == DOCS {
            break;
        }
        let id = format!("doc{i}");
        let shard = pool.replica_set(&id)[0];
        if counts[shard] < per_shard {
            counts[shard] += 1;
            ids.push(id);
        }
    }
    assert_eq!(ids.len(), DOCS, "the ring places ids on both shards");
    ids
}

fn boot_node(workers: usize) -> Server {
    let config = ServerConfig {
        workers,
        poll_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    Server::bind(Arc::new(Catalog::new()), "127.0.0.1:0", config).expect("bind ephemeral port")
}

fn upload(addr: &str, doc: &GeneratedDoc, ids: &[String]) {
    let mut client = Client::connect(addr).expect("connect for upload");
    let pairs: Vec<(&str, &str)> =
        doc.encodings.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
    for id in ids {
        client.put_document(id, &pairs).expect("upload");
    }
}

fn median_secs(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Wall time for `CLIENTS` concurrent keep-alive connections, each doing
/// `requests` queries against its own document with `THINK` of
/// client-side work between them.
fn timed_swarm_pass(addr: &str, ids: &[String], requests: usize) -> f64 {
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.to_string();
            let id = ids[c % ids.len()].clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                barrier.wait();
                for _ in 0..requests {
                    let out = client.xquery(&id, SERVE_QUERY).expect("query");
                    black_box(out.serialized.len());
                    thread::sleep(THINK);
                }
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("client thread");
    }
    t0.elapsed().as_secs_f64()
}

/// Median swarm wall time over 3 samples, after one small warm pass.
fn swarm_secs(addr: &str, ids: &[String]) -> f64 {
    timed_swarm_pass(addr, ids, 2);
    let mut samples: Vec<f64> = (0..3).map(|_| timed_swarm_pass(addr, ids, REQUESTS)).collect();
    median_secs(&mut samples)
}

/// Sequential wall time for `SEQ_REQUESTS` keep-alive requests through
/// `routed` and straight to `direct`: one pass each to warm up, then
/// `SEQ_PASSES` per side with the sides alternating, each side's fastest
/// pass kept.
fn routed_and_direct_secs(routed: &str, direct: &str, id: &str) -> (f64, f64) {
    let pass = |client: &mut Client| {
        for _ in 0..SEQ_REQUESTS {
            black_box(client.xquery(id, SERVE_QUERY).expect("query").serialized.len());
        }
    };
    let mut via_router = Client::connect(routed).expect("connect");
    let mut straight = Client::connect(direct).expect("connect");
    let (routed_ns, direct_ns) =
        time_pair(SEQ_PASSES, || pass(&mut via_router), || pass(&mut straight));
    (routed_ns / 1e9, direct_ns / 1e9)
}

fn shard_benches(c: &mut Criterion) {
    let doc = corpus_doc();
    let shard = boot_node(NODE_WORKERS);
    let pool = Arc::new(BackendPool::new(vec![shard.addr().to_string()], 1));
    let router = Server::bind_router(Arc::clone(&pool), "127.0.0.1:0", ServerConfig::default())
        .expect("bind router");
    let router_addr = router.addr().to_string();
    upload(&router_addr, &doc, &["doc".to_string()]);

    let mut client = Client::connect(&router_addr).expect("connect");
    client.xquery("doc", SERVE_QUERY).expect("warm");
    let mut grp = c.benchmark_group("e17_shard");
    grp.sample_size(10).measurement_time(Duration::from_millis(800));
    grp.bench_function("routed_request_keepalive", |b| {
        b.iter(|| black_box(client.xquery("doc", SERVE_QUERY).expect("query").serialized.len()))
    });
    grp.finish();
    drop(client);
    router.shutdown();
    shard.shutdown();
}

/// The snapshot: aggregate scaling and routed-hop overhead, written to
/// `BENCH_shard.json` at the workspace root.
fn emit_snapshot(_c: &mut Criterion) {
    let doc = corpus_doc();

    // --- sharded pass: 2 nodes behind a router ---------------------
    let s0 = boot_node(NODE_WORKERS);
    let s1 = boot_node(NODE_WORKERS);
    let pool = Arc::new(BackendPool::new(vec![s0.addr().to_string(), s1.addr().to_string()], 1));
    // Router workers sized to the swarm: one long-lived connection per
    // client must fit without queueing behind each other.
    let router_config = ServerConfig { workers: CLIENTS, ..ServerConfig::default() };
    let router =
        Server::bind_router(Arc::clone(&pool), "127.0.0.1:0", router_config).expect("bind router");
    let router_addr = router.addr().to_string();
    let ids = balanced_ids(&pool);
    upload(&router_addr, &doc, &ids);
    let sharded_secs = swarm_secs(&router_addr, &ids);

    // --- routed-hop overhead (sequential, same cluster) ------------
    let direct_addr = pool.addr(pool.replica_set(&ids[0])[0]).to_string();
    let (routed_seq, direct_seq) = routed_and_direct_secs(&router_addr, &direct_addr, &ids[0]);
    let routed_vs_direct = direct_seq / routed_seq;
    router.shutdown();
    s0.shutdown();
    s1.shutdown();

    // --- single-node pass: same corpus, same swarm, one node -------
    let single = boot_node(NODE_WORKERS);
    let single_addr = single.addr().to_string();
    upload(&single_addr, &doc, &ids);
    let single_secs = swarm_secs(&single_addr, &ids);
    single.shutdown();

    let swarm_requests = (CLIENTS * REQUESTS) as f64;
    let shard2_vs_single = single_secs / sharded_secs;
    let rps = |secs: f64, requests: f64| requests / secs;
    let json = format!(
        "{{\n  \"bench\": \"shard\",\n  \"shards\": 2,\n  \"node_workers\": {NODE_WORKERS},\n  \
         \"clients\": {CLIENTS},\n  \"requests_per_client\": {REQUESTS},\n  \
         \"think_time_ms\": {},\n  \"docs\": {DOCS},\n  \"replicas\": 1,\n  \
         \"throughput_rps\": {{\n    \"single_node\": {:.0},\n    \"sharded\": {:.0},\n    \
         \"routed_seq\": {:.0},\n    \"direct_seq\": {:.0}\n  }},\n  \
         \"ratios\": {{\n    \"shard2_vs_single\": {shard2_vs_single:.2},\n    \
         \"routed_vs_direct\": {routed_vs_direct:.2}\n  }}\n}}\n",
        THINK.as_millis(),
        rps(single_secs, swarm_requests),
        rps(sharded_secs, swarm_requests),
        rps(routed_seq, SEQ_REQUESTS as f64),
        rps(direct_seq, SEQ_REQUESTS as f64),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json");
    std::fs::write(path, &json).expect("write BENCH_shard.json");
    println!(
        "scaling: {CLIENTS} clients × {REQUESTS} reqs, single node {single_secs:.3}s vs \
         2 shards {sharded_secs:.3}s → {shard2_vs_single:.2}x"
    );
    println!(
        "routed {:.0} rps vs direct {:.0} rps → {routed_vs_direct:.2}x",
        rps(routed_seq, SEQ_REQUESTS as f64),
        rps(direct_seq, SEQ_REQUESTS as f64),
    );
    println!("wrote {path}");
}

criterion_group!(benches, shard_benches, emit_snapshot);
criterion_main!(benches);
