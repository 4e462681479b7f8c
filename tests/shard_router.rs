//! Multi-process integration tests for the `mhxr` shard router: real
//! `mhxd` shard processes and a real `mhxr` router process talking over
//! real TCP (spawned via the `CARGO_BIN_EXE_*` paths cargo provides to
//! integration tests). This is the deployment shape CI gates on —
//! routing determinism, scatter/gather merges, kill-one-shard failover
//! onto replicas, and a graceful shard drain that never truncates a
//! client response.

use mhx_json::Json;
use multihier_xquery::engine::QueryLang;
use multihier_xquery::server::client::{Client, ClientError};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A spawned daemon, the address it reported on stderr, and the thread
/// that reads the rest of its stderr.
struct Proc {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<String>>,
}

impl Proc {
    /// Hard kill (SIGKILL) — the "shard machine died" failure mode.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Wait for a clean exit, failing the test on a timeout or a
    /// non-zero status — the graceful-drain success mode.
    fn wait_clean(mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "process exited uncleanly: {status}");
                    return;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("process did not exit within {timeout:?}");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// SIGTERM through the `kill` command, then a clean exit; returns what
    /// the process wrote to stderr after its startup line.
    fn terminate(mut self) -> String {
        let pid = self.child.id().to_string();
        let status = Command::new("kill").args(["-TERM", &pid]).status().expect("run kill");
        assert!(status.success(), "kill -TERM {pid}: {status}");
        let stderr = self.stderr.take().expect("stderr reader");
        self.wait_clean(Duration::from_secs(10));
        stderr.join().expect("stderr reader thread")
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // Failed tests must not leak daemons; kill after wait is a no-op.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `bin`, parse the ephemeral bound address from its startup line
/// (`… on http://ADDR …`), and keep reading stderr in the background so
/// the child never blocks on a full pipe.
fn spawn(bin: &str, args: &[String]) -> Proc {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut reader = BufReader::new(stderr);
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        if let Some(ix) = line.find("http://") {
            let rest = &line[ix + "http://".len()..];
            let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
            addr = Some(rest[..end].to_string());
            break;
        }
        line.clear();
    }
    let stderr = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        rest
    });
    let addr = addr.expect("daemon printed its bound address on stderr");
    Proc { child, addr, stderr: Some(stderr) }
}

fn spawn_shard() -> Proc {
    // Shard connections are evented, so workers bound concurrent request
    // execution, not how many router/backend connections can be open —
    // 8 keeps the hammer tests genuinely parallel on the shard side.
    let args: Vec<String> =
        ["--listen", "127.0.0.1:0", "--workers", "8"].map(String::from).to_vec();
    spawn(env!("CARGO_BIN_EXE_mhxd"), &args)
}

fn spawn_router(shards: &[&Proc], replicas: usize) -> Proc {
    let mut args: Vec<String> =
        ["--listen", "127.0.0.1:0", "--workers", "4"].map(String::from).to_vec();
    args.push("--replicas".into());
    args.push(replicas.to_string());
    for s in shards {
        args.push("--shard".into());
        args.push(s.addr.clone());
    }
    spawn(env!("CARGO_BIN_EXE_mhxr"), &args)
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).expect("connect")
}

/// Upload a small single-hierarchy document through `client` whose first
/// word *is* the document id — so a routed query proves the router
/// fetched the right document, not just any document.
fn upload(client: &mut Client, id: &str) {
    let xml = format!("<r><w>{id}</w><w>x</w></r>");
    client.put_document(id, &[("w", &xml)]).expect("upload");
}

/// XPath for a document's first word: its marker.
const FIRST_WORD: &str = "string((/descendant::w)[1])";

/// The marker word of `id` as served through `client`.
fn first_word(client: &mut Client, id: &str) -> Result<String, ClientError> {
    client.xpath(id, FIRST_WORD).map(|out| out.serialized)
}

#[test]
fn routing_is_deterministic_and_scatter_gather_merges() {
    let s0 = spawn_shard();
    let s1 = spawn_shard();
    let router = spawn_router(&[&s0, &s1], 1);
    let mut client = connect(&router.addr);

    // Upload until both shards hold at least two documents (placement is
    // hash-driven, so the count per shard varies — the bounded loop kills
    // the astronomically-unlikely all-on-one-shard skew instead of
    // flaking on it).
    let mut uploaded = BTreeSet::new();
    for i in 0..40 {
        let id = format!("d{i}");
        upload(&mut client, &id);
        uploaded.insert(id);
        let held0 = connect(&s0.addr).documents().unwrap().len();
        let held1 = connect(&s1.addr).documents().unwrap().len();
        if held0 >= 2 && held1 >= 2 {
            break;
        }
    }

    // With --replicas 1 each document lives on exactly one shard: the
    // direct listings are disjoint and their union is what the router's
    // scatter/gather merge reports.
    let docs0: BTreeSet<String> = connect(&s0.addr).documents().unwrap().into_iter().collect();
    let docs1: BTreeSet<String> = connect(&s1.addr).documents().unwrap().into_iter().collect();
    assert!(docs0.intersection(&docs1).next().is_none(), "replicas=1 must not duplicate");
    assert!(docs0.len() >= 2 && docs1.len() >= 2, "both shards hold documents");
    let union: BTreeSet<String> = docs0.union(&docs1).cloned().collect();
    assert_eq!(union, uploaded);
    let merged: BTreeSet<String> = client.documents().unwrap().into_iter().collect();
    assert_eq!(merged, uploaded, "router /documents merges the shard listings");
    // Each merged entry is the owning shard's own object: residency and
    // snapshot size travel through the router unchanged.
    let direct: Vec<(String, String, u64)> =
        [&s0, &s1].iter().flat_map(|s| connect(&s.addr).document_status().unwrap()).collect();
    for entry in client.document_status().unwrap() {
        assert_eq!(entry.1, "resident", "{entry:?}");
        assert!(direct.contains(&entry), "{entry:?} is a shard's own entry");
    }

    // Every document is queryable through the router, with its own
    // content (each answer embeds its id).
    for id in &uploaded {
        assert_eq!(first_word(&mut client, id).unwrap(), *id);
    }

    // Routing determinism: a *fresh* router over the same shard list —
    // no upload history, placement known only from the hash ring — must
    // find every document where the first router put it.
    let router2 = spawn_router(&[&s0, &s1], 1);
    let mut client2 = connect(&router2.addr);
    for id in &uploaded {
        assert_eq!(first_word(&mut client2, id).unwrap(), *id);
    }

    // Scatter/gather /stats: one row per shard plus router health.
    let stats = client2.stats().unwrap();
    let shards = stats.get("shards").and_then(Json::as_arr).unwrap();
    assert_eq!(shards.len(), 2);
    let backends =
        stats.get("router").and_then(|r| r.get("backends")).and_then(Json::as_arr).unwrap();
    assert_eq!(backends.len(), 2);
    let total_docs =
        stats.get("totals").and_then(|t| t.get("shard_documents")).and_then(Json::as_u64);
    assert_eq!(total_docs, Some(uploaded.len() as u64));
}

#[test]
fn killing_a_shard_fails_over_to_replicas_until_none_remain() {
    let mut shards = [spawn_shard(), spawn_shard(), spawn_shard()];
    let router = spawn_router(&[&shards[0], &shards[1], &shards[2]], 2);
    let mut client = connect(&router.addr);

    // Upload through the router; the response names the shards holding
    // each replica, so the failover assertions below are deterministic.
    let mut placements: Vec<(String, Vec<String>)> = Vec::new();
    for i in 0..12 {
        let id = format!("d{i}");
        let xml = format!("<r><w>{id}</w><w>x</w></r>");
        let body = Json::Obj(vec![(
            "hierarchies".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::Str("w".into())),
                ("xml".into(), Json::Str(xml)),
            ])]),
        )]);
        let json = client.call("PUT", &format!("/documents/{id}"), Some(&body)).unwrap();
        assert_eq!(json.get("replicas").and_then(Json::as_u64), Some(2), "{json}");
        let holders = json
            .get("shards")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|s| s.as_str().map(str::to_string))
            .collect();
        placements.push((id, holders));
    }
    let victim = shards[0].addr.clone();
    assert!(
        placements.iter().any(|(_, held)| held.contains(&victim)),
        "12 uploads across 3 shards always land some replica on the victim"
    );
    // A statement prepared before the kill must keep working after it.
    let handle = client.prepare(QueryLang::XPath, FIRST_WORD).expect("prepare");

    // SIGKILL one shard — no drain, no goodbye. Every document must still
    // answer through the router via its surviving replica, ad hoc and
    // through the prepared handle alike.
    shards[0].kill();
    for (id, _) in &placements {
        assert_eq!(first_word(&mut client, id).unwrap(), *id, "failover for {id}");
        let out = client.execute(handle, Some(id)).expect("execute after failover");
        assert_eq!(out.serialized, *id, "prepared failover for {id}");
    }
    let stats = client.stats().unwrap();
    let failovers =
        stats.get("router").and_then(|r| r.get("failovers")).and_then(Json::as_u64).unwrap();
    assert!(failovers >= 1, "the dead shard's documents failed over: {stats}");
    let backends =
        stats.get("router").and_then(|r| r.get("backends")).and_then(Json::as_arr).unwrap();
    let dead = backends
        .iter()
        .find(|b| b.get("addr").and_then(Json::as_str) == Some(victim.as_str()))
        .unwrap();
    assert_eq!(dead.get("healthy").and_then(Json::as_bool), Some(false), "{stats}");

    // Kill the remaining shards: now every replica set is exhausted and
    // the router surfaces its distinct 502/bad_gateway — not a hang, not
    // a shutting_down masquerade.
    shards[1].kill();
    shards[2].kill();
    for err in [
        first_word(&mut client, &placements[0].0).unwrap_err(),
        client.execute(handle, Some(&placements[0].0)).unwrap_err(),
    ] {
        match &err {
            ClientError::Server { status: 502, kind, .. } => assert_eq!(kind, "bad_gateway"),
            other => panic!("expected bad_gateway after total loss, got {other:?}"),
        }
        assert!(!err.is_retryable());
    }
}

#[test]
fn graceful_shard_drain_never_truncates_a_routed_response() {
    let s0 = spawn_shard();
    let s1 = spawn_shard();
    let router = spawn_router(&[&s0, &s1], 2);
    let mut client = connect(&router.addr);

    let ids: Vec<String> = (0..4).map(|i| format!("d{i}")).collect();
    for id in &ids {
        upload(&mut client, id);
    }
    // Free the upload connection's router worker (and its backend
    // connections) before the hammer clients claim the pool.
    drop(client);

    // Hammer the router from four clients while one shard drains
    // mid-flight. Replication covers every document, so the router's
    // failover must hide the drain completely: every single response
    // arrives complete and correct.
    let router_addr = router.addr.clone();
    let workers: Vec<_> = ids
        .iter()
        .map(|id| {
            let id = id.clone();
            let addr = router_addr.clone();
            std::thread::spawn(move || {
                let mut client = connect(&addr);
                for round in 0..100 {
                    match first_word(&mut client, &id) {
                        Ok(word) => assert_eq!(word, id, "round {round}"),
                        Err(e) => panic!("round {round} for {id}: {e}"),
                    }
                }
                100u32
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    connect(&s1.addr).shutdown_server().expect("request drain");

    let completed: u32 = workers.into_iter().map(|w| w.join().expect("client thread")).sum();
    assert_eq!(completed, 400, "every request completed despite the drain");

    // The drained shard exits cleanly (drain completed, nothing
    // truncated server-side either).
    s1.wait_clean(Duration::from_secs(10));
}

#[test]
fn router_drains_promptly_under_an_idle_connection_fleet() {
    let s0 = spawn_shard();
    let router = spawn_router(&[&s0], 1);
    let mut client = connect(&router.addr);
    upload(&mut client, "fleet-doc");

    // Park 100 idle keep-alive connections on the router — far beyond its
    // 4 workers. Evented, they hold table entries, not worker threads.
    let mut fleet: Vec<TcpStream> = (0..100)
        .map(|_| {
            let s = TcpStream::connect(&router.addr).expect("park connection");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let accepted = client
            .stats()
            .expect("stats")
            .get("router")
            .and_then(|r| r.get("connections_accepted"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        // The fleet plus this client's own connection.
        if accepted >= 101 {
            break;
        }
        assert!(Instant::now() < deadline, "fleet never fully accepted ({accepted})");
        std::thread::sleep(Duration::from_millis(20));
    }

    // A real request still routes while the fleet sits parked.
    assert_eq!(first_word(&mut client, "fleet-doc").expect("routed query"), "fleet-doc");

    // Drain: the router must close the whole idle fleet and exit within
    // the harness timeout, not linger on 100 dead-weight sockets.
    client.shutdown_server().expect("request drain");
    drop(client);
    router.wait_clean(Duration::from_secs(10));

    // Every parked connection saw a clean EOF, not a hang or garbage.
    for s in &mut fleet {
        let mut buf = [0u8; 64];
        assert_eq!(s.read(&mut buf).expect("fleet socket readable"), 0, "expected EOF");
    }
    // `s0` keeps serving — a router drain never touches the shards; its
    // `Drop` impl reaps the process.
}

#[test]
fn sigterm_drains_each_daemon_and_exits_cleanly() {
    let shard = spawn_shard();
    let router = spawn_router(&[&shard], 1);
    let mut client = connect(&router.addr);
    upload(&mut client, "sig-doc");
    assert_eq!(first_word(&mut client, "sig-doc").expect("routed query"), "sig-doc");
    drop(client);
    // The router first, so that it never sees its shard go away.
    for (daemon, name) in [(router, "mhxr"), (shard, "mhxd")] {
        let stderr = daemon.terminate();
        assert!(stderr.contains(&format!("{name}: stopped")), "{name} stderr: {stderr}");
    }
}
