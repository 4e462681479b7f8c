//! The three workloads: how each deploys the daemons, what traffic it
//! sends, and the end-to-end metrics it reports.

use crate::corpus::{self, cumulative, mix, pick, Class, Doc, Query};
use crate::oracle::{corrupted, matches, Oracle};
use crate::procs::{self, check_interrupt, Daemon, RunDir};
use crate::stats::{median, quantile, Metric};
use crate::trace::Tracer;
use crate::{probe, Args, Report};
use mhx_json::Json;
use multihier_xquery::server::client::Client;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Load-generator threads, and so connections: the machine's 2 cores.
const CLIENTS: usize = 2;
/// Daemon dispatch workers.
const WORKERS: &str = "2";
/// Rounds of set-up, traffic and tear-down in an untraced run.
const ROUNDS: usize = 9;
/// Uploads timed per round in the re-upload passes, at least.
const MIN_UPLOADS: usize = 16;
/// Traced runs alternate blocks of this many requests with and without
/// spans, so the tracing overhead is measured under the same conditions.
const TRACE_BLOCK: usize = 64;

enum Arrival {
    /// Requests due at a fixed rate, whatever the replies do.
    Open { rate: f64 },
    /// Each client sends its next request when the previous one returns.
    Closed,
}

#[derive(PartialEq)]
enum Topology {
    /// `mhxr --replicas 1` over two `mhxd` backends.
    Routed,
    /// One `mhxd`, all in memory.
    Direct,
    /// One `mhxd --data-dir … --memory-budget ¼ of the snapshots`.
    Stored,
}

pub struct Workload {
    name: &'static str,
    docs: usize,
    text_len: usize,
    /// Versions per document; uploads alternate between them.
    versions: usize,
    /// Fixed query classes and their weights.
    fixed: &'static [(Class, f64)],
    /// Weights of the other operations, on the same scale as `fixed`.
    literal: f64,
    execute: f64,
    fresh: f64,
    put: f64,
    /// Zipf exponent of each client's document choice (0: uniform).
    zipf: f64,
    /// Each client owns the documents `i % CLIENTS == client`, so a
    /// document is never read while another client replaces it.
    partitioned: bool,
    topology: Topology,
    arrival: Arrival,
}

const WORKLOADS: [Workload; 3] = [
    // Public reading-room traffic: evaluation is a few µs, so the server,
    // router, JSON and plan-cache layers dominate. The rate is a quarter of
    // the ~3000/s two connections sustain on a quiet machine, so it stays
    // below capacity when the hypervisor steals half the CPU; above
    // capacity an open loop's backlog grows and every latency measures it.
    Workload {
        name: "wire-small",
        docs: 64,
        text_len: 1_200,
        versions: 1,
        fixed: &[
            (Class::Overlap, 20.0),
            (Class::XFollowing, 15.0),
            (Class::Chain, 15.0),
            (Class::Flwor, 13.0),
            (Class::Analyze, 2.0),
        ],
        literal: 20.0,
        execute: 10.0,
        fresh: 5.0,
        put: 0.0,
        zipf: 0.0,
        partitioned: false,
        topology: Topology::Routed,
        arrival: Arrival::Open { rate: 750.0 },
    },
    // A scholar's analysis session: milliseconds of index, evaluator and
    // serialisation work per query; the wire is noise. Analyze-string is
    // 4% so the p99 lies inside its class, and FLWOR spans the median.
    Workload {
        name: "eval-large",
        docs: 4,
        text_len: 100_000,
        versions: 1,
        fixed: &[
            (Class::Chain, 30.0),
            (Class::Flwor, 40.0),
            (Class::Overlap, 13.0),
            (Class::XFollowing, 13.0),
            (Class::Analyze, 4.0),
        ],
        literal: 0.0,
        execute: 0.0,
        fresh: 0.0,
        put: 0.0,
        zipf: 0.0,
        partitioned: false,
        topology: Topology::Direct,
        arrival: Arrival::Closed,
    },
    // An edition workspace: uploads beside reads, a working set four times
    // the memory budget, so parsing, index build, snapshot save/load and
    // eviction run on the request path.
    Workload {
        name: "ingest-cold",
        docs: 32,
        text_len: 20_000,
        versions: 2,
        fixed: &[
            (Class::Chain, 25.0),
            (Class::Flwor, 25.0),
            (Class::Overlap, 20.0),
            (Class::XFollowing, 18.0),
            (Class::Analyze, 2.0),
        ],
        literal: 0.0,
        execute: 0.0,
        fresh: 0.0,
        put: 10.0,
        zipf: 1.0,
        partitioned: true,
        topology: Topology::Stored,
        arrival: Arrival::Closed,
    },
];

pub fn names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

#[derive(Clone)]
pub enum Op {
    Query(Query),
    /// A prepared handle of this fixed class.
    Execute(Class),
    /// A query on a fresh TCP connection.
    Fresh(Query),
    /// Upload the document's next version.
    Put,
}

#[derive(Clone)]
pub struct Req {
    pub op: Op,
    pub doc: usize,
}

impl Req {
    /// The query this request asks, if it asks one.
    pub fn query(&self) -> Option<Query> {
        match &self.op {
            Op::Query(q) | Op::Fresh(q) => Some(q.clone()),
            Op::Execute(class) => Some(Query::fixed(*class)),
            Op::Put => None,
        }
    }
}

/// Draws one client's requests from the workload's mix.
pub struct Drawer<'a> {
    w: &'a Workload,
    rng: StdRng,
    ops: Vec<f64>,
    classes: Vec<f64>,
    own: Vec<usize>,
    doc_weights: Vec<f64>,
    vocab: &'a [String],
}

impl<'a> Drawer<'a> {
    fn new(w: &'a Workload, seed: u64, stream: u64, client: usize, vocab: &'a [String]) -> Self {
        let own: Vec<usize> =
            (0..w.docs).filter(|i| !w.partitioned || i % CLIENTS == client).collect();
        let fixed: f64 = w.fixed.iter().map(|&(_, p)| p).sum();
        Drawer {
            w,
            rng: StdRng::seed_from_u64(mix(seed, stream)),
            ops: cumulative([fixed, w.literal, w.execute, w.fresh, w.put]),
            classes: cumulative(w.fixed.iter().map(|&(_, p)| p)),
            doc_weights: cumulative((0..own.len()).map(|r| 1.0 / ((r + 1) as f64).powf(w.zipf))),
            own,
            vocab,
        }
    }

    pub fn next(&mut self) -> Req {
        let doc = self.own[pick(&mut self.rng, &self.doc_weights)];
        let class = self.w.fixed[pick(&mut self.rng, &self.classes)].0;
        let op = match pick(&mut self.rng, &self.ops) {
            0 => Op::Query(Query::fixed(class)),
            1 => {
                Op::Query(Query::literal(&self.vocab[pick_index(&mut self.rng, self.vocab.len())]))
            }
            2 => Op::Execute(class),
            3 => Op::Fresh(Query::fixed(class)),
            _ => Op::Put,
        };
        Req { op, doc }
    }
}

fn pick_index(rng: &mut StdRng, len: usize) -> usize {
    ((corpus::unit(rng) * len as f64) as usize).min(len - 1)
}

/// One keep-alive connection with every fixed class prepared on it
/// (`handles[i]` is `Class::FIXED[i]`).
pub struct Conn {
    pub client: Client,
    pub handles: Vec<u64>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let handles = Class::FIXED
            .iter()
            .map(|c| client.prepare(c.lang(), &Query::fixed(*c).text))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("prepare on {addr}: {e}"))?;
        Ok(Conn { client, handles })
    }

    /// Send `req`; the serialized answer for queries, `None` for uploads.
    pub fn send(&mut self, addr: &str, doc: &Doc, version: usize, req: &Req) -> Answer {
        let out = match &req.op {
            Op::Query(q) => self.client.query(&doc.id, q.lang(), &q.text),
            Op::Execute(class) => {
                let i = Class::FIXED.iter().position(|c| c == class).expect("fixed class");
                self.client.execute(self.handles[i], Some(&doc.id))
            }
            Op::Fresh(q) => Client::connect(addr)
                .map_err(|e| format!("connect {addr}: {e}"))?
                .query(&doc.id, q.lang(), &q.text),
            Op::Put => {
                let path = format!("/documents/{}", doc.id);
                return self
                    .client
                    .call("PUT", &path, Some(&doc.put_body(version)))
                    .map(|_| None)
                    .map_err(|e| e.to_string());
            }
        };
        out.map(|o| Some(o.serialized)).map_err(|e| e.to_string())
    }
}

/// A serialized answer for a query, `None` for an upload, or the error.
pub type Answer = Result<Option<String>, String>;

/// Answers checked, and how many were wrong or failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Count one operation; true when it succeeded with the expected
    /// answer (`want` is `None` for uploads).
    pub fn check(&mut self, got: &Answer, want: Option<&str>, what: &str) -> bool {
        self.attempted += 1;
        let ok = match (got, want) {
            (Ok(Some(got)), Some(want)) => matches(got, want),
            (Ok(None), None) => true,
            _ => false,
        };
        if !ok {
            self.failed += 1;
            if self.failed <= 3 {
                let got = match got {
                    Ok(Some(s)) => s.chars().take(120).collect(),
                    Ok(None) => "(no answer)".to_string(),
                    Err(e) => format!("error: {e}"),
                };
                eprintln!("e2ebench: wrong answer for {what}: got {got}");
            }
        }
        ok
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Query,
    Put,
}

#[derive(Clone, Copy)]
struct Sample {
    kind: Kind,
    /// Latency; for open-loop requests counted from when they were due.
    micros: f64,
    /// How late the generator sent it (open loop only).
    late: f64,
    ok: bool,
    traced: bool,
}

struct Deployment {
    daemons: Vec<Daemon>,
    /// Where clients send their traffic.
    entry: String,
    /// The backend holding each document.
    owner: Vec<String>,
    backends: Vec<String>,
    /// `--data-dir` and `--memory-budget` of a stored deployment.
    store: Option<(PathBuf, u64)>,
}

impl Deployment {
    fn stop(self) -> Result<(), String> {
        // Router first, so it never sees its backends vanish.
        let mut result = Ok(());
        for d in self.daemons.into_iter().rev() {
            result = result.and(d.stop());
        }
        result
    }

    fn stats(&self, addr: &str) -> Result<Json, String> {
        Client::connect(addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.stats().map_err(|e| e.to_string()))
            .map_err(|e| format!("/stats of {addr}: {e}"))
    }

    /// Sum of `/stats` `section.field` over the backends.
    fn backend_counter(&self, section: &str, field: &str) -> Result<f64, String> {
        let mut total = 0.0;
        for addr in &self.backends {
            let stats = self.stats(addr)?;
            total +=
                stats.get(section).and_then(|s| s.get(field)).and_then(Json::as_f64).unwrap_or(0.0);
        }
        Ok(total)
    }
}

fn mhxd_args(store: Option<&(PathBuf, u64)>) -> Vec<String> {
    let mut args: Vec<String> =
        ["--listen", "127.0.0.1:0", "--workers", WORKERS].map(String::from).to_vec();
    if let Some((dir, budget)) = store {
        args.extend(["--data-dir".to_string(), dir.display().to_string()]);
        args.extend(["--memory-budget".to_string(), budget.to_string()]);
    }
    args
}

fn deploy(
    w: &Workload,
    args: &Args,
    run: &RunDir,
    tag: &str,
    store: Option<(PathBuf, u64)>,
) -> Result<Deployment, String> {
    let mhxd = args.bin_dir.join("mhxd");
    let log = |name: &str| run.path().join(format!("{name}-{tag}.log"));
    let mut daemons = Vec::new();
    let shards = if w.topology == Topology::Routed { 2 } else { 1 };
    for i in 0..shards {
        let name = format!("mhxd{i}");
        daemons.push(Daemon::spawn(&mhxd, &name, &mhxd_args(store.as_ref()), &log(&name))?);
    }
    let backends: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
    if w.topology == Topology::Routed {
        let mut router_args: Vec<String> =
            ["--listen", "127.0.0.1:0", "--workers", WORKERS, "--replicas", "1"]
                .map(String::from)
                .to_vec();
        for b in &backends {
            router_args.extend(["--shard".to_string(), b.clone()]);
        }
        daemons.push(Daemon::spawn(
            &args.bin_dir.join("mhxr"),
            "mhxr",
            &router_args,
            &log("mhxr"),
        )?);
    }
    let entry = daemons.last().expect("at least one daemon").addr.clone();
    Ok(Deployment { daemons, entry, owner: Vec::new(), backends, store })
}

/// Wall-clock and CPU seconds of one stretch of work.
#[derive(Clone, Copy)]
struct Took {
    wall: f64,
    cpu: f64,
}

/// Generate the corpus, boot the daemons, upload every document, then
/// warm up: the first query per document, and every fixed class once per
/// document. Its CPU time is this process's and the new daemons' whole.
fn set_up(
    w: &Workload,
    args: &Args,
    run: &RunDir,
    rep: usize,
    oracle: &Oracle,
    checks: &mut Checks,
) -> Result<(Deployment, Took), String> {
    let (t0, cpu0) = (Instant::now(), procs::own_cpu_seconds());
    let docs = w.documents(args.seed);
    let store = (w.topology == Topology::Stored).then(|| {
        let snapshots: u64 = oracle.stats.iter().map(|v| v[0].snapshot_bytes).sum();
        (run.path().join(format!("data-{rep}")), snapshots / 4)
    });
    let mut dep = deploy(w, args, run, &rep.to_string(), store)?;
    let mut client = Client::connect(&dep.entry).map_err(|e| e.to_string())?;
    for doc in &docs {
        check_interrupt()?;
        let reply = client
            .call("PUT", &format!("/documents/{}", doc.id), Some(&doc.put_body(0)))
            .map_err(|e| format!("upload {}: {e}", doc.id))?;
        let shard = reply.get("shards").and_then(Json::as_arr).and_then(|s| s.first());
        dep.owner.push(match shard.and_then(Json::as_str) {
            Some(addr) => addr.to_string(),
            None => dep.entry.clone(),
        });
    }
    let first = Query::fixed(Class::Count);
    for doc in &docs {
        let got = client.query(&doc.id, first.lang(), &first.text).map(|o| Some(o.serialized));
        checks.check(
            &got.map_err(|e| e.to_string()),
            Some(&oracle.expected(&doc.key(0), &first)),
            &doc.id,
        );
    }
    for doc in &docs {
        for &(class, _) in w.fixed {
            check_interrupt()?;
            let q = Query::fixed(class);
            let got = client.query(&doc.id, q.lang(), &q.text).map(|o| Some(o.serialized));
            checks.check(
                &got.map_err(|e| e.to_string()),
                Some(&oracle.expected(&doc.key(0), &q)),
                &doc.id,
            );
        }
    }
    let cpu = procs::own_cpu_seconds() - cpu0 + cpu_seconds(&dep.daemons)?;
    Ok((dep, Took { wall: t0.elapsed().as_secs_f64(), cpu }))
}

fn cpu_seconds(daemons: &[Daemon]) -> Result<f64, String> {
    daemons.iter().map(Daemon::cpu_seconds).sum()
}

/// Sequential requests of one kind: the latency of each, and the CPU time
/// the daemons spent on each, in ms.
#[derive(Default)]
struct Phase {
    ms: Vec<f64>,
    cpu_ms: Vec<f64>,
}

/// Time `send` and the daemons' CPU time, into `phase`. A failed or wrong
/// answer misses every limit.
fn timed(phase: &mut Phase, daemons: &[Daemon], send: impl FnOnce() -> bool) -> Result<(), String> {
    let cpu = cpu_seconds(daemons)?;
    let t = Instant::now();
    let ok = send();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = (cpu_seconds(daemons)? - cpu) * 1e3;
    phase.ms.push(if ok { ms } else { f64::INFINITY });
    phase.cpu_ms.push(if ok { cpu_ms } else { f64::INFINITY });
    Ok(())
}

/// Upload every document again, the version the daemons hold, on the
/// warm daemons, and where `firsts` asks for it send the first query to
/// each new copy; pass after pass until at least `MIN_UPLOADS` uploads
/// are timed.
fn reupload(
    dep: &Deployment,
    docs: &[Doc],
    versions: &[usize],
    oracle: &Oracle,
    checks: &mut Checks,
    mut firsts: Option<&mut Phase>,
) -> Result<Phase, String> {
    let mut client = Client::connect(&dep.entry).map_err(|e| e.to_string())?;
    let mut puts = Phase::default();
    let order: Vec<usize> = (0..docs.len()).collect();
    while puts.ms.len() < MIN_UPLOADS {
        for (doc, &v) in docs.iter().zip(versions) {
            check_interrupt()?;
            let (path, body) = (format!("/documents/{}", doc.id), doc.put_body(v));
            timed(&mut puts, &dep.daemons, || {
                let got = client.call("PUT", &path, Some(&body)).map(|_| None);
                checks.check(&got.map_err(|e| e.to_string()), None, &doc.id)
            })?;
        }
        if let Some(firsts) = firsts.as_deref_mut() {
            first_queries(
                &mut client,
                &dep.daemons,
                docs,
                &order,
                versions,
                oracle,
                checks,
                firsts,
            )?;
        }
    }
    Ok(puts)
}

/// The first query on each document in `order`, checked against the
/// version `versions` names.
#[allow(clippy::too_many_arguments)]
fn first_queries(
    client: &mut Client,
    daemons: &[Daemon],
    docs: &[Doc],
    order: &[usize],
    versions: &[usize],
    oracle: &Oracle,
    checks: &mut Checks,
    phase: &mut Phase,
) -> Result<(), String> {
    let q = Query::fixed(Class::Count);
    for &i in order {
        check_interrupt()?;
        let want = oracle.expected(&docs[i].key(versions[i]), &q);
        timed(phase, daemons, || {
            let got = client.query(&docs[i].id, q.lang(), &q.text).map(|o| Some(o.serialized));
            checks.check(&got.map_err(|e| e.to_string()), Some(&want), &docs[i].id)
        })?;
    }
    Ok(())
}

impl Workload {
    fn documents(&self, seed: u64) -> Vec<Doc> {
        let prefix = self.name.split('-').next().expect("non-empty name");
        corpus::documents(
            mix(seed, self.docs as u64),
            prefix,
            self.docs,
            self.text_len,
            self.versions,
        )
    }
}

/// Everything one client thread sends and measures.
struct ClientRun {
    samples: Vec<Sample>,
    tracer: Tracer,
    /// The version of each document this client last uploaded.
    versions: Vec<usize>,
}

/// Open loop: requests are due at `rate`; two senders take the next due
/// request whenever they are free, and latency counts from the due time.
fn open_loop(
    dep: &Deployment,
    docs: &[Doc],
    schedule: &[(Req, Option<Arc<str>>)],
    rate: f64,
    trace: bool,
    epoch: Instant,
) -> Result<(Vec<ClientRun>, f64, Checks), String> {
    let next = AtomicUsize::new(0);
    let ready = Barrier::new(CLIENTS + 1);
    let start = std::sync::OnceLock::new();
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| -> Result<(ClientRun, Checks), String> {
                    procs::tighten_timer_slack();
                    let conn = Conn::open(&dep.entry);
                    ready.wait();
                    let mut conn = conn?;
                    let start: Instant = *start.get().expect("start set before release");
                    let mut run = ClientRun {
                        samples: Vec::new(),
                        tracer: Tracer::new(epoch),
                        versions: Vec::new(),
                    };
                    let mut checks = Checks::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((req, want)) = schedule.get(i) else { break };
                        check_interrupt()?;
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let traced = trace && (i / TRACE_BLOCK).is_multiple_of(2);
                        let got = if traced {
                            run.tracer
                                .span("client.query", i as u64, |_| {
                                    conn.send(&dep.entry, &docs[req.doc], 0, req)
                                })
                                .0
                        } else {
                            conn.send(&dep.entry, &docs[req.doc], 0, req)
                        };
                        let done = Instant::now();
                        let ok = checks.check(&got, want.as_deref(), &docs[req.doc].id);
                        run.samples.push(Sample {
                            kind: Kind::Query,
                            micros: (done - due).as_secs_f64() * 1e6,
                            late: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
                            ok,
                            traced,
                        });
                    }
                    Ok((run, checks))
                })
            })
            .collect();
        // Give the senders time to reach their first sleep.
        let _ = start.set(Instant::now() + Duration::from_millis(20));
        ready.wait();
        handles.into_iter().map(|h| h.join().expect("sender thread panicked")).collect::<Vec<_>>()
    });
    let elapsed = start.get().expect("set").elapsed().as_secs_f64();
    collect(runs, elapsed)
}

/// What a round's traffic sends, and where.
#[derive(Clone, Copy)]
struct Traffic<'a> {
    w: &'a Workload,
    dep: &'a Deployment,
    docs: &'a [Doc],
    vocab: &'a [String],
    seed: u64,
}

/// Closed loop: each client sends its next request when the previous one
/// returns, until `seconds` have passed.
fn closed_loop(
    ctx: &Traffic,
    oracle: &Oracle,
    stream: u64,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Result<(Vec<ClientRun>, f64, Checks), String> {
    let Traffic { w, dep, docs, vocab, seed } = *ctx;
    let ready = Barrier::new(CLIENTS + 1);
    let t0 = std::sync::OnceLock::new();
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (ready, t0) = (&ready, &t0);
                s.spawn(move || -> Result<(ClientRun, Checks), String> {
                    let conn = Conn::open(&dep.entry);
                    let mut drawer = Drawer::new(w, seed, stream + client as u64, client, vocab);
                    ready.wait();
                    let mut conn = conn?;
                    let deadline =
                        *t0.get().expect("set before release") + Duration::from_secs_f64(seconds);
                    let mut run = ClientRun {
                        samples: Vec::new(),
                        tracer: Tracer::new(epoch),
                        versions: vec![0; docs.len()],
                    };
                    let mut checks = Checks::default();
                    let mut i = 0;
                    while Instant::now() < deadline {
                        check_interrupt()?;
                        let req = drawer.next();
                        let doc = &docs[req.doc];
                        if matches!(req.op, Op::Put) {
                            run.versions[req.doc] =
                                (run.versions[req.doc] + 1) % doc.versions.len();
                        }
                        let version = run.versions[req.doc];
                        let want = req.query().map(|q| oracle.expected(&doc.key(version), &q));
                        let traced = trace && (i / TRACE_BLOCK).is_multiple_of(2);
                        let t = Instant::now();
                        let got = if traced {
                            let name = if want.is_some() { "client.query" } else { "client.put" };
                            run.tracer
                                .span(name, i as u64, |_| conn.send(&dep.entry, doc, version, &req))
                                .0
                        } else {
                            conn.send(&dep.entry, doc, version, &req)
                        };
                        let micros = t.elapsed().as_secs_f64() * 1e6;
                        let ok = checks.check(&got, want.as_deref(), &doc.id);
                        let kind = if want.is_some() { Kind::Query } else { Kind::Put };
                        run.samples.push(Sample { kind, micros, late: 0.0, ok, traced });
                        i += 1;
                    }
                    Ok((run, checks))
                })
            })
            .collect();
        let _ = t0.set(Instant::now());
        ready.wait();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect::<Vec<_>>()
    });
    let elapsed = t0.get().expect("set").elapsed().as_secs_f64();
    collect(runs, elapsed)
}

fn collect(
    runs: Vec<Result<(ClientRun, Checks), String>>,
    elapsed: f64,
) -> Result<(Vec<ClientRun>, f64, Checks), String> {
    let mut checks = Checks::default();
    let mut out = Vec::new();
    for r in runs {
        let (run, c) = r?;
        checks.add(c);
        out.push(run);
    }
    Ok((out, elapsed, checks))
}

/// One round's traffic: a fresh stream of requests for `seconds`.
fn traffic(
    ctx: &Traffic,
    oracle: &mut Oracle,
    stream: u64,
    seconds: f64,
    trace: bool,
    epoch: Instant,
) -> Result<(Vec<ClientRun>, f64, Checks), String> {
    match ctx.w.arrival {
        Arrival::Open { rate } => {
            let mut drawer = Drawer::new(ctx.w, ctx.seed, stream, 0, ctx.vocab);
            let mut schedule = Vec::new();
            for _ in 0..(rate * seconds) as usize {
                let req = drawer.next();
                let want = match req.query() {
                    Some(q) => {
                        let key = ctx.docs[req.doc].key(0);
                        oracle.learn(&key, &q)?;
                        Some(oracle.expected(&key, &q))
                    }
                    None => None,
                };
                schedule.push((req, want));
            }
            open_loop(ctx.dep, ctx.docs, &schedule, rate, trace, epoch)
        }
        Arrival::Closed => closed_loop(ctx, oracle, stream, seconds, trace, epoch),
    }
}

/// Latencies in ms of one kind, counted from the due time or (service
/// time) from the send; a failed operation counts as missing every limit.
fn latencies_ms(samples: &[Sample], kind: Kind, from_due: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| match (s.ok, from_due) {
            (false, _) => f64::INFINITY,
            (true, true) => s.micros / 1e3,
            (true, false) => (s.micros - s.late) / 1e3,
        })
        .collect()
}

/// Send one real request and check it against a corrupted copy of its
/// expectation: the comparison must reject it, or wrong answers would
/// pass unseen.
fn oracle_self_test(dep: &Deployment, docs: &[Doc], oracle: &Oracle) -> Result<(), String> {
    let q = Query::fixed(Class::Overlap);
    let mut client = Client::connect(&dep.entry).map_err(|e| e.to_string())?;
    let got = client.query(&docs[0].id, q.lang(), &q.text).map_err(|e| e.to_string())?;
    let want = oracle.expected(&docs[0].key(0), &q);
    if matches(&got.serialized, &want) && !matches(&got.serialized, &corrupted(&want)) {
        Ok(())
    } else {
        Err("oracle self-test failed: a corrupted expectation was not caught".into())
    }
}

/// Restart `mhxd` on the same data directory and send the first query
/// per document in a seeded order, checked against the versions the
/// daemon held before.
#[allow(clippy::too_many_arguments)]
fn restart(
    args: &Args,
    run: &RunDir,
    round: usize,
    dep: Deployment,
    docs: &[Doc],
    versions: &[usize],
    oracle: &Oracle,
    checks: &mut Checks,
) -> Result<Phase, String> {
    let store = dep.store.clone().expect("a stored deployment");
    dep.stop()?;
    let mhxd = args.bin_dir.join("mhxd");
    let log = run.path().join(format!("mhxd-restart-{round}.log"));
    let daemon = [Daemon::spawn(&mhxd, "mhxd-restart", &mhxd_args(Some(&store)), &log)?];
    let mut client = Client::connect(&daemon[0].addr).map_err(|e| e.to_string())?;
    let mut order: Vec<usize> = (0..docs.len()).collect();
    let mut rng = StdRng::seed_from_u64(mix(args.seed, 300 + round as u64));
    for i in (1..order.len()).rev() {
        order.swap(i, pick_index(&mut rng, i + 1));
    }
    let mut firsts = Phase::default();
    first_queries(&mut client, &daemon, docs, &order, versions, oracle, checks, &mut firsts)?;
    drop(client);
    let [daemon] = daemon;
    daemon.stop()?;
    Ok(firsts)
}

/// A round whose CPU time the hypervisor stole less of than this share
/// counts as quiet: the daemons' CPU time barely moves below it.
const QUIET_STEAL: f64 = 0.10;

/// The rounds the metrics are the median of: the less-stolen half (at
/// least), and every quiet round. Each round runs fresh daemon processes,
/// and two processes doing the same work can differ by 20% (memory
/// layout, page placement), so one round is never enough. The host's
/// stolen CPU time comes in spells, up to 60% of the machine in the runs
/// this was calibrated on; even the daemons' CPU time, which leaves the
/// stolen time out, reads up to 25% higher in such a spell (the host's
/// other guests share caches and cores), so the most-stolen rounds are
/// dropped.
fn quietest(steal: &[f64]) -> Vec<usize> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let limit = sorted.get((steal.len().max(1) - 1) / 2).map_or(0.0, |&s| s.max(QUIET_STEAL));
    (0..steal.len()).filter(|&r| steal[r] <= limit).collect()
}

/// Cache, store and request counters summed over the backends.
fn counters(dep: &Deployment) -> Result<[f64; 5], String> {
    Ok([
        dep.backend_counter("cache", "hits")?,
        dep.backend_counter("cache", "misses")?,
        dep.backend_counter("store", "loads")?,
        dep.backend_counter("store", "evictions")?,
        dep.backend_counter("server", "requests")?,
    ])
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let run = RunDir::create()?;
    let epoch = Instant::now();
    let docs = w.documents(args.seed);
    let mut oracle = Oracle::load(&docs, &run.path().join("oracle"))?;
    for doc in &docs {
        for v in 0..doc.versions.len() {
            for class in Class::FIXED.into_iter().chain([Class::Count]) {
                oracle.learn(&doc.key(v), &Query::fixed(class))?;
            }
        }
    }
    let vocab = corpus::vocabulary(&docs);
    report.corpus(&docs, &oracle, vocab.len());
    let mut checks = Checks::default();

    // An untraced run is ROUNDS rounds of set-up, traffic and tear-down;
    // each metric is the median of the `quietest` rounds' figures. A
    // traced run is one round whose time is split between the traffic
    // (spans on every other block of requests) and the per-layer probes.
    let rounds = if args.trace { 1 } else { ROUNDS };
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds / ROUNDS as f64 };
    let mut figures: Vec<Vec<Metric>> = Vec::new();
    let mut round_steal = Vec::new();
    for round in 0..rounds {
        let round_start = (Instant::now(), procs::cpu_steal());
        let (dep, setup) = set_up(w, args, &run, round, &oracle, &mut checks)?;
        if round == 0 {
            oracle_self_test(&dep, &docs, &oracle)?;
            report.note("oracle self-test: a corrupted expectation is rejected".into());
        }
        let ctx = Traffic { w, dep: &dep, docs: &docs, vocab: &vocab, seed: args.seed };
        let before = counters(&dep)?;
        let steal_before = procs::cpu_steal();
        let cpu_before = cpu_seconds(&dep.daemons)?;
        let (runs, elapsed, wire_checks) =
            traffic(&ctx, &mut oracle, 100 + 10 * round as u64, seconds, args.trace, epoch)?;
        let cpu = cpu_seconds(&dep.daemons)? - cpu_before;
        let steal = procs::cpu_steal() - steal_before;
        let after = counters(&dep)?;
        checks.add(wire_checks);

        let mut tracer = Tracer::new(epoch);
        let mut versions = vec![0; docs.len()];
        let mut samples = Vec::new();
        for (client, r) in runs.into_iter().enumerate() {
            for (d, &v) in r.versions.iter().enumerate() {
                if d % CLIENTS == client {
                    versions[d] = v;
                }
            }
            samples.extend(r.samples);
            tracer.absorb(r.tracer);
        }
        let queries = latencies_ms(&samples, Kind::Query, true);
        let service = latencies_ms(&samples, Kind::Query, false);
        let completed = samples.iter().filter(|s| s.ok).count();
        let late: Vec<f64> = samples.iter().map(|s| s.late).collect();
        report.note(format!(
            "round {round}: {} operations in {elapsed:.2} s, {} failed; query p50 {:.3} ms, \
             p99 {:.3} ms (service time), {:.3} ms (from due time); generator lateness p99 \
             {:.1} µs; cpu steal {:.1}% of the machine",
            samples.len(),
            samples.len() - completed,
            median(&queries),
            quantile(&service, 0.99),
            quantile(&queries, 0.99),
            quantile(&late, 0.99),
            steal / elapsed / procs::nproc() as f64 * 100.0,
        ));

        if args.trace {
            let delta = |i: usize| after[i] - before[i];
            // Service time (sent to answered): in an open loop, latency from
            // the due time would also carry the backlog of earlier blocks.
            let p50 = |traced: bool| {
                let v: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.kind == Kind::Query && s.traced == traced && s.ok)
                    .map(|s| s.micros - s.late)
                    .collect();
                (median(&v), v.len())
            };
            let ((on, n_on), (off, n_off)) = (p50(true), p50(false));
            let n = n_on + n_off;
            report.metric(Metric::new("trace.overhead_us", on - off, "us", n));
            report.metric(Metric::new("trace.overhead_pct", (on - off) / off * 100.0, "%", n));
            let lookups = delta(0) + delta(1);
            let hit_rate = delta(0) / lookups.max(1.0);
            report.metric(Metric::new(
                "engine.plan_cache_hit_rate",
                hit_rate,
                "ratio",
                lookups as usize,
            ));
            let loads = delta(2) / delta(4).max(1.0);
            report.metric(Metric::new("engine.loads_per_query", loads, "ratio", delta(4) as usize));
            report.metric(Metric::new("engine.evictions", delta(3), "count", 1));

            let mut drawer = Drawer::new(w, args.seed, 200, 0, &vocab);
            let probes: Vec<(usize, Query)> = (0..4000)
                .map(|_| drawer.next())
                .filter_map(|r| r.query().map(|q| (r.doc, q)))
                .collect();
            // Where the workload has no router, one over its daemon prices
            // the hop for this workload's requests.
            let probe_router = match w.topology {
                Topology::Routed => None,
                _ => {
                    let mut router_args: Vec<String> =
                        ["--listen", "127.0.0.1:0", "--workers", WORKERS]
                            .map(String::from)
                            .to_vec();
                    router_args.extend(["--shard".to_string(), dep.entry.clone()]);
                    let log = run.path().join("mhxr-probe.log");
                    let mhxr = args.bin_dir.join("mhxr");
                    Some(Daemon::spawn(&mhxr, "mhxr-probe", &router_args, &log)?)
                }
            };
            let input = probe::Input {
                docs: &docs,
                versions: &versions,
                owner: &dep.owner,
                router: probe_router.as_ref().map_or(&dep.entry, |d| &d.addr),
                routed: w.topology == Topology::Routed,
                persist: w.topology == Topology::Stored,
                probes,
                dir: run.path(),
                seconds: args.seconds - seconds,
                seed: args.seed,
            };
            probe::run(input, &mut oracle, &mut tracer, &mut checks, report)?;
            if let Some(router) = probe_router {
                router.stop()?;
            }
            let out = std::path::Path::new(".bench_out");
            std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
            let path = out.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
            tracer.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            report.note(format!("spans written to {}", path.display()));
            dep.stop()?;
            continue;
        }

        let rss_kib = dep.daemons.iter().map(Daemon::peak_rss_kib).sum::<Result<u64, String>>()?;
        let daemons = dep.daemons.len();
        let (put_ms, puts, firsts, bytes_per_xml) = if w.topology == Topology::Stored {
            // Uploads of the traffic (latency) and of a re-upload pass (CPU
            // time, which the traffic mixes with its queries'); first
            // queries after a restart; the store's bytes over the live
            // documents' XML.
            let on_disk = dep.backend_counter("store", "bytes_on_disk")?;
            let xml: usize = docs.iter().zip(&versions).map(|(d, &v)| d.xml_bytes(v)).sum();
            let puts = reupload(&dep, &docs, &versions, &oracle, &mut checks, None)?;
            let firsts = restart(args, &run, round, dep, &docs, &versions, &oracle, &mut checks)?;
            (latencies_ms(&samples, Kind::Put, true), puts, firsts, on_disk / xml as f64)
        } else {
            // Re-uploads on the warm daemons and the first query after
            // each; snapshot bytes the store would write for this corpus.
            let mut firsts = Phase::default();
            let puts = reupload(&dep, &docs, &versions, &oracle, &mut checks, Some(&mut firsts))?;
            dep.stop()?;
            let snapshots: u64 = oracle.stats.iter().map(|v| v[0].snapshot_bytes).sum();
            let xml: usize = oracle.stats.iter().map(|v| v[0].xml_bytes).sum();
            (puts.ms.clone(), puts, firsts, snapshots as f64 / xml as f64)
        };
        let ops = samples.len();
        figures.push(vec![
            Metric::new("setup_s", setup.cpu, "s", 1),
            Metric::new("cpu_ms_per_op", cpu * 1e3 / ops as f64, "ms", ops),
            Metric::new("put_cpu_ms", median(&puts.cpu_ms), "ms", puts.ms.len()),
            Metric::new("cold_query_cpu_ms", median(&firsts.cpu_ms), "ms", firsts.ms.len()),
            Metric::new("store_bytes_per_xml_byte", bytes_per_xml, "ratio", docs.len()),
            Metric::new("server_rss_mb", rss_kib as f64 / 1024.0, "MB", daemons),
            // Wall-clock figures, printed but not in BENCHMARK.json.
            Metric::new("setup_wall_s", setup.wall, "s", 1),
            Metric::new("query_p50_ms", median(&queries), "ms", queries.len()),
            // The tail of service time: in the open loop, the tail counted
            // from the due time is set by the machine's scheduling stalls
            // and the backlog behind them (printed above), not the program.
            Metric::new("query_p99_ms", quantile(&service, 0.99), "ms", service.len()),
            Metric::new("throughput_rps", completed as f64 / elapsed, "ops/s", completed),
            Metric::new("put_p50_ms", median(&put_ms), "ms", put_ms.len()),
            Metric::new("put_p95_ms", quantile(&put_ms, 0.95), "ms", put_ms.len()),
            Metric::new("cold_query_p50_ms", median(&firsts.ms), "ms", firsts.ms.len()),
        ]);
        let machine = round_start.0.elapsed().as_secs_f64() * procs::nproc() as f64;
        round_steal.push((procs::cpu_steal() - round_start.1) / machine);
    }
    let kept = quietest(&round_steal);
    for (round, values) in figures.iter().enumerate() {
        let line: Vec<String> = values.iter().map(|m| format!("{}={}", m.name, m.value)).collect();
        report.note(format!(
            "round {round} figures ({}, cpu steal {:.1}% over the round): {}",
            if kept.contains(&round) { "kept" } else { "dropped" },
            round_steal[round] * 100.0,
            line.join(" ")
        ));
    }
    if let Some(first) = figures.first() {
        for (i, m) in first.iter().enumerate() {
            let values: Vec<f64> = kept.iter().map(|&r| figures[r][i].value).collect();
            let samples = kept.iter().map(|&r| figures[r][i].samples).sum();
            report.metric(Metric::new(m.name.clone(), median(&values), m.unit, samples));
        }
    }
    report.checks(checks.attempted, checks.failed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::quietest;

    #[test]
    fn quietest_keeps_the_less_stolen_half_and_every_quiet_round() {
        // Under a spell: the four least-stolen of seven rounds.
        assert_eq!(quietest(&[0.30, 0.15, 0.50, 0.20, 0.18, 0.40, 0.16]), vec![1, 3, 4, 6]);
        // A quiet run keeps every round.
        assert_eq!(quietest(&[0.0, 0.05, 0.004, 0.0, 0.099, 0.0, 0.0]), (0..7).collect::<Vec<_>>());
        // Ties at the limit are kept.
        assert_eq!(quietest(&[0.2, 0.2, 0.2]), vec![0, 1, 2]);
        assert_eq!(quietest(&[0.3]), vec![0]);
    }
}
