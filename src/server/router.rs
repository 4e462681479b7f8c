//! # `mhxr` — the shard router
//!
//! One JSON/HTTP front end over N `mhxd` backends, speaking the *same*
//! wire protocol clients already use — a client cannot tell a router
//! from a single node except for the extra `/stats` sections.
//!
//! ```text
//!                clients (keep-alive, wire protocol)
//!                          │
//!               Router (mhxr, evented front end)
//!          consistent hash on document id (BackendPool)
//!            │                │                │
//!         mhxd shard 0     mhxd shard 1     mhxd shard 2
//! ```
//!
//! * **Routing** — `/query` and `/execute` resolve their target document
//!   and go to its replica set ([`BackendPool::read_order`], round-robin
//!   across replicas). `PUT /documents/{id}` walks the ring and uploads
//!   to `--replicas K` distinct shards. Documents are immutable after
//!   upload, so replication is re-upload + deterministic placement — no
//!   consensus, and two routers over the same `--shard` list agree.
//! * **Scatter/gather** — `GET /documents` unions all shards' listings;
//!   `GET /stats` nests every shard's stats under `shards` plus a
//!   `router` section (backend health, failover counters, the idle
//!   backend-connection gauge).
//! * **Failover** — a connection error or the typed `503`/
//!   `shutting_down` drain signal from one shard retries the next
//!   replica; only when every replica failed does the client see an
//!   error, and it is the distinct `502`/`bad_gateway` kind. Any other
//!   response (including 4xx — deterministic on every replica) passes
//!   through verbatim.
//! * **Prepared statements** — the router keeps a per-client-connection
//!   handle table (`ConnCore`): `/prepare` validates eagerly on one
//!   backend, `/execute` lazily re-prepares the statement on whichever
//!   pooled backend connection the read lands on, so handles
//!   transparently survive failover *and* connection pooling.
//!
//! ## Multiplexed backend connections
//!
//! Backend connections are **pooled, not pinned**: a small LIFO free
//! list per shard (`RouterCore`) is shared by every client connection,
//! so a thousand idle clients parked on the router's event loop hold
//! zero backend sockets — backend connection count tracks *concurrent
//! request execution* (bounded by the worker count), not client count.
//! Because a pooled backend session is shared across clients, the router
//! injects the client's **complete** options object
//! (`wire::options_json`) into every forwarded `/query` and
//! `/execute`, making backend session state irrelevant per request. One
//! consequence: the wire defaults (not a backend catalog's custom
//! defaults) are what an option-silent client gets through the router.

use crate::server::client::{Client, ClientError};
use crate::server::event::{EventConfig, EventLoop, Service};
use crate::server::handler::{body_object, MAX_PREPARED_PER_CONN};
use crate::server::http::Request;
use crate::server::pool::BackendPool;
use crate::server::wire;
use mhx_json::Json;
use mhx_xquery::EvalOptions;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Tuning knobs for [`Router::bind`] (mirrors
/// [`ServerConfig`](crate::server::ServerConfig)).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Dispatch worker threads: the concurrent request execution bound
    /// (connection count is bounded only by file descriptors).
    pub workers: usize,
    /// Event-loop wait timeout: bounds drain-notice latency.
    pub poll_interval: Duration,
    /// How long a started request may take to arrive completely.
    pub request_timeout: Duration,
    /// Maximum request body size in bytes.
    pub max_body: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            workers: 8,
            poll_interval: Duration::from_millis(25),
            request_timeout: Duration::from_secs(10),
            max_body: 16 * 1024 * 1024,
        }
    }
}

/// State shared by the router's event loop, workers, and the [`Router`]
/// handle.
pub(crate) struct RouterShared {
    core: RouterCore,
    config: RouterConfig,
    shutdown: AtomicBool,
    shutdown_requested: AtomicBool,
    accepted: AtomicU64,
    requests: AtomicU64,
    pipelined: AtomicU64,
    failovers: AtomicU64,
    re_prepares: AtomicU64,
}

impl RouterShared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// The running router: a bound listener, its event loop, and the worker
/// pool. Like [`Server`](crate::server::Server), dropping without
/// [`Router::shutdown`] detaches the threads.
///
/// ```
/// use multihier_xquery::prelude::*;
/// use multihier_xquery::server::{client::Client, BackendPool, Router, RouterConfig};
/// use multihier_xquery::server::{Server, ServerConfig};
/// use std::sync::Arc;
///
/// // One real shard…
/// let catalog = Arc::new(Catalog::new());
/// catalog.insert(
///     "ms",
///     GoddagBuilder::new().hierarchy("w", "<r><w>a</w><w>b</w></r>").build().unwrap(),
/// );
/// let shard = Server::bind(catalog, "127.0.0.1:0", ServerConfig::default()).unwrap();
///
/// // …fronted by a router speaking the identical wire protocol.
/// let pool = Arc::new(BackendPool::new(vec![shard.addr().to_string()], 1));
/// let router = Router::bind(pool, "127.0.0.1:0", RouterConfig::default()).unwrap();
///
/// let mut client = Client::connect(&router.addr().to_string()).unwrap();
/// let out = client.xpath("ms", "count(/descendant::w)").unwrap();
/// assert_eq!(out.serialized, "2");
///
/// router.shutdown();
/// shard.shutdown();
/// ```
pub struct Router {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    evloop: EventLoop,
}

impl Router {
    /// Bind `addr` (port 0 for ephemeral) and start routing onto
    /// `backends`.
    pub fn bind(
        backends: Arc<BackendPool>,
        addr: &str,
        config: RouterConfig,
    ) -> io::Result<Router> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(RouterShared {
            // The free list never needs to exceed the execution bound:
            // at most `workers` requests hold a backend conn at once.
            core: RouterCore::new(backends, workers),
            config: RouterConfig { workers, ..config },
            shutdown: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            pipelined: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            re_prepares: AtomicU64::new(0),
        });
        let evloop = EventLoop::start(
            listener,
            "mhxr",
            workers,
            EventConfig {
                poll_interval: shared.config.poll_interval,
                request_timeout: shared.config.request_timeout,
                max_body: shared.config.max_body,
                max_idle: None,
            },
            Arc::new(RouterService { shared: Arc::clone(&shared) }),
        )?;
        Ok(Router { addr: local, shared, evloop })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The routing pool (placement + backend health).
    pub fn backends(&self) -> &Arc<BackendPool> {
        &self.shared.core.pool
    }

    /// True once a client posted `/shutdown` (or
    /// [`Router::request_shutdown`] ran); the owner loop polls this.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Ask the owner loop to shut down (same effect as `POST /shutdown`).
    pub fn request_shutdown(&self) {
        self.shared.shutdown_requested.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown of the *router only*: stop accepting, complete
    /// every response in progress, join all threads. The backends keep
    /// running — draining them is their owners' job.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.evloop.shutdown();
    }
}

/// The router's [`Service`]: counts connections/requests and routes each
/// complete request through the shared [`RouterCore`].
struct RouterService {
    shared: Arc<RouterShared>,
}

impl Service for RouterService {
    type Conn = ConnCore;

    fn connect(&self, _stream: &TcpStream) -> ConnCore {
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        ConnCore::new()
    }

    fn handle(&self, conn: &mut ConnCore, req: &Request) -> (u16, Json) {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        let (failovers, re_prepares) = (conn.failovers, conn.re_prepares);
        let out = route(&self.shared, conn, req);
        self.shared.failovers.fetch_add(conn.failovers - failovers, Ordering::Relaxed);
        self.shared.re_prepares.fetch_add(conn.re_prepares - re_prepares, Ordering::Relaxed);
        out
    }

    fn disconnect(&self, _conn: ConnCore) {}

    fn draining(&self) -> bool {
        self.shared.draining()
    }

    fn note_pipelined(&self) {
        self.shared.pipelined.fetch_add(1, Ordering::Relaxed);
    }
}

/// How one backend attempt ended.
enum Attempt {
    /// A complete HTTP exchange that is not the drain signal — pass it
    /// through (4xx included: deterministic on every replica).
    Done(u16, Json),
    /// Connection error, garbled response, or the typed drain signal:
    /// try the next replica. Carries the reason for the 502 message.
    Failover(String),
}

/// A pooled connection to one backend: the client plus the statements
/// *this connection's server session* has compiled, keyed by the
/// canonical `/prepare` body.
struct PooledBackend {
    client: Client,
    prepared: HashMap<String, u64>,
}

/// The router's shared backend machinery: the placement pool plus one
/// LIFO free list of pooled connections per backend. Checkout pops (or
/// dials); checkin pushes back **only after a clean exchange** — a
/// transport error or drain signal drops the connection, which also
/// invalidates its server-session handle table for free.
pub(crate) struct RouterCore {
    pool: Arc<BackendPool>,
    idle: Vec<Mutex<Vec<PooledBackend>>>,
    idle_cap: usize,
}

/// Per-client-connection router state, owned by the event loop's
/// connection table: the prepared-statement table (router handle space)
/// and the connection's evaluation options, injected whole into every
/// forwarded read so pooled backend sessions behave deterministically.
pub(crate) struct ConnCore {
    prepared: Vec<PreparedStmt>,
    opts: EvalOptions,
    pub(crate) failovers: u64,
    pub(crate) re_prepares: u64,
}

impl ConnCore {
    pub(crate) fn new() -> ConnCore {
        ConnCore {
            prepared: Vec::new(),
            opts: EvalOptions::default(),
            failovers: 0,
            re_prepares: 0,
        }
    }
}

/// One router-level prepared statement.
struct PreparedStmt {
    /// The original `/prepare` body — replayed on whichever pooled
    /// backend connection an execute lands on that has not compiled it.
    body: Json,
    /// Canonical identity on pooled sessions (the serialized body).
    key: String,
    /// Backend index that validated the statement eagerly.
    #[cfg_attr(not(test), allow(dead_code))]
    validated_on: usize,
}

impl RouterCore {
    pub(crate) fn new(pool: Arc<BackendPool>, idle_cap: usize) -> RouterCore {
        let n = pool.len();
        RouterCore { pool, idle: (0..n).map(|_| Mutex::new(Vec::new())).collect(), idle_cap }
    }

    /// Pop an idle pooled connection to backend `i`, or dial a fresh one.
    fn checkout(&self, i: usize) -> Result<PooledBackend, ClientError> {
        if let Some(b) = self.idle[i].lock().unwrap_or_else(PoisonError::into_inner).pop() {
            return Ok(b);
        }
        Ok(PooledBackend { client: Client::connect(self.pool.addr(i))?, prepared: HashMap::new() })
    }

    /// Return a connection after a clean exchange (dropped if the free
    /// list is full).
    fn checkin(&self, i: usize, backend: PooledBackend) {
        let mut idle = self.idle[i].lock().unwrap_or_else(PoisonError::into_inner);
        if idle.len() < self.idle_cap {
            idle.push(backend);
        }
    }

    /// Idle pooled backend connections across all shards (the `/stats`
    /// gauge).
    fn idle_connections(&self) -> usize {
        self.idle.iter().map(|l| l.lock().unwrap_or_else(PoisonError::into_inner).len()).sum()
    }

    /// One uninterpreted exchange with backend `i` on a pooled
    /// connection, with health classification: transport failures and
    /// the drain signal become [`Attempt::Failover`] (and drop the
    /// connection); everything else checks the connection back in and
    /// passes through.
    fn attempt(&self, i: usize, method: &str, path: &str, body: Option<&Json>) -> Attempt {
        let mut backend = match self.checkout(i) {
            Ok(b) => b,
            Err(e) => {
                self.pool.mark_down(i);
                return Attempt::Failover(format!("{}: {e}", self.pool.addr(i)));
            }
        };
        match backend.client.request(method, path, body) {
            Ok((status, json)) if wire::is_drain_envelope(status, &json) => {
                self.pool.mark_draining(i);
                Attempt::Failover(format!("{} is draining", self.pool.addr(i)))
            }
            Ok((status, json)) => {
                self.pool.mark_up(i);
                self.checkin(i, backend);
                Attempt::Done(status, json)
            }
            Err(e) => {
                self.pool.mark_down(i);
                Attempt::Failover(format!("{}: {e}", self.pool.addr(i)))
            }
        }
    }

    /// Try `order` until one backend completes the exchange; exhausting
    /// it is the router's own `502`/`bad_gateway`.
    fn try_replicas(
        &self,
        conn: &mut ConnCore,
        order: &[usize],
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> (u16, Json) {
        let mut tried = Vec::new();
        for (k, &i) in order.iter().enumerate() {
            if k > 0 {
                conn.failovers += 1;
            }
            match self.attempt(i, method, path, body) {
                Attempt::Done(status, json) => return (status, json),
                Attempt::Failover(why) => tried.push(why),
            }
        }
        let body =
            wire::bad_gateway_body(&format!("all replicas unavailable ({})", tried.join("; ")));
        (502, body)
    }

    /// Validate the request's `"options"` patch onto the connection —
    /// same strictness and error shape as a single node.
    fn patch_options(&self, conn: &mut ConnCore, body: &Json) -> Result<(), (u16, Json)> {
        if let Some(options) = body.get("options") {
            if let Err(message) = wire::apply_options(&mut conn.opts, options) {
                return Err((400, wire::protocol_error_body("bad_options", &message)));
            }
        }
        Ok(())
    }

    /// Resolve the target document like a single node does: explicit
    /// `doc` field, else the fleet's only document.
    fn resolve_doc(&self, body: &Json) -> Result<String, (u16, Json)> {
        if let Some(doc) = body.get("doc") {
            return doc.as_str().map(str::to_string).ok_or_else(|| {
                (400, wire::protocol_error_body("bad_request", "`doc` must be a string"))
            });
        }
        let listing = self.document_listing()?;
        if listing.len() == 1 {
            return Ok(listing.into_keys().next().expect("len checked"));
        }
        Err((
            400,
            wire::protocol_error_body(
                "no_document",
                "no `doc` given and the fleet does not hold exactly one document",
            ),
        ))
    }

    pub(crate) fn query(&self, conn: &mut ConnCore, body: &Json) -> (u16, Json) {
        if let Err(err) = self.patch_options(conn, body) {
            return err;
        }
        let doc = match self.resolve_doc(body) {
            Ok(doc) => doc,
            Err(err) => return err,
        };
        let order = self.pool.read_order(&doc);
        let fwd = with_field(
            &with_field(body, "doc", Json::Str(doc)),
            "options",
            wire::options_json(&conn.opts),
        );
        self.try_replicas(conn, &order, "POST", "/query", Some(&fwd))
    }

    pub(crate) fn prepare(&self, conn: &mut ConnCore, body: &Json) -> (u16, Json) {
        if conn.prepared.len() >= MAX_PREPARED_PER_CONN {
            return (
                400,
                wire::protocol_error_body(
                    "too_many_prepared",
                    &format!(
                        "this connection already holds {MAX_PREPARED_PER_CONN} prepared queries"
                    ),
                ),
            );
        }
        // Eager validation on one backend: compile errors surface now,
        // exactly as on a single node.
        let key = body.to_string();
        let order = self.pool.any_order();
        let mut tried = Vec::new();
        for (k, &i) in order.iter().enumerate() {
            if k > 0 {
                conn.failovers += 1;
            }
            let mut backend = match self.checkout(i) {
                Ok(b) => b,
                Err(e) => {
                    self.pool.mark_down(i);
                    tried.push(format!("{}: {e}", self.pool.addr(i)));
                    continue;
                }
            };
            match backend.client.request("POST", "/prepare", Some(body)) {
                Ok((status, json)) if wire::is_drain_envelope(status, &json) => {
                    self.pool.mark_draining(i);
                    tried.push(format!("{} is draining", self.pool.addr(i)));
                }
                Ok((status, json)) if (200..300).contains(&status) => {
                    self.pool.mark_up(i);
                    let Some(h) = json.get("handle").and_then(Json::as_u64) else {
                        return (
                            502,
                            wire::bad_gateway_body("shard returned a malformed /prepare response"),
                        );
                    };
                    // The compiled handle stays with this *pooled
                    // connection* — whoever checks it out next reuses it.
                    backend.prepared.insert(key.clone(), h);
                    self.checkin(i, backend);
                    let lang =
                        json.get("lang").cloned().unwrap_or_else(|| Json::Str("xquery".into()));
                    conn.prepared.push(PreparedStmt { body: body.clone(), key, validated_on: i });
                    let handle = conn.prepared.len() - 1;
                    // Same envelope as a single node, in the router's
                    // handle space.
                    return (
                        200,
                        Json::Obj(vec![
                            ("ok".into(), Json::Bool(true)),
                            ("handle".into(), Json::Num(handle as f64)),
                            ("lang".into(), lang),
                        ]),
                    );
                }
                Ok((status, json)) => {
                    self.pool.mark_up(i);
                    self.checkin(i, backend);
                    return (status, json);
                }
                Err(e) => {
                    self.pool.mark_down(i);
                    tried.push(format!("{}: {e}", self.pool.addr(i)));
                }
            }
        }
        let body =
            wire::bad_gateway_body(&format!("all replicas unavailable ({})", tried.join("; ")));
        (502, body)
    }

    pub(crate) fn execute(&self, conn: &mut ConnCore, body: &Json) -> (u16, Json) {
        let Some(handle) = body.get("handle").and_then(Json::as_u64) else {
            return (
                400,
                wire::protocol_error_body("bad_request", "missing integer field `handle`"),
            );
        };
        if handle as usize >= conn.prepared.len() {
            return (
                404,
                wire::protocol_error_body(
                    "unknown_handle",
                    &format!("no prepared query with handle {handle} on this connection"),
                ),
            );
        }
        if let Err(err) = self.patch_options(conn, body) {
            return err;
        }
        let doc = match self.resolve_doc(body) {
            Ok(doc) => doc,
            Err(err) => return err,
        };
        let order = self.pool.read_order(&doc);
        let mut tried = Vec::new();
        for (k, &i) in order.iter().enumerate() {
            if k > 0 {
                conn.failovers += 1;
            }
            let mut backend = match self.checkout(i) {
                Ok(b) => b,
                Err(e) => {
                    self.pool.mark_down(i);
                    tried.push(format!("{}: {e}", self.pool.addr(i)));
                    continue;
                }
            };
            // Make sure this pooled connection's server session has the
            // statement compiled; re-prepare it here if not.
            let stmt = &conn.prepared[handle as usize];
            let backend_handle = match backend.prepared.get(&stmt.key).copied() {
                Some(h) => h,
                None => {
                    // A pooled session at its handle cap can't take one
                    // more: start a fresh connection instead of
                    // surfacing `too_many_prepared` for a foreign cap.
                    if backend.prepared.len() >= MAX_PREPARED_PER_CONN {
                        backend = match Client::connect(self.pool.addr(i)) {
                            Ok(client) => PooledBackend { client, prepared: HashMap::new() },
                            Err(e) => {
                                self.pool.mark_down(i);
                                tried.push(format!("{}: {e}", self.pool.addr(i)));
                                continue;
                            }
                        };
                    }
                    match backend.client.request("POST", "/prepare", Some(&stmt.body)) {
                        Ok((status, json)) if wire::is_drain_envelope(status, &json) => {
                            self.pool.mark_draining(i);
                            tried.push(format!("{} is draining", self.pool.addr(i)));
                            continue;
                        }
                        Ok((status, json)) if (200..300).contains(&status) => {
                            match json.get("handle").and_then(Json::as_u64) {
                                Some(h) => {
                                    backend.prepared.insert(stmt.key.clone(), h);
                                    conn.re_prepares += 1;
                                    h
                                }
                                None => {
                                    tried.push(format!(
                                        "{}: malformed /prepare response",
                                        self.pool.addr(i)
                                    ));
                                    continue;
                                }
                            }
                        }
                        // A deterministic compile rejection would fail
                        // identically everywhere: surface it.
                        Ok((status, json)) => {
                            self.pool.mark_up(i);
                            self.checkin(i, backend);
                            return (status, json);
                        }
                        Err(e) => {
                            self.pool.mark_down(i);
                            tried.push(format!("{}: {e}", self.pool.addr(i)));
                            continue;
                        }
                    }
                }
            };
            let fwd = with_field(
                &with_field(
                    &with_field(body, "doc", Json::Str(doc.clone())),
                    "handle",
                    Json::Num(backend_handle as f64),
                ),
                "options",
                wire::options_json(&conn.opts),
            );
            match backend.client.request("POST", "/execute", Some(&fwd)) {
                Ok((status, json)) if wire::is_drain_envelope(status, &json) => {
                    self.pool.mark_draining(i);
                    tried.push(format!("{} is draining", self.pool.addr(i)));
                }
                Ok((status, json)) => {
                    self.pool.mark_up(i);
                    self.checkin(i, backend);
                    return (status, json);
                }
                Err(e) => {
                    self.pool.mark_down(i);
                    tried.push(format!("{}: {e}", self.pool.addr(i)));
                }
            }
        }
        let body =
            wire::bad_gateway_body(&format!("all replicas unavailable ({})", tried.join("; ")));
        (502, body)
    }

    /// Upload `id` to its replica set, walking the ring past dead
    /// backends so the document still lands `replicas` times when a
    /// preferred shard is down.
    pub(crate) fn upload(&self, conn: &mut ConnCore, id: &str, body: &Json) -> (u16, Json) {
        let want = self.pool.replicas();
        let order = self.pool.ring_order(id);
        let mut placed = Vec::new();
        let mut tried = Vec::new();
        for &i in &order {
            if placed.len() == want {
                break;
            }
            match self.attempt(i, "PUT", &format!("/documents/{id}"), Some(body)) {
                Attempt::Done(status, _) if (200..300).contains(&status) => placed.push(i),
                // A deterministic rejection (malformed hierarchy, bad id)
                // would fail identically on every shard: surface it. Any
                // shard that already accepted keeps the document — uploads
                // of a fixed id are idempotent, so a client retry heals.
                Attempt::Done(status, json) => return (status, json),
                Attempt::Failover(why) => tried.push(why),
            }
        }
        conn.failovers += tried.len() as u64;
        if placed.is_empty() {
            let body =
                wire::bad_gateway_body(&format!("no shard accepted `{id}` ({})", tried.join("; ")));
            return (502, body);
        }
        self.pool.record_placement(id, placed.clone());
        let shards: Vec<Json> =
            placed.iter().map(|&i| Json::Str(self.pool.addr(i).into())).collect();
        (
            200,
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("id".into(), Json::Str(id.into())),
                ("replicas".into(), Json::Num(placed.len() as f64)),
                ("shards".into(), Json::Arr(shards)),
            ]),
        )
    }

    /// Scatter `GET /documents` to every backend and merge the listings:
    /// one entry per id, the object of the first shard (in index order)
    /// that lists it. Succeeds while at least one shard answers (a dead
    /// shard's documents are on their replicas anyway when `--replicas`
    /// > 1).
    fn document_listing(&self) -> Result<BTreeMap<String, Json>, (u16, Json)> {
        let mut merged = BTreeMap::new();
        let mut any_ok = false;
        let mut errors = Vec::new();
        for i in 0..self.pool.len() {
            match self.attempt(i, "GET", "/documents", None) {
                Attempt::Done(status, json) if (200..300).contains(&status) => {
                    match json.get("documents").and_then(Json::as_arr) {
                        Some(entries) => {
                            for entry in entries {
                                if let Some(id) = entry.get("id").and_then(Json::as_str) {
                                    merged.entry(id.to_string()).or_insert_with(|| entry.clone());
                                }
                            }
                            any_ok = true;
                        }
                        None => errors.push(format!("{}: malformed /documents", self.pool.addr(i))),
                    }
                }
                Attempt::Done(status, _) => {
                    errors.push(format!("{}: status {status}", self.pool.addr(i)));
                }
                Attempt::Failover(why) => errors.push(why),
            }
        }
        if any_ok {
            Ok(merged)
        } else {
            let body = wire::bad_gateway_body(&format!(
                "no shard answered /documents ({})",
                errors.join("; ")
            ));
            Err((502, body))
        }
    }

    pub(crate) fn documents(&self) -> (u16, Json) {
        match self.document_listing() {
            Ok(merged) => (
                200,
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("documents".into(), Json::Arr(merged.into_values().collect())),
                ]),
            ),
            Err(err) => err,
        }
    }

    /// Scatter `GET /stats`, gather per-shard stats plus the router's own
    /// health/counter section and cross-shard totals.
    fn stats(&self, shared: &RouterShared) -> (u16, Json) {
        let mut shards = Vec::new();
        let mut shard_requests = 0u64;
        let mut shard_documents = 0u64;
        for i in 0..self.pool.len() {
            let addr = self.pool.addr(i).to_string();
            match self.attempt(i, "GET", "/stats", None) {
                Attempt::Done(status, json) if (200..300).contains(&status) => {
                    shard_requests += json
                        .get("server")
                        .and_then(|s| s.get("requests"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    shard_documents += json.get("documents").and_then(Json::as_u64).unwrap_or(0);
                    shards.push(Json::Obj(vec![
                        ("addr".into(), Json::Str(addr)),
                        ("stats".into(), json),
                    ]));
                }
                _ => shards.push(Json::Obj(vec![
                    ("addr".into(), Json::Str(addr)),
                    ("error".into(), Json::Str("unreachable or draining".into())),
                ])),
            }
        }
        let backends: Vec<Json> = self
            .pool
            .health_snapshot()
            .into_iter()
            .map(|h| {
                Json::Obj(vec![
                    ("addr".into(), Json::Str(h.addr)),
                    ("healthy".into(), Json::Bool(h.healthy)),
                    ("draining".into(), Json::Bool(h.draining)),
                    ("failures".into(), Json::Num(h.failures as f64)),
                    ("successes".into(), Json::Num(h.successes as f64)),
                ])
            })
            .collect();
        (
            200,
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                (
                    "router".into(),
                    Json::Obj(vec![
                        ("workers".into(), Json::Num(shared.config.workers as f64)),
                        ("replicas".into(), Json::Num(self.pool.replicas() as f64)),
                        (
                            "connections_accepted".into(),
                            Json::Num(shared.accepted.load(Ordering::Relaxed) as f64),
                        ),
                        (
                            "requests".into(),
                            Json::Num(shared.requests.load(Ordering::Relaxed) as f64),
                        ),
                        (
                            "pipelined_requests".into(),
                            Json::Num(shared.pipelined.load(Ordering::Relaxed) as f64),
                        ),
                        (
                            "failovers".into(),
                            Json::Num(shared.failovers.load(Ordering::Relaxed) as f64),
                        ),
                        (
                            "re_prepares".into(),
                            Json::Num(shared.re_prepares.load(Ordering::Relaxed) as f64),
                        ),
                        (
                            "idle_backend_connections".into(),
                            Json::Num(self.idle_connections() as f64),
                        ),
                        ("backends".into(), Json::Arr(backends)),
                    ]),
                ),
                (
                    "totals".into(),
                    Json::Obj(vec![
                        ("shard_requests".into(), Json::Num(shard_requests as f64)),
                        ("shard_documents".into(), Json::Num(shard_documents as f64)),
                    ]),
                ),
                ("shards".into(), Json::Arr(shards)),
            ]),
        )
    }
}

/// Clone `body` with `field` set to `value` (replacing any existing
/// entry) — the router rewrites `doc`, `handle`, and `options` before
/// forwarding.
fn with_field(body: &Json, field: &str, value: Json) -> Json {
    let mut entries: Vec<(String, Json)> = body
        .as_obj()
        .map(|o| o.iter().filter(|(k, _)| k != field).cloned().collect())
        .unwrap_or_default();
    entries.push((field.to_string(), value));
    Json::Obj(entries)
}

fn route(shared: &RouterShared, conn: &mut ConnCore, req: &Request) -> (u16, Json) {
    // Path first, then method — same 405 discipline as the single-node
    // handler.
    let core = &shared.core;
    let method = req.method.as_str();
    let wrong_method =
        || (405, wire::protocol_error_body("method_not_allowed", "wrong method for this path"));
    let with_body = |f: &mut dyn FnMut(&Json) -> (u16, Json)| match body_object(req) {
        Ok(body) => f(&body),
        Err(err) => err,
    };
    match req.path.as_str() {
        "/healthz" | "/" => match method {
            "GET" => (200, Json::Obj(vec![("ok".into(), Json::Bool(true))])),
            _ => wrong_method(),
        },
        "/query" => match method {
            "POST" => with_body(&mut |body| core.query(conn, body)),
            _ => wrong_method(),
        },
        "/prepare" => match method {
            "POST" => with_body(&mut |body| core.prepare(conn, body)),
            _ => wrong_method(),
        },
        "/execute" => match method {
            "POST" => with_body(&mut |body| core.execute(conn, body)),
            _ => wrong_method(),
        },
        "/documents" => match method {
            "GET" => core.documents(),
            _ => wrong_method(),
        },
        "/stats" => match method {
            "GET" => core.stats(shared),
            _ => wrong_method(),
        },
        "/shutdown" => match method {
            "POST" => {
                shared.shutdown_requested.store(true, Ordering::SeqCst);
                (
                    200,
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("draining".into(), Json::Bool(true)),
                    ]),
                )
            }
            _ => wrong_method(),
        },
        path if path.strip_prefix("/documents/").is_some_and(|id| !id.is_empty()) => {
            let id = path.strip_prefix("/documents/").expect("guard matched");
            match method {
                "PUT" => with_body(&mut |body| core.upload(conn, id, body)),
                _ => wrong_method(),
            }
        }
        path => (404, wire::protocol_error_body("not_found", &format!("no route for `{path}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Catalog;
    use crate::server::{Server, ServerConfig};
    use mhx_goddag::GoddagBuilder;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;

    const DRAIN_BODY: &str =
        r#"{"ok":false,"error":{"kind":"shutting_down","message":"draining"}}"#;
    const NOT_FOUND_BODY: &str =
        r#"{"ok":false,"error":{"kind":"unknown_document","message":"no document `ms`"}}"#;

    /// A canned-response backend: answers every request on every
    /// connection with `status` + `body`, counting requests served.
    fn mock_backend(status: u16, body: &'static str) -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hits = Arc::new(AtomicUsize::new(0));
        let shared_hits = Arc::clone(&hits);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut s) = stream else { continue };
                let hits = Arc::clone(&shared_hits);
                std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        // Read one Content-Length-framed request.
                        let end = loop {
                            if let Some(he) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                                let head = String::from_utf8_lossy(&buf[..he]).to_string();
                                let len = head
                                    .lines()
                                    .filter_map(|l| {
                                        l.to_ascii_lowercase()
                                            .strip_prefix("content-length:")
                                            .and_then(|v| v.trim().parse::<usize>().ok())
                                    })
                                    .next()
                                    .unwrap_or(0);
                                if buf.len() >= he + 4 + len {
                                    break he + 4 + len;
                                }
                            }
                            match s.read(&mut chunk) {
                                Ok(0) => return,
                                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                                Err(_) => return,
                            }
                        };
                        buf.drain(..end);
                        hits.fetch_add(1, Ordering::SeqCst);
                        let resp = format!(
                            "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n\
                             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                            body.len()
                        );
                        if s.write_all(resp.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, hits)
    }

    fn error_kind_of(json: &Json) -> &str {
        json.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str).unwrap_or("")
    }

    fn query_body(doc: &str) -> Json {
        mhx_json::parse(&format!(
            r#"{{"doc":"{doc}","lang":"xpath","query":"count(/descendant::w)"}}"#
        ))
        .unwrap()
    }

    #[test]
    fn a_drain_signal_retries_each_replica_exactly_once_then_502s() {
        let (a, hits_a) = mock_backend(503, DRAIN_BODY);
        let (b, hits_b) = mock_backend(503, DRAIN_BODY);
        let pool = Arc::new(BackendPool::new(vec![a, b], 2));
        let core = RouterCore::new(Arc::clone(&pool), 4);
        let mut conn = ConnCore::new();
        let (status, json) = core.query(&mut conn, &query_body("ms"));
        assert_eq!(status, 502);
        assert_eq!(error_kind_of(&json), wire::BAD_GATEWAY_KIND);
        assert_eq!(hits_a.load(Ordering::SeqCst), 1, "each replica tried exactly once");
        assert_eq!(hits_b.load(Ordering::SeqCst), 1, "each replica tried exactly once");
        assert_eq!(conn.failovers, 1, "one retry beyond the first attempt");
        let health = pool.health_snapshot();
        assert!(health.iter().all(|h| h.draining && !h.healthy), "both marked draining");
        assert_eq!(core.idle_connections(), 0, "drain attempts never pool their connection");
    }

    #[test]
    fn a_non_retryable_4xx_surfaces_immediately_without_failover() {
        let (a, hits_a) = mock_backend(404, NOT_FOUND_BODY);
        let (b, hits_b) = mock_backend(404, NOT_FOUND_BODY);
        let pool = Arc::new(BackendPool::new(vec![a, b], 2));
        // Which mock leads the replica set is hash-determined — read it
        // off the pool instead of assuming (the first read uses the
        // cursor's initial rotation, i.e. the unrotated set).
        let first = pool.replica_set("ms")[0];
        let core = RouterCore::new(Arc::clone(&pool), 4);
        let mut conn = ConnCore::new();
        let (status, json) = core.query(&mut conn, &query_body("ms"));
        assert_eq!(status, 404);
        assert_eq!(error_kind_of(&json), "unknown_document");
        let (h_first, h_other) = if first == 0 { (&hits_a, &hits_b) } else { (&hits_b, &hits_a) };
        assert_eq!(h_first.load(Ordering::SeqCst), 1, "only the first replica is asked");
        assert_eq!(h_other.load(Ordering::SeqCst), 0, "a 4xx never fails over");
        assert_eq!(conn.failovers, 0);
        assert_eq!(core.idle_connections(), 1, "the clean exchange pooled its connection");
    }

    fn live_shard(docs: &[&str]) -> Server {
        let catalog = Arc::new(Catalog::new());
        for id in docs {
            catalog.insert(
                *id,
                GoddagBuilder::new().hierarchy("w", "<r><w>a</w><w>b</w></r>").build().unwrap(),
            );
        }
        Server::bind(
            catalog,
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                poll_interval: Duration::from_millis(5),
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn prepared_handles_re_prepare_transparently_after_failover() {
        let mut shards = vec![Some(live_shard(&["ms"])), Some(live_shard(&["ms"]))];
        let addrs: Vec<String> =
            shards.iter().map(|s| s.as_ref().unwrap().addr().to_string()).collect();
        let pool = Arc::new(BackendPool::new(addrs, 2));
        let core = RouterCore::new(Arc::clone(&pool), 4);
        let mut conn = ConnCore::new();

        let prep = mhx_json::parse(r#"{"lang":"xpath","query":"count(/descendant::w)"}"#).unwrap();
        let (status, json) = core.prepare(&mut conn, &prep);
        assert_eq!(status, 200, "{json}");
        assert_eq!(json.get("handle").and_then(Json::as_u64), Some(0), "router handle space");

        // Kill the one backend that validated the statement before any
        // execute: every execute path must now transparently re-prepare
        // on the surviving replica's pooled connection.
        let owner = conn.prepared[0].validated_on;
        assert_eq!(conn.re_prepares, 0, "the eager prepare is not a re-prepare");
        shards[owner].take().unwrap().shutdown();

        let exec = mhx_json::parse(r#"{"handle":0,"doc":"ms"}"#).unwrap();
        let (status, json) = core.execute(&mut conn, &exec);
        assert_eq!(status, 200, "{json}");
        assert_eq!(json.get("serialized").and_then(Json::as_str), Some("2"));
        assert!(conn.re_prepares >= 1, "the statement was re-prepared after failover");

        // And the re-prepared handle stays with the pooled connection: a
        // second execute reuses it.
        let re_prepares = conn.re_prepares;
        let (status, json) = core.execute(&mut conn, &exec);
        assert_eq!(status, 200, "{json}");
        assert_eq!(json.get("serialized").and_then(Json::as_str), Some("2"));
        assert_eq!(conn.re_prepares, re_prepares, "handle cached on the survivor's connection");

        // A *different* client connection through the same core also
        // reuses the pooled statement — the handle table travels with
        // the backend connection, not the client.
        let mut other = ConnCore::new();
        let (status, json) = core.prepare(&mut other, &prep);
        assert_eq!(status, 200, "{json}");

        for s in shards.into_iter().flatten() {
            s.shutdown();
        }
    }

    #[test]
    fn uploads_replicate_to_k_shards_and_documents_merge() {
        let shards = [live_shard(&[]), live_shard(&[])];
        let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
        let pool = Arc::new(BackendPool::new(addrs, 2));
        let core = RouterCore::new(Arc::clone(&pool), 4);
        let mut conn = ConnCore::new();

        let upload =
            mhx_json::parse(r#"{"hierarchies":[{"name":"w","xml":"<r><w>a</w><w>b</w></r>"}]}"#)
                .unwrap();
        let (status, json) = core.upload(&mut conn, "novel", &upload);
        assert_eq!(status, 200, "{json}");
        assert_eq!(json.get("replicas").and_then(Json::as_u64), Some(2));
        for shard in &shards {
            assert!(
                shard.catalog().document_ids().contains(&"novel".to_string()),
                "every shard holds its replica"
            );
        }
        let (status, json) = core.documents();
        assert_eq!(status, 200);
        let entries = json.get("documents").and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), 1, "replicas merge to one entry: {json}");
        // The entry is the first shard's own object, residency included.
        let (_, own, _) = shards[0].catalog().document_status().remove(0);
        assert_eq!(entries[0].get("id").and_then(Json::as_str), Some("novel"));
        assert_eq!(entries[0].get("residency").and_then(Json::as_str), Some(own.name()));
        assert_eq!(entries[0].get("snapshot_bytes").and_then(Json::as_u64), Some(0));

        let (status, json) = core.query(&mut conn, &query_body("novel"));
        assert_eq!(status, 200, "{json}");
        assert_eq!(json.get("serialized").and_then(Json::as_str), Some("2"));

        for s in shards {
            s.shutdown();
        }
    }
}
