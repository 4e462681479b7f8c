//! # `mhxr` — the shard router
//!
//! One JSON/HTTP front end over N `mhxd` backends, speaking the *same*
//! wire protocol clients already use — a client cannot tell a router
//! from a single node except for the extra `/stats` sections. It *is*
//! the node's front end ([`Server::bind_router`](crate::server::Server::bind_router)):
//! the same event loop, route table, per-connection state, config and
//! counters, with this module's `RouterCore` as the backend where a
//! node has its documents.
//!
//! ```text
//!                clients (keep-alive, wire protocol)
//!                          │
//!               mhxr (the mhxd front end, evented)
//!          consistent hash on document id (BackendPool)
//!            │                │                │
//!         mhxd shard 0     mhxd shard 1     mhxd shard 2
//! ```
//!
//! * **Routing** — `/query` and `/execute` resolve their target document
//!   the way a node does (explicit `doc`, else the connection's pinned
//!   document, else the fleet's only document) and go to its replica set
//!   ([`BackendPool::read_order`], round-robin across replicas).
//!   `PUT /documents/{id}` walks the ring and uploads to `--replicas K`
//!   distinct shards. Documents are immutable after upload, so
//!   replication is re-upload + deterministic placement — no consensus,
//!   and two routers over the same `--shard` list agree.
//! * **Scatter/gather** — `GET /documents` unions all shards' listings;
//!   `GET /stats` nests every shard's stats under `shards` plus a
//!   `router` section (backend health, failover counters, the idle
//!   backend-connection gauge).
//! * **Failover** — a connection error, a body that is not JSON, or the
//!   typed `503`/`shutting_down` drain signal from one shard retries the
//!   next replica; only when every replica failed does the client see an
//!   error, and it is the distinct `502`/`bad_gateway` kind. Any other
//!   response passes through verbatim: 4xx is deterministic on every
//!   replica, and so is a `500`/`internal` (the request panicked its
//!   handler and would panic the next replica too).
//! * **Prepared statements** — the client connection's handle table holds
//!   the statements themselves: `/prepare` compiles against the router's
//!   document-free [`Catalog`](crate::engine::Catalog), exactly as on a
//!   node, and contacts no backend; `/execute` forwards the statement's
//!   text as an ad-hoc `/query`. A query's text alone names its plan on
//!   every shard, so any replica answers from its plan cache and a handle
//!   survives failover with nothing to re-prepare.
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
//! (`wire::options_json`) and the resolved `doc` into every forwarded
//! `/query`, making backend session state irrelevant per request. One
//! consequence: the wire defaults (not a backend catalog's custom
//! defaults) are what an option-silent client gets through the router.
//!
//! A forwarded reply (`/query`, `/execute`, a rejected upload) travels as
//! text: the router decodes each backend body once, for the checks that
//! read it (the drain signal, a garbled body, the pin decision), and
//! sends the text on as received, never encoding it again. The gathers
//! (`/documents`, `/stats`) build bodies of their own from the decoded
//! replies. A backend that closes its connection after a reply (as a
//! node does after a `500`/`internal`) does not get that connection back
//! in the free list.

use crate::server::client::{Client, ClientError};
use crate::server::handler::{
    front_end_counters, prepared_handle, query_fields, resolve_doc, ConnState,
};
use crate::server::pool::BackendPool;
use crate::server::{wire, Shared};
use mhx_json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A forwarding endpoint's answer: `Ok` is reply text ready to send (a
/// backend's reply as it arrived, or the router's own upload receipt);
/// `Err` is a reply for the route table to encode, as the handler's
/// checks return them.
type Forwarded = Result<(u16, String), (u16, Json)>;

/// A reply on its way to the client: the body text it is sent as, and
/// that text decoded (once) for the checks that read it.
struct Reply {
    status: u16,
    text: String,
    json: Json,
}

/// How one backend attempt ended.
enum Attempt {
    /// A complete HTTP exchange with a JSON body that is not the drain
    /// signal — pass it through (4xx and `500`/`internal` included:
    /// deterministic on every replica).
    Done(Reply),
    /// Connection error, garbled response, or the typed drain signal:
    /// try the next replica. Carries the reason for the 502 message.
    Failover(String),
}

/// The router's backend: the placement pool plus one LIFO free list of
/// pooled connections per backend. Checkout pops (or dials); checkin
/// pushes back **only after a clean exchange** — a transport error or
/// drain signal drops the connection.
pub(crate) struct RouterCore {
    pool: Arc<BackendPool>,
    idle: Vec<Mutex<Vec<Client>>>,
    idle_cap: usize,
    /// Retries past a request's first replica, and upload attempts that
    /// found a shard down or draining.
    failovers: AtomicU64,
}

impl RouterCore {
    pub(crate) fn new(pool: Arc<BackendPool>, idle_cap: usize) -> RouterCore {
        let n = pool.len();
        RouterCore {
            pool,
            idle: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            idle_cap,
            failovers: AtomicU64::new(0),
        }
    }

    /// Pop an idle pooled connection to backend `i`, or dial a fresh one.
    fn checkout(&self, i: usize) -> Result<Client, ClientError> {
        if let Some(b) = self.idle[i].lock().unwrap_or_else(PoisonError::into_inner).pop() {
            return Ok(b);
        }
        Ok(Client::connect(self.pool.addr(i))?)
    }

    /// Return a connection after a clean exchange (dropped if the free
    /// list is full).
    fn checkin(&self, i: usize, backend: Client) {
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
    /// connection, with health classification: transport failures, a
    /// body that is not JSON and the drain signal become
    /// [`Attempt::Failover`] (and drop the connection); everything else
    /// passes through, and its connection goes back to the free list
    /// unless the backend closes it.
    fn attempt(&self, i: usize, method: &str, path: &str, body: Option<&Json>) -> Attempt {
        let mut backend = match self.checkout(i) {
            Ok(b) => b,
            Err(e) => {
                self.pool.mark_down(i);
                return Attempt::Failover(format!("{}: {e}", self.pool.addr(i)));
            }
        };
        let exchanged = backend.exchange(method, path, body).and_then(|raw| Ok((raw.json()?, raw)));
        match exchanged {
            Ok((json, raw)) if wire::is_drain_envelope(raw.status, &json) => {
                self.pool.mark_draining(i);
                Attempt::Failover(format!("{} is draining", self.pool.addr(i)))
            }
            Ok((json, raw)) => {
                self.pool.mark_up(i);
                if !raw.close {
                    self.checkin(i, backend);
                }
                Attempt::Done(Reply { status: raw.status, text: raw.body, json })
            }
            Err(e) => {
                self.pool.mark_down(i);
                Attempt::Failover(format!("{}: {e}", self.pool.addr(i)))
            }
        }
    }

    /// `POST /query` to each replica in `order` until one completes the
    /// exchange; exhausting them is the router's own `502`/`bad_gateway`.
    fn try_replicas(&self, order: &[usize], body: &Json) -> Reply {
        let mut tried = Vec::new();
        for (k, &i) in order.iter().enumerate() {
            if k > 0 {
                self.failovers.fetch_add(1, Ordering::Relaxed);
            }
            match self.attempt(i, "POST", "/query", Some(body)) {
                Attempt::Done(reply) => return reply,
                Attempt::Failover(why) => tried.push(why),
            }
        }
        let json =
            wire::bad_gateway_body(&format!("all replicas unavailable ({})", tried.join("; ")));
        Reply { status: 502, text: json.to_string(), json }
    }

    /// Forward an ad-hoc query: the body's own fields, less the `doc` and
    /// `options` the router fills in itself.
    pub(crate) fn query(&self, state: &mut ConnState, body: &Json) -> Forwarded {
        query_fields(body)?;
        let fields = body.as_obj().unwrap_or_default().iter();
        let fields = fields.filter(|(k, _)| k != "doc" && k != "options").cloned();
        self.forward(state, body, fields)
    }

    /// Run a prepared handle: its text travels as an ad-hoc `/query`
    /// through the same replica failover, and the backend's plan cache
    /// turns the repeated text into a lookup.
    pub(crate) fn execute(&self, state: &mut ConnState, body: &Json) -> Forwarded {
        let statement = &state.prepared[prepared_handle(&state.prepared, body)?];
        let fields = [
            ("lang".to_string(), Json::Str(statement.lang().name().into())),
            ("query".to_string(), Json::Str(statement.source().into())),
        ];
        self.forward(state, body, fields.into_iter())
    }

    /// Send `fields` plus the resolved `doc` and the connection's complete
    /// options, built as one object, to the document's replicas. Resolve
    /// the options and the document in a node's order, and pin the
    /// document exactly when a node would: once a backend found it,
    /// whether the query then succeeded or failed to parse, compile or
    /// evaluate.
    fn forward(
        &self,
        state: &mut ConnState,
        body: &Json,
        fields: impl Iterator<Item = (String, Json)>,
    ) -> Forwarded {
        let doc = resolve_doc(state, body, || Ok(self.document_listing()?.into_keys().collect()))?;
        let mut fwd: Vec<(String, Json)> = fields.collect();
        fwd.push(("doc".into(), Json::Str(doc.clone())));
        fwd.push(("options".into(), wire::options_json(&state.opts)));
        let order = self.pool.read_order(&doc);
        let reply = self.try_replicas(&order, &Json::Obj(fwd));
        let kind = reply.json.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
        if reply.status == 200 || matches!(kind, Some("parse" | "compile" | "eval")) {
            state.doc = Some(doc);
        }
        Ok((reply.status, reply.text))
    }

    /// Upload `id` to its replica set, walking the ring past dead
    /// backends so the document still lands `replicas` times when a
    /// preferred shard is down.
    pub(crate) fn upload(&self, id: &str, body: &Json) -> Forwarded {
        let want = self.pool.replicas();
        let order = self.pool.ring_order(id);
        let mut placed = Vec::new();
        let mut tried = Vec::new();
        for &i in &order {
            if placed.len() == want {
                break;
            }
            match self.attempt(i, "PUT", &format!("/documents/{id}"), Some(body)) {
                Attempt::Done(reply) if (200..300).contains(&reply.status) => placed.push(i),
                // A deterministic rejection (malformed hierarchy, bad id)
                // would fail identically on every shard: surface it. Any
                // shard that already accepted keeps the document — uploads
                // of a fixed id are idempotent, so a client retry heals.
                Attempt::Done(reply) => return Ok((reply.status, reply.text)),
                Attempt::Failover(why) => tried.push(why),
            }
        }
        self.failovers.fetch_add(tried.len() as u64, Ordering::Relaxed);
        if placed.is_empty() {
            let message = format!("no shard accepted `{id}` ({})", tried.join("; "));
            return Err((502, wire::bad_gateway_body(&message)));
        }
        self.pool.record_placement(id, placed.clone());
        let shards: Vec<Json> =
            placed.iter().map(|&i| Json::Str(self.pool.addr(i).into())).collect();
        let receipt = Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("id".into(), Json::Str(id.into())),
            ("replicas".into(), Json::Num(placed.len() as f64)),
            ("shards".into(), Json::Arr(shards)),
        ]);
        Ok((200, receipt.to_string()))
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
                Attempt::Done(reply) if (200..300).contains(&reply.status) => {
                    match reply.json.get("documents").and_then(Json::as_arr) {
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
                Attempt::Done(reply) => {
                    errors.push(format!("{}: status {}", self.pool.addr(i), reply.status));
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
    pub(crate) fn stats(&self, shared: &Shared) -> Json {
        let mut shards = Vec::new();
        let mut shard_requests = 0u64;
        let mut shard_documents = 0u64;
        for i in 0..self.pool.len() {
            let addr = self.pool.addr(i).to_string();
            match self.attempt(i, "GET", "/stats", None) {
                Attempt::Done(Reply { status, json, .. }) if (200..300).contains(&status) => {
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
        let mut router = vec![
            ("workers".into(), Json::Num(shared.config.workers as f64)),
            ("replicas".into(), Json::Num(self.pool.replicas() as f64)),
        ];
        router.extend(front_end_counters(shared));
        router.extend([
            ("failovers".into(), Json::Num(self.failovers.load(Ordering::Relaxed) as f64)),
            // Always 0 (nothing is re-prepared: a routed statement travels
            // as its text); kept so the section keeps its shape for
            // readers of /stats.
            ("re_prepares".into(), Json::Num(0.0)),
            ("idle_backend_connections".into(), Json::Num(self.idle_connections() as f64)),
            ("backends".into(), Json::Arr(backends)),
        ]);
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("router".into(), Json::Obj(router)),
            (
                "totals".into(),
                Json::Obj(vec![
                    ("shard_requests".into(), Json::Num(shard_requests as f64)),
                    ("shard_documents".into(), Json::Num(shard_documents as f64)),
                ]),
            ),
            ("shards".into(), Json::Arr(shards)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Catalog;
    use crate::server::handler::prepare_into;
    use crate::server::{Server, ServerConfig};
    use mhx_goddag::GoddagBuilder;
    use mhx_xquery::EvalOptions;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    const DRAIN_BODY: &str =
        r#"{"ok":false,"error":{"kind":"shutting_down","message":"draining"}}"#;
    const NOT_FOUND_BODY: &str =
        r#"{"ok":false,"error":{"kind":"unknown_document","message":"no document `ms`"}}"#;
    const INTERNAL_BODY: &str =
        r#"{"ok":false,"error":{"kind":"internal","message":"the request's handler panicked"}}"#;

    /// A canned-response backend: answers every request on every
    /// connection with `status` + `body`, counting requests served. A
    /// `500` closes the connection after the reply, as a node does after
    /// a panicking request.
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
                        let close = status == 500;
                        let resp = format!(
                            "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n\
                             Content-Length: {}\r\nConnection: {}\r\n\r\n{body}",
                            body.len(),
                            if close { "close" } else { "keep-alive" },
                        );
                        if s.write_all(resp.as_bytes()).is_err() || close {
                            return;
                        }
                    }
                });
            }
        });
        (addr, hits)
    }

    /// Decode a forwarded reply's text for the assertions.
    fn decoded(reply: Forwarded) -> (u16, Json) {
        match reply {
            Ok((status, text)) => (status, mhx_json::parse(&text).expect("replies are JSON")),
            Err(built) => built,
        }
    }

    /// A fresh client connection's state.
    fn new_conn() -> ConnState {
        ConnState::new(EvalOptions::default())
    }

    fn failovers(core: &RouterCore) -> u64 {
        core.failovers.load(Ordering::Relaxed)
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
        let mut conn = new_conn();
        let (status, json) = decoded(core.query(&mut conn, &query_body("ms")));
        assert_eq!(status, 502);
        assert_eq!(error_kind_of(&json), wire::BAD_GATEWAY_KIND);
        assert_eq!(hits_a.load(Ordering::SeqCst), 1, "each replica tried exactly once");
        assert_eq!(hits_b.load(Ordering::SeqCst), 1, "each replica tried exactly once");
        assert_eq!(failovers(&core), 1, "one retry beyond the first attempt");
        let health = pool.health_snapshot();
        assert!(health.iter().all(|h| h.draining && !h.healthy), "both marked draining");
        assert_eq!(core.idle_connections(), 0, "drain attempts never pool their connection");
    }

    /// A body that does not parse is a garbled exchange: it fails over
    /// like a dead replica, and its connection is never pooled.
    #[test]
    fn a_body_that_is_not_json_fails_over_to_each_replica_once_then_502s() {
        let (a, hits_a) = mock_backend(200, "<html>not json</html>");
        let (b, hits_b) = mock_backend(200, "<html>not json</html>");
        let pool = Arc::new(BackendPool::new(vec![a, b], 2));
        let core = RouterCore::new(Arc::clone(&pool), 4);
        let mut conn = new_conn();
        let (status, json) = decoded(core.query(&mut conn, &query_body("ms")));
        assert_eq!(status, 502, "{json}");
        assert_eq!(error_kind_of(&json), wire::BAD_GATEWAY_KIND);
        assert_eq!(hits_a.load(Ordering::SeqCst), 1, "each replica tried exactly once");
        assert_eq!(hits_b.load(Ordering::SeqCst), 1, "each replica tried exactly once");
        assert_eq!(failovers(&core), 1, "one retry beyond the first attempt");
        assert_eq!(core.idle_connections(), 0, "a garbled exchange never pools its connection");
    }

    /// 4xx, and `500`/`internal` too, are deterministic on every replica:
    /// the first reply passes through as received, with no failover.
    #[test]
    fn a_non_retryable_4xx_surfaces_immediately_without_failover() {
        for (status_in, body, kind, pooled) in [
            (404, NOT_FOUND_BODY, "unknown_document", 1),
            // The backend closes after a 500, so its connection is dropped.
            (500, INTERNAL_BODY, wire::INTERNAL_KIND, 0),
        ] {
            let (a, hits_a) = mock_backend(status_in, body);
            let (b, hits_b) = mock_backend(status_in, body);
            let pool = Arc::new(BackendPool::new(vec![a, b], 2));
            // Which mock leads the replica set is hash-determined — read it
            // off the pool instead of assuming (the first read uses the
            // cursor's initial rotation, i.e. the unrotated set).
            let first = pool.replica_set("ms")[0];
            let core = RouterCore::new(Arc::clone(&pool), 4);
            let mut conn = new_conn();
            let (status, text) = core.query(&mut conn, &query_body("ms")).expect("forwarded");
            assert_eq!(status, status_in);
            assert_eq!(text, body, "forwarded as received");
            assert_eq!(error_kind_of(&mhx_json::parse(&text).unwrap()), kind);
            let (h_first, h_other) =
                if first == 0 { (&hits_a, &hits_b) } else { (&hits_b, &hits_a) };
            assert_eq!(h_first.load(Ordering::SeqCst), 1, "only the first replica is asked");
            assert_eq!(h_other.load(Ordering::SeqCst), 0, "{status_in} never fails over");
            assert_eq!(failovers(&core), 0);
            assert_eq!(core.idle_connections(), pooled, "{status_in}: pooled connections");
        }
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

    /// `/prepare` as a router answers it: against its document-free
    /// catalog.
    fn prepare(catalog: &Catalog, conn: &mut ConnState) -> (u16, Json) {
        let body = mhx_json::parse(r#"{"lang":"xpath","query":"count(/descendant::w)"}"#).unwrap();
        prepare_into(catalog, &mut conn.prepared, &body)
    }

    fn execute_body(doc: &str) -> Json {
        mhx_json::parse(&format!(r#"{{"handle":0,"doc":"{doc}"}}"#)).unwrap()
    }

    /// Handles belong to the client connection: however many connections
    /// prepare, none is refused by a backend session's 256-handle cap.
    #[test]
    fn every_connection_prepares_and_executes_past_the_backend_handle_cap() {
        let shard = live_shard(&["ms"]);
        let pool = Arc::new(BackendPool::new(vec![shard.addr().to_string()], 1));
        let core = RouterCore::new(pool, 4);
        let catalog = Catalog::new();
        for k in 0..300 {
            let mut conn = new_conn();
            let (status, json) = prepare(&catalog, &mut conn);
            assert_eq!(status, 200, "prepare on connection {k}: {json}");
            let (status, json) = decoded(core.execute(&mut conn, &execute_body("ms")));
            assert_eq!(status, 200, "execute on connection {k}: {json}");
            assert_eq!(json.get("serialized").and_then(Json::as_str), Some("2"));
        }
        shard.shutdown();
    }

    #[test]
    fn prepared_handles_survive_failover_with_nothing_to_re_prepare() {
        let mut shards = vec![Some(live_shard(&["ms"])), Some(live_shard(&["ms"]))];
        let addrs: Vec<String> =
            shards.iter().map(|s| s.as_ref().unwrap().addr().to_string()).collect();
        let pool = Arc::new(BackendPool::new(addrs, 2));
        let core = RouterCore::new(Arc::clone(&pool), 4);
        let mut conn = new_conn();
        let (status, json) = prepare(&Catalog::new(), &mut conn);
        assert_eq!(status, 200, "{json}");
        assert_eq!(json.get("handle").and_then(Json::as_u64), Some(0), "router handle space");

        // Kill the replica the first read goes to (the cursor's initial
        // rotation is the unrotated replica set).
        shards[pool.replica_set("ms")[0]].take().unwrap().shutdown();
        for _ in 0..2 {
            let (status, json) = decoded(core.execute(&mut conn, &execute_body("ms")));
            assert_eq!(status, 200, "{json}");
            assert_eq!(json.get("serialized").and_then(Json::as_str), Some("2"));
        }
        assert!(failovers(&core) >= 1, "the first execute failed over to the survivor");

        for s in shards.into_iter().flatten() {
            s.shutdown();
        }
    }

    #[test]
    fn prepare_needs_no_backend_but_execute_502s_when_every_backend_is_down() {
        let dead = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string();
        let core = RouterCore::new(Arc::new(BackendPool::new(vec![dead], 1)), 4);
        let mut conn = new_conn();
        let (status, json) = prepare(&Catalog::new(), &mut conn);
        assert_eq!(status, 200, "{json}");
        let (status, json) = decoded(core.execute(&mut conn, &execute_body("ms")));
        assert_eq!(status, 502, "{json}");
        assert_eq!(error_kind_of(&json), wire::BAD_GATEWAY_KIND);
    }

    #[test]
    fn uploads_replicate_to_k_shards_and_documents_merge() {
        let shards = [live_shard(&[]), live_shard(&[])];
        let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
        let pool = Arc::new(BackendPool::new(addrs, 2));
        let core = RouterCore::new(Arc::clone(&pool), 4);
        let mut conn = new_conn();

        let upload =
            mhx_json::parse(r#"{"hierarchies":[{"name":"w","xml":"<r><w>a</w><w>b</w></r>"}]}"#)
                .unwrap();
        let (status, json) = decoded(core.upload("novel", &upload));
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

        let (status, json) = decoded(core.query(&mut conn, &query_body("novel")));
        assert_eq!(status, 200, "{json}");
        assert_eq!(json.get("serialized").and_then(Json::as_str), Some("2"));

        for s in shards {
            s.shutdown();
        }
    }

    /// A document nested too deep is refused by the first shard with
    /// `400`/`document`, which every shard would repeat: the router
    /// surfaces it without sending the upload anywhere else.
    #[test]
    fn a_too_deep_upload_is_refused_by_one_shard_only() {
        let shards = [live_shard(&[]), live_shard(&[])];
        let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
        let pool = Arc::new(BackendPool::new(addrs, 2));
        let core = RouterCore::new(Arc::clone(&pool), 4);
        let levels = 10_000;
        let xml = format!("<r>{}x{}</r>", "<e>".repeat(levels), "</e>".repeat(levels));
        let upload = Json::Obj(vec![(
            "hierarchies".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::Str("w".into())),
                ("xml".into(), Json::Str(xml)),
            ])]),
        )]);
        let (status, json) = decoded(core.upload("deep", &upload));
        assert_eq!((status, error_kind_of(&json)), (400, "document"), "{json}");
        let requests: u64 = shards.iter().map(|s| s.stats().requests).sum();
        assert_eq!(requests, 1, "only the first shard saw the upload");
        assert_eq!(failovers(&core), 0);
        for s in shards {
            assert!(s.catalog().document_ids().is_empty());
            s.shutdown();
        }
    }
}
