//! Request handling for both front ends: the one route table plus the
//! owned per-connection state (pinned document, prepared-statement table,
//! evaluation options) that lives in the event loop's connection table
//! and travels into a worker with each request. A node (`mhxd`) answers
//! from its [`Catalog`]; a router (`mhxr`) sends the work to its shard
//! pool ([`RouterCore`](super::router::RouterCore)). Only the endpoints
//! whose work differs branch on which: `/query`, `/execute`,
//! `/documents`, `/stats` and `PUT /documents/{id}`. The rest, `/prepare`
//! included, run the same code on either, a router's catalog being the
//! document-free one that compiles its `/prepare` bodies.
//!
//! Endpoints (all bodies JSON, see [`super::wire`]):
//!
//! | method | path               | action                                    |
//! |--------|--------------------|-------------------------------------------|
//! | GET    | `/healthz`         | liveness probe                            |
//! | POST   | `/query`           | ad-hoc query `{doc?, lang?, query, options?}` |
//! | POST   | `/prepare`         | compile `{lang?, query}` → `{handle}`     |
//! | POST   | `/execute`         | run a prepared handle `{handle, doc?}`    |
//! | PUT    | `/documents/{id}`  | upload `{hierarchies: [{name, xml}…]}`    |
//! | GET    | `/documents`       | list documents with residency + snapshot size |
//! | GET    | `/stats`           | cache/eval/server/store + per-session counters |
//! | POST   | `/shutdown`        | request graceful drain                    |

use crate::engine::{Catalog, EngineError, EvalStats, Prepared, QueryLang, Session};
use crate::server::http::Request;
use crate::server::wire;
use crate::server::{ConnStats, Shared};
use mhx_goddag::GoddagBuilder;
use mhx_json::Json;
use mhx_xquery::EvalOptions;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;

/// Cap on prepared statements per connection: compiled plans held outside
/// the LRU cache must stay bounded, mirroring the cache's own capacity.
const MAX_PREPARED_PER_CONN: usize = 256;

/// Mutable per-connection state. Owned (`'static`) so it can live in the
/// event loop's connection table and move into workers: instead of
/// holding a borrowing [`Session`] across requests, the connection pins a
/// *document id* and a node opens a short-lived session per request
/// ([`pin_session`]) — sessions are cheap handles, and the per-session
/// evaluation counters are folded into `totals` as each one is dropped.
/// A router keeps the same state and injects `opts` whole into every
/// query it forwards.
pub(crate) struct ConnState {
    /// The pinned document requests default to when they carry no `doc`.
    pub(crate) doc: Option<String>,
    pub(crate) prepared: Vec<Prepared>,
    /// The connection's evaluation options (survive document re-pins).
    pub(crate) opts: EvalOptions,
    /// Evaluation counters accumulated across this connection's requests.
    totals: EvalStats,
}

impl ConnState {
    pub(crate) fn new(opts: EvalOptions) -> ConnState {
        ConnState { doc: None, prepared: Vec::new(), opts, totals: EvalStats::default() }
    }

    pub(crate) fn eval_stats(&self) -> EvalStats {
        self.totals
    }
}

/// Route one parsed request. Runs on a dispatch worker; the event loop
/// guarantees requests from one connection arrive here serially.
pub(crate) fn route(
    shared: &Shared,
    conn: &ConnStats,
    state: &mut ConnState,
    req: &Request,
) -> (u16, String) {
    let catalog = &*shared.catalog;
    let router = shared.router.as_ref();
    // Resolve the path first, then the method: a known path with the
    // wrong method is always a 405, without a second hand-maintained
    // list of routes that could drift.
    let method = req.method.as_str();
    let wrong_method =
        || (405, wire::protocol_error_body("method_not_allowed", "wrong method for this path"));
    // A router's forwarded replies leave as the text they arrived as
    // (`Ok`); every other reply is built here and encoded once, below.
    let (status, reply) = match req.path.as_str() {
        "/healthz" | "/" => match method {
            "GET" => (200, Json::Obj(vec![("ok".into(), Json::Bool(true))])),
            _ => wrong_method(),
        },
        "/query" => match (method, router) {
            ("POST", Some(router)) => {
                match body_object(req).and_then(|body| router.query(state, &body)) {
                    Ok(forwarded) => return forwarded,
                    Err(err) => err,
                }
            }
            ("POST", None) => query_endpoint(catalog, conn, state, req),
            _ => wrong_method(),
        },
        "/prepare" => match method {
            "POST" => match body_object(req) {
                Ok(body) => prepare_into(catalog, &mut state.prepared, &body),
                Err(err) => err,
            },
            _ => wrong_method(),
        },
        "/execute" => match (method, router) {
            ("POST", Some(router)) => {
                match body_object(req).and_then(|body| router.execute(state, &body)) {
                    Ok(forwarded) => return forwarded,
                    Err(err) => err,
                }
            }
            ("POST", None) => execute_endpoint(catalog, conn, state, req),
            _ => wrong_method(),
        },
        "/documents" => match (method, router) {
            ("GET", Some(router)) => router.documents(),
            ("GET", None) => (200, documents_body(catalog)),
            _ => wrong_method(),
        },
        "/stats" => match (method, router) {
            ("GET", Some(router)) => (200, router.stats(shared)),
            ("GET", None) => (200, stats_body(shared)),
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
            match (method, router) {
                ("PUT", Some(router)) => {
                    match body_object(req).and_then(|body| router.upload(id, &body)) {
                        Ok(forwarded) => return forwarded,
                        Err(err) => err,
                    }
                }
                ("PUT", None) => upload_endpoint(catalog, id, req),
                _ => wrong_method(),
            }
        }
        path => (404, wire::protocol_error_body("not_found", &format!("no route for `{path}`"))),
    };
    (status, reply.to_string())
}

/// Parse the request body as a JSON object; protocol error otherwise.
fn body_object(req: &Request) -> Result<Json, (u16, Json)> {
    let text = req
        .body_str()
        .ok_or_else(|| (400, wire::protocol_error_body("bad_json", "body is not UTF-8")))?;
    let json =
        mhx_json::parse(text).map_err(|e| (400, wire::protocol_error_body("bad_json", &e)))?;
    if json.as_obj().is_none() {
        return Err((400, wire::protocol_error_body("bad_json", "body must be a JSON object")));
    }
    Ok(json)
}

fn engine_failure(e: &EngineError) -> (u16, Json) {
    (wire::status_for(e), wire::engine_error_body(e))
}

/// Apply a request's `"options"` patch onto the connection's options (a
/// node's session picks them up, a router forwards them), then resolve
/// its target document: explicit `doc` field, else the connection's
/// pinned document, else the only document `ids` lists (the node lists
/// its catalog, the router its fleet).
pub(crate) fn resolve_doc(
    state: &mut ConnState,
    body: &Json,
    ids: impl FnOnce() -> Result<Vec<String>, (u16, Json)>,
) -> Result<String, (u16, Json)> {
    if let Some(options) = body.get("options") {
        if let Err(message) = wire::apply_options(&mut state.opts, options) {
            return Err((400, wire::protocol_error_body("bad_options", &message)));
        }
    }
    if let Some(doc) = body.get("doc") {
        return doc.as_str().map(str::to_string).ok_or_else(|| {
            (400, wire::protocol_error_body("bad_request", "`doc` must be a string"))
        });
    }
    if let Some(doc) = &state.doc {
        return Ok(doc.clone());
    }
    let mut ids = ids()?;
    if ids.len() == 1 {
        return Ok(ids.pop().expect("len checked"));
    }
    Err((
        400,
        wire::protocol_error_body(
            "no_document",
            "no `doc` given, none pinned, and not exactly one document to default to",
        ),
    ))
}

/// Open this request's session on `doc` with the connection's options,
/// and remember the pin for later requests that omit `doc`.
fn pin_session<'c>(
    catalog: &'c Catalog,
    conn: &ConnStats,
    state: &mut ConnState,
    doc: &str,
) -> Result<Session<'c>, (u16, Json)> {
    let session =
        catalog.session(doc).map_err(|e| engine_failure(&e))?.with_options(state.opts.clone());
    if state.doc.as_deref() != Some(doc) {
        state.doc = Some(doc.to_string());
        conn.set_doc(doc);
    }
    Ok(session)
}

/// Shared tail of `/query` and `/execute`: resolve the document, open the
/// request's session, run `f`, fold the session's counters into the
/// connection totals.
fn with_session(
    catalog: &Catalog,
    conn: &ConnStats,
    state: &mut ConnState,
    body: &Json,
    f: impl FnOnce(&Session<'_>, &ConnState) -> Result<crate::engine::QueryOutcome, EngineError>,
) -> (u16, Json) {
    let doc = match resolve_doc(state, body, || Ok(catalog.document_ids())) {
        Ok(doc) => doc,
        Err(err) => return err,
    };
    let session = match pin_session(catalog, conn, state, &doc) {
        Ok(session) => session,
        Err(err) => return err,
    };
    let result = f(&session, &*state);
    state.totals.absorb(&session.eval_stats());
    match result {
        Ok(out) => (200, wire::outcome_body(out)),
        Err(e) => engine_failure(&e),
    }
}

fn query_endpoint(
    catalog: &Catalog,
    conn: &ConnStats,
    state: &mut ConnState,
    req: &Request,
) -> (u16, Json) {
    let body = match body_object(req) {
        Ok(b) => b,
        Err(err) => return err,
    };
    let (src, lang, explain) = match query_fields(&body) {
        Ok(fields) => fields,
        Err(err) => return err,
    };
    if explain {
        // Same resolution flow as a real query (options patch, doc
        // defaulting, document pin) so explain-then-query behaves
        // identically — but the plan is rendered, not evaluated.
        let doc = match resolve_doc(state, &body, || Ok(catalog.document_ids())) {
            Ok(doc) => doc,
            Err(err) => return err,
        };
        if let Err(err) = pin_session(catalog, conn, state, &doc) {
            return err;
        }
        return match catalog.explain(&doc, lang, src) {
            Ok(text) => (200, wire::explain_body(lang, &text)),
            Err(e) => engine_failure(&e),
        };
    }
    with_session(catalog, conn, state, &body, |session, _| session.query(lang, src))
}

/// Check a `/query` body's fields: the text, its language, and whether to
/// explain instead of run. A router checks them before it resolves a
/// document, so a malformed body fails there exactly as on a node.
pub(crate) fn query_fields(body: &Json) -> Result<(&str, QueryLang, bool), (u16, Json)> {
    let (src, lang) = query_and_lang(body)?;
    let explain = match body.get("explain") {
        None => false,
        Some(v) => v.as_bool().ok_or_else(|| {
            (400, wire::protocol_error_body("bad_request", "`explain` must be a boolean"))
        })?,
    };
    Ok((src, lang, explain))
}

/// The `query` text and `lang` of a `/query` or `/prepare` body.
fn query_and_lang(body: &Json) -> Result<(&str, QueryLang), (u16, Json)> {
    let src = body.get("query").and_then(Json::as_str).ok_or_else(|| {
        (400, wire::protocol_error_body("bad_request", "missing string field `query`"))
    })?;
    let lang = match body.get("lang") {
        None => QueryLang::XQuery,
        Some(v) => v.as_str().and_then(wire::parse_lang).ok_or_else(|| {
            (400, wire::protocol_error_body("bad_request", "`lang` must be `xpath` or `xquery`"))
        })?,
    };
    Ok((src, lang))
}

/// Validate a `/prepare` body `{lang?, query}` and compile it into a
/// connection's handle table. A router compiles against its
/// document-free catalog, so a bad statement fails at `/prepare` there
/// too, without contacting a shard.
pub(crate) fn prepare_into(
    catalog: &Catalog,
    prepared: &mut Vec<Prepared>,
    body: &Json,
) -> (u16, Json) {
    let (src, lang) = match query_and_lang(body) {
        Ok(fields) => fields,
        Err(err) => return err,
    };
    if prepared.len() >= MAX_PREPARED_PER_CONN {
        return (
            400,
            wire::protocol_error_body(
                "too_many_prepared",
                &format!("this connection already holds {MAX_PREPARED_PER_CONN} prepared queries"),
            ),
        );
    }
    match catalog.prepare(lang, src) {
        Ok(statement) => {
            prepared.push(statement);
            let handle = prepared.len() - 1;
            (
                200,
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("handle".into(), Json::Num(handle as f64)),
                    ("lang".into(), Json::Str(lang.name().into())),
                ]),
            )
        }
        Err(e) => engine_failure(&e),
    }
}

/// Look up an `/execute` body's `handle` in a connection's handle table
/// (a router forwards the statement's text, a node runs its plan).
pub(crate) fn prepared_handle(prepared: &[Prepared], body: &Json) -> Result<usize, (u16, Json)> {
    let Some(handle) = body.get("handle").and_then(Json::as_u64) else {
        return Err((
            400,
            wire::protocol_error_body("bad_request", "missing integer field `handle`"),
        ));
    };
    match usize::try_from(handle) {
        Ok(h) if h < prepared.len() => Ok(h),
        _ => Err((
            404,
            wire::protocol_error_body(
                "unknown_handle",
                &format!("no prepared query with handle {handle} on this connection"),
            ),
        )),
    }
}

fn execute_endpoint(
    catalog: &Catalog,
    conn: &ConnStats,
    state: &mut ConnState,
    req: &Request,
) -> (u16, Json) {
    let body = match body_object(req) {
        Ok(b) => b,
        Err(err) => return err,
    };
    let handle = match prepared_handle(&state.prepared, &body) {
        Ok(handle) => handle,
        Err(err) => return err,
    };
    with_session(catalog, conn, state, &body, |session, state| session.run(&state.prepared[handle]))
}

fn upload_endpoint(catalog: &Catalog, id: &str, req: &Request) -> (u16, Json) {
    if catalog.is_shutting_down() {
        return engine_failure(&EngineError::ShuttingDown);
    }
    let body = match body_object(req) {
        Ok(b) => b,
        Err(err) => return err,
    };
    let Some(hierarchies) = body.get("hierarchies").and_then(Json::as_arr) else {
        return (400, wire::protocol_error_body("bad_request", "missing array `hierarchies`"));
    };
    if hierarchies.is_empty() {
        return (400, wire::protocol_error_body("bad_request", "`hierarchies` must be non-empty"));
    }
    let mut builder = GoddagBuilder::new();
    for h in hierarchies {
        let (Some(name), Some(xml)) =
            (h.get("name").and_then(Json::as_str), h.get("xml").and_then(Json::as_str))
        else {
            return (
                400,
                wire::protocol_error_body(
                    "bad_request",
                    "each hierarchy needs string fields `name` and `xml`",
                ),
            );
        };
        builder = builder.hierarchy(name, xml);
    }
    match builder.build() {
        // `put`, not `insert`: with a data directory attached the upload
        // is persisted before it is served (a failed write is a 500 and
        // registers nothing).
        Ok(goddag) => match catalog.put(id, goddag) {
            Ok(()) => (
                200,
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("id".into(), Json::Str(id.into())),
                    ("hierarchies".into(), Json::Num(hierarchies.len() as f64)),
                ]),
            ),
            Err(e) => engine_failure(&e),
        },
        Err(e) => engine_failure(&EngineError::from(e)),
    }
}

/// A node's `GET /documents` listing.
fn documents_body(catalog: &Catalog) -> Json {
    let docs = catalog
        .document_status()
        .into_iter()
        .map(|(id, residency, bytes)| {
            Json::Obj(vec![
                ("id".into(), Json::Str(id)),
                ("residency".into(), Json::Str(residency.name().into())),
                ("snapshot_bytes".into(), Json::Num(bytes as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![("ok".into(), Json::Bool(true)), ("documents".into(), Json::Arr(docs))])
}

/// The counters both front ends report in `/stats` (under `server` on a
/// node, `router` on a router), after `workers` and a router's
/// `replicas`.
pub(crate) fn front_end_counters(shared: &Shared) -> [(String, Json); 4] {
    let count = |counter: &AtomicU64| Json::Num(counter.load(Ordering::Relaxed) as f64);
    [
        ("connections_accepted".into(), count(&shared.accepted)),
        ("requests".into(), count(&shared.requests)),
        ("pipelined_requests".into(), count(&shared.pipelined)),
        ("panics".into(), count(&shared.panics)),
    ]
}

/// A node's evaluation counters, as the `eval` section and each session
/// row of `/stats` report them.
fn eval_counters(eval: &EvalStats) -> [(String, Json); 6] {
    [
        ("batched_steps".into(), Json::Num(eval.batched_steps as f64)),
        ("rewritten_steps".into(), Json::Num(eval.rewritten_steps as f64)),
        ("plan_rewrites".into(), Json::Num(eval.plan_rewrites as f64)),
        ("early_exit_steps".into(), Json::Num(eval.early_exit_steps as f64)),
        ("hoisted_preds".into(), Json::Num(eval.hoisted_preds as f64)),
        ("chain_joins".into(), Json::Num(eval.chain_joins as f64)),
    ]
}

/// A node's `GET /stats`.
fn stats_body(shared: &Shared) -> Json {
    let catalog = &shared.catalog;
    let cache = catalog.cache_stats();
    let sessions: Vec<Json> = shared
        .conns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .values()
        .map(|c| {
            let doc = c.doc.lock().unwrap_or_else(PoisonError::into_inner).clone();
            let mut row = vec![
                ("conn".into(), Json::Num(c.id as f64)),
                ("peer".into(), Json::Str(c.peer.clone())),
                ("doc".into(), Json::Str(doc)),
                ("requests".into(), Json::Num(c.requests.load(Ordering::Relaxed) as f64)),
            ];
            row.extend(eval_counters(&c.eval.lock().unwrap_or_else(PoisonError::into_inner)));
            Json::Obj(row)
        })
        .collect();
    let mut server = vec![("workers".into(), Json::Num(shared.config.workers as f64))];
    server.extend(front_end_counters(shared));
    server.push(("active_connections".into(), Json::Num(sessions.len() as f64)));
    server.push(("sessions".into(), Json::Arr(sessions)));
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        (
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(cache.hits as f64)),
                ("misses".into(), Json::Num(cache.misses as f64)),
                ("evictions".into(), Json::Num(cache.evictions as f64)),
                ("cross_doc_hits".into(), Json::Num(cache.cross_doc_hits as f64)),
                ("entries".into(), Json::Num(cache.entries as f64)),
            ]),
        ),
        ("eval".into(), Json::Obj(eval_counters(&catalog.eval_stats()).into())),
        ("server".into(), Json::Obj(server)),
        ("documents".into(), Json::Num(catalog.len() as f64)),
        ("store".into(), store_section(catalog)),
    ])
}

/// The `/stats` persistence section. Always present (all-zero without a
/// data directory) so clients need no shape detection.
fn store_section(catalog: &Catalog) -> Json {
    let store = catalog.store_stats();
    Json::Obj(vec![
        ("attached".into(), Json::Bool(store.attached)),
        (
            "memory_budget".into(),
            match store.budget {
                Some(b) => Json::Num(b as f64),
                None => Json::Null,
            },
        ),
        ("loads".into(), Json::Num(store.loads as f64)),
        ("evictions".into(), Json::Num(store.evictions as f64)),
        ("cold_start_hits".into(), Json::Num(store.cold_start_hits as f64)),
        ("bytes_on_disk".into(), Json::Num(store.bytes_on_disk as f64)),
        ("resident_docs".into(), Json::Num(store.resident_docs as f64)),
        ("resident_bytes".into(), Json::Num(store.resident_bytes as f64)),
    ])
}
