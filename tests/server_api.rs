//! Integration tests for the `mhxd` wire protocol: a real server on an
//! ephemeral loopback port, real TCP clients (the `server::client`
//! module plus raw requests), concurrency, error-status mapping,
//! keep-alive reuse, prepared handles, and graceful shutdown.

use mhx_json::Json;
use multihier_xquery::prelude::*;
use multihier_xquery::server::client::{Client, ClientError};
use multihier_xquery::server::{BackendPool, Server, ServerConfig};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The two-hierarchy manuscript the engine tests use; the split word
/// `singallice` gives the extended axes something to find.
fn manuscript() -> Goddag {
    GoddagBuilder::new()
        .hierarchy(
            "lines",
            "<r><line>gesceaftum unawendendne sin</line><line>gallice sibbe gecynde þa</line></r>",
        )
        .hierarchy(
            "words",
            "<r><w>gesceaftum</w> <w>unawendendne</w> <w>singallice</w> <w>sibbe</w> \
             <w>gecynde</w> <w>þa</w></r>",
        )
        .build()
        .unwrap()
}

/// A second manuscript with a different shape (so per-document answers
/// differ and cross-document cache sharing is observable).
fn manuscript_b() -> Goddag {
    GoddagBuilder::new()
        .hierarchy("lines", "<r><line>sibbe ge</line><line>cynde</line></r>")
        .hierarchy("words", "<r><w>sibbe</w> <w>gecynde</w></r>")
        .build()
        .unwrap()
}

fn boot(workers: usize) -> Server {
    let catalog = Arc::new(Catalog::new());
    catalog.insert("ms-a", manuscript());
    catalog.insert("ms-b", manuscript_b());
    let config = ServerConfig {
        workers,
        poll_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    Server::bind(catalog, "127.0.0.1:0", config).expect("bind ephemeral port")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.addr().to_string()).expect("connect")
}

/// A shard router in front of `server` alone.
fn router_in_front_of(server: &Server) -> Server {
    let pool = Arc::new(BackendPool::new(vec![server.addr().to_string()], 1));
    Server::bind_router(pool, "127.0.0.1:0", ServerConfig::default()).expect("bind router")
}

#[test]
fn eight_concurrent_clients_mixed_workload() {
    let server = boot(8);
    let addr = server.addr().to_string();

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                // Half the clients pin ms-a, half ms-b; all mix languages
                // and exercise a prepared handle across requests.
                let (doc, words) = if i % 2 == 0 { ("ms-a", 6) } else { ("ms-b", 2) };
                let handle =
                    client.prepare(QueryLang::XQuery, "count(/descendant::w)").expect("prepare");
                for round in 0..10 {
                    let out = client.xpath(doc, "/descendant::w[overlapping::line]").unwrap();
                    assert_eq!(out.kind, "nodes");
                    // One word straddles the line break in each document:
                    // `singallice` in ms-a, `gecynde` in ms-b.
                    assert_eq!(out.count, Some(1), "round {round} on {doc}");
                    let straddler =
                        if doc == "ms-a" { "<w>singallice</w>" } else { "<w>gecynde</w>" };
                    assert_eq!(out.serialized, straddler);

                    let out = client
                        .xquery(doc, "for $l in /descendant::line return string($l)")
                        .unwrap();
                    assert_eq!(out.kind, "markup");
                    let expected_text = if doc == "ms-a" {
                        "gesceaftum unawendendne singallice sibbe gecynde þa"
                    } else {
                        "sibbe gecynde"
                    };
                    assert_eq!(out.serialized, expected_text);

                    let out = client.execute(handle, Some(doc)).unwrap();
                    assert_eq!(out.serialized, words.to_string());
                }
                client
            })
        })
        .collect();
    // Keep every client's connection alive until all threads finish, so
    // the 8 connections genuinely overlap.
    let clients: Vec<Client> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    drop(clients);

    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 8, "one connection per client");
    assert_eq!(stats.requests, 8 * (1 + 30), "8 clients × (prepare + 10×3 queries)");
    // One compilation per distinct text serves both documents and all
    // eight connections.
    let cache = server.catalog().cache_stats();
    assert_eq!(cache.misses, 3, "three distinct query texts");
    assert!(cache.cross_doc_hits > 0, "{cache:?}");
    assert!(server.shutdown());
}

/// The typed status table: each row sends one request on `client`'s
/// connection and expects one `(status, error kind)`, with `""` for a
/// success. A node and a router in front of it must answer every row
/// identically.
fn check_status_table(client: &mut Client) {
    let body = |entries: Vec<(&str, Json)>| {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let query = |doc: Option<&str>, lang: &str, query: &str| {
        let mut entries =
            vec![("lang", Json::Str(lang.into())), ("query", Json::Str(query.into()))];
        entries.extend(doc.map(|d| ("doc", Json::Str(d.into()))));
        body(entries)
    };
    let mut row = |method: &str, path: &str, body: Option<Json>, status: u16, kind: &str| {
        let (got, json) = client.request(method, path, body.as_ref()).unwrap();
        let got_kind =
            json.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str).unwrap_or("");
        assert_eq!((got, got_kind), (status, kind), "{method} {path} {body:?} → {json}");
        json
    };
    let serialized = |json: &Json| json.get("serialized").and_then(Json::as_str).map(String::from);

    // A malformed body is reported as such, before any document is
    // resolved: this connection has no pin and there are two documents.
    row("POST", "/query", Some(body(vec![])), 400, "bad_request");
    row("POST", "/query", Some(query(None, "cobol", "1")), 400, "bad_request");

    // Parse error → 400, kind `parse`, language attached (the byte
    // offset rides along when the parser reports one).
    let json =
        row("POST", "/query", Some(query(Some("ms-a"), "xpath", "/descendant::")), 400, "parse");
    assert_eq!(json.get("error").unwrap().get("lang").and_then(Json::as_str), Some("xpath"));
    // Static compile error (unbound variable) → 400, kind `compile`, on
    // `/query` and on `/prepare` alike.
    row("POST", "/query", Some(query(Some("ms-a"), "xquery", "$undefined")), 400, "compile");
    row("POST", "/prepare", Some(query(None, "xquery", "$undefined")), 400, "compile");
    // So is an XQuery call to an unknown function or with a wrong
    // argument count, even in a branch evaluation would never reach.
    for q in ["nosuch()", "if (false()) then nosuch() else 1", "count((1, 2), 3)"] {
        row("POST", "/query", Some(query(Some("ms-a"), "xquery", q)), 400, "compile");
    }
    row("POST", "/prepare", Some(query(None, "xquery", "nosuch()")), 400, "compile");
    // Dynamic evaluation error → 422.
    row("POST", "/query", Some(query(Some("ms-a"), "xquery", "1 idiv 0")), 422, "eval");
    // XPath calls outside XPath's function library fail to compile → 400,
    // while an unbound XPath variable fails at evaluation → 422.
    row(
        "POST",
        "/query",
        Some(query(Some("ms-a"), "xpath", "exists(/descendant::w)")),
        400,
        "compile",
    );
    row("POST", "/query", Some(query(Some("ms-a"), "xpath", "$undefined")), 422, "eval");
    // Unknown document → 404.
    row("POST", "/query", Some(query(Some("nowhere"), "xquery", "1 + 1")), 404, "unknown_document");

    // Malformed document upload → 400, kind `document`.
    let bad_upload = body(vec![(
        "hierarchies",
        Json::Arr(vec![Json::Obj(vec![
            ("name".into(), Json::Str("w".into())),
            ("xml".into(), Json::Str("<r><w>unclosed".into())),
        ])]),
    )]);
    row("PUT", "/documents/bad", Some(bad_upload), 400, "document");

    // Input that would overflow a worker's stack or exhaust memory is a
    // typed error, and the connection answers the next request. Too deep
    // a query is `parse` (on `/prepare` too, which a router compiles
    // itself); too deep a document is `document`; a regex too deeply
    // nested or too large to compile, and a range too long to build or
    // with a bound that is not an integer, fail evaluation.
    let parens = |levels: usize| format!("{}1{}", "(".repeat(levels), ")".repeat(levels));
    for lang in ["xquery", "xpath"] {
        row("POST", "/query", Some(query(Some("ms-a"), lang, &parens(1_000))), 400, "parse");
        row("POST", "/prepare", Some(query(None, lang, &parens(1_000))), 400, "parse");
    }
    row("POST", "/query", Some(query(Some("ms-a"), "xquery", &parens(40))), 200, "");
    // Evaluation recurses once per FLWOR clause and quantifier binding, so
    // 10,000 of either are too deep a query as well.
    let bindings: Vec<String> = (0..10_000).map(|i| format!("$x{i} in 1")).collect();
    let clauses: String = (0..10_000).map(|i| format!("for $x{i} in 1 ")).collect();
    for q in
        [format!("some {} satisfies true()", bindings.join(", ")), format!("{clauses}return 1")]
    {
        row("POST", "/query", Some(query(Some("ms-a"), "xquery", &q)), 400, "parse");
        let json = row("POST", "/query", Some(query(Some("ms-a"), "xquery", "1 + 1")), 200, "");
        assert_eq!(serialized(&json).as_deref(), Some("2"));
    }
    let deep_upload = body(vec![(
        "hierarchies",
        Json::Arr(vec![Json::Obj(vec![
            ("name".into(), Json::Str("w".into())),
            (
                "xml".into(),
                Json::Str(format!("<r>{}x{}</r>", "<e>".repeat(10_000), "</e>".repeat(10_000))),
            ),
        ])]),
    )]);
    row("PUT", "/documents/deep", Some(deep_upload), 400, "document");
    row("GET", "/documents", None, 200, "");
    let groups = format!("{}a{}", "(".repeat(10_000), ")".repeat(10_000));
    for q in [
        format!("count(analyze-string(/, '{groups}')/child::m)"),
        "matches('x', 'x{4294967295}')".to_string(),
        "tokenize('a', '(a{1000}){1000}')".to_string(),
        "count(1 to 100000000000)".to_string(),
        "count('a' to 3)".to_string(),
    ] {
        row("POST", "/query", Some(query(Some("ms-a"), "xquery", &q)), 422, "eval");
    }
    let json = row(
        "POST",
        "/query",
        Some(query(Some("ms-a"), "xquery", "count(analyze-string(/, 'sceaft')/child::m)")),
        200,
        "",
    );
    assert_eq!(serialized(&json).as_deref(), Some("1"));

    // Protocol-level failures: bad JSON, missing or mistyped handle,
    // unknown route, wrong method.
    row("POST", "/query", Some(Json::Str("not an object".into())), 400, "bad_json");
    row("POST", "/execute", Some(body(vec![("handle", Json::Num(99.0))])), 404, "unknown_handle");
    row(
        "POST",
        "/execute",
        Some(body(vec![("handle", Json::Str("x".into()))])),
        400,
        "bad_request",
    );
    row("GET", "/nope", None, 404, "not_found");
    row("DELETE", "/query", None, 405, "method_not_allowed");

    // Without `doc`, a request runs on the connection's pinned document:
    // the last one a request found, even when its query then failed to
    // parse. An unknown or mistyped `doc` leaves the pin alone.
    let count_words = "count(/descendant::w)";
    let json = row("POST", "/query", Some(query(Some("ms-b"), "xpath", count_words)), 200, "");
    assert_eq!(serialized(&json).as_deref(), Some("2"));
    let json = row("POST", "/query", Some(query(None, "xpath", count_words)), 200, "");
    assert_eq!(serialized(&json).as_deref(), Some("2"), "pinned to ms-b");
    let json = row("POST", "/prepare", Some(query(None, "xpath", count_words)), 200, "");
    let handle = json.get("handle").and_then(Json::as_u64).unwrap();
    let execute = body(vec![("handle", Json::Num(handle as f64))]);
    let json = row("POST", "/execute", Some(execute.clone()), 200, "");
    assert_eq!(serialized(&json).as_deref(), Some("2"), "pinned to ms-b");
    row(
        "POST",
        "/query",
        Some(query(Some("nowhere"), "xpath", count_words)),
        404,
        "unknown_document",
    );
    let mistyped = body(vec![("doc", Json::Num(7.0)), ("query", Json::Str(count_words.into()))]);
    row("POST", "/query", Some(mistyped), 400, "bad_request");
    let json = row("POST", "/execute", Some(execute), 200, "");
    assert_eq!(serialized(&json).as_deref(), Some("2"), "still pinned to ms-b");
    row("POST", "/query", Some(query(Some("ms-a"), "xpath", "/descendant::")), 400, "parse");
    let json = row("POST", "/query", Some(query(None, "xpath", count_words)), 200, "");
    assert_eq!(serialized(&json).as_deref(), Some("6"), "pinned to ms-a");

    // Prepared statements are bounded per connection; the 257th is
    // refused with a typed protocol error, but a body that is malformed
    // anyway is reported as such first.
    for _ in handle + 1..256 {
        row("POST", "/prepare", Some(query(None, "xpath", "/descendant::w")), 200, "");
    }
    row("POST", "/prepare", Some(query(None, "xpath", "/descendant::w")), 400, "too_many_prepared");
    row(
        "POST",
        "/prepare",
        Some(body(vec![("lang", Json::Str("xpath".into()))])),
        400,
        "bad_request",
    );
}

#[test]
fn engine_errors_map_to_typed_statuses() {
    let server = boot(2);
    check_status_table(&mut connect(&server));
    // The connection survived every error — all exchanges above reused it.
    assert_eq!(server.stats().connections_accepted, 1);

    let router = router_in_front_of(&server);
    check_status_table(&mut connect(&router));
    // 10,000 nested arrays: a body too deep to parse is `bad_json`, and
    // the connection (and the process) lives on to answer the next query.
    let deep = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    for front_end in [&server, &router] {
        let mut stream = TcpStream::connect(front_end.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (status, json) = raw_post(&mut stream, "/query", &deep);
        let kind = json.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
        assert_eq!((status, kind), (400, Some("bad_json")), "{json}");
        let query = r#"{"doc":"ms-a","lang":"xpath","query":"count(/descendant::w)"}"#;
        let (status, json) = raw_post(&mut stream, "/query", query);
        assert_eq!(status, 200, "{json}");
        assert_eq!(json.get("serialized").and_then(Json::as_str), Some("6"));
    }
    assert!(router.shutdown());
    assert!(server.shutdown());
}

/// One `POST` on `stream` with `body` sent as given, for a body the
/// `Json` writer cannot build (it would overflow the test thread's
/// stack); returns the reply's status and decoded body.
fn raw_post(stream: &mut TcpStream, path: &str, body: &str) -> (u16, Json) {
    write!(stream, "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
        .expect("send");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("reply head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("UTF-8 head");
    let status = head[9..12].parse().expect("status code");
    let length = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:")?.trim().parse().ok())
        .expect("Content-Length");
    let mut reply = vec![0u8; length];
    stream.read_exact(&mut reply).expect("reply body");
    (status, mhx_json::parse(std::str::from_utf8(&reply).unwrap()).expect("JSON reply"))
}

/// The shard router extends the status table with `502`/`bad_gateway`:
/// "every replica of this document is unreachable or draining" — distinct
/// from one backend's retryable `503`/`shutting_down` drain signal.
#[test]
fn router_maps_exhausted_replicas_to_bad_gateway() {
    let server = boot(2);
    let router = router_in_front_of(&server);
    let mut via_router = connect(&router);

    // Pass-through: a routed query answers exactly like a direct one…
    let out = via_router.xpath("ms-a", "count(/descendant::w)").unwrap();
    assert_eq!(out.serialized, "6");
    // …and a deterministic 4xx surfaces verbatim, and is not retryable.
    let err = via_router.xpath("ms-a", "/descendant::").unwrap_err();
    match &err {
        ClientError::Server { status: 400, kind, .. } => assert_eq!(kind, "parse"),
        other => panic!("expected the parse error, got {other:?}"),
    }
    assert!(!err.is_retryable());

    // Drain the lone backend. Directly, clients see the retryable typed
    // drain signal; through the router the replica set is exhausted,
    // which is the distinct final 502.
    server.catalog().begin_shutdown();
    let mut direct = connect(&server);
    let err = direct.xpath("ms-a", "count(/descendant::w)").unwrap_err();
    match &err {
        ClientError::Server { status: 503, kind, .. } => assert_eq!(kind, "shutting_down"),
        other => panic!("expected the drain signal, got {other:?}"),
    }
    assert!(err.is_retryable(), "shutting_down means: retry another replica");

    let err = via_router.xpath("ms-a", "count(/descendant::w)").unwrap_err();
    match &err {
        ClientError::Server { status: 502, kind, message } => {
            assert_eq!(kind, "bad_gateway");
            assert!(message.contains("replicas unavailable"), "{message}");
        }
        other => panic!("expected bad_gateway, got {other:?}"),
    }
    assert!(!err.is_retryable(), "502 means every replica was already tried");

    assert!(router.shutdown());
    assert!(server.shutdown());
}

/// The key set of `json`'s object at `path` (each step an object key, or
/// `0` for an array's first element).
fn keys_at(json: &Json, path: &[&str]) -> BTreeSet<String> {
    let node = path.iter().fold(json, |node, step| match *step {
        "0" => &node.as_arr().expect("array")[0],
        key => node.get(key).unwrap_or_else(|| panic!("no `{key}` in {node}")),
    });
    node.as_obj().expect("object").iter().map(|(k, _)| k.clone()).collect()
}

fn key_set(keys: &[&str]) -> BTreeSet<String> {
    keys.iter().map(|k| k.to_string()).collect()
}

/// Operators and the end-to-end benchmark read `/stats` by key: both
/// front ends keep every section's key set.
#[test]
fn stats_keep_their_shape_on_both_front_ends() {
    let server = boot(2);
    let mut client = connect(&server);
    client.xpath("ms-a", "count(/descendant::w)").unwrap();
    let stats = client.stats().unwrap();
    let eval_keys = [
        "batched_steps",
        "rewritten_steps",
        "plan_rewrites",
        "early_exit_steps",
        "hoisted_preds",
        "chain_joins",
    ];
    let node = [
        (vec![], key_set(&["ok", "cache", "eval", "server", "documents", "store"])),
        (vec!["cache"], key_set(&["hits", "misses", "evictions", "cross_doc_hits", "entries"])),
        (vec!["eval"], key_set(&eval_keys)),
        (
            vec!["server"],
            key_set(&[
                "workers",
                "connections_accepted",
                "requests",
                "pipelined_requests",
                "panics",
                "active_connections",
                "sessions",
            ]),
        ),
        (
            vec!["server", "sessions", "0"],
            key_set(&["conn", "peer", "doc", "requests"])
                .union(&key_set(&eval_keys))
                .cloned()
                .collect(),
        ),
        (
            vec!["store"],
            key_set(&[
                "attached",
                "memory_budget",
                "loads",
                "evictions",
                "cold_start_hits",
                "bytes_on_disk",
                "resident_docs",
                "resident_bytes",
            ]),
        ),
    ];
    for (path, want) in &node {
        assert_eq!(&keys_at(&stats, path), want, "node /stats at {path:?}");
    }

    let router = router_in_front_of(&server);
    let stats = connect(&router).stats().unwrap();
    let routed = [
        (vec![], key_set(&["ok", "router", "totals", "shards"])),
        (
            vec!["router"],
            key_set(&[
                "workers",
                "replicas",
                "connections_accepted",
                "requests",
                "pipelined_requests",
                "panics",
                "failovers",
                "re_prepares",
                "idle_backend_connections",
                "backends",
            ]),
        ),
        (
            vec!["router", "backends", "0"],
            key_set(&["addr", "healthy", "draining", "failures", "successes"]),
        ),
        (vec!["totals"], key_set(&["shard_requests", "shard_documents"])),
        (vec!["shards", "0"], key_set(&["addr", "stats"])),
    ];
    for (path, want) in &routed {
        assert_eq!(&keys_at(&stats, path), want, "router /stats at {path:?}");
    }
    // A shard's own stats nest whole under `shards[].stats`.
    assert_eq!(keys_at(&stats, &["shards", "0", "stats"]), node[0].1);
    assert!(router.shutdown());
    assert!(server.shutdown());
}

/// A router's shutdown drains its document-free catalog as a node's
/// drains its documents, so a `/prepare` that races the drain gets the
/// retryable drain signal from either front end.
#[test]
fn a_draining_router_answers_prepare_with_the_drain_signal() {
    let server = boot(2);
    let router = router_in_front_of(&server);
    let catalog = Arc::clone(router.catalog());
    assert!(router.shutdown());
    assert!(catalog.is_shutting_down(), "shutdown drains the router's catalog");

    let router = router_in_front_of(&server);
    let mut client = connect(&router);
    router.catalog().begin_shutdown();
    match client.prepare(QueryLang::XPath, "count(/descendant::w)") {
        Err(ClientError::Server { status: 503, kind, .. }) => assert_eq!(kind, "shutting_down"),
        other => panic!("expected the drain signal, got {other:?}"),
    }
    assert!(router.shutdown());
    assert!(server.shutdown());
}

#[test]
fn keepalive_reuses_one_connection_and_sessions_show_in_stats() {
    let server = boot(4);
    let mut busy = connect(&server);

    for _ in 0..5 {
        busy.xpath("ms-a", "/descendant::w").unwrap();
    }
    // A second connection observes the first one's per-session counters.
    let mut observer = connect(&server);
    let stats = observer.stats().unwrap();
    let sessions = stats
        .get("server")
        .and_then(|s| s.get("sessions"))
        .and_then(Json::as_arr)
        .expect("sessions list");
    assert_eq!(sessions.len(), 2, "busy + observer are both active");
    let busy_row = sessions
        .iter()
        .find(|s| s.get("doc").and_then(Json::as_str) == Some("ms-a"))
        .expect("busy session row");
    assert_eq!(busy_row.get("requests").and_then(Json::as_u64), Some(5));
    let batched = busy_row.get("batched_steps").and_then(Json::as_u64).unwrap();
    assert!(batched > 0, "per-session eval counters are live: {busy_row:?}");
    // Engine totals cover at least the session's counters.
    let eval_total = stats.get("eval").and_then(|e| e.get("batched_steps")).and_then(Json::as_u64);
    assert!(eval_total.unwrap() >= batched);

    // 5 queries + 1 stats call rode on exactly two TCP connections.
    assert_eq!(server.stats().connections_accepted, 2);
    assert!(server.shutdown());
}

#[test]
fn explain_renders_plans_over_the_wire_and_probe_counters_surface() {
    let server = boot(2);
    let mut client = connect(&server);

    // `explain: true` returns the rendered plan instead of a result.
    let text = client.explain(Some("ms-a"), QueryLang::XPath, "//w[xfollowing::line]").unwrap();
    assert!(text.contains("existential probe"), "{text}");
    assert!(text.contains("est "), "{text}");
    assert!(text.contains("actual "), "{text}");
    let text = client.explain(Some("ms-a"), QueryLang::XQuery, "//w[xfollowing::line]").unwrap();
    assert!(text.contains("existential probe"), "{text}");

    // A mistyped `explain` is a protocol error, not a silent query.
    let body = Json::Obj(vec![
        ("query".into(), Json::Str("//w".into())),
        ("explain".into(), Json::Str("yes".into())),
    ]);
    let (status, _) = client.request("POST", "/query", Some(&body)).unwrap();
    assert_eq!(status, 400);

    // Running the probed query bumps the new counters in /stats, both in
    // the engine totals and the per-session row.
    client.xpath("ms-a", "/descendant::w[xfollowing::line]").unwrap();
    let stats = client.stats().unwrap();
    let eval = stats.get("eval").expect("eval object");
    assert!(eval.get("early_exit_steps").and_then(Json::as_u64).unwrap() >= 1, "{eval:?}");
    let sessions = stats
        .get("server")
        .and_then(|s| s.get("sessions"))
        .and_then(Json::as_arr)
        .expect("sessions list");
    let row = sessions
        .iter()
        .find(|s| s.get("doc").and_then(Json::as_str) == Some("ms-a"))
        .expect("session row");
    assert!(row.get("early_exit_steps").and_then(Json::as_u64).unwrap() >= 1, "{row:?}");
    assert!(server.shutdown());
}

#[test]
fn documents_can_be_uploaded_listed_and_queried() {
    let server = boot(2);
    let mut client = connect(&server);

    assert_eq!(client.documents().unwrap(), vec!["ms-a".to_string(), "ms-b".to_string()]);
    client
        .put_document(
            "uploaded",
            &[
                ("lines", "<r><line>ab</line><line>cd</line></r>"),
                ("words", "<r><w>a</w><w>bcd</w></r>"),
            ],
        )
        .unwrap();
    assert_eq!(client.documents().unwrap().len(), 3);
    let out = client.xpath("uploaded", "/descendant::w[overlapping::line]").unwrap();
    assert_eq!(out.count, Some(1));
    assert_eq!(out.serialized, "<w>bcd</w>");
    assert!(server.shutdown());
}

#[test]
fn options_are_per_connection_on_the_wire() {
    let server = boot(4);
    let mut paper = connect(&server);
    let mut xslt = connect(&server);

    let q = "serialize(analyze-string((/descendant::w)[2], '.*unawe.*'))";
    let patch = Json::Obj(vec![("analyze_mode".into(), Json::Str("xslt".into()))]);
    let greedy = xslt.query_with(Some("ms-a"), QueryLang::XQuery, q, Some(&patch)).unwrap();
    assert_eq!(greedy.serialized, "<res><m>unawendendne</m></res>");
    // The other connection keeps paper-compat semantics on the same text.
    let shortest = paper.xquery("ms-a", q).unwrap();
    assert_eq!(shortest.serialized, "<res><m>unawe</m>ndendne</res>");
    // One compilation served both connections.
    assert_eq!(server.catalog().cache_stats().misses, 1);
    assert!(server.shutdown());
}

#[test]
fn graceful_shutdown_never_truncates_a_response() {
    let server = boot(4);
    let addr = server.addr().to_string();
    let expected = "gesceaftum unawendendne singallice sibbe gecynde þa";

    let handles: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut completed = 0u32;
                loop {
                    match client.xquery("ms-a", "for $l in /descendant::line return string($l)") {
                        Ok(out) => {
                            // Every 200 body is complete and correct.
                            assert_eq!(out.serialized, expected);
                            completed += 1;
                        }
                        // Draining: either a whole 503 envelope or a clean
                        // connection close between requests.
                        Err(ClientError::Server { status: 503, kind, .. }) => {
                            assert_eq!(kind, "shutting_down");
                            break;
                        }
                        Err(ClientError::Io(_)) => break,
                        // A Protocol error would mean a truncated or
                        // malformed response — exactly what graceful
                        // shutdown must never produce.
                        Err(other) => panic!("non-clean failure during drain: {other}"),
                    }
                }
                completed
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(50));
    let catalog = Arc::clone(server.catalog());
    assert!(server.shutdown(), "engine drained to zero in-flight");
    let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "clients completed work before the drain");
    assert_eq!(catalog.in_flight(), 0);
    assert!(catalog.is_shutting_down());
    assert!(matches!(catalog.xquery("ms-a", "1 + 1"), Err(EngineError::ShuttingDown)));
}

#[test]
fn shutdown_endpoint_requests_the_drain() {
    let server = boot(2);
    let mut client = connect(&server);
    assert!(!server.shutdown_requested());
    client.shutdown_server().unwrap();
    assert!(server.shutdown_requested(), "POST /shutdown reached the owner");
    assert!(server.shutdown());
}

#[test]
fn drain_under_an_idle_keep_alive_fleet_is_prompt_and_complete() {
    let server = boot(4);

    // Park a fleet of idle keep-alive connections, far beyond the worker
    // count: under the evented front end they hold table entries, not
    // threads, and a drain must close them without waiting on timeouts.
    let mut fleet: Vec<TcpStream> = (0..120)
        .map(|_| {
            let s = TcpStream::connect(server.addr()).expect("park connection");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    let t0 = Instant::now();
    while server.stats().active_connections < 120 {
        assert!(t0.elapsed() < Duration::from_secs(5), "fleet never fully accepted");
        thread::sleep(Duration::from_millis(10));
    }

    // Half the fleet has sent part of a request — drain must not wait for
    // the rest of those bytes either.
    for s in fleet.iter_mut().take(60) {
        s.write_all(b"POST /query HTTP/1.1\r\nContent-Le").unwrap();
    }

    // Active clients keep querying right up to (and across) the drain.
    let addr = server.addr().to_string();
    let hammers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let mut completed = 0u32;
                loop {
                    match client.xpath("ms-a", "count(/descendant::w)") {
                        Ok(out) => {
                            assert_eq!(out.serialized, "6");
                            completed += 1;
                        }
                        Err(ClientError::Server { status: 503, .. }) | Err(ClientError::Io(_)) => {
                            break
                        }
                        Err(other) => panic!("non-clean failure during drain: {other}"),
                    }
                }
                completed
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(50));

    let t0 = Instant::now();
    assert!(server.shutdown(), "drained cleanly under the idle fleet");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "shutdown stalled on idle connections: {:?}",
        t0.elapsed()
    );
    let total: u32 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "active clients completed work before the drain");

    // Every parked connection was closed server-side: a clean EOF, not a
    // hang and not a truncated response.
    for s in &mut fleet {
        let mut buf = [0u8; 64];
        assert_eq!(s.read(&mut buf).expect("fleet socket readable"), 0, "expected EOF");
    }
}
