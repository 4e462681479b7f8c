//! Integration tests for the `mhxd` wire protocol: a real server on an
//! ephemeral loopback port, real TCP clients (the `server::client`
//! module plus raw requests), concurrency, error-status mapping,
//! keep-alive reuse, prepared handles, and graceful shutdown.

use mhx_json::Json;
use multihier_xquery::prelude::*;
use multihier_xquery::server::client::{Client, ClientError};
use multihier_xquery::server::{Server, ServerConfig};
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

#[test]
fn engine_errors_map_to_typed_statuses() {
    let server = boot(2);
    let mut client = connect(&server);

    let body = |entries: Vec<(&str, Json)>| {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let query_body = |lang: &str, query: &str| {
        body(vec![
            ("doc", Json::Str("ms-a".into())),
            ("lang", Json::Str(lang.into())),
            ("query", Json::Str(query.into())),
        ])
    };
    let error_kind = |json: &Json| {
        json.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };

    // Parse error → 400, kind `parse`, language attached (the byte
    // offset rides along when the parser reports one).
    let (status, json) =
        client.request("POST", "/query", Some(&query_body("xpath", "/descendant::"))).unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_kind(&json), "parse");
    let err = json.get("error").unwrap();
    assert_eq!(err.get("lang").and_then(Json::as_str), Some("xpath"));

    // Static compile error (unbound variable) → 400, kind `compile`.
    let (status, json) =
        client.request("POST", "/query", Some(&query_body("xquery", "$undefined"))).unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_kind(&json), "compile");

    // Dynamic evaluation error → 422.
    let (status, json) =
        client.request("POST", "/query", Some(&query_body("xquery", "1 idiv 0"))).unwrap();
    assert_eq!(status, 422);
    assert_eq!(error_kind(&json), "eval");

    // XPath calls outside XPath's function library fail to compile → 400,
    // while an unbound XPath variable fails at evaluation → 422.
    let (status, json) = client
        .request("POST", "/query", Some(&query_body("xpath", "exists(/descendant::w)")))
        .unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_kind(&json), "compile");
    let (status, json) =
        client.request("POST", "/query", Some(&query_body("xpath", "$undefined"))).unwrap();
    assert_eq!(status, 422);
    assert_eq!(error_kind(&json), "eval");

    // Unknown document → 404.
    let (status, json) = client
        .request(
            "POST",
            "/query",
            Some(&body(vec![
                ("doc", Json::Str("nowhere".into())),
                ("query", Json::Str("1 + 1".into())),
            ])),
        )
        .unwrap();
    assert_eq!(status, 404);
    assert_eq!(error_kind(&json), "unknown_document");

    // Malformed document upload → 400, kind `document`.
    let (status, json) = client
        .request(
            "PUT",
            "/documents/bad",
            Some(&body(vec![(
                "hierarchies",
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::Str("w".into())),
                    ("xml".into(), Json::Str("<r><w>unclosed".into())),
                ])]),
            )])),
        )
        .unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_kind(&json), "document");

    // Protocol-level failures: bad JSON, missing field, unknown handle,
    // unknown route, wrong method.
    let (status, _) =
        client.request("POST", "/query", Some(&Json::Str("not an object".into()))).unwrap();
    assert_eq!(status, 400);
    let (status, json) = client.request("POST", "/query", Some(&body(vec![]))).unwrap();
    assert_eq!(status, 400);
    assert_eq!(error_kind(&json), "bad_request");
    let (status, json) =
        client.request("POST", "/execute", Some(&body(vec![("handle", Json::Num(99.0))]))).unwrap();
    assert_eq!(status, 404);
    assert_eq!(error_kind(&json), "unknown_handle");
    let (status, json) = client.request("GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    assert_eq!(error_kind(&json), "not_found");
    let (status, json) = client.request("DELETE", "/query", None).unwrap();
    assert_eq!(status, 405);
    assert_eq!(error_kind(&json), "method_not_allowed");

    // Prepared statements are bounded per connection; the 257th is
    // refused with a typed protocol error.
    for _ in 0..256 {
        client.prepare(QueryLang::XPath, "/descendant::w").unwrap();
    }
    match client.prepare(QueryLang::XPath, "/descendant::w") {
        Err(ClientError::Server { status: 400, kind, .. }) => {
            assert_eq!(kind, "too_many_prepared")
        }
        other => panic!("expected the prepared cap, got {other:?}"),
    }

    // The connection survived every error — all exchanges above reused it.
    assert_eq!(server.stats().connections_accepted, 1);
    assert!(server.shutdown());
}

/// The shard router extends the status table with `502`/`bad_gateway`:
/// "every replica of this document is unreachable or draining" — distinct
/// from one backend's retryable `503`/`shutting_down` drain signal.
#[test]
fn router_maps_exhausted_replicas_to_bad_gateway() {
    use multihier_xquery::server::{BackendPool, Router, RouterConfig};

    let server = boot(2);
    let pool = Arc::new(BackendPool::new(vec![server.addr().to_string()], 1));
    let router = Router::bind(pool, "127.0.0.1:0", RouterConfig::default()).unwrap();
    let mut via_router = Client::connect(&router.addr().to_string()).unwrap();

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

    router.shutdown();
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
