//! Protocol torture tests for the evented front end: raw TCP clients
//! that split, trickle, pipeline, oversize, and abandon requests in
//! every way the incremental parser and connection table must survive.
//! The well-behaved-client paths live in `server_api.rs`; this suite is
//! the adversarial complement.

use mhx_json::Json;
use multihier_xquery::prelude::*;
use multihier_xquery::server::client::Client;
use multihier_xquery::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn boot(config: ServerConfig) -> Server {
    let catalog = Arc::new(Catalog::new());
    catalog.insert(
        "ms",
        GoddagBuilder::new().hierarchy("w", "<r><w>a</w> <w>b</w> <w>c</w></r>").build().unwrap(),
    );
    Server::bind(catalog, "127.0.0.1:0", config).expect("bind ephemeral port")
}

fn quick_config(workers: usize) -> ServerConfig {
    ServerConfig { workers, poll_interval: Duration::from_millis(5), ..ServerConfig::default() }
}

/// One `/query` request as raw bytes, with an arithmetic query whose
/// serialized answer identifies it (`{n}+{n}` → `2n`).
fn query_request(n: u64, close: bool) -> Vec<u8> {
    let body = format!(r#"{{"doc":"ms","query":"{n} + {n}"}}"#);
    format!(
        "POST /query HTTP/1.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if close { "close" } else { "keep-alive" },
    )
    .into_bytes()
}

/// A raw keep-alive connection that reads `Content-Length`-framed
/// responses one at a time.
struct RawConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RawConn {
    fn connect(server: &Server) -> RawConn {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.set_nodelay(true).unwrap();
        RawConn { stream, buf: Vec::new() }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
    }

    /// Read exactly one response; `None` on a clean EOF before any bytes
    /// of it arrived.
    fn try_read_response(&mut self) -> Option<(u16, String)> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(he) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..he]).to_string();
                let status: u16 = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("malformed status line in {head:?}"));
                let len: usize = head
                    .lines()
                    .filter_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .and_then(|v| v.trim().parse().ok())
                    })
                    .next()
                    .expect("response has Content-Length");
                if self.buf.len() >= he + 4 + len {
                    let body = String::from_utf8_lossy(&self.buf[he + 4..he + 4 + len]).to_string();
                    self.buf.drain(..he + 4 + len);
                    return Some((status, body));
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    assert!(self.buf.is_empty(), "EOF mid-response: {:?}", self.buf);
                    return None;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    fn read_response(&mut self) -> (u16, String) {
        self.try_read_response().expect("peer closed before responding")
    }
}

fn serialized_of(body: &str) -> String {
    let json = mhx_json::parse(body).expect("JSON body");
    json.get("serialized").and_then(Json::as_str).unwrap_or_default().to_string()
}

#[test]
fn a_byte_at_a_time_request_parses_and_keep_alive_survives() {
    let server = boot(quick_config(2));
    let mut conn = RawConn::connect(&server);

    // Two byte-trickled requests on one connection: the parser resumes
    // its scan incrementally, and the connection stays reusable.
    for n in [3u64, 4] {
        for byte in query_request(n, false) {
            conn.send(&[byte]);
        }
        let (status, body) = conn.read_response();
        assert_eq!(status, 200, "{body}");
        assert_eq!(serialized_of(&body), (2 * n).to_string());
    }
    assert_eq!(server.stats().connections_accepted, 1);
    assert!(server.shutdown());
}

#[test]
fn a_request_split_at_every_boundary_parses_identically() {
    let server = boot(quick_config(2));
    let mut conn = RawConn::connect(&server);
    let request = query_request(5, false);

    // Force a real read boundary at every byte offset — including inside
    // the `\r\n\r\n` terminator and inside the body.
    for split in 1..request.len() {
        conn.send(&request[..split]);
        thread::sleep(Duration::from_millis(1));
        conn.send(&request[split..]);
        let (status, body) = conn.read_response();
        assert_eq!(status, 200, "split at {split}: {body}");
        assert_eq!(serialized_of(&body), "10", "split at {split}");
    }
    assert_eq!(server.stats().connections_accepted, 1, "one connection served every split");
    assert!(server.shutdown());
}

#[test]
fn a_pipelined_burst_answers_in_request_order() {
    let server = boot(quick_config(4));
    let mut conn = RawConn::connect(&server);

    // 16 requests in one TCP write; responses must come back in arrival
    // order even though 4 workers execute concurrently elsewhere.
    let burst: Vec<u8> = (1..=16u64).flat_map(|n| query_request(n, false)).collect();
    conn.send(&burst);
    for n in 1..=16u64 {
        let (status, body) = conn.read_response();
        assert_eq!(status, 200, "{body}");
        assert_eq!(serialized_of(&body), (2 * n).to_string(), "response {n} out of order");
    }
    assert!(
        server.stats().pipelined_requests > 0,
        "the burst registered as pipelining: {:?}",
        server.stats()
    );
    assert!(server.shutdown());
}

#[test]
fn connection_close_mid_pipeline_cuts_the_tail_cleanly() {
    let server = boot(quick_config(2));
    let mut conn = RawConn::connect(&server);

    // Three pipelined requests; the second says `Connection: close`.
    let mut burst = query_request(1, false);
    burst.extend(query_request(2, true));
    burst.extend(query_request(3, false));
    conn.send(&burst);

    let (status, body) = conn.read_response();
    assert_eq!(status, 200);
    assert_eq!(serialized_of(&body), "2");
    let (status, body) = conn.read_response();
    assert_eq!(status, 200);
    assert_eq!(serialized_of(&body), "4");
    // The third request is after the close: the connection ends with a
    // clean EOF, never a truncated or extra response.
    assert!(conn.try_read_response().is_none(), "clean close after the Connection: close reply");

    // And the server is still fine for new clients.
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    assert_eq!(client.xpath("ms", "count(/descendant::w)").unwrap().serialized, "3");
    assert!(server.shutdown());
}

#[test]
fn a_slow_loris_half_request_starves_nobody_and_times_out() {
    let server = boot(ServerConfig {
        workers: 2,
        poll_interval: Duration::from_millis(5),
        request_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    });

    // The loris: half a request head, then silence.
    let mut loris = RawConn::connect(&server);
    loris.send(b"POST /query HTTP/1.1\r\nContent-Le");

    // Meanwhile a well-behaved client on the same 2-worker server runs a
    // full workload unimpeded — the loris holds a table entry, never a
    // worker.
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    for _ in 0..20 {
        assert_eq!(client.xpath("ms", "count(/descendant::w)").unwrap().serialized, "3");
    }

    // The loris is eventually 408'd and disconnected, not kept forever.
    let (status, body) = loris.read_response();
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("timeout"), "{body}");
    assert!(loris.try_read_response().is_none(), "connection closed after the 408");
    assert!(server.shutdown());
}

#[test]
fn an_oversized_declared_body_is_rejected_without_reading_it() {
    let server = boot(ServerConfig {
        workers: 2,
        poll_interval: Duration::from_millis(5),
        max_body: 1024,
        ..ServerConfig::default()
    });
    let mut conn = RawConn::connect(&server);

    // Declare a 10 MB body but send none of it: the 413 must arrive off
    // the head alone, not after the server slurped 10 MB.
    let t0 = Instant::now();
    conn.send(
        b"POST /query HTTP/1.1\r\nContent-Type: application/json\r\n\
          Content-Length: 10485760\r\n\r\n",
    );
    let (status, body) = conn.read_response();
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("too_large"), "{body}");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "rejected from the declared length, not by reading: {:?}",
        t0.elapsed()
    );
    assert!(conn.try_read_response().is_none(), "connection closed after the 413");
    assert!(server.shutdown());
}

#[test]
fn abrupt_mid_request_disconnects_leak_no_connections() {
    let server = boot(quick_config(2));
    assert_eq!(server.stats().active_connections, 0);

    // A mix of abandonment: half-heads, half-bodies, and one full
    // request whose client vanishes before reading the response.
    for i in 0..6 {
        let mut conn = RawConn::connect(&server);
        match i % 3 {
            0 => conn.send(b"POST /query HTTP/1.1\r\nConte"),
            1 => conn.send(&query_request(7, false)[..40]),
            _ => conn.send(&query_request(7, false)),
        }
        drop(conn); // RST/FIN mid-request
    }

    // Every accepted entry (and its session state) is reclaimed. A closed
    // client still sits in the accept backlog, so first wait for all six
    // accepts to land, then for the table to drain back to zero.
    let t0 = Instant::now();
    loop {
        let stats = server.stats();
        if stats.connections_accepted == 6 && stats.active_connections == 0 {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "connections leaked: {stats:?}");
        thread::sleep(Duration::from_millis(10));
    }

    // The /stats sessions list agrees with the counter (no ghost rows).
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let stats = client.stats().unwrap();
    let sessions = stats
        .get("server")
        .and_then(|s| s.get("sessions"))
        .and_then(Json::as_arr)
        .expect("sessions list");
    assert_eq!(sessions.len(), 1, "only the observer remains: {stats}");
    assert!(server.shutdown());
}

/// With a 10 s poll tick, anything that waited for the tick instead of a
/// wake-up would take 10 s: replies written by their worker, a pipelined
/// burst, a `Connection: close` and a client's half-close must all finish
/// on wake-ups alone.
#[test]
fn replies_and_closes_never_wait_for_the_poll_tick() {
    let server = boot(ServerConfig {
        workers: 2,
        poll_interval: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let t0 = Instant::now();

    // Back-to-back keep-alive: each request goes out as soon as the
    // previous reply is read.
    let mut conn = RawConn::connect(&server);
    for n in 1..=300u64 {
        conn.send(&query_request(n, false));
        let (status, body) = conn.read_response();
        assert_eq!(status, 200, "{body}");
        assert_eq!(serialized_of(&body), (2 * n).to_string());
    }

    // A 16-deep pipelined burst, answered in order.
    let burst: Vec<u8> = (1..=16u64).flat_map(|n| query_request(n, false)).collect();
    conn.send(&burst);
    for n in 1..=16u64 {
        let (status, body) = conn.read_response();
        assert_eq!(status, 200, "{body}");
        assert_eq!(serialized_of(&body), (2 * n).to_string(), "response {n} out of order");
    }

    // `Connection: close`: the reply, then EOF.
    conn.send(&query_request(7, true));
    assert_eq!(serialized_of(&conn.read_response().1), "14");
    assert!(conn.try_read_response().is_none(), "EOF after the Connection: close reply");

    // The client shuts its write side after a request: the reply, then EOF.
    let mut conn = RawConn::connect(&server);
    conn.send(&query_request(8, false));
    conn.stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    assert_eq!(serialized_of(&conn.read_response().1), "16");
    assert!(conn.try_read_response().is_none(), "EOF after the half-closed client's reply");

    assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
    assert!(server.shutdown());
}
