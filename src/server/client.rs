//! A small blocking client for the `mhxd` wire protocol, used by the
//! integration tests, `mhxq --connect`, and the `serve` load-generator
//! bench. One [`Client`] holds one keep-alive TCP connection — i.e. one
//! server-side [`Session`](crate::engine::Session) — so prepared handles
//! and per-connection options behave exactly as they do server-side.

use crate::engine::QueryLang;
use crate::server::wire::WireOutcome;
use mhx_json::Json;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, connection closed).
    Io(io::Error),
    /// The response was not valid HTTP/JSON for this protocol.
    Protocol(String),
    /// The server answered with an error envelope.
    Server {
        status: u16,
        /// The wire error kind (`parse`, `eval`, `unknown_document`, …).
        kind: String,
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { status, kind, message } => {
                write!(f, "server error {status} ({kind}): {message}")
            }
        }
    }
}

impl ClientError {
    /// True for failures a replica-aware caller (the `mhxr` shard router,
    /// or any client holding several backend addresses) should retry
    /// against another backend: transport and framing failures, and the
    /// server's typed `503`/`shutting_down` drain signal. Queries are
    /// read-only and uploads idempotent (documents are immutable after
    /// upload), so re-sending is always safe. Engine errors (4xx/422)
    /// are deterministic — the same request fails the same way on every
    /// replica — and the router's own `502`/`bad_gateway` means every
    /// replica was already tried; neither is retryable.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Protocol(_) => true,
            ClientError::Server { status, kind, .. } => *status == 503 && kind == "shutting_down",
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A blocking keep-alive connection to an `mhxd` server.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connect to `addr` — `host:port`, optionally prefixed with
    /// `http://` and/or suffixed with `/` (so a pasted URL works).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let addr = addr.strip_prefix("http://").unwrap_or(addr).trim_end_matches('/');
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        // A generous timeout so a hung server fails tests instead of
        // wedging them.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        Ok(Client { stream, buf: Vec::new() })
    }

    /// Low-level exchange: send `method path` with an optional JSON body,
    /// return `(status, parsed body)` without interpreting the envelope.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, Json), ClientError> {
        let payload = body.map(Json::to_string).unwrap_or_default();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: mhxd\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            payload.len()
        );
        let mut out = Vec::with_capacity(head.len() + payload.len());
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(payload.as_bytes());
        self.stream.write_all(&out)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<(u16, Json), ClientError> {
        let mut chunk = [0u8; 8 * 1024];
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end])
                    .map_err(|_| ClientError::Protocol("response head is not UTF-8".into()))?;
                let (status, content_length) = parse_response_head(head)?;
                let total = head_end + 4 + content_length;
                if self.buf.len() >= total {
                    let body = String::from_utf8(self.buf[head_end + 4..total].to_vec())
                        .map_err(|_| ClientError::Protocol("body is not UTF-8".into()))?;
                    self.buf.drain(..total);
                    let json = mhx_json::parse(&body).map_err(|e| {
                        ClientError::Protocol(format!("unparseable body: {e} in `{body}`"))
                    })?;
                    return Ok((status, json));
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    )));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// `request` + envelope interpretation: non-2xx or `"ok": false`
    /// becomes [`ClientError::Server`].
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<Json, ClientError> {
        let (status, json) = self.request(method, path, body)?;
        let ok = json.get("ok").and_then(Json::as_bool).unwrap_or(false);
        if (200..300).contains(&status) && ok {
            return Ok(json);
        }
        let (kind, message) = match json.get("error") {
            Some(err) => (
                err.get("kind").and_then(Json::as_str).unwrap_or("unknown").to_string(),
                err.get("message").and_then(Json::as_str).unwrap_or("").to_string(),
            ),
            None => ("unknown".to_string(), json.to_string()),
        };
        Err(ClientError::Server { status, kind, message })
    }

    /// Run an ad-hoc query against `doc`.
    pub fn query(
        &mut self,
        doc: &str,
        lang: QueryLang,
        src: &str,
    ) -> Result<WireOutcome, ClientError> {
        self.query_with(Some(doc), lang, src, None)
    }

    /// [`Client::query`] with an optional per-connection options patch and
    /// an optional document (server falls back to the pinned/only one).
    pub fn query_with(
        &mut self,
        doc: Option<&str>,
        lang: QueryLang,
        src: &str,
        options: Option<&Json>,
    ) -> Result<WireOutcome, ClientError> {
        let mut body = vec![
            ("lang".to_string(), Json::Str(lang.name().into())),
            ("query".to_string(), Json::Str(src.into())),
        ];
        if let Some(doc) = doc {
            body.push(("doc".into(), Json::Str(doc.into())));
        }
        if let Some(options) = options {
            body.push(("options".into(), options.clone()));
        }
        let json = self.call("POST", "/query", Some(&Json::Obj(body)))?;
        WireOutcome::from_json(&json).map_err(ClientError::Protocol)
    }

    /// Ask the server to render the optimized plan for `src` against
    /// `doc` (or the pinned/only document) instead of evaluating it.
    pub fn explain(
        &mut self,
        doc: Option<&str>,
        lang: QueryLang,
        src: &str,
    ) -> Result<String, ClientError> {
        let mut body = vec![
            ("lang".to_string(), Json::Str(lang.name().into())),
            ("query".to_string(), Json::Str(src.into())),
            ("explain".to_string(), Json::Bool(true)),
        ];
        if let Some(doc) = doc {
            body.push(("doc".into(), Json::Str(doc.into())));
        }
        let json = self.call("POST", "/query", Some(&Json::Obj(body)))?;
        json.get("explain")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("explain response missing `explain`".into()))
    }

    /// Shorthand for an XPath query.
    pub fn xpath(&mut self, doc: &str, src: &str) -> Result<WireOutcome, ClientError> {
        self.query(doc, QueryLang::XPath, src)
    }

    /// Shorthand for an XQuery query.
    pub fn xquery(&mut self, doc: &str, src: &str) -> Result<WireOutcome, ClientError> {
        self.query(doc, QueryLang::XQuery, src)
    }

    /// Compile a prepared statement on this connection; the returned
    /// handle is valid for this connection's lifetime.
    pub fn prepare(&mut self, lang: QueryLang, src: &str) -> Result<u64, ClientError> {
        let body = Json::Obj(vec![
            ("lang".into(), Json::Str(lang.name().into())),
            ("query".into(), Json::Str(src.into())),
        ]);
        let json = self.call("POST", "/prepare", Some(&body))?;
        json.get("handle")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("prepare response missing `handle`".into()))
    }

    /// Execute a prepared handle (against `doc`, or the pinned document).
    pub fn execute(&mut self, handle: u64, doc: Option<&str>) -> Result<WireOutcome, ClientError> {
        let mut body = vec![("handle".to_string(), Json::Num(handle as f64))];
        if let Some(doc) = doc {
            body.push(("doc".into(), Json::Str(doc.into())));
        }
        let json = self.call("POST", "/execute", Some(&Json::Obj(body)))?;
        WireOutcome::from_json(&json).map_err(ClientError::Protocol)
    }

    /// Upload (register or replace) a document from `(name, xml)`
    /// hierarchy pairs. The id travels in the request line, so it is
    /// restricted to URL-safe characters (letters, digits, `-_.~`) —
    /// anything else (spaces, `/`, CR/LF…) is refused client-side rather
    /// than emitting a malformed or header-injecting request.
    pub fn put_document(
        &mut self,
        id: &str,
        hierarchies: &[(&str, &str)],
    ) -> Result<(), ClientError> {
        if id.is_empty()
            || !id.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | '~'))
        {
            return Err(ClientError::Protocol(format!(
                "document id `{id}` is not URL-safe (allowed: ASCII letters, digits, `-_.~`)"
            )));
        }
        let items = hierarchies
            .iter()
            .map(|(name, xml)| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str((*name).into())),
                    ("xml".to_string(), Json::Str((*xml).into())),
                ])
            })
            .collect();
        let body = Json::Obj(vec![("hierarchies".into(), Json::Arr(items))]);
        self.call("PUT", &format!("/documents/{id}"), Some(&body))?;
        Ok(())
    }

    /// Registered document ids.
    pub fn documents(&mut self) -> Result<Vec<String>, ClientError> {
        Ok(self.document_status()?.into_iter().map(|(id, _, _)| id).collect())
    }

    /// Registered documents with residency metadata: `(id, residency,
    /// snapshot_bytes)` per document.
    pub fn document_status(&mut self) -> Result<Vec<(String, String, u64)>, ClientError> {
        let json = self.call("GET", "/documents", None)?;
        let entries = json
            .get("documents")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Protocol("documents response missing list".into()))?;
        entries
            .iter()
            .map(|v| {
                let id = v.get("id").and_then(Json::as_str);
                let residency = v.get("residency").and_then(Json::as_str);
                match (id, residency, v.get("snapshot_bytes").and_then(Json::as_u64)) {
                    (Some(id), Some(residency), Some(bytes)) => {
                        Ok((id.to_string(), residency.to_string(), bytes))
                    }
                    _ => Err(ClientError::Protocol(format!("malformed /documents entry {v}"))),
                }
            })
            .collect()
    }

    /// The raw `/stats` document (cache, eval, server, per-session rows).
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call("GET", "/stats", None)
    }

    /// Ask the server to drain and stop (the owner loop performs the
    /// actual shutdown).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.call("POST", "/shutdown", None)?;
        Ok(())
    }
}

fn parse_response_head(head: &str) -> Result<(u16, usize), ClientError> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line `{status_line}`")))?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ClientError::Protocol("bad content-length".into()))?;
            }
        }
    }
    Ok((status, content_length))
}
