//! The JSON wire format: request payloads, response payloads, and the
//! [`EngineError`] → HTTP status mapping.
//!
//! Every response body is a JSON object with an `"ok"` discriminator:
//!
//! ```text
//! {"ok": true,  "lang": "xpath", "kind": "nodes", "count": 2,
//!  "serialized": "<w>a</w><w>b</w>"}
//! {"ok": false, "error": {"kind": "parse", "lang": "xquery",
//!  "message": "expected `return`", "at": 7}}
//! ```
//!
//! The error `kind` is the engine's pipeline stage — the same typed
//! information [`EngineError`] carries — so clients can branch without
//! string-matching messages, and the HTTP status is derived from it
//! ([`status_for`]). Protocol-level failures (bad JSON, unknown route,
//! missing field) reuse the same error envelope with their own kinds. A
//! request whose handler panicked is answered **500** with the kind
//! `internal` ([`INTERNAL_KIND`]), and its connection closes after the
//! reply.

use crate::engine::{EngineError, QueryLang, QueryOutcome, QueryValue};
use mhx_json::Json;
use mhx_xquery::{AnalyzeMode, EvalOptions};

/// Map an engine error onto the HTTP status the wire protocol uses.
///
/// * `Parse` / `Compile` — the request text can never succeed: **400**
///   (a syntax error; a call to an unknown function or with a wrong
///   argument count, in either language; an unbound XQuery variable);
/// * `Eval` — valid query, failed against this document: **422**;
/// * `UnknownDocument` — the addressed resource does not exist: **404**;
/// * `Document` — the uploaded document is malformed: **400**;
/// * `ShuttingDown` — the catalog is draining: **503** (retry elsewhere);
/// * `Store` — the persistence layer failed server-side: **500**.
pub fn status_for(e: &EngineError) -> u16 {
    match e {
        EngineError::Parse { .. } | EngineError::Compile { .. } => 400,
        EngineError::Eval { .. } => 422,
        EngineError::UnknownDocument { .. } => 404,
        EngineError::Document { .. } => 400,
        EngineError::ShuttingDown => 503,
        EngineError::Store { .. } => 500,
    }
}

/// Stable wire name for an engine error's stage.
pub fn error_kind(e: &EngineError) -> &'static str {
    match e {
        EngineError::Parse { .. } => "parse",
        EngineError::Compile { .. } => "compile",
        EngineError::Eval { .. } => "eval",
        EngineError::UnknownDocument { .. } => "unknown_document",
        EngineError::Document { .. } => "document",
        EngineError::ShuttingDown => "shutting_down",
        EngineError::Store { .. } => "store",
    }
}

/// The error envelope for an engine failure.
pub(crate) fn engine_error_body(e: &EngineError) -> Json {
    let mut error = vec![
        ("kind".to_string(), Json::Str(error_kind(e).into())),
        ("message".to_string(), Json::Str(e.to_string())),
    ];
    if let Some(lang) = e.lang() {
        error.push(("lang".into(), Json::Str(lang.name().into())));
    }
    if let EngineError::Parse { at: Some(at), .. } = e {
        error.push(("at".into(), Json::Num(*at as f64)));
    }
    Json::Obj(vec![("ok".into(), Json::Bool(false)), ("error".into(), Json::Obj(error))])
}

/// Wire error kind the shard router uses when a request exhausted every
/// replica of its document: distinct from `shutting_down` (one node
/// refusing while it drains, worth retrying elsewhere) — `bad_gateway`
/// means the routing tier already tried everywhere. Mapped to **502**.
pub const BAD_GATEWAY_KIND: &str = "bad_gateway";

/// The error envelope the router sends when every replica was
/// unreachable or draining (status 502, kind [`BAD_GATEWAY_KIND`]).
pub(crate) fn bad_gateway_body(message: &str) -> Json {
    protocol_error_body(BAD_GATEWAY_KIND, message)
}

/// Wire error kind for a request whose handler panicked: the server
/// answers **500** with it and closes the connection. The shard router
/// passes it through without failing over, because the same request
/// would panic the next replica too.
pub const INTERNAL_KIND: &str = "internal";

/// The error envelope for a request whose handler panicked (status 500,
/// kind [`INTERNAL_KIND`]).
pub(crate) fn internal_body() -> Json {
    protocol_error_body(INTERNAL_KIND, "the request's handler panicked")
}

/// True when a response is the engine's typed drain signal (`503` +
/// `shutting_down`): a replica-aware caller should retry another
/// backend, not surface the error.
pub fn is_drain_envelope(status: u16, body: &Json) -> bool {
    status == 503
        && body.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str)
            == Some("shutting_down")
}

/// The error envelope for a protocol-level failure (bad JSON, missing
/// field, unknown route…).
pub(crate) fn protocol_error_body(kind: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str(kind.into())),
                ("message".into(), Json::Str(message.into())),
            ]),
        ),
    ])
}

/// Serialize a [`QueryOutcome`] into the success envelope.
pub(crate) fn outcome_body(out: &QueryOutcome) -> Json {
    let mut entries = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("lang".to_string(), Json::Str(out.lang().name().into())),
    ];
    let kind = match out.value() {
        QueryValue::Nodes(ns) => {
            entries.push(("count".into(), Json::Num(ns.len() as f64)));
            "nodes"
        }
        QueryValue::Str(_) => "string",
        QueryValue::Num(n) => {
            entries.push(("value".into(), Json::Num(*n)));
            "number"
        }
        QueryValue::Bool(b) => {
            entries.push(("value".into(), Json::Bool(*b)));
            "boolean"
        }
        QueryValue::Markup(_) => "markup",
    };
    entries.insert(2, ("kind".into(), Json::Str(kind.into())));
    entries.push(("serialized".into(), Json::Str(out.serialize().into())));
    Json::Obj(entries)
}

/// The success envelope for a `/query` request with `"explain": true`:
/// the rendered plan instead of a result.
pub(crate) fn explain_body(lang: QueryLang, text: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("lang".into(), Json::Str(lang.name().into())),
        ("kind".into(), Json::Str("explain".into())),
        ("explain".into(), Json::Str(text.into())),
    ])
}

/// Parse a wire language name.
pub fn parse_lang(name: &str) -> Option<QueryLang> {
    match name {
        "xpath" => Some(QueryLang::XPath),
        "xquery" => Some(QueryLang::XQuery),
        _ => None,
    }
}

/// Apply a request's `"options"` object onto per-connection
/// [`EvalOptions`]. Strict: unknown keys or mistyped values are protocol
/// errors, so typos never silently keep the defaults.
pub(crate) fn apply_options(opts: &mut EvalOptions, json: &Json) -> Result<(), String> {
    let entries = json.as_obj().ok_or("`options` must be an object")?;
    for (key, value) in entries {
        match key.as_str() {
            "optimize" => {
                opts.optimize = value.as_bool().ok_or("`options.optimize` must be a boolean")?;
            }
            "space_separator" => {
                opts.space_separator =
                    value.as_bool().ok_or("`options.space_separator` must be a boolean")?;
            }
            "analyze_mode" => {
                opts.analyze_mode =
                    match value.as_str().ok_or("`options.analyze_mode` must be a string")? {
                        "paper" => AnalyzeMode::PaperCompat,
                        "xslt" => AnalyzeMode::Xslt,
                        other => {
                            return Err(format!(
                                "unknown analyze_mode `{other}` (expected `paper` or `xslt`)"
                            ));
                        }
                    };
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(())
}

/// Render [`EvalOptions`] as the full wire `"options"` object —
/// the inverse of [`apply_options`]. The router injects this into every
/// forwarded `/query` and `/execute` so that pooled backend sessions
/// (shared across router clients) behave deterministically per request.
pub(crate) fn options_json(opts: &EvalOptions) -> Json {
    Json::Obj(vec![
        ("optimize".into(), Json::Bool(opts.optimize)),
        ("space_separator".into(), Json::Bool(opts.space_separator)),
        (
            "analyze_mode".into(),
            Json::Str(
                match opts.analyze_mode {
                    AnalyzeMode::PaperCompat => "paper",
                    AnalyzeMode::Xslt => "xslt",
                }
                .into(),
            ),
        ),
    ])
}

/// Client-side view of a query response (the success envelope `/query`
/// and `/execute` return).
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    /// `xpath` or `xquery`.
    pub lang: String,
    /// `nodes`, `string`, `number`, `boolean`, or `markup`.
    pub kind: String,
    /// The paper-style serialized form.
    pub serialized: String,
    /// Node count, for `nodes` outcomes.
    pub count: Option<u64>,
    /// The atomic value, for `number` outcomes.
    pub num: Option<f64>,
    /// The atomic value, for `boolean` outcomes.
    pub boolean: Option<bool>,
}

impl WireOutcome {
    pub(crate) fn from_json(body: &Json) -> Result<WireOutcome, String> {
        let field = |name: &str| {
            body.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("response missing `{name}`"))
        };
        Ok(WireOutcome {
            lang: field("lang")?,
            kind: field("kind")?,
            serialized: field("serialized")?,
            count: body.get("count").and_then(Json::as_u64),
            num: body.get("value").and_then(Json::as_f64),
            boolean: body.get("value").and_then(Json::as_bool),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn status_mapping_covers_every_stage() {
        let cases = [
            (
                EngineError::Parse { lang: QueryLang::XPath, message: "x".into(), at: Some(3) },
                400,
                "parse",
            ),
            (EngineError::Compile { lang: QueryLang::XQuery, message: "x".into() }, 400, "compile"),
            (EngineError::Eval { lang: QueryLang::XQuery, message: "x".into() }, 422, "eval"),
            (EngineError::UnknownDocument { id: "ms".into() }, 404, "unknown_document"),
            (EngineError::Document { message: "x".into() }, 400, "document"),
            (EngineError::ShuttingDown, 503, "shutting_down"),
            (EngineError::Store { message: "x".into() }, 500, "store"),
        ];
        for (e, status, kind) in cases {
            assert_eq!(status_for(&e), status, "{e:?}");
            assert_eq!(error_kind(&e), kind, "{e:?}");
            let body = engine_error_body(&e);
            assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false));
            let err = body.get("error").unwrap();
            assert_eq!(err.get("kind").and_then(Json::as_str), Some(kind));
        }
        // The parse error's byte offset rides along.
        let e = EngineError::Parse { lang: QueryLang::XPath, message: "x".into(), at: Some(3) };
        let body = engine_error_body(&e);
        assert_eq!(body.get("error").unwrap().get("at").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn bad_gateway_is_distinct_from_the_drain_signal() {
        let body = bad_gateway_body("all replicas unavailable");
        assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false));
        let err = body.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some(BAD_GATEWAY_KIND));
        // A 502 envelope is NOT the retry-elsewhere drain signal…
        assert!(!is_drain_envelope(502, &body));
        // …and neither is a 503 status with a different kind.
        assert!(!is_drain_envelope(503, &body));
        let drain = engine_error_body(&EngineError::ShuttingDown);
        assert!(is_drain_envelope(503, &drain));
        assert!(!is_drain_envelope(200, &drain));
    }

    #[test]
    fn outcomes_round_trip_through_the_envelope() {
        let catalog = Catalog::new();
        catalog.insert(
            "ms",
            GoddagBuilder::new().hierarchy("w", "<r><w>a</w><w>b</w></r>").build().unwrap(),
        );
        let nodes = catalog.xpath("ms", "/descendant::w").unwrap();
        let body = outcome_body(&nodes);
        let wire = WireOutcome::from_json(&body).unwrap();
        assert_eq!(wire.kind, "nodes");
        assert_eq!(wire.count, Some(2));
        assert_eq!(wire.serialized, "<w>a</w><w>b</w>");

        let n = catalog.xquery("ms", "count(/descendant::w)").unwrap();
        let wire = WireOutcome::from_json(&outcome_body(&n)).unwrap();
        assert_eq!(wire.kind, "markup");
        assert_eq!(wire.serialized, "2");

        let b = catalog.xpath("ms", "count(/descendant::w) > 1").unwrap();
        let wire = WireOutcome::from_json(&outcome_body(&b)).unwrap();
        assert_eq!(wire.kind, "boolean");
        assert_eq!(wire.boolean, Some(true));
    }

    #[test]
    fn options_apply_strictly() {
        let mut opts = EvalOptions::default();
        let patch = mhx_json::parse(
            r#"{"optimize": false, "analyze_mode": "xslt", "space_separator": true}"#,
        )
        .unwrap();
        apply_options(&mut opts, &patch).unwrap();
        assert!(!opts.optimize);
        assert!(opts.space_separator);
        assert_eq!(opts.analyze_mode, mhx_xquery::AnalyzeMode::Xslt);

        for bad in [
            r#"{"optimise": true}"#,
            r#"{"optimize": "yes"}"#,
            r#"{"analyze_mode": "sgml"}"#,
            r#"[1]"#,
        ] {
            let patch = mhx_json::parse(bad).unwrap();
            assert!(apply_options(&mut opts, &patch).is_err(), "{bad}");
        }
    }

    #[test]
    fn options_render_and_reapply_losslessly() {
        for (optimize, space, mode) in [
            (true, false, mhx_xquery::AnalyzeMode::PaperCompat),
            (false, true, mhx_xquery::AnalyzeMode::Xslt),
        ] {
            let opts = EvalOptions { optimize, space_separator: space, analyze_mode: mode };
            let rendered = options_json(&opts);
            let mut back = EvalOptions::default();
            apply_options(&mut back, &rendered).unwrap();
            assert_eq!(back.optimize, optimize);
            assert_eq!(back.space_separator, space);
            assert_eq!(back.analyze_mode, mode);
        }
    }
}
