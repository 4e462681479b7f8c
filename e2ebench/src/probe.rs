//! The traced run's per-layer probes.
//!
//! Each probe re-issues the workload's own requests one layer at a time,
//! inside spans around the layers' public calls:
//!
//! * a query goes through `mhxr` (`router.request`), straight to the
//!   `mhxd` holding the document (`server.request`), and through an
//!   in-process replay of what the request costs outside the HTTP stack
//!   (`engine.request`: JSON encode/decode on both sides,
//!   `Catalog::prepare`, `Catalog::execute` + serialisation);
//! * an upload goes to the daemon (`server.put`) and through a replay of
//!   the upload path (`engine.upload`: JSON, `mhx_xml::parse` per
//!   hierarchy, `GoddagBuilder::build`, `StructIndex::build`,
//!   `DocStore::save`), followed by `StructIndex::axis_nodes_batch` per
//!   extended axis, `DocStore::load`, `Catalog::put`, and a query on an
//!   evicted document.

use crate::corpus::{Class, Doc, Query};
use crate::oracle::Oracle;
use crate::stats::{diffs, median, Metric};
use crate::trace::Tracer;
use crate::workload::{Checks, Conn};
use crate::Report;
use mhx_goddag::{Axis, Goddag, GoddagBuilder, StructIndex};
use mhx_json::Json;
use mhx_store::DocStore;
use multihier_xquery::server::client::Client;
use multihier_xquery::Catalog;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// Query probes before the budget may end them, and upload probes.
const MIN_QUERY_PROBES: usize = 100;
const MIN_PUT_PROBES: usize = 8;
/// In-process executions per fixed class, at least.
const MIN_CLASS_SAMPLES: usize = 20;
/// Distinct never-seen query texts compiled for `engine.compile_us`.
const COMPILES: usize = 200;

/// Extended axes timed on each document's `e1` elements.
const AXES: [(Axis, &str); 7] = [
    (Axis::Overlapping, "goddag.axis.overlapping"),
    (Axis::FollowingOverlapping, "goddag.axis.following-overlapping"),
    (Axis::PrecedingOverlapping, "goddag.axis.preceding-overlapping"),
    (Axis::XFollowing, "goddag.axis.xfollowing"),
    (Axis::XPreceding, "goddag.axis.xpreceding"),
    (Axis::XDescendant, "goddag.axis.xdescendant"),
    (Axis::XAncestor, "goddag.axis.xancestor"),
];

/// Layers reported as shares of a query and of an upload.
pub const QUERY_LAYERS: [&str; 6] = ["router", "server", "json", "engine", "xpath", "xquery"];
pub const PUT_LAYERS: [&str; 6] = ["server", "json", "xml", "goddag", "store", "engine"];

pub struct Input<'a> {
    pub docs: &'a [Doc],
    /// The version of each document the daemon holds.
    pub versions: &'a [usize],
    /// The backend holding each document.
    pub owner: &'a [String],
    pub router: &'a str,
    /// Whether the workload's clients go through the router.
    pub routed: bool,
    /// Whether the daemons save a snapshot of every upload.
    pub persist: bool,
    /// `(document, query)` drawn from the workload's mix.
    pub probes: Vec<(usize, Query)>,
    pub dir: &'a Path,
    pub seconds: f64,
    pub seed: u64,
}

fn wire<T>(r: Result<T, multihier_xquery::server::client::ClientError>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// What the request costs outside the HTTP stack, in process.
fn replay_query(
    t: &mut Tracer,
    catalog: &Catalog,
    key: &str,
    id: &str,
    q: &Query,
    req: u64,
) -> Result<String, String> {
    let request = q.body(id);
    let (text, _) = t.span("json.encode", req, |_| request.to_string());
    t.span("json.decode", req, |_| mhx_json::parse(&text)).0?;
    let (prepared, _) = t.span("engine.prepare", req, |_| catalog.prepare(q.lang(), &q.text));
    let prepared = prepared.map_err(|e| e.to_string())?;
    let (out, _) = t.span(q.class.span(), req, |_| {
        catalog.execute(key, &prepared).map(|o| o.serialize().to_string())
    });
    let serialized = out.map_err(|e| e.to_string())?;
    let response = Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("lang".into(), Json::Str(q.lang().name().into())),
        ("serialized".into(), Json::Str(serialized.clone())),
    ]);
    let (text, _) = t.span("json.encode", req, |_| response.to_string());
    t.span("json.decode", req, |_| mhx_json::parse(&text)).0?;
    Ok(serialized)
}

/// What an upload costs outside the HTTP stack, in process.
/// The snapshot save is part of it only when the daemon persists
/// uploads (`store`).
fn replay_put(
    t: &mut Tracer,
    store: Option<&DocStore>,
    doc: &Doc,
    version: usize,
    req: u64,
) -> Result<(Goddag, StructIndex), String> {
    let request = doc.put_body(version);
    let (text, _) = t.span("json.encode", req, |_| request.to_string());
    t.span("json.decode", req, |_| mhx_json::parse(&text)).0?;
    let mut builder = GoddagBuilder::new();
    for (name, xml) in &doc.versions[version] {
        let (parsed, _) = t.span("xml.parse", req, |_| mhx_xml::parse(xml));
        builder = builder.hierarchy_doc(name.clone(), parsed.map_err(|e| e.to_string())?);
    }
    let (g, _) = t.span("goddag.build", req, |_| builder.build());
    let g = g.map_err(|e| e.to_string())?;
    let (index, _) = t.span("goddag.index_build", req, |_| StructIndex::build(&g));
    if let Some(store) = store {
        let (saved, _) = t.span("store.save", req, |_| store.save(&doc.key(version), &g, &index));
        saved.map_err(|e| e.to_string())?;
    }
    let response = Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("id".into(), Json::Str(doc.id.clone())),
        ("hierarchies".into(), Json::Num(doc.versions[version].len() as f64)),
    ]);
    let (text, _) = t.span("json.encode", req, |_| response.to_string());
    t.span("json.decode", req, |_| mhx_json::parse(&text)).0?;
    Ok((g, index))
}

pub fn run(
    input: Input,
    oracle: &mut Oracle,
    t: &mut Tracer,
    checks: &mut Checks,
    report: &mut Report,
) -> Result<(), String> {
    let Input { docs, versions, owner, router, routed, persist, probes, dir, seconds, seed } =
        input;
    let start = Instant::now();
    let past = |share: f64| start.elapsed().as_secs_f64() > seconds * share;
    let mut routed_conn = Conn::open(router)?;
    let mut direct: HashMap<&str, Conn> = HashMap::new();
    for addr in owner {
        if !direct.contains_key(addr.as_str()) {
            direct.insert(addr, Conn::open(addr)?);
        }
    }

    // --- queries: routed, direct, replayed ---------------------------
    let (mut hop, mut overhead, mut exec_hop, mut connect) = (vec![], vec![], vec![], vec![]);
    let (mut adhoc_same, mut exec_same) = (vec![], vec![]);
    let mut result_bytes: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for (i, (d, q)) in probes.iter().enumerate() {
        crate::procs::check_interrupt()?;
        if i >= MIN_QUERY_PROBES && past(0.5) {
            break;
        }
        let (doc, req) = (&docs[*d], i as u64);
        let key = doc.key(versions[*d]);
        oracle.learn(&key, q)?;
        let want = oracle.expected(&key, q);
        let conn = direct.get_mut(owner[*d].as_str()).expect("a connection per owner");
        let (got, routed_span) = t.span("router.request", req, |_| {
            wire(routed_conn.client.query(&doc.id, q.lang(), &q.text))
        });
        checks.check(&got.map(|o| Some(o.serialized)), Some(&want), &doc.id);
        let (got, direct_span) =
            t.span("server.request", req, |_| wire(conn.client.query(&doc.id, q.lang(), &q.text)));
        checks.check(&got.map(|o| Some(o.serialized)), Some(&want), &doc.id);
        let (got, replay) = t.span("engine.request", req, |t| {
            replay_query(t, &oracle.catalog, &key, &doc.id, q, req)
        });
        if let Ok(s) = &got {
            result_bytes.entry(q.class).or_default().push(s.len() as f64);
        }
        checks.check(&got.map(Some), Some(&want), &doc.id);
        if routed {
            t.adopt(direct_span, routed_span);
        }
        t.adopt(replay, direct_span);
        hop.push(t.micros(routed_span) - t.micros(direct_span));
        overhead.push(t.micros(direct_span) - t.micros(replay));

        if let Some(h) = Class::FIXED.iter().position(|c| *c == q.class) {
            let (got, re) = t.span("router.execute", req, |_| {
                wire(routed_conn.client.execute(routed_conn.handles[h], Some(&doc.id)))
            });
            checks.check(&got.map(|o| Some(o.serialized)), Some(&want), &doc.id);
            let (got, de) = t.span("server.execute", req, |_| {
                wire(conn.client.execute(conn.handles[h], Some(&doc.id)))
            });
            checks.check(&got.map(|o| Some(o.serialized)), Some(&want), &doc.id);
            exec_hop.push(t.micros(re) - t.micros(de));
            exec_same.push(t.micros(de));
            adhoc_same.push(t.micros(direct_span));
        }
        if i % 4 == 0 {
            let (got, fresh) = t.span("server.connect", req, |_| {
                let mut c = wire(Client::connect(&owner[*d]).map_err(Into::into))?;
                wire(c.query(&doc.id, q.lang(), &q.text))
            });
            checks.check(&got.map(|o| Some(o.serialized)), Some(&want), &doc.id);
            connect.push(t.micros(fresh) - t.micros(direct_span));
        }
        t.span("engine.query", req, |_| oracle.catalog.query(&key, q.lang(), &q.text))
            .0
            .map_err(|e| e.to_string())?;
    }

    // --- every fixed class, in process, on every document -------------
    for class in Class::FIXED {
        let q = Query::fixed(class);
        let prepared = oracle.catalog.prepare(q.lang(), &q.text).map_err(|e| e.to_string())?;
        let have = t.durations(class.span()).len();
        for (n, d) in (have..MIN_CLASS_SAMPLES).zip((0..docs.len()).cycle()) {
            let key = docs[d].key(versions[d]);
            let want = oracle.expected(&key, &q);
            let (got, _) = t.span(class.span(), n as u64, |_| {
                oracle.catalog.execute(&key, &prepared).map(|o| o.serialize().to_string())
            });
            if let Ok(s) = &got {
                result_bytes.entry(class).or_default().push(s.len() as f64);
            }
            checks.check(&got.map(Some).map_err(|e| e.to_string()), Some(&want), &docs[d].id);
        }
    }

    // --- compiling never-seen texts: plan-cache misses ----------------
    for i in 0..COMPILES {
        let q = Query::literal(&format!("unseen{seed}x{i}"));
        t.span("engine.compile", i as u64, |_| oracle.catalog.prepare(q.lang(), &q.text))
            .0
            .map_err(|e| e.to_string())?;
    }

    // --- uploads ------------------------------------------------------
    let store = DocStore::open(dir.join("probe-store")).map_err(|e| e.to_string())?;
    // A budget of one byte: every upload evicts the previous document.
    let engine = Catalog::new();
    engine.attach_store(dir.join("probe-engine"), Some(1)).map_err(|e| e.to_string())?;
    let count = Query::fixed(Class::Count);
    let (mut snapshot_bytes, mut load) = (vec![], vec![]);
    for i in 0.. {
        crate::procs::check_interrupt()?;
        if i >= MIN_PUT_PROBES && past(0.9) {
            break;
        }
        let d = i % docs.len();
        let (doc, v, req) = (&docs[d], versions[d], 1_000_000 + i as u64);
        let conn = direct.get_mut(owner[d].as_str()).expect("a connection per owner");
        let path = format!("/documents/{}", doc.id);
        let (got, put_span) = t.span("server.put", req, |_| {
            wire(conn.client.call("PUT", &path, Some(&doc.put_body(v)))).map(|_| None)
        });
        checks.check(&got, None, &doc.id);
        let (built, replay) =
            t.span("engine.upload", req, |t| replay_put(t, persist.then_some(&store), doc, v, req));
        t.adopt(replay, put_span);
        let (g, index) = built?;
        if !persist {
            let (saved, _) = t.span("store.save", req, |_| store.save(&doc.key(v), &g, &index));
            saved.map_err(|e| e.to_string())?;
        }
        snapshot_bytes.push(store.snapshot_size(&doc.key(v)).unwrap_or(0) as f64);
        let contexts: Vec<_> =
            g.all_nodes().into_iter().filter(|&n| g.name(n) == Some("e1")).collect();
        for (axis, name) in AXES {
            t.span(name, req, |_| index.axis_nodes_batch(&g, axis, &contexts, |_| true).len());
        }
        let (loaded, _) = t.span("store.load", req, |_| store.load(&doc.key(v)));
        loaded.map_err(|e| e.to_string())?.ok_or("snapshot just saved is missing")?;
        t.span("engine.put", req, |_| engine.put(doc.key(v), g)).0.map_err(|e| e.to_string())?;
        if i > 0 {
            // The previous upload is evicted now: its first query loads it.
            let prev = (i - 1) % docs.len();
            let key = docs[prev].key(versions[prev]);
            let want = oracle.expected(&key, &count);
            let timed = || {
                let t0 = Instant::now();
                let got = engine
                    .query(&key, count.lang(), &count.text)
                    .map(|o| Some(o.serialize().to_string()));
                (t0.elapsed().as_secs_f64() * 1e6, got.map_err(|e| e.to_string()))
            };
            let (cold, got_cold) = timed();
            let (warm, got_warm) = timed();
            checks.check(&got_cold, Some(&want), &docs[prev].id);
            checks.check(&got_warm, Some(&want), &docs[prev].id);
            load.push(cold - warm);
        }
    }

    let stats =
        wire(Client::connect(router).map_err(Into::into))?.stats().map_err(|e| e.to_string())?;
    let router_counter = |field: &str| {
        stats.get("router").and_then(|r| r.get(field)).and_then(Json::as_f64).unwrap_or(f64::NAN)
    };

    let mut m = |name: &str, samples: Vec<f64>, unit: &'static str| {
        report.metric(Metric::new(name, median(&samples), unit, samples.len()));
    };
    m("server.rtt_us", t.durations("server.request"), "us");
    m("server.overhead_us", overhead, "us");
    m("server.connect_us", connect.clone(), "us");
    m("server.execute_rtt_us", t.durations("server.execute"), "us");
    m("router.hop_us", hop.clone(), "us");
    m("router.execute_hop_us", exec_hop, "us");
    m("engine.compile_us", t.durations("engine.compile"), "us");
    m("engine.query_us", t.durations("engine.query"), "us");
    let executes: Vec<f64> = Class::FIXED.iter().flat_map(|c| t.durations(c.span())).collect();
    m("engine.prepared_exec_us", executes, "us");
    m("engine.put_us", t.durations("engine.put"), "us");
    m("engine.load_us", load, "us");
    for class in Class::FIXED {
        m(&format!("{}_us", class.span()), t.durations(class.span()), "us");
        let bytes = result_bytes.remove(&class).unwrap_or_default();
        m(&format!("eval.result_bytes.{}", class.name()), bytes, "bytes");
    }
    for (_, name) in AXES {
        let axis = name.strip_prefix("goddag.axis.").expect("axis span prefix");
        m(&format!("goddag.axis_us.{axis}"), t.durations(name), "us");
    }
    m("goddag.build_us", t.durations("goddag.build"), "us");
    m("goddag.index_build_us", t.durations("goddag.index_build"), "us");
    m("xml.parse_us", t.durations("xml.parse"), "us");
    m("store.save_us", t.durations("store.save"), "us");
    m("store.load_us", t.durations("store.load"), "us");
    m("store.snapshot_bytes", snapshot_bytes, "bytes");
    // Both sides' JSON work per exchanged request (query or upload).
    m("json.decode_us", t.per_request("json.decode"), "us");
    m("json.encode_us", t.per_request("json.encode"), "us");
    report.metric(Metric::new("router.failovers", router_counter("failovers"), "count", 1));
    report.metric(Metric::new("router.re_prepares", router_counter("re_prepares"), "count", 1));

    let query_root = if routed { "router.request" } else { "server.request" };
    for (kind, root, layers) in
        [("query", query_root, &QUERY_LAYERS), ("put", "server.put", &PUT_LAYERS)]
    {
        let shares = t.shares(root);
        let roots = t.durations(root).len();
        let line: Vec<String> =
            shares.iter().map(|(l, s)| format!("{l} {:.1}%", s * 100.0)).collect();
        report.note(format!(
            "self-time share of a {kind} ({root}, {roots} requests): {}",
            line.join(", ")
        ));
        for layer in layers {
            let share = shares.get(layer).copied().unwrap_or(0.0);
            report.metric(Metric::new(format!("share.{kind}.{layer}"), share, "ratio", roots));
        }
    }
    report.note(format!(
        "routed_vs_direct: router.hop_us {:.1} on server.rtt_us {:.1}",
        median(&hop),
        median(&t.durations("server.request"))
    ));
    report.note(format!(
        "prepared_vs_adhoc: server.execute_rtt_us {:.1} vs server.rtt_us {:.1} on the same {} requests (execute − query {:.1} µs)",
        median(&exec_same),
        median(&adhoc_same),
        exec_same.len(),
        median(&diffs(&exec_same, &adhoc_same))
    ));
    report.note(format!(
        "keepalive_vs_fresh: server.connect_us {:.1} (fresh connection's extra cost per request)",
        median(&connect)
    ));
    Ok(())
}
