//! The shard-routing backend pool: consistent hashing of document ids
//! across `mhxd` backends, replica placement, and per-backend
//! health/drain state.
//!
//! [`BackendPool`] is transport-free — it decides *where* a document
//! lives and in what order replicas should be tried; the
//! [`router`](super::router) module owns the actual connections.
//!
//! Placement is a classic consistent-hash ring: every backend address
//! contributes `VNODES` (64) points (FNV-1a 64 of `addr\u{1f}vnode`), a
//! document id hashes to a point, and its replica set is the first
//! `replicas` **distinct** backends walking the ring clockwise from
//! there. Two routers configured with the same `--shard` list therefore
//! agree on every placement with no coordination — documents are
//! immutable after upload, so sharding + replication is pure routing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Virtual nodes per backend on the hash ring: enough points that a
/// handful of backends split a corpus roughly evenly, few enough that
/// building and walking the ring stays trivial.
const VNODES: usize = 64;

/// How long a backend stays demoted (tried last, not first) after a
/// failure before the router probes it again in preferred order.
const RETRY_COOLDOWN: Duration = Duration::from_millis(500);

/// 64-bit FNV-1a with a splitmix64 finalizer. Bare FNV-1a mixes the last
/// bytes of short, similar strings (`addr\u{1f}0` … `addr\u{1f}63`) only
/// into the low bits, so all of one backend's vnodes would sort into one
/// contiguous ring arc — the finalizer avalanches them across the whole
/// key space.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Health/drain state for one backend, updated by the router as requests
/// succeed and fail.
struct BackendState {
    addr: String,
    /// False after a transport failure or drain signal, until a request
    /// succeeds again.
    healthy: AtomicBool,
    /// The backend's last failure was its typed `503`/`shutting_down`
    /// drain signal (as opposed to a connection failure).
    draining: AtomicBool,
    failures: AtomicU64,
    successes: AtomicU64,
    last_failure: Mutex<Option<Instant>>,
}

/// A `/stats`-shaped snapshot of one backend's health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendHealth {
    pub addr: String,
    pub healthy: bool,
    pub draining: bool,
    pub failures: u64,
    pub successes: u64,
}

/// Consistent-hash placement plus health bookkeeping for a fixed set of
/// `mhxd` backends. Shared (via `Arc`) by every router connection.
pub struct BackendPool {
    backends: Vec<BackendState>,
    /// `(point, backend index)` sorted by point — the hash ring.
    ring: Vec<(u64, usize)>,
    replicas: usize,
    /// Round-robin cursor spreading reads across a replica set.
    cursor: AtomicUsize,
    /// Placements recorded by uploads through the router. Usually equal
    /// to the ring's answer; kept so reads follow what actually succeeded
    /// when an upload had to walk past a dead backend.
    placements: Mutex<BTreeMap<String, Vec<usize>>>,
}

impl BackendPool {
    /// Build the ring over `addrs`; `replicas` is clamped to
    /// `1..=addrs.len()`. Panics on an empty backend list — a router
    /// with nothing behind it is a configuration error.
    pub fn new(addrs: Vec<String>, replicas: usize) -> BackendPool {
        assert!(!addrs.is_empty(), "BackendPool needs at least one backend address");
        let replicas = replicas.clamp(1, addrs.len());
        let mut ring = Vec::with_capacity(addrs.len() * VNODES);
        for (i, addr) in addrs.iter().enumerate() {
            for v in 0..VNODES {
                // \u{1f} (unit separator) cannot occur in a host:port, so
                // distinct (addr, vnode) pairs never collide textually.
                ring.push((ring_hash(format!("{addr}\u{1f}{v}").as_bytes()), i));
            }
        }
        ring.sort_unstable();
        let backends = addrs
            .into_iter()
            .map(|addr| BackendState {
                addr,
                healthy: AtomicBool::new(true),
                draining: AtomicBool::new(false),
                failures: AtomicU64::new(0),
                successes: AtomicU64::new(0),
                last_failure: Mutex::new(None),
            })
            .collect();
        BackendPool {
            backends,
            ring,
            replicas,
            cursor: AtomicUsize::new(0),
            placements: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn len(&self) -> usize {
        self.backends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Configured replication factor (post-clamp).
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    pub fn addr(&self, backend: usize) -> &str {
        &self.backends[backend].addr
    }

    /// Walk the ring clockwise from `doc`'s point, yielding each distinct
    /// backend once.
    fn walk(&self, doc: &str) -> impl Iterator<Item = usize> + '_ {
        let point = ring_hash(doc.as_bytes());
        let start = self.ring.partition_point(|&(p, _)| p < point);
        let mut seen = vec![false; self.backends.len()];
        (0..self.ring.len()).filter_map(move |k| {
            let (_, b) = self.ring[(start + k) % self.ring.len()];
            if seen[b] {
                None
            } else {
                seen[b] = true;
                Some(b)
            }
        })
    }

    /// The `replicas` distinct backends that should hold `doc` — pure
    /// placement, no health or rotation applied. Deterministic across
    /// router restarts for a fixed backend list.
    pub fn replica_set(&self, doc: &str) -> Vec<usize> {
        self.walk(doc).take(self.replicas).collect()
    }

    /// Every backend in ring order from `doc`'s point: the replica set
    /// first, then the fallbacks an upload walks onto when a preferred
    /// backend is down.
    pub fn ring_order(&self, doc: &str) -> Vec<usize> {
        self.walk(doc).collect()
    }

    /// The order to try backends for a *read* of `doc`: its replica set
    /// (recorded upload placement when one exists, ring placement
    /// otherwise), rotated round-robin so repeated reads of a hot
    /// document spread across replicas, with known-bad backends demoted
    /// to the end — still tried (a request is what discovers recovery),
    /// but only after the healthy replicas.
    pub fn read_order(&self, doc: &str) -> Vec<usize> {
        let set = self.placement(doc).unwrap_or_else(|| self.replica_set(doc));
        let rot = self.cursor.fetch_add(1, Ordering::Relaxed) % set.len().max(1);
        let mut order: Vec<usize> = set[rot..].iter().chain(&set[..rot]).copied().collect();
        // Stable sort: rotation order is preserved within each group.
        order.sort_by_key(|&i| !self.usable(i));
        order
    }

    /// Healthy, or failed long enough ago that it is worth probing again.
    fn usable(&self, backend: usize) -> bool {
        let b = &self.backends[backend];
        if b.healthy.load(Ordering::Relaxed) {
            return true;
        }
        let last = b.last_failure.lock().unwrap_or_else(PoisonError::into_inner);
        last.is_none_or(|t| t.elapsed() >= RETRY_COOLDOWN)
    }

    fn fail(&self, backend: usize, draining: bool) {
        let b = &self.backends[backend];
        b.healthy.store(false, Ordering::Relaxed);
        b.draining.store(draining, Ordering::Relaxed);
        b.failures.fetch_add(1, Ordering::Relaxed);
        *b.last_failure.lock().unwrap_or_else(PoisonError::into_inner) = Some(Instant::now());
    }

    /// Record a transport-level failure (connect refused, mid-response
    /// close): the backend is demoted until a request succeeds.
    pub fn mark_down(&self, backend: usize) {
        self.fail(backend, false);
    }

    /// Record the backend's typed drain signal: demoted like a failure,
    /// but `/stats` reports *why*.
    pub fn mark_draining(&self, backend: usize) {
        self.fail(backend, true);
    }

    /// Record a completed HTTP exchange (any status — a 4xx is still a
    /// live backend).
    pub fn mark_up(&self, backend: usize) {
        let b = &self.backends[backend];
        b.healthy.store(true, Ordering::Relaxed);
        b.draining.store(false, Ordering::Relaxed);
        b.successes.fetch_add(1, Ordering::Relaxed);
    }

    /// Remember where an upload actually landed (may differ from the ring
    /// when dead backends were skipped).
    pub fn record_placement(&self, doc: &str, backends: Vec<usize>) {
        self.placements
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(doc.to_string(), backends);
    }

    /// The recorded upload placement for `doc`, if this router saw the
    /// upload.
    pub fn placement(&self, doc: &str) -> Option<Vec<usize>> {
        self.placements.lock().unwrap_or_else(PoisonError::into_inner).get(doc).cloned()
    }

    pub fn health_snapshot(&self) -> Vec<BackendHealth> {
        self.backends
            .iter()
            .map(|b| BackendHealth {
                addr: b.addr.clone(),
                healthy: b.healthy.load(Ordering::Relaxed),
                draining: b.draining.load(Ordering::Relaxed),
                failures: b.failures.load(Ordering::Relaxed),
                successes: b.successes.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool3(replicas: usize) -> BackendPool {
        BackendPool::new(
            vec!["10.0.0.1:7077".into(), "10.0.0.2:7077".into(), "10.0.0.3:7077".into()],
            replicas,
        )
    }

    #[test]
    fn placement_is_deterministic_across_pool_instances() {
        let a = pool3(2);
        let b = pool3(2);
        for i in 0..50 {
            let doc = format!("doc-{i}");
            assert_eq!(a.replica_set(&doc), b.replica_set(&doc), "{doc}");
        }
    }

    #[test]
    fn replica_sets_are_distinct_backends_of_the_requested_size() {
        let pool = pool3(2);
        for i in 0..50 {
            let set = pool.replica_set(&format!("doc-{i}"));
            assert_eq!(set.len(), 2);
            assert_ne!(set[0], set[1]);
        }
        // Ring order covers every backend exactly once.
        let mut all = pool.ring_order("doc-0");
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
        // Replication factor is clamped to the pool size.
        let clamped = pool3(9);
        assert_eq!(clamped.replicas(), 3);
        let clamped = pool3(0);
        assert_eq!(clamped.replicas(), 1);
    }

    #[test]
    fn the_ring_spreads_documents_over_every_backend() {
        let pool = pool3(1);
        let mut counts = [0usize; 3];
        for i in 0..120 {
            counts[pool.replica_set(&format!("doc-{i}"))[0]] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 10, "backend {i} got only {c}/120 documents: skewed ring {counts:?}");
        }
    }

    #[test]
    fn read_order_round_robins_over_the_replica_set() {
        let pool = pool3(2);
        let set = pool.replica_set("hot");
        let firsts: Vec<usize> = (0..4).map(|_| pool.read_order("hot")[0]).collect();
        // Both replicas take the lead position as the cursor rotates.
        assert!(set.iter().all(|b| firsts.contains(b)), "firsts {firsts:?} vs set {set:?}");
    }

    #[test]
    fn failed_backends_are_demoted_until_marked_up() {
        let pool = pool3(2);
        let set = pool.replica_set("doc");
        pool.mark_down(set[0]);
        for _ in 0..4 {
            let order = pool.read_order("doc");
            assert_eq!(order.last(), Some(&set[0]), "down backend must be tried last");
            assert_eq!(order.len(), 2, "demoted, not dropped");
        }
        pool.mark_up(set[0]);
        let firsts: Vec<usize> = (0..4).map(|_| pool.read_order("doc")[0]).collect();
        assert!(firsts.contains(&set[0]), "recovered backend rejoins the rotation");

        let health = pool.health_snapshot();
        assert!(health[set[0]].healthy);
        assert_eq!(health[set[0]].failures, 1);
        assert_eq!(health[set[0]].successes, 1);
    }

    #[test]
    fn drain_and_down_are_distinguished_in_health() {
        let pool = pool3(1);
        pool.mark_draining(0);
        pool.mark_down(1);
        let health = pool.health_snapshot();
        assert!(health[0].draining && !health[0].healthy);
        assert!(!health[1].draining && !health[1].healthy);
    }

    #[test]
    fn recorded_placements_override_ring_placement() {
        let pool = pool3(1);
        let ring = pool.replica_set("moved")[0];
        let other = (ring + 1) % 3;
        pool.record_placement("moved", vec![other]);
        assert_eq!(pool.placement("moved"), Some(vec![other]));
        assert_eq!(pool.read_order("moved"), vec![other]);
        // Documents without a recorded upload still follow the ring.
        assert_eq!(pool.read_order("elsewhere"), pool.replica_set("elsewhere"));
    }
}
