//! The shared plan cache.
//!
//! One LRU cache of compiled plans serves every document in a
//! [`Catalog`](crate::engine::Catalog): plans are document-independent
//! (they name axes, tests and strategies, never node ids), so
//! `count(/descendant::w)` compiles once and serves every manuscript. The
//! cache is keyed by `(language, query text)` — the same source text is a
//! valid query in both languages and compiles to different plans, so the
//! two never collide. Interior mutability (a [`Mutex`] around the map and
//! counters) lets lookups run from `&self` query paths, and compilation is
//! single-flight per key: concurrent first requests for one text wait for
//! one compile instead of racing, so `misses` counts compilations.

use crate::engine::error::QueryLang;
use mhx_xquery::CompiledXQuery;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// A cached, compiled query plan: XPath texts lower onto the same plan
/// type as XQuery, so the language only decides how a result is typed.
/// `Arc` so cache hits hand out a handle without cloning the plan and
/// eviction never invalidates a running query. The plan carries the
/// as-written *and* the optimized form, so one entry serves every
/// `optimize` knob setting (the knob is evaluation state, never part of
/// the cache key).
#[derive(Debug, Clone)]
pub(crate) struct CachedPlan {
    pub(crate) lang: QueryLang,
    pub(crate) plan: Arc<CompiledXQuery>,
}

type Key = (QueryLang, String);

/// Plan-cache counters, cumulative since construction. Resizing the cache
/// preserves them (and the surviving entries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Hits where the requesting document differs from the document whose
    /// query first compiled the entry — the cross-document sharing the
    /// catalog exists for.
    pub cross_doc_hits: u64,
    /// Current number of cached plans.
    pub entries: usize,
}

struct Entry {
    stamp: u64,
    /// Document the compiling query ran against (None for `prepare`d
    /// queries, which are document-free).
    origin_doc: Option<String>,
    plan: CachedPlan,
}

struct Inner {
    capacity: usize,
    stamp: u64,
    map: HashMap<Key, Entry>,
    /// One gate per key being compiled right now: a racing request for the
    /// same text waits on it instead of compiling again.
    compiling: HashMap<Key, Arc<Mutex<()>>>,
    hits: u64,
    misses: u64,
    evictions: u64,
    cross_doc_hits: u64,
}

impl Inner {
    /// Evict least-recently-used entries until `len <= capacity`. Recency
    /// is a monotonic stamp per entry; eviction scans for the minimum —
    /// O(capacity), trivial next to a parse.
    fn shrink_to_capacity(&mut self) {
        while self.map.len() > self.capacity {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.evictions += 1;
            } else {
                break;
            }
        }
    }
}

/// The `Send + Sync` LRU plan cache shared across a catalog's documents.
pub(crate) struct SharedPlanCache {
    inner: Mutex<Inner>,
}

impl SharedPlanCache {
    pub(crate) fn new(capacity: usize) -> SharedPlanCache {
        SharedPlanCache {
            inner: Mutex::new(Inner {
                capacity: capacity.max(1),
                stamp: 0,
                map: HashMap::new(),
                compiling: HashMap::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
                cross_doc_hits: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic mid-lookup leaves only counters/LRU stamps possibly
        // stale, never a dangling plan; recover rather than propagate.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a plan, attributing a hit to `doc` for the cross-document
    /// counter. A miss is not counted here: [`SharedPlanCache::get_or_compile`]
    /// counts one per compilation.
    pub(crate) fn get(&self, lang: QueryLang, src: &str, doc: Option<&str>) -> Option<CachedPlan> {
        let mut inner = self.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        // Tuple keys have no borrowed-key lookup; a short-lived owned key
        // is fine next to a parse.
        let key = (lang, src.to_string());
        let entry = inner.map.get_mut(&key)?;
        entry.stamp = stamp;
        let cross = match (&entry.origin_doc, doc) {
            (Some(origin), Some(d)) => origin != d,
            _ => false,
        };
        let plan = entry.plan.clone();
        inner.hits += 1;
        if cross {
            inner.cross_doc_hits += 1;
        }
        Some(plan)
    }

    /// The cached plan for `(lang, src)`, compiling it with `compile` on a
    /// miss. Single-flight per key: a request that misses while another
    /// compiles the same text waits and reuses that plan; different texts
    /// compile in parallel. A failed compile caches nothing. Every
    /// `compile` call counts one miss, recording `doc` as the plan's
    /// origin on success.
    pub(crate) fn get_or_compile<E>(
        &self,
        lang: QueryLang,
        src: &str,
        doc: Option<&str>,
        compile: impl FnOnce() -> Result<CachedPlan, E>,
    ) -> Result<CachedPlan, E> {
        if let Some(plan) = self.get(lang, src, doc) {
            return Ok(plan);
        }
        let key = (lang, src.to_string());
        let gate = Arc::clone(self.lock().compiling.entry(key.clone()).or_default());
        let _turn = gate.lock().unwrap_or_else(PoisonError::into_inner);
        // A racing request may have compiled this text while we waited.
        if let Some(plan) = self.get(lang, src, doc) {
            return Ok(plan);
        }
        let compiled = compile();
        let mut inner = self.lock();
        inner.misses += 1;
        if let Ok(plan) = &compiled {
            inner.stamp += 1;
            let entry = Entry {
                stamp: inner.stamp,
                origin_doc: doc.map(str::to_string),
                plan: plan.clone(),
            };
            inner.map.insert(key.clone(), entry);
            inner.shrink_to_capacity();
        }
        if inner.compiling.get(&key).is_some_and(|g| Arc::ptr_eq(g, &gate)) {
            inner.compiling.remove(&key);
        }
        compiled
    }

    /// Change the capacity, keeping the most recent entries up to the new
    /// capacity and all cumulative counters (trimmed entries count as
    /// evictions).
    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity.max(1);
        inner.shrink_to_capacity();
    }

    pub(crate) fn capacity(&self) -> usize {
        self.lock().capacity
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            cross_doc_hits: inner.cross_doc_hits,
            entries: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> CachedPlan {
        let plan = Arc::new(CompiledXQuery::compile_xpath("/descendant::w").unwrap());
        CachedPlan { lang: QueryLang::XPath, plan }
    }

    fn insert(c: &SharedPlanCache, lang: QueryLang, src: &str, doc: Option<&str>) {
        c.get_or_compile(lang, src, doc, || Ok::<_, ()>(plan())).unwrap();
    }

    #[test]
    fn resize_preserves_entries_and_counters() {
        let c = SharedPlanCache::new(8);
        for i in 0..4 {
            let src = format!("/descendant::w[{i}]");
            assert!(c.get(QueryLang::XPath, &src, Some("a")).is_none());
            insert(&c, QueryLang::XPath, &src, Some("a"));
        }
        assert_eq!(c.stats().entries, 4);
        assert_eq!(c.stats().misses, 4);

        // Shrinking to 2 keeps the two most recent entries and the stats.
        c.set_capacity(2);
        let s = c.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.misses, 4, "cumulative counters survive the resize");
        assert_eq!(s.evictions, 2, "trimmed entries count as evictions");
        assert!(c.get(QueryLang::XPath, "/descendant::w[3]", Some("a")).is_some());
        assert!(c.get(QueryLang::XPath, "/descendant::w[0]", Some("a")).is_none());

        // Growing never drops anything.
        c.set_capacity(16);
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.capacity(), 16);
    }

    #[test]
    fn cross_document_hits_are_attributed() {
        let c = SharedPlanCache::new(4);
        insert(&c, QueryLang::XPath, "/descendant::w", Some("ms-a"));
        assert!(c.get(QueryLang::XPath, "/descendant::w", Some("ms-a")).is_some());
        assert_eq!(c.stats().cross_doc_hits, 0);
        assert!(c.get(QueryLang::XPath, "/descendant::w", Some("ms-b")).is_some());
        assert_eq!(c.stats().cross_doc_hits, 1);
        // Document-free (prepared) lookups never count as cross-document.
        assert!(c.get(QueryLang::XPath, "/descendant::w", None).is_some());
        assert_eq!(c.stats().cross_doc_hits, 1);
        assert_eq!(c.stats().hits, 3);
    }

    #[test]
    fn languages_do_not_collide() {
        let c = SharedPlanCache::new(4);
        insert(&c, QueryLang::XPath, "count(/descendant::w)", None);
        assert!(c.get(QueryLang::XQuery, "count(/descendant::w)", None).is_none());
        assert!(c.get(QueryLang::XPath, "count(/descendant::w)", None).is_some());
    }
}
