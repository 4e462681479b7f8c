//! The multi-document serving facade.
//!
//! A [`Catalog`] maps document ids to independent documents (KyGODDAG +
//! structural index) behind **one plan cache shared across all documents**.
//! Everything is interior-mutable: queries take `&self`, per-document state
//! sits behind `RwLock`s, and `Catalog` is `Send + Sync`, so one catalog
//! can serve concurrent queries against different (or the same) documents
//! from many threads.
//!
//! Lock discipline: a query clones the `Arc<DocEntry>` out of the registry
//! (released immediately), then holds that document's goddag read lock for
//! the duration of evaluation — so a concurrent [`Catalog::add_hierarchy`]
//! on the *same* document waits, while queries on *other* documents never
//! contend. The index slot is a lazily rebuilt `Arc` snapshot: readers
//! validate it against the goddag version and rebuild under the slot's
//! write lock when a mutation invalidated it.
//!
//! Poisoning: every lock here is taken with
//! `unwrap_or_else(PoisonError::into_inner)`, so a panic on one thread
//! never turns later calls into panics. A query that panics holds only
//! read guards, which do not poison; a panic inside a write section
//! (`add_hierarchy`, a snapshot load) leaves whatever that section had
//! already written. The server answers the panicking request `500`
//! (`internal`) and closes its connection.

use crate::engine::cache::{CacheStats, CachedPlan, SharedPlanCache};
use crate::engine::error::{query_error, EngineError, QueryLang};
use crate::engine::result::QueryOutcome;
use crate::engine::session::{Prepared, Session};
use mhx_goddag::{Goddag, StructIndex};
use mhx_xquery::{CompiledXQuery, EvalOptions, EvalStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Accumulator behind [`EvalStats`] snapshots. The catalog owns one for
/// its totals; every [`Session`] owns another, so per-connection counters
/// come for free on the same evaluation path.
#[derive(Default)]
pub(crate) struct EvalTotals(Mutex<EvalStats>);

impl EvalTotals {
    // Counters are plain sums: a panic mid-update leaves them valid.
    fn add(&self, delta: EvalStats) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).absorb(&delta);
    }

    pub(crate) fn snapshot(&self) -> EvalStats {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII in-flight marker: increments on entry to evaluation, decrements on
/// every exit path (including panics), so [`Catalog::drain`] can wait for
/// a true zero.
struct InFlight<'a>(&'a AtomicU64);

impl<'a> InFlight<'a> {
    fn enter(counter: &'a AtomicU64) -> InFlight<'a> {
        counter.fetch_add(1, Ordering::SeqCst);
        InFlight(counter)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Default plan-cache capacity (distinct query texts kept compiled).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// The in-RAM half of a document: its goddag and the lazily maintained
/// structural index snapshot. Dropped on eviction, rebuilt from the
/// snapshot file on the next query.
pub(crate) struct DocBody {
    g: Goddag,
    index: RwLock<Option<Arc<StructIndex>>>,
}

impl DocBody {
    fn new(g: Goddag, index: Arc<StructIndex>) -> DocBody {
        DocBody { g, index: RwLock::new(Some(index)) }
    }

    /// A current index snapshot (the caller holds the entry's body read
    /// lock, so the goddag cannot move under us while we validate/rebuild).
    fn current_index(&self) -> Arc<StructIndex> {
        {
            let slot = self.index.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(idx) = slot.as_ref() {
                if idx.is_current(&self.g) {
                    return Arc::clone(idx);
                }
            }
        }
        let mut slot = self.index.write().unwrap_or_else(PoisonError::into_inner);
        // Double-check: another reader may have rebuilt while we waited.
        if let Some(idx) = slot.as_ref() {
            if idx.is_current(&self.g) {
                return Arc::clone(idx);
            }
        }
        let idx = Arc::new(StructIndex::build(&self.g));
        *slot = Some(Arc::clone(&idx));
        idx
    }
}

/// One registered document. The body is optional: `None` means the
/// document is evicted — known to the catalog, resident only on disk,
/// reloaded lazily on the next query.
pub(crate) struct DocEntry {
    body: RwLock<Option<DocBody>>,
    /// Monotonic catalog tick of the last query/load — the LRU key for
    /// memory-budget eviction.
    last_used: AtomicU64,
    /// Snapshot file size; 0 when the document is not persisted (plain
    /// [`Catalog::insert`]). Only persisted documents are evictable, and
    /// this doubles as the resident-set size estimate.
    snapshot_bytes: AtomicU64,
    /// A snapshot load is reading the disk right now.
    loading: AtomicBool,
    /// Never been resident in this process — the next load is a cold
    /// start, not eviction churn.
    cold: AtomicBool,
}

impl DocEntry {
    fn new(g: Goddag) -> DocEntry {
        // Build eagerly: registration is the natural place to pay the
        // one-time cost, and it keeps first-query latency flat.
        let index = Arc::new(StructIndex::build(&g));
        DocEntry::resident(g, index, 0)
    }

    fn resident(g: Goddag, index: Arc<StructIndex>, snapshot_bytes: u64) -> DocEntry {
        DocEntry {
            body: RwLock::new(Some(DocBody::new(g, index))),
            last_used: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(snapshot_bytes),
            loading: AtomicBool::new(false),
            cold: AtomicBool::new(false),
        }
    }

    /// A known-on-disk document with no RAM body yet (boot replay, or a
    /// snapshot discovered on a registry miss).
    fn evicted(snapshot_bytes: u64) -> DocEntry {
        DocEntry {
            body: RwLock::new(None),
            last_used: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(snapshot_bytes),
            loading: AtomicBool::new(false),
            cold: AtomicBool::new(true),
        }
    }
}

/// Where a document currently lives (reported by `/documents`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Goddag + index in RAM, queries answer directly.
    Resident,
    /// Only the snapshot file exists; the next query reloads it.
    Evicted,
    /// A snapshot load is in progress.
    Loading,
}

impl Residency {
    /// Stable lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            Residency::Resident => "resident",
            Residency::Evicted => "evicted",
            Residency::Loading => "loading",
        }
    }
}

/// Persistent-store counters, snapshot via [`Catalog::store_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// A data directory is attached.
    pub attached: bool,
    /// The resident-set byte cap, if any.
    pub budget: Option<u64>,
    /// Snapshot loads (cold starts + eviction-churn reloads).
    pub loads: u64,
    /// Documents evicted to enforce the memory budget.
    pub evictions: u64,
    /// Loads of documents never previously resident in this process.
    pub cold_start_hits: u64,
    /// Total bytes across all snapshot files.
    pub bytes_on_disk: u64,
    /// Documents currently resident in RAM.
    pub resident_docs: u64,
    /// Snapshot-size estimate of the resident persisted set (what the
    /// budget is enforced against).
    pub resident_bytes: u64,
}

/// The catalog's persistent-store binding (set once by
/// [`Catalog::attach_store`]).
struct StoreBinding {
    store: mhx_store::DocStore,
    budget: Option<u64>,
    loads: AtomicU64,
    evictions: AtomicU64,
    cold_start_hits: AtomicU64,
}

/// The multi-document query facade. See the [module docs](self).
///
/// ```
/// use multihier_xquery::prelude::*;
///
/// fn manuscript(line_break: usize) -> Goddag {
///     let text = "gesceaftum unawendendne singallice";
///     GoddagBuilder::new()
///         .hierarchy(
///             "lines",
///             format!("<r><line>{}</line><line>{}</line></r>", &text[..line_break], &text[line_break..]),
///         )
///         .hierarchy("words", "<r><w>gesceaftum</w> <w>unawendendne</w> <w>singallice</w></r>")
///         .build()
///         .unwrap()
/// }
///
/// let catalog = Catalog::new();
/// catalog.insert("ms-a", manuscript(14));
/// catalog.insert("ms-b", manuscript(30));
///
/// // One query text, two documents, one compilation: the plan cache is
/// // shared because plans are document-independent.
/// let q = "for $w in /descendant::w[overlapping::line] return string($w)";
/// assert_eq!(catalog.xquery("ms-a", q).unwrap().serialize(), "unawendendne");
/// assert_eq!(catalog.xquery("ms-b", q).unwrap().serialize(), "singallice");
/// let stats = catalog.cache_stats();
/// assert_eq!(stats.misses, 1);
/// assert_eq!(stats.cross_doc_hits, 1);
/// ```
pub struct Catalog {
    docs: RwLock<BTreeMap<String, Arc<DocEntry>>>,
    cache: SharedPlanCache,
    opts: EvalOptions,
    eval_totals: EvalTotals,
    shutting_down: AtomicBool,
    in_flight: AtomicU64,
    store: std::sync::OnceLock<StoreBinding>,
    /// Monotonic logical clock for LRU last-used stamps.
    tick: AtomicU64,
}

impl Default for Catalog {
    fn default() -> Catalog {
        Catalog::new()
    }
}

impl Catalog {
    /// An empty catalog with default evaluation options and plan-cache
    /// capacity.
    pub fn new() -> Catalog {
        Catalog::with_options(EvalOptions::default())
    }

    /// [`Catalog::new`] with catalog-wide default XQuery evaluation
    /// options (sessions can override per connection).
    pub fn with_options(opts: EvalOptions) -> Catalog {
        Catalog {
            docs: RwLock::new(BTreeMap::new()),
            cache: SharedPlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
            opts,
            eval_totals: EvalTotals::default(),
            shutting_down: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            store: std::sync::OnceLock::new(),
            tick: AtomicU64::new(0),
        }
    }

    /// Change the plan-cache capacity in place (min 1), keeping the most
    /// recently used entries and all cumulative counters — resizing never
    /// silently discards a warm cache.
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }

    /// Current plan-cache capacity.
    pub fn plan_cache_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// The catalog-wide default evaluation options.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// Shared plan-cache counters (cumulative across all documents).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cumulative evaluation counters (batched / rewritten steps) across
    /// all documents and both query languages.
    pub fn eval_stats(&self) -> EvalStats {
        self.eval_totals.snapshot()
    }

    // ------------------------------------------------------------------
    // Graceful shutdown
    // ------------------------------------------------------------------

    /// Start draining: queries already evaluating run to completion, but
    /// every subsequent query, prepare, session-open, and
    /// [`Catalog::add_hierarchy`] returns [`EngineError::ShuttingDown`].
    /// Registry surgery ([`Catalog::insert`] / [`Catalog::remove`]) stays
    /// available — those are infallible owner-side operations, and a
    /// serving front end gates client-driven uploads itself (the `mhxd`
    /// upload endpoint answers 503 while draining). Irreversible by
    /// design — a draining catalog is on its way out of service.
    ///
    /// The flag + in-flight counter are what a serving front end's
    /// ctrl-c/SIGTERM path needs to stop without dropping a request
    /// mid-response: flip the flag, then [`Catalog::drain`].
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Number of evaluations currently running.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Wait until no evaluation is in flight (true) or `timeout` elapses
    /// (false). Typically called after [`Catalog::begin_shutdown`]; without
    /// the flag set, new arrivals can keep the counter nonzero forever.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.in_flight() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// The common refusal check: every serving entry point calls this
    /// *after* registering in-flight state (or before doing any work at
    /// all), so `begin_shutdown → drain` observes a consistent world.
    fn check_open(&self) -> Result<(), EngineError> {
        if self.is_shutting_down() {
            return Err(EngineError::ShuttingDown);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Document registry
    // ------------------------------------------------------------------

    fn registry(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<DocEntry>>> {
        self.docs.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register (or replace) a document under `id`. Builds its structural
    /// index eagerly. Cached plans are unaffected — they are
    /// document-independent.
    pub fn insert(&self, id: impl Into<String>, g: Goddag) {
        let entry = Arc::new(DocEntry::new(g));
        self.docs.write().unwrap_or_else(PoisonError::into_inner).insert(id.into(), entry);
    }

    /// Remove a document — registry entry and snapshot file both. Running
    /// queries against it finish on their own snapshot; subsequent
    /// queries get [`EngineError::UnknownDocument`].
    pub fn remove(&self, id: &str) -> bool {
        let known = self.docs.write().unwrap_or_else(PoisonError::into_inner).remove(id).is_some();
        let on_disk = match self.store.get() {
            Some(b) => b.store.remove(id).unwrap_or(false),
            None => false,
        };
        known || on_disk
    }

    pub fn contains(&self, id: &str) -> bool {
        self.registry().contains_key(id)
    }

    /// Registered document ids, sorted.
    pub fn document_ids(&self) -> Vec<String> {
        self.registry().keys().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.registry().len()
    }

    pub fn is_empty(&self) -> bool {
        self.registry().is_empty()
    }

    /// Resolve a document entry: registry first, then — with a store
    /// attached — a snapshot-file probe, so `UnknownDocument` is only
    /// returned after a true store miss.
    fn entry(&self, id: &str) -> Result<Arc<DocEntry>, EngineError> {
        if let Some(e) = self.registry().get(id).cloned() {
            return Ok(e);
        }
        if let Some(b) = self.store.get() {
            if let Some(size) = b.store.snapshot_size(id) {
                let mut docs = self.docs.write().unwrap_or_else(PoisonError::into_inner);
                let e =
                    docs.entry(id.to_string()).or_insert_with(|| Arc::new(DocEntry::evicted(size)));
                return Ok(Arc::clone(e));
            }
        }
        Err(EngineError::unknown_document(id))
    }

    // ------------------------------------------------------------------
    // Persistent store
    // ------------------------------------------------------------------

    /// Attach a snapshot data directory (at most once per catalog).
    /// Existing snapshots are registered immediately as evicted entries —
    /// boot replay is an `open`, not a reparse; bodies load lazily on
    /// first query. `budget` caps the resident persisted set in bytes:
    /// when exceeded, least-recently-queried documents drop their RAM
    /// body (the snapshot file stays). Returns the replayed ids.
    pub fn attach_store(
        &self,
        dir: impl Into<std::path::PathBuf>,
        budget: Option<u64>,
    ) -> Result<Vec<String>, EngineError> {
        let store =
            mhx_store::DocStore::open(dir).map_err(|e| EngineError::store(e.to_string()))?;
        let listing = store.list().map_err(|e| EngineError::store(e.to_string()))?;
        let binding = StoreBinding {
            store,
            budget,
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            cold_start_hits: AtomicU64::new(0),
        };
        if self.store.set(binding).is_err() {
            return Err(EngineError::store("a data directory is already attached"));
        }
        let mut docs = self.docs.write().unwrap_or_else(PoisonError::into_inner);
        let mut ids = Vec::with_capacity(listing.len());
        for (id, size) in listing {
            docs.entry(id.clone()).or_insert_with(|| Arc::new(DocEntry::evicted(size)));
            ids.push(id);
        }
        Ok(ids)
    }

    /// Whether a data directory is attached.
    pub fn store_attached(&self) -> bool {
        self.store.get().is_some()
    }

    /// Register **and persist** a document under `id`: the durable
    /// counterpart of [`Catalog::insert`]. With no store attached this is
    /// plain registration; with one, the snapshot is written first (a
    /// failed write registers nothing), then the memory budget is
    /// enforced.
    pub fn put(&self, id: impl Into<String>, g: Goddag) -> Result<(), EngineError> {
        let id = id.into();
        let index = Arc::new(StructIndex::build(&g));
        let mut snapshot_bytes = 0;
        if let Some(b) = self.store.get() {
            snapshot_bytes =
                b.store.save(&id, &g, &index).map_err(|e| EngineError::store(e.to_string()))?;
        }
        let entry = Arc::new(DocEntry::resident(g, index, snapshot_bytes));
        self.touch(&entry);
        self.docs.write().unwrap_or_else(PoisonError::into_inner).insert(id, entry);
        self.enforce_budget();
        Ok(())
    }

    /// Store counters (all zero when no store is attached).
    pub fn store_stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for e in self.registry().values() {
            let resident = match e.body.try_read() {
                Ok(guard) => guard.is_some(),
                // Locked for writing: a load or mutation is touching the
                // body, either way it is (about to be) resident.
                Err(_) => true,
            };
            if resident {
                stats.resident_docs += 1;
                stats.resident_bytes += e.snapshot_bytes.load(Ordering::Relaxed);
            }
        }
        if let Some(b) = self.store.get() {
            stats.attached = true;
            stats.budget = b.budget;
            stats.loads = b.loads.load(Ordering::Relaxed);
            stats.evictions = b.evictions.load(Ordering::Relaxed);
            stats.cold_start_hits = b.cold_start_hits.load(Ordering::Relaxed);
            stats.bytes_on_disk = b.store.bytes_on_disk();
        }
        stats
    }

    /// Per-document residency and snapshot size, sorted by id.
    pub fn document_status(&self) -> Vec<(String, Residency, u64)> {
        self.registry()
            .iter()
            .map(|(id, e)| {
                let residency = if e.loading.load(Ordering::Acquire) {
                    Residency::Loading
                } else {
                    match e.body.try_read() {
                        Ok(guard) if guard.is_some() => Residency::Resident,
                        Ok(_) => Residency::Evicted,
                        // Write-locked without the loading flag: an
                        // in-place mutation of a resident body.
                        Err(_) => Residency::Resident,
                    }
                };
                (id.clone(), residency, e.snapshot_bytes.load(Ordering::Relaxed))
            })
            .collect()
    }

    /// Stamp an entry as just-used (the LRU clock).
    fn touch(&self, entry: &DocEntry) {
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(now, Ordering::Relaxed);
    }

    /// A read guard whose body is guaranteed `Some`: loads the snapshot
    /// (single-flight, under the entry's write lock) when the document is
    /// evicted, retrying if a concurrent budget pass re-evicts between the
    /// load and our re-read.
    fn resident_body<'a>(
        &self,
        id: &str,
        entry: &'a DocEntry,
    ) -> Result<std::sync::RwLockReadGuard<'a, Option<DocBody>>, EngineError> {
        loop {
            {
                let guard = entry.body.read().unwrap_or_else(PoisonError::into_inner);
                if guard.is_some() {
                    self.touch(entry);
                    return Ok(guard);
                }
            }
            self.load_into(id, entry)?;
        }
    }

    /// Load `id`'s snapshot into an evicted entry (no-op if another
    /// thread already did), then enforce the budget — the freshly loaded
    /// entry is the most recently used, so it is never its own victim.
    fn load_into(&self, id: &str, entry: &DocEntry) -> Result<(), EngineError> {
        {
            let mut guard = entry.body.write().unwrap_or_else(PoisonError::into_inner);
            if guard.is_some() {
                return Ok(());
            }
            let Some(b) = self.store.get() else {
                return Err(EngineError::store(format!(
                    "document `{id}` is evicted but no data directory is attached"
                )));
            };
            entry.loading.store(true, Ordering::Release);
            let loaded = b.store.load(id);
            entry.loading.store(false, Ordering::Release);
            let (g, idx) = match loaded {
                Ok(Some(pair)) => pair,
                Ok(None) => return Err(EngineError::unknown_document(id)),
                Err(e) => return Err(EngineError::store(e.to_string())),
            };
            b.loads.fetch_add(1, Ordering::Relaxed);
            if entry.cold.swap(false, Ordering::Relaxed) {
                b.cold_start_hits.fetch_add(1, Ordering::Relaxed);
            }
            *guard = Some(DocBody::new(g, Arc::new(idx)));
            self.touch(entry);
        }
        self.enforce_budget();
        Ok(())
    }

    /// Evict least-recently-used persisted documents until the resident
    /// persisted set fits the budget. In-use documents (read-locked by a
    /// running query) are skipped, and the most recently used document is
    /// never evicted — reloading one oversized document must not thrash.
    fn enforce_budget(&self) {
        let Some(b) = self.store.get() else { return };
        let Some(budget) = b.budget else { return };
        let docs = self.registry();
        let mut resident: Vec<(&Arc<DocEntry>, u64, u64)> = docs
            .values()
            .filter_map(|e| {
                let size = e.snapshot_bytes.load(Ordering::Relaxed);
                if size == 0 {
                    return None; // not persisted — not evictable
                }
                match e.body.try_read() {
                    Ok(guard) if guard.is_some() => {
                        Some((e, size, e.last_used.load(Ordering::Relaxed)))
                    }
                    _ => None,
                }
            })
            .collect();
        let mut total: u64 = resident.iter().map(|&(_, size, _)| size).sum();
        if total <= budget || resident.len() <= 1 {
            return;
        }
        resident.sort_by_key(|&(_, _, used)| used);
        // All but the most recently used are candidates, oldest first.
        for &(e, size, _) in resident.iter().take(resident.len() - 1) {
            if total <= budget {
                break;
            }
            // try_write fails exactly when a query holds the body — skip
            // in-use documents rather than stall the loader.
            if let Ok(mut guard) = e.body.try_write() {
                if guard.take().is_some() {
                    b.evictions.fetch_add(1, Ordering::Relaxed);
                    total -= size;
                }
            }
        }
    }

    /// Read a document's goddag under its lock.
    ///
    /// The closure runs while this document's read lock is held: do
    /// **not** call back into the catalog for the *same* document from
    /// inside it — `add_hierarchy` (a writer) would deadlock against the
    /// held read guard (`std::sync::RwLock` is not reentrant), and even a
    /// same-document query can deadlock once another thread queues a
    /// write. Queries against *other* documents are fine.
    ///
    /// ```
    /// use multihier_xquery::prelude::*;
    ///
    /// let catalog = Catalog::new();
    /// catalog.insert(
    ///     "ms",
    ///     GoddagBuilder::new().hierarchy("w", "<r><w>abc</w></r>").build().unwrap(),
    /// );
    /// let n = catalog.with_document("ms", |g| g.leaf_count()).unwrap();
    /// assert_eq!(n, 1);
    /// ```
    pub fn with_document<T>(
        &self,
        id: &str,
        f: impl FnOnce(&Goddag) -> T,
    ) -> Result<T, EngineError> {
        let entry = self.entry(id)?;
        let guard = self.resident_body(id, &entry)?;
        Ok(f(&guard.as_ref().expect("resident_body returns Some").g))
    }

    /// Add a base hierarchy to a registered document. Takes the document's
    /// write lock (queries on other documents are unaffected); the index
    /// rebuilds lazily on the next query. Compiled plans stay valid.
    /// Persisted documents are re-snapshotted so the mutation survives a
    /// restart.
    pub fn add_hierarchy(&self, id: &str, name: &str, xml: &str) -> Result<(), EngineError> {
        self.check_open()?;
        let entry = self.entry(id)?;
        let doc = mhx_xml::parse(xml)?;
        loop {
            let mut guard = entry.body.write().unwrap_or_else(PoisonError::into_inner);
            let Some(body) = guard.as_mut() else {
                drop(guard);
                self.load_into(id, &entry)?;
                continue;
            };
            body.g.add_document_hierarchy(name, &doc)?;
            if entry.snapshot_bytes.load(Ordering::Relaxed) > 0 {
                if let Some(b) = self.store.get() {
                    // Rebuild the index now and leave it in the slot for
                    // the next query. The snapshot holds the document
                    // alone; a load rebuilds its own index.
                    let idx = Arc::new(StructIndex::build(&body.g));
                    let bytes = b
                        .store
                        .save(id, &body.g, &idx)
                        .map_err(|e| EngineError::store(e.to_string()))?;
                    *body.index.write().unwrap_or_else(PoisonError::into_inner) = Some(idx);
                    entry.snapshot_bytes.store(bytes, Ordering::Relaxed);
                }
            }
            return Ok(());
        }
    }

    // ------------------------------------------------------------------
    // Query entry points
    // ------------------------------------------------------------------

    /// Evaluate an XPath expression from the root of document `id`.
    pub fn xpath(&self, id: &str, src: &str) -> Result<QueryOutcome, EngineError> {
        self.query(id, QueryLang::XPath, src)
    }

    /// Run an XQuery query against document `id` with the catalog's
    /// default options.
    pub fn xquery(&self, id: &str, src: &str) -> Result<QueryOutcome, EngineError> {
        self.query(id, QueryLang::XQuery, src)
    }

    /// Language-dispatched entry point (what a network front end calls).
    pub fn query(&self, id: &str, lang: QueryLang, src: &str) -> Result<QueryOutcome, EngineError> {
        // Refuse before compiling: a draining catalog must not pay for
        // (or cache) new plans. Then resolve the document, so an unknown
        // id also fails without compiling anything.
        self.check_open()?;
        let entry = self.entry(id)?;
        let plan = self.plan_for(lang, src, Some(id))?;
        self.eval_entry(id, &entry, &plan, &self.opts, None)
    }

    /// Render the optimized plan for `src` against document `id`: chosen
    /// rewrites, per-step strategies and annotations, and estimated vs.
    /// actual per-step cardinalities (each path is evaluated incrementally
    /// to measure them). Compiles through the shared cache, so explaining
    /// a query warms the same plan later queries reuse.
    pub fn explain(&self, id: &str, lang: QueryLang, src: &str) -> Result<String, EngineError> {
        self.check_open()?;
        let entry = self.entry(id)?;
        let cached = self.plan_for(lang, src, Some(id))?;
        let guard = self.resident_body(id, &entry)?;
        let body = guard.as_ref().expect("resident_body returns Some");
        Ok(cached.plan.explain(&body.g, &body.current_index()))
    }

    /// Compile a query once (through the shared cache) into a reusable
    /// handle, without touching any document.
    ///
    /// ```
    /// use multihier_xquery::prelude::*;
    ///
    /// let catalog = Catalog::new();
    /// catalog.insert(
    ///     "ms",
    ///     GoddagBuilder::new().hierarchy("w", "<r><w>a</w><w>b</w></r>").build().unwrap(),
    /// );
    /// let q = catalog.prepare(QueryLang::XQuery, "count(/descendant::w)").unwrap();
    /// assert_eq!(catalog.execute("ms", &q).unwrap().serialize(), "2");
    /// ```
    pub fn prepare(&self, lang: QueryLang, src: &str) -> Result<Prepared, EngineError> {
        self.check_open()?;
        let plan = self.plan_for(lang, src, None)?;
        Ok(Prepared::new(src.to_string(), plan))
    }

    /// Execute a prepared query against document `id` with the catalog's
    /// default options.
    pub fn execute(&self, id: &str, prepared: &Prepared) -> Result<QueryOutcome, EngineError> {
        self.execute_with(id, prepared.plan(), &self.opts, None)
    }

    /// Execute a prepared query with explicit options (sessions route
    /// through this, threading their own counters).
    pub(crate) fn execute_with(
        &self,
        id: &str,
        plan: &CachedPlan,
        opts: &EvalOptions,
        session_totals: Option<&EvalTotals>,
    ) -> Result<QueryOutcome, EngineError> {
        let entry = self.entry(id)?;
        self.eval_entry(id, &entry, plan, opts, session_totals)
    }

    /// Open a per-connection handle pinned to document `id`, carrying its
    /// own [`EvalOptions`] (initialized from the catalog defaults).
    pub fn session(&self, id: &str) -> Result<Session<'_>, EngineError> {
        self.check_open()?;
        // `entry` rather than `contains`: a store-backed document that is
        // on disk but not yet registered still opens a session.
        self.entry(id)?;
        Ok(Session::new(self, id.to_string(), self.opts.clone()))
    }

    // ------------------------------------------------------------------
    // Plan pipeline
    // ------------------------------------------------------------------

    /// Parse + compile `src` through the shared cache (single-flight per
    /// text). `doc` attributes the lookup for the cross-document hit
    /// counter. Both languages compile to a [`CompiledXQuery`], optimized
    /// once: the cached plan carries both forms and repeat executions skip
    /// the rewrite.
    pub(crate) fn plan_for(
        &self,
        lang: QueryLang,
        src: &str,
        doc: Option<&str>,
    ) -> Result<CachedPlan, EngineError> {
        self.cache.get_or_compile(lang, src, doc, || {
            let plan = match lang {
                QueryLang::XPath => CompiledXQuery::compile_xpath(src),
                QueryLang::XQuery => CompiledXQuery::compile(src),
            }
            .map_err(|e| query_error(lang, e))?;
            Ok(CachedPlan { lang, plan: Arc::new(plan) })
        })
    }

    fn eval_entry(
        &self,
        id: &str,
        entry: &DocEntry,
        plan: &CachedPlan,
        opts: &EvalOptions,
        session_totals: Option<&EvalTotals>,
    ) -> Result<QueryOutcome, EngineError> {
        // Register in flight *before* checking the flag: a concurrent
        // `begin_shutdown → drain` either sees the flag refuse us, or sees
        // our increment and waits for the full evaluation — never a query
        // it doesn't know about.
        let _in_flight = InFlight::enter(&self.in_flight);
        self.check_open()?;
        let guard = self.resident_body(id, entry)?;
        let body = guard.as_ref().expect("resident_body returns Some");
        let idx = body.current_index();
        let (outcome, stats) = plan
            .plan
            .evaluate(&body.g, Some(&idx), opts, |ev, seq| QueryOutcome::new(plan.lang, ev, &seq))
            .map_err(|e| query_error(plan.lang, e))?;
        self.eval_totals.add(stats);
        if let Some(totals) = session_totals {
            totals.add(stats);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhx_goddag::GoddagBuilder;

    fn two_hierarchies() -> Goddag {
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

    #[test]
    fn index_rebuilds_lazily_after_hierarchy_mutation() {
        let c = Catalog::new();
        c.insert("ms", two_hierarchies());
        assert!(c.xpath("ms", "/descendant::res").unwrap().nodes().unwrap().is_empty());
        c.add_hierarchy(
            "ms",
            "restorations",
            "<r><res>gesceaftum una</res>wendendne s<res>in</res><res>gallice sibbe gecyn</res>de þa</r>",
        )
        .unwrap();
        // The entry's index snapshot is stale now; the next query rebuilds
        // it and sees the new hierarchy through the same compiled plan.
        let found = c.xpath("ms", "/descendant::res").unwrap();
        assert_eq!(found.nodes().unwrap().len(), 3);
        let stats = c.cache_stats();
        assert_eq!(stats.hits, 1, "compiled plan survived the hierarchy mutation");
        // And the rebuilt snapshot is current: one more query, no rebuild
        // artifacts, same answer.
        assert_eq!(c.xpath("ms", "/descendant::res").unwrap().nodes().unwrap().len(), 3);
    }

    #[test]
    fn racing_first_requests_compile_once() {
        let c = Catalog::new();
        c.insert("ms", two_hierarchies());
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    let n = c.xpath("ms", "count(//w[overlapping::line])").unwrap();
                    assert_eq!(n.num(), Some(1.0));
                });
            }
        });
        let stats = c.cache_stats();
        assert_eq!(stats.misses, 1, "one compilation served all eight requests: {stats:?}");
        assert_eq!(stats.hits, 7);
        // A failed compile caches nothing: the text compiles (and fails)
        // again on the next request.
        for _ in 0..2 {
            assert!(matches!(c.xpath("ms", "/descendant::"), Err(EngineError::Parse { .. })));
            let unknown = c.xquery("ms", "if (false()) then nosuch() else 1");
            assert!(matches!(unknown, Err(EngineError::Compile { .. })), "{unknown:?}");
        }
        assert_eq!(c.cache_stats().misses, 5);
        assert_eq!(c.cache_stats().entries, 1);
    }

    #[test]
    fn shutdown_refuses_new_work_and_drains() {
        let c = Catalog::new();
        c.insert("ms", two_hierarchies());
        assert!(!c.is_shutting_down());
        assert_eq!(c.in_flight(), 0);
        assert!(c.xpath("ms", "/descendant::w").is_ok());

        c.begin_shutdown();
        assert!(c.is_shutting_down());
        for result in [
            c.xpath("ms", "/descendant::w"),
            c.xquery("ms", "count(/descendant::w)"),
            c.prepare(QueryLang::XPath, "/descendant::w").map(|_| unreachable!()),
            c.add_hierarchy("ms", "x", "<r>nope</r>").map(|_| unreachable!()),
        ] {
            assert!(matches!(result, Err(EngineError::ShuttingDown)), "{result:?}");
        }
        assert!(matches!(c.session("ms"), Err(EngineError::ShuttingDown)));
        // Nothing was in flight, so the drain completes immediately.
        assert!(c.drain(std::time::Duration::from_secs(1)));
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn shutdown_mid_traffic_never_truncates_a_result() {
        // N threads hammer the catalog while the main thread flips the
        // shutdown flag: every query must either complete with the full
        // (known) answer or be refused whole — no partial results, and
        // drain() must reach zero in flight.
        let c = std::sync::Arc::new(Catalog::new());
        c.insert("ms", two_hierarchies());
        let expected = c.xquery("ms", "for $w in /descendant::w return string($w)").unwrap();
        let expected = expected.serialize().to_string();

        let barrier = std::sync::Arc::new(std::sync::Barrier::new(5));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                let barrier = std::sync::Arc::clone(&barrier);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut completed = 0u32;
                    let mut refused = 0u32;
                    loop {
                        match c.xquery("ms", "for $w in /descendant::w return string($w)") {
                            Ok(out) => {
                                assert_eq!(out.serialize(), expected, "truncated result");
                                completed += 1;
                            }
                            Err(EngineError::ShuttingDown) => {
                                refused += 1;
                                break;
                            }
                            Err(other) => panic!("unexpected error {other:?}"),
                        }
                    }
                    (completed, refused)
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.begin_shutdown();
        assert!(c.drain(std::time::Duration::from_secs(5)), "drain timed out");
        assert_eq!(c.in_flight(), 0);
        let mut total_completed = 0;
        for h in handles {
            let (completed, refused) = h.join().unwrap();
            assert_eq!(refused, 1, "every worker ends on a clean refusal");
            total_completed += completed;
        }
        assert!(total_completed > 0, "some queries completed before the drain");
    }

    #[test]
    fn removed_documents_stop_serving() {
        let c = Catalog::new();
        c.insert("ms", two_hierarchies());
        assert!(c.xpath("ms", "/descendant::w").is_ok());
        assert!(c.remove("ms"));
        assert!(!c.remove("ms"));
        assert!(matches!(
            c.xpath("ms", "/descendant::w"),
            Err(EngineError::UnknownDocument { .. })
        ));
        assert!(c.is_empty());
    }
}
