//! The serving facade: a multi-document [`Catalog`] with one shared plan
//! cache, per-connection [`Session`]s, typed [`EngineError`]s, and the
//! unified [`QueryOutcome`] result type.
//!
//! The paper's engine queries *corpora* of concurrently-annotated
//! documents — electronic editions span many manuscripts — so the facade
//! is catalog-shaped:
//!
//! * [`Catalog`] maps document ids to independent documents (KyGODDAG +
//!   structural index). Queries take `&self`; per-document state sits
//!   behind `RwLock`s and the catalog is `Send + Sync`, so one catalog
//!   serves many threads.
//! * One LRU plan cache is **shared across all documents**: plans name
//!   axes, tests and strategies — never node ids — so
//!   `count(/descendant::w)` compiles once and serves every manuscript
//!   (see [`CacheStats::cross_doc_hits`]).
//! * [`Session`] pins a document id and carries per-connection
//!   [`EvalOptions`](mhx_xquery::EvalOptions); [`Prepared`] handles from
//!   [`Catalog::prepare`] skip even the cache lookup.
//! * Both languages return [`QueryOutcome`]; failures are typed
//!   [`EngineError`]s that keep the source stage (parse / compile / eval /
//!   unknown document) instead of flattening to a string.
//! * Evaluation under the facade is **batched**: cached plans feed whole
//!   intermediate node sets through `resolve_step_batch` (one index pass
//!   per predicate-free step), so wide results — the common shape for
//!   corpus-level extended-axis queries — cost one sort-dedup per step,
//!   not one per context node (see `BENCH_batch.json`).

pub mod cache;
pub mod catalog;
pub mod error;
pub mod result;
pub mod session;

pub use cache::CacheStats;
pub use catalog::{Catalog, Residency, StoreStats, DEFAULT_PLAN_CACHE_CAPACITY};
pub use error::{EngineError, QueryLang};
pub use mhx_xquery::EvalStats;
pub use result::{QueryOutcome, QueryValue};
pub use session::{Prepared, Session};

#[cfg(test)]
mod tests {
    use super::*;
    use mhx_goddag::{Goddag, GoddagBuilder};

    const DOC: &str = "ms";

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

    /// A one-document catalog — what the facade looks like for a single
    /// manuscript.
    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.insert(DOC, two_hierarchies());
        c
    }

    #[test]
    fn repeated_query_hits_plan_cache() {
        let e = catalog();
        let q = "for $l in /descendant::line[overlapping::w] return string($l)";
        let first = e.xquery(DOC, q).unwrap();
        assert_eq!(e.cache_stats().misses, 1);
        assert_eq!(e.cache_stats().hits, 0);
        for _ in 0..5 {
            assert_eq!(e.xquery(DOC, q).unwrap(), first);
        }
        let stats = e.cache_stats();
        assert_eq!(stats.misses, 1, "no re-parse after the first evaluation");
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn xpath_and_xquery_share_the_cache() {
        let e = catalog();
        let v = e.xpath(DOC, "/descendant::w[3]").unwrap();
        assert_eq!(v.nodes().unwrap().len(), 1);
        assert_eq!(v.serialize(), "<w>singallice</w>");
        e.xpath(DOC, "/descendant::w[3]").unwrap();
        e.xquery(DOC, "count(/descendant::w)").unwrap();
        let stats = e.cache_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn same_text_in_both_languages_does_not_collide() {
        let e = catalog();
        // Valid in both languages; the plans differ.
        let q = "count(/descendant::w)";
        assert_eq!(e.xquery(DOC, q).unwrap().serialize(), "6");
        assert_eq!(e.xpath(DOC, q).unwrap().num(), Some(6.0));
        assert_eq!(e.xquery(DOC, q).unwrap().serialize(), "6");
        assert_eq!(e.xpath(DOC, q).unwrap().num(), Some(6.0));
        let stats = e.cache_stats();
        assert_eq!(stats.entries, 2, "one entry per language");
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 2, "second round is all cache hits");
    }

    #[test]
    fn lru_evicts_oldest() {
        let e = catalog().with_plan_cache_capacity(2);
        e.xpath(DOC, "/descendant::w[1]").unwrap();
        e.xpath(DOC, "/descendant::w[2]").unwrap();
        // Touch the first so the second is now least recent.
        e.xpath(DOC, "/descendant::w[1]").unwrap();
        e.xpath(DOC, "/descendant::w[3]").unwrap();
        let stats = e.cache_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // The touched plan survived; the untouched one was evicted.
        e.xpath(DOC, "/descendant::w[1]").unwrap();
        assert_eq!(e.cache_stats().hits, 2);
        e.xpath(DOC, "/descendant::w[2]").unwrap();
        assert_eq!(e.cache_stats().misses, 4, "evicted plan re-compiles");
    }

    #[test]
    fn resizing_a_warm_cache_keeps_plans_and_stats() {
        // Resizing must not silently discard cached plans or counters.
        let e = catalog();
        e.xpath(DOC, "/descendant::w[1]").unwrap();
        e.xpath(DOC, "/descendant::w[2]").unwrap();
        e.xpath(DOC, "/descendant::w[1]").unwrap();
        assert_eq!(e.cache_stats().hits, 1);

        let e = e.with_plan_cache_capacity(1);
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1, "cumulative stats survive the resize");
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1, "kept up to the new capacity");
        assert_eq!(stats.evictions, 1, "the trimmed entry is an eviction");

        // The most recently used plan is the survivor.
        e.xpath(DOC, "/descendant::w[1]").unwrap();
        assert_eq!(e.cache_stats().hits, 2);
        assert_eq!(e.cache_stats().misses, 2);
    }

    #[test]
    fn analyze_string_queries_leave_engine_consistent() {
        let e = catalog();
        let q = "for $m in analyze-string(/, 'gallice') return string($m)";
        let out = e.xquery(DOC, q).unwrap();
        assert!(out.serialize().contains("gallice"), "match materialized: {out}");
        // Temporary hierarchies died with the evaluator: the catalog's own
        // goddag is untouched.
        assert_eq!(e.with_document(DOC, |g| g.hierarchy_count()).unwrap(), 2);
        assert_eq!(e.xquery(DOC, q).unwrap(), out);
    }

    #[test]
    fn add_hierarchy_keeps_plans_and_refreshes_index() {
        let e = catalog();
        let q = "/descendant::res";
        assert!(e.xpath(DOC, q).unwrap().nodes().unwrap().is_empty());
        e.add_hierarchy(
            DOC,
            "restorations",
            "<r><res>gesceaftum una</res>wendendne s<res>in</res><res>gallice sibbe gecyn</res>de þa</r>",
        )
        .unwrap();
        assert_eq!(e.xpath(DOC, q).unwrap().nodes().unwrap().len(), 3);
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1, "compiled plan survived the hierarchy mutation");
    }

    #[test]
    fn bad_queries_surface_typed_errors() {
        let e = catalog();
        assert!(matches!(
            e.xpath(DOC, "/descendant::"),
            Err(EngineError::Parse { lang: QueryLang::XPath, .. })
        ));
        assert!(matches!(
            e.xquery(DOC, "for $x in"),
            Err(EngineError::Parse { lang: QueryLang::XQuery, .. })
        ));
        assert!(matches!(
            e.xquery(DOC, "$undefined"),
            Err(EngineError::Compile { lang: QueryLang::XQuery, .. })
        ));
        assert!(matches!(
            e.xquery(DOC, "1 idiv 0"),
            Err(EngineError::Eval { lang: QueryLang::XQuery, .. })
        ));
        assert!(matches!(
            e.add_hierarchy(DOC, "words", "<r>nope</r>"),
            Err(EngineError::Document { .. })
        ));
    }
}
