//! Per-connection handles: [`Session`] pins a document id and carries its
//! own [`EvalOptions`]; [`Prepared`] is a compiled query handle reusable
//! across documents. Together they give a future network front end a
//! per-connection object to own: one session per client, prepared
//! statements shared through the catalog's plan cache.

use crate::engine::cache::CachedPlan;
use crate::engine::catalog::{Catalog, EvalTotals};
use crate::engine::error::{EngineError, QueryLang};
use crate::engine::result::QueryOutcome;
use mhx_xquery::{EvalOptions, EvalStats};

/// A compiled query handle from [`Catalog::prepare`]. Holds its plan
/// directly (an `Arc` into the shared cache's entry), so executing a
/// prepared query never re-parses — even if the cache entry is evicted.
#[derive(Debug, Clone)]
pub struct Prepared {
    src: String,
    plan: CachedPlan,
}

impl Prepared {
    pub(crate) fn new(src: String, plan: CachedPlan) -> Prepared {
        Prepared { src, plan }
    }

    pub fn lang(&self) -> QueryLang {
        self.plan.lang
    }

    /// The original query text.
    pub fn source(&self) -> &str {
        &self.src
    }

    pub(crate) fn plan(&self) -> &CachedPlan {
        &self.plan
    }
}

/// A per-connection handle pinned to one document of a [`Catalog`].
///
/// Sessions borrow the catalog (`&self` queries — many sessions run
/// concurrently on one catalog) and carry their own [`EvalOptions`], so
/// one client can e.g. switch `analyze-string` to XSLT semantics without
/// affecting anyone else.
///
/// ```
/// use multihier_xquery::prelude::*;
///
/// let catalog = Catalog::new();
/// catalog.insert(
///     "ms",
///     GoddagBuilder::new()
///         .hierarchy("lines", "<r><line>ab</line><line>cd</line></r>")
///         .hierarchy("words", "<r><w>a</w><w>bcd</w></r>")
///         .build()
///         .unwrap(),
/// );
///
/// let session = catalog.session("ms").unwrap();
/// assert_eq!(session.xquery("count(/descendant::w)").unwrap().serialize(), "2");
///
/// // Prepared statements compile once and run through any session.
/// let q = catalog.prepare(QueryLang::XPath, "/descendant::w[overlapping::line]").unwrap();
/// assert_eq!(session.run(&q).unwrap().nodes().unwrap().len(), 1);
/// ```
pub struct Session<'c> {
    catalog: &'c Catalog,
    doc: String,
    opts: EvalOptions,
    totals: EvalTotals,
}

impl<'c> Session<'c> {
    pub(crate) fn new(catalog: &'c Catalog, doc: String, opts: EvalOptions) -> Session<'c> {
        Session { catalog, doc, opts, totals: EvalTotals::default() }
    }

    /// The pinned document id.
    pub fn doc_id(&self) -> &str {
        &self.doc
    }

    /// The catalog this session serves from.
    pub fn catalog(&self) -> &'c Catalog {
        self.catalog
    }

    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// Builder-style options override (other sessions and the catalog
    /// defaults are unaffected).
    pub fn with_options(mut self, opts: EvalOptions) -> Session<'c> {
        self.opts = opts;
        self
    }

    /// This session's own evaluation counters (the per-connection view of
    /// [`Catalog::eval_stats`]): batched / rewritten steps from queries
    /// run *through this session* only. Serving front ends surface these
    /// per connection.
    pub fn eval_stats(&self) -> EvalStats {
        self.totals.snapshot()
    }

    /// Evaluate an XPath expression against the pinned document.
    pub fn xpath(&self, src: &str) -> Result<QueryOutcome, EngineError> {
        self.query(QueryLang::XPath, src)
    }

    /// Run an XQuery query against the pinned document with this session's
    /// options.
    pub fn xquery(&self, src: &str) -> Result<QueryOutcome, EngineError> {
        self.query(QueryLang::XQuery, src)
    }

    /// Language-dispatched entry point.
    pub fn query(&self, lang: QueryLang, src: &str) -> Result<QueryOutcome, EngineError> {
        let plan = self.catalog.plan_for(lang, src, Some(&self.doc))?;
        self.catalog.execute_with(&self.doc, &plan, &self.opts, Some(&self.totals))
    }

    /// Execute a prepared query against the pinned document with this
    /// session's options.
    pub fn run(&self, prepared: &Prepared) -> Result<QueryOutcome, EngineError> {
        self.catalog.execute_with(&self.doc, prepared.plan(), &self.opts, Some(&self.totals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhx_goddag::GoddagBuilder;
    use mhx_xquery::AnalyzeMode;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.insert(
            "ms",
            GoddagBuilder::new().hierarchy("words", "<r><w>unawendendne</w></r>").build().unwrap(),
        );
        c
    }

    #[test]
    fn session_options_are_per_connection() {
        let c = catalog();
        let paper = c.session("ms").unwrap();
        let xslt_opts = EvalOptions { analyze_mode: AnalyzeMode::Xslt, ..c.options().clone() };
        let xslt = c.session("ms").unwrap().with_options(xslt_opts);

        let q = "serialize(analyze-string((/descendant::w)[1], '.*unawe.*'))";
        // Paper-compat mode: shortest-match semantics tag just `unawe`.
        assert_eq!(paper.xquery(q).unwrap().serialize(), "<res><m>unawe</m>ndendne</res>");
        // XSLT mode on the *same catalog*: greedy match tags the whole word.
        assert_eq!(xslt.xquery(q).unwrap().serialize(), "<res><m>unawendendne</m></res>");
        // One compilation served both sessions.
        assert_eq!(c.cache_stats().misses, 1);
        assert_eq!(c.cache_stats().hits, 1);
    }

    #[test]
    fn prepared_survives_eviction() {
        let c = catalog();
        c.set_plan_cache_capacity(1);
        let q = c.prepare(QueryLang::XQuery, "count(/descendant::w)").unwrap();
        assert_eq!(q.lang(), QueryLang::XQuery);
        assert_eq!(q.source(), "count(/descendant::w)");
        // Evict the prepared plan's cache entry.
        c.xpath("ms", "/descendant::w").unwrap();
        assert_eq!(c.cache_stats().entries, 1);
        assert_eq!(c.cache_stats().evictions, 1);
        // The handle still executes without recompiling (misses unchanged).
        let misses_before = c.cache_stats().misses;
        assert_eq!(c.execute("ms", &q).unwrap().serialize(), "1");
        assert_eq!(c.cache_stats().misses, misses_before);
    }

    #[test]
    fn sessions_count_their_own_evaluations() {
        let c = Catalog::new();
        c.insert(
            "ms",
            GoddagBuilder::new()
                .hierarchy("lines", "<r><line>ab</line><line>cd</line></r>")
                .hierarchy("words", "<r><w>a</w><w>bcd</w></r>")
                .build()
                .unwrap(),
        );
        let busy = c.session("ms").unwrap();
        let idle = c.session("ms").unwrap();
        // Batched predicate-free steps through one session only.
        busy.xpath("/descendant::w").unwrap();
        busy.xquery("count(/descendant::line)").unwrap();
        let busy_stats = busy.eval_stats();
        assert!(busy_stats.batched_steps > 0, "{busy_stats:?}");
        assert_eq!(idle.eval_stats(), EvalStats::default(), "idle session saw nothing");
        // The catalog totals cover both sessions (here: just the busy one).
        assert!(c.eval_stats().batched_steps >= busy_stats.batched_steps);
    }

    #[test]
    fn session_requires_a_registered_document() {
        let c = catalog();
        assert!(matches!(c.session("nope"), Err(EngineError::UnknownDocument { .. })));
        assert_eq!(c.session("ms").unwrap().doc_id(), "ms");
    }
}
