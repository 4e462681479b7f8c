//! Structural axis indexes over a [`Goddag`].
//!
//! The naive evaluator in [`crate::axes`] answers every extended axis by
//! scanning `all_nodes()` — O(N) per step, O(N²) for a typical two-step
//! path. [`StructIndex`] precomputes three structures so each axis becomes
//! a binary search plus an output-proportional walk:
//!
//! * **name map** — element nodes grouped by name, in Definition-3 order,
//!   for `descendant::name` steps (the per-hierarchy pre/post numbering
//!   already stored on [`crate::hierarchy::ElemNode`] — `order` /
//!   `subtree_last` — makes the per-candidate descendant check O(1));
//! * **leaf-span interval arrays** — every non-empty-span node sorted by
//!   span start and by span end, for `xfollowing` / `xpreceding` /
//!   `following-overlapping` / `preceding-overlapping` / `overlapping` /
//!   `xdescendant`;
//! * **per-hierarchy containment chains** — element/text spans of one
//!   hierarchy form a laminar (nesting) family, so the nodes containing a
//!   given interval are one parent-chain walk from a binary-searched start,
//!   for `xancestor`.
//!
//! An index is a snapshot: it records [`Goddag::version`] at build time and
//! [`StructIndex::is_current`] reports staleness after virtual-hierarchy
//! insertion or removal (`analyze-string()`); callers rebuild lazily. The
//! naive scan stays in [`crate::axes`] as the reference oracle — the
//! differential property suite asserts both agree on every axis.
//!
//! Each extended axis has **one window scan**, [`StructIndex::scan`]: a
//! binary-searched window of one span array plus an O(1) test per entry
//! (for `xancestor`, one chain walk per hierarchy), visiting nodes until
//! the visitor stops. The rest is built on it:
//!
//! * [`StructIndex::axis_exists`] is the scan stopped at the first
//!   accepted node: the probe for boolean axis predicates, which
//!   allocates nothing;
//! * [`StructIndex::axis_nodes_batch`] answers a whole context set in
//!   Definition-3 order, by one scan per context into one buffer and one
//!   sort. It keeps two kinds of path that beat that on real inputs:
//!   `xfollowing`/`xpreceding`, for any number of contexts, are one
//!   min/max reduction over the context spans and one filter of the
//!   Definition-3-ordered array, with no sort; and over a set of contexts
//!   whose windows overlap, `xdescendant` and the overlap axes are one
//!   sweep of the set's global window (a two-witness merge, resp. an O(1)
//!   range-max/min query per candidate). The choice compares window sizes
//!   the binary searches yield anyway;
//! * [`StructIndex::axis_nodes`] — one context — is a batch of one.
//!
//! The name map answers `descendant::name` for a context set
//! ([`StructIndex::elements_named_batch`]) and the two-step
//! `descendant::a/descendant::b` ([`StructIndex::descendant_chain_batch`])
//! from the preorder intervals the contexts reach, per hierarchy.

use crate::axes::{axis_nodes, Axis};
use crate::goddag::Goddag;
use crate::node::NodeId;
use std::collections::HashMap;
use std::ops::ControlFlow;

/// One non-empty node span. `start`/`end` are byte offsets into `S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanEntry {
    pub(crate) start: u32,
    pub(crate) end: u32,
    pub(crate) node: NodeId,
}

/// One node in a hierarchy's laminar containment chain. `parent` indexes
/// into the same array (`u32::MAX` for top-level nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChainEntry {
    pub(crate) start: u32,
    pub(crate) end: u32,
    pub(crate) node: NodeId,
    pub(crate) parent: u32,
}

pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Document statistics computed once at [`StructIndex::build`] time — the
/// selectivity side-channel for the plan optimizer's cost model. Everything
/// here falls out of structures the build pass already touches (name runs,
/// the span array, the containment chains), so the marginal build cost is
/// one extra counter per node.
#[derive(Debug, Clone, Default)]
pub struct IndexStats {
    /// Named element entries (including the root).
    pub(crate) element_count: u64,
    /// Non-empty-span nodes (the `ordered` array length).
    pub(crate) span_count: u64,
    /// Document text length in bytes (the root span).
    pub(crate) text_len: u64,
    /// Average direct fan-out of the laminar containment chains.
    pub(crate) avg_fanout: f64,
    /// Per name: occurrence count and total span bytes.
    pub(crate) names: HashMap<String, (u32, u64)>,
}

impl IndexStats {
    /// Total named element entries (the name-map size).
    pub fn element_count(&self) -> u64 {
        self.element_count
    }

    /// Non-empty-span nodes — the length every span-array sweep is
    /// proportional to.
    pub fn span_count(&self) -> u64 {
        self.span_count
    }

    /// Spans per text byte: how densely the hierarchies tile the document.
    pub fn span_density(&self) -> f64 {
        self.span_count as f64 / (self.text_len.max(1)) as f64
    }

    /// Average direct fan-out across the containment chains.
    pub fn avg_fanout(&self) -> f64 {
        self.avg_fanout
    }

    /// How many elements carry `name` (the name-run length). Zero for
    /// unknown names — which makes a name-test step provably empty.
    pub fn name_count(&self, name: &str) -> u64 {
        self.names.get(name).map(|&(c, _)| c as u64).unwrap_or(0)
    }

    /// Fraction of named elements carrying `name` (0 for unknown names).
    pub fn selectivity(&self, name: &str) -> f64 {
        self.name_count(name) as f64 / (self.element_count.max(1)) as f64
    }

    /// Average span length (≈ subtree text size) of elements named `name`
    /// — the cost driver for string-materializing predicates.
    pub fn avg_span_len(&self, name: &str) -> f64 {
        match self.names.get(name) {
            Some(&(c, bytes)) if c > 0 => bytes as f64 / c as f64,
            _ => 0.0,
        }
    }
}

/// Precomputed structural indexes for one [`Goddag`] snapshot.
#[derive(Debug, Clone)]
pub struct StructIndex {
    pub(crate) version: u64,
    pub(crate) doc_id: u64,
    /// Element nodes (including the root) by name, Definition-3 order.
    pub(crate) name_map: HashMap<String, Vec<NodeId>>,
    /// All non-empty-span nodes in Definition-3 order with precomputed
    /// spans — the low-selectivity axes (`xfollowing`/`xpreceding`) filter
    /// this directly, producing sorted output with no re-sort and no
    /// per-node span recomputation.
    pub(crate) ordered: Vec<SpanEntry>,
    /// The same entries sorted by `(start, end)`; ties keep Definition-3
    /// order (stable sort over `all_nodes()`).
    pub(crate) by_start: Vec<SpanEntry>,
    /// The same entries sorted by `(end, start)`.
    pub(crate) by_end: Vec<SpanEntry>,
    /// Laminar containment chain per hierarchy, in span preorder
    /// (start asc, end desc, node order asc).
    pub(crate) chains: Vec<Vec<ChainEntry>>,
    /// Selectivity statistics for the optimizer's cost model.
    pub(crate) stats: IndexStats,
}

impl StructIndex {
    /// Build every index structure in one `all_nodes()` pass plus sorts:
    /// O(N log N) total.
    pub fn build(g: &Goddag) -> StructIndex {
        let all = g.all_nodes();
        // Per name borrowed from `g`: its nodes and their total span bytes.
        // The owned maps below then allocate per distinct name, not per
        // element.
        let mut by_name: HashMap<&str, (Vec<NodeId>, u64)> = HashMap::new();
        let mut ordered = Vec::with_capacity(all.len());
        for &n in &all {
            let (s, e) = g.span(n);
            if n.is_element() {
                if let Some(name) = g.name(n) {
                    let slot = by_name.entry(name).or_default();
                    slot.0.push(n);
                    slot.1 += (e.saturating_sub(s)) as u64;
                }
            }
            if s < e {
                ordered.push(SpanEntry { start: s, end: e, node: n });
            }
        }
        let mut name_map = HashMap::with_capacity(by_name.len());
        let mut names = HashMap::with_capacity(by_name.len());
        for (name, (nodes, bytes)) in by_name {
            names.insert(name.to_string(), (nodes.len() as u32, bytes));
            name_map.insert(name.to_string(), nodes);
        }
        let mut by_start = ordered.clone();
        by_start.sort_by_key(|e| (e.start, e.end));
        let mut by_end = by_start.clone();
        by_end.sort_by_key(|e| (e.end, e.start));

        let mut chains = Vec::with_capacity(g.hierarchy_count());
        for (h, hier) in g.hierarchies() {
            let mut nodes: Vec<(u32, u32, u32, NodeId)> = Vec::new();
            for i in 0..hier.element_count() as u32 {
                let e = hier.elem(i);
                if e.span.0 < e.span.1 {
                    nodes.push((e.span.0, e.span.1, e.order, NodeId::Elem { h, i }));
                }
            }
            for i in 0..hier.text_count() as u32 {
                let t = hier.text(i);
                if t.span.0 < t.span.1 {
                    nodes.push((t.span.0, t.span.1, t.order, NodeId::Text { h, i }));
                }
            }
            // Span preorder: parents sort before children even on equal
            // spans because DOM preorder breaks the tie.
            nodes.sort_by_key(|&(s, e, order, _)| (s, std::cmp::Reverse(e), order));
            let mut chain: Vec<ChainEntry> = Vec::with_capacity(nodes.len());
            let mut stack: Vec<u32> = Vec::new();
            for (s, e, _, node) in nodes {
                while let Some(&top) = stack.last() {
                    if chain[top as usize].end < e {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                let parent = stack.last().copied().unwrap_or(NO_PARENT);
                stack.push(chain.len() as u32);
                chain.push(ChainEntry { start: s, end: e, node, parent });
            }
            chains.push(chain);
        }

        let child_links: usize =
            chains.iter().map(|c| c.iter().filter(|e| e.parent != NO_PARENT).count()).sum();
        let chain_len: usize = chains.iter().map(Vec::len).sum();
        let stats = IndexStats {
            element_count: name_map.values().map(|v| v.len() as u64).sum(),
            span_count: ordered.len() as u64,
            text_len: g.span(NodeId::Root).1 as u64,
            avg_fanout: child_links as f64 / chain_len.max(1) as f64,
            names,
        };

        StructIndex {
            version: g.version(),
            doc_id: g.doc_id(),
            name_map,
            ordered,
            by_start,
            by_end,
            chains,
            stats,
        }
    }

    /// Document statistics computed at build time (name frequencies, span
    /// densities, chain fan-out) — the optimizer's selectivity source.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// The [`Goddag::version`] this index was built against.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Does this index still describe `g`? False after any hierarchy
    /// install/removal since [`StructIndex::build`], and always false for
    /// a different document (clones share identity; independently built
    /// goddags never do, even with identical content).
    pub fn is_current(&self, g: &Goddag) -> bool {
        self.doc_id == g.doc_id() && self.version == g.version()
    }

    /// Element nodes named `name` (including the root if it matches), in
    /// Definition-3 order.
    pub fn elements_named(&self, name: &str) -> &[NodeId] {
        self.name_map.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Evaluate `axis` from `n` through the index: a batch of one context
    /// ([`StructIndex::axis_nodes_batch`]). Results match
    /// [`crate::axes::axis_nodes`] exactly (same order, same exclusions).
    pub fn axis_nodes(&self, g: &Goddag, axis: Axis, n: NodeId) -> Vec<NodeId> {
        self.axis_nodes_batch(g, axis, &[n], |_| true)
    }

    /// First-witness existential probe: does `axis` from `n` hold a node
    /// accepted by `keep`? The scan stopped at the first such node — the
    /// evaluation shape of boolean axis predicates (`//a[xfollowing::b]`
    /// asks *whether* a witness exists, never *which*).
    pub fn axis_exists(
        &self,
        g: &Goddag,
        axis: Axis,
        n: NodeId,
        keep: impl Fn(NodeId) -> bool,
    ) -> bool {
        let mut first =
            |m| if keep(m) { ControlFlow::Break(()) } else { ControlFlow::Continue(()) };
        self.scan(g, axis, n, &mut first).is_break()
    }

    /// Visit the nodes on `axis` from `n`, each once and in window order
    /// (not Definition-3 order), until `visit` breaks. This is the one
    /// place each extended axis's window logic lives: a binary-searched
    /// window of one span array plus an O(1) test per entry, or, for
    /// `xancestor`, one containment-chain walk per hierarchy. Standard axes
    /// visit the tree walk, which is already output-local. Generic over
    /// `visit`, so a probe neither boxes nor allocates.
    pub fn scan(
        &self,
        g: &Goddag,
        axis: Axis,
        n: NodeId,
        visit: &mut impl FnMut(NodeId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if !axis.is_extended() {
            return axis_nodes(g, axis, n).into_iter().try_for_each(visit);
        }
        let Some(ctx @ (a, b, _)) = ctx_span(g, n) else { return ControlFlow::Continue(()) };
        match axis {
            Axis::Overlapping => {
                let (p, f) = (Axis::PrecedingOverlapping, Axis::FollowingOverlapping);
                scan_window(g, p, self.window(p, a, b), ctx, visit)?;
                scan_window(g, f, self.window(f, a, b), ctx, visit)
            }
            Axis::XAncestor => {
                // Excluding `n` and its DOM descendants.
                let mut hit = |m: NodeId| {
                    if m != n && !g.is_descendant(m, n) {
                        visit(m)
                    } else {
                        ControlFlow::Continue(())
                    }
                };
                hit(NodeId::Root)?;
                // Leaves are disjoint, so only the leaf containing `a` can
                // cover the whole span.
                let leaf = g.leaf_at(a);
                let (ls, le) = g.span(leaf);
                if ls <= a && b <= le {
                    hit(leaf)?;
                }
                for chain in &self.chains {
                    // Deepest candidate: the last chain node with start <= a.
                    // Every container of [a, b) in this hierarchy is on its
                    // parent chain (laminar family).
                    let idx = chain.partition_point(|e| e.start <= a);
                    if idx == 0 {
                        continue;
                    }
                    let mut cur = (idx - 1) as u32;
                    loop {
                        let e = chain[cur as usize];
                        if e.end >= b {
                            hit(e.node)?;
                        }
                        if e.parent == NO_PARENT {
                            break;
                        }
                        cur = e.parent;
                    }
                }
                ControlFlow::Continue(())
            }
            _ => scan_window(g, axis, self.window(axis, a, b), ctx, visit),
        }
    }

    /// The span-array window holding `axis`'s answers for the context span
    /// `[a, b)`, for the five axes with one window. With `a` the least
    /// start and `b` the greatest end of a context set, it is the set's
    /// global window.
    fn window(&self, axis: Axis, a: u32, b: u32) -> &[SpanEntry] {
        let (s, e) = (&self.by_start[..], &self.by_end[..]);
        match axis {
            // Starts at or after the span's end.
            Axis::XFollowing => &s[s.partition_point(|x| x.start < b)..],
            // Ends at or before its start.
            Axis::XPreceding => &e[..e.partition_point(|x| x.end <= a)],
            // Starts inside it; the scan's end test drops the overlap tail.
            Axis::XDescendant => {
                &s[s.partition_point(|x| x.start < a)..s.partition_point(|x| x.start < b)]
            }
            // Ends strictly inside it (c < a < d < b).
            Axis::PrecedingOverlapping => {
                &e[e.partition_point(|x| x.end <= a)..e.partition_point(|x| x.end < b)]
            }
            // Starts strictly inside it (a < c < b < d).
            Axis::FollowingOverlapping => {
                &s[s.partition_point(|x| x.start <= a)..s.partition_point(|x| x.start < b)]
            }
            _ => unreachable!("{} has no single window", axis.name()),
        }
    }

    /// Evaluate `axis` for a whole context set: the union of its answers
    /// over `ctxs` that `keep` accepts, in Definition-3 order,
    /// deduplicated. `ctxs` should be in document order without
    /// duplicates (the per-step invariant of the evaluators); the answer
    /// is the same for any order.
    ///
    /// The path is picked from window sizes the binary searches yield:
    /// * `xfollowing`/`xpreceding`, for one context or many — the union
    ///   is the axis of the earliest-ending (latest-starting) context, so
    ///   one min (max) over the context spans and one filter of the
    ///   Definition-3-ordered span array answer it, already sorted;
    /// * `xdescendant` and the two halves of `overlapping` over several
    ///   contexts whose windows overlap, i.e. whose global window is no
    ///   longer than their windows summed — one sweep of the global
    ///   window: a merge against the start-sorted context spans with two
    ///   containment witnesses for `xdescendant`, an O(1) range-max/min
    ///   query (`Rmq`) over the context spans per candidate for the
    ///   overlap axes;
    /// * everything else, one context included — one
    ///   [`StructIndex::scan`] per context into one buffer, each context's
    ///   run sorted as it lands, so the final sort-dedup is a merge.
    pub fn axis_nodes_batch(
        &self,
        g: &Goddag,
        axis: Axis,
        ctxs: &[NodeId],
        keep: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let spans = || ctxs.iter().filter_map(|&n| ctx_span(g, n));
        let ordered = self.ordered.iter();
        match axis {
            Axis::XFollowing => {
                let Some(min_end) = spans().map(|s| s.1).min() else { return Vec::new() };
                return ordered
                    .filter(|e| e.start >= min_end)
                    .map(|e| e.node)
                    .filter(|&m| keep(m))
                    .collect();
            }
            Axis::XPreceding => {
                let Some(max_start) = spans().map(|s| s.0).max() else { return Vec::new() };
                return ordered
                    .filter(|e| e.end <= max_start)
                    .map(|e| e.node)
                    .filter(|&m| keep(m))
                    .collect();
            }
            _ => {}
        }
        let mut out = Vec::new();
        match axis {
            // A node can precede-overlap one context and follow-overlap
            // another; the dedup below merges the halves.
            Axis::Overlapping => {
                self.gather(g, Axis::PrecedingOverlapping, ctxs, &keep, &mut out);
                self.gather(g, Axis::FollowingOverlapping, ctxs, &keep, &mut out);
            }
            _ => self.gather(g, axis, ctxs, &keep, &mut out),
        }
        g.sort_nodes(&mut out);
        out.dedup();
        out
    }

    /// Push `axis`'s answers from every context that `keep` accepts onto
    /// `out`, possibly repeated: one sweep of the global window where
    /// [`StructIndex::axis_nodes_batch`] says so, else one scan per context,
    /// each context's run sorted.
    fn gather(
        &self,
        g: &Goddag,
        axis: Axis,
        ctxs: &[NodeId],
        keep: &impl Fn(NodeId) -> bool,
        out: &mut Vec<NodeId>,
    ) {
        let sweeps = matches!(
            axis,
            Axis::XDescendant | Axis::PrecedingOverlapping | Axis::FollowingOverlapping
        );
        if sweeps && ctxs.len() > 1 {
            let mut spans: Vec<Ctx> = ctxs.iter().filter_map(|&n| ctx_span(g, n)).collect();
            spans.sort_unstable_by_key(|&(a, b, _)| (a, b));
            let Some(max_b) = spans.iter().map(|s| s.1).max() else { return };
            let global = self.window(axis, spans[0].0, max_b);
            let windows: Vec<&[SpanEntry]> =
                spans.iter().map(|&(a, b, _)| self.window(axis, a, b)).collect();
            if global.len() <= windows.iter().map(|w| w.len()).sum() {
                match axis {
                    Axis::XDescendant => xdescendant_sweep(g, &spans, global, keep, out),
                    Axis::PrecedingOverlapping => {
                        preceding_overlapping_sweep(&spans, global, keep, out)
                    }
                    _ => following_overlapping_sweep(&spans, global, keep, out),
                }
            } else {
                for (&ctx, window) in spans.iter().zip(windows) {
                    let run = out.len();
                    let _ = scan_window(g, axis, window, ctx, &mut pushing(keep, out));
                    g.sort_nodes(&mut out[run..]);
                }
            }
            return;
        }
        for &n in ctxs {
            let run = out.len();
            let _ = self.scan(g, axis, n, &mut pushing(keep, out));
            // Sorted runs leave the final sort a merge.
            g.sort_nodes(&mut out[run..]);
        }
    }

    /// Containment-chain join: elements named `inner` that are DOM
    /// descendants of at least one element named `outer` that is itself a
    /// DOM descendant of some context node — `descendant::outer/
    /// descendant::inner` as one merge join over the preorder-numbered name
    /// runs, instead of materializing the intermediate `outer` node set and
    /// re-deriving its intervals step-at-a-time. The outer pass coalesces
    /// nested `outer` occurrences on the fly (a name run ascends in
    /// preorder per hierarchy, so a nested occurrence lands inside the
    /// interval just emitted), and the inner pass advances one run pointer
    /// per hierarchy linearly instead of binary-searching per candidate.
    /// Matches `elements_named_batch(inner, elements_named_batch(outer,
    /// ctxs))` exactly, Definition-3 order included.
    pub fn descendant_chain_batch(
        &self,
        g: &Goddag,
        outer: &str,
        inner: &str,
        ctxs: &[NodeId],
    ) -> Vec<NodeId> {
        let inner_entries = self.elements_named(inner);
        let outer_entries = self.elements_named(outer);
        if inner_entries.is_empty() || outer_entries.is_empty() || ctxs.is_empty() {
            return Vec::new();
        }
        let reach = reach(g, ctxs, false);
        // Outer pass: descendant intervals of the in-context `outer`
        // elements, coalesced per hierarchy as they stream by in preorder
        // (`build` writes name runs in Definition-3 order, and
        // `columns::assemble` refuses a snapshot whose runs are not).
        let mut outer_runs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.hierarchy_count()];
        for &m in outer_entries {
            let NodeId::Elem { h, i } = m else { continue };
            let e = g.hierarchy(h).elem(i);
            let in_ctx = reach.as_ref().is_none_or(|runs| in_runs(&runs[h.index()], e.order));
            if !in_ctx || e.order >= e.subtree_last {
                continue; // out of reach, or no descendants
            }
            let runs = &mut outer_runs[h.index()];
            match runs.last_mut() {
                // A nested occurrence is absorbed by the covering interval.
                Some(last) if e.order <= last.1 => last.1 = last.1.max(e.subtree_last),
                _ => runs.push((e.order + 1, e.subtree_last)),
            }
        }
        // Inner pass: one linear merge per hierarchy — name run and
        // interval list both ascend, so a single advancing pointer replaces
        // a binary search per candidate. Output inherits the name run's
        // Definition-3 order; no sort, no dedup.
        let mut cursors = vec![0usize; outer_runs.len()];
        let mut out = Vec::new();
        for &m in inner_entries {
            let NodeId::Elem { h, i } = m else { continue };
            let runs = &outer_runs[h.index()];
            if runs.is_empty() {
                continue;
            }
            let o = g.hierarchy(h).elem(i).order;
            let cur = &mut cursors[h.index()];
            while *cur < runs.len() && runs[*cur].1 < o {
                *cur += 1;
            }
            if *cur < runs.len() && runs[*cur].0 <= o {
                out.push(m);
            }
        }
        out
    }

    /// Batch form of the `descendant::name` lookup: the name-map entries
    /// that are DOM descendants of (or, with `or_self`, equal to) at least
    /// one context node, in Definition-3 order. One pass over the name run
    /// against the preorder intervals the contexts reach.
    pub fn elements_named_batch(
        &self,
        g: &Goddag,
        name: &str,
        ctxs: &[NodeId],
        or_self: bool,
    ) -> Vec<NodeId> {
        let entries = self.elements_named(name);
        if entries.is_empty() {
            return Vec::new();
        }
        let Some(reach) = reach(g, ctxs, or_self) else {
            // The root reaches every element; only itself needs `or_self`.
            return entries.iter().copied().filter(|&m| or_self || !m.is_root()).collect();
        };
        entries
            .iter()
            .copied()
            .filter(|&m| match m {
                NodeId::Elem { h, i } => in_runs(&reach[h.index()], g.hierarchy(h).elem(i).order),
                _ => false,
            })
            .collect()
    }
}

/// A scan visitor that pushes the nodes `keep` accepts onto `out`.
fn pushing<'a>(
    keep: &'a impl Fn(NodeId) -> bool,
    out: &'a mut Vec<NodeId>,
) -> impl FnMut(NodeId) -> ControlFlow<()> + 'a {
    move |m| {
        if keep(m) {
            out.push(m);
        }
        ControlFlow::Continue(())
    }
}

/// A context of an extended-axis scan: its non-empty span and the node.
type Ctx = (u32, u32, NodeId);

/// `n`'s span if it is non-empty: an empty span takes part in no extended
/// axis (the same rule as the naive path).
fn ctx_span(g: &Goddag, n: NodeId) -> Option<Ctx> {
    let (a, b) = g.span(n);
    (a < b).then_some((a, b, n))
}

/// The nodes of `window`, the span-array window of a one-window `axis` for
/// `ctx`, that are on that axis: the per-entry half of
/// [`StructIndex::scan`].
fn scan_window(
    g: &Goddag,
    axis: Axis,
    window: &[SpanEntry],
    (a, b, n): Ctx,
    visit: &mut impl FnMut(NodeId) -> ControlFlow<()>,
) -> ControlFlow<()> {
    match axis {
        Axis::XFollowing => window.iter().try_for_each(|e| visit(e.node)),
        // Backward: witnesses cluster just before the span.
        Axis::XPreceding => window.iter().rev().try_for_each(|e| visit(e.node)),
        // The window holds the spans starting inside `[a, b)`; keep those
        // ending inside it too, excluding `n` and its DOM ancestors.
        Axis::XDescendant => window
            .iter()
            .filter(|e| e.end <= b && e.node != n && !g.is_descendant(n, e.node))
            .try_for_each(|e| visit(e.node)),
        // The overlap windows hold the spans with one end strictly inside
        // `[a, b)`; keep those whose other end lies outside.
        Axis::PrecedingOverlapping => {
            window.iter().filter(|e| e.start < a).try_for_each(|e| visit(e.node))
        }
        Axis::FollowingOverlapping => {
            window.iter().filter(|e| e.end > b).try_for_each(|e| visit(e.node))
        }
        _ => unreachable!("{} has no single window", axis.name()),
    }
}

/// The wide `xdescendant` sweep: one pass of the global window against the
/// start-sorted context spans. A candidate is contained by *some* context
/// iff it is contained by the maximal-ending context whose span starts at
/// or before the candidate's; a second witness covers the case where the
/// first is excluded for this candidate (the candidate is the witness
/// itself or one of its DOM ancestors), and only a double exclusion falls
/// back to scanning the context set.
fn xdescendant_sweep(
    g: &Goddag,
    spans: &[Ctx],
    window: &[SpanEntry],
    keep: &impl Fn(NodeId) -> bool,
    out: &mut Vec<NodeId>,
) {
    let contains = |&(a, b, n): &Ctx, e: &SpanEntry| {
        a <= e.start && e.end <= b && e.node != n && !g.is_descendant(n, e.node)
    };
    let mut j = 0;
    // Top two contexts by end among those starting at or before the
    // candidate; distinct nodes when the contexts are.
    let mut w1: Option<(u32, NodeId)> = None;
    let mut w2: Option<(u32, NodeId)> = None;
    for e in window {
        while j < spans.len() && spans[j].0 <= e.start {
            let cand = (spans[j].1, spans[j].2);
            match w1 {
                None => w1 = Some(cand),
                Some(best) if cand.0 > best.0 => {
                    w2 = Some(best);
                    w1 = Some(cand);
                }
                Some(_) => {
                    if w2.is_none_or(|second| cand.0 > second.0) {
                        w2 = Some(cand);
                    }
                }
            }
            j += 1;
        }
        let Some((end1, node1)) = w1 else { continue };
        if e.end > end1 {
            continue; // not contained by any context
        }
        let m = e.node;
        let included = if m != node1 && !g.is_descendant(node1, m) {
            true
        } else {
            match w2 {
                Some((end2, node2)) if e.end <= end2 && m != node2 => {
                    !g.is_descendant(node2, m) || spans.iter().any(|s| contains(s, e))
                }
                Some((end2, _)) if e.end <= end2 => spans.iter().any(|s| contains(s, e)),
                // Only the first witness contains this candidate, and it
                // is excluded.
                _ => false,
            }
        };
        if included && keep(m) {
            out.push(m);
        }
    }
}

/// The wide `preceding-overlapping` sweep: candidate `[c, d)` qualifies
/// iff some context `[a, b)` has `c < a < d < b`, i.e. among the contexts
/// starting inside `(c, d)` the greatest end exceeds `d` — an O(1)
/// range-max query over the start-sorted context spans.
fn preceding_overlapping_sweep(
    spans: &[Ctx],
    window: &[SpanEntry],
    keep: &impl Fn(NodeId) -> bool,
    out: &mut Vec<NodeId>,
) {
    let starts: Vec<u32> = spans.iter().map(|s| s.0).collect();
    let rmq = Rmq::max_over(spans.iter().map(|s| s.1).collect());
    let hit = |e: &&SpanEntry| {
        let l = starts.partition_point(|&a| a <= e.start);
        let r = starts.partition_point(|&a| a < e.end);
        l < r && rmq.query(l, r) > e.end
    };
    out.extend(window.iter().filter(hit).map(|e| e.node).filter(|&m| keep(m)));
}

/// The wide `following-overlapping` sweep: candidate `[c, d)` qualifies
/// iff some context `[a, b)` has `a < c < b < d`, i.e. among the contexts
/// ending inside `(c, d)` the least start undercuts `c` — an O(1)
/// range-min query over the end-sorted context spans.
fn following_overlapping_sweep(
    spans: &[Ctx],
    window: &[SpanEntry],
    keep: &impl Fn(NodeId) -> bool,
    out: &mut Vec<NodeId>,
) {
    let mut by_end: Vec<(u32, u32)> = spans.iter().map(|&(a, b, _)| (b, a)).collect();
    by_end.sort_unstable();
    let ends: Vec<u32> = by_end.iter().map(|s| s.0).collect();
    let rmq = Rmq::min_over(by_end.iter().map(|s| s.1).collect());
    let hit = |e: &&SpanEntry| {
        let l = ends.partition_point(|&b| b <= e.start);
        let r = ends.partition_point(|&b| b < e.end);
        l < r && rmq.query(l, r) < e.start
    };
    out.extend(window.iter().filter(hit).map(|e| e.node).filter(|&m| keep(m)));
}

/// The preorder intervals the element contexts reach, per hierarchy,
/// sorted and coalesced: each contributes `order + 1 ..= subtree_last`
/// (from `order` with `or_self`). Text, leaf and attribute contexts reach
/// no element. `None` when a context is the root, which reaches every
/// element.
fn reach(g: &Goddag, ctxs: &[NodeId], or_self: bool) -> Option<Vec<Vec<(u32, u32)>>> {
    if ctxs.iter().any(|n| n.is_root()) {
        return None;
    }
    let mut reach: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.hierarchy_count()];
    for &n in ctxs {
        if let NodeId::Elem { h, i } = n {
            let e = g.hierarchy(h).elem(i);
            let lo = if or_self { e.order } else { e.order + 1 };
            if lo <= e.subtree_last {
                reach[h.index()].push((lo, e.subtree_last));
            }
        }
    }
    for runs in &mut reach {
        runs.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(runs.len());
        for &(lo, hi) in runs.iter() {
            match merged.last_mut() {
                Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        *runs = merged;
    }
    Some(reach)
}

/// Does a sorted, coalesced interval list contain `order`?
fn in_runs(runs: &[(u32, u32)], order: u32) -> bool {
    let idx = runs.partition_point(|&(lo, _)| lo <= order);
    idx > 0 && order <= runs[idx - 1].1
}

/// Sparse-table range max/min over a static `u32` array: O(n log n) build,
/// O(1) query. Sized by the context set of one batch call, so the build is
/// negligible next to the candidate sweep it serves.
struct Rmq {
    /// `rows[k][i]` aggregates `vals[i..i + 2^k]`.
    rows: Vec<Vec<u32>>,
    take_max: bool,
}

impl Rmq {
    fn max_over(vals: Vec<u32>) -> Rmq {
        Rmq::build(vals, true)
    }

    fn min_over(vals: Vec<u32>) -> Rmq {
        Rmq::build(vals, false)
    }

    fn build(vals: Vec<u32>, take_max: bool) -> Rmq {
        let n = vals.len();
        let mut rows = vec![vals];
        let mut w = 1;
        while 2 * w <= n {
            let prev = rows.last().expect("at least the base row");
            let row: Vec<u32> = (0..=n - 2 * w)
                .map(|i| {
                    let (x, y) = (prev[i], prev[i + w]);
                    if take_max {
                        x.max(y)
                    } else {
                        x.min(y)
                    }
                })
                .collect();
            rows.push(row);
            w *= 2;
        }
        Rmq { rows, take_max }
    }

    /// Aggregate over `vals[l..r)`; requires `l < r`.
    fn query(&self, l: usize, r: usize) -> u32 {
        debug_assert!(l < r && r <= self.rows[0].len());
        let k = (usize::BITS - 1 - (r - l).leading_zeros()) as usize;
        let (x, y) = (self.rows[k][l], self.rows[k][r - (1 << k)]);
        if self.take_max {
            x.max(y)
        } else {
            x.min(y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goddag::GoddagBuilder;
    use crate::hierarchy::FragmentSpec;

    fn figure1() -> Goddag {
        GoddagBuilder::new()
            .hierarchy(
                "lines",
                "<r><line>gesceaftum unawendendne sin</line><line>gallice sibbe gecynde þa</line></r>",
            )
            .hierarchy(
                "words",
                "<r><vline><w>gesceaftum</w> <w>unawendendne</w> </vline><vline><w>singallice</w> <w>sibbe</w> <w>gecynde</w> </vline><vline><w>þa</w></vline></r>",
            )
            .hierarchy(
                "restorations",
                "<r><res>gesceaftum una</res>wendendne s<res>in</res><res>gallice sibbe gecyn</res>de þa</r>",
            )
            .hierarchy(
                "damage",
                "<r>gesceaftum una<dmg>w</dmg>endendne singallice sibbe gecyn<dmg>de þa</dmg></r>",
            )
            .build()
            .unwrap()
    }

    const ALL_AXES: [Axis; 19] = [
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Parent,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
        Axis::Following,
        Axis::Preceding,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::SelfAxis,
        Axis::Attribute,
        Axis::XAncestor,
        Axis::XDescendant,
        Axis::XFollowing,
        Axis::XPreceding,
        Axis::PrecedingOverlapping,
        Axis::FollowingOverlapping,
        Axis::Overlapping,
    ];

    #[test]
    fn index_matches_scan_on_figure1() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        for &n in &g.all_nodes() {
            for axis in ALL_AXES {
                assert_eq!(
                    idx.axis_nodes(&g, axis, n),
                    axis_nodes(&g, axis, n),
                    "axis {} from {}",
                    axis.name(),
                    n
                );
            }
        }
    }

    #[test]
    fn name_map_in_document_order() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let ws = idx.elements_named("w");
        assert_eq!(ws.len(), 6);
        let texts: Vec<&str> = ws.iter().map(|&n| g.string_value(n)).collect();
        assert_eq!(
            texts,
            vec!["gesceaftum", "unawendendne", "singallice", "sibbe", "gecynde", "þa"]
        );
        assert_eq!(idx.elements_named("r"), &[NodeId::Root]);
        assert!(idx.elements_named("nope").is_empty());
    }

    #[test]
    fn staleness_on_virtual_hierarchy() {
        let mut g = figure1();
        let idx = StructIndex::build(&g);
        assert!(idx.is_current(&g));
        let frag = FragmentSpec::new("res", (11, 23)).child(FragmentSpec::new("m", (11, 16)));
        g.add_virtual_hierarchy("rest", &[frag]).unwrap();
        assert!(!idx.is_current(&g));
        let idx2 = StructIndex::build(&g);
        assert!(idx2.is_current(&g));
        // Rebuilt index agrees with the scan on the mutated goddag.
        for &n in &g.all_nodes() {
            for axis in ALL_AXES {
                assert_eq!(idx2.axis_nodes(&g, axis, n), axis_nodes(&g, axis, n));
            }
        }
        g.remove_last_hierarchy().unwrap();
        assert!(!idx2.is_current(&g));
    }

    #[test]
    fn foreign_index_never_current() {
        // Two identically built documents have identical content and equal
        // version counters, but distinct identities: an index for one must
        // not pass as current for the other.
        let g1 = GoddagBuilder::new().hierarchy("a", "<r>ab</r>").build().unwrap();
        let g2 = GoddagBuilder::new().hierarchy("a", "<r>ab</r>").build().unwrap();
        assert_eq!(g1.version(), g2.version());
        let idx1 = StructIndex::build(&g1);
        assert!(idx1.is_current(&g1));
        assert!(!idx1.is_current(&g2));
        // A clone is the same document: the index stays current until the
        // clone mutates.
        let mut clone = g1.clone();
        assert!(idx1.is_current(&clone));
        clone.add_virtual_hierarchy("rest", &[]).unwrap();
        assert!(!idx1.is_current(&clone));
    }

    /// The context sets the batch suites run over: every node on its own,
    /// every element, two pseudo-random subsets, every node, and none.
    fn context_sets(g: &Goddag) -> Vec<Vec<NodeId>> {
        let all = g.all_nodes();
        let mut sets: Vec<Vec<NodeId>> = all.iter().map(|&n| vec![n]).collect();
        sets.push(all.iter().copied().filter(|n| n.is_element()).collect());
        for seed in [0x9e37_79b9_u32, 0x85eb_ca6b] {
            let mut x = seed;
            let mut coin = || {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x & 1 == 1
            };
            sets.push(all.iter().copied().filter(|_| coin()).collect());
        }
        sets.push(all);
        sets.push(Vec::new());
        sets
    }

    /// The naive oracle over a context set: the sorted, deduplicated union
    /// of [`axis_nodes`] from each context, filtered by `keep`.
    fn naive_union(
        g: &Goddag,
        axis: Axis,
        ctxs: &[NodeId],
        keep: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let mut union: Vec<NodeId> =
            ctxs.iter().flat_map(|&n| axis_nodes(g, axis, n)).filter(|&m| keep(m)).collect();
        g.sort_nodes(&mut union);
        union.dedup();
        union
    }

    /// Elements named `name` that descend from some context, by the naive
    /// tree walk.
    fn naive_named(g: &Goddag, name: &str, ctxs: &[NodeId], or_self: bool) -> Vec<NodeId> {
        let axis = if or_self { Axis::DescendantOrSelf } else { Axis::Descendant };
        naive_union(g, axis, ctxs, |m| m.is_element() && g.name(m) == Some(name))
    }

    #[test]
    fn batch_matches_naive_union_on_figure1() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        for ctxs in context_sets(&g) {
            for axis in ALL_AXES {
                assert_eq!(
                    idx.axis_nodes_batch(&g, axis, &ctxs, |_| true),
                    naive_union(&g, axis, &ctxs, |_| true),
                    "axis {} over {:?}",
                    axis.name(),
                    ctxs
                );
            }
        }
    }

    #[test]
    fn batch_applies_filter_before_sort() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let lines: Vec<NodeId> = {
            let h = g.hierarchy_id("lines").unwrap();
            vec![NodeId::Elem { h, i: 0 }, NodeId::Elem { h, i: 1 }]
        };
        // "singallice" overlaps both lines — once in the union.
        for ctxs in [&lines[..1], &lines[..]] {
            let only_w =
                idx.axis_nodes_batch(&g, Axis::Overlapping, ctxs, |m| g.name(m) == Some("w"));
            assert_eq!(only_w.len(), 1);
            assert_eq!(g.string_value(only_w[0]), "singallice");
        }
    }

    #[test]
    fn named_batch_matches_naive_union() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        for name in ["w", "vline", "res", "dmg", "r", "nope"] {
            for or_self in [false, true] {
                for ctxs in context_sets(&g) {
                    assert_eq!(
                        idx.elements_named_batch(&g, name, &ctxs, or_self),
                        naive_named(&g, name, &ctxs, or_self),
                        "name {name}, or_self {or_self} over {ctxs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_visits_each_naive_answer_once() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        for &n in &g.all_nodes() {
            for axis in ALL_AXES {
                let mut seen = Vec::new();
                let _ = idx.scan(&g, axis, n, &mut |m| {
                    seen.push(m);
                    ControlFlow::Continue(())
                });
                let visits = seen.len();
                g.sort_nodes(&mut seen);
                seen.dedup();
                assert_eq!(seen.len(), visits, "axis {} from {n} repeats a node", axis.name());
                assert_eq!(seen, axis_nodes(&g, axis, n), "axis {} from {n}", axis.name());
            }
        }
    }

    #[test]
    fn axis_exists_matches_materialized_nonemptiness() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let names = ["w", "vline", "res", "dmg", "line", "r", "nope"];
        for &n in &g.all_nodes() {
            for axis in ALL_AXES {
                let naive = axis_nodes(&g, axis, n);
                // Unfiltered, name-filtered, and never-true probes.
                assert_eq!(
                    idx.axis_exists(&g, axis, n, |_| true),
                    !naive.is_empty(),
                    "axis {} from {}",
                    axis.name(),
                    n
                );
                for name in names {
                    let keep = |m: NodeId| g.name(m) == Some(name);
                    assert_eq!(
                        idx.axis_exists(&g, axis, n, keep),
                        naive.iter().any(|&m| keep(m)),
                        "axis {} from {} name {}",
                        axis.name(),
                        n,
                        name
                    );
                }
                assert!(!idx.axis_exists(&g, axis, n, |_| false));
            }
        }
    }

    #[test]
    fn chain_join_matches_sequential_scans() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let names = ["r", "vline", "w", "res", "dmg", "line", "nope"];
        let sets = context_sets(&g);
        for outer in names {
            for inner in names {
                for ctxs in &sets {
                    let seq = naive_named(&g, inner, &naive_named(&g, outer, ctxs, false), false);
                    let joined = idx.descendant_chain_batch(&g, outer, inner, ctxs);
                    assert_eq!(joined, seq, "{outer}//{inner} over {ctxs:?}");
                }
            }
        }
    }

    #[test]
    fn stats_reflect_the_corpus() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let stats = idx.stats();
        assert_eq!(stats.name_count("w"), 6);
        assert_eq!(stats.name_count("line"), 2);
        assert_eq!(stats.name_count("r"), 1);
        assert_eq!(stats.name_count("nope"), 0);
        assert!(stats.selectivity("w") > stats.selectivity("line"));
        assert_eq!(stats.selectivity("nope"), 0.0);
        // Lines are long, words are short.
        assert!(stats.avg_span_len("line") > stats.avg_span_len("w"));
        assert_eq!(stats.avg_span_len("nope"), 0.0);
        assert!(stats.element_count() >= 15);
        assert!(stats.span_count() > 0);
        assert!(stats.span_density() > 0.0);
        assert!(stats.avg_fanout() > 0.0);
    }

    #[test]
    fn rmq_agrees_with_scan() {
        let vals = vec![5u32, 1, 9, 3, 9, 0, 7, 2, 8];
        let max = Rmq::max_over(vals.clone());
        let min = Rmq::min_over(vals.clone());
        for l in 0..vals.len() {
            for r in l + 1..=vals.len() {
                assert_eq!(max.query(l, r), *vals[l..r].iter().max().unwrap());
                assert_eq!(min.query(l, r), *vals[l..r].iter().min().unwrap());
            }
        }
    }

    #[test]
    fn empty_span_context_has_no_extended_relations() {
        let g = GoddagBuilder::new()
            .hierarchy("a", "<r>ab<br/>cd</r>")
            .hierarchy("b", "<r><x>abcd</x></r>")
            .build()
            .unwrap();
        let idx = StructIndex::build(&g);
        let br = NodeId::Elem { h: g.hierarchy_id("a").unwrap(), i: 0 };
        for axis in [Axis::XAncestor, Axis::XDescendant, Axis::Overlapping] {
            assert!(idx.axis_nodes(&g, axis, br).is_empty());
        }
    }
}
