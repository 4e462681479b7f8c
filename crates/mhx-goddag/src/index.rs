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
//! Besides the per-node lookups there is a **batch layer**
//! ([`StructIndex::axis_nodes_batch`], [`StructIndex::elements_named_batch`])
//! that evaluates one axis for a whole document-ordered context set in a
//! single pass over the index structures — the set-at-a-time shape of
//! holistic/structural-join evaluation. Per context set, not per context
//! node: `xfollowing`/`xpreceding` collapse to one min/max reduction plus
//! one filter of the ordered array, `xdescendant` is a merge sweep of the
//! start-sorted spans against the sorted context spans, the overlap axes
//! answer each candidate with an O(1) range-min/max query over the context
//! spans, and `xancestor` shares one output buffer (and one final sort)
//! across all containment-chain walks.

use crate::axes::{axis_nodes, Axis};
use crate::goddag::Goddag;
use crate::node::{HierarchyId, NodeId};
use std::collections::HashMap;

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

    /// Evaluate `axis` from `n` through the index. Results match
    /// [`crate::axes::axis_nodes`] exactly (same order, same exclusions);
    /// standard axes delegate to the tree walk, which is already local.
    pub fn axis_nodes(&self, g: &Goddag, axis: Axis, n: NodeId) -> Vec<NodeId> {
        self.axis_nodes_filtered(g, axis, n, |_| true)
    }

    /// [`StructIndex::axis_nodes`] with a post-filter applied *before* the
    /// final Definition-3 sort, so name-selective steps avoid sorting
    /// non-matching candidates.
    pub fn axis_nodes_filtered(
        &self,
        g: &Goddag,
        axis: Axis,
        n: NodeId,
        keep: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        match axis {
            // Low selectivity: answered pre-sorted, no final sort needed.
            Axis::XFollowing => self.xfollowing(g, n, &keep),
            Axis::XPreceding => self.xpreceding(g, n, &keep),
            _ => {
                let mut out = self.axis_nodes_filtered_unsorted(g, axis, n, keep);
                g.sort_nodes(&mut out);
                out
            }
        }
    }

    /// [`StructIndex::axis_nodes_filtered`] without the per-node
    /// Definition-3 sort. For callers that union the candidate sets of many
    /// context nodes and sort once per *step* (the batched evaluators and
    /// the per-node fallback of predicate-free steps), sorting each context
    /// node's slice first is pure waste. Output order is unspecified,
    /// except that standard (tree-walk) axes and
    /// `xfollowing`/`xpreceding` happen to come back sorted already.
    pub fn axis_nodes_filtered_unsorted(
        &self,
        g: &Goddag,
        axis: Axis,
        n: NodeId,
        keep: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        match axis {
            Axis::XAncestor => self.xancestor(g, n, &keep),
            Axis::XDescendant => self.xdescendant(g, n, &keep),
            Axis::XFollowing => self.xfollowing(g, n, &keep),
            Axis::XPreceding => self.xpreceding(g, n, &keep),
            Axis::PrecedingOverlapping => self.preceding_overlapping(g, n, &keep),
            Axis::FollowingOverlapping => self.following_overlapping(g, n, &keep),
            Axis::Overlapping => {
                let mut v = self.preceding_overlapping(g, n, &keep);
                v.extend(self.following_overlapping(g, n, &keep));
                v
            }
            _ => axis_nodes(g, axis, n).into_iter().filter(|&m| keep(m)).collect(),
        }
    }

    /// First-witness existential probe: does `axis` from `n` contain at
    /// least one node accepted by `keep`? Equivalent to
    /// `!axis_nodes_filtered(g, axis, n, keep).is_empty()` but stops at the
    /// first witness instead of materializing the axis — the evaluation
    /// shape for boolean axis predicates (`//a[xfollowing::b]` asks
    /// *whether* a witness exists, never *which*), where the full per-node
    /// lookup is pure waste.
    pub fn axis_exists(
        &self,
        g: &Goddag,
        axis: Axis,
        n: NodeId,
        keep: impl Fn(NodeId) -> bool,
    ) -> bool {
        match axis {
            Axis::XFollowing => {
                let Some((_, b)) = self.ctx_span(g, n) else { return false };
                let lo = self.by_start.partition_point(|e| e.start < b);
                self.by_start[lo..].iter().any(|e| keep(e.node))
            }
            Axis::XPreceding => {
                let Some((a, _)) = self.ctx_span(g, n) else { return false };
                let hi = self.by_end.partition_point(|e| e.end <= a);
                // Backward: witnesses cluster just before the span.
                self.by_end[..hi].iter().rev().any(|e| keep(e.node))
            }
            Axis::XDescendant => {
                let Some((a, b)) = self.ctx_span(g, n) else { return false };
                let lo = self.by_start.partition_point(|e| e.start < a);
                let hi = self.by_start.partition_point(|e| e.start < b);
                self.by_start[lo..hi].iter().any(|e| {
                    e.end <= b && e.node != n && !g.is_descendant(n, e.node) && keep(e.node)
                })
            }
            Axis::XAncestor => {
                let Some((a, b)) = self.ctx_span(g, n) else { return false };
                let hit = |m: NodeId| m != n && !g.is_descendant(m, n) && keep(m);
                if hit(NodeId::Root) {
                    return true;
                }
                let leaf = g.leaf_at(a);
                let (ls, le) = g.span(leaf);
                if ls <= a && b <= le && hit(leaf) {
                    return true;
                }
                for chain in &self.chains {
                    let idx = chain.partition_point(|e| e.start <= a);
                    if idx == 0 {
                        continue;
                    }
                    let mut cur = (idx - 1) as u32;
                    loop {
                        let e = chain[cur as usize];
                        if e.end >= b && hit(e.node) {
                            return true;
                        }
                        if e.parent == NO_PARENT {
                            break;
                        }
                        cur = e.parent;
                    }
                }
                false
            }
            Axis::PrecedingOverlapping => {
                let Some((a, b)) = self.ctx_span(g, n) else { return false };
                let lo = self.by_end.partition_point(|e| e.end <= a);
                let hi = self.by_end.partition_point(|e| e.end < b);
                self.by_end[lo..hi].iter().any(|e| e.start < a && keep(e.node))
            }
            Axis::FollowingOverlapping => {
                let Some((a, b)) = self.ctx_span(g, n) else { return false };
                let lo = self.by_start.partition_point(|e| e.start <= a);
                let hi = self.by_start.partition_point(|e| e.start < b);
                self.by_start[lo..hi].iter().any(|e| e.end > b && keep(e.node))
            }
            Axis::Overlapping => {
                let Some((a, b)) = self.ctx_span(g, n) else { return false };
                let plo = self.by_end.partition_point(|e| e.end <= a);
                let phi = self.by_end.partition_point(|e| e.end < b);
                if self.by_end[plo..phi].iter().any(|e| e.start < a && keep(e.node)) {
                    return true;
                }
                let flo = self.by_start.partition_point(|e| e.start <= a);
                let fhi = self.by_start.partition_point(|e| e.start < b);
                self.by_start[flo..fhi].iter().any(|e| e.end > b && keep(e.node))
            }
            // Standard axes: the tree walk is already output-local; just
            // stop at the first accepted node.
            _ => axis_nodes(g, axis, n).into_iter().any(keep),
        }
    }

    /// Containment-chain join: elements named `inner` that are DOM
    /// descendants of at least one element named `outer` that is itself a
    /// DOM descendant of some context node — `descendant::outer/
    /// descendant::inner` as one merge join over the preorder-numbered name
    /// runs, instead of materializing the intermediate `outer` node set and
    /// re-deriving its intervals step-at-a-time. The outer pass coalesces
    /// nested `outer` occurrences on the fly (the name runs ascend in
    /// preorder, so a nested occurrence lands inside the interval just
    /// emitted), and the inner pass advances one run pointer per hierarchy
    /// linearly instead of binary-searching per candidate. Matches
    /// `elements_named_batch(inner, elements_named_batch(outer, ctxs))`
    /// exactly, Definition-3 order included.
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
        // Context intervals per hierarchy (strict descendant); any root
        // context reaches every element. Hierarchy ids are small dense
        // indices, so flat per-hierarchy tables keep the per-entry loops
        // free of hashing.
        let nh = g.hierarchy_count();
        let root_ctx = ctxs.iter().any(|n| n.is_root());
        let mut ctx_runs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nh];
        if !root_ctx {
            let mut any_ctx = false;
            for &n in ctxs {
                if let NodeId::Elem { h, i } = n {
                    let e = g.hierarchy(h).elem(i);
                    if e.order < e.subtree_last {
                        ctx_runs[h.0 as usize].push((e.order + 1, e.subtree_last));
                        any_ctx = true;
                    }
                }
            }
            if !any_ctx {
                return Vec::new();
            }
            for runs in &mut ctx_runs {
                runs.sort_unstable();
                merge_runs(runs);
            }
        }
        // An outer entry in a hierarchy with no context interval falls out
        // of the binary search below (empty runs ⇒ idx == 0 ⇒ skip).
        let in_ctx = |runs: &[(u32, u32)], order: u32| -> bool {
            let idx = runs.partition_point(|&(lo, _)| lo <= order);
            idx > 0 && order <= runs[idx - 1].1
        };
        // Outer pass: descendant intervals of the in-context `outer`
        // elements, coalesced per hierarchy as they stream by in preorder.
        let mut outer_runs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nh];
        let mut preordered = true;
        let mut any_outer = false;
        for &m in outer_entries {
            let NodeId::Elem { h, i } = m else { continue };
            let e = g.hierarchy(h).elem(i);
            if !root_ctx && !in_ctx(&ctx_runs[h.0 as usize], e.order) {
                continue;
            }
            if e.order + 1 > e.subtree_last {
                continue; // no element descendants
            }
            let runs = &mut outer_runs[h.0 as usize];
            any_outer = true;
            match runs.last_mut() {
                Some(last) if e.order + 1 < last.0 => preordered = false,
                // A nested occurrence is absorbed by the covering interval.
                Some(last) if e.order <= last.1 => last.1 = last.1.max(e.subtree_last),
                _ => runs.push((e.order + 1, e.subtree_last)),
            }
        }
        if !preordered {
            // Name runs should ascend in preorder per hierarchy; if an
            // input ever violates that, rebuild the intervals the safe way.
            for runs in &mut outer_runs {
                runs.clear();
            }
            for &m in outer_entries {
                let NodeId::Elem { h, i } = m else { continue };
                let e = g.hierarchy(h).elem(i);
                if !root_ctx && !in_ctx(&ctx_runs[h.0 as usize], e.order) {
                    continue;
                }
                if e.order < e.subtree_last {
                    outer_runs[h.0 as usize].push((e.order + 1, e.subtree_last));
                }
            }
            for runs in &mut outer_runs {
                runs.sort_unstable();
                merge_runs(runs);
            }
        }
        if !any_outer {
            return Vec::new();
        }
        // Inner pass: one linear merge per hierarchy — name run and
        // interval list both ascend, so a single advancing pointer replaces
        // a binary search per candidate. Output inherits the name run's
        // Definition-3 order; no sort, no dedup.
        let mut cursors: Vec<(usize, u32)> = vec![(0, 0); nh];
        let mut out = Vec::new();
        for &m in inner_entries {
            let NodeId::Elem { h, i } = m else { continue };
            let runs = &outer_runs[h.0 as usize];
            if runs.is_empty() {
                continue;
            }
            let o = g.hierarchy(h).elem(i).order;
            let (cur, last_o) = &mut cursors[h.0 as usize];
            if o < *last_o {
                *cur = 0; // out-of-order input: restart the pointer
            }
            *last_o = o;
            while *cur < runs.len() && runs[*cur].1 < o {
                *cur += 1;
            }
            if *cur < runs.len() && runs[*cur].0 <= o {
                out.push(m);
            }
        }
        out
    }

    /// Evaluate `axis` for a whole context set in one pass: the union of
    /// [`StructIndex::axis_nodes_filtered`] over `ctxs`, in Definition-3
    /// order, deduplicated. `ctxs` should be in document order (the
    /// per-step invariant of the evaluators); the result is correct for any
    /// order, but the merge sweeps assume sorted *spans*, which this method
    /// derives itself.
    ///
    /// Where the win comes from, per axis:
    /// * `xfollowing`/`xpreceding` — the union over contexts collapses to a
    ///   single min (resp. max) reduction over the context spans and one
    ///   filter of the Definition-3-ordered span array: O(contexts + N)
    ///   instead of O(contexts × N), output already sorted;
    /// * `xdescendant` — one merge sweep of the start-sorted span array
    ///   against the start-sorted context spans, tracking the
    ///   maximal-ending context seen so far as a containment witness;
    /// * the overlap axes — one sweep of the relevant window answering each
    ///   candidate with an O(1) range-max/min query over the context spans;
    /// * `xancestor` — per-context containment-chain walks sharing one
    ///   output buffer, so the document-order sort-dedup happens once for
    ///   the whole context set instead of once per context node.
    pub fn axis_nodes_batch(
        &self,
        g: &Goddag,
        axis: Axis,
        ctxs: &[NodeId],
        keep: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        match axis {
            Axis::XAncestor
            | Axis::XDescendant
            | Axis::XFollowing
            | Axis::XPreceding
            | Axis::PrecedingOverlapping
            | Axis::FollowingOverlapping
            | Axis::Overlapping => {}
            // Standard axes are already output-local tree walks; batch them
            // as the per-node walk with one hoisted sort-dedup.
            _ => {
                let mut out: Vec<NodeId> = ctxs
                    .iter()
                    .flat_map(|&n| axis_nodes(g, axis, n))
                    .filter(|&m| keep(m))
                    .collect();
                g.sort_nodes(&mut out);
                out.dedup();
                return out;
            }
        }
        // Empty-span contexts take part in no extended axis (same rule as
        // the per-node path).
        let mut spans: Vec<(u32, u32, NodeId)> = ctxs
            .iter()
            .filter_map(|&n| {
                let (a, b) = g.span(n);
                (a < b).then_some((a, b, n))
            })
            .collect();
        if spans.is_empty() {
            return Vec::new();
        }
        spans.sort_unstable_by_key(|&(a, b, _)| (a, b));
        match axis {
            Axis::XFollowing => {
                // m ∈ xfollowing(n) ⇔ start(m) ≥ end(n); the union over the
                // context set is xfollowing of the earliest-ending context.
                let min_end = spans.iter().map(|s| s.1).min().expect("non-empty");
                self.ordered
                    .iter()
                    .filter(|e| e.start >= min_end)
                    .map(|e| e.node)
                    .filter(|&m| keep(m))
                    .collect()
            }
            Axis::XPreceding => {
                let max_start = spans.last().expect("non-empty").0;
                self.ordered
                    .iter()
                    .filter(|e| e.end <= max_start)
                    .map(|e| e.node)
                    .filter(|&m| keep(m))
                    .collect()
            }
            Axis::XDescendant => {
                let mut out = self.xdescendant_batch(g, &spans, &keep);
                g.sort_nodes(&mut out);
                out.dedup();
                out
            }
            Axis::XAncestor => {
                let mut out = self.xancestor_batch(g, &spans, &keep);
                g.sort_nodes(&mut out);
                out.dedup();
                out
            }
            Axis::PrecedingOverlapping => {
                let mut out = self.preceding_overlapping_batch(&spans, &keep);
                g.sort_nodes(&mut out);
                out.dedup();
                out
            }
            Axis::FollowingOverlapping => {
                let mut out = self.following_overlapping_batch(&spans, &keep);
                g.sort_nodes(&mut out);
                out.dedup();
                out
            }
            Axis::Overlapping => {
                // A node can precede-overlap one context and follow-overlap
                // another, so the union needs a dedup.
                let mut out = self.preceding_overlapping_batch(&spans, &keep);
                out.extend(self.following_overlapping_batch(&spans, &keep));
                g.sort_nodes(&mut out);
                out.dedup();
                out
            }
            _ => unreachable!("outer match restricts to extended axes"),
        }
    }

    /// Batch `xdescendant`. Two regimes, chosen by comparing the global
    /// candidate window against the summed per-context windows (both known
    /// from binary searches before any scanning):
    ///
    /// * **narrow contexts** (spans that tile the document, e.g. a
    ///   `//w/...` context set) — the per-context windows are tiny and
    ///   sum to less than the global window, so scan each into a shared
    ///   buffer (the caller sorts and dedups once);
    /// * **wide contexts** — one merge sweep of `by_start` against the
    ///   start-sorted context spans. A candidate is contained by *some*
    ///   context iff it is contained by the maximal-ending context whose
    ///   span starts at or before the candidate's; a second witness covers
    ///   the case where the first is excluded for this candidate (the
    ///   candidate is the witness itself or one of its DOM ancestors), and
    ///   only a double exclusion falls back to scanning the context set.
    fn xdescendant_batch(
        &self,
        g: &Goddag,
        spans: &[(u32, u32, NodeId)],
        keep: &impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let min_a = spans[0].0;
        let max_b = spans.iter().map(|s| s.1).max().expect("non-empty");
        let lo = self.by_start.partition_point(|e| e.start < min_a);
        let hi = self.by_start.partition_point(|e| e.start < max_b);
        let windows: Vec<(usize, usize)> = spans
            .iter()
            .map(|&(a, b, _)| {
                (
                    self.by_start.partition_point(|e| e.start < a),
                    self.by_start.partition_point(|e| e.start < b),
                )
            })
            .collect();
        let total: usize = windows.iter().map(|w| w.1 - w.0).sum();
        let mut out = Vec::new();
        if total < hi - lo {
            for (&(_, b, n), &(wlo, whi)) in spans.iter().zip(&windows) {
                for e in &self.by_start[wlo..whi] {
                    let m = e.node;
                    if e.end <= b && m != n && !g.is_descendant(n, m) && keep(m) {
                        out.push(m);
                    }
                }
            }
            return out;
        }
        let mut j = 0;
        // Top two contexts by end among those starting at or before the
        // candidate; distinct nodes by construction (contexts are deduped).
        let mut w1: Option<(u32, NodeId)> = None;
        let mut w2: Option<(u32, NodeId)> = None;
        for e in &self.by_start[lo..hi] {
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
                        !g.is_descendant(node2, m)
                            || spans.iter().any(|&(a, b, n)| {
                                a <= e.start && e.end <= b && m != n && !g.is_descendant(n, m)
                            })
                    }
                    Some((end2, _)) if e.end <= end2 => spans.iter().any(|&(a, b, n)| {
                        a <= e.start && e.end <= b && m != n && !g.is_descendant(n, m)
                    }),
                    // Only the first witness contains this candidate, and
                    // it is excluded.
                    _ => false,
                }
            };
            if included && keep(m) {
                out.push(m);
            }
        }
        out
    }

    /// Batch `xancestor`: root and covering-leaf checks per context plus
    /// one laminar chain walk per (hierarchy, context), all pushing into a
    /// shared buffer; the caller sorts and dedups once.
    fn xancestor_batch(
        &self,
        g: &Goddag,
        spans: &[(u32, u32, NodeId)],
        keep: &impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        // The root covers every span and is a DOM ancestor of nothing it
        // needs excluding — it is an xancestor of every non-root context.
        if spans.iter().any(|&(_, _, n)| n != NodeId::Root) && keep(NodeId::Root) {
            out.push(NodeId::Root);
        }
        for &(a, b, n) in spans {
            // Leaves are disjoint, so only the leaf containing `a` can
            // cover the whole context span.
            let leaf = g.leaf_at(a);
            let (ls, le) = g.span(leaf);
            if ls <= a && b <= le && leaf != n && !g.is_descendant(leaf, n) && keep(leaf) {
                out.push(leaf);
            }
        }
        for chain in &self.chains {
            for &(a, b, n) in spans {
                let idx = chain.partition_point(|e| e.start <= a);
                if idx == 0 {
                    continue;
                }
                let mut cur = (idx - 1) as u32;
                loop {
                    let e = chain[cur as usize];
                    if e.end >= b && e.node != n && !g.is_descendant(e.node, n) && keep(e.node) {
                        out.push(e.node);
                    }
                    if e.parent == NO_PARENT {
                        break;
                    }
                    cur = e.parent;
                }
            }
        }
        out
    }

    /// Batch `preceding-overlapping`: candidate `[c, d)` qualifies iff some
    /// context `[a, b)` has `c < a < d < b`. Two regimes, like
    /// [`StructIndex::xdescendant_batch`]: narrow contexts scan their own
    /// `by_end` windows into a shared buffer; wide contexts do one sweep of
    /// the global window, answering each candidate with an O(1) range-max
    /// query (among contexts starting inside `(c, d)`, does the maximal end
    /// exceed `d`?) over the start-sorted context spans.
    fn preceding_overlapping_batch(
        &self,
        spans: &[(u32, u32, NodeId)],
        keep: &impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let min_a = spans[0].0;
        let max_b = spans.iter().map(|s| s.1).max().expect("non-empty");
        let lo = self.by_end.partition_point(|e| e.end <= min_a);
        let hi = self.by_end.partition_point(|e| e.end < max_b);
        let windows: Vec<(usize, usize)> = spans
            .iter()
            .map(|&(a, b, _)| {
                (
                    self.by_end.partition_point(|e| e.end <= a),
                    self.by_end.partition_point(|e| e.end < b),
                )
            })
            .collect();
        let total: usize = windows.iter().map(|w| w.1 - w.0).sum();
        if total < hi - lo {
            let mut out = Vec::new();
            for (&(a, _, _), &(wlo, whi)) in spans.iter().zip(&windows) {
                for e in &self.by_end[wlo..whi] {
                    if e.start < a && keep(e.node) {
                        out.push(e.node);
                    }
                }
            }
            return out;
        }
        let starts: Vec<u32> = spans.iter().map(|s| s.0).collect();
        let rmq = Rmq::max_over(spans.iter().map(|s| s.1).collect());
        self.by_end[lo..hi]
            .iter()
            .filter(|e| {
                let l = starts.partition_point(|&a| a <= e.start);
                let r = starts.partition_point(|&a| a < e.end);
                l < r && rmq.query(l, r) > e.end
            })
            .map(|e| e.node)
            .filter(|&m| keep(m))
            .collect()
    }

    /// Batch `following-overlapping`: candidate `[c, d)` qualifies iff some
    /// context `[a, b)` has `a < c < b < d`. Same two regimes; the wide
    /// sweep answers each candidate with an O(1) range-min query (among
    /// contexts ending inside `(c, d)`, does the minimal start undercut
    /// `c`?) over the end-sorted context spans.
    fn following_overlapping_batch(
        &self,
        spans: &[(u32, u32, NodeId)],
        keep: &impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let min_a = spans[0].0;
        let max_b = spans.iter().map(|s| s.1).max().expect("non-empty");
        let lo = self.by_start.partition_point(|e| e.start <= min_a);
        let hi = self.by_start.partition_point(|e| e.start < max_b);
        let windows: Vec<(usize, usize)> = spans
            .iter()
            .map(|&(a, b, _)| {
                (
                    self.by_start.partition_point(|e| e.start <= a),
                    self.by_start.partition_point(|e| e.start < b),
                )
            })
            .collect();
        let total: usize = windows.iter().map(|w| w.1 - w.0).sum();
        if total < hi - lo {
            let mut out = Vec::new();
            for (&(_, b, _), &(wlo, whi)) in spans.iter().zip(&windows) {
                for e in &self.by_start[wlo..whi] {
                    if e.end > b && keep(e.node) {
                        out.push(e.node);
                    }
                }
            }
            return out;
        }
        let mut by_end: Vec<(u32, u32)> = spans.iter().map(|&(a, b, _)| (b, a)).collect();
        by_end.sort_unstable();
        let ends: Vec<u32> = by_end.iter().map(|s| s.0).collect();
        let rmq = Rmq::min_over(by_end.iter().map(|s| s.1).collect());
        self.by_start[lo..hi]
            .iter()
            .filter(|e| {
                let l = ends.partition_point(|&b| b <= e.start);
                let r = ends.partition_point(|&b| b < e.end);
                l < r && rmq.query(l, r) < e.start
            })
            .map(|e| e.node)
            .filter(|&m| keep(m))
            .collect()
    }

    /// Batch form of the `descendant::name` lookup: the name-map entries
    /// that are DOM descendants of (or, with `or_self`, equal to) at least
    /// one context node, in Definition-3 order. One pass over the name run
    /// against merged per-hierarchy preorder intervals, instead of one
    /// full-run filter per context node.
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
        if ctxs.iter().any(|n| n.is_root()) {
            // The root reaches every element; only itself needs `or_self`.
            return entries.iter().copied().filter(|&m| or_self || !m.is_root()).collect();
        }
        // Element contexts contribute a preorder interval per hierarchy
        // (the `order`/`subtree_last` numbering); text, leaf, and attribute
        // contexts have no element descendants.
        let mut intervals: HashMap<HierarchyId, Vec<(u32, u32)>> = HashMap::new();
        for &n in ctxs {
            if let NodeId::Elem { h, i } = n {
                let e = g.hierarchy(h).elem(i);
                let lo = if or_self { e.order } else { e.order + 1 };
                if lo <= e.subtree_last {
                    intervals.entry(h).or_default().push((lo, e.subtree_last));
                }
            }
        }
        for runs in intervals.values_mut() {
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
        entries
            .iter()
            .copied()
            .filter(|&m| {
                let NodeId::Elem { h, i } = m else { return false };
                let Some(runs) = intervals.get(&h) else { return false };
                let o = g.hierarchy(h).elem(i).order;
                let idx = runs.partition_point(|&(lo, _)| lo <= o);
                idx > 0 && o <= runs[idx - 1].1
            })
            .collect()
    }

    /// Non-empty context span, or `None` (empty spans take part in no
    /// extended axis — same rule as the naive path).
    fn ctx_span(&self, g: &Goddag, n: NodeId) -> Option<(u32, u32)> {
        let (a, b) = g.span(n);
        (a < b).then_some((a, b))
    }

    /// `xancestor`: all `m` with `span(m) ⊇ span(n)`, excluding `n` and its
    /// DOM descendants. Root, the one leaf that can contain the span, and
    /// one laminar chain walk per hierarchy.
    fn xancestor(&self, g: &Goddag, n: NodeId, keep: &impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        let Some((a, b)) = self.ctx_span(g, n) else { return Vec::new() };
        let mut out = Vec::new();
        let mut push = |m: NodeId| {
            if m != n && !g.is_descendant(m, n) && keep(m) {
                out.push(m);
            }
        };
        push(NodeId::Root);
        // Leaves are disjoint, so only the leaf containing `a` can cover
        // the whole span.
        let leaf = g.leaf_at(a);
        let (ls, le) = g.span(leaf);
        if ls <= a && b <= le {
            push(leaf);
        }
        for chain in &self.chains {
            // Deepest candidate: last chain node with start <= a. Every
            // container of [a, b) in this hierarchy is on its parent chain
            // (laminar family).
            let idx = chain.partition_point(|e| e.start <= a);
            if idx == 0 {
                continue;
            }
            let mut cur = (idx - 1) as u32;
            loop {
                let e = chain[cur as usize];
                if e.end >= b {
                    push(e.node);
                }
                if e.parent == NO_PARENT {
                    break;
                }
                cur = e.parent;
            }
        }
        out
    }

    /// `xdescendant`: all `m` with `span(m) ⊆ span(n)`, excluding `n` and
    /// its DOM ancestors. Candidates start inside the span; the end check
    /// filters the overlap tail.
    fn xdescendant(&self, g: &Goddag, n: NodeId, keep: &impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        let Some((a, b)) = self.ctx_span(g, n) else { return Vec::new() };
        let lo = self.by_start.partition_point(|e| e.start < a);
        let hi = self.by_start.partition_point(|e| e.start < b);
        self.by_start[lo..hi]
            .iter()
            .filter(|e| e.end <= b)
            .map(|e| e.node)
            .filter(|&m| m != n && !g.is_descendant(n, m) && keep(m))
            .collect()
    }

    /// `xfollowing`: all `m` starting at or after `n`'s end. The answer is
    /// a constant fraction of the document, so it filters the
    /// Definition-3-ordered array (output comes out sorted) instead of
    /// binary-searching and re-sorting.
    fn xfollowing(&self, g: &Goddag, n: NodeId, keep: &impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        let Some((_, b)) = self.ctx_span(g, n) else { return Vec::new() };
        self.ordered.iter().filter(|e| e.start >= b).map(|e| e.node).filter(|&m| keep(m)).collect()
    }

    /// `xpreceding`: all `m` ending at or before `n`'s start; same
    /// ordered-filter shape as [`StructIndex::xfollowing`].
    fn xpreceding(&self, g: &Goddag, n: NodeId, keep: &impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        let Some((a, _)) = self.ctx_span(g, n) else { return Vec::new() };
        self.ordered.iter().filter(|e| e.end <= a).map(|e| e.node).filter(|&m| keep(m)).collect()
    }

    /// `preceding-overlapping`: `c < a < d < b` — ends strictly inside the
    /// span, starts strictly before it.
    fn preceding_overlapping(
        &self,
        g: &Goddag,
        n: NodeId,
        keep: &impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let Some((a, b)) = self.ctx_span(g, n) else { return Vec::new() };
        let lo = self.by_end.partition_point(|e| e.end <= a);
        let hi = self.by_end.partition_point(|e| e.end < b);
        self.by_end[lo..hi]
            .iter()
            .filter(|e| e.start < a)
            .map(|e| e.node)
            .filter(|&m| keep(m))
            .collect()
    }

    /// `following-overlapping`: `a < c < b < d` — starts strictly inside
    /// the span, ends strictly after it.
    fn following_overlapping(
        &self,
        g: &Goddag,
        n: NodeId,
        keep: &impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let Some((a, b)) = self.ctx_span(g, n) else { return Vec::new() };
        let lo = self.by_start.partition_point(|e| e.start <= a);
        let hi = self.by_start.partition_point(|e| e.start < b);
        self.by_start[lo..hi]
            .iter()
            .filter(|e| e.end > b)
            .map(|e| e.node)
            .filter(|&m| keep(m))
            .collect()
    }
}

/// Coalesce sorted, possibly overlapping/adjacent preorder runs in place.
fn merge_runs(runs: &mut Vec<(u32, u32)>) {
    let mut merged: Vec<(u32, u32)> = Vec::with_capacity(runs.len());
    for &(lo, hi) in runs.iter() {
        match merged.last_mut() {
            Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    *runs = merged;
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
    fn filtered_lookup_prefilters() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let line1 = NodeId::Elem { h: g.hierarchy_id("lines").unwrap(), i: 0 };
        let only_w =
            idx.axis_nodes_filtered(&g, Axis::Overlapping, line1, |m| g.name(m) == Some("w"));
        assert_eq!(only_w.len(), 1);
        assert_eq!(g.string_value(only_w[0]), "singallice");
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

    /// Batch evaluation over a context set equals the sorted, deduplicated
    /// union of per-node lookups, for every axis.
    fn assert_batch_matches_union(g: &Goddag, idx: &StructIndex, ctxs: &[NodeId]) {
        for axis in ALL_AXES {
            let batch = idx.axis_nodes_batch(g, axis, ctxs, |_| true);
            let mut union: Vec<NodeId> =
                ctxs.iter().flat_map(|&n| idx.axis_nodes(g, axis, n)).collect();
            g.sort_nodes(&mut union);
            union.dedup();
            assert_eq!(batch, union, "axis {} over {} contexts", axis.name(), ctxs.len());
        }
    }

    #[test]
    fn batch_matches_per_node_union_on_figure1() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let all = g.all_nodes();
        // Every third node, the full set, singletons, and the empty set.
        let every_third: Vec<NodeId> = all.iter().copied().step_by(3).collect();
        assert_batch_matches_union(&g, &idx, &every_third);
        assert_batch_matches_union(&g, &idx, &all);
        assert_batch_matches_union(&g, &idx, &[NodeId::Root]);
        assert_batch_matches_union(&g, &idx, &[]);
        let elems: Vec<NodeId> =
            all.iter().copied().filter(|n| matches!(n, NodeId::Elem { .. })).collect();
        assert_batch_matches_union(&g, &idx, &elems);
    }

    #[test]
    fn batch_applies_filter_before_sort() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let lines: Vec<NodeId> = {
            let h = g.hierarchy_id("lines").unwrap();
            vec![NodeId::Elem { h, i: 0 }, NodeId::Elem { h, i: 1 }]
        };
        let only_w =
            idx.axis_nodes_batch(&g, Axis::Overlapping, &lines, |m| g.name(m) == Some("w"));
        // "singallice" overlaps both lines — once in the union.
        assert_eq!(only_w.len(), 1);
        assert_eq!(g.string_value(only_w[0]), "singallice");
    }

    #[test]
    fn named_batch_matches_per_node_union() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let all = g.all_nodes();
        for name in ["w", "vline", "res", "dmg", "r", "nope"] {
            for or_self in [false, true] {
                for ctxs in [&all[..], &all[..all.len() / 2], &all[2..5], &[]] {
                    let batch = idx.elements_named_batch(&g, name, ctxs, or_self);
                    let mut union: Vec<NodeId> = idx
                        .elements_named(name)
                        .iter()
                        .copied()
                        .filter(|&m| {
                            ctxs.iter().any(|&n| g.is_descendant(m, n) || (or_self && m == n))
                        })
                        .collect();
                    g.sort_nodes(&mut union);
                    union.dedup();
                    assert_eq!(batch, union, "name {name}, or_self {or_self}");
                }
            }
        }
    }

    #[test]
    fn unsorted_variant_matches_as_a_set() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        for &n in &g.all_nodes() {
            for axis in ALL_AXES {
                let mut unsorted = idx.axis_nodes_filtered_unsorted(&g, axis, n, |_| true);
                g.sort_nodes(&mut unsorted);
                assert_eq!(unsorted, idx.axis_nodes(&g, axis, n), "axis {}", axis.name());
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
                // Unfiltered, name-filtered, and never-true probes.
                assert_eq!(
                    idx.axis_exists(&g, axis, n, |_| true),
                    !idx.axis_nodes(&g, axis, n).is_empty(),
                    "axis {} from {}",
                    axis.name(),
                    n
                );
                for name in names {
                    let keep = |m: NodeId| g.name(m) == Some(name);
                    assert_eq!(
                        idx.axis_exists(&g, axis, n, keep),
                        !idx.axis_nodes_filtered(&g, axis, n, keep).is_empty(),
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
        let all = g.all_nodes();
        let names = ["r", "vline", "w", "res", "dmg", "line", "nope"];
        for outer in names {
            for inner in names {
                for ctxs in [&all[..], &all[..all.len() / 2], &all[2..5], &[NodeId::Root], &[]] {
                    let mid = idx.elements_named_batch(&g, outer, ctxs, false);
                    let seq = idx.elements_named_batch(&g, inner, &mid, false);
                    let joined = idx.descendant_chain_batch(&g, outer, inner, ctxs);
                    assert_eq!(joined, seq, "{outer}//{inner} over {} ctxs", ctxs.len());
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
