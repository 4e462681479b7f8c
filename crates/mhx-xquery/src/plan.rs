//! Step resolution: how every compiled path step, in both query
//! languages, obtains its candidate nodes.
//!
//! [`choose_strategy`] picks a [`StepStrategy`] per location step from
//! `(axis, node test)` alone, so a compiled plan stays document-independent
//! and cacheable. [`resolve_step`] answers a whole context set, and one
//! context node is a set of one: the index strategies are set-at-a-time
//! [`StructIndex`] lookups (one pass for the set, one sort-dedup per step;
//! an extended axis under a name test reads only that name's spans), and
//! the tree walk is the one loop over contexts. Predicates are the
//! caller's business: the evaluator ([`crate::eval`]) applies them. The
//! naive interpreter in `mhx-xpath`, whose step is [`walk_step`], stays
//! index-free as the reference oracle for differential testing.

use mhx_goddag::index::StructIndex;
use mhx_goddag::{Axis, Goddag, NodeId};
use mhx_xpath::{node_test_matches, walk_step, NodeTest};

/// How one location step obtains its candidate nodes. Chosen at compile
/// time from the axis and node test only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStrategy {
    /// `descendant::name` / `descendant-or-self::name` — look the name up
    /// in the index and keep the entries the contexts reach (O(1) per
    /// candidate via the pre/post numbering).
    NameIndex,
    /// `descendant::leaf()` — the contexts' covered leaf runs, straight
    /// from the leaf layer.
    LeafRange,
    /// The seven Definition-1 axes — interval lookups on the span index.
    IndexedExtended,
    /// Everything else — the ordinary (already output-local) axis walk.
    AxisWalk,
}

impl StepStrategy {
    /// Does the strategy read a [`StructIndex`]? The others need none
    /// built.
    pub fn reads_index(self) -> bool {
        matches!(self, StepStrategy::NameIndex | StepStrategy::IndexedExtended)
    }
}

/// Pick the strategy for a step (the compiled pipeline calls this when it
/// builds each step).
pub fn choose_strategy(axis: Axis, test: &NodeTest) -> StepStrategy {
    if axis.is_extended() {
        return StepStrategy::IndexedExtended;
    }
    match (axis, test) {
        (Axis::Descendant | Axis::DescendantOrSelf, NodeTest::Name { .. }) => {
            StepStrategy::NameIndex
        }
        (Axis::Descendant, NodeTest::Leaf) => StepStrategy::LeafRange,
        _ => StepStrategy::AxisWalk,
    }
}

/// Candidate nodes for one step from every node of `ctxs`, node test
/// applied: the union of their answers, in Definition-3 order,
/// deduplicated. One context is a batch of one.
///
/// `ctxs` is expected in document order without duplicates (the per-step
/// invariant the evaluator maintains); anything else — e.g. a `(//b,
/// //a)` path start — is renormalized here first, which is semantics-
/// preserving because the result is an order-independent union.
///
/// The strategies that [read an index](StepStrategy::reads_index) take
/// `idx`, which must then be current for `g`; given `None`, they fall back
/// to the tree walk, which answers every axis.
pub fn resolve_step(
    g: &Goddag,
    idx: Option<&StructIndex>,
    strategy: StepStrategy,
    axis: Axis,
    test: &NodeTest,
    ctxs: &[NodeId],
) -> Vec<NodeId> {
    let normalized: Vec<NodeId>;
    let ctxs = if is_doc_ordered(g, ctxs) {
        ctxs
    } else {
        let mut v = ctxs.to_vec();
        g.sort_nodes(&mut v);
        v.dedup();
        normalized = v;
        &normalized
    };
    let keep = |m| node_test_matches(g, axis, m, test);
    match (strategy, idx) {
        (StepStrategy::NameIndex, Some(idx)) => {
            let NodeTest::Name { name, .. } = test else {
                unreachable!("NameIndex is only chosen for name tests");
            };
            let mut out = idx.elements_named_batch(g, name, ctxs, axis == Axis::DescendantOrSelf);
            out.retain(|&m| keep(m));
            out
        }
        (StepStrategy::IndexedExtended, Some(idx)) => {
            idx.axis_nodes_batch_named(g, axis, element_name(test), ctxs, keep)
        }
        (StepStrategy::LeafRange, _) => {
            // Merge the (leaf-aligned) context spans, then emit each merged
            // run's leaves once — sorted and duplicate-free by
            // construction. Only nodes with DOM children reach leaves.
            let mut spans: Vec<(u32, u32)> = ctxs
                .iter()
                .filter(|n| matches!(n, NodeId::Root | NodeId::Elem { .. } | NodeId::Text { .. }))
                .map(|&n| g.span(n))
                .filter(|(s, e)| s < e)
                .collect();
            spans.sort_unstable();
            let mut out = Vec::new();
            let mut run: Option<(u32, u32)> = None;
            for (s, e) in spans {
                match &mut run {
                    Some((_, re)) if s <= *re => *re = (*re).max(e),
                    _ => {
                        if let Some((rs, re)) = run {
                            out.extend(g.leaves_in_span(rs, re));
                        }
                        run = Some((s, e));
                    }
                }
            }
            if let Some((rs, re)) = run {
                out.extend(g.leaves_in_span(rs, re));
            }
            out
        }
        // The tree walk, which is also what an index strategy falls back
        // to without an index.
        _ => {
            let mut out = Vec::new();
            for &n in ctxs {
                out.extend(walk_step(g, axis, test, n));
            }
            // One context's walk is already in order.
            if ctxs.len() > 1 {
                g.sort_nodes(&mut out);
                out.dedup();
            }
            out
        }
    }
}

/// The element name a node test names, if it names one: an extended-axis
/// lookup then reads only that name's elements.
pub(crate) fn element_name(test: &NodeTest) -> Option<&str> {
    match test {
        NodeTest::Name { name, .. } => Some(name),
        _ => None,
    }
}

fn is_doc_ordered(g: &Goddag, ns: &[NodeId]) -> bool {
    ns.windows(2).all(|w| g.cmp_order(w[0], w[1]) == std::cmp::Ordering::Less)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhx_goddag::GoddagBuilder;

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

    #[test]
    fn strategies_chosen_statically() {
        let named = NodeTest::Name { name: "w".into(), hierarchies: None };
        assert_eq!(choose_strategy(Axis::Descendant, &named), StepStrategy::NameIndex);
        assert_eq!(choose_strategy(Axis::DescendantOrSelf, &named), StepStrategy::NameIndex);
        assert_eq!(choose_strategy(Axis::Descendant, &NodeTest::Leaf), StepStrategy::LeafRange);
        assert_eq!(choose_strategy(Axis::Overlapping, &named), StepStrategy::IndexedExtended);
        assert_eq!(choose_strategy(Axis::Child, &named), StepStrategy::AxisWalk);
        assert_eq!(
            choose_strategy(Axis::Descendant, &NodeTest::AnyNode { hierarchies: None }),
            StepStrategy::AxisWalk
        );
    }

    /// Every strategy, with the index and without, equals the naive union
    /// of [`walk_step`] over single contexts, every element, a sparse
    /// subset, every node, and no context.
    #[test]
    fn resolve_step_matches_naive_union_for_every_strategy() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let all = g.all_nodes();
        let mut ctx_sets: Vec<Vec<NodeId>> = all.iter().map(|&n| vec![n]).collect();
        ctx_sets.push(all.iter().copied().filter(|n| n.is_element()).collect());
        ctx_sets.push(all.iter().copied().step_by(4).collect());
        ctx_sets.push(all.clone());
        ctx_sets.push(Vec::new());
        let tests = [
            NodeTest::Name { name: "w".into(), hierarchies: None },
            NodeTest::Name { name: "w".into(), hierarchies: Some(vec!["words".into()]) },
            NodeTest::AnyElement { hierarchies: None },
            NodeTest::AnyNode { hierarchies: Some(vec!["damage".into()]) },
            NodeTest::Text { hierarchies: None },
            NodeTest::Leaf,
        ];
        for axis in [
            Axis::Child,
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::Ancestor,
            Axis::XAncestor,
            Axis::XDescendant,
            Axis::XFollowing,
            Axis::XPreceding,
            Axis::PrecedingOverlapping,
            Axis::FollowingOverlapping,
            Axis::Overlapping,
        ] {
            for test in &tests {
                let strategy = choose_strategy(axis, test);
                for ctxs in &ctx_sets {
                    let mut naive: Vec<NodeId> =
                        ctxs.iter().flat_map(|&n| walk_step(&g, axis, test, n)).collect();
                    g.sort_nodes(&mut naive);
                    naive.dedup();
                    for index in [Some(&idx), None] {
                        assert_eq!(
                            resolve_step(&g, index, strategy, axis, test, ctxs),
                            naive,
                            "axis {} test {:?} over {:?} (index {})",
                            axis.name(),
                            test,
                            ctxs,
                            index.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_renormalizes_unordered_contexts() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let any = NodeTest::AnyNode { hierarchies: None };
        let strategy = StepStrategy::IndexedExtended;
        let mut ctxs = idx.elements_named("w").to_vec();
        let sorted = resolve_step(&g, Some(&idx), strategy, Axis::XFollowing, &any, &ctxs);
        ctxs.reverse();
        ctxs.push(ctxs[0]); // duplicate, out of order
        let renormalized = resolve_step(&g, Some(&idx), strategy, Axis::XFollowing, &any, &ctxs);
        assert_eq!(sorted, renormalized);
        assert!(!sorted.is_empty());
    }
}
