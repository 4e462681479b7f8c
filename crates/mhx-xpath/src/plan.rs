//! Index-backed step resolution: the core every compiled path step runs
//! through, resolving axes with [`StructIndex`] lookups instead of
//! `all_nodes()` scans.
//!
//! [`choose_strategy`] picks a [`StepStrategy`] per location step from
//! `(axis, node test)` alone, so a compiled plan stays document-independent
//! and cacheable. [`resolve_step`] answers one context node;
//! [`resolve_step_batch`] answers a whole context set in one index pass,
//! so the document-order sort-dedup happens once per step instead of once
//! per context node. Predicates are the caller's business: the compiled
//! pipeline (`mhx-xquery`, which runs both query languages) applies them.
//! The naive interpreter in [`crate::eval`] stays index-free as the
//! reference oracle for differential testing.

use crate::ast::NodeTest;
use crate::eval::node_test_matches;
use mhx_goddag::index::StructIndex;
use mhx_goddag::{axis_nodes, Axis, Goddag, NodeId};

/// How one location step obtains its candidate nodes. Chosen at compile
/// time from the axis and node test only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStrategy {
    /// `descendant::name` / `descendant-or-self::name` — look the name up
    /// in the index and keep descendants of the context node (O(1) per
    /// candidate via the pre/post numbering).
    NameIndex,
    /// `descendant::leaf()` — the context node's covered leaf run, straight
    /// from the leaf layer.
    LeafRange,
    /// The seven Definition-1 axes — interval lookups on the span index.
    IndexedExtended,
    /// Everything else — the ordinary (already output-local) axis walk.
    AxisWalk,
}

/// Pick the strategy for a step (the compiled pipeline calls this when it
/// builds each step).
pub fn choose_strategy(axis: Axis, test: &NodeTest) -> StepStrategy {
    match axis {
        Axis::XAncestor
        | Axis::XDescendant
        | Axis::XFollowing
        | Axis::XPreceding
        | Axis::PrecedingOverlapping
        | Axis::FollowingOverlapping
        | Axis::Overlapping => StepStrategy::IndexedExtended,
        Axis::Descendant | Axis::DescendantOrSelf => match test {
            NodeTest::Name { .. } => StepStrategy::NameIndex,
            NodeTest::Leaf if axis == Axis::Descendant => StepStrategy::LeafRange,
            _ => StepStrategy::AxisWalk,
        },
        _ => StepStrategy::AxisWalk,
    }
}

/// Candidate nodes for one step from context node `n`, node test already
/// applied, in Definition-3 order. This is the index-backed core compiled
/// path steps evaluate through.
pub fn resolve_step(
    g: &Goddag,
    idx: &StructIndex,
    strategy: StepStrategy,
    axis: Axis,
    test: &NodeTest,
    n: NodeId,
) -> Vec<NodeId> {
    match strategy {
        StepStrategy::NameIndex => {
            let NodeTest::Name { name, .. } = test else {
                unreachable!("NameIndex is only chosen for name tests");
            };
            let or_self = axis == Axis::DescendantOrSelf;
            idx.elements_named(name)
                .iter()
                .copied()
                .filter(|&m| g.is_descendant(m, n) || (or_self && m == n))
                .filter(|&m| node_test_matches(g, axis, m, test))
                .collect()
        }
        StepStrategy::LeafRange => match n {
            // Only nodes with DOM children can reach leaves; for those the
            // descendant leaf set is exactly the covered leaf run.
            NodeId::Root | NodeId::Elem { .. } | NodeId::Text { .. } => g.leaves_of(n),
            NodeId::Attr { .. } | NodeId::Leaf { .. } => Vec::new(),
        },
        StepStrategy::IndexedExtended => {
            idx.axis_nodes_filtered(g, axis, n, |m| node_test_matches(g, axis, m, test))
        }
        StepStrategy::AxisWalk => walk_step(g, axis, test, n),
    }
}

/// The plain (index-free) axis walk with the node test applied — the
/// [`StepStrategy::AxisWalk`] resolver, callable without an index.
pub fn walk_step(g: &Goddag, axis: Axis, test: &NodeTest, n: NodeId) -> Vec<NodeId> {
    axis_nodes(g, axis, n).into_iter().filter(|&m| node_test_matches(g, axis, m, test)).collect()
}

/// Set-at-a-time step resolution: the union of [`resolve_step`] over a
/// whole context set, in Definition-3 order, deduplicated — computed in
/// one pass over the index structures instead of one lookup per context
/// node (see [`StructIndex::axis_nodes_batch`] for the per-axis
/// algorithms). Predicates are the caller's business: they need
/// per-context positions, so predicated steps stay on the per-node path.
///
/// `ctxs` is expected in document order without duplicates (the per-step
/// invariant the evaluator maintains); anything else — e.g. a `(//b,
/// //a)` path start — is renormalized here first, which is semantics-
/// preserving because the result is an order-independent union.
pub fn resolve_step_batch(
    g: &Goddag,
    idx: &StructIndex,
    strategy: StepStrategy,
    axis: Axis,
    test: &NodeTest,
    ctxs: &[NodeId],
) -> Vec<NodeId> {
    match ctxs {
        [] => return Vec::new(),
        // A singleton batch is exactly the per-node lookup.
        &[n] => return resolve_step(g, idx, strategy, axis, test, n),
        _ => {}
    }
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
    match strategy {
        StepStrategy::NameIndex => {
            let NodeTest::Name { name, .. } = test else {
                unreachable!("NameIndex is only chosen for name tests");
            };
            let or_self = axis == Axis::DescendantOrSelf;
            idx.elements_named_batch(g, name, ctxs, or_self)
                .into_iter()
                .filter(|&m| node_test_matches(g, axis, m, test))
                .collect()
        }
        StepStrategy::LeafRange => {
            // Merge the (leaf-aligned) context spans, then emit each merged
            // run's leaves once — sorted and duplicate-free by
            // construction.
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
        StepStrategy::IndexedExtended => {
            idx.axis_nodes_batch(g, axis, ctxs, |m| node_test_matches(g, axis, m, test))
        }
        StepStrategy::AxisWalk => {
            // No set-at-a-time index form for the tree-walk axes; still
            // hoist the document-order sort-dedup to once per step.
            let mut out = Vec::new();
            for &n in ctxs {
                out.extend(walk_step(g, axis, test, n));
            }
            g.sort_nodes(&mut out);
            out.dedup();
            out
        }
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

    #[test]
    fn batch_matches_per_node_union_for_every_strategy() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let all = g.all_nodes();
        let ctx_sets: Vec<Vec<NodeId>> = vec![
            all.clone(),
            all.iter().copied().step_by(4).collect(),
            vec![NodeId::Root],
            Vec::new(),
        ];
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
                    let batch = resolve_step_batch(&g, &idx, strategy, axis, test, ctxs);
                    let mut union: Vec<NodeId> = ctxs
                        .iter()
                        .flat_map(|&n| resolve_step(&g, &idx, strategy, axis, test, n))
                        .collect();
                    g.sort_nodes(&mut union);
                    union.dedup();
                    assert_eq!(
                        batch,
                        union,
                        "axis {} test {:?} over {} contexts",
                        axis.name(),
                        test,
                        ctxs.len()
                    );
                }
            }
        }
    }

    #[test]
    fn batch_renormalizes_unordered_contexts() {
        let g = figure1();
        let idx = StructIndex::build(&g);
        let mut ctxs = idx.elements_named("w").to_vec();
        let sorted = resolve_step_batch(
            &g,
            &idx,
            StepStrategy::IndexedExtended,
            Axis::XFollowing,
            &NodeTest::AnyNode { hierarchies: None },
            &ctxs,
        );
        ctxs.reverse();
        ctxs.push(ctxs[0]); // duplicate, out of order
        let renormalized = resolve_step_batch(
            &g,
            &idx,
            StepStrategy::IndexedExtended,
            Axis::XFollowing,
            &NodeTest::AnyNode { hierarchies: None },
            &ctxs,
        );
        assert_eq!(sorted, renormalized);
        assert!(!sorted.is_empty());
    }
}
