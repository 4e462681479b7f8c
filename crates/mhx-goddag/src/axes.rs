//! The paper's axes: the 13 standard XPath axes generalized to the
//! KyGODDAG, plus the seven extended axes of Definition 1.
//!
//! Extended-axis semantics reduce to interval comparisons because a node's
//! leaves are always a contiguous run (XML element content is contiguous
//! text). Writing `n = [a, b)` and `m = [c, d)` for non-empty spans aligned
//! to leaf boundaries:
//!
//! | axis                     | Definition 1 condition                  | interval form        |
//! |--------------------------|------------------------------------------|----------------------|
//! | `xancestor(n)`           | leaves(n) ⊆ leaves(m), m ∉ desc(n)∪{n}  | c ≤ a ∧ b ≤ d        |
//! | `xdescendant(n)`         | leaves(n) ⊇ leaves(m), m ∉ anc(n)∪{n}   | a ≤ c ∧ d ≤ b        |
//! | `xfollowing(n)`          | max(n) < min(m)                          | b ≤ c                |
//! | `xpreceding(n)`          | min(n) > max(m)                          | d ≤ a                |
//! | `preceding-overlapping`  | ∩≠∅, min(n) ∈ (min(m),max(m)], max(n)>max(m) | c < a < d < b  |
//! | `following-overlapping`  | ∩≠∅, max(n) ∈ [min(m),max(m)), min(n)<min(m) | a < c < b < d  |
//! | `overlapping`            | union of the two                         |                      |
//!
//! Nodes with an empty leaf set (empty elements) take part in no extended
//! axis, on either side — the definitions' min/max are undefined there; we
//! document this instantiation in DESIGN.md §6.
//!
//! The [`setsem`] submodule implements Definition 1 literally with leaf
//! *sets*; property tests assert both agree, and the E9 ablation bench
//! measures the difference.

use crate::goddag::Goddag;
use crate::node::NodeId;

/// All axes of the extended path language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    // Standard XPath axes (generalized to the DAG).
    Child,
    Descendant,
    DescendantOrSelf,
    Parent,
    Ancestor,
    AncestorOrSelf,
    Following,
    Preceding,
    FollowingSibling,
    PrecedingSibling,
    SelfAxis,
    Attribute,
    // Extended axes (Definition 1).
    XAncestor,
    XDescendant,
    XFollowing,
    XPreceding,
    PrecedingOverlapping,
    FollowingOverlapping,
    Overlapping,
}

impl Axis {
    /// Every axis of the extended path language, in declaration order —
    /// for exhaustive differential sweeps.
    pub const ALL: [Axis; 19] = [
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

    /// XPath axis name (`xancestor`, `preceding-overlapping`, …).
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::SelfAxis => "self",
            Axis::Attribute => "attribute",
            Axis::XAncestor => "xancestor",
            Axis::XDescendant => "xdescendant",
            Axis::XFollowing => "xfollowing",
            Axis::XPreceding => "xpreceding",
            Axis::PrecedingOverlapping => "preceding-overlapping",
            Axis::FollowingOverlapping => "following-overlapping",
            Axis::Overlapping => "overlapping",
        }
    }

    pub fn from_name(s: &str) -> Option<Axis> {
        Some(match s {
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "self" => Axis::SelfAxis,
            "attribute" => Axis::Attribute,
            "xancestor" => Axis::XAncestor,
            "xdescendant" => Axis::XDescendant,
            "xfollowing" => Axis::XFollowing,
            "xpreceding" => Axis::XPreceding,
            "preceding-overlapping" => Axis::PrecedingOverlapping,
            "following-overlapping" => Axis::FollowingOverlapping,
            "overlapping" => Axis::Overlapping,
            _ => return None,
        })
    }

    /// Is this one of Definition 1's seven extended axes, which relate
    /// nodes by their leaf spans across hierarchies?
    pub fn is_extended(self) -> bool {
        matches!(
            self,
            Axis::XAncestor
                | Axis::XDescendant
                | Axis::XFollowing
                | Axis::XPreceding
                | Axis::PrecedingOverlapping
                | Axis::FollowingOverlapping
                | Axis::Overlapping
        )
    }

    /// Reverse axes deliver positions in reverse document order (XPath
    /// `position()` semantics).
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::Preceding
                | Axis::PrecedingSibling
                | Axis::XPreceding
                | Axis::PrecedingOverlapping
        )
    }
}

/// Evaluate `axis` from context node `n`. Results are in KyGODDAG
/// (Definition 3) order; reverse axes are *returned* in document order too —
/// the XPath layer reverses for `position()`.
pub fn axis_nodes(g: &Goddag, axis: Axis, n: NodeId) -> Vec<NodeId> {
    match axis {
        Axis::SelfAxis => vec![n],
        Axis::Child => g.children(n),
        Axis::Descendant => g.descendants(n),
        Axis::DescendantOrSelf => {
            let mut v = g.descendants(n);
            v.insert(0, n);
            v
        }
        Axis::Parent => g.parents(n),
        Axis::Ancestor => g.ancestors(n),
        Axis::AncestorOrSelf => {
            let mut v = g.ancestors(n);
            v.push(n);
            g.sort_nodes(&mut v);
            v
        }
        Axis::FollowingSibling => g.following_siblings(n),
        Axis::PrecedingSibling => g.preceding_siblings(n),
        Axis::Attribute => g.attr_nodes(n),
        Axis::Following => following(g, n),
        Axis::Preceding => preceding(g, n),
        Axis::XAncestor => extended(g, n, |a, b, c, d| c <= a && b <= d, Exclude::Descendants),
        Axis::XDescendant => extended(g, n, |a, b, c, d| a <= c && d <= b, Exclude::Ancestors),
        Axis::XFollowing => extended(g, n, |_, b, c, _| b <= c, Exclude::None),
        Axis::XPreceding => extended(g, n, |a, _, _, d| d <= a, Exclude::None),
        Axis::PrecedingOverlapping => {
            extended(g, n, |a, b, c, d| c < a && a < d && d < b, Exclude::None)
        }
        Axis::FollowingOverlapping => {
            extended(g, n, |a, b, c, d| a < c && c < b && b < d, Exclude::None)
        }
        Axis::Overlapping => extended(
            g,
            n,
            |a, b, c, d| (c < a && a < d && d < b) || (a < c && c < b && b < d),
            Exclude::None,
        ),
    }
}

enum Exclude {
    None,
    /// Exclude `descendant(n) ∪ {n}` (xancestor).
    Descendants,
    /// Exclude `ancestor(n) ∪ {n}` (xdescendant).
    Ancestors,
}

fn extended(
    g: &Goddag,
    n: NodeId,
    cond: impl Fn(u32, u32, u32, u32) -> bool,
    exclude: Exclude,
) -> Vec<NodeId> {
    let (a, b) = g.span(n);
    if a >= b {
        return Vec::new(); // empty leaf set: no extended relations
    }
    g.all_nodes()
        .into_iter()
        .filter(|&m| {
            let (c, d) = g.span(m);
            if c >= d || !cond(a, b, c, d) {
                return false;
            }
            match exclude {
                Exclude::None => m != n,
                Exclude::Descendants => m != n && !g.is_descendant(m, n),
                Exclude::Ancestors => m != n && !g.is_descendant(n, m),
            }
        })
        .collect()
}

/// Standard `following` axis. Per the paper, standard axes on a non-root
/// node stay within the node's DOM component; we additionally include
/// leaves (they are part of every component). For a leaf context the
/// component is ambiguous, so `following` coincides with `xfollowing`.
fn following(g: &Goddag, n: NodeId) -> Vec<NodeId> {
    match n {
        NodeId::Root => Vec::new(),
        NodeId::Leaf { .. } => axis_nodes(g, Axis::XFollowing, n),
        NodeId::Attr { h, elem, .. } => following(g, NodeId::Elem { h, i: elem }),
        NodeId::Elem { h, .. } | NodeId::Text { h, .. } => {
            let hier = g.hierarchy(h);
            let last = match n {
                NodeId::Elem { i, .. } => hier.elem(i).subtree_last,
                NodeId::Text { i, .. } => hier.text(i).order,
                _ => unreachable!("outer match covers only elem/text"),
            };
            let mut out: Vec<NodeId> = Vec::new();
            out.extend(
                (0..hier.element_count() as u32)
                    .filter(|&i| hier.elem(i).order > last)
                    .map(|i| NodeId::Elem { h, i }),
            );
            out.extend(
                (0..hier.text_count() as u32)
                    .filter(|&i| hier.text(i).order > last)
                    .map(|i| NodeId::Text { h, i }),
            );
            let (_, b) = g.span(n);
            out.extend(g.leaves().into_iter().filter(|&l| g.span(l).0 >= b));
            g.sort_nodes(&mut out);
            out
        }
    }
}

fn preceding(g: &Goddag, n: NodeId) -> Vec<NodeId> {
    match n {
        NodeId::Root => Vec::new(),
        NodeId::Leaf { .. } => axis_nodes(g, Axis::XPreceding, n),
        NodeId::Attr { h, elem, .. } => preceding(g, NodeId::Elem { h, i: elem }),
        NodeId::Elem { h, .. } | NodeId::Text { h, .. } => {
            let hier = g.hierarchy(h);
            let my_order = match n {
                NodeId::Elem { i, .. } => hier.elem(i).order,
                NodeId::Text { i, .. } => hier.text(i).order,
                _ => unreachable!("outer match covers only elem/text"),
            };
            let ancestors = g.ancestors(n);
            let mut out: Vec<NodeId> = Vec::new();
            out.extend(
                (0..hier.element_count() as u32)
                    .map(|i| NodeId::Elem { h, i })
                    .filter(|&m| match m {
                        NodeId::Elem { i, .. } => hier.elem(i).order < my_order,
                        _ => false,
                    })
                    .filter(|m| !ancestors.contains(m)),
            );
            out.extend(
                (0..hier.text_count() as u32)
                    .filter(|&i| hier.text(i).order < my_order)
                    .map(|i| NodeId::Text { h, i }),
            );
            let (a, _) = g.span(n);
            out.extend(g.leaves().into_iter().filter(|&l| g.span(l).1 <= a));
            g.sort_nodes(&mut out);
            out
        }
    }
}

/// Literal set-based reference semantics for Definition 1 (ablation E9 and
/// property-test oracle).
pub mod setsem {
    use super::*;
    use std::collections::BTreeSet;

    /// `leaves(n)` computed by walking the DAG (no span shortcut).
    pub fn leaves_set(g: &Goddag, n: NodeId) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            if let NodeId::Leaf { start } = x {
                out.insert(start);
            } else {
                stack.extend(g.children(x));
            }
        }
        out
    }

    /// Definition 1, word for word, over leaf sets.
    pub fn axis_nodes_setsem(g: &Goddag, axis: Axis, n: NodeId) -> Vec<NodeId> {
        let ln = leaves_set(g, n);
        if ln.is_empty() {
            return Vec::new();
        }
        let min_n = *ln.first().expect("non-empty");
        let max_n = *ln.last().expect("non-empty");
        let mut out: Vec<NodeId> = g
            .all_nodes()
            .into_iter()
            .filter(|&m| {
                if m == n {
                    return false;
                }
                let lm = leaves_set(g, m);
                if lm.is_empty() {
                    return false;
                }
                let min_m = *lm.first().expect("non-empty");
                let max_m = *lm.last().expect("non-empty");
                match axis {
                    Axis::XAncestor => ln.is_subset(&lm) && !g.is_descendant(m, n),
                    Axis::XDescendant => lm.is_subset(&ln) && !g.is_descendant(n, m),
                    Axis::XFollowing => max_n < min_m,
                    Axis::XPreceding => min_n > max_m,
                    Axis::PrecedingOverlapping => {
                        !ln.is_disjoint(&lm) && min_m < min_n && min_n <= max_m && max_n > max_m
                    }
                    Axis::FollowingOverlapping => {
                        !ln.is_disjoint(&lm) && min_m <= max_n && max_n < max_m && min_n < min_m
                    }
                    Axis::Overlapping => {
                        !ln.is_disjoint(&lm)
                            && ((min_m < min_n && min_n <= max_m && max_n > max_m)
                                || (min_m <= max_n && max_n < max_m && min_n < min_m))
                    }
                    _ => panic!("setsem implements extended axes only"),
                }
            })
            .collect();
        g.sort_nodes(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goddag::GoddagBuilder;

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

    fn named<'a>(g: &'a Goddag, nodes: &'a [NodeId], name: &'a str) -> Vec<NodeId> {
        nodes.iter().copied().filter(|&n| g.name(n) == Some(name)).collect()
    }

    fn elem(g: &Goddag, hname: &str, i: u32) -> NodeId {
        NodeId::Elem { h: g.hierarchy_id(hname).unwrap(), i }
    }

    #[test]
    fn singallice_overlaps_both_lines() {
        let g = figure1();
        // w "singallice" is words elem index: vline0=0,w=1,w=2, vline1=3,
        // w(singallice)=4.
        let w = elem(&g, "words", 4);
        assert_eq!(g.string_value(w), "singallice");
        let line1 = elem(&g, "lines", 0);
        let line2 = elem(&g, "lines", 1);
        // From line1, w is following-overlapping; from line2, preceding.
        assert!(axis_nodes(&g, Axis::FollowingOverlapping, line1).contains(&w));
        assert!(axis_nodes(&g, Axis::PrecedingOverlapping, line2).contains(&w));
        assert!(axis_nodes(&g, Axis::Overlapping, line1).contains(&w));
        assert!(axis_nodes(&g, Axis::Overlapping, line2).contains(&w));
        // And not xdescendant of either line.
        assert!(!axis_nodes(&g, Axis::XDescendant, line1).contains(&w));
        assert!(!axis_nodes(&g, Axis::XDescendant, line2).contains(&w));
    }

    #[test]
    fn damaged_words_found_via_all_three_relations() {
        let g = figure1();
        let unawendendne = elem(&g, "words", 2);
        let gecynde = elem(&g, "words", 6);
        let tha = elem(&g, "words", 8);
        assert_eq!(g.string_value(unawendendne), "unawendendne");
        assert_eq!(g.string_value(gecynde), "gecynde");
        assert_eq!(g.string_value(tha), "þa");
        let dmg1 = elem(&g, "damage", 0);
        let dmg2 = elem(&g, "damage", 1);
        // dmg1 ("w") is inside unawendendne: xdescendant.
        assert!(axis_nodes(&g, Axis::XDescendant, unawendendne).contains(&dmg1));
        // gecynde overlaps dmg2 ("de þa").
        assert!(axis_nodes(&g, Axis::Overlapping, gecynde).contains(&dmg2));
        // þa is inside dmg2: xancestor.
        assert!(axis_nodes(&g, Axis::XAncestor, tha).contains(&dmg2));
    }

    #[test]
    fn xancestor_includes_root() {
        let g = figure1();
        let w = elem(&g, "words", 1);
        assert!(axis_nodes(&g, Axis::XAncestor, w).contains(&NodeId::Root));
    }

    #[test]
    fn equal_span_cross_hierarchy_is_mutual_anc_desc() {
        let g = GoddagBuilder::new()
            .hierarchy("a", "<r><x>ab</x></r>")
            .hierarchy("b", "<r><y>ab</y></r>")
            .build()
            .unwrap();
        let x = elem(&g, "a", 0);
        let y = elem(&g, "b", 0);
        assert!(axis_nodes(&g, Axis::XAncestor, x).contains(&y));
        assert!(axis_nodes(&g, Axis::XDescendant, x).contains(&y));
        // But same-hierarchy tree relatives are excluded.
        let g2 = GoddagBuilder::new().hierarchy("a", "<r><x><y>ab</y></x></r>").build().unwrap();
        let x2 = elem(&g2, "a", 0);
        let y2 = elem(&g2, "a", 1);
        // y2's leaves equal x2's, but y2 is a DOM descendant of x2 → not
        // xancestor... of x2? Definition: xancestor(x2) excludes
        // descendant(x2); y2 IS a descendant → excluded.
        assert!(!axis_nodes(&g2, Axis::XAncestor, x2).contains(&y2));
        // xdescendant(x2) excludes ancestors, y2 is not an ancestor: but it
        // IS a plain descendant — Definition 1 keeps it (only ancestors are
        // excluded).
        assert!(axis_nodes(&g2, Axis::XDescendant, x2).contains(&y2));
    }

    #[test]
    fn xfollowing_and_xpreceding_partition_disjoint_nodes() {
        let g = figure1();
        let w_sibbe = elem(&g, "words", 5);
        assert_eq!(g.string_value(w_sibbe), "sibbe");
        let f = axis_nodes(&g, Axis::XFollowing, w_sibbe);
        let p = axis_nodes(&g, Axis::XPreceding, w_sibbe);
        // line1 strictly precedes sibbe; line2 contains it.
        let line1 = elem(&g, "lines", 0);
        let line2 = elem(&g, "lines", 1);
        assert!(p.contains(&line1));
        assert!(!f.contains(&line2));
        assert!(!p.contains(&line2));
        // dmg2 ("de þa") strictly follows sibbe.
        let dmg2 = elem(&g, "damage", 1);
        assert!(f.contains(&dmg2));
    }

    #[test]
    fn overlapping_is_symmetric() {
        let g = figure1();
        for &n in &g.all_nodes() {
            for &m in &axis_nodes(&g, Axis::Overlapping, n) {
                assert!(
                    axis_nodes(&g, Axis::Overlapping, m).contains(&n),
                    "overlap must be symmetric: {n} vs {m}"
                );
            }
        }
    }

    #[test]
    fn empty_span_nodes_have_no_extended_relations() {
        let g = GoddagBuilder::new()
            .hierarchy("a", "<r>ab<br/>cd</r>")
            .hierarchy("b", "<r><x>abcd</x></r>")
            .build()
            .unwrap();
        let br = elem(&g, "a", 0);
        assert_eq!(g.span(br), (2, 2));
        for axis in [
            Axis::XAncestor,
            Axis::XDescendant,
            Axis::XFollowing,
            Axis::XPreceding,
            Axis::Overlapping,
        ] {
            assert!(axis_nodes(&g, axis, br).is_empty(), "{}", axis.name());
        }
        // And br never appears in others' extended axes.
        let x = elem(&g, "b", 0);
        assert!(!axis_nodes(&g, Axis::XDescendant, x).contains(&br));
    }

    #[test]
    fn standard_following_stays_in_component_plus_leaves() {
        let g = figure1();
        let line1 = elem(&g, "lines", 0);
        let f = axis_nodes(&g, Axis::Following, line1);
        // line2 follows line1 within the same hierarchy.
        assert!(f.contains(&elem(&g, "lines", 1)));
        // words-hierarchy nodes are in a different component: excluded.
        assert!(named(&g, &f, "w").is_empty());
        assert!(named(&g, &f, "vline").is_empty());
        // Leaves after line1's span are included.
        assert!(f.iter().any(|n| n.is_leaf()));
    }

    #[test]
    fn standard_preceding_excludes_ancestors() {
        let g = figure1();
        let line2 = elem(&g, "lines", 1);
        let p = axis_nodes(&g, Axis::Preceding, line2);
        assert!(p.contains(&elem(&g, "lines", 0)));
        assert!(!p.contains(&NodeId::Root));
    }

    #[test]
    fn axis_roundtrip_names() {
        for axis in [
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
        ] {
            assert_eq!(Axis::from_name(axis.name()), Some(axis));
        }
        assert_eq!(Axis::from_name("nope"), None);
    }

    #[test]
    fn interval_semantics_equals_set_semantics_on_figure1() {
        let g = figure1();
        for axis in [
            Axis::XAncestor,
            Axis::XDescendant,
            Axis::XFollowing,
            Axis::XPreceding,
            Axis::PrecedingOverlapping,
            Axis::FollowingOverlapping,
            Axis::Overlapping,
        ] {
            for &n in &g.all_nodes() {
                let fast = axis_nodes(&g, axis, n);
                let slow = setsem::axis_nodes_setsem(&g, axis, n);
                assert_eq!(fast, slow, "axis {} from {}", axis.name(), n);
            }
        }
    }

    #[test]
    fn leaf_context_extended_axes() {
        let g = figure1();
        let leaf_w = g.leaf_at(14); // "w"
                                    // xancestor of leaf includes dmg1 and the word.
        let xa = axis_nodes(&g, Axis::XAncestor, leaf_w);
        assert!(!named(&g, &xa, "dmg").is_empty());
        assert!(!named(&g, &xa, "w").is_empty());
        // xfollowing of the last leaf is empty.
        let last = g.leaf_at(49);
        assert!(axis_nodes(&g, Axis::XFollowing, last).is_empty());
    }
}
