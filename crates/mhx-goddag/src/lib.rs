//! # mhx-goddag — the KyGODDAG data structure
//!
//! The paper's core data structure (Iacob & Dekhtyar, SIGMOD '06): a
//! directed acyclic graph uniting the DOM trees of several *concurrent
//! markup hierarchies* over one base text `S`, with a shared layer of
//! **leaf** nodes — the maximal substrings of `S` unbroken by markup of any
//! hierarchy.
//!
//! * [`Goddag`] / [`GoddagBuilder`] — construction from XML encodings
//!   (every encoding must spell out the same `S` and share the root
//!   element);
//! * [`axes`] — the 13 standard XPath axes generalized to the DAG plus the
//!   seven extended axes of Definition 1 (`xancestor`, `xdescendant`,
//!   `xfollowing`, `xpreceding`, `preceding-overlapping`,
//!   `following-overlapping`, `overlapping`);
//! * [`node::OrderKey`] — the Definition-3 stable total node order;
//! * virtual hierarchies ([`Goddag::add_virtual_hierarchy`]) with
//!   ref-counted leaf boundaries — the substrate for XQuery's
//!   `analyze-string()` temporary hierarchies;
//! * [`cmh`] — Concurrent Markup Hierarchy (DTD collection) validation;
//! * [`dot`] — Figure-2 style DOT/text dumps.
//!
//! ```
//! use mhx_goddag::{GoddagBuilder, axes::{axis_nodes, Axis}};
//!
//! let g = GoddagBuilder::new()
//!     .hierarchy("lines", "<r><line>gesceaftum unawendendne sin</line>\
//!                          <line>gallice sibbe gecynde þa</line></r>")
//!     .hierarchy("words", "<r><w>gesceaftum</w> <w>unawendendne</w> \
//!                          <w>singallice</w> <w>sibbe</w> <w>gecynde</w> <w>þa</w></r>")
//!     .build()
//!     .unwrap();
//!
//! // "singallice" straddles the line break: it is not a descendant of
//! // either line, but it *overlaps* both.
//! let singallice = g
//!     .all_nodes()
//!     .into_iter()
//!     .find(|&n| g.name(n) == Some("w") && g.string_value(n) == "singallice")
//!     .unwrap();
//! let lines = axis_nodes(&g, Axis::Overlapping, singallice);
//! assert_eq!(lines.iter().filter(|&&n| g.name(n) == Some("line")).count(), 2);
//! ```

pub mod axes;
pub mod boundaries;
pub mod cmh;
pub mod columns;
pub mod dot;
pub mod error;
pub mod export;
pub mod goddag;
pub mod hierarchy;
pub mod index;
pub mod node;

pub use axes::{axis_nodes, Axis};
pub use cmh::Cmh;
pub use error::{GoddagError, Result};
pub use export::{all_hierarchies_to_xml, hierarchy_to_xml};
pub use goddag::{Goddag, GoddagBuilder};
pub use hierarchy::{ElemNode, FragmentSpec, Hierarchy, TextNode};
pub use index::{IndexStats, StructIndex};
pub use node::{HierarchyId, NodeId, OrderKey};

#[cfg(test)]
mod proptests {
    use super::axes::{axis_nodes, setsem, Axis};
    use super::*;
    use proptest::prelude::*;

    /// Generate a random multihierarchical document: a base text of length
    /// `len` and several hierarchies, each a random segmentation of the
    /// text into (possibly nested) elements.
    #[derive(Debug, Clone)]
    pub(crate) struct RandomDoc {
        text_len: usize,
        /// The base text: one ASCII character per byte, among them every
        /// character markup escapes.
        text: Vec<u8>,
        hierarchies: Vec<Vec<(usize, usize)>>, // flat element spans per hierarchy
    }

    /// The base text's alphabet: letters, the characters escaped in text
    /// and attribute values, and `'`, which neither escapes.
    const ALPHABET: &[u8] = b"ab&<>\"'";

    pub(crate) fn arb_doc() -> impl Strategy<Value = RandomDoc> {
        (4usize..24)
            .prop_flat_map(|len| {
                let hier = proptest::collection::vec(
                    (0..len).prop_flat_map(move |s| (Just(s), (s + 1)..=len)),
                    0..5,
                )
                .prop_map(|mut spans| {
                    // Keep only non-crossing, non-duplicate spans: sort and
                    // drop any span that crosses a previous one.
                    spans.sort();
                    spans.dedup();
                    let mut kept: Vec<(usize, usize)> = Vec::new();
                    'outer: for (s, e) in spans {
                        for &(ks, ke) in &kept {
                            let disjoint = e <= ks || ke <= s;
                            let nested = (ks <= s && e <= ke) || (s <= ks && ke <= e);
                            if !disjoint && !nested {
                                continue 'outer;
                            }
                            if ks == s && ke == e {
                                continue 'outer;
                            }
                        }
                        kept.push((s, e));
                    }
                    kept
                });
                let text = proptest::collection::vec(0..ALPHABET.len(), len)
                    .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect());
                (Just(len), text, proptest::collection::vec(hier, 1..4))
            })
            .prop_map(|(text_len, text, hierarchies)| RandomDoc { text_len, text, hierarchies })
    }

    /// `c` as the canonical serialization writes it: `&`, `<` and `>`
    /// always escaped, `"` only in an attribute value.
    fn escaped(c: u8, attr: bool) -> String {
        match c {
            b'&' => "&amp;".into(),
            b'<' => "&lt;".into(),
            b'>' => "&gt;".into(),
            b'"' if attr => "&quot;".into(),
            c => (c as char).to_string(),
        }
    }

    /// Render one hierarchy's spans as nested XML over the document's
    /// text. An element whose span starts on an even offset carries its
    /// own text as an attribute `k`.
    fn render(doc: &RandomDoc, spans: &[(usize, usize)]) -> String {
        let text = &doc.text;
        // Opens at s (longer spans first), closes at e (shorter first).
        let mut out = String::from("<r>");
        for i in 0..=doc.text_len {
            let mut closes: Vec<&(usize, usize)> = spans.iter().filter(|&&(_, e)| e == i).collect();
            closes.sort_by_key(|&&(s, _)| std::cmp::Reverse(s));
            for _ in closes {
                out.push_str("</x>");
            }
            let mut opens: Vec<&(usize, usize)> = spans.iter().filter(|&&(s, _)| s == i).collect();
            opens.sort_by_key(|&&(_, e)| std::cmp::Reverse(e));
            for &(s, e) in opens {
                if s % 2 == 0 {
                    let value: String = text[s..e].iter().map(|&c| escaped(c, true)).collect();
                    out.push_str(&format!("<x k=\"{value}\">"));
                } else {
                    out.push_str("<x>");
                }
            }
            if i < doc.text_len {
                out.push_str(&escaped(text[i], false));
            }
        }
        out.push_str("</r>");
        out
    }

    pub(crate) fn build(doc: &RandomDoc) -> Goddag {
        let mut b = GoddagBuilder::new();
        if doc.hierarchies.is_empty() {
            b = b.hierarchy("h0", render(doc, &[]));
        }
        for (i, spans) in doc.hierarchies.iter().enumerate() {
            b = b.hierarchy(format!("h{i}"), render(doc, spans));
        }
        b.build().expect("generated encodings are well-formed and text-consistent")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Leaves partition S exactly.
        #[test]
        fn leaves_partition_text(doc in arb_doc()) {
            let g = build(&doc);
            let mut cursor = 0u32;
            for &l in &g.leaves() {
                let (s, e) = g.span(l);
                prop_assert_eq!(s, cursor);
                prop_assert!(e > s);
                cursor = e;
            }
            prop_assert_eq!(cursor as usize, g.text().len());
        }

        /// Interval-based extended axes agree with literal Definition 1.
        #[test]
        fn interval_equals_set_semantics(doc in arb_doc()) {
            let g = build(&doc);
            let nodes = g.all_nodes();
            for &n in nodes.iter() {
                for axis in [
                    Axis::XAncestor,
                    Axis::XDescendant,
                    Axis::XFollowing,
                    Axis::XPreceding,
                    Axis::PrecedingOverlapping,
                    Axis::FollowingOverlapping,
                    Axis::Overlapping,
                ] {
                    let fast = axis_nodes(&g, axis, n);
                    let slow = setsem::axis_nodes_setsem(&g, axis, n);
                    prop_assert_eq!(fast, slow, "axis {} from {}", axis.name(), n);
                }
            }
        }

        /// For any two nodes with non-empty leaf sets, the
        /// disjoint/containment/overlap relations are exclusive and
        /// exhaustive (up to mutual containment for equal spans).
        #[test]
        fn relations_cover_all_pairs(doc in arb_doc()) {
            let g = build(&doc);
            let nodes: Vec<NodeId> = g
                .all_nodes()
                .into_iter()
                .filter(|&n| {
                    let (s, e) = g.span(n);
                    s < e
                })
                .collect();
            for &n in &nodes {
                for &m in &nodes {
                    if n == m {
                        continue;
                    }
                    let (a, b) = g.span(n);
                    let (c, d) = g.span(m);
                    let strict_contained = (c <= a && b <= d) && !(a == c && b == d);
                    let rels = [
                        b <= c,                  // xfollowing
                        d <= a,                  // xpreceding
                        c < a && a < d && d < b, // preceding-overlapping
                        a < c && c < b && b < d, // following-overlapping
                        strict_contained,        // strictly contained in m
                        (a <= c && d <= b) && !(a == c && b == d), // strictly contains m
                        a == c && b == d,        // equal spans
                    ];
                    let count = rels.iter().filter(|&&r| r).count();
                    prop_assert_eq!(
                        count, 1,
                        "spans {:?} vs {:?} rels {:?}", (a, b), (c, d), rels
                    );
                }
            }
        }

        /// Definition-3 order is a strict total order consistent with each
        /// hierarchy's DOM preorder.
        #[test]
        fn order_total_and_dom_consistent(doc in arb_doc()) {
            let g = build(&doc);
            let nodes = g.all_nodes();
            for w in nodes.windows(2) {
                prop_assert_eq!(g.cmp_order(w[0], w[1]), std::cmp::Ordering::Less);
            }
            // DOM consistency: every parent precedes its children (except
            // leaves, which sort last by our documented instantiation).
            for &n in &nodes {
                for c in g.children(n) {
                    if !c.is_leaf() {
                        prop_assert_eq!(g.cmp_order(n, c), std::cmp::Ordering::Less);
                    }
                }
            }
        }

        /// Export reproduces each hierarchy's encoding byte-for-byte
        /// (the generator emits the same canonical serialization form).
        #[test]
        fn export_is_inverse_of_build(doc in arb_doc()) {
            let g = build(&doc);
            for (h, hier) in g.hierarchies() {
                let expected = if doc.hierarchies.is_empty() {
                    render(&doc, &[])
                } else {
                    render(&doc, &doc.hierarchies[h.index()])
                };
                prop_assert_eq!(export::hierarchy_to_xml(&g, h), expected, "hierarchy {}", hier.name);
            }
        }

        /// Adding and removing a virtual hierarchy restores the leaf layer
        /// exactly.
        #[test]
        fn virtual_hierarchy_roundtrip(doc in arb_doc(), cut in 1usize..8) {
            let mut g = build(&doc);
            let before: Vec<(u32, u32)> =
                g.leaves().iter().map(|&l| g.span(l)).collect();
            let len = g.text().len() as u32;
            let mid = (cut as u32).min(len);
            let frag = FragmentSpec::new("res", (0, len))
                .child(FragmentSpec::new("m", (0, mid)));
            g.add_virtual_hierarchy("rest", &[frag]).unwrap();
            prop_assert!(g.leaf_count() >= before.len());
            g.remove_last_hierarchy().unwrap();
            let after: Vec<(u32, u32)> =
                g.leaves().iter().map(|&l| g.span(l)).collect();
            prop_assert_eq!(before, after);
        }
    }
}
