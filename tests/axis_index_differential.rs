//! Differential property suite for the structural index: on random
//! multihierarchical documents (including virtual hierarchies, both
//! spec-built and `analyze-string()`-built), index-backed axis evaluation
//! must equal the naive `all_nodes()` scan for every axis, XPath compiled
//! onto the XQuery pipeline must equal the naive interpreter on random
//! extended paths, and batched step resolution must equal the per-node
//! union on random context sets for every axis × node-test pair. The naive
//! side is the reference oracle.

use multihier_xquery::corpus::{generate, GeneratorConfig};
use multihier_xquery::goddag::axes::{axis_nodes, setsem, Axis};
use multihier_xquery::goddag::{FragmentSpec, Goddag, NodeId, StructIndex};
use multihier_xquery::xpath::eval::evaluate_xpath_naive;
use multihier_xquery::xpath::{choose_strategy, resolve_step, resolve_step_batch, NodeTest, Value};
use multihier_xquery::xquery::evaluate_xpath;
use proptest::prelude::*;

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

const EXTENDED: [Axis; 7] = [
    Axis::XAncestor,
    Axis::XDescendant,
    Axis::XFollowing,
    Axis::XPreceding,
    Axis::PrecedingOverlapping,
    Axis::FollowingOverlapping,
    Axis::Overlapping,
];

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        0u32..1000,
        (60usize..240),
        (1usize..4),
        (5usize..25),
        (0usize..=10),
        prop_oneof![Just(true), Just(false)],
    )
        .prop_map(|(seed, text_len, hierarchies, avg_element_len, jitter, nested)| {
            GeneratorConfig {
                seed: seed as u64,
                text_len,
                hierarchies,
                avg_element_len,
                boundary_jitter: jitter as f64 / 10.0,
                nested,
            }
        })
}

/// Random documents, optionally with a virtual hierarchy layered on top.
fn arb_goddag() -> impl Strategy<Value = Goddag> {
    (arb_config(), 0usize..=2, 1usize..12).prop_map(|(cfg, virtuals, cut)| {
        let mut g = generate(&cfg).build_goddag();
        for v in 0..virtuals {
            let len = g.text().len() as u32;
            let mid = char_boundary(g.text(), (cut as u32 * (v as u32 + 1)).min(len));
            let frag = FragmentSpec::new("res", (0, len)).child(FragmentSpec::new("m", (0, mid)));
            let name = g.fresh_virtual_name();
            g.add_virtual_hierarchy(&name, &[frag]).expect("spans are char-aligned");
        }
        g
    })
}

fn char_boundary(s: &str, mut b: u32) -> u32 {
    while b > 0 && !s.is_char_boundary(b as usize) {
        b -= 1;
    }
    b
}

fn assert_index_matches_scan(g: &Goddag) {
    let idx = StructIndex::build(g);
    for &n in &g.all_nodes() {
        for axis in ALL_AXES {
            let fast = idx.axis_nodes(g, axis, n);
            let slow = axis_nodes(g, axis, n);
            assert_eq!(fast, slow, "axis {} from {}", axis.name(), n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Index-backed evaluation equals the naive scan for all axes on
    /// random documents with virtual hierarchies.
    #[test]
    fn index_equals_scan_on_random_docs(g in arb_goddag()) {
        assert_index_matches_scan(&g);
    }

    /// And both equal the literal Definition-1 set semantics for the
    /// extended axes (three-way agreement).
    #[test]
    fn index_equals_set_semantics(cfg in arb_config()) {
        let g = generate(&cfg).build_goddag();
        let idx = StructIndex::build(&g);
        // Set semantics is O(N²) per node; sample every third node.
        for (i, &n) in g.all_nodes().iter().enumerate() {
            if i % 3 != 0 {
                continue;
            }
            for axis in EXTENDED {
                prop_assert_eq!(
                    idx.axis_nodes(&g, axis, n),
                    setsem::axis_nodes_setsem(&g, axis, n),
                    "axis {} from {}", axis.name(), n
                );
            }
        }
    }

    /// Batched step resolution equals the per-node union — sorted, deduped
    /// — on random context sets, for every axis × node test. This is the
    /// contract the evaluators rely on when they switch predicate-free
    /// steps to `resolve_step_batch`.
    #[test]
    fn batch_step_equals_per_node_union(cfg in arb_config(), mask_lo in 0u32..u32::MAX, mask_hi in 0u32..u32::MAX, shift in 0usize..64) {
        let mask = (mask_hi as u64) << 32 | mask_lo as u64;
        let g = generate(&cfg).build_goddag();
        let idx = StructIndex::build(&g);
        // A pseudo-random document-ordered context subset from the mask
        // bits (rotated so every region of the document gets picked).
        let ctxs: Vec<NodeId> = g
            .all_nodes()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask >> ((i + shift) % 64) & 1 == 1)
            .map(|(_, n)| n)
            .collect();
        let tests = [
            NodeTest::Name { name: "e0".into(), hierarchies: None },
            NodeTest::Name { name: "s0".into(), hierarchies: None },
            NodeTest::AnyElement { hierarchies: None },
            NodeTest::AnyNode { hierarchies: None },
            NodeTest::Text { hierarchies: None },
            NodeTest::Leaf,
        ];
        for axis in ALL_AXES {
            for test in &tests {
                let strategy = choose_strategy(axis, test);
                let batch = resolve_step_batch(&g, &idx, strategy, axis, test, &ctxs);
                let mut union: Vec<NodeId> = ctxs
                    .iter()
                    .flat_map(|&n| resolve_step(&g, &idx, strategy, axis, test, n))
                    .collect();
                g.sort_nodes(&mut union);
                union.dedup();
                prop_assert_eq!(
                    batch, union,
                    "axis {} test {:?} over {} contexts", axis.name(), test, ctxs.len()
                );
            }
        }
    }

    /// XPath on the compiled pipeline (lowered onto the XQuery plan,
    /// optimizer on) and the naive interpreter agree on random extended
    /// paths.
    #[test]
    fn compiled_xpath_equals_naive(cfg in arb_config(), steps in arb_path()) {
        let g = generate(&cfg).build_goddag();
        let fast = evaluate_xpath(&g, &steps).unwrap();
        let slow = evaluate_xpath_naive(&g, &steps).unwrap();
        prop_assert_eq!(&fast, &slow, "compiled vs naive on `{}`", steps);
        if let Value::Nodes(ns) = &fast {
            for w in ns.windows(2) {
                prop_assert_eq!(g.cmp_order(w[0], w[1]), std::cmp::Ordering::Less);
            }
        }
    }
}

fn arb_path() -> impl Strategy<Value = String> {
    let axis = prop_oneof![
        Just("child"),
        Just("descendant"),
        Just("descendant-or-self"),
        Just("parent"),
        Just("ancestor"),
        Just("following"),
        Just("preceding"),
        Just("xancestor"),
        Just("xdescendant"),
        Just("xfollowing"),
        Just("xpreceding"),
        Just("overlapping"),
        Just("preceding-overlapping"),
        Just("following-overlapping"),
    ];
    // The generator names elements e0/e1/… per hierarchy (n0/… nested).
    let test = prop_oneof![
        Just("e0".to_string()),
        Just("e1".to_string()),
        Just("n0".to_string()),
        Just("*".to_string()),
        Just("node()".to_string()),
        Just("text()".to_string()),
        Just("leaf()".to_string()),
    ];
    let step = (axis, test).prop_map(|(a, t)| format!("{a}::{t}"));
    proptest::collection::vec(step, 1..4).prop_map(|steps| format!("/{}", steps.join("/")))
}

/// The `analyze-string()` path: temporary hierarchies built by the XQuery
/// layer must also index identically mid-query. This exercises the version
/// counter through the copy-on-write evaluator.
#[test]
fn index_matches_scan_after_analyze_string_style_mutation() {
    let doc = generate(&GeneratorConfig {
        text_len: 300,
        hierarchies: 3,
        boundary_jitter: 0.8,
        ..Default::default()
    });
    let mut g = doc.build_goddag();
    // Simulate what analyze-string() does: install match fragments as a
    // virtual hierarchy, query, remove, query again.
    let text_len = g.text().len() as u32;
    let frag = FragmentSpec::new("matches", (0, text_len))
        .child(FragmentSpec::new("m", (0, char_boundary(g.text(), 7))))
        .child(FragmentSpec::new("m", (char_boundary(g.text(), 20), char_boundary(g.text(), 31))));
    g.add_virtual_hierarchy("rest", &[frag]).unwrap();
    assert_index_matches_scan(&g);
    g.remove_last_hierarchy().unwrap();
    assert_index_matches_scan(&g);
}

/// Generator element names really are e0/e1/…, so the name-indexed path is
/// exercised (not vacuously matching nothing).
#[test]
fn name_index_paths_are_nonempty() {
    let g = generate(&GeneratorConfig::default()).build_goddag();
    let Value::Nodes(ns) = evaluate_xpath(&g, "/descendant::e0").unwrap() else { panic!() };
    assert!(!ns.is_empty(), "descendant::e0 finds the first hierarchy's elements");
    let Value::Nodes(all) = evaluate_xpath(&g, "/descendant::leaf()").unwrap() else { panic!() };
    assert_eq!(all.len(), g.leaf_count());
}
