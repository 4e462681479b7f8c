//! The E8 benchmark queries, implemented once per representation so
//! the bench harness measures the *representation* cost:
//!
//! * KyGODDAG — extended `overlapping` axis (O(1) interval test per node);
//! * milestone — document scan + milestone pair matching per query;
//! * fragmentation — document scan + fragment regrouping per query.

use crate::fragmentation::FragmentationDoc;
use crate::milestone::MilestoneDoc;
use crate::region::{containing_pairs, goddag_regions, overlapping_pairs};
use mhx_goddag::{axis_nodes, Axis, Goddag, NodeId};

/// Count of (a, b) element pairs where `b_name` properly overlaps
/// `a_name`, via the extended axis.
pub fn goddag_overlap_count(g: &Goddag, a_name: &str, b_name: &str) -> usize {
    g.all_nodes()
        .into_iter()
        .filter(|&n| g.name(n) == Some(a_name) && matches!(n, NodeId::Elem { .. }))
        .map(|n| {
            axis_nodes(g, Axis::Overlapping, n)
                .into_iter()
                .filter(|&m| g.name(m) == Some(b_name))
                .count()
        })
        .sum()
}

/// Containment count via the xdescendant axis.
pub fn goddag_containment_count(g: &Goddag, a_name: &str, b_name: &str) -> usize {
    g.all_nodes()
        .into_iter()
        .filter(|&n| g.name(n) == Some(a_name) && matches!(n, NodeId::Elem { .. }))
        .map(|n| {
            axis_nodes(g, Axis::XDescendant, n)
                .into_iter()
                .filter(|&m| g.name(m) == Some(b_name) && matches!(m, NodeId::Elem { .. }))
                .count()
        })
        .sum()
}

/// The milestone-side overlap query (per-query scan).
pub fn milestone_overlap_count(
    ms: &MilestoneDoc,
    a_name: &str,
    b_hierarchy: &str,
    b_name: &str,
) -> usize {
    let a = ms.dominant_regions(Some(a_name));
    let b: Vec<_> = ms.regions(b_hierarchy).into_iter().filter(|r| r.name == b_name).collect();
    overlapping_pairs(&a, &b).len()
}

/// The fragmentation-side overlap query (per-query scan + regroup).
pub fn fragmentation_overlap_count(
    fr: &FragmentationDoc,
    a_name: &str,
    b_hierarchy: &str,
    b_name: &str,
) -> usize {
    let a = fr.dominant_regions(Some(a_name));
    let b: Vec<_> = fr.regions(b_hierarchy).into_iter().filter(|r| r.name == b_name).collect();
    overlapping_pairs(&a, &b).len()
}

/// Containment for the baselines.
pub fn milestone_containment_count(
    ms: &MilestoneDoc,
    a_name: &str,
    b_hierarchy: &str,
    b_name: &str,
) -> usize {
    let a = ms.dominant_regions(Some(a_name));
    let b: Vec<_> = ms.regions(b_hierarchy).into_iter().filter(|r| r.name == b_name).collect();
    containing_pairs(&a, &b).len()
}

pub fn fragmentation_containment_count(
    fr: &FragmentationDoc,
    a_name: &str,
    b_hierarchy: &str,
    b_name: &str,
) -> usize {
    let a = fr.dominant_regions(Some(a_name));
    let b: Vec<_> = fr.regions(b_hierarchy).into_iter().filter(|r| r.name == b_name).collect();
    containing_pairs(&a, &b).len()
}

/// Goddag control through the same region plumbing (isolates axis-engine
/// cost from region-extraction cost).
pub fn goddag_region_overlap_count(
    g: &Goddag,
    a_hierarchy: &str,
    a_name: &str,
    b_hierarchy: &str,
    b_name: &str,
) -> usize {
    let a: Vec<_> =
        goddag_regions(g, a_hierarchy).into_iter().filter(|r| r.name == a_name).collect();
    let b: Vec<_> =
        goddag_regions(g, b_hierarchy).into_iter().filter(|r| r.name == b_name).collect();
    overlapping_pairs(&a, &b).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragmentation::to_fragmentation;
    use crate::milestone::to_milestone;
    use mhx_corpus::figure1;
    use mhx_corpus::generator::{generate, GeneratorConfig};

    #[test]
    fn all_representations_agree_on_figure1() {
        let g = figure1::goddag();
        let ms = to_milestone(&g, "lines");
        let fr = to_fragmentation(&g, "lines");
        let gd = goddag_overlap_count(&g, "line", "w");
        assert_eq!(gd, 2, "singallice overlaps both lines");
        assert_eq!(gd, milestone_overlap_count(&ms, "line", "words", "w"));
        assert_eq!(gd, fragmentation_overlap_count(&fr, "line", "words", "w"));
        assert_eq!(gd, goddag_region_overlap_count(&g, "lines", "line", "words", "w"));
    }

    #[test]
    fn containment_agrees_on_figure1() {
        let g = figure1::goddag();
        let ms = to_milestone(&g, "lines");
        let fr = to_fragmentation(&g, "lines");
        let gd = goddag_containment_count(&g, "line", "w");
        // line1 contains gesceaftum, unawendendne; line2 contains sibbe,
        // gecynde, þa. (singallice is in neither.)
        assert_eq!(gd, 5);
        assert_eq!(gd, milestone_containment_count(&ms, "line", "words", "w"));
        assert_eq!(gd, fragmentation_containment_count(&fr, "line", "words", "w"));
    }

    #[test]
    fn all_representations_agree_on_synthetic() {
        for jitter in [0.0, 0.5, 1.0] {
            let doc = generate(&GeneratorConfig {
                text_len: 1000,
                hierarchies: 3,
                boundary_jitter: jitter,
                seed: 42,
                ..Default::default()
            });
            let g = doc.build_goddag();
            let ms = to_milestone(&g, "h0");
            let fr = to_fragmentation(&g, "h0");
            let gd = goddag_overlap_count(&g, "e0", "e1");
            assert_eq!(
                gd,
                milestone_overlap_count(&ms, "e0", "h1", "e1"),
                "milestone disagrees at jitter {jitter}"
            );
            assert_eq!(
                gd,
                fragmentation_overlap_count(&fr, "e0", "h1", "e1"),
                "fragmentation disagrees at jitter {jitter}"
            );
        }
    }
}
