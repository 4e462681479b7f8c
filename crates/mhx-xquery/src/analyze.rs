//! `fn:analyze-string($node, $pattern)` — Definition 4.
//!
//! The pattern is matched against the node's text content; a fresh
//! *temporary hierarchy* is installed in the KyGODDAG:
//!
//! * a `<res>` element wrapping the node's whole content,
//! * an `<m>` element per match,
//! * when the pattern is a well-formed XML fragment
//!   (`".*un<a>a</a>we.*"`), each embedded tag becomes a regex capture
//!   group and the group's match is re-tagged with that element inside
//!   `<m>` (Definition 4, step 4).
//!
//! Because the result is ordinary KyGODDAG markup, all extended axes work
//! against it — matches that straddle existing markup boundaries are
//! exactly the overlapping-hierarchy case the paper is about.

use crate::error::{Result, XQueryError};
use mhx_goddag::{FragmentSpec, Goddag, HierarchyId, NodeId};
use mhx_regex::Regex;

/// How the pattern string is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalyzeMode {
    /// Reproduce the paper's printed outputs: a leading and a trailing
    /// `.*` on the (top-level) pattern are stripped before match
    /// enumeration, so `".*unawe.*"` tags exactly `unawe` with `<m>` as in
    /// Example 1. This is the default because the paper's literal queries
    /// rely on it.
    #[default]
    PaperCompat,
    /// XSLT 2.0 `xsl:analyze-string` semantics: the pattern is used as
    /// given; every non-overlapping match is wrapped.
    Xslt,
}

/// A parsed analyze-string pattern: the compiled regex plus the tag tree
/// describing which capture groups correspond to which markup.
#[derive(Debug)]
pub struct TaggedPattern {
    pub regex: Regex,
    pub groups: Vec<GroupSpec>,
}

/// One tag from an XML-fragment pattern: capture group `index` should be
/// wrapped in element `name`.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    pub index: u32,
    pub name: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<GroupSpec>,
}

/// Parse a pattern (possibly an XML fragment) into a [`TaggedPattern`].
pub fn parse_pattern(pattern: &str, mode: AnalyzeMode) -> Result<TaggedPattern> {
    let (mut regex_src, groups) = if pattern.contains('<') {
        match mhx_xml::parse(&format!("<mhx-pat>{pattern}</mhx-pat>")) {
            Ok(doc) => fragment_to_regex(&doc)?,
            // Not a well-formed fragment: treat as a plain regex.
            Err(_) => (pattern.to_string(), Vec::new()),
        }
    } else {
        (pattern.to_string(), Vec::new())
    };
    if mode == AnalyzeMode::PaperCompat {
        // Strip redundant anchors the paper writes around its patterns.
        if let Some(stripped) = regex_src.strip_prefix(".*") {
            regex_src = stripped.to_string();
        }
        if let Some(stripped) = regex_src.strip_suffix(".*") {
            // Don't strip an escaped `\.*` tail.
            if !stripped.ends_with('\\') {
                regex_src = stripped.to_string();
            } else {
                regex_src.push_str(".*");
            }
        }
    }
    let regex = Regex::new(&regex_src)
        .map_err(|e| XQueryError::new(format!("analyze-string pattern: {e}")))?;
    Ok(TaggedPattern { regex, groups })
}

/// Convert the parsed XML fragment into a regex source: text verbatim,
/// `<tag>…</tag>` → `(…)`, collecting the group tree. Capture indexes are
/// assigned in tag-open order, matching the regex engine's group numbering.
fn fragment_to_regex(doc: &mhx_xml::Document) -> Result<(String, Vec<GroupSpec>)> {
    let root =
        doc.root_element().map_err(|e| XQueryError::new(format!("pattern fragment: {e}")))?;
    let mut src = String::new();
    let mut next_group = 1u32;
    let groups = walk(doc, root, &mut src, &mut next_group, 0)?;
    Ok((src, groups))
}

/// Append the regex for the children of `el`, which sits inside `depth`
/// tags, and return their group tree. Each tag becomes a group, so tags
/// nest no deeper than the regex parser's groups may.
fn walk(
    doc: &mhx_xml::Document,
    el: mhx_xml::NodeId,
    src: &mut String,
    next_group: &mut u32,
    depth: usize,
) -> Result<Vec<GroupSpec>> {
    let mut specs = Vec::new();
    for c in doc.children(el) {
        match doc.kind(c) {
            mhx_xml::NodeKind::Text(t) => src.push_str(t),
            mhx_xml::NodeKind::Element { .. } if depth == mhx_regex::parser::MAX_DEPTH => {
                return Err(XQueryError::new(format!(
                    "analyze-string pattern: tags nested deeper than {} levels",
                    mhx_regex::parser::MAX_DEPTH
                )));
            }
            mhx_xml::NodeKind::Element { name, attrs } => {
                let index = *next_group;
                *next_group += 1;
                src.push('(');
                let children = walk(doc, c, src, next_group, depth + 1)?;
                src.push(')');
                specs.push(GroupSpec {
                    index,
                    name: name.clone(),
                    attrs: attrs.iter().map(|a| (a.name.clone(), a.value.clone())).collect(),
                    children,
                });
            }
            _ => {}
        }
    }
    Ok(specs)
}

/// Run analyze-string over a KyGODDAG node: install the temporary
/// hierarchy and return the `<res>` element node.
pub fn analyze_string(
    g: &mut Goddag,
    node: NodeId,
    pattern: &str,
    mode: AnalyzeMode,
) -> Result<NodeId> {
    let tp = parse_pattern(pattern, mode)?;
    let (start, end) = g.span(node);
    let content = &g.text()[start as usize..end as usize];

    let mut res = FragmentSpec::new("res", (start, end));
    for caps in tp.regex.captures_iter(content) {
        let whole = caps.get(0).expect("group 0 always present");
        if whole.is_empty() {
            continue;
        }
        let mut m = FragmentSpec::new("m", (start + whole.start as u32, start + whole.end as u32));
        m.children = build_group_frags(&tp.groups, &caps, start);
        res.children.push(m);
    }

    let name = g.fresh_virtual_name();
    let h: HierarchyId = g.add_virtual_hierarchy(&name, &[res])?;
    // The <res> element is the hierarchy's first element (preorder).
    Ok(NodeId::Elem { h, i: 0 })
}

fn build_group_frags(
    specs: &[GroupSpec],
    caps: &mhx_regex::Captures<'_>,
    base: u32,
) -> Vec<FragmentSpec> {
    let mut out: Vec<FragmentSpec> = Vec::new();
    for spec in specs {
        let Some(m) = caps.get(spec.index as usize) else { continue };
        if m.is_empty() {
            continue;
        }
        let mut f =
            FragmentSpec::new(spec.name.clone(), (base + m.start as u32, base + m.end as u32));
        f.attrs = spec.attrs.clone();
        f.children = build_group_frags(&spec.children, caps, base);
        out.push(f);
    }
    // Defensive: keep siblings ordered and non-overlapping (repetition can
    // leave stale earlier-group spans out of order).
    out.sort_by_key(|f| f.span);
    let mut cursor = 0u32;
    out.retain(|f| {
        if f.span.0 >= cursor {
            cursor = f.span.1;
            true
        } else {
            false
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhx_goddag::GoddagBuilder;

    fn word_goddag() -> Goddag {
        GoddagBuilder::new().hierarchy("words", "<r><w>unawendendne</w></r>").build().unwrap()
    }

    #[test]
    fn plain_pattern_xslt_mode() {
        let tp = parse_pattern("unawe", AnalyzeMode::Xslt).unwrap();
        assert!(tp.groups.is_empty());
        assert!(tp.regex.is_match("unawendendne"));
    }

    #[test]
    fn paper_mode_strips_dotstar() {
        let tp = parse_pattern(".*unawe.*", AnalyzeMode::PaperCompat).unwrap();
        assert_eq!(tp.regex.as_str(), "unawe");
        // Xslt mode keeps it.
        let tp = parse_pattern(".*unawe.*", AnalyzeMode::Xslt).unwrap();
        assert_eq!(tp.regex.as_str(), ".*unawe.*");
    }

    #[test]
    fn fragment_pattern_groups() {
        let tp = parse_pattern(".*un<a>a</a>we.*", AnalyzeMode::PaperCompat).unwrap();
        assert_eq!(tp.regex.as_str(), "un(a)we");
        assert_eq!(tp.groups.len(), 1);
        assert_eq!(tp.groups[0].name, "a");
        assert_eq!(tp.groups[0].index, 1);
    }

    #[test]
    fn nested_fragment_pattern() {
        let tp = parse_pattern("x<a>y<b>z</b></a>", AnalyzeMode::Xslt).unwrap();
        assert_eq!(tp.regex.as_str(), "x(y(z))");
        assert_eq!(tp.groups[0].index, 1);
        assert_eq!(tp.groups[0].children[0].index, 2);
        assert_eq!(tp.groups[0].children[0].name, "b");
    }

    #[test]
    fn bad_regex_reported() {
        assert!(parse_pattern("[", AnalyzeMode::Xslt).is_err());
    }

    #[test]
    fn paper_example1_structure() {
        // analyze-string(<w>unawendendne</w>, ".*un<a>a</a>we.*") must
        // produce <res><m>un<a>a</a>we</m>ndendne</res>.
        let mut g = word_goddag();
        let w = g.all_nodes().into_iter().find(|&n| g.name(n) == Some("w")).unwrap();
        let res = analyze_string(&mut g, w, ".*un<a>a</a>we.*", AnalyzeMode::PaperCompat).unwrap();
        assert_eq!(g.name(res), Some("res"));
        assert_eq!(g.string_value(res), "unawendendne");
        let kids = g.children(res);
        // <m> + text "ndendne"
        assert_eq!(kids.len(), 2);
        assert_eq!(g.name(kids[0]), Some("m"));
        assert_eq!(g.string_value(kids[0]), "unawe");
        assert_eq!(g.string_value(kids[1]), "ndendne");
        let m_kids = g.children(kids[0]);
        // "un" text, <a>, "we" text
        assert_eq!(m_kids.len(), 3);
        assert_eq!(g.name(m_kids[1]), Some("a"));
        assert_eq!(g.string_value(m_kids[1]), "a");
    }

    #[test]
    fn multiple_matches_multiple_m() {
        let mut g = GoddagBuilder::new().hierarchy("t", "<r><w>abcabcab</w></r>").build().unwrap();
        let w = g.all_nodes().into_iter().find(|&n| g.name(n) == Some("w")).unwrap();
        let res = analyze_string(&mut g, w, "abc", AnalyzeMode::Xslt).unwrap();
        let m_count = g.children(res).iter().filter(|&&c| g.name(c) == Some("m")).count();
        assert_eq!(m_count, 2);
    }

    #[test]
    fn temp_hierarchy_overlaps_existing_markup() {
        // The motivating case: a match straddling a markup boundary.
        let mut g = GoddagBuilder::new()
            .hierarchy("lines", "<r><line>unawen</line><line>dendne</line></r>")
            .build()
            .unwrap();
        let res = analyze_string(&mut g, NodeId::Root, "wendend", AnalyzeMode::Xslt).unwrap();
        let m = g.children(res)[1]; // text "una", <m>, text "ne"
        assert_eq!(g.name(m), Some("m"));
        assert_eq!(g.string_value(m), "wendend");
        // m overlaps both lines.
        use mhx_goddag::{axis_nodes, Axis};
        let over = axis_nodes(&g, Axis::Overlapping, m);
        let lines: Vec<_> = over.iter().filter(|&&n| g.name(n) == Some("line")).collect();
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn fresh_names_sequence() {
        let mut g = word_goddag();
        let w = g.all_nodes().into_iter().find(|&n| g.name(n) == Some("w")).unwrap();
        analyze_string(&mut g, w, "a", AnalyzeMode::Xslt).unwrap();
        analyze_string(&mut g, w, "b", AnalyzeMode::Xslt).unwrap();
        assert!(g.hierarchy_id("rest").is_some());
        assert!(g.hierarchy_id("rest2").is_some());
    }

    #[test]
    fn no_match_yields_res_with_plain_text() {
        let mut g = word_goddag();
        let w = g.all_nodes().into_iter().find(|&n| g.name(n) == Some("w")).unwrap();
        let res = analyze_string(&mut g, w, "zzz", AnalyzeMode::Xslt).unwrap();
        let kids = g.children(res);
        assert_eq!(kids.len(), 1);
        assert!(kids[0].is_text());
    }

    /// On a thread with the 2 MiB stack a server's workers get, the
    /// deepest accepted fragment pattern compiles and installs its
    /// hierarchy; one tag deeper, or one group deeper, is an error.
    #[test]
    fn pattern_nesting_is_capped_within_a_worker_stack() {
        std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| {
                let max = mhx_regex::parser::MAX_DEPTH;
                let tags =
                    |levels: usize| format!("{}a{}", "<t>".repeat(levels), "</t>".repeat(levels));
                let mut g = word_goddag();
                let res =
                    analyze_string(&mut g, NodeId::Root, &tags(max), AnalyzeMode::Xslt).unwrap();
                assert_eq!(g.children(res).len(), 3, "text, <m>, text");
                for pattern in [tags(max + 1), tags(10_000)] {
                    let err = parse_pattern(&pattern, AnalyzeMode::Xslt).unwrap_err();
                    assert!(err.msg.contains("nested deeper"), "{err}");
                }
                let groups = format!("{}a{}", "(".repeat(max + 1), ")".repeat(max + 1));
                let err = parse_pattern(&groups, AnalyzeMode::Xslt).unwrap_err();
                assert!(err.msg.contains("nested deeper"), "{err}");
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
