//! Export: serialize one hierarchy of a KyGODDAG back to its standalone
//! XML encoding, and the one KyGODDAG node writer.
//!
//! This closes the round trip `encodings → KyGODDAG → encodings`: an
//! editor can load a multihierarchical document, manipulate it (including
//! materializing analyze-string results), and write each hierarchy back as
//! the separate XML files the EPPT-style workflow stores. Virtual
//! hierarchies export too — that is how a search result can be saved as a
//! persistent annotation layer.
//!
//! [`write_node`] is the only code that turns KyGODDAG nodes into markup:
//! the export below and the query result serializer
//! (`mhx_xquery::serialize`) both call it. Each hierarchy's markup is
//! written once, on the first serialization of one of its elements, by
//! one walk over the hierarchy (`Markup`), which records every element's
//! byte range in it. An element answer is then one copy of its range, and
//! a hierarchy's export is the same text between the root's tags, so a
//! query's whole answer is written in one pass into one `String`. The
//! markup is kept beside the hierarchy, never in a snapshot: uploads,
//! reloads and `analyze-string`'s temporary hierarchies pay for it only
//! when one of their elements is written.

use crate::goddag::Goddag;
use crate::hierarchy::{Hierarchy, Kid};
use crate::node::{HierarchyId, NodeId};
use mhx_xml::escape::{escape_attr_into, escape_text_into};

/// Serialize hierarchy `h` of `g` as a standalone XML document with the
/// shared root element. Text regions not covered by the hierarchy's
/// markup (possible for virtual hierarchies) are emitted as plain text,
/// so the output always spells the complete base text `S`.
pub fn hierarchy_to_xml(g: &Goddag, h: HierarchyId) -> String {
    let markup = &Markup::of(g.text(), g.hierarchy(h)).text;
    let root = g.root_name();
    let mut out = String::with_capacity(markup.len() + 2 * root.len() + 5);
    out.push('<');
    out.push_str(root);
    write_attrs(g.attrs(NodeId::Root), &mut out);
    out.push('>');
    out.push_str(markup);
    out.push_str("</");
    out.push_str(root);
    out.push('>');
    out
}

/// Export every hierarchy (including virtual ones) as `(name, xml)` pairs.
pub fn all_hierarchies_to_xml(g: &Goddag) -> Vec<(String, String)> {
    g.hierarchies().map(|(h, hier)| (hier.name.clone(), hierarchy_to_xml(g, h))).collect()
}

/// Append node `n` of `g` to `out` as markup. An element writes its range
/// of its own hierarchy's markup, which the first element written from
/// that hierarchy writes whole: its attributes in document order, then its
/// children, or `<e/>` when it has none. The root, a text node, a leaf or
/// an attribute writes its string value, escaped as text.
pub fn write_node(g: &Goddag, n: NodeId, out: &mut String) {
    match n {
        NodeId::Elem { h, i } => {
            let markup = Markup::of(g.text(), g.hierarchy(h));
            let (s, e) = markup.elems[i as usize];
            out.push_str(&markup.text[s as usize..e as usize]);
        }
        other => escape_text_into(g.string_value(other), out),
    }
}

/// One hierarchy's markup over the base text: the root's children in
/// order, gap text escaped (what [`hierarchy_to_xml`] writes between the
/// root's tags), and each element's half-open byte range in it.
#[derive(Debug, Clone)]
pub(crate) struct Markup {
    text: String,
    /// By element index.
    elems: Vec<(u32, u32)>,
}

impl Markup {
    /// `hier`'s markup over `text`, the base text of every document that
    /// holds it, written by the first caller.
    fn of<'h>(text: &str, hier: &'h Hierarchy) -> &'h Markup {
        hier.markup.get_or_init(|| Markup::write(text, hier))
    }

    /// The one walk over a hierarchy's elements. It recurses once per
    /// level, so `hierarchy::MAX_DEPTH` bounds it.
    fn write(text: &str, hier: &Hierarchy) -> Markup {
        // Every byte of the text, plus each element's tags and attributes
        // unescaped; the text is trimmed to its length at the end, so it
        // holds no growth slack.
        let tags: usize = hier
            .elems
            .iter()
            .map(|e| {
                2 * e.name.len()
                    + 5
                    + e.attrs.iter().map(|(k, v)| k.len() + v.len() + 4).sum::<usize>()
            })
            .sum();
        let mut m = Markup {
            text: String::with_capacity(text.len() + tags),
            elems: vec![(0, 0); hier.elems.len()],
        };
        let mut cursor = 0;
        for &k in &hier.root_children {
            let (s, e) = match k {
                Kid::Elem(i) => hier.elem(i).span,
                Kid::Text(i) => hier.text(i).span,
            };
            escape_text_into(&text[cursor as usize..s as usize], &mut m.text);
            m.write_kid(text, hier, k);
            cursor = e;
        }
        escape_text_into(&text[cursor as usize..], &mut m.text);
        m.text.shrink_to_fit();
        m
    }

    fn write_kid(&mut self, text: &str, hier: &Hierarchy, k: Kid) {
        match k {
            Kid::Elem(i) => self.write_elem(text, hier, i),
            Kid::Text(i) => {
                let (s, e) = hier.text(i).span;
                escape_text_into(&text[s as usize..e as usize], &mut self.text);
            }
        }
    }

    fn write_elem(&mut self, text: &str, hier: &Hierarchy, i: u32) {
        let start = offset(self.text.len());
        let elem = hier.elem(i);
        self.text.push('<');
        self.text.push_str(&elem.name);
        write_attrs(&elem.attrs, &mut self.text);
        if elem.children.is_empty() {
            self.text.push_str("/>");
        } else {
            self.text.push('>');
            for &k in &elem.children {
                self.write_kid(text, hier, k);
            }
            self.text.push_str("</");
            self.text.push_str(&elem.name);
            self.text.push('>');
        }
        self.elems[i as usize] = (start, offset(self.text.len()));
    }
}

/// A byte offset into a hierarchy's markup. The text it spells is
/// `u32`-addressed, but markup is longer than its text, so the conversion
/// is checked: a hierarchy whose markup passes 4 GiB cannot be written.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a hierarchy's markup must stay under 4 GiB")
}

fn write_attrs(attrs: &[(String, String)], out: &mut String) {
    for (k, v) in attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        escape_attr_into(v, out);
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goddag::GoddagBuilder;
    use crate::hierarchy::FragmentSpec;

    const LINES: &str =
        "<r><line>gesceaftum unawendendne sin</line><line>gallice sibbe gecynde þa</line></r>";
    const WORDS: &str = "<r><vline><w>gesceaftum</w> <w>unawendendne</w> </vline><vline><w>singallice</w> <w>sibbe</w> <w>gecynde</w> </vline><vline><w>þa</w></vline></r>";
    const DAMAGE: &str =
        "<r>gesceaftum una<dmg>w</dmg>endendne singallice sibbe gecyn<dmg>de þa</dmg></r>";

    fn figure1ish() -> Goddag {
        GoddagBuilder::new()
            .hierarchy("lines", LINES)
            .hierarchy("words", WORDS)
            .hierarchy("damage", DAMAGE)
            .build()
            .unwrap()
    }

    #[test]
    fn export_round_trips_base_hierarchies() {
        let g = figure1ish();
        let exported = all_hierarchies_to_xml(&g);
        assert_eq!(exported[0], ("lines".to_string(), LINES.to_string()));
        assert_eq!(exported[1], ("words".to_string(), WORDS.to_string()));
        assert_eq!(exported[2], ("damage".to_string(), DAMAGE.to_string()));
    }

    #[test]
    fn export_rebuilds_identical_goddag() {
        let g = figure1ish();
        let mut b = GoddagBuilder::new();
        for (name, xml) in all_hierarchies_to_xml(&g) {
            b = b.hierarchy(name, xml);
        }
        let g2 = b.build().unwrap();
        assert_eq!(g.text(), g2.text());
        assert_eq!(g.leaf_count(), g2.leaf_count());
        assert_eq!(g.all_nodes().len(), g2.all_nodes().len());
    }

    #[test]
    fn virtual_hierarchy_exports_with_gap_text() {
        let mut g = figure1ish();
        // Annotate "unawe" (11..16) inside the text.
        let frag = FragmentSpec::new("hit", (11, 16));
        let h = g.add_virtual_hierarchy("search-results", &[frag]).unwrap();
        let xml = hierarchy_to_xml(&g, h);
        assert_eq!(xml, "<r>gesceaftum <hit>unawe</hit>ndendne singallice sibbe gecynde þa</r>");
        // The export is itself a valid hierarchy over the same text.
        let g2 = GoddagBuilder::new()
            .hierarchy("lines", LINES)
            .hierarchy("search-results", xml)
            .build()
            .unwrap();
        assert_eq!(g2.text(), g.text());
    }

    #[test]
    fn export_escapes_markup_characters() {
        let g = GoddagBuilder::new()
            .hierarchy("a", r#"<r><w k="a&quot;b">x &amp; y</w></r>"#)
            .build()
            .unwrap();
        let xml = hierarchy_to_xml(&g, crate::HierarchyId(0));
        assert_eq!(xml, r#"<r><w k="a&quot;b">x &amp; y</w></r>"#);
        // Re-parses cleanly.
        mhx_xml::parse(&xml).unwrap();
    }

    #[test]
    fn empty_elements_export_self_closed() {
        let g = GoddagBuilder::new().hierarchy("a", "<r>ab<br/>cd</r>").build().unwrap();
        let xml = hierarchy_to_xml(&g, crate::HierarchyId(0));
        assert_eq!(xml, "<r>ab<br/>cd</r>");
    }

    /// The oracle for [`hierarchy_to_xml`]: the root's children walked,
    /// gap text escaped between them, as every export was written before
    /// hierarchies kept their markup.
    fn walk_export(g: &Goddag, h: HierarchyId) -> String {
        let (text, hier) = (g.text(), g.hierarchy(h));
        let mut out = format!("<{}", g.root_name());
        write_attrs(g.attrs(NodeId::Root), &mut out);
        out.push('>');
        let mut cursor = 0;
        for &k in &hier.root_children {
            let (s, e) = match k {
                Kid::Elem(i) => hier.elem(i).span,
                Kid::Text(i) => hier.text(i).span,
            };
            escape_text_into(&text[cursor as usize..s as usize], &mut out);
            walk_kid(text, hier, k, &mut out);
            cursor = e;
        }
        escape_text_into(&text[cursor as usize..], &mut out);
        out + "</" + g.root_name() + ">"
    }

    fn walk_kid(text: &str, hier: &Hierarchy, k: Kid, out: &mut String) {
        match k {
            Kid::Elem(i) => walk_elem(text, hier, i, out),
            Kid::Text(i) => {
                let (s, e) = hier.text(i).span;
                escape_text_into(&text[s as usize..e as usize], out);
            }
        }
    }

    /// The oracle for an element answer: its subtree walked, as every
    /// answer was written before hierarchies kept their markup.
    fn walk_elem(text: &str, hier: &Hierarchy, i: u32, out: &mut String) {
        let elem = hier.elem(i);
        out.push('<');
        out.push_str(&elem.name);
        write_attrs(&elem.attrs, out);
        if elem.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for &k in &elem.children {
            walk_kid(text, hier, k, out);
        }
        out.push_str("</");
        out.push_str(&elem.name);
        out.push('>');
    }

    /// Every element of every hierarchy of `g`, written by [`write_node`]
    /// and by the walk.
    fn assert_answers_match_the_walk(g: &Goddag) {
        for (h, hier) in g.hierarchies() {
            for i in 0..hier.element_count() as u32 {
                let (mut answer, mut walked) = (String::new(), String::new());
                write_node(g, NodeId::Elem { h, i }, &mut answer);
                walk_elem(g.text(), hier, i, &mut walked);
                assert_eq!(answer, walked, "hierarchy {} element {i}", hier.name);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// On random documents plus a virtual hierarchy with gap text,
        /// empty elements and attribute values to escape, each element
        /// answer and each export is the walk's.
        #[test]
        fn element_answers_are_the_walk(
            doc in crate::proptests::arb_doc(),
            cuts in proptest::collection::vec(0usize..24, 0..8),
        ) {
            let mut g = crate::proptests::build(&doc);
            let len = g.text().len() as u32;
            let mut cuts: Vec<u32> = cuts.into_iter().map(|c| c as u32 % (len + 1)).collect();
            cuts.sort_unstable();
            // Each pair of cuts is an element holding one empty element;
            // the text between pairs stays a gap.
            let frags: Vec<FragmentSpec> = cuts
                .chunks_exact(2)
                .map(|pair| {
                    let mut f = FragmentSpec::new("v", (pair[0], pair[1]))
                        .child(FragmentSpec::new("e", (pair[0], pair[0])));
                    f.attrs.push(("q".into(), "<&\">".into()));
                    f
                })
                .collect();
            g.add_virtual_hierarchy("virtual", &frags).unwrap();
            assert_answers_match_the_walk(&g);
            for (h, _) in g.hierarchies() {
                proptest::prop_assert_eq!(hierarchy_to_xml(&g, h), walk_export(&g, h));
            }
        }
    }

    /// The first answer from a hierarchy at the deepest nesting it may
    /// hold writes the whole hierarchy's markup, recursing once per
    /// level, within a worker's 2 MiB stack.
    #[test]
    fn the_deepest_element_is_written_first_within_a_worker_stack() {
        use crate::hierarchy::MAX_DEPTH;
        std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| {
                let xml =
                    format!("<r>{}x{}</r>", "<e>".repeat(MAX_DEPTH), "</e>".repeat(MAX_DEPTH));
                let mut g = GoddagBuilder::new().hierarchy("deep", xml).build().unwrap();
                let h = HierarchyId(0);
                let deepest = MAX_DEPTH as u32 - 1;
                let mut answer = String::new();
                write_node(&g, NodeId::Elem { h, i: deepest }, &mut answer);
                assert_eq!(answer, "<e>x</e>");
                let chain = (1..MAX_DEPTH).fold(FragmentSpec::new("v", (0, 1)), |inner, _| {
                    FragmentSpec::new("v", (0, 1)).child(inner)
                });
                let v = g.add_virtual_hierarchy("chain", &[chain]).unwrap();
                answer.clear();
                write_node(&g, NodeId::Elem { h: v, i: deepest }, &mut answer);
                assert_eq!(answer, "<v>x</v>");
                assert_answers_match_the_walk(&g);
            })
            .unwrap()
            .join()
            .unwrap();
    }

    /// A hierarchy added after others were written gets markup of its
    /// own, the written ones keep theirs, and a virtual hierarchy removed
    /// and replaced leaves nothing of its markup to the next.
    #[test]
    fn added_hierarchies_answer_like_the_walk() {
        let mut g = figure1ish();
        assert_answers_match_the_walk(&g);
        let doc = mhx_xml::parse(
            "<r>gesceaftum unawendendne <x n=\"&lt;\">sin</x>gallice sibbe gecynde þa</r>",
        )
        .unwrap();
        g.add_document_hierarchy("more", &doc).unwrap();
        let hit = FragmentSpec::new("hit", (11, 16)).child(FragmentSpec::new("e", (13, 13)));
        let v = g.add_virtual_hierarchy("search-results", &[hit]).unwrap();
        assert_answers_match_the_walk(&g);
        let mut answer = String::new();
        write_node(&g, NodeId::Elem { h: v, i: 0 }, &mut answer);
        assert_eq!(answer, "<hit>un<e/>awe</hit>");
        g.remove_last_hierarchy().unwrap();
        let v2 = g.add_virtual_hierarchy("other", &[FragmentSpec::new("m", (0, 4))]).unwrap();
        assert_eq!(v2, v);
        answer.clear();
        write_node(&g, NodeId::Elem { h: v2, i: 0 }, &mut answer);
        assert_eq!(answer, "<m>gesc</m>");
        assert_answers_match_the_walk(&g);
    }

    #[test]
    #[should_panic(expected = "under 4 GiB")]
    fn markup_offsets_never_truncate() {
        offset(u32::MAX as usize + 1);
    }
}
