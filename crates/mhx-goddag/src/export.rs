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
//! (`mhx_xquery::serialize`) both call it. It appends to the caller's
//! buffer, walks an element's children where the hierarchy stores them
//! (no list is collected per element), and escapes text in runs straight
//! into the buffer, so a query's whole answer is written in one pass into
//! one `String`.

use crate::goddag::Goddag;
use crate::hierarchy::{Hierarchy, Kid};
use crate::node::{HierarchyId, NodeId};
use mhx_xml::escape::{escape_attr_into, escape_text_into};

/// Serialize hierarchy `h` of `g` as a standalone XML document with the
/// shared root element. Text regions not covered by the hierarchy's
/// markup (possible for virtual hierarchies) are emitted as plain text,
/// so the output always spells the complete base text `S`.
pub fn hierarchy_to_xml(g: &Goddag, h: HierarchyId) -> String {
    let text = g.text();
    let hier = g.hierarchy(h);
    let mut out = String::with_capacity(text.len() * 2);
    out.push('<');
    out.push_str(g.root_name());
    write_attrs(g.attrs(NodeId::Root), &mut out);
    out.push('>');
    // The hierarchy's top-level nodes, with gap text filled from S
    // (virtual hierarchies may not cover everything).
    let mut cursor = 0;
    for &k in &hier.root_children {
        let (s, e) = match k {
            Kid::Elem(i) => hier.elem(i).span,
            Kid::Text(i) => hier.text(i).span,
        };
        escape_text_into(&text[cursor as usize..s as usize], &mut out);
        write_kid(text, hier, k, &mut out);
        cursor = e;
    }
    escape_text_into(&text[cursor as usize..], &mut out);
    out.push_str("</");
    out.push_str(g.root_name());
    out.push('>');
    out
}

/// Export every hierarchy (including virtual ones) as `(name, xml)` pairs.
pub fn all_hierarchies_to_xml(g: &Goddag) -> Vec<(String, String)> {
    g.hierarchies().map(|(h, hier)| (hier.name.clone(), hierarchy_to_xml(g, h))).collect()
}

/// Append node `n` of `g` to `out` as markup. An element writes its own
/// hierarchy's markup: its attributes in document order, then its
/// children, or `<e/>` when it has none. The root, a text node, a leaf or
/// an attribute writes its string value, escaped as text.
pub fn write_node(g: &Goddag, n: NodeId, out: &mut String) {
    match n {
        NodeId::Elem { h, i } => write_elem(g.text(), g.hierarchy(h), i, out),
        other => escape_text_into(g.string_value(other), out),
    }
}

fn write_kid(text: &str, hier: &Hierarchy, k: Kid, out: &mut String) {
    match k {
        Kid::Elem(i) => write_elem(text, hier, i, out),
        Kid::Text(i) => {
            let (s, e) = hier.text(i).span;
            escape_text_into(&text[s as usize..e as usize], out);
        }
    }
}

fn write_elem(text: &str, hier: &Hierarchy, i: u32, out: &mut String) {
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
        write_kid(text, hier, k, out);
    }
    out.push_str("</");
    out.push_str(&elem.name);
    out.push('>');
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
}
