//! One markup hierarchy: an arena of element/text nodes with character
//! spans over the base text `S`.
//!
//! The hierarchy's own document root is not stored — it is identified with
//! the shared KyGODDAG root ([`crate::NodeId::Root`]); its children become
//! `root_children`.

use crate::error::{GoddagError, Result};
use crate::export::Markup;
use mhx_xml::{Document, NodeId as XmlId, NodeKind};
use std::sync::OnceLock;

/// The deepest nesting of elements a hierarchy may hold, counted from the
/// children of the root. Building a hierarchy, and several later passes
/// over it (writing its markup, which every element answer and export
/// reads), recurse once per level, so the cap keeps a hostile upload
/// within a worker's stack. It leaves room for an `analyze-string`
/// hierarchy over the deepest pattern `mhx-regex` accepts (its groups,
/// inside `<res>` and `<m>`).
pub const MAX_DEPTH: usize = 512;

/// Parent link within a hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Parent {
    Root,
    Elem(u32),
}

/// Child link within a hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kid {
    Elem(u32),
    Text(u32),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElemNode {
    pub name: String,
    pub attrs: Vec<(String, String)>,
    /// Half-open byte span over `S`.
    pub span: (u32, u32),
    pub(crate) parent: Parent,
    pub(crate) children: Vec<Kid>,
    /// Preorder index within the hierarchy (Definition 3 `major` key).
    pub order: u32,
    /// Highest preorder index in this element's subtree (for the standard
    /// `following`/`preceding` axes).
    pub subtree_last: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextNode {
    pub span: (u32, u32),
    pub(crate) parent: Parent,
    pub order: u32,
}

/// Programmatic element spec for virtual hierarchies (used by
/// `analyze-string()`): an element with an absolute span and nested
/// children; text nodes are created automatically in the uncovered gaps.
#[derive(Debug, Clone)]
pub struct FragmentSpec {
    pub name: String,
    pub attrs: Vec<(String, String)>,
    pub span: (u32, u32),
    pub children: Vec<FragmentSpec>,
}

impl FragmentSpec {
    pub fn new(name: impl Into<String>, span: (u32, u32)) -> FragmentSpec {
        FragmentSpec { name: name.into(), attrs: Vec::new(), span, children: Vec::new() }
    }

    pub fn child(mut self, c: FragmentSpec) -> FragmentSpec {
        self.children.push(c);
        self
    }
}

/// One hierarchy of a KyGODDAG.
///
/// A hierarchy is immutable once built: a [`crate::Goddag`] holds it
/// behind an `Arc` that nothing mutates through (no `Arc::make_mut`), so
/// clones of the document, the copy-on-write evaluator's among them, share
/// it whole. Its markup relies on that: written once, on the first
/// serialization of one of its elements, it stays valid for the
/// hierarchy's lifetime and is shared by every holder of the `Arc`.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    pub name: String,
    pub(crate) elems: Vec<ElemNode>,
    pub(crate) texts: Vec<TextNode>,
    pub(crate) root_children: Vec<Kid>,
    pub(crate) is_virtual: bool,
    /// `(span.0, text index)` sorted by start, for "which text node covers
    /// offset x" lookups (leaf → parent edges).
    pub(crate) text_starts: Vec<(u32, u32)>,
    /// The hierarchy's markup, written on first use
    /// ([`crate::export::write_node`]); never stored in a snapshot.
    pub(crate) markup: OnceLock<Markup>,
}

impl Hierarchy {
    pub fn elem(&self, i: u32) -> &ElemNode {
        &self.elems[i as usize]
    }

    pub fn text(&self, i: u32) -> &TextNode {
        &self.texts[i as usize]
    }

    pub fn element_count(&self) -> usize {
        self.elems.len()
    }

    pub fn text_count(&self) -> usize {
        self.texts.len()
    }

    pub fn is_virtual(&self) -> bool {
        self.is_virtual
    }

    /// Text node covering byte offset `off`, if any.
    pub(crate) fn text_covering(&self, off: u32) -> Option<u32> {
        let idx = self.text_starts.partition_point(|&(s, _)| s <= off);
        if idx == 0 {
            return None;
        }
        let (_, ti) = self.text_starts[idx - 1];
        let t = self.text(ti);
        // Empty text nodes never cover anything.
        if t.span.0 <= off && off < t.span.1 {
            Some(ti)
        } else {
            None
        }
    }

    pub(crate) fn finish(&mut self) {
        self.text_starts = self
            .texts
            .iter()
            .enumerate()
            .filter(|(_, t)| t.span.0 < t.span.1)
            .map(|(i, t)| (t.span.0, i as u32))
            .collect();
        self.text_starts.sort_unstable();
    }

    /// Build from a parsed XML document. Returns the hierarchy and the text
    /// `S` it encodes. Comments and PIs are skipped (they carry no text).
    pub(crate) fn from_document(name: &str, doc: &Document) -> Result<(Hierarchy, String)> {
        let root = doc.root_element()?;
        let mut h = Hierarchy {
            name: name.to_string(),
            elems: Vec::new(),
            texts: Vec::new(),
            root_children: Vec::new(),
            is_virtual: false,
            text_starts: Vec::new(),
            markup: OnceLock::new(),
        };
        let mut text = String::new();
        let mut order = 0u32;
        let mut root_kids = Vec::new();
        for c in doc.children(root) {
            if let Some(kid) = h.convert(doc, c, Parent::Root, &mut text, &mut order, 1)? {
                root_kids.push(kid);
            }
        }
        h.root_children = root_kids;
        h.finish();
        Ok((h, text))
    }

    /// Convert `node`, an element at `depth` (1 for a child of the root),
    /// and its subtree.
    fn convert(
        &mut self,
        doc: &Document,
        node: XmlId,
        parent: Parent,
        text: &mut String,
        order: &mut u32,
        depth: usize,
    ) -> Result<Option<Kid>> {
        Ok(match doc.kind(node) {
            NodeKind::Text(t) => {
                let start = text.len() as u32;
                text.push_str(t);
                let idx = self.texts.len() as u32;
                self.texts.push(TextNode {
                    span: (start, text.len() as u32),
                    parent,
                    order: *order,
                });
                *order += 1;
                Some(Kid::Text(idx))
            }
            NodeKind::Element { .. } if depth > MAX_DEPTH => {
                return Err(GoddagError::TooDeep { hierarchy: self.name.clone() });
            }
            NodeKind::Element { name, attrs } => {
                let idx = self.elems.len() as u32;
                let my_order = *order;
                *order += 1;
                self.elems.push(ElemNode {
                    name: name.clone(),
                    attrs: attrs.iter().map(|a| (a.name.clone(), a.value.clone())).collect(),
                    span: (text.len() as u32, 0),
                    parent,
                    children: Vec::new(),
                    order: my_order,
                    subtree_last: my_order,
                });
                let mut kids = Vec::new();
                for c in doc.children(node) {
                    if let Some(kid) =
                        self.convert(doc, c, Parent::Elem(idx), text, order, depth + 1)?
                    {
                        kids.push(kid);
                    }
                }
                let e = &mut self.elems[idx as usize];
                e.span.1 = text.len() as u32;
                e.children = kids;
                e.subtree_last = order.saturating_sub(1).max(my_order);
                Some(Kid::Elem(idx))
            }
            // Comments/PIs contribute neither structure nor text.
            _ => None,
        })
    }

    /// Build a (virtual) hierarchy from fragment specs with absolute spans.
    /// `text_len` bounds the spans; children must be in order, disjoint and
    /// inside their parents. Gaps inside each element become text nodes;
    /// gaps at root level stay unannotated.
    pub(crate) fn from_fragments(
        name: &str,
        frags: &[FragmentSpec],
        text: &str,
    ) -> Result<Hierarchy> {
        let mut h = Hierarchy {
            name: name.to_string(),
            elems: Vec::new(),
            texts: Vec::new(),
            root_children: Vec::new(),
            is_virtual: true,
            text_starts: Vec::new(),
            markup: OnceLock::new(),
        };
        check_siblings(name, frags, (0, text.len() as u32), text, 1)?;
        let mut order = 0u32;
        let mut root_kids = Vec::new();
        for f in frags {
            root_kids.push(Kid::Elem(h.convert_fragment(f, Parent::Root, &mut order)));
        }
        h.root_children = root_kids;
        h.finish();
        Ok(h)
    }

    fn convert_fragment(&mut self, f: &FragmentSpec, parent: Parent, order: &mut u32) -> u32 {
        let idx = self.elems.len() as u32;
        let my_order = *order;
        *order += 1;
        self.elems.push(ElemNode {
            name: f.name.clone(),
            attrs: f.attrs.clone(),
            span: f.span,
            parent,
            children: Vec::new(),
            order: my_order,
            subtree_last: my_order,
        });
        let mut kids = Vec::new();
        let mut cursor = f.span.0;
        for c in &f.children {
            if c.span.0 > cursor {
                kids.push(self.push_text((cursor, c.span.0), Parent::Elem(idx), order));
            }
            kids.push(Kid::Elem(self.convert_fragment(c, Parent::Elem(idx), order)));
            cursor = c.span.1;
        }
        if cursor < f.span.1 {
            kids.push(self.push_text((cursor, f.span.1), Parent::Elem(idx), order));
        }
        let e = &mut self.elems[idx as usize];
        e.children = kids;
        e.subtree_last = order.saturating_sub(1).max(my_order);
        idx
    }

    fn push_text(&mut self, span: (u32, u32), parent: Parent, order: &mut u32) -> Kid {
        let idx = self.texts.len() as u32;
        self.texts.push(TextNode { span, parent, order: *order });
        *order += 1;
        Kid::Text(idx)
    }
}

/// Check `frags`, siblings at `depth` inside a `parent` span, and their
/// subtrees.
fn check_siblings(
    name: &str,
    frags: &[FragmentSpec],
    parent: (u32, u32),
    text: &str,
    depth: usize,
) -> Result<()> {
    if depth > MAX_DEPTH && !frags.is_empty() {
        return Err(GoddagError::TooDeep { hierarchy: name.to_string() });
    }
    let mut cursor = parent.0;
    for f in frags {
        let (s, e) = f.span;
        if s > e || e > text.len() as u32 {
            return Err(GoddagError::BadSpan {
                start: s as usize,
                end: e as usize,
                len: text.len(),
            });
        }
        if !text.is_char_boundary(s as usize) || !text.is_char_boundary(e as usize) {
            return Err(GoddagError::BadSpan {
                start: s as usize,
                end: e as usize,
                len: text.len(),
            });
        }
        if s < cursor || e > parent.1 {
            return Err(GoddagError::OverlappingFragments);
        }
        check_siblings(name, &f.children, f.span, text, depth + 1)?;
        cursor = e;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhx_xml::parse;

    #[test]
    fn from_document_spans() {
        let doc = parse("<r><line>abc</line><line>defg</line></r>").unwrap();
        let (h, text) = Hierarchy::from_document("lines", &doc).unwrap();
        assert_eq!(text, "abcdefg");
        assert_eq!(h.element_count(), 2);
        assert_eq!(h.text_count(), 2);
        assert_eq!(h.elem(0).span, (0, 3));
        assert_eq!(h.elem(1).span, (3, 7));
        assert_eq!(h.text(0).span, (0, 3));
        assert_eq!(h.elem(0).name, "line");
    }

    #[test]
    fn preorder_and_subtree_last() {
        let doc = parse("<r><a>x<b>y</b></a>z</r>").unwrap();
        let (h, _) = Hierarchy::from_document("t", &doc).unwrap();
        // preorder: a=0, text x=1, b=2, text y=3, text z=4
        let a = h.elem(0);
        assert_eq!(a.order, 0);
        assert_eq!(a.subtree_last, 3);
        let b = h.elem(1);
        assert_eq!(b.order, 2);
        assert_eq!(b.subtree_last, 3);
        assert_eq!(h.text(2).order, 4);
    }

    #[test]
    fn text_covering_lookup() {
        let doc = parse("<r><w>abc</w> <w>de</w></r>").unwrap();
        let (h, text) = Hierarchy::from_document("words", &doc).unwrap();
        assert_eq!(text, "abc de");
        // texts: "abc" (0..3), " " (3..4), "de" (4..6)
        assert_eq!(h.text_covering(0), Some(0));
        assert_eq!(h.text_covering(2), Some(0));
        assert_eq!(h.text_covering(3), Some(1));
        assert_eq!(h.text_covering(5), Some(2));
        assert_eq!(h.text_covering(6), None);
    }

    #[test]
    fn attrs_preserved() {
        let doc = parse(r#"<r id="top"><w part="I">x</w></r>"#).unwrap();
        let (h, _) = Hierarchy::from_document("t", &doc).unwrap();
        assert_eq!(h.elem(0).attrs, vec![("part".to_string(), "I".to_string())]);
    }

    #[test]
    fn comments_skipped() {
        let doc = parse("<r><!--c-->ab<?pi?></r>").unwrap();
        let (h, text) = Hierarchy::from_document("t", &doc).unwrap();
        assert_eq!(text, "ab");
        assert_eq!(h.element_count(), 0);
        assert_eq!(h.text_count(), 1);
        assert_eq!(h.root_children.len(), 1);
    }

    #[test]
    fn fragments_autofill_text() {
        // <res>[0..12) with <m>[2..7)<m2... text gaps auto-created.
        let text = "unawendendne";
        let spec = FragmentSpec::new("res", (0, 12)).child(FragmentSpec::new("m", (0, 5)));
        let h = Hierarchy::from_fragments("rest", &[spec], text).unwrap();
        assert_eq!(h.element_count(), 2);
        // m has a text node 0..5; res has a trailing text node 5..12.
        assert_eq!(h.text_count(), 2);
        assert_eq!(h.text(0).span, (0, 5));
        assert_eq!(h.text(1).span, (5, 12));
        assert!(h.is_virtual());
    }

    #[test]
    fn fragments_nested_groups() {
        // res{m{ un(a)we }}: m 0..5 with group a at 2..3.
        let text = "unawendendne";
        let spec = FragmentSpec::new("res", (0, 12))
            .child(FragmentSpec::new("m", (0, 5)).child(FragmentSpec::new("a", (2, 3))));
        let h = Hierarchy::from_fragments("rest", &[spec], text).unwrap();
        // elements: res, m, a; texts: "un"(0..2) in m, "a"(2..3) in a,
        // "we"(3..5) in m, "ndendne"(5..12) in res.
        assert_eq!(h.element_count(), 3);
        assert_eq!(h.text_count(), 4);
        let spans: Vec<_> = h.texts.iter().map(|t| t.span).collect();
        assert!(spans.contains(&(0, 2)));
        assert!(spans.contains(&(2, 3)));
        assert!(spans.contains(&(3, 5)));
        assert!(spans.contains(&(5, 12)));
    }

    #[test]
    fn fragments_validate_spans() {
        let text = "abcdef";
        // out of bounds
        assert!(Hierarchy::from_fragments("v", &[FragmentSpec::new("x", (0, 99))], text).is_err());
        // overlapping siblings
        let f1 = FragmentSpec::new("x", (0, 4));
        let f2 = FragmentSpec::new("y", (2, 6));
        assert!(Hierarchy::from_fragments("v", &[f1, f2], text).is_err());
        // child escapes parent
        let bad = FragmentSpec::new("x", (1, 3)).child(FragmentSpec::new("y", (0, 2)));
        assert!(Hierarchy::from_fragments("v", &[bad], text).is_err());
        // reversed span
        assert!(Hierarchy::from_fragments(
            "v",
            &[FragmentSpec { name: "x".into(), attrs: vec![], span: (3, 1), children: vec![] }],
            text
        )
        .is_err());
    }

    #[test]
    fn fragments_reject_non_char_boundary() {
        let text = "þa"; // þ occupies bytes 0..2
        assert!(Hierarchy::from_fragments("v", &[FragmentSpec::new("x", (1, 2))], text).is_err());
        assert!(Hierarchy::from_fragments("v", &[FragmentSpec::new("x", (0, 2))], text).is_ok());
    }

    #[test]
    fn empty_elements_have_empty_spans() {
        let doc = parse("<r>ab<br/>cd</r>").unwrap();
        let (h, text) = Hierarchy::from_document("t", &doc).unwrap();
        assert_eq!(text, "abcd");
        assert_eq!(h.elem(0).span, (2, 2));
    }
}
