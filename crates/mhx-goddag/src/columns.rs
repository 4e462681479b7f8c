//! Columnar (de)serialization of a [`Goddag`].
//!
//! The on-disk snapshot format (`mhx-store`) is a framed sequence of
//! *sections*; this module defines the section payloads — flat,
//! little-endian, length-prefixed byte columns — and the two conversions:
//!
//! * [`dissect`] lays a goddag out as two sections, META (the text and
//!   the root) and HIERARCHIES (each hierarchy's nodes);
//! * [`assemble`] rebuilds the goddag from them, so a reloaded document is
//!   indistinguishable from a freshly parsed one.
//!
//! A snapshot holds the document, not its structural index: a loader
//! rebuilds the index with `StructIndex::build`, the function an upload
//! runs, which costs about what decoding a stored copy of it did. Of each
//! hierarchy only what nothing else determines is stored: every element's
//! name, attributes, span and child links, every text node's span, and
//! the root's child links. The rest is derived on load: parent links,
//! preorder numbers and subtree ends by one walk of the child links, each
//! hierarchy's `text_starts`, and the leaf boundaries and
//! `base_count`/`version` by installing each hierarchy as the builder does
//! (one sort-and-merge of its endpoints into the leaf layer).
//!
//! `assemble` never panics on malformed input: every read is
//! bounds-checked, strings are UTF-8 validated, and spans are checked
//! against the text (bounds and char boundaries). The walk follows each
//! hierarchy's child links from its root children with an explicit
//! stack, and they must form one tree laid out in preorder: every element
//! and text node is met exactly once, element `i` is the `i`-th element
//! met and text `j` the `j`-th text met (the order `Goddag::all_nodes`
//! merges by), and no element lies deeper than [`MAX_DEPTH`], which every
//! later recursive pass over a hierarchy relies on. Malformed input yields
//! a [`ColumnsError`].
//!
//! The payloads carry no magic, no checksums and no versioning — framing
//! integrity is the container's job (`mhx-store` adds magic, a format
//! version and a per-section checksum).

use crate::goddag::Goddag;
use crate::hierarchy::{ElemNode, Hierarchy, Kid, Parent, TextNode, MAX_DEPTH};
use std::fmt;
use std::sync::OnceLock;

/// Section kinds. The container stores the kind tag next to each payload;
/// unknown kinds are ignored by [`assemble`] (forward compatibility).
pub const SEC_META: u32 = 1;
/// Hierarchy arenas: element and text nodes, and the root's child links.
pub const SEC_HIERARCHIES: u32 = 2;

/// One snapshot section: a kind tag and its payload bytes.
#[derive(Debug, Clone)]
pub struct Section {
    pub kind: u32,
    pub bytes: Vec<u8>,
}

/// Malformed section payload (truncation, bad UTF-8, out-of-range link…).
#[derive(Debug, Clone)]
pub struct ColumnsError {
    pub detail: String,
}

impl fmt::Display for ColumnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.detail)
    }
}

impl std::error::Error for ColumnsError {}

fn bad(detail: impl Into<String>) -> ColumnsError {
    ColumnsError { detail: detail.into() }
}

// ---------- little-endian writer ----------

#[derive(Default)]
struct W {
    buf: Vec<u8>,
}

impl W {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn pairs(&mut self, attrs: &[(String, String)]) {
        self.u32(attrs.len() as u32);
        for (k, v) in attrs {
            self.str(k);
            self.str(v);
        }
    }
    fn span(&mut self, (s, e): (u32, u32)) {
        self.u32(s);
        self.u32(e);
    }
    fn kids(&mut self, kids: &[Kid]) {
        self.u32(kids.len() as u32);
        for &k in kids {
            match k {
                Kid::Elem(i) => {
                    self.u8(0);
                    self.u32(i);
                }
                Kid::Text(i) => {
                    self.u8(1);
                    self.u32(i);
                }
            }
        }
    }
    fn hierarchy(&mut self, h: &Hierarchy) {
        self.str(&h.name);
        self.u8(h.is_virtual as u8);
        self.u32(h.elems.len() as u32);
        for e in &h.elems {
            self.str(&e.name);
            self.pairs(&e.attrs);
            self.span(e.span);
            self.kids(&e.children);
        }
        self.u32(h.texts.len() as u32);
        for t in &h.texts {
            self.span(t.span);
        }
        self.kids(&h.root_children);
    }
}

// ---------- little-endian reader ----------

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn new(buf: &'a [u8]) -> R<'a> {
        R { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ColumnsError> {
        if self.remaining() < n {
            return Err(bad(format!(
                "truncated section: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ColumnsError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ColumnsError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Element count for a vec whose items occupy at least `min_item`
    /// bytes — rejects counts the remaining payload cannot possibly hold,
    /// so corrupt lengths fail instead of attempting huge allocations.
    fn count(&mut self, min_item: usize) -> Result<usize, ColumnsError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item.max(1)) > self.remaining() {
            return Err(bad(format!(
                "implausible count {n} (≥{} bytes each, {} left)",
                min_item.max(1),
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, ColumnsError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("invalid UTF-8 in string"))
    }

    fn pairs(&mut self) -> Result<Vec<(String, String)>, ColumnsError> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let k = self.str()?;
            let v = self.str()?;
            out.push((k, v));
        }
        Ok(out)
    }

    /// A span of `text`: in bounds, ordered, on char boundaries.
    fn span(&mut self, text: &str, what: &str) -> Result<(u32, u32), ColumnsError> {
        let (s, e) = (self.u32()?, self.u32()?);
        if s > e || e as usize > text.len() {
            return Err(bad(format!(
                "{what} span {s}..{e} out of bounds (text len {})",
                text.len()
            )));
        }
        if !text.is_char_boundary(s as usize) || !text.is_char_boundary(e as usize) {
            return Err(bad(format!("{what} span {s}..{e} not on char boundaries")));
        }
        Ok((s, e))
    }

    fn kids(&mut self) -> Result<Vec<Kid>, ColumnsError> {
        let n = self.count(5)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(match self.u8()? {
                0 => Kid::Elem(self.u32()?),
                1 => Kid::Text(self.u32()?),
                t => return Err(bad(format!("unknown child tag {t}"))),
            });
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), ColumnsError> {
        if self.remaining() != 0 {
            return Err(bad(format!("{} trailing bytes in section", self.remaining())));
        }
        Ok(())
    }
}

// ---------- dissect ----------

/// Lay `g` out as snapshot sections. Identical documents produce
/// identical bytes (stable checksums).
pub fn dissect(g: &Goddag) -> Vec<Section> {
    let mut meta = W::default();
    meta.str(g.text());
    meta.str(g.root_name());
    meta.pairs(g.root_attr_pairs());

    let mut hs = W::default();
    hs.u32(g.hierarchy_count() as u32);
    for (_, h) in g.hierarchies() {
        hs.hierarchy(h);
    }

    vec![
        Section { kind: SEC_META, bytes: meta.buf },
        Section { kind: SEC_HIERARCHIES, bytes: hs.buf },
    ]
}

// ---------- assemble ----------

fn section<'a>(sections: &'a [Section], kind: u32, name: &str) -> Result<&'a [u8], ColumnsError> {
    let mut found = None;
    for s in sections {
        if s.kind == kind {
            if found.is_some() {
                return Err(bad(format!("duplicate {name} section")));
            }
            found = Some(s.bytes.as_slice());
        }
    }
    found.ok_or_else(|| bad(format!("missing {name} section")))
}

/// Rebuild a goddag from snapshot sections. Unknown section kinds are
/// ignored; missing or malformed sections error. The result is a new
/// document (a fresh [`Goddag::doc_id`]), so no index built for another
/// passes as current for it.
pub fn assemble(sections: &[Section]) -> Result<Goddag, ColumnsError> {
    // META: text, root name, root attributes.
    let mut r = R::new(section(sections, SEC_META, "meta")?);
    let text = r.str()?;
    let root_name = r.str()?;
    let root_attrs = r.pairs()?;
    r.finish()?;

    // HIERARCHIES: arenas, validated against the text, linked by one walk,
    // then `finish()`ed to re-derive the text-start lookup column.
    let mut r = R::new(section(sections, SEC_HIERARCHIES, "hierarchies")?);
    // A name, the virtual flag and three counts.
    let hier_count = r.count(17)?;
    let mut hierarchies = Vec::with_capacity(hier_count);
    for hi in 0..hier_count {
        let name = r.str()?;
        let is_virtual = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(bad(format!("hierarchy {hi}: bad virtual flag {t}"))),
        };
        // A name, an attribute count, a span and a child count.
        let elem_count = r.count(20)?;
        let mut elems = Vec::with_capacity(elem_count);
        for _ in 0..elem_count {
            let name = r.str()?;
            let attrs = r.pairs()?;
            let span = r.span(&text, "element")?;
            let children = r.kids()?;
            // The parent link, order and subtree end are set by `link`.
            elems.push(ElemNode {
                name,
                attrs,
                span,
                parent: Parent::Root,
                children,
                order: 0,
                subtree_last: 0,
            });
        }
        let text_count = r.count(8)?;
        let mut texts = Vec::with_capacity(text_count);
        for _ in 0..text_count {
            let span = r.span(&text, "text node")?;
            texts.push(TextNode { span, parent: Parent::Root, order: 0 });
        }
        let root_children = r.kids()?;
        let mut h = Hierarchy {
            name,
            elems,
            texts,
            root_children,
            is_virtual,
            text_starts: Vec::new(),
            markup: OnceLock::new(),
        };
        link(&mut h).map_err(|detail| bad(format!("hierarchy {hi}: {detail}")))?;
        h.finish();
        hierarchies.push(h);
    }
    r.finish()?;

    Ok(Goddag::from_parts(text, root_name, root_attrs, hierarchies))
}

/// Walk `h`'s child links in preorder from its root children, with an
/// explicit stack, and record what the builder records as it converts:
/// each node's parent and preorder number, and each element's subtree
/// end. The links must form one tree over the whole arena in the arena's
/// order: every node met once, element `i` the `i`-th element met, text
/// `j` the `j`-th text met, and no element deeper than [`MAX_DEPTH`].
fn link(h: &mut Hierarchy) -> Result<(), String> {
    let (mut elems, mut texts, mut order) = (0usize, 0usize, 0u32);
    // The open elements under the root, each with its next child's
    // position; the stack's length is the depth of a child met next.
    let mut stack = vec![(Parent::Root, 0usize)];
    while let Some(&(parent, at)) = stack.last() {
        let kids = match parent {
            Parent::Root => &h.root_children,
            Parent::Elem(p) => &h.elems[p as usize].children,
        };
        let Some(&kid) = kids.get(at) else {
            stack.pop();
            if let Parent::Elem(p) = parent {
                h.elems[p as usize].subtree_last = order - 1;
            }
            continue;
        };
        stack.last_mut().expect("the frame just read").1 += 1;
        match kid {
            Kid::Elem(i) => {
                if i as usize != elems || elems == h.elems.len() {
                    return Err(format!("element {i} met where element {elems} comes in preorder"));
                }
                if stack.len() > MAX_DEPTH {
                    return Err(format!("element {i} nests deeper than {MAX_DEPTH}"));
                }
                let e = &mut h.elems[elems];
                e.parent = parent;
                e.order = order;
                stack.push((Parent::Elem(i), 0));
                elems += 1;
            }
            Kid::Text(j) => {
                if j as usize != texts || texts == h.texts.len() {
                    return Err(format!("text {j} met where text {texts} comes in preorder"));
                }
                let t = &mut h.texts[texts];
                t.parent = parent;
                t.order = order;
                texts += 1;
            }
        }
        order += 1;
    }
    if elems < h.elems.len() {
        return Err(format!("element {elems} is no node's child"));
    }
    if texts < h.texts.len() {
        return Err(format!("text {texts} is no node's child"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goddag::GoddagBuilder;
    use crate::node::HierarchyId;
    use crate::StructIndex;

    fn sample() -> Goddag {
        GoddagBuilder::new()
            .hierarchy("lines", "<r a=\"b\"><line>gesceaftum una</line><line>wendendne</line></r>")
            .hierarchy("words", "<r a=\"b\"><w>gesceaftum</w> <w>unawendendne</w></r>")
            .build()
            .unwrap()
    }

    /// The index of the reloaded document holds the built one's arrays,
    /// entry for entry — not merely arrays that answer the same axis
    /// queries.
    fn assert_same_arrays(built: &StructIndex, reloaded: &StructIndex) {
        assert_eq!(built.arrays(), reloaded.arrays());
    }

    /// The reloaded hierarchies hold the built ones' columns, those the
    /// walk derives included.
    fn assert_same_hierarchies(built: &Goddag, reloaded: &Goddag) {
        assert_eq!(built.hierarchy_count(), reloaded.hierarchy_count());
        for ((_, a), (_, b)) in built.hierarchies().zip(reloaded.hierarchies()) {
            assert_eq!((&a.name, a.is_virtual), (&b.name, b.is_virtual));
            assert_eq!(a.elems, b.elems, "hierarchy {}", a.name);
            assert_eq!(a.texts, b.texts, "hierarchy {}", a.name);
            assert_eq!(a.root_children, b.root_children, "hierarchy {}", a.name);
            assert_eq!(a.text_starts, b.text_starts, "hierarchy {}", a.name);
        }
    }

    #[test]
    fn round_trip_preserves_structure_and_queries() {
        let g = sample();
        let g2 = assemble(&dissect(&g)).unwrap();
        assert_same_hierarchies(&g, &g2);
        let (idx, idx2) = (StructIndex::build(&g), StructIndex::build(&g2));
        assert_same_arrays(&idx, &idx2);
        assert_eq!(g.text(), g2.text());
        assert_eq!(g.root_name(), g2.root_name());
        assert_eq!(g.root_attr_pairs(), g2.root_attr_pairs());
        assert_eq!(g.leaf_count(), g2.leaf_count());
        assert_eq!(g.all_nodes(), g2.all_nodes());
        // Query-visible equivalence on all axes from all nodes.
        for &n in &g.all_nodes() {
            for axis in crate::axes::Axis::ALL {
                assert_eq!(
                    idx.axis_nodes(&g, axis, n),
                    idx2.axis_nodes(&g2, axis, n),
                    "axis {} from {n}",
                    axis.name()
                );
            }
        }
    }

    #[test]
    fn a_reloaded_document_is_a_new_document() {
        let g = sample();
        let idx = StructIndex::build(&g);
        let g2 = assemble(&dissect(&g)).unwrap();
        assert_ne!(g.doc_id(), g2.doc_id(), "reloaded snapshot is a distinct document");
        assert!(!idx.is_current(&g2), "old index must not pass for the new document");
    }

    #[test]
    fn virtual_hierarchies_survive_round_trip() {
        let mut g = sample();
        let len = g.text().len() as u32;
        let frag = crate::hierarchy::FragmentSpec::new("res", (0, len))
            .child(crate::hierarchy::FragmentSpec::new("m", (0, 4)));
        g.add_virtual_hierarchy("rest", &[frag]).unwrap();
        let g2 = assemble(&dissect(&g)).unwrap();
        assert_same_hierarchies(&g, &g2);
        assert_same_arrays(&StructIndex::build(&g), &StructIndex::build(&g2));
        assert_eq!(g2.hierarchy_count(), 3);
        assert_eq!(g2.base_hierarchy_count(), 2);
        assert!(g2.hierarchy(HierarchyId(2)).is_virtual());
        // LIFO removal still works after reload.
        let mut g2 = g2;
        g2.remove_last_hierarchy().unwrap();
        assert_eq!(g2.hierarchy_count(), 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn random_docs_reload_to_the_same_columns_and_index(doc in crate::proptests::arb_doc()) {
            let g = crate::proptests::build(&doc);
            let g2 = assemble(&dissect(&g)).unwrap();
            assert_same_hierarchies(&g, &g2);
            assert_same_arrays(&StructIndex::build(&g), &StructIndex::build(&g2));
        }
    }

    #[test]
    fn truncated_section_is_an_error_not_a_panic() {
        let g = sample();
        let mut sections = dissect(&g);
        for i in 0..sections.len() {
            let keep = sections[i].bytes.len() / 2;
            sections[i].bytes.truncate(keep);
            assert!(assemble(&sections).is_err(), "truncated section {i} must error");
            let fresh = dissect(&g);
            sections[i].bytes = fresh[i].bytes.clone();
        }
    }

    #[test]
    fn every_single_byte_flip_errors_or_assembles() {
        // Checksums catch corruption upstream; this asserts the decoder
        // itself never panics even when handed silently corrupted bytes.
        let g = sample();
        let sections = dissect(&g);
        for si in 0..sections.len() {
            for bi in (0..sections[si].bytes.len()).step_by(7) {
                let mut s = sections.clone();
                s[si].bytes[bi] ^= 0xFF;
                let _ = assemble(&s); // must not panic
            }
        }
    }

    /// `g`'s sections with its hierarchies replaced by `hs`.
    fn with_hierarchies(g: &Goddag, hs: &[Hierarchy]) -> Vec<Section> {
        let mut w = W::default();
        w.u32(hs.len() as u32);
        for h in hs {
            w.hierarchy(h);
        }
        let mut sections = dissect(g);
        let at = sections.iter().position(|s| s.kind == SEC_HIERARCHIES).unwrap();
        sections[at].bytes = w.buf;
        sections
    }

    /// Run `f` on a thread with the 2 MiB stack a server's workers get.
    fn on_a_worker_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new().stack_size(2 * 1024 * 1024).spawn(f).unwrap().join().unwrap();
    }

    /// Child links that do not form one tree in preorder are refused at
    /// load. Left in, the cycle sends every later recursive pass (writing
    /// the hierarchy's markup, which any element answer reads) round it
    /// until the stack overflows, which aborts the process.
    #[test]
    fn child_links_that_are_not_one_tree_are_refused() {
        on_a_worker_stack(|| {
            // Elements a = 0, b = 1, c = 2; texts x = 0, y = 1.
            let g = GoddagBuilder::new()
                .hierarchy("h", "<r><a><b>x</b></a><c>y</c></r>")
                .build()
                .unwrap();
            let built = g.hierarchy(HierarchyId(0));
            assert!(assemble(&with_hierarchies(&g, std::slice::from_ref(built))).is_ok());
            // The built hierarchy, relinked by `corrupt`, is refused with
            // an error naming `want`.
            let refused = |corrupt: fn(&mut Hierarchy), want: &str| {
                let mut h = built.clone();
                corrupt(&mut h);
                let err = assemble(&with_hierarchies(&g, &[h])).unwrap_err();
                assert!(err.detail.contains(want), "{want}: {}", err.detail);
            };
            // A two-element cycle: b's child is a.
            refused(|h| h.elems[1].children = vec![Kid::Elem(0)], "element 0 met where element 2");
            // A node listed by two parents: x under b and under c.
            refused(|h| h.elems[2].children = vec![Kid::Text(0)], "text 0 met where text 1");
            // A node listed by none: c.
            refused(|h| h.root_children.truncate(1), "element 2 is no node's child");
            // Elements out of preorder: c before a.
            refused(|h| h.root_children.reverse(), "element 2 met where element 0");
        });
    }

    /// A hierarchy of `levels` nested `e` elements around one text node,
    /// written straight into an arena: the builder refuses more than
    /// `MAX_DEPTH`.
    fn nested(levels: u32) -> Hierarchy {
        let elem = |i: u32| ElemNode {
            name: "e".into(),
            attrs: Vec::new(),
            span: (0, 1),
            parent: Parent::Root,
            children: vec![if i + 1 < levels { Kid::Elem(i + 1) } else { Kid::Text(0) }],
            order: 0,
            subtree_last: 0,
        };
        Hierarchy {
            name: "deep".into(),
            elems: (0..levels).map(elem).collect(),
            texts: vec![TextNode { span: (0, 1), parent: Parent::Root, order: 0 }],
            root_children: vec![Kid::Elem(0)],
            is_virtual: false,
            text_starts: Vec::new(),
            markup: OnceLock::new(),
        }
    }

    #[test]
    fn nesting_past_the_cap_is_refused() {
        on_a_worker_stack(|| {
            let g = GoddagBuilder::new().hierarchy("deep", "<r>x</r>").build().unwrap();
            let max = MAX_DEPTH as u32;
            assert!(assemble(&with_hierarchies(&g, &[nested(max)])).is_ok());
            let err = assemble(&with_hierarchies(&g, &[nested(max + 1)])).unwrap_err();
            let want = format!("element {max} nests deeper than {MAX_DEPTH}");
            assert!(err.detail.contains(&want), "{}", err.detail);
        });
    }

    #[test]
    fn missing_section_errors() {
        let mut sections = dissect(&sample());
        sections.retain(|s| s.kind != SEC_HIERARCHIES);
        let err = assemble(&sections).unwrap_err();
        assert!(err.detail.contains("missing hierarchies"), "{}", err.detail);
    }

    #[test]
    fn unknown_sections_are_ignored() {
        let mut sections = dissect(&sample());
        sections.push(Section { kind: 999, bytes: vec![1, 2, 3] });
        assert!(assemble(&sections).is_ok());
    }
}
