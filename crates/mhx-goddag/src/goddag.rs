//! The KyGODDAG proper: hierarchies united at a shared root over a shared
//! leaf layer.

use crate::boundaries::Boundaries;
use crate::error::{GoddagError, Result};
use crate::hierarchy::{FragmentSpec, Hierarchy, Kid, Parent};
use crate::node::{HierarchyId, NodeId, OrderKey};
use mhx_xml::Document;
use std::cmp::Ordering;
use std::sync::Arc;

/// A multihierarchical document `d = (S, (d1, …, dn))` materialized as a
/// KyGODDAG (paper §3): the DOM trees of all hierarchies united at the root,
/// plus the shared leaf layer.
///
/// A hierarchy is immutable once installed and held behind an [`Arc`], so
/// a clone shares every hierarchy with its original: the copy-on-write
/// evaluator's clone copies the text, the leaf boundaries and one pointer
/// per hierarchy, and dropping it frees only what it installed itself.
#[derive(Debug, Clone)]
pub struct Goddag {
    text: String,
    root_name: String,
    root_attrs: Vec<(String, String)>,
    hierarchies: Vec<Arc<Hierarchy>>,
    boundaries: Boundaries,
    /// Hierarchies `0..base_count` are permanent; the rest are virtual
    /// (analyze-string results) and removable in LIFO order.
    base_count: usize,
    /// Bumped on every structural mutation (hierarchy install/removal).
    /// [`crate::index::StructIndex`] snapshots it to detect staleness.
    version: u64,
    /// Process-unique document identity, shared by clones (the
    /// copy-on-write evaluator's clone is the same document; a separately
    /// built goddag is not, even with identical content). Together with
    /// `version` this makes index staleness checks misuse-proof: an index
    /// built for one document can never pass as current for another.
    doc_id: u64,
}

/// Next [`Goddag::doc_id`]; process-unique is all identity needs.
static NEXT_DOC_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl Goddag {
    /// The base text `S`.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The shared root element name (CMH root `r`).
    pub fn root_name(&self) -> &str {
        &self.root_name
    }

    pub fn root(&self) -> NodeId {
        NodeId::Root
    }

    pub fn hierarchy_count(&self) -> usize {
        self.hierarchies.len()
    }

    /// Structural version, bumped on every hierarchy install/removal. Used
    /// by [`crate::index::StructIndex`] for lazy invalidation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Process-unique document identity (shared by clones).
    pub fn doc_id(&self) -> u64 {
        self.doc_id
    }

    pub fn base_hierarchy_count(&self) -> usize {
        self.base_count
    }

    pub fn hierarchy(&self, h: HierarchyId) -> &Hierarchy {
        &self.hierarchies[h.index()]
    }

    pub fn hierarchies(&self) -> impl Iterator<Item = (HierarchyId, &Hierarchy)> {
        self.hierarchies.iter().enumerate().map(|(i, h)| (HierarchyId(i as u16), &**h))
    }

    pub fn hierarchy_id(&self, name: &str) -> Option<HierarchyId> {
        self.hierarchies.iter().position(|h| h.name == name).map(|i| HierarchyId(i as u16))
    }

    // ---------- node accessors ----------

    /// Element (or root) name; attribute name for attribute nodes.
    pub fn name(&self, n: NodeId) -> Option<&str> {
        match n {
            NodeId::Root => Some(&self.root_name),
            NodeId::Elem { h, i } => Some(&self.hierarchy(h).elem(i).name),
            NodeId::Attr { h, elem, a } => {
                self.hierarchy(h).elem(elem).attrs.get(a as usize).map(|(k, _)| k.as_str())
            }
            NodeId::Text { .. } | NodeId::Leaf { .. } => None,
        }
    }

    /// Half-open byte span over `S`. Attribute nodes get their element's
    /// start as an empty span (they carry no text of `S`).
    pub fn span(&self, n: NodeId) -> (u32, u32) {
        match n {
            NodeId::Root => (0, self.text.len() as u32),
            NodeId::Elem { h, i } => self.hierarchy(h).elem(i).span,
            NodeId::Text { h, i } => self.hierarchy(h).text(i).span,
            NodeId::Attr { h, elem, .. } => {
                let s = self.hierarchy(h).elem(elem).span.0;
                (s, s)
            }
            NodeId::Leaf { start } => (start, self.boundaries.leaf_end_at(start)),
        }
    }

    /// XPath string-value. For root/element/text/leaf nodes this is a slice
    /// of `S`; for attribute nodes, the attribute value.
    pub fn string_value(&self, n: NodeId) -> &str {
        match n {
            NodeId::Attr { h, elem, a } => self
                .hierarchy(h)
                .elem(elem)
                .attrs
                .get(a as usize)
                .map(|(_, v)| v.as_str())
                .unwrap_or(""),
            _ => {
                let (s, e) = self.span(n);
                &self.text[s as usize..e as usize]
            }
        }
    }

    pub fn attrs(&self, n: NodeId) -> &[(String, String)] {
        match n {
            NodeId::Root => &self.root_attrs,
            NodeId::Elem { h, i } => &self.hierarchy(h).elem(i).attrs,
            _ => &[],
        }
    }

    pub fn attr(&self, n: NodeId, name: &str) -> Option<&str> {
        self.attrs(n).iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Attribute nodes of an element (XPath attribute axis).
    pub fn attr_nodes(&self, n: NodeId) -> Vec<NodeId> {
        match n {
            NodeId::Elem { h, i } => (0..self.hierarchy(h).elem(i).attrs.len())
                .map(|a| NodeId::Attr { h, elem: i, a: a as u16 })
                .collect(),
            // Root attributes are not addressable per-hierarchy; expose none.
            _ => Vec::new(),
        }
    }

    /// The attribute node of element `n` named `name`, if it has one: the
    /// attribute axis under a name test, found by name. The root's
    /// attributes are not addressable, as for [`Goddag::attr_nodes`].
    pub fn attr_node(&self, n: NodeId, name: &str) -> Option<NodeId> {
        let NodeId::Elem { h, i } = n else { return None };
        let a = self.hierarchy(h).elem(i).attrs.iter().position(|(k, _)| k == name)?;
        Some(NodeId::Attr { h, elem: i, a: a as u16 })
    }

    /// Does node `n` belong to hierarchy `h`? Root belongs to all; a leaf
    /// belongs to every hierarchy whose text covers it.
    pub fn in_hierarchy(&self, n: NodeId, h: HierarchyId) -> bool {
        match n {
            NodeId::Root => true,
            NodeId::Elem { h: nh, .. }
            | NodeId::Text { h: nh, .. }
            | NodeId::Attr { h: nh, .. } => nh == h,
            NodeId::Leaf { start } => self.hierarchy(h).text_covering(start).is_some(),
        }
    }

    // ---------- DAG navigation ----------

    fn kid_to_node(&self, h: HierarchyId, k: Kid) -> NodeId {
        match k {
            Kid::Elem(i) => NodeId::Elem { h, i },
            Kid::Text(i) => NodeId::Text { h, i },
        }
    }

    /// Children of a node. For the root: the top-level nodes of every
    /// hierarchy (paper: axes applied to the root reach all components).
    /// For a text node: the leaves it contains.
    pub fn children(&self, n: NodeId) -> Vec<NodeId> {
        match n {
            NodeId::Root => self
                .hierarchies()
                .flat_map(|(h, hier)| {
                    hier.root_children.iter().map(move |&k| self.kid_to_node(h, k))
                })
                .collect(),
            NodeId::Elem { h, i } => {
                self.hierarchy(h).elem(i).children.iter().map(|&k| self.kid_to_node(h, k)).collect()
            }
            NodeId::Text { h, i } => {
                let (s, e) = self.hierarchy(h).text(i).span;
                self.boundaries.leaves_in(s, e).map(|st| NodeId::Leaf { start: st }).collect()
            }
            NodeId::Attr { .. } | NodeId::Leaf { .. } => Vec::new(),
        }
    }

    /// Parents of a node. Plural: a leaf has one text-node parent per
    /// hierarchy covering it — this is where the DAG departs from DOM.
    pub fn parents(&self, n: NodeId) -> Vec<NodeId> {
        match n {
            NodeId::Root => Vec::new(),
            NodeId::Elem { h, i } => vec![self.parent_link(h, self.hierarchy(h).elem(i).parent)],
            NodeId::Text { h, i } => vec![self.parent_link(h, self.hierarchy(h).text(i).parent)],
            NodeId::Attr { h, elem, .. } => vec![NodeId::Elem { h, i: elem }],
            NodeId::Leaf { start } => self
                .hierarchies()
                .filter_map(|(h, hier)| {
                    hier.text_covering(start).map(|ti| NodeId::Text { h, i: ti })
                })
                .collect(),
        }
    }

    fn parent_link(&self, h: HierarchyId, p: Parent) -> NodeId {
        match p {
            Parent::Root => NodeId::Root,
            Parent::Elem(i) => NodeId::Elem { h, i },
        }
    }

    /// All ancestors (transitive parents), deduplicated, sorted in
    /// KyGODDAG order. For a leaf this crosses into every covering
    /// hierarchy — the mechanism behind query I.2's
    /// `$leaf[ancestor::w and ancestor::dmg]`.
    pub fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = self.parents(n);
        while let Some(p) = stack.pop() {
            if !out.contains(&p) {
                out.push(p);
                stack.extend(self.parents(p));
            }
        }
        self.sort_nodes(&mut out);
        out
    }

    /// All descendants (transitive children), in KyGODDAG order.
    pub fn descendants(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = self.children(n);
        // A leaf can be reached through several text parents when `n` is the
        // root or spans multiple hierarchies; dedup via sort at the end, but
        // avoid re-expanding (leaves have no children, so no blowup).
        while let Some(c) = stack.pop() {
            stack.extend(self.children(c));
            out.push(c);
        }
        self.sort_nodes(&mut out);
        out.dedup();
        out
    }

    /// Sibling nodes after `n` under its parent(s), in order. For leaves:
    /// later leaves under any of its text parents.
    pub fn following_siblings(&self, n: NodeId) -> Vec<NodeId> {
        self.siblings_dir(n, true)
    }

    pub fn preceding_siblings(&self, n: NodeId) -> Vec<NodeId> {
        self.siblings_dir(n, false)
    }

    fn siblings_dir(&self, n: NodeId, after: bool) -> Vec<NodeId> {
        // Per the paper, standard axes on a non-root node stay within its
        // DOM component: siblings of an element/text node are restricted to
        // its own hierarchy even when the parent is the shared root.
        let own_h = n.hierarchy();
        let mut out = Vec::new();
        for p in self.parents(n) {
            let sibs = self.children(p);
            if let Some(pos) = sibs.iter().position(|&s| s == n) {
                let slice = if after { &sibs[pos + 1..] } else { &sibs[..pos] };
                out.extend(slice.iter().copied().filter(|s| match own_h {
                    Some(h) => s.hierarchy() == Some(h) || s.is_leaf(),
                    None => true, // leaf context: all text parents' leaves
                }));
            }
        }
        self.sort_nodes(&mut out);
        out.dedup();
        out
    }

    /// Is `m` a (DOM-)descendant of `n`? Used by the extended axes to
    /// exclude same-hierarchy tree relatives (Definition 1).
    pub fn is_descendant(&self, m: NodeId, n: NodeId) -> bool {
        match (n, m) {
            (NodeId::Root, NodeId::Root) => false,
            (NodeId::Root, _) => true,
            (NodeId::Leaf { .. } | NodeId::Attr { .. }, _) => false,
            (_, NodeId::Root) => false,
            (NodeId::Elem { h, i }, NodeId::Elem { h: mh, i: mi }) => {
                if h != mh {
                    return false;
                }
                let e = self.hierarchy(h).elem(i);
                let mo = self.hierarchy(h).elem(mi).order;
                e.order < mo && mo <= e.subtree_last
            }
            (NodeId::Elem { h, i }, NodeId::Text { h: mh, i: mi }) => {
                if h != mh {
                    return false;
                }
                let e = self.hierarchy(h).elem(i);
                let mo = self.hierarchy(h).text(mi).order;
                e.order < mo && mo <= e.subtree_last
            }
            (NodeId::Elem { h, i }, NodeId::Attr { h: mh, elem, .. }) => {
                h == mh
                    && (elem == i || {
                        let e = self.hierarchy(h).elem(i);
                        let mo = self.hierarchy(h).elem(elem).order;
                        e.order < mo && mo <= e.subtree_last
                    })
            }
            (NodeId::Elem { .. } | NodeId::Text { .. }, NodeId::Leaf { start }) => {
                // n's span fully covers its own content, so span containment
                // is exact for leaves.
                let (s, e) = self.span(n);
                let (ls, le) = self.span(m);
                debug_assert_eq!(ls, start);
                s <= ls && le <= e && s < e
            }
            (NodeId::Text { .. }, _) => false,
        }
    }

    // ---------- leaves ----------

    /// All leaves, in order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.boundaries.leaf_starts().map(|s| NodeId::Leaf { start: s }).collect()
    }

    pub fn leaf_count(&self) -> usize {
        self.boundaries.leaf_count()
    }

    /// `leaves(n)` of Definition 1: the leaves covered by `n`'s span,
    /// `None` if the node covers no text.
    pub fn leaves_of(&self, n: NodeId) -> Vec<NodeId> {
        let (s, e) = self.span(n);
        self.boundaries.leaves_in(s, e).map(|st| NodeId::Leaf { start: st }).collect()
    }

    /// The leaf containing byte offset `off`.
    pub fn leaf_at(&self, off: u32) -> NodeId {
        NodeId::Leaf { start: self.boundaries.leaf_start_at(off) }
    }

    /// The leaves covered by the byte range `[s, e)` — the span-based form
    /// of [`Goddag::leaves_of`], for batch evaluation over merged context
    /// spans (node spans are always leaf-aligned, so a union of spans
    /// covers exactly the union of the per-node leaf runs).
    pub fn leaves_in_span(&self, s: u32, e: u32) -> Vec<NodeId> {
        self.boundaries.leaves_in(s, e).map(|st| NodeId::Leaf { start: st }).collect()
    }

    // ---------- order (Definition 3) ----------

    pub fn order_key(&self, n: NodeId) -> OrderKey {
        match n {
            NodeId::Root => OrderKey::ROOT,
            NodeId::Elem { h, i } => OrderKey::in_hierarchy(h, self.hierarchy(h).elem(i).order),
            NodeId::Text { h, i } => OrderKey::in_hierarchy(h, self.hierarchy(h).text(i).order),
            NodeId::Attr { h, elem, a } => OrderKey::attr(h, self.hierarchy(h).elem(elem).order, a),
            NodeId::Leaf { start } => OrderKey::leaf(start),
        }
    }

    pub fn cmp_order(&self, a: NodeId, b: NodeId) -> Ordering {
        self.order_key(a).cmp(&self.order_key(b))
    }

    pub fn sort_nodes(&self, nodes: &mut [NodeId]) {
        nodes.sort_by_key(|&n| self.order_key(n));
    }

    /// Every node except attributes: root, all element/text nodes of all
    /// hierarchies, all leaves — the candidate set `N` of Definition 1,
    /// already in Definition-3 order.
    ///
    /// The arenas store elements and texts in preorder, so the result is
    /// assembled by an O(N) merge per hierarchy — no sorting. Extended
    /// axes call this once per evaluation, which made the difference
    /// between O(N log N) and O(N) per axis call.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let total: usize =
            self.hierarchies.iter().map(|h| h.element_count() + h.text_count()).sum::<usize>()
                + 1
                + self.leaf_count();
        let mut out = Vec::with_capacity(total);
        out.push(NodeId::Root);
        for (h, hier) in self.hierarchies() {
            let (mut i, mut j) = (0u32, 0u32);
            let (ne, nt) = (hier.element_count() as u32, hier.text_count() as u32);
            while i < ne || j < nt {
                let take_elem =
                    if i < ne && j < nt { hier.elem(i).order < hier.text(j).order } else { i < ne };
                if take_elem {
                    out.push(NodeId::Elem { h, i });
                    i += 1;
                } else {
                    out.push(NodeId::Text { h, i: j });
                    j += 1;
                }
            }
        }
        out.extend(self.leaves());
        debug_assert!(out.windows(2).all(|w| self.cmp_order(w[0], w[1]) == Ordering::Less));
        out
    }

    // ---------- hierarchy mutation ----------

    /// Add a hierarchy from an XML document whose text must equal `S`.
    pub fn add_document_hierarchy(&mut self, name: &str, doc: &Document) -> Result<HierarchyId> {
        if self.hierarchy_id(name).is_some() {
            return Err(GoddagError::DuplicateHierarchy(name.to_string()));
        }
        let root = doc.root_element()?;
        let root_name = doc.name(root).unwrap_or_default();
        if root_name != self.root_name {
            return Err(GoddagError::RootNameMismatch {
                expected: self.root_name.clone(),
                found: root_name.to_string(),
                hierarchy: name.to_string(),
            });
        }
        let (h, text) = Hierarchy::from_document(name, doc)?;
        if text != self.text {
            return Err(GoddagError::TextMismatch {
                first: self.hierarchies.first().map(|h| h.name.clone()).unwrap_or_default(),
                second: name.to_string(),
                detail: text_diff(&self.text, &text),
            });
        }
        Ok(self.install(h, false))
    }

    /// Add a virtual hierarchy from fragment specs (used by
    /// `analyze-string()`); removable with [`Goddag::remove_last_hierarchy`].
    pub fn add_virtual_hierarchy(
        &mut self,
        name: &str,
        frags: &[FragmentSpec],
    ) -> Result<HierarchyId> {
        if self.hierarchy_id(name).is_some() {
            return Err(GoddagError::DuplicateHierarchy(name.to_string()));
        }
        let h = Hierarchy::from_fragments(name, frags, &self.text)?;
        Ok(self.install(h, true))
    }

    /// A fresh name for a virtual hierarchy (`rest`, `rest2`, `rest3`, …),
    /// following the paper's `rest` convention.
    pub fn fresh_virtual_name(&self) -> String {
        if self.hierarchy_id("rest").is_none() {
            return "rest".to_string();
        }
        let mut i = 2;
        loop {
            let name = format!("rest{i}");
            if self.hierarchy_id(&name).is_none() {
                return name;
            }
            i += 1;
        }
    }

    /// Root attributes as `(name, value)` pairs (snapshot serialization).
    pub(crate) fn root_attr_pairs(&self) -> &[(String, String)] {
        &self.root_attrs
    }

    /// Reassemble a goddag from already-built hierarchies (snapshot
    /// deserialization). Boundaries, `base_count`, and `version` are
    /// replayed through [`Goddag::install`] exactly as the builder does,
    /// so the result is indistinguishable from a freshly parsed document
    /// — apart from the fresh `doc_id`, which is what makes a reloaded
    /// snapshot a distinct document for index-staleness purposes.
    pub(crate) fn from_parts(
        text: String,
        root_name: String,
        root_attrs: Vec<(String, String)>,
        hierarchies: Vec<Hierarchy>,
    ) -> Goddag {
        let mut g = Goddag {
            boundaries: Boundaries::new(text.len() as u32),
            text,
            root_name,
            root_attrs,
            hierarchies: Vec::new(),
            base_count: 0,
            version: 0,
            doc_id: NEXT_DOC_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        };
        for h in hierarchies {
            let is_virtual = h.is_virtual;
            g.install(h, is_virtual);
        }
        g
    }

    fn install(&mut self, h: Hierarchy, is_virtual: bool) -> HierarchyId {
        self.boundaries.add_all(endpoints(&h));
        let id = HierarchyId(self.hierarchies.len() as u16);
        self.hierarchies.push(Arc::new(h));
        if !is_virtual {
            self.base_count = self.hierarchies.len();
        }
        self.version += 1;
        id
    }

    /// Remove the most recently added hierarchy (must be virtual). Leaves
    /// split by it merge back (Definition 4, step 5).
    pub fn remove_last_hierarchy(&mut self) -> Result<()> {
        if self.hierarchies.len() <= self.base_count {
            return Err(GoddagError::NotVirtual);
        }
        let h = self.hierarchies.pop().expect("non-empty checked above");
        self.boundaries.remove_all(endpoints(&h));
        self.version += 1;
        Ok(())
    }

    /// Remove all virtual hierarchies (end-of-query cleanup).
    pub fn remove_virtual_hierarchies(&mut self) {
        while self.hierarchies.len() > self.base_count {
            self.remove_last_hierarchy().expect("virtual hierarchies are removable");
        }
    }
}

/// Both endpoints of every element and text span of `h`: what the
/// hierarchy registers in the leaf layer.
fn endpoints(h: &Hierarchy) -> Vec<u32> {
    let mut out = Vec::with_capacity(2 * (h.elems.len() + h.texts.len()));
    for (s, e) in h.elems.iter().map(|e| e.span).chain(h.texts.iter().map(|t| t.span)) {
        out.extend([s, e]);
    }
    out
}

fn text_diff(a: &str, b: &str) -> String {
    if a.len() != b.len() {
        let i = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.len().min(b.len()));
        return format!("lengths {} vs {} (first difference at byte {i})", a.len(), b.len());
    }
    let i = a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or(0);
    format!("first difference at byte {i}")
}

/// Builder: collect `(name, encoding)` pairs, then [`GoddagBuilder::build`].
#[derive(Debug, Default)]
pub struct GoddagBuilder {
    items: Vec<(String, SourceDoc)>,
}

#[derive(Debug)]
enum SourceDoc {
    Src(String),
    Doc(Document),
}

impl GoddagBuilder {
    pub fn new() -> GoddagBuilder {
        GoddagBuilder::default()
    }

    /// Add a hierarchy from XML source text.
    pub fn hierarchy(mut self, name: impl Into<String>, src: impl Into<String>) -> GoddagBuilder {
        self.items.push((name.into(), SourceDoc::Src(src.into())));
        self
    }

    /// Add a hierarchy from an already-parsed document.
    pub fn hierarchy_doc(mut self, name: impl Into<String>, doc: Document) -> GoddagBuilder {
        self.items.push((name.into(), SourceDoc::Doc(doc)));
        self
    }

    pub fn build(self) -> Result<Goddag> {
        let mut docs = Vec::with_capacity(self.items.len());
        for (name, src) in self.items {
            let doc = match src {
                SourceDoc::Src(s) => mhx_xml::parse(&s)?,
                SourceDoc::Doc(d) => d,
            };
            docs.push((name, doc));
        }
        let Some((first_name, first_doc)) = docs.first() else {
            return Err(GoddagError::NoHierarchies);
        };
        let root = first_doc.root_element()?;
        let root_name = first_doc.name(root).unwrap_or_default().to_string();
        let root_attrs: Vec<(String, String)> =
            first_doc.attrs(root).iter().map(|a| (a.name.clone(), a.value.clone())).collect();
        let (h0, text) = Hierarchy::from_document(first_name, first_doc)?;
        let mut g = Goddag {
            boundaries: Boundaries::new(text.len() as u32),
            text,
            root_name,
            root_attrs,
            hierarchies: Vec::new(),
            base_count: 0,
            version: 0,
            doc_id: NEXT_DOC_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        };
        g.install(h0, false);
        for (name, doc) in docs.iter().skip(1) {
            g.add_document_hierarchy(name, doc)?;
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn figure1() -> Goddag {
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
    fn figure1_builds_with_16_leaves() {
        let g = figure1();
        assert_eq!(g.hierarchy_count(), 4);
        assert_eq!(g.leaf_count(), 16);
        assert_eq!(g.text(), "gesceaftum unawendendne singallice sibbe gecynde þa");
        let leaf_texts: Vec<&str> = g.leaves().iter().map(|&l| g.string_value(l)).collect();
        assert_eq!(
            leaf_texts,
            vec![
                "gesceaftum",
                " ",
                "una",
                "w",
                "endendne",
                " ",
                "s",
                "in",
                "gallice",
                " ",
                "sibbe",
                " ",
                "gecyn",
                "de",
                " ",
                "þa"
            ]
        );
    }

    #[test]
    fn text_mismatch_rejected() {
        let r =
            GoddagBuilder::new().hierarchy("a", "<r>abc</r>").hierarchy("b", "<r>abX</r>").build();
        assert!(matches!(r, Err(GoddagError::TextMismatch { .. })));
    }

    #[test]
    fn root_name_mismatch_rejected() {
        let r = GoddagBuilder::new()
            .hierarchy("a", "<r>abc</r>")
            .hierarchy("b", "<root>abc</root>")
            .build();
        assert!(matches!(r, Err(GoddagError::RootNameMismatch { .. })));
    }

    #[test]
    fn duplicate_name_rejected() {
        let r =
            GoddagBuilder::new().hierarchy("a", "<r>abc</r>").hierarchy("a", "<r>abc</r>").build();
        assert!(matches!(r, Err(GoddagError::DuplicateHierarchy(_))));
    }

    #[test]
    fn empty_builder_rejected() {
        assert!(matches!(GoddagBuilder::new().build(), Err(GoddagError::NoHierarchies)));
    }

    #[test]
    fn children_of_root_cross_hierarchies() {
        let g = figure1();
        let kids = g.children(NodeId::Root);
        // lines: 2 elements; words: 3 vlines; restorations: 3 res + 2 texts;
        // damage: 2 dmg + 2 texts.
        assert_eq!(kids.len(), 2 + 3 + 5 + 4);
    }

    #[test]
    fn leaf_parents_cross_hierarchies() {
        let g = figure1();
        // Leaf "w" at offset 14: inside line1 text, word "unawendendne"
        // text, outside restorations (res covers 0..14 — no wait, it is in
        // the gap text "wendendne s"), inside dmg1 text.
        let leaf = g.leaf_at(14);
        let parents = g.parents(leaf);
        assert_eq!(parents.len(), 4, "one text parent per covering hierarchy");
        assert!(parents.iter().all(|p| p.is_text()));
    }

    #[test]
    fn leaf_ancestors_reach_all_hierarchies() {
        let g = figure1();
        let leaf = g.leaf_at(14); // "w" — inside word unawendendne AND dmg1
        let ancestors = g.ancestors(leaf);
        let names: Vec<&str> = ancestors.iter().filter_map(|&a| g.name(a)).collect();
        assert!(names.contains(&"w"));
        assert!(names.contains(&"dmg"));
        assert!(names.contains(&"line"));
        assert!(names.contains(&"vline"));
        assert!(names.contains(&"r"));
    }

    #[test]
    fn descendants_of_root_is_everything_but_root() {
        let g = figure1();
        let d = g.descendants(NodeId::Root);
        let all = g.all_nodes();
        assert_eq!(d.len(), all.len() - 1);
    }

    #[test]
    fn string_values() {
        let g = figure1();
        let words = g.hierarchy_id("words").unwrap();
        // First w element is "gesceaftum".
        let w0 = NodeId::Elem { h: words, i: 1 }; // 0 = first vline, 1 = first w
        assert_eq!(g.name(w0), Some("w"));
        assert_eq!(g.string_value(w0), "gesceaftum");
        assert_eq!(g.string_value(NodeId::Root), g.text());
    }

    #[test]
    fn order_is_total_and_stable() {
        let g = figure1();
        let all = g.all_nodes();
        for w in all.windows(2) {
            assert_eq!(g.cmp_order(w[0], w[1]), Ordering::Less);
        }
    }

    #[test]
    fn virtual_hierarchy_lifecycle() {
        let mut g = figure1();
        let before = g.leaf_count();
        // Tag "unawe" (11..16) inside word "unawendendne" (11..23).
        let frag = FragmentSpec::new("res", (11, 23)).child(FragmentSpec::new("m", (11, 16)));
        let h = g.add_virtual_hierarchy("rest", &[frag]).unwrap();
        assert_eq!(g.hierarchy_count(), 5);
        assert!(g.hierarchy(h).is_virtual());
        // Boundary at 16 splits leaf "endendne" (15..23) into "e"+"ndendne".
        assert_eq!(g.leaf_count(), before + 1);
        assert_eq!(g.string_value(g.leaf_at(15)), "e");
        assert_eq!(g.string_value(g.leaf_at(16)), "ndendne");
        g.remove_last_hierarchy().unwrap();
        assert_eq!(g.leaf_count(), before);
        assert_eq!(g.string_value(g.leaf_at(15)), "endendne");
    }

    #[test]
    fn base_hierarchies_not_removable() {
        let mut g = figure1();
        assert!(matches!(g.remove_last_hierarchy(), Err(GoddagError::NotVirtual)));
    }

    #[test]
    fn fresh_virtual_names() {
        let mut g = figure1();
        assert_eq!(g.fresh_virtual_name(), "rest");
        g.add_virtual_hierarchy("rest", &[]).unwrap();
        assert_eq!(g.fresh_virtual_name(), "rest2");
    }

    #[test]
    fn remove_virtual_hierarchies_cleans_all() {
        let mut g = figure1();
        g.add_virtual_hierarchy("rest", &[]).unwrap();
        g.add_virtual_hierarchy("rest2", &[]).unwrap();
        g.remove_virtual_hierarchies();
        assert_eq!(g.hierarchy_count(), 4);
    }

    #[test]
    fn in_hierarchy_membership() {
        let g = figure1();
        let lines = g.hierarchy_id("lines").unwrap();
        let words = g.hierarchy_id("words").unwrap();
        assert!(g.in_hierarchy(NodeId::Root, lines));
        let line0 = NodeId::Elem { h: lines, i: 0 };
        assert!(g.in_hierarchy(line0, lines));
        assert!(!g.in_hierarchy(line0, words));
        // Every leaf of Figure 1 is covered by all four hierarchies.
        for &l in &g.leaves() {
            assert!(g.in_hierarchy(l, lines));
            assert!(g.in_hierarchy(l, words));
        }
    }

    #[test]
    fn is_descendant_relations() {
        let g = figure1();
        let words = g.hierarchy_id("words").unwrap();
        let vline0 = NodeId::Elem { h: words, i: 0 };
        let w0 = NodeId::Elem { h: words, i: 1 };
        assert!(g.is_descendant(w0, vline0));
        assert!(!g.is_descendant(vline0, w0));
        assert!(g.is_descendant(w0, NodeId::Root));
        assert!(!g.is_descendant(NodeId::Root, w0));
        // Leaf under word.
        let leaf = g.leaf_at(0);
        assert!(g.is_descendant(leaf, w0));
        assert!(g.is_descendant(leaf, vline0));
        // Cross-hierarchy: never a DOM descendant.
        let lines = g.hierarchy_id("lines").unwrap();
        let line0 = NodeId::Elem { h: lines, i: 0 };
        assert!(!g.is_descendant(w0, line0));
    }

    #[test]
    fn attr_nodes_addressable() {
        let g = GoddagBuilder::new()
            .hierarchy("a", r#"<r><w part="I" id="x">ab</w></r>"#)
            .build()
            .unwrap();
        let h = g.hierarchy_id("a").unwrap();
        let w = NodeId::Elem { h, i: 0 };
        let attrs = g.attr_nodes(w);
        assert_eq!(attrs.len(), 2);
        assert_eq!(g.name(attrs[0]), Some("part"));
        assert_eq!(g.string_value(attrs[0]), "I");
        assert_eq!(g.attr(w, "id"), Some("x"));
        assert_eq!(g.parents(attrs[0]), vec![w]);
    }

    #[test]
    fn attr_node_finds_one_attribute_by_name() {
        let g = GoddagBuilder::new()
            .hierarchy("a", r#"<r id="root"><w part="I" id="x">ab</w></r>"#)
            .build()
            .unwrap();
        let h = g.hierarchy_id("a").unwrap();
        let w = NodeId::Elem { h, i: 0 };
        assert_eq!(g.attr_node(w, "id"), Some(g.attr_nodes(w)[1]));
        assert_eq!(g.attr_node(w, "part"), Some(g.attr_nodes(w)[0]));
        assert_eq!(g.attr_node(w, "nope"), None);
        assert_eq!(g.attr_node(NodeId::Root, "id"), None, "the root's attributes stay hidden");
        assert_eq!(g.attr_node(g.leaf_at(0), "id"), None);
    }

    #[test]
    fn siblings() {
        let g = figure1();
        let lines = g.hierarchy_id("lines").unwrap();
        let line0 = NodeId::Elem { h: lines, i: 0 };
        let line1 = NodeId::Elem { h: lines, i: 1 };
        assert_eq!(g.following_siblings(line0), vec![line1]);
        assert_eq!(g.preceding_siblings(line1), vec![line0]);
        assert!(g.following_siblings(line1).is_empty());
        // Leaf siblings: leaves of the same text node(s).
        let l0 = g.leaf_at(0);
        let sibs = g.following_siblings(l0);
        assert!(!sibs.is_empty());
        assert!(sibs.iter().all(|s| s.is_leaf()));
    }

    /// On a thread with the 2 MiB stack a server's workers get, the
    /// deepest accepted document builds, indexes, goes through the
    /// snapshot columns and back, is indexed again, exports, and drops;
    /// one level deeper is
    /// an error, not a stack overflow, for uploads and virtual hierarchies
    /// alike.
    #[test]
    fn nesting_is_capped_within_a_worker_stack() {
        use crate::hierarchy::MAX_DEPTH;
        std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| {
                let nested = |levels: usize| {
                    format!("<r>{}x{}</r>", "<e>".repeat(levels), "</e>".repeat(levels))
                };
                let g = GoddagBuilder::new().hierarchy("deep", nested(MAX_DEPTH)).build().unwrap();
                let idx = crate::StructIndex::build(&g);
                let back = crate::columns::assemble(&crate::columns::dissect(&g)).unwrap();
                let back_idx = crate::StructIndex::build(&back);
                assert_eq!(back.hierarchy(HierarchyId(0)).element_count(), MAX_DEPTH);
                let xml = crate::hierarchy_to_xml(&back, HierarchyId(0));
                assert_eq!(xml, nested(MAX_DEPTH));
                drop((g, idx, back, back_idx));

                for levels in [MAX_DEPTH + 1, 10_000] {
                    let err = GoddagBuilder::new().hierarchy("deep", nested(levels)).build();
                    assert_eq!(err.unwrap_err(), GoddagError::TooDeep { hierarchy: "deep".into() });
                }
                let mut g = GoddagBuilder::new().hierarchy("flat", "<r>x</r>").build().unwrap();
                let chain = |levels: usize| {
                    (1..levels).fold(FragmentSpec::new("e", (0, 1)), |inner, _| {
                        FragmentSpec::new("e", (0, 1)).child(inner)
                    })
                };
                g.add_virtual_hierarchy("ok", &[chain(MAX_DEPTH)]).unwrap();
                let err = g.add_virtual_hierarchy("no", &[chain(MAX_DEPTH + 1)]).unwrap_err();
                assert_eq!(err, GoddagError::TooDeep { hierarchy: "no".into() });
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
