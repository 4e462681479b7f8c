//! Columnar (de)serialization of a `(Goddag, StructIndex)` pair.
//!
//! The on-disk snapshot format (`mhx-store`) is a framed sequence of
//! *sections*; this module defines the section payloads — flat,
//! little-endian, length-prefixed byte columns mirroring the in-memory
//! arrays — and the two conversions:
//!
//! * [`dissect`] lays a goddag and its structural index out as sections;
//! * [`assemble`] rebuilds both from sections, so a reloaded document is
//!   indistinguishable from a freshly parsed one.
//!
//! A section stores what is expensive to recompute, once. The index's
//! span array is stored in Definition-3 order (`ordered`); its by-start
//! and by-end orders are stored as `u32` positions into it, which
//! `dissect` derives in linear time from a node → position table and
//! `assemble` gathers back. Everything else is re-derived on load: the
//! leaf boundaries and `base_count`/`version` by installing each
//! hierarchy as the builder does (one sort-and-merge of its endpoints
//! into the leaf layer), each hierarchy's `text_starts`, and the spans of
//! the containment-chain entries, which are their nodes' own spans, and
//! the index's per-name span sets, cut from the two stored orders in one
//! pass (`index::spans_by_name`, as [`StructIndex::build`] does).
//!
//! `assemble` never panics on malformed input: every read is
//! bounds-checked, strings are UTF-8 validated, spans are checked against
//! the text (bounds and char boundaries), every cross-array index
//! (parent links, child links, index node ids) is validated before the
//! structures are built, both stored orders must be true permutations
//! of `ordered` (as long as it, every position in range, each used once),
//! and each name run must be in Definition-3 order, which the name-indexed
//! steps answer in and the chain join merges by.
//! Malformed input yields a [`ColumnsError`].
//!
//! The payloads carry no magic, no checksums and no versioning — framing
//! integrity is the container's job (`mhx-store` adds magic, a format
//! version and a per-section checksum).

use crate::goddag::Goddag;
use crate::hierarchy::{ElemNode, Hierarchy, Kid, Parent, TextNode};
use crate::index::{
    spans_by_name, ChainEntry, IndexStats, SpanEntry, Spans, StructIndex, NO_PARENT,
};
use crate::node::{HierarchyId, NodeId};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

/// Section kinds. The container stores the kind tag next to each payload;
/// unknown kinds are ignored by [`assemble`] (forward compatibility).
pub const SEC_META: u32 = 1;
/// Hierarchy arenas: element/text nodes, tree links, preorder numbers.
pub const SEC_HIERARCHIES: u32 = 2;
/// The index's name → element-nodes map.
pub const SEC_NAMES: u32 = 3;
/// The index's span interval array in Definition-3 order, then its
/// by-start and by-end orders as `u32` positions into it.
pub const SEC_SPANS: u32 = 4;
/// The index's per-hierarchy laminar containment chains: node and parent
/// link per entry (spans are the nodes' own).
pub const SEC_CHAINS: u32 = 5;
/// The index's selectivity statistics.
pub const SEC_STATS: u32 = 6;

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
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
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
    fn node(&mut self, n: NodeId) {
        match n {
            NodeId::Root => self.u8(0),
            NodeId::Elem { h, i } => {
                self.u8(1);
                self.u16(h.0);
                self.u32(i);
            }
            NodeId::Text { h, i } => {
                self.u8(2);
                self.u16(h.0);
                self.u32(i);
            }
            NodeId::Attr { h, elem, a } => {
                self.u8(3);
                self.u16(h.0);
                self.u32(elem);
                self.u16(a);
            }
            NodeId::Leaf { start } => {
                self.u8(4);
                self.u32(start);
            }
        }
    }
    fn spans(&mut self, entries: &[SpanEntry]) {
        self.u32(entries.len() as u32);
        for e in entries {
            self.u32(e.start);
            self.u32(e.end);
            self.node(e.node);
        }
    }
    fn positions(&mut self, positions: impl ExactSizeIterator<Item = u32>) {
        self.u32(positions.len() as u32);
        for p in positions {
            self.u32(p);
        }
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
    fn u16(&mut self) -> Result<u16, ColumnsError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }
    fn u32(&mut self) -> Result<u32, ColumnsError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, ColumnsError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn f64(&mut self) -> Result<f64, ColumnsError> {
        Ok(f64::from_bits(self.u64()?))
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

    fn node(&mut self) -> Result<NodeId, ColumnsError> {
        match self.u8()? {
            0 => Ok(NodeId::Root),
            1 => Ok(NodeId::Elem { h: HierarchyId(self.u16()?), i: self.u32()? }),
            2 => Ok(NodeId::Text { h: HierarchyId(self.u16()?), i: self.u32()? }),
            3 => {
                Ok(NodeId::Attr { h: HierarchyId(self.u16()?), elem: self.u32()?, a: self.u16()? })
            }
            4 => Ok(NodeId::Leaf { start: self.u32()? }),
            t => Err(bad(format!("unknown node tag {t}"))),
        }
    }

    fn spans(&mut self) -> Result<Vec<SpanEntry>, ColumnsError> {
        let n = self.count(9)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let start = self.u32()?;
            let end = self.u32()?;
            let node = self.node()?;
            out.push(SpanEntry { start, end, node });
        }
        Ok(out)
    }

    /// A column of `u32` positions into `of` that must be a permutation of
    /// it (as long as `of`, every position in range, each used once),
    /// gathered into the entries it selects.
    fn permutation<T: Copy>(&mut self, of: &[T], what: &str) -> Result<Vec<T>, ColumnsError> {
        let n = self.count(4)?;
        if n != of.len() {
            return Err(bad(format!("{what}: {n} positions for {} entries", of.len())));
        }
        let mut used = vec![false; n];
        let mut out = Vec::with_capacity(n);
        for chunk in self.take(4 * n)?.chunks_exact(4) {
            let p = u32::from_le_bytes(chunk.try_into().expect("4 bytes")) as usize;
            match used.get_mut(p) {
                Some(seen @ false) => *seen = true,
                Some(true) => return Err(bad(format!("{what}: position {p} repeated"))),
                None => return Err(bad(format!("{what}: position {p} out of range"))),
            }
            out.push(of[p]);
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

/// Lay `g` and its index out as snapshot sections. `idx` must be current
/// for `g` ([`StructIndex::is_current`]). Names and per-name statistics
/// are written in sorted order so identical documents produce identical
/// bytes (stable checksums).
pub fn dissect(g: &Goddag, idx: &StructIndex) -> Vec<Section> {
    debug_assert!(idx.is_current(g), "dissect needs the index built for this goddag");
    let mut meta = W::default();
    meta.str(g.text());
    meta.str(g.root_name());
    meta.pairs(g.root_attr_pairs());

    let mut hs = W::default();
    hs.u32(g.hierarchy_count() as u32);
    for (_, hier) in g.hierarchies() {
        hs.str(&hier.name);
        hs.u8(hier.is_virtual as u8);
        hs.u32(hier.elems.len() as u32);
        for e in &hier.elems {
            hs.str(&e.name);
            hs.pairs(&e.attrs);
            hs.u32(e.span.0);
            hs.u32(e.span.1);
            match e.parent {
                Parent::Root => hs.u8(0),
                Parent::Elem(p) => {
                    hs.u8(1);
                    hs.u32(p);
                }
            }
            hs.u32(e.children.len() as u32);
            for &k in &e.children {
                match k {
                    Kid::Elem(i) => {
                        hs.u8(0);
                        hs.u32(i);
                    }
                    Kid::Text(i) => {
                        hs.u8(1);
                        hs.u32(i);
                    }
                }
            }
            hs.u32(e.order);
            hs.u32(e.subtree_last);
        }
        hs.u32(hier.texts.len() as u32);
        for t in &hier.texts {
            hs.u32(t.span.0);
            hs.u32(t.span.1);
            match t.parent {
                Parent::Root => hs.u8(0),
                Parent::Elem(p) => {
                    hs.u8(1);
                    hs.u32(p);
                }
            }
            hs.u32(t.order);
        }
        hs.u32(hier.root_children.len() as u32);
        for &k in &hier.root_children {
            match k {
                Kid::Elem(i) => {
                    hs.u8(0);
                    hs.u32(i);
                }
                Kid::Text(i) => {
                    hs.u8(1);
                    hs.u32(i);
                }
            }
        }
    }

    let mut spans = W::default();
    spans.spans(&idx.ordered);
    let positions = Positions::of(g, &idx.ordered);
    spans.positions(positions.permutation(&idx.spans.by_start));
    spans.positions(positions.permutation(&idx.spans.by_end));

    let mut chains = W::default();
    chains.u32(idx.chains.len() as u32);
    for chain in &idx.chains {
        chains.u32(chain.len() as u32);
        for e in chain {
            chains.node(e.node);
            chains.u32(e.parent);
        }
    }

    let mut stats = W::default();
    stats.u64(idx.stats.element_count);
    stats.u64(idx.stats.span_count);
    stats.u64(idx.stats.text_len);
    stats.f64(idx.stats.avg_fanout);
    let mut stat_names: Vec<(&String, &(u32, u64))> = idx.stats.names.iter().collect();
    stat_names.sort_by_key(|(k, _)| k.as_str());
    stats.u32(stat_names.len() as u32);
    for (name, &(count, bytes)) in stat_names {
        stats.str(name);
        stats.u32(count);
        stats.u64(bytes);
    }

    vec![
        Section { kind: SEC_META, bytes: meta.buf },
        Section { kind: SEC_HIERARCHIES, bytes: hs.buf },
        Section { kind: SEC_NAMES, bytes: names_payload(&idx.name_map) },
        Section { kind: SEC_SPANS, bytes: spans.buf },
        Section { kind: SEC_CHAINS, bytes: chains.buf },
        Section { kind: SEC_STATS, bytes: stats.buf },
    ]
}

/// The NAMES payload: each name, in sorted order, with its run of nodes.
fn names_payload(name_map: &HashMap<String, Vec<NodeId>>) -> Vec<u8> {
    let mut names = W::default();
    let mut by_name: Vec<(&String, &Vec<NodeId>)> = name_map.iter().collect();
    by_name.sort_by_key(|(k, _)| k.as_str());
    names.u32(by_name.len() as u32);
    for (name, nodes) in by_name {
        names.str(name);
        names.u32(nodes.len() as u32);
        for &n in nodes {
            names.node(n);
        }
    }
    names.buf
}

/// Where each node sits in the index's `ordered` array: dense tables for
/// the root, elements and texts, and leaves by rank. Leaves are disjoint,
/// so every span order (`ordered`, by start, by end) lists them in the
/// same order, and the k-th leaf met in any of them is the k-th in
/// `ordered`. Turns a sorted copy of `ordered` into positions in linear
/// time, with no search and no sort.
struct Positions {
    root: u32,
    elems: Vec<Vec<u32>>,
    texts: Vec<Vec<u32>>,
    leaves: Vec<u32>,
}

impl Positions {
    fn of(g: &Goddag, ordered: &[SpanEntry]) -> Positions {
        let (elems, texts) = g
            .hierarchies()
            .map(|(_, h)| (vec![0; h.element_count()], vec![0; h.text_count()]))
            .unzip();
        let mut table = Positions { root: 0, elems, texts, leaves: Vec::new() };
        for (p, e) in ordered.iter().enumerate() {
            let p = p as u32;
            match e.node {
                NodeId::Root => table.root = p,
                NodeId::Elem { h, i } => table.elems[h.index()][i as usize] = p,
                NodeId::Text { h, i } => table.texts[h.index()][i as usize] = p,
                NodeId::Leaf { .. } => table.leaves.push(p),
                NodeId::Attr { .. } => unreachable!("attributes have empty spans"),
            }
        }
        table
    }

    /// The position in `ordered` of each entry of `sorted`, a reordering
    /// of it.
    fn permutation<'a>(
        &'a self,
        sorted: &'a [SpanEntry],
    ) -> impl ExactSizeIterator<Item = u32> + 'a {
        let mut leaf = 0;
        sorted.iter().map(move |e| match e.node {
            NodeId::Root => self.root,
            NodeId::Elem { h, i } => self.elems[h.index()][i as usize],
            NodeId::Text { h, i } => self.texts[h.index()][i as usize],
            NodeId::Leaf { .. } => {
                leaf += 1;
                self.leaves[leaf - 1]
            }
            NodeId::Attr { .. } => unreachable!("attributes have empty spans"),
        })
    }
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

fn check_span(span: (u32, u32), text: &str, what: &str) -> Result<(), ColumnsError> {
    let (s, e) = span;
    if s > e || e as usize > text.len() {
        return Err(bad(format!("{what} span {s}..{e} out of bounds (text len {})", text.len())));
    }
    if !text.is_char_boundary(s as usize) || !text.is_char_boundary(e as usize) {
        return Err(bad(format!("{what} span {s}..{e} not on char boundaries")));
    }
    Ok(())
}

fn check_kid(k: Kid, elems: usize, texts: usize, what: &str) -> Result<(), ColumnsError> {
    let ok = match k {
        Kid::Elem(i) => (i as usize) < elems,
        Kid::Text(i) => (i as usize) < texts,
    };
    if ok {
        Ok(())
    } else {
        Err(bad(format!("{what}: child link out of range")))
    }
}

fn check_node(n: NodeId, g: &Goddag, what: &str) -> Result<(), ColumnsError> {
    let ok = match n {
        NodeId::Root => true,
        NodeId::Elem { h, i } | NodeId::Attr { h, elem: i, .. } => {
            (h.index()) < g.hierarchy_count() && (i as usize) < g.hierarchy(h).element_count()
        }
        NodeId::Text { h, i } => {
            (h.index()) < g.hierarchy_count() && (i as usize) < g.hierarchy(h).text_count()
        }
        NodeId::Leaf { start } => (start as usize) <= g.text().len(),
    };
    if ok {
        Ok(())
    } else {
        Err(bad(format!("{what}: node id {n} out of range")))
    }
}

fn read_kid(r: &mut R<'_>) -> Result<Kid, ColumnsError> {
    match r.u8()? {
        0 => Ok(Kid::Elem(r.u32()?)),
        1 => Ok(Kid::Text(r.u32()?)),
        t => Err(bad(format!("unknown child tag {t}"))),
    }
}

fn read_parent(r: &mut R<'_>) -> Result<Parent, ColumnsError> {
    match r.u8()? {
        0 => Ok(Parent::Root),
        1 => Ok(Parent::Elem(r.u32()?)),
        t => Err(bad(format!("unknown parent tag {t}"))),
    }
}

/// Rebuild a `(Goddag, StructIndex)` pair from snapshot sections. Unknown
/// section kinds are ignored; missing or malformed sections error. The
/// returned index is stamped with the reconstructed document's identity,
/// so `is_current` holds immediately.
pub fn assemble(sections: &[Section]) -> Result<(Goddag, StructIndex), ColumnsError> {
    // META: text, root name, root attributes.
    let mut r = R::new(section(sections, SEC_META, "meta")?);
    let text = r.str()?;
    let root_name = r.str()?;
    let root_attrs = r.pairs()?;
    r.finish()?;

    // HIERARCHIES: arenas, validated against the text, then `finish()`ed
    // to re-derive the text-start lookup column.
    let mut r = R::new(section(sections, SEC_HIERARCHIES, "hierarchies")?);
    let hier_count = r.count(11)?;
    let mut hierarchies = Vec::with_capacity(hier_count);
    for hi in 0..hier_count {
        let name = r.str()?;
        let is_virtual = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(bad(format!("hierarchy {hi}: bad virtual flag {t}"))),
        };
        let elem_count = r.count(26)?;
        let mut elems = Vec::with_capacity(elem_count);
        for _ in 0..elem_count {
            let ename = r.str()?;
            let attrs = r.pairs()?;
            let span = (r.u32()?, r.u32()?);
            check_span(span, &text, "element")?;
            let parent = read_parent(&mut r)?;
            let kid_count = r.count(5)?;
            let mut children = Vec::with_capacity(kid_count);
            for _ in 0..kid_count {
                children.push(read_kid(&mut r)?);
            }
            let order = r.u32()?;
            let subtree_last = r.u32()?;
            elems.push(ElemNode {
                name: ename,
                attrs,
                span,
                parent,
                children,
                order,
                subtree_last,
            });
        }
        let text_count = r.count(17)?;
        let mut texts = Vec::with_capacity(text_count);
        for _ in 0..text_count {
            let span = (r.u32()?, r.u32()?);
            check_span(span, &text, "text node")?;
            let parent = read_parent(&mut r)?;
            let order = r.u32()?;
            texts.push(TextNode { span, parent, order });
        }
        let root_kid_count = r.count(5)?;
        let mut root_children = Vec::with_capacity(root_kid_count);
        for _ in 0..root_kid_count {
            root_children.push(read_kid(&mut r)?);
        }
        // Validate all intra-hierarchy links before navigation can follow
        // them.
        for (i, e) in elems.iter().enumerate() {
            if let Parent::Elem(p) = e.parent {
                if p as usize >= elems.len() {
                    return Err(bad(format!("hierarchy {hi} elem {i}: parent out of range")));
                }
            }
            for &k in &e.children {
                check_kid(k, elems.len(), texts.len(), "element")?;
            }
        }
        for (i, t) in texts.iter().enumerate() {
            if let Parent::Elem(p) = t.parent {
                if p as usize >= elems.len() {
                    return Err(bad(format!("hierarchy {hi} text {i}: parent out of range")));
                }
            }
        }
        for &k in &root_children {
            check_kid(k, elems.len(), texts.len(), "root")?;
        }
        let mut h =
            Hierarchy { name, elems, texts, root_children, is_virtual, text_starts: Vec::new() };
        h.finish();
        hierarchies.push(h);
    }
    r.finish()?;

    let g = Goddag::from_parts(text, root_name, root_attrs, hierarchies);

    // NAMES
    let mut r = R::new(section(sections, SEC_NAMES, "names")?);
    let name_count = r.count(8)?;
    let mut name_map: HashMap<String, Vec<NodeId>> = HashMap::with_capacity(name_count);
    for _ in 0..name_count {
        let name = r.str()?;
        let n = r.count(1)?;
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let node = r.node()?;
            check_node(node, &g, "name map")?;
            // The name-indexed steps answer in run order, and the chain
            // join merges runs as ascending preorder.
            if nodes.last().is_some_and(|&prev| g.cmp_order(prev, node) != Ordering::Less) {
                return Err(bad(format!("name map: run `{name}` is not in Definition-3 order")));
            }
            nodes.push(node);
        }
        if name_map.insert(name, nodes).is_some() {
            return Err(bad("duplicate name in name map"));
        }
    }
    r.finish()?;

    // SPANS: `ordered`, then the two sort orders as permutations of it.
    let mut r = R::new(section(sections, SEC_SPANS, "spans")?);
    let ordered = r.spans()?;
    for e in &ordered {
        check_node(e.node, &g, "span array")?;
        if e.node.is_attr() {
            return Err(bad("span array: attribute nodes have empty spans"));
        }
    }
    let by_start = r.permutation(&ordered, "by-start order")?;
    let by_end = r.permutation(&ordered, "by-end order")?;
    r.finish()?;
    let spans = Spans { by_start, by_end };
    let named = spans_by_name(&g, &name_map, &spans);

    // CHAINS: node and parent link; each span comes from the arenas.
    let mut r = R::new(section(sections, SEC_CHAINS, "chains")?);
    let chain_count = r.count(4)?;
    let mut chains = Vec::with_capacity(chain_count);
    for _ in 0..chain_count {
        // An element or text node (7 bytes) and its parent link (4).
        let n = r.count(11)?;
        let mut chain = Vec::with_capacity(n);
        for _ in 0..n {
            let node = r.node()?;
            check_node(node, &g, "containment chain")?;
            let parent = r.u32()?;
            if parent != NO_PARENT && parent as usize >= n {
                return Err(bad("containment chain: parent out of range"));
            }
            let (start, end) = g.span(node);
            chain.push(ChainEntry { start, end, node, parent });
        }
        chains.push(chain);
    }
    r.finish()?;
    if chains.len() != g.hierarchy_count() {
        return Err(bad(format!(
            "chain count {} != hierarchy count {}",
            chains.len(),
            g.hierarchy_count()
        )));
    }

    // STATS
    let mut r = R::new(section(sections, SEC_STATS, "stats")?);
    let element_count = r.u64()?;
    let span_count = r.u64()?;
    let text_len = r.u64()?;
    let avg_fanout = r.f64()?;
    let n = r.count(16)?;
    let mut stat_names = HashMap::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let count = r.u32()?;
        let bytes = r.u64()?;
        stat_names.insert(name, (count, bytes));
    }
    r.finish()?;

    let idx = StructIndex {
        version: g.version(),
        doc_id: g.doc_id(),
        name_map,
        ordered,
        spans,
        named,
        chains,
        stats: IndexStats { element_count, span_count, text_len, avg_fanout, names: stat_names },
    };
    Ok((g, idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goddag::GoddagBuilder;
    use crate::index::StructIndex;

    fn sample() -> (Goddag, StructIndex) {
        let g = GoddagBuilder::new()
            .hierarchy("lines", "<r a=\"b\"><line>gesceaftum una</line><line>wendendne</line></r>")
            .hierarchy("words", "<r a=\"b\"><w>gesceaftum</w> <w>unawendendne</w></r>")
            .build()
            .unwrap();
        let idx = StructIndex::build(&g);
        (g, idx)
    }

    /// The reloaded index holds the built one's arrays, entry for entry —
    /// not merely arrays that answer the same axis queries.
    fn assert_same_arrays(built: &StructIndex, reloaded: &StructIndex) {
        assert_eq!(built.ordered, reloaded.ordered);
        assert_eq!(built.spans, reloaded.spans);
        assert_eq!(built.named, reloaded.named);
        assert_eq!(built.chains, reloaded.chains);
        assert_eq!(built.name_map, reloaded.name_map);
    }

    #[test]
    fn round_trip_preserves_structure_and_queries() {
        let (g, idx) = sample();
        let sections = dissect(&g, &idx);
        let (g2, idx2) = assemble(&sections).unwrap();
        assert!(idx2.is_current(&g2));
        assert_same_arrays(&idx, &idx2);
        assert_eq!(g.text(), g2.text());
        assert_eq!(g.root_name(), g2.root_name());
        assert_eq!(g.root_attr_pairs(), g2.root_attr_pairs());
        assert_eq!(g.hierarchy_count(), g2.hierarchy_count());
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
    fn fresh_identity_but_current_index() {
        let (g, idx) = sample();
        let (g2, idx2) = assemble(&dissect(&g, &idx)).unwrap();
        assert_ne!(g.doc_id(), g2.doc_id(), "reloaded snapshot is a distinct document");
        assert!(idx2.is_current(&g2));
        assert!(!idx.is_current(&g2), "old index must not pass for the new document");
    }

    #[test]
    fn virtual_hierarchies_survive_round_trip() {
        let (mut g, _) = sample();
        let len = g.text().len() as u32;
        let frag = crate::hierarchy::FragmentSpec::new("res", (0, len))
            .child(crate::hierarchy::FragmentSpec::new("m", (0, 4)));
        g.add_virtual_hierarchy("rest", &[frag]).unwrap();
        let idx = StructIndex::build(&g);
        let (g2, idx2) = assemble(&dissect(&g, &idx)).unwrap();
        assert_same_arrays(&idx, &idx2);
        assert_eq!(g2.hierarchy_count(), 3);
        assert_eq!(g2.base_hierarchy_count(), 2);
        assert!(g2.hierarchy(HierarchyId(2)).is_virtual());
        // LIFO removal still works after reload.
        let mut g2 = g2;
        g2.remove_last_hierarchy().unwrap();
        assert_eq!(g2.hierarchy_count(), 2);
    }

    #[test]
    fn truncated_section_is_an_error_not_a_panic() {
        let (g, idx) = sample();
        let mut sections = dissect(&g, &idx);
        for i in 0..sections.len() {
            let keep = sections[i].bytes.len() / 2;
            sections[i].bytes.truncate(keep);
            assert!(assemble(&sections).is_err(), "truncated section {i} must error");
            let fresh = dissect(&g, &idx);
            sections[i].bytes = fresh[i].bytes.clone();
        }
    }

    #[test]
    fn every_single_byte_flip_errors_or_assembles() {
        // Checksums catch corruption upstream; this asserts the decoder
        // itself never panics even when handed silently corrupted bytes.
        let (g, idx) = sample();
        let sections = dissect(&g, &idx);
        for si in 0..sections.len() {
            for bi in (0..sections[si].bytes.len()).step_by(7) {
                let mut s = sections.clone();
                s[si].bytes[bi] ^= 0xFF;
                let _ = assemble(&s); // must not panic
            }
        }
    }

    /// A SPANS payload: `idx.ordered`, then the given by-start and by-end
    /// position columns.
    fn with_positions(idx: &StructIndex, by_start: &[u32], by_end: &[u32]) -> Vec<u8> {
        let mut w = W::default();
        w.spans(&idx.ordered);
        w.positions(by_start.iter().copied());
        w.positions(by_end.iter().copied());
        w.buf
    }

    #[test]
    fn malformed_permutations_error() {
        let (g, idx) = sample();
        let sections = dissect(&g, &idx);
        let at = sections.iter().position(|s| s.kind == SEC_SPANS).unwrap();
        let positions = Positions::of(&g, &idx.ordered);
        let by_start: Vec<u32> = positions.permutation(&idx.spans.by_start).collect();
        let by_end: Vec<u32> = positions.permutation(&idx.spans.by_end).collect();
        assert_eq!(sections[at].bytes, with_positions(&idx, &by_start, &by_end));
        let n = idx.ordered.len() as u32;

        let mut repeated = by_start.clone();
        repeated[1] = repeated[0];
        let mut out_of_range = by_end.clone();
        out_of_range[0] = n;
        let short = &by_start[1..];
        let mut long = by_end.clone();
        long.push(0);
        for (payload, want) in [
            (with_positions(&idx, &repeated, &by_end), "repeated"),
            (with_positions(&idx, &by_start, &out_of_range), "out of range"),
            (with_positions(&idx, short, &by_end), "positions for"),
            (with_positions(&idx, &by_start, &long), "positions for"),
        ] {
            let mut bad = sections.clone();
            bad[at].bytes = payload;
            let err = assemble(&bad).unwrap_err();
            assert!(err.detail.contains(want), "{want}: {}", err.detail);
        }
    }

    #[test]
    fn misordered_name_runs_error() {
        let (g, idx) = sample();
        let sections = dissect(&g, &idx);
        let at = sections.iter().position(|s| s.kind == SEC_NAMES).unwrap();
        assert_eq!(sections[at].bytes, names_payload(&idx.name_map));
        let mut swapped = idx.name_map.clone();
        swapped.get_mut("w").unwrap().swap(0, 1);
        let mut bad = sections.clone();
        bad[at].bytes = names_payload(&swapped);
        let err = assemble(&bad).unwrap_err();
        assert!(err.detail.contains("run `w` is not in Definition-3 order"), "{}", err.detail);
    }

    #[test]
    fn missing_section_errors() {
        let (g, idx) = sample();
        let mut sections = dissect(&g, &idx);
        sections.retain(|s| s.kind != SEC_SPANS);
        let err = assemble(&sections).unwrap_err();
        assert!(err.detail.contains("missing spans"), "{}", err.detail);
    }

    #[test]
    fn unknown_sections_are_ignored() {
        let (g, idx) = sample();
        let mut sections = dissect(&g, &idx);
        sections.push(Section { kind: 999, bytes: vec![1, 2, 3] });
        assert!(assemble(&sections).is_ok());
    }
}
