//! Serialization of [`Document`] subtrees back to XML text.

use crate::dom::{Document, NodeId, NodeKind};
use crate::escape::{escape_attr_into, escape_text_into};
use std::fmt::Write;

/// Serialization knobs.
#[derive(Debug, Clone)]
pub struct SerializeOptions {
    /// `Some(n)`: pretty-print with `n`-space indents. Pretty-printing
    /// inserts whitespace and is therefore only safe for data-centric
    /// display; document-centric round-trips must use `None`.
    pub indent: Option<usize>,
    /// Collapse childless elements to `<e/>`.
    pub self_close_empty: bool,
    /// Emit `<?xml version="1.0" encoding="UTF-8"?>` first.
    pub declaration: bool,
}

impl Default for SerializeOptions {
    fn default() -> SerializeOptions {
        SerializeOptions { indent: None, self_close_empty: true, declaration: false }
    }
}

/// Serialize the whole document (children of the document node).
pub fn to_string(doc: &Document) -> String {
    let mut out = String::new();
    write_node(doc, NodeId::DOCUMENT, &mut out);
    out
}

/// Serialize a single node (and its subtree).
pub fn node_to_string(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    write_node(doc, id, &mut out);
    out
}

/// Append a single node (and its subtree) to `out` with the default
/// options: the writer behind [`node_to_string`], for callers that
/// assemble one buffer from many nodes.
pub fn write_node(doc: &Document, id: NodeId, out: &mut String) {
    write_with(doc, id, &SerializeOptions::default(), 0, out);
}

/// Serialize with options.
pub fn to_string_with(doc: &Document, opts: &SerializeOptions) -> String {
    let mut out = String::new();
    if opts.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if opts.indent.is_some() {
            out.push('\n');
        }
    }
    for c in doc.children(NodeId::DOCUMENT) {
        write_with(doc, c, opts, 0, &mut out);
        if opts.indent.is_some() {
            out.push('\n');
        }
    }
    out
}

fn write_with(doc: &Document, id: NodeId, opts: &SerializeOptions, depth: usize, out: &mut String) {
    match doc.kind(id) {
        NodeKind::Document => {
            for c in doc.children(id) {
                write_with(doc, c, opts, depth, out);
            }
        }
        NodeKind::Element { name, attrs } => {
            indent(opts, depth, out);
            out.push('<');
            out.push_str(name);
            for a in attrs {
                out.push(' ');
                out.push_str(&a.name);
                out.push_str("=\"");
                escape_attr_into(&a.value, out);
                out.push('"');
            }
            let mut kids = doc.children(id).peekable();
            if kids.peek().is_none() && opts.self_close_empty {
                out.push_str("/>");
                return;
            }
            out.push('>');
            let element_only = opts.indent.is_some()
                && doc.children(id).all(|c| !matches!(doc.kind(c), NodeKind::Text(_)));
            for c in kids {
                if element_only {
                    out.push('\n');
                }
                write_with(doc, c, opts, depth + 1, out);
            }
            if element_only {
                out.push('\n');
                indent(opts, depth, out);
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
        NodeKind::Text(t) => escape_text_into(t, out),
        NodeKind::Comment(t) => {
            indent(opts, depth, out);
            let _ = write!(out, "<!--{t}-->");
        }
        NodeKind::Pi { target, data } => {
            indent(opts, depth, out);
            if data.is_empty() {
                let _ = write!(out, "<?{target}?>");
            } else {
                let _ = write!(out, "<?{target} {data}?>");
            }
        }
    }
}

fn indent(opts: &SerializeOptions, depth: usize, out: &mut String) {
    // Indent only at the start of a fresh line; inside mixed content no
    // newline was emitted and no whitespace may be invented.
    if let Some(n) = opts.indent {
        if out.is_empty() || out.ends_with('\n') {
            for _ in 0..depth * n {
                out.push(' ');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn roundtrip(src: &str) -> String {
        to_string(&parse(src).unwrap())
    }

    #[test]
    fn simple_roundtrip() {
        assert_eq!(roundtrip("<a>x</a>"), "<a>x</a>");
    }

    #[test]
    fn attrs_escaped() {
        assert_eq!(
            roundtrip(r#"<a k="a &amp; &quot;b&quot;"/>"#),
            r#"<a k="a &amp; &quot;b&quot;"/>"#
        );
    }

    #[test]
    fn text_escaped() {
        assert_eq!(roundtrip("<a>1 &lt; 2 &amp; 3 &gt; 2</a>"), "<a>1 &lt; 2 &amp; 3 &gt; 2</a>");
    }

    #[test]
    fn empty_element_forms() {
        assert_eq!(roundtrip("<a></a>"), "<a/>");
        let d = parse("<a></a>").unwrap();
        let opts = SerializeOptions { self_close_empty: false, ..Default::default() };
        assert_eq!(to_string_with(&d, &opts), "<a></a>");
    }

    #[test]
    fn figure1_res_encoding_roundtrips() {
        let src = "<r><res>gesceaftum una</res>wendendne s<res>in</res><res>gallice sibbe \
                   gecyn</res>de þa</r>";
        assert_eq!(roundtrip(src), src);
    }

    #[test]
    fn comments_and_pis() {
        assert_eq!(roundtrip("<a><!--hi--><?p d?></a>"), "<a><!--hi--><?p d?></a>");
    }

    #[test]
    fn declaration_emitted_on_request() {
        let d = parse("<a/>").unwrap();
        let opts = SerializeOptions { declaration: true, ..Default::default() };
        assert_eq!(to_string_with(&d, &opts), "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
    }

    #[test]
    fn pretty_print_indents_element_only_content() {
        let d = parse("<a><b><c/></b></a>").unwrap();
        let opts = SerializeOptions { indent: Some(2), ..Default::default() };
        let s = to_string_with(&d, &opts);
        assert_eq!(s, "<a>\n  <b>\n    <c/>\n  </b>\n</a>\n");
    }

    #[test]
    fn pretty_print_preserves_mixed_content() {
        // Mixed content must never gain whitespace.
        let d = parse("<a>x<b>y</b>z</a>").unwrap();
        let opts = SerializeOptions { indent: Some(2), ..Default::default() };
        assert_eq!(to_string_with(&d, &opts), "<a>x<b>y</b>z</a>\n");
    }

    #[test]
    fn node_to_string_serializes_subtree() {
        let d = parse("<a><b>x</b></a>").unwrap();
        let r = d.root_element().unwrap();
        let b = d.first_child(r).unwrap();
        assert_eq!(node_to_string(&d, b), "<b>x</b>");
    }
}
