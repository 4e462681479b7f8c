//! Result serialization.
//!
//! The paper notes that "the output of such an XQuery expression evaluation
//! is either a string or a sequence of strings": query results are
//! flattened to markup text. KyGODDAG element nodes serialize the markup of
//! their own hierarchy; leaves and text nodes serialize their text;
//! constructed nodes serialize from the output arena. By default items are
//! concatenated without separators, matching the paper's printed outputs
//! (`EvalOptions::space_separator` restores standard XQuery spacing
//! between adjacent atomic values).

use crate::eval::Evaluator;
use crate::item::Item;
use mhx_goddag::NodeId;
use mhx_xml::escape::escape_text;
use std::fmt::Write;

/// Serialize a whole sequence.
pub fn serialize_sequence(ev: &Evaluator<'_>, items: &[Item]) -> String {
    let mut out = String::new();
    let mut prev_atomic = false;
    for item in items {
        let atomic = !item.is_node();
        if prev_atomic && atomic && ev.opts.space_separator {
            out.push(' ');
        }
        out.push_str(&serialize_item(ev, item));
        prev_atomic = atomic;
    }
    out
}

/// Serialize each item separately (one string per top-level item).
pub fn serialize_items(ev: &Evaluator<'_>, items: &[Item]) -> Vec<String> {
    items.iter().map(|i| serialize_item(ev, i)).collect()
}

/// Serialize one item. Top-level strings are emitted **raw**: the paper
/// treats query results as presentation strings ("the output … is either a
/// string or a sequence of strings"), so `string($l)` and `serialize($x)`
/// results print as-is. Text *inside* constructed elements is still
/// escaped when the element serializes.
pub fn serialize_item(ev: &Evaluator<'_>, item: &Item) -> String {
    match item {
        Item::Str(s) => s.clone(),
        Item::Num(n) => mhx_xpath::value::format_number(*n),
        Item::Bool(b) => b.to_string(),
        Item::ONode(o) => mhx_xml::node_to_string(ev.output_doc(), *o),
        Item::Node(n) => serialize_goddag_node(ev, *n),
    }
}

fn serialize_goddag_node(ev: &Evaluator<'_>, n: NodeId) -> String {
    let g = ev.goddag();
    match n {
        NodeId::Elem { .. } => {
            let mut out = String::new();
            write_elem(ev, n, &mut out);
            out
        }
        // Root, text, leaf, attribute: text content (escaped).
        other => escape_text(g.string_value(other)).into_owned(),
    }
}

fn write_elem(ev: &Evaluator<'_>, n: NodeId, out: &mut String) {
    let g = ev.goddag();
    let name = g.name(n).unwrap_or("?");
    out.push('<');
    out.push_str(name);
    for (k, v) in g.attrs(n) {
        let _ = write!(out, " {k}=\"{}\"", mhx_xml::escape::escape_attr(v));
    }
    let kids = g.children(n);
    if kids.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for c in kids {
        match c {
            NodeId::Elem { .. } => write_elem(ev, c, out),
            NodeId::Text { .. } => out.push_str(&escape_text(g.string_value(c))),
            _ => {}
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Env, EvalOptions, Evaluator};
    use crate::parser::parse_query;
    use mhx_goddag::GoddagBuilder;

    fn run(g: &mhx_goddag::Goddag, q: &str) -> String {
        let ast = parse_query(q).unwrap();
        let mut ev = Evaluator::new(g, EvalOptions::default());
        let seq = ev.eval(&ast, &mut Env::default()).unwrap();
        serialize_sequence(&ev, &seq)
    }

    fn g() -> mhx_goddag::Goddag {
        GoddagBuilder::new()
            .hierarchy("words", r#"<r><w part="I">un&amp;awe</w> <w>x</w></r>"#)
            .build()
            .unwrap()
    }

    #[test]
    fn top_level_strings_raw_but_constructed_text_escaped() {
        assert_eq!(run(&g(), "'a < b & c'"), "a < b & c");
        assert_eq!(run(&g(), "<x>{'a < b'}</x>"), "<x>a &lt; b</x>");
    }

    #[test]
    fn numbers_and_booleans() {
        assert_eq!(run(&g(), "1 + 1"), "2");
        assert_eq!(run(&g(), "2.5"), "2.5");
        assert_eq!(run(&g(), "true()"), "true");
    }

    #[test]
    fn goddag_element_serializes_markup() {
        assert_eq!(run(&g(), "/descendant::w[1]"), "<w part=\"I\">un&amp;awe</w>");
    }

    #[test]
    fn leaf_serializes_text() {
        assert_eq!(run(&g(), "(/descendant::w[2])/descendant::leaf()"), "x");
    }

    #[test]
    fn constructed_nodes_serialize() {
        assert_eq!(run(&g(), "<b>{'hi'}</b>"), "<b>hi</b>");
        assert_eq!(run(&g(), "<br/>"), "<br/>");
        assert_eq!(run(&g(), "<b>{/descendant::w[2]}</b>"), "<b><w>x</w></b>");
    }

    #[test]
    fn sequence_concatenation_paper_mode() {
        assert_eq!(run(&g(), "('a', 'b', <br/>, 'c')"), "ab<br/>c");
    }

    #[test]
    fn sequence_with_space_separator() {
        let ast = parse_query("('a', 'b', <br/>, 'c')").unwrap();
        let g = g();
        let mut ev =
            Evaluator::new(&g, EvalOptions { space_separator: true, ..Default::default() });
        let seq = ev.eval(&ast, &mut Env::default()).unwrap();
        assert_eq!(serialize_sequence(&ev, &seq), "a b<br/>c");
    }

    #[test]
    fn root_serializes_escaped_text_content() {
        // Node items (unlike strings) serialize as XML text.
        assert_eq!(run(&g(), "/"), "un&amp;awe x");
    }
}
