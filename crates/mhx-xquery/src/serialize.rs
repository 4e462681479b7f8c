//! Result serialization.
//!
//! The paper notes that "the output of such an XQuery expression evaluation
//! is either a string or a sequence of strings": query results are
//! flattened to markup text. KyGODDAG element nodes serialize the markup of
//! their own hierarchy; the root, leaves, text and attribute nodes
//! serialize their text; constructed nodes serialize from the output
//! arena. By default items are concatenated without separators, matching
//! the paper's printed outputs (`EvalOptions::space_separator` restores
//! standard XQuery spacing between adjacent atomic values).
//!
//! A sequence is written in one pass into one `String`: KyGODDAG nodes
//! through [`mhx_goddag::export::write_node`] (the one KyGODDAG node
//! writer, shared with hierarchy export), constructed nodes through
//! [`mhx_xml::write_node`], atomics directly. Nothing is allocated per
//! node written.

use crate::eval::Evaluator;
use crate::item::Item;
use mhx_goddag::export::write_node;

/// Serialize a whole sequence.
pub fn serialize_sequence(ev: &Evaluator<'_>, items: &[Item]) -> String {
    let mut out = String::new();
    let mut prev_atomic = false;
    for item in items {
        let atomic = !item.is_node();
        if prev_atomic && atomic && ev.opts.space_separator {
            out.push(' ');
        }
        write_item(ev, item, &mut out);
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
    let mut out = String::new();
    write_item(ev, item, &mut out);
    out
}

fn write_item(ev: &Evaluator<'_>, item: &Item, out: &mut String) {
    match item {
        Item::Str(s) => out.push_str(s),
        Item::Num(n) => out.push_str(&mhx_xpath::value::format_number(*n)),
        Item::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Item::ONode(o) => mhx_xml::write_node(ev.output_doc(), *o, out),
        Item::Node(n) => write_node(ev.goddag(), *n, out),
    }
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
