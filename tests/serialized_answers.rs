//! Serialized answers, byte for byte.
//!
//! The answer path writes every item of a result into one string: KyGODDAG
//! nodes through `mhx_goddag::export::write_node`, constructed nodes
//! through `mhx-xml`'s writer, atomics directly. Two oracles hold it:
//!
//! * `tests/fixtures/serialized_answers.txt` records the answers of the
//!   query table below on three documents (one
//!   `doc<TAB>mode<TAB>lang<TAB>query<TAB>answer` line per row), and every
//!   row must reproduce them with the optimizer on and off;
//! * for every element of generated documents, the serializer's output
//!   equals `mhx_xml::node_to_string` of the same element in that
//!   hierarchy's encoding parsed by `mhx-xml`, a writer that walks a
//!   different tree.

use mhx_corpus::{generate, GeneratorConfig};
use mhx_goddag::{Goddag, GoddagBuilder, HierarchyId, NodeId};
use mhx_xquery::{serialize, EvalOptions, Evaluator, Item};
use multihier_xquery::{Catalog, QueryLang};

/// A hand-written document whose text and attribute values hold every
/// character the writer escapes (`&`, `<`, `>`, `"`) and one it leaves
/// alone (`'`), with empty elements (`<br/>`, `<e></e>`) and
/// element-only content (`<g>`).
const MARKUP: &str = "<r n=\"a&amp;b\"><p k=\"&quot;q&quot; &lt;&gt; &apos;s&apos;\">\
                      <w>Tom</w> <w t=\"&amp;\">&amp;</w> <w>Jerry</w></p> \
                      <p><g><w t=\"1 &lt; 2\">\"x</w><w>&lt;y\"</w></g><br/> \
                      <w>'y&gt;x'</w><e></e></p></r>";
const SPANS: &str = "<r><s a=\"it's &quot;fine&quot;\">Tom &amp; Je</s><s>rry \"x&lt;</s>\
                     y\" <q>'y&gt;x'</q></r>";

/// One document of the table: its id, the goddag, and what the templates'
/// placeholders stand for there.
struct Doc {
    id: &'static str,
    g: Goddag,
    /// `{a}` and `{b}`: element names, `{b}` overlapping `{a}`; `{p}` and
    /// `{c}`: a parent and a descendant name in one hierarchy; `{k}`: an
    /// attribute name of `{a}`; `{re}`: a pattern with matches.
    names: [(&'static str, &'static str); 6],
}

fn documents() -> Vec<Doc> {
    let generated = generate(&GeneratorConfig {
        seed: 1,
        text_len: 1_500,
        hierarchies: 3,
        avg_element_len: 30,
        boundary_jitter: 0.7,
        nested: true,
    });
    vec![
        Doc {
            id: "figure1",
            g: multihier_xquery::corpus::figure1::goddag(),
            names: [
                ("a", "w"),
                ("b", "line"),
                ("p", "vline"),
                ("c", "w"),
                ("k", "n"),
                ("re", "ge"),
            ],
        },
        Doc {
            id: "generated",
            g: generated.build_goddag(),
            names: [
                ("a", "e1"),
                ("b", "e0"),
                ("p", "e0"),
                ("c", "s0"),
                ("k", "n"),
                ("re", "sceaft"),
            ],
        },
        Doc {
            id: "markup",
            g: GoddagBuilder::new()
                .hierarchy("words", MARKUP)
                .hierarchy("spans", SPANS)
                .build()
                .expect("the hand-written encodings share one text"),
            names: [("a", "w"), ("b", "s"), ("p", "g"), ("c", "w"), ("k", "t"), ("re", "y")],
        },
    ]
}

/// Queries, their language, and whether they also run with
/// `space_separator` on. The first seven are e2ebench's classes over the
/// document's names.
const QUERIES: &[(QueryLang, bool, &str)] = &[
    (QueryLang::XPath, false, "/descendant::{a}[overlapping::{b}]"),
    (QueryLang::XPath, false, "/descendant::{a}[2]/xfollowing::{b}"),
    (QueryLang::XPath, false, "/descendant::{p}/descendant::{c}"),
    (
        QueryLang::XQuery,
        true,
        "for $x in /descendant::{a}[xdescendant::{b}] return string($x/@{k})",
    ),
    (
        QueryLang::XQuery,
        false,
        "let $r := analyze-string(root(), '{re}') return count($r/child::m)",
    ),
    (
        QueryLang::XQuery,
        true,
        "for $x in /descendant::{b}[overlapping::{a}] where contains(string($x), '{re}') \
         return string($x/@{k})",
    ),
    (QueryLang::XPath, false, "count(/descendant::{b}[overlapping::{a}])"),
    (QueryLang::XPath, false, "/"),
    (QueryLang::XQuery, false, "/"),
    (QueryLang::XPath, false, "/descendant::*"),
    (QueryLang::XQuery, false, "/descendant::{p}"),
    (QueryLang::XPath, false, "/descendant::leaf()[3]"),
    (QueryLang::XQuery, false, "(/descendant::leaf())[position() < 5]"),
    (QueryLang::XPath, false, "/descendant::{a}[2]/child::text()"),
    (QueryLang::XQuery, false, "/descendant::text()"),
    (QueryLang::XPath, false, "/descendant::*/attribute::*"),
    (QueryLang::XQuery, true, "(/descendant::{a}/@{k}, 'x', /descendant::{a}[1]/@{k})"),
    (QueryLang::XQuery, false, "analyze-string(root(), '{re}')"),
    (
        QueryLang::XQuery,
        false,
        "<hit n=\"{count(/descendant::{a})}\" s=\"{string(/descendant::{a}[2])}\">\
         {/descendant::{a}[1]}{'a < b & \"c\"'}<in>{/descendant::{p}[1]}</in></hit>",
    ),
    (QueryLang::XQuery, false, "<out>{/}{/descendant::leaf()[2]}{/descendant::*/@*}</out>"),
    (
        QueryLang::XQuery,
        false,
        "for $x in /descendant::{b} return <o len=\"{string-length(string($x))}\">{$x}</o>",
    ),
    (QueryLang::XQuery, false, "<empty/>"),
    (QueryLang::XQuery, true, "(1, 'a<b', 2.5, true(), '&', /descendant::{a}[1], 3, 4)"),
    (QueryLang::XQuery, true, "for $x in /descendant::{a} return string-length(string($x))"),
    (QueryLang::XQuery, true, "(serialize(/descendant::{a}[1]), string(/descendant::{a}[1]))"),
];

/// `paper` is the default serialization; `spaced` turns on
/// `space_separator`.
const MODES: [(&str, bool); 2] = [("paper", false), ("spaced", true)];

/// One table row's answer as the fixture records it.
fn answer(catalog: &Catalog, doc: &str, lang: QueryLang, query: &str, opts: EvalOptions) -> String {
    let session = catalog.session(doc).expect("the document is loaded").with_options(opts);
    format!("{:?}", session.query(lang, query).map(|out| out.into_string()))
}

fn table() -> Vec<(&'static str, &'static str, String, QueryLang)> {
    let mut rows = Vec::new();
    for doc in documents() {
        for &(lang, spaced, template) in QUERIES {
            let query = doc
                .names
                .iter()
                .fold(template.to_string(), |q, (k, v)| q.replace(&format!("{{{k}}}"), v));
            for (mode, space) in MODES {
                if space && !spaced {
                    continue;
                }
                rows.push((doc.id, mode, query.clone(), lang));
            }
        }
    }
    rows
}

/// Every query of the table reproduces the answer recorded in
/// `tests/fixtures/serialized_answers.txt`, with the optimizer on and off.
#[test]
fn answers_reproduce_their_recorded_serializations() {
    let fixture = include_str!("fixtures/serialized_answers.txt");
    let recorded: std::collections::HashMap<(&str, &str, &str, &str), &str> = fixture
        .lines()
        .map(|line| {
            let mut cols = line.splitn(5, '\t');
            let mut col = || cols.next().expect("five tab-separated columns");
            ((col(), col(), col(), col()), col())
        })
        .collect();
    let catalog = Catalog::new();
    for doc in documents() {
        catalog.insert(doc.id, doc.g);
    }
    let mut wrong = Vec::new();
    let rows = table();
    for (doc, mode, query, lang) in &rows {
        let want = recorded
            .get(&(*doc, *mode, lang.name(), query.as_str()))
            .copied()
            .unwrap_or("(not recorded)");
        for optimize in [true, false] {
            let opts =
                EvalOptions { optimize, space_separator: *mode == "spaced", ..Default::default() };
            let got = answer(&catalog, doc, *lang, query, opts);
            if got != want {
                wrong.push(format!(
                    "{doc}\t{mode}\t{}\t{query}\t{got} (optimize {optimize})",
                    lang.name()
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "answers differ from the fixture:\n{}", wrong.join("\n"));
    assert_eq!(recorded.len(), rows.len(), "one fixture line per document, mode and query");
}

/// A generated encoding with escapable characters in its text and its
/// attribute values. The mapped letters occur in the corpus's text but in
/// none of its markup (`<r>`, `<e0 n="…">`, `<s0>`), and every hierarchy
/// maps them alike, so the encodings still share one text.
fn with_escapables(xml: &str) -> String {
    // Letters first, so no entity written here is rewritten later.
    xml.replace('g', "'")
        .replace('d', "\"")
        .replace('b', "&gt;")
        .replace('c', "&lt;")
        .replace('þ', "&amp;")
        .replace("n=\"", "n=\"&amp;&quot;'&lt;&gt;")
}

/// For every element of generated documents (escapable characters in the
/// text and in attribute values included), the XQuery serializer writes
/// what `mhx_xml::node_to_string` writes for the same element of the
/// hierarchy's own encoding parsed by `mhx-xml`.
#[test]
fn every_element_serializes_as_the_xml_writer_writes_its_source() {
    let configs = [
        GeneratorConfig { seed: 3, text_len: 2_000, nested: true, ..Default::default() },
        GeneratorConfig { seed: 4, text_len: 800, hierarchies: 2, ..Default::default() },
    ];
    let mut docs: Vec<Vec<(String, String)>> = Vec::new();
    for config in &configs {
        let encodings = generate(config).encodings;
        docs.push(encodings.iter().map(|(n, x)| (n.clone(), with_escapables(x))).collect());
        docs.push(encodings);
    }
    docs.push(vec![("words".into(), MARKUP.into()), ("spans".into(), SPANS.into())]);
    for encodings in docs {
        let mut b = GoddagBuilder::new();
        for (name, xml) in &encodings {
            b = b.hierarchy(name.clone(), xml.clone());
        }
        let g = b.build().unwrap();
        let ev = Evaluator::new(&g, EvalOptions::default());
        for (h, (name, xml)) in encodings.iter().enumerate() {
            let h = HierarchyId(h as u16);
            let dom = mhx_xml::parse(xml).unwrap();
            // The goddag numbers a hierarchy's elements in preorder below
            // the shared root; `descendants` walks the DOM in preorder.
            let root = dom.root_element().unwrap();
            let elements: Vec<_> = dom.descendants(root).filter(|&n| dom.is_element(n)).collect();
            assert_eq!(elements.len(), g.hierarchy(h).element_count(), "{name}");
            for (i, &n) in elements.iter().enumerate() {
                let item = Item::Node(NodeId::Elem { h, i: i as u32 });
                assert_eq!(
                    serialize::serialize_item(&ev, &item),
                    mhx_xml::node_to_string(&dom, n),
                    "{name}: element {i}"
                );
            }
        }
    }
}
