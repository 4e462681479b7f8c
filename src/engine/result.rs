//! The unified query result type.
//!
//! Both query languages return a [`QueryOutcome`], so callers never branch
//! on language: XPath produces node sets and atomics, XQuery produces
//! serialized markup, and every outcome carries its paper-style serialized
//! form (computed once, at evaluation time, with the same serializer the
//! XQuery engine uses — element nodes render their own hierarchy's markup,
//! leaves render text).
//!
//! Serializing eagerly is a deliberate trade-off: it makes the outcome
//! self-contained (valid after the document mutates or is removed, safe to
//! ship across threads) at the cost of rendering markup the caller may
//! never read. The whole answer is written in one pass into one `String`,
//! with nothing allocated per node, and an element is one copy of its
//! range of its hierarchy's markup (written once, on first use), so a
//! node set costs about a copy of its markup: on a ~100k-char document,
//! 1.9k overlapping elements (120 KB) serialize in ~0.04 ms (release
//! build, 2-vCPU VM), against ~0.28 ms when each element's subtree was
//! walked (`BENCH_serialize.json`). For bulk node
//! *enumeration* on large documents (`/descendant::*`), the unserialized
//! one-shot layer ([`mhx_xquery::evaluate_xpath`]) still skips that cost.
//! The server moves the text into its reply envelope with
//! [`QueryOutcome::into_string`] rather than copying it.

use crate::engine::error::QueryLang;
use mhx_goddag::NodeId;
use mhx_xpath::Value;
use mhx_xquery::{serialize, xpath_value, Evaluator, Item};

/// The value inside a [`QueryOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// A node set in KyGODDAG document order (XPath path results).
    Nodes(Vec<NodeId>),
    Str(String),
    Num(f64),
    Bool(bool),
    /// Serialized markup (XQuery sequences, which may contain constructed
    /// elements that outlive no evaluator).
    Markup(String),
}

/// What a query evaluated to, in both typed and serialized form.
///
/// ```
/// use multihier_xquery::prelude::*;
///
/// let catalog = Catalog::new();
/// catalog.insert(
///     "ms",
///     GoddagBuilder::new()
///         .hierarchy("lines", "<r><line>ab</line><line>cd</line></r>")
///         .hierarchy("words", "<r><w>a</w><w>bc</w><w>d</w></r>")
///         .build()
///         .unwrap(),
/// );
///
/// // Same result type from both languages:
/// let n = catalog.xpath("ms", "count(/descendant::w)").unwrap();
/// let q = catalog.xquery("ms", "count(/descendant::w)").unwrap();
/// assert_eq!(n.serialize(), "3");
/// assert_eq!(q.serialize(), "3");
/// assert_eq!(n.num(), Some(3.0));
///
/// // Node sets keep their identity alongside the serialized form
/// // (element nodes render the markup of their own hierarchy).
/// let words = catalog.xpath("ms", "/descendant::w[overlapping::line]").unwrap();
/// assert_eq!(words.nodes().unwrap().len(), 1);
/// assert_eq!(words.serialize(), "<w>bc</w>");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    lang: QueryLang,
    value: QueryValue,
    /// The serialized form, except for [`QueryValue::Markup`], which is its
    /// own serialized form and is held once (this is then empty).
    serialized: String,
}

impl QueryOutcome {
    /// Wrap an evaluation's result sequence: XPath keeps its typed value,
    /// XQuery its serialized markup; both serialize through the XQuery
    /// serializer so the languages print identically.
    pub(crate) fn new(lang: QueryLang, ev: &Evaluator<'_>, seq: &[Item]) -> QueryOutcome {
        let serialized = serialize::serialize_sequence(ev, seq);
        let (value, serialized) = match lang {
            QueryLang::XPath => {
                let value = match xpath_value(seq) {
                    Value::Nodes(ns) => QueryValue::Nodes(ns),
                    Value::Str(s) => QueryValue::Str(s),
                    Value::Num(n) => QueryValue::Num(n),
                    Value::Bool(b) => QueryValue::Bool(b),
                };
                (value, serialized)
            }
            QueryLang::XQuery => (QueryValue::Markup(serialized), String::new()),
        };
        QueryOutcome { lang, value, serialized }
    }

    /// Which language produced this outcome.
    pub fn lang(&self) -> QueryLang {
        self.lang
    }

    /// The paper-style serialized form ("the output … is either a string
    /// or a sequence of strings").
    pub fn serialize(&self) -> &str {
        match &self.value {
            QueryValue::Markup(s) => s,
            _ => &self.serialized,
        }
    }

    /// Consume into the serialized form without cloning.
    pub fn into_string(self) -> String {
        match self.value {
            QueryValue::Markup(s) => s,
            _ => self.serialized,
        }
    }

    /// Borrow the typed value.
    pub fn value(&self) -> &QueryValue {
        &self.value
    }

    /// Consume into the typed value.
    pub fn into_value(self) -> QueryValue {
        self.value
    }

    /// The node set, if this outcome is one.
    pub fn nodes(&self) -> Option<&[NodeId]> {
        match &self.value {
            QueryValue::Nodes(ns) => Some(ns),
            _ => None,
        }
    }

    /// The numeric value, if this outcome is an atomic number.
    pub fn num(&self) -> Option<f64> {
        match &self.value {
            QueryValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this outcome is an atomic boolean.
    pub fn bool(&self) -> Option<bool> {
        match &self.value {
            QueryValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// True when the outcome holds nothing: an empty node set or an empty
    /// serialized sequence.
    pub fn is_empty(&self) -> bool {
        match &self.value {
            QueryValue::Nodes(ns) => ns.is_empty(),
            QueryValue::Str(s) | QueryValue::Markup(s) => s.is_empty(),
            QueryValue::Num(_) | QueryValue::Bool(_) => false,
        }
    }
}

impl std::fmt::Display for QueryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.serialize())
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn an_xquery_outcome_holds_its_markup_once_and_reads_it_every_way() {
        let catalog = Catalog::new();
        catalog.insert(
            "ms",
            GoddagBuilder::new().hierarchy("w", "<r><w>a</w><w>b&amp;c</w></r>").build().unwrap(),
        );
        let query = "(<out>{count(/descendant::w)}</out>, /descendant::w)";
        let want = "<out>2</out><w>a</w><w>b&amp;c</w>";
        let outcome = catalog.xquery("ms", query).unwrap();
        assert_eq!(outcome.serialize(), want);
        assert_eq!(outcome.to_string(), want);
        assert!(!outcome.is_empty());
        assert_eq!(outcome.clone().into_string(), want);
        assert_eq!(outcome.into_value(), QueryValue::Markup(want.into()));
        // An XPath outcome keeps its typed value beside its text.
        let nodes = catalog.xpath("ms", "/descendant::w").unwrap();
        assert_eq!(nodes.nodes().map(<[_]>::len), Some(2));
        assert_eq!(nodes.clone().into_string(), "<w>a</w><w>b&amp;c</w>");
    }
}
