//! XQuery errors.
//!
//! Every error carries a [`XQueryErrorKind`] recording the pipeline stage
//! that produced it — the parser marks its errors [`Parse`], XQuery's
//! static check and the XPath lowering [`Compile`], everything the
//! evaluator raises is [`Eval`] — so facade layers (the root crate's `Catalog`) can map
//! failures onto typed variants without string-sniffing.
//!
//! [`Parse`]: XQueryErrorKind::Parse
//! [`Compile`]: XQueryErrorKind::Compile
//! [`Eval`]: XQueryErrorKind::Eval

use std::fmt;

/// Which pipeline stage rejected the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XQueryErrorKind {
    /// The query text failed to lex/parse (includes embedded XPath-level
    /// syntax errors and malformed XML fragment patterns).
    Parse,
    /// The query parsed but is statically invalid: a call to an unknown
    /// function (in XPath, one outside XPath's function library) or with a
    /// wrong argument count, an unbound XQuery variable, an XPath
    /// `count()` of a non-node argument, …
    Compile,
    /// The parsed query failed during evaluation.
    Eval,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XQueryError {
    pub msg: String,
    /// Byte offset into the query source, when known.
    pub at: Option<usize>,
    /// Pipeline stage that produced the error.
    pub kind: XQueryErrorKind,
}

impl XQueryError {
    /// An evaluation-stage error (the common case outside the parser).
    pub fn new(msg: impl Into<String>) -> XQueryError {
        XQueryError { msg: msg.into(), at: None, kind: XQueryErrorKind::Eval }
    }

    /// A parse-stage error at a byte offset (the parser's constructor).
    pub fn at(msg: impl Into<String>, at: usize) -> XQueryError {
        XQueryError { msg: msg.into(), at: Some(at), kind: XQueryErrorKind::Parse }
    }

    /// Override the stage tag.
    pub fn with_kind(mut self, kind: XQueryErrorKind) -> XQueryError {
        self.kind = kind;
        self
    }
}

impl fmt::Display for XQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(f, "XQuery error at byte {at}: {}", self.msg),
            None => write!(f, "XQuery error: {}", self.msg),
        }
    }
}

impl std::error::Error for XQueryError {}

impl From<mhx_xpath::XPathError> for XQueryError {
    fn from(e: mhx_xpath::XPathError) -> XQueryError {
        // Embedded path expressions are parsed with the query; an XPath
        // error surfacing through the XQuery layer is a syntax problem.
        XQueryError { msg: e.msg, at: e.at, kind: XQueryErrorKind::Parse }
    }
}

impl From<mhx_xml::XmlError> for XQueryError {
    fn from(e: mhx_xml::XmlError) -> XQueryError {
        XQueryError { msg: e.to_string(), at: Some(e.pos.offset), kind: XQueryErrorKind::Parse }
    }
}

impl From<mhx_goddag::GoddagError> for XQueryError {
    fn from(e: mhx_goddag::GoddagError) -> XQueryError {
        XQueryError::new(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, XQueryError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert_eq!(XQueryError::new("x").to_string(), "XQuery error: x");
        assert_eq!(XQueryError::at("x", 3).to_string(), "XQuery error at byte 3: x");
        let e: XQueryError = mhx_xpath::XPathError::at("p", 2).into();
        assert_eq!(e.at, Some(2));
        let e: XQueryError = mhx_goddag::GoddagError::NoHierarchies.into();
        assert!(e.msg.contains("hierarchy"));
    }

    #[test]
    fn kinds_tag_the_stage() {
        assert_eq!(XQueryError::new("x").kind, XQueryErrorKind::Eval);
        assert_eq!(XQueryError::at("x", 0).kind, XQueryErrorKind::Parse);
        let e: XQueryError = mhx_xpath::XPathError::new("p").into();
        assert_eq!(e.kind, XQueryErrorKind::Parse);
        assert_eq!(
            XQueryError::new("x").with_kind(XQueryErrorKind::Parse).kind,
            XQueryErrorKind::Parse
        );
    }
}
