//! Typed engine errors.
//!
//! [`EngineError`] preserves the pipeline stage that rejected a request —
//! parse vs. compile vs. evaluation vs. catalog lookup vs. document
//! assembly — instead of flattening everything to a string, so serving
//! front ends can map failures onto protocol status codes.

use std::fmt;

/// Which query language a request was phrased in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryLang {
    XPath,
    XQuery,
}

impl QueryLang {
    /// Stable lowercase name (used in cache keys, CLI flags, messages).
    pub fn name(self) -> &'static str {
        match self {
            QueryLang::XPath => "xpath",
            QueryLang::XQuery => "xquery",
        }
    }
}

impl fmt::Display for QueryLang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from the catalog/engine facade.
///
/// Non-exhaustive: new stages (e.g. network-protocol errors) can be added
/// without breaking downstream matches.
///
/// ```
/// use multihier_xquery::prelude::*;
///
/// let catalog = Catalog::new();
/// match catalog.xquery("nowhere", "1 + 1") {
///     Err(EngineError::UnknownDocument { id }) => assert_eq!(id, "nowhere"),
///     other => panic!("expected UnknownDocument, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// The query text failed to lex/parse.
    Parse {
        lang: QueryLang,
        message: String,
        /// Byte offset into the query source, when known.
        at: Option<usize>,
    },
    /// The query parsed but could not be compiled into an executable plan
    /// (static errors: an unknown function, a wrong argument count, an
    /// unbound XQuery variable).
    Compile { lang: QueryLang, message: String },
    /// The compiled plan failed during evaluation against a document.
    Eval { lang: QueryLang, message: String },
    /// No document is registered under this id.
    UnknownDocument { id: String },
    /// A document could not be assembled (XML syntax, CMH text mismatch,
    /// duplicate hierarchy name, …).
    Document { message: String },
    /// The catalog is draining for shutdown: in-flight queries finish, new
    /// ones are refused (serving front ends map this to 503).
    ShuttingDown,
    /// The persistent document store failed (I/O error or a corrupt
    /// snapshot). Serving front ends map this to 500.
    Store { message: String },
}

impl EngineError {
    /// The offending query language, when the error concerns a query.
    pub fn lang(&self) -> Option<QueryLang> {
        match self {
            EngineError::Parse { lang, .. }
            | EngineError::Compile { lang, .. }
            | EngineError::Eval { lang, .. } => Some(*lang),
            _ => None,
        }
    }

    /// True for errors of the query text itself (parse or compile): the
    /// request can never succeed, against any document.
    pub fn is_static(&self) -> bool {
        matches!(self, EngineError::Parse { .. } | EngineError::Compile { .. })
    }

    pub(crate) fn document(message: impl Into<String>) -> EngineError {
        EngineError::Document { message: message.into() }
    }

    pub(crate) fn unknown_document(id: &str) -> EngineError {
        EngineError::UnknownDocument { id: id.to_string() }
    }

    pub(crate) fn store(message: impl Into<String>) -> EngineError {
        EngineError::Store { message: message.into() }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse { lang, message, at: Some(at) } => {
                write!(f, "{lang} parse error at byte {at}: {message}")
            }
            EngineError::Parse { lang, message, at: None } => {
                write!(f, "{lang} parse error: {message}")
            }
            EngineError::Compile { lang, message } => {
                write!(f, "{lang} compile error: {message}")
            }
            EngineError::Eval { lang, message } => {
                write!(f, "{lang} evaluation error: {message}")
            }
            EngineError::UnknownDocument { id } => {
                write!(f, "unknown document `{id}` (not registered in the catalog)")
            }
            EngineError::Document { message } => {
                write!(f, "document error: {message}")
            }
            EngineError::ShuttingDown => {
                write!(f, "catalog is shutting down (draining in-flight queries)")
            }
            EngineError::Store { message } => {
                write!(f, "document store error: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<mhx_goddag::GoddagError> for EngineError {
    fn from(e: mhx_goddag::GoddagError) -> EngineError {
        EngineError::document(e.to_string())
    }
}

impl From<mhx_xml::XmlError> for EngineError {
    fn from(e: mhx_xml::XmlError) -> EngineError {
        EngineError::document(e.to_string())
    }
}

/// Map a compiled-pipeline error (either language) through its stage tag.
pub(crate) fn query_error(lang: QueryLang, e: mhx_xquery::XQueryError) -> EngineError {
    match e.kind {
        mhx_xquery::XQueryErrorKind::Parse => EngineError::Parse { lang, message: e.msg, at: e.at },
        mhx_xquery::XQueryErrorKind::Compile => EngineError::Compile { lang, message: e.msg },
        mhx_xquery::XQueryErrorKind::Eval => EngineError::Eval { lang, message: e.msg },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_stage() {
        let e = EngineError::Parse {
            lang: QueryLang::XQuery,
            message: "expected `return`".into(),
            at: Some(7),
        };
        assert_eq!(e.to_string(), "xquery parse error at byte 7: expected `return`");
        assert!(e.is_static());
        assert_eq!(e.lang(), Some(QueryLang::XQuery));

        let e = EngineError::unknown_document("ms-b");
        assert!(e.to_string().contains("ms-b"));
        assert!(!e.is_static());
        assert_eq!(e.lang(), None);
    }

    #[test]
    fn source_kinds_survive_the_mapping() {
        let parse = mhx_xquery::XQueryError::at("bad", 3);
        match query_error(QueryLang::XQuery, parse) {
            EngineError::Parse { lang: QueryLang::XQuery, at: Some(3), .. } => {}
            other => panic!("expected Parse, got {other:?}"),
        }
        let compile = mhx_xquery::XQueryError::new("unknown function exists()")
            .with_kind(mhx_xquery::XQueryErrorKind::Compile);
        match query_error(QueryLang::XPath, compile) {
            EngineError::Compile { lang: QueryLang::XPath, .. } => {}
            other => panic!("expected Compile, got {other:?}"),
        }
        let eval = mhx_xquery::XQueryError::new("idiv by zero");
        match query_error(QueryLang::XQuery, eval) {
            EngineError::Eval { lang: QueryLang::XQuery, .. } => {}
            other => panic!("expected Eval, got {other:?}"),
        }
    }
}
