//! Errors for KyGODDAG construction and CMH validation.

use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoddagError {
    /// A hierarchy's XML failed to parse.
    Xml(mhx_xml::XmlError),
    /// No hierarchies supplied.
    NoHierarchies,
    /// Two hierarchies disagree on the base text `S`.
    TextMismatch { first: String, second: String, detail: String },
    /// Hierarchies must share the root element name (the CMH root `r`).
    RootNameMismatch { expected: String, found: String, hierarchy: String },
    /// Hierarchy names must be unique.
    DuplicateHierarchy(String),
    /// Named hierarchy does not exist.
    UnknownHierarchy(String),
    /// Only the most recently added hierarchy can be removed (stack
    /// discipline keeps `HierarchyId`s stable).
    NotLastHierarchy,
    /// Base hierarchies cannot be removed, only virtual ones.
    NotVirtual,
    /// A fragment span is out of bounds or children escape their parent.
    BadSpan { start: usize, end: usize, len: usize },
    /// Fragment children must be disjoint and in order within the parent.
    OverlappingFragments,
    /// A hierarchy nests elements deeper than [`crate::hierarchy::MAX_DEPTH`].
    TooDeep { hierarchy: String },
    /// CMH violation (paper §3): shared non-root element name.
    SharedElement { name: String, dtd1: String, dtd2: String },
    /// CMH violation: root not declared in a DTD.
    RootNotDeclared { root: String, dtd: String },
    /// CMH violation: declared element unreachable from the root.
    Unreachable { name: String, dtd: String },
    /// A document failed DTD validation inside a CMH check.
    Validation(String),
}

impl fmt::Display for GoddagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoddagError::Xml(e) => write!(f, "XML error: {e}"),
            GoddagError::NoHierarchies => write!(f, "a multihierarchical document needs at least one hierarchy"),
            GoddagError::TextMismatch { first, second, detail } => write!(
                f,
                "hierarchies `{first}` and `{second}` encode different base texts: {detail}"
            ),
            GoddagError::RootNameMismatch { expected, found, hierarchy } => write!(
                f,
                "hierarchy `{hierarchy}` has root <{found}>, expected <{expected}> (CMH root must be shared)"
            ),
            GoddagError::DuplicateHierarchy(n) => write!(f, "hierarchy `{n}` already exists"),
            GoddagError::UnknownHierarchy(n) => write!(f, "no hierarchy named `{n}`"),
            GoddagError::NotLastHierarchy => {
                write!(f, "only the most recently added hierarchy can be removed")
            }
            GoddagError::NotVirtual => write!(f, "base hierarchies cannot be removed"),
            GoddagError::BadSpan { start, end, len } => {
                write!(f, "span {start}..{end} invalid for text of length {len}")
            }
            GoddagError::OverlappingFragments => {
                write!(f, "fragment children must be disjoint, ordered and inside their parent")
            }
            GoddagError::TooDeep { hierarchy } => write!(
                f,
                "hierarchy `{hierarchy}` nests elements deeper than {} levels",
                crate::hierarchy::MAX_DEPTH
            ),
            GoddagError::SharedElement { name, dtd1, dtd2 } => write!(
                f,
                "element <{name}> is declared in both `{dtd1}` and `{dtd2}` but only the root may be shared"
            ),
            GoddagError::RootNotDeclared { root, dtd } => {
                write!(f, "CMH root <{root}> is not declared in DTD `{dtd}`")
            }
            GoddagError::Unreachable { name, dtd } => {
                write!(f, "element <{name}> in DTD `{dtd}` is unreachable from the root")
            }
            GoddagError::Validation(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for GoddagError {}

impl From<mhx_xml::XmlError> for GoddagError {
    fn from(e: mhx_xml::XmlError) -> GoddagError {
        GoddagError::Xml(e)
    }
}

pub type Result<T> = std::result::Result<T, GoddagError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = GoddagError::TextMismatch {
            first: "lines".into(),
            second: "words".into(),
            detail: "length 5 vs 6".into(),
        };
        assert!(e.to_string().contains("lines"));
        assert!(e.to_string().contains("words"));
        assert!(GoddagError::NotLastHierarchy.to_string().contains("recently"));
    }
}
