//! # multihier-xquery
//!
//! A Rust reproduction of **Iacob & Dekhtyar, "Multihierarchical XQuery for
//! Document-Centric XML" (SIGMOD 2006)**: a query engine for XML documents
//! whose text is annotated by several *concurrent markup hierarchies* that
//! may overlap each other — the normal situation in document-centric
//! encodings such as electronic editions of manuscripts.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`xml`] — XML parser / DOM / DTD substrate;
//! * [`regex`] — regex engine with capture groups;
//! * [`goddag`] — the KyGODDAG data structure, extended axes, node order;
//! * [`xpath`] — the extended XPath of the paper's Definition 1/2: parser,
//!   reference interpreter, index-backed step resolvers;
//! * [`xquery`] — the extended XQuery with `analyze-string()`, and the
//!   compiled pipeline both languages run on;
//! * [`corpus`] — the paper's Figure-1 manuscript corpus and synthetic
//!   workload generators;
//! * [`baseline`] — single-document milestone/fragmentation baselines;
//! * [`server`] — the `mhxd` network front end: a std-only concurrent
//!   HTTP/1.1 server (and matching blocking client) that puts the
//!   [`Catalog`] on the wire, one [`Session`] per connection.
//!
//! ## Quickstart
//!
//! ```
//! use multihier_xquery::prelude::*;
//!
//! // Two concurrent hierarchies over the same text.
//! let goddag = GoddagBuilder::new()
//!     .hierarchy("lines", "<r><line>gesceaftum unawendendne sin</line>\
//!                          <line>gallice sibbe gecynde þa</line></r>")
//!     .hierarchy("words", "<r><w>gesceaftum</w> <w>unawendendne</w> \
//!                          <w>singallice</w> <w>sibbe</w> <w>gecynde</w> <w>þa</w></r>")
//!     .build()
//!     .unwrap();
//!
//! // The word "singallice" overlaps the line break: the overlapping axis
//! // finds both lines.
//! let out = run_query(
//!     &goddag,
//!     "for $l in /descendant::line[xdescendant::w[string(.) = 'singallice'] or \
//!      overlapping::w[string(.) = 'singallice']] return string($l)",
//! )
//! .unwrap();
//! // Both lines match; paper-style serialization concatenates the two
//! // line strings, reassembling the split word.
//! assert_eq!(out, "gesceaftum unawendendne singallice sibbe gecynde þa");
//! ```

pub use mhx_baseline as baseline;
pub use mhx_corpus as corpus;
pub use mhx_goddag as goddag;
pub use mhx_regex as regex;
pub use mhx_xml as xml;
pub use mhx_xpath as xpath;
pub use mhx_xquery as xquery;

pub mod engine;
pub mod server;

pub use engine::{
    CacheStats, Catalog, EngineError, EvalStats, Prepared, QueryLang, QueryOutcome, QueryValue,
    Residency, Session, StoreStats,
};

/// The most common imports in one place.
pub mod prelude {
    pub use crate::engine::{
        CacheStats, Catalog, EngineError, EvalStats, Prepared, QueryLang, QueryOutcome, QueryValue,
        Residency, Session, StoreStats,
    };
    pub use mhx_goddag::{Goddag, GoddagBuilder, NodeId, StructIndex};
    pub use mhx_xml::Document;
    pub use mhx_xquery::{evaluate_xpath, run_query, run_query_with, EvalOptions};
}
