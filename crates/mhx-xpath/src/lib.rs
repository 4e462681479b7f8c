//! # mhx-xpath — the extended XPath of WebDB'05 / SIGMOD'06
//!
//! The paper's path language: its lexer, parser and a naive reference
//! interpreter with XPath 1.0 semantics
//! (node-sets, predicates with `position()`/`last()`, the core function
//! library) extended with
//!
//! * the seven KyGODDAG axes of Definition 1 — `xancestor`, `xdescendant`,
//!   `xfollowing`, `xpreceding`, `preceding-overlapping`,
//!   `following-overlapping`, `overlapping`;
//! * the Definition-2 node tests — `leaf()`, `text("h1,h2")`,
//!   `node("h1,h2")`, `*("h1,h2")` (and `name("h")` after an explicit
//!   axis, as an extension);
//! * regex functions `matches` / `replace` / `tokenize` backed by
//!   `mhx-regex`;
//! * KyGODDAG helper functions `leaves()`, `hierarchy()`, `leaf-count()`.
//!
//! Compiled evaluation lives in `mhx-xquery`: an XPath expression is
//! lowered into an XQuery plan and shares that crate's optimizer, step
//! resolution over the structural index, and evaluator. The interpreter
//! here, whose step is [`walk_step`], knows no index; it is the oracle the
//! compiled pipeline is tested against.
//!
//! ```
//! use mhx_goddag::GoddagBuilder;
//! use mhx_xpath::evaluate_xpath_naive;
//!
//! let g = GoddagBuilder::new()
//!     .hierarchy("lines", "<r><line>gesceaftum unawendendne sin</line>\
//!                          <line>gallice sibbe gecynde þa</line></r>")
//!     .hierarchy("words", "<r><w>gesceaftum</w> <w>unawendendne</w> \
//!                          <w>singallice</w> <w>sibbe</w> <w>gecynde</w> <w>þa</w></r>")
//!     .build()
//!     .unwrap();
//!
//! let v = evaluate_xpath_naive(
//!     &g,
//!     "/descendant::line[overlapping::w[string(.) = 'singallice']]",
//! )
//! .unwrap();
//! assert_eq!(v.to_str(&g), "gesceaftum unawendendne sin");
//! ```

pub mod ast;
pub mod error;
pub mod eval;
pub mod functions;
pub mod lexer;
pub mod parser;
pub mod value;

pub use ast::{BinOp, Expr, NodeTest, PathExpr, PathStart, Step};
pub use error::{Result, XPathError};
pub use eval::{evaluate_expr, evaluate_xpath_naive, node_test_matches, walk_step, Context};
pub use parser::parse;
pub use value::Value;

#[cfg(test)]
mod proptests {
    use super::*;
    use mhx_goddag::GoddagBuilder;
    use proptest::prelude::*;

    fn arb_path() -> impl Strategy<Value = String> {
        let axis = prop_oneof![
            Just("child"),
            Just("descendant"),
            Just("descendant-or-self"),
            Just("parent"),
            Just("ancestor"),
            Just("following"),
            Just("preceding"),
            Just("xancestor"),
            Just("xdescendant"),
            Just("xfollowing"),
            Just("xpreceding"),
            Just("overlapping"),
            Just("preceding-overlapping"),
            Just("following-overlapping"),
        ];
        let test = prop_oneof![
            Just("w".to_string()),
            Just("line".to_string()),
            Just("*".to_string()),
            Just("node()".to_string()),
            Just("text()".to_string()),
            Just("leaf()".to_string()),
        ];
        let step = (axis, test).prop_map(|(a, t)| format!("{a}::{t}"));
        proptest::collection::vec(step, 1..4).prop_map(|steps| format!("/{}", steps.join("/")))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random extended paths evaluate without panicking and yield
        /// sorted, duplicate-free node-sets.
        #[test]
        fn random_paths_sound(path in arb_path()) {
            let g = GoddagBuilder::new()
                .hierarchy(
                    "lines",
                    "<r><line>gesceaftum unawendendne sin</line><line>gallice sibbe gecynde þa</line></r>",
                )
                .hierarchy(
                    "words",
                    "<r><w>gesceaftum</w> <w>unawendendne</w> <w>singallice</w> <w>sibbe</w> <w>gecynde</w> <w>þa</w></r>",
                )
                .build()
                .unwrap();
            let v = evaluate_xpath_naive(&g, &path).unwrap();
            let Value::Nodes(ns) = v else { return Err(TestCaseError::fail("non-nodeset")); };
            for w in ns.windows(2) {
                prop_assert_eq!(g.cmp_order(w[0], w[1]), std::cmp::Ordering::Less);
            }
        }

        /// Display ∘ parse is stable (idempotent round-trip).
        #[test]
        fn display_parse_roundtrip(path in arb_path()) {
            let e1 = parse(&path).unwrap();
            let e2 = parse(&e1.to_string()).unwrap();
            prop_assert_eq!(e1, e2);
        }
    }
}
