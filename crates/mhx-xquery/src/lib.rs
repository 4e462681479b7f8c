//! # mhx-xquery — the paper's extended XQuery engine
//!
//! XQuery (FLWOR core) over multihierarchical documents represented as a
//! KyGODDAG, with the extended axes / node tests of the path layer and the
//! `analyze-string()` function of Definition 4 that materializes regex
//! matches as a *temporary markup hierarchy*, so search results that
//! overlap existing markup can be related to the document structure with
//! `xancestor`/`overlapping`/… axes.
//!
//! The crate is also the compiled pipeline for the extended XPath: an
//! XPath expression is lowered onto the XQuery AST ([`xpath`]) and runs
//! through the same optimizer and evaluator.
//!
//! A query passes parse → compile → evaluate. Compiling an XQuery text
//! runs the static check (every call names a known function with an
//! argument count it takes, every variable is bound); compiling an XPath
//! text lowers it. Both, the optimizer ([`opt`]) and the evaluator read
//! one function registry ([`functions`]), which holds each function's
//! argument counts, XPath conversions, result type, focus use, purity,
//! cost and implementation.
//!
//! ```
//! use mhx_goddag::GoddagBuilder;
//! use mhx_xquery::run_query;
//!
//! let g = GoddagBuilder::new()
//!     .hierarchy("lines", "<r><line>gesceaftum unawendendne sin</line>\
//!                          <line>gallice sibbe gecynde þa</line></r>")
//!     .hierarchy("words", "<r><w>gesceaftum</w> <w>unawendendne</w> \
//!                          <w>singallice</w> <w>sibbe</w> <w>gecynde</w> <w>þa</w></r>")
//!     .build()
//!     .unwrap();
//!
//! // Paper query I.1: the word "singallice" straddles the line break.
//! let out = run_query(
//!     &g,
//!     "for $l in /descendant::line[xdescendant::w[string(.) = 'singallice'] or \
//!      overlapping::w[string(.) = 'singallice']] return string($l)",
//! )
//! .unwrap();
//! assert_eq!(out, "gesceaftum unawendendne singallice sibbe gecynde þa");
//! ```

pub mod analyze;
pub mod ast;
mod check;
pub mod error;
pub mod eval;
pub mod functions;
pub mod item;
pub mod opt;
pub mod parser;
pub mod plan;
pub mod serialize;
pub mod xpath;

pub use analyze::AnalyzeMode;
pub use ast::QExpr;
pub use error::{Result, XQueryError, XQueryErrorKind};
pub use eval::{Env, EvalOptions, EvalStats, Evaluator};
pub use item::{Item, Sequence};
pub use parser::parse_query;
pub use xpath::{evaluate_xpath, xpath_value};

use mhx_goddag::{Goddag, NodeId, StructIndex};

/// Run a query against a KyGODDAG and serialize the result (paper-style:
/// items concatenated without separators).
///
/// Queries using `analyze-string()` transparently work on a copy-on-write
/// clone so the temporary hierarchies never leak into `g`.
pub fn run_query(g: &Goddag, src: &str) -> Result<String> {
    run_query_with(g, src, &EvalOptions::default())
}

/// [`run_query`] with options. Compiles per call; repeat executions of one
/// query should keep the [`CompiledXQuery`] — that is what the engine
/// facade in the root crate caches.
pub fn run_query_with(g: &Goddag, src: &str, opts: &EvalOptions) -> Result<String> {
    CompiledXQuery::compile(src)?.run_with_index(g, None, opts).map(|(out, _)| out)
}

/// Run a query and return one serialized string per top-level result item
/// (the paper's "sequence of strings" output form).
pub fn run_query_sequence(g: &Goddag, src: &str, opts: &EvalOptions) -> Result<Vec<String>> {
    let plan = CompiledXQuery::compile(src)?;
    plan.evaluate(g, None, opts, |ev, seq| serialize::serialize_items(ev, &seq)).map(|(out, _)| out)
}

/// A compiled query — from an XQuery text, or from an XPath text through
/// [`CompiledXQuery::compile_xpath`]. Holds **both** the query as written
/// and the optimizer's rewrite of it (computed once, up front), so the
/// engine facade's cached plans serve connections with the `optimize`
/// knob on *and* off without re-running the rewrite per execution — the
/// knob selects an AST at evaluation time, it never forks the cache key.
#[derive(Debug, Clone)]
pub struct CompiledXQuery {
    src: String,
    ast: QExpr,
    optimized: QExpr,
    report: opt::OptimizerReport,
    /// Lowered XPath starts with the document root as its focus (position
    /// 1 of size 1); XQuery starts with no focus.
    root_focus: bool,
}

impl CompiledXQuery {
    /// Parse `src`, run the static check (an unknown function, a wrong
    /// argument count or an unbound variable is an
    /// [`XQueryErrorKind::Compile`] error), and optimize once.
    pub fn compile(src: &str) -> Result<CompiledXQuery> {
        let ast = parse_query(src)?;
        check::check(&ast)?;
        Ok(CompiledXQuery::build(src.to_string(), ast, false))
    }

    fn build(src: String, ast: QExpr, root_focus: bool) -> CompiledXQuery {
        let (optimized, report) = opt::optimize(&ast);
        CompiledXQuery { src, ast, optimized, report, root_focus }
    }

    /// The top-level environment: no variables, and the root focus for
    /// lowered XPath.
    fn env(&self) -> Env<'static> {
        let focus = self.root_focus.then_some((Item::Node(NodeId::Root), 1, 1));
        Env { vars: Vec::new(), focus }
    }

    /// The original query text (the cache key).
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The query as parsed (what `optimize: false` evaluates).
    pub fn ast(&self) -> &QExpr {
        &self.ast
    }

    /// Rewrites the optimizer applied at compile time.
    pub fn report(&self) -> &opt::OptimizerReport {
        &self.report
    }

    /// Render the optimized plan against one document: chosen rewrites,
    /// per-step strategies and annotations, and estimated (from the
    /// index's name counts) vs. **actual** cardinalities — each path is
    /// evaluated step by step to measure them.
    pub fn explain(&self, g: &Goddag, idx: &StructIndex) -> String {
        let mut ev = Evaluator::with_index(g, idx, EvalOptions::default());
        let mut env = self.env();
        opt::explain(&mut ev, &mut env, &self.optimized, &self.report, &self.src, idx)
    }

    /// Run against a goddag (optionally sharing a pre-built index),
    /// selecting the plan by `opts.optimize`. `finish` turns the result
    /// sequence into the caller's form while the evaluator — whose output
    /// arena holds any constructed nodes — is still alive; the step
    /// counters come back alongside.
    pub fn evaluate<T>(
        &self,
        g: &Goddag,
        idx: Option<&StructIndex>,
        opts: &EvalOptions,
        finish: impl FnOnce(&Evaluator<'_>, Sequence) -> T,
    ) -> Result<(T, EvalStats)> {
        let mut ev = match idx {
            Some(idx) => Evaluator::with_index(g, idx, opts.clone()),
            None => Evaluator::new(g, opts.clone()),
        };
        let ast = if opts.optimize {
            ev.stats.plan_rewrites = self.report.total() as u64;
            &self.optimized
        } else {
            &self.ast
        };
        let seq = ev.eval(ast, &mut self.env())?;
        Ok((finish(&ev, seq), *ev.stats()))
    }

    /// [`CompiledXQuery::evaluate`] to the serialized result.
    pub fn run_with_index(
        &self,
        g: &Goddag,
        idx: Option<&StructIndex>,
        opts: &EvalOptions,
    ) -> Result<(String, EvalStats)> {
        self.evaluate(g, idx, opts, |ev, seq| serialize::serialize_sequence(ev, &seq))
    }
}

#[cfg(test)]
mod paper_tests {
    //! End-to-end reproduction of every query in the paper's §4, asserted
    //! against the printed outputs (with the documented fidelity fixes —
    //! see DESIGN.md §6).

    use super::*;
    use mhx_goddag::GoddagBuilder;

    pub fn figure1() -> Goddag {
        GoddagBuilder::new()
            .hierarchy(
                "lines",
                "<r><line>gesceaftum unawendendne sin</line><line>gallice sibbe gecynde þa</line></r>",
            )
            .hierarchy(
                "words",
                "<r><vline><w>gesceaftum</w> <w>unawendendne</w> </vline><vline><w>singallice</w> <w>sibbe</w> <w>gecynde</w> </vline><vline><w>þa</w></vline></r>",
            )
            .hierarchy(
                "restorations",
                "<r><res>gesceaftum una</res>wendendne s<res>in</res><res>gallice sibbe gecyn</res>de þa</r>",
            )
            .hierarchy(
                "damage",
                "<r>gesceaftum una<dmg>w</dmg>endendne singallice sibbe gecyn<dmg>de þa</dmg></r>",
            )
            .build()
            .unwrap()
    }

    #[test]
    fn query_i1_exact_paper_output() {
        // Find and display lines containing the word singallice.
        let out = run_query(
            &figure1(),
            "for $l in /descendant::line\n\
             [xdescendant::w[string(.) = 'singallice'] or\n\
             overlapping::w[string(.) = 'singallice']] return string($l)",
        )
        .unwrap();
        // Paper: "gesceaftum unawendendne singallice sibbe gecynde Da"
        // (þ rendered as D in the OCR).
        assert_eq!(out, "gesceaftum unawendendne singallice sibbe gecynde þa");
    }

    #[test]
    fn query_i2_word_level_variant_matches_paper_output() {
        // Find and display lines containing words that are totally or
        // partially damaged and highlight such words. The paper's printed
        // output bolds every leaf of each damaged word.
        let out = run_query(
            &figure1(),
            "for $l in /descendant::line[xdescendant::w[xancestor::dmg or \
             xdescendant::dmg or overlapping::dmg]]\n\
             return ( for $leaf in $l/descendant::leaf() return\n\
             if ($leaf[ancestor::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]) \
             then <b>{$leaf}</b>\n\
             else $leaf\n\
             , <br/> )",
        )
        .unwrap();
        // Paper: gesceaftum <b>una</b><b>w</b><b>endendne</b>sin<br/>
        //        gallice sibbe <b>gecyn</b><b>de</b><b>Da</b><br/>
        // (modulo the paper print dropping two space leaves and OCR þ→D).
        assert_eq!(
            out,
            "gesceaftum <b>una</b><b>w</b><b>endendne</b> sin<br/>\
             gallice sibbe <b>gecyn</b><b>de</b> <b>þa</b><br/>"
        );
    }

    #[test]
    fn query_i2_strict_predicate_bolds_intersection_leaves() {
        // The literal printed predicate bolds only leaves inside both a
        // word and a damage region: w, de, þa.
        let out = run_query(
            &figure1(),
            "for $l in /descendant::line[xdescendant::w[xancestor::dmg or \
             xdescendant::dmg or overlapping::dmg]]\n\
             return ( for $leaf in $l/descendant::leaf() return\n\
             if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b>\n\
             else $leaf\n\
             , <br/> )",
        )
        .unwrap();
        assert_eq!(
            out,
            "gesceaftum una<b>w</b>endendne sin<br/>\
             gallice sibbe gecyn<b>de</b> <b>þa</b><br/>"
        );
    }

    #[test]
    fn query_ii1_exact_paper_output() {
        // Find all words containing "unawe", display them, highlight the
        // match. (Paper's `child::*`/`parent::m` is corrected to
        // `child::node()`/`self::m`; see DESIGN.md §6.)
        let out = run_query(
            &figure1(),
            "for $w in /descendant::w[matches(string(.), '.*unawe.*')]\n\
             return (\n\
             let $res := analyze-string($w, '.*unawe.*')\n\
             for $n in $res/child::node() return\n\
             if ($n[self::m]) then <b>{string($n)}</b>\n\
             else string($n)\n\
             , <br/> )",
        )
        .unwrap();
        // Paper: <b>unawe</b>ndendne<br/>
        assert_eq!(out, "<b>unawe</b>ndendne<br/>");
    }

    #[test]
    fn query_iii1_strict_output() {
        // II.1 plus italicizing restored parts (covered by <res> markup of
        // the restorations hierarchy). Strict Definition-1 semantics:
        // leaves of the match are una|w|e after the temporary hierarchy
        // splits "endendne"; only "una" lies in a restoration.
        let out = run_query(
            &figure1(),
            "for $w in /descendant::w[matches(string(.), '.*unawe.*')]\n\
             return (\n\
             let $res := analyze-string($w, '.*unawe.*')\n\
             for $leaf in $res/descendant::leaf() return\n\
             if ($leaf/xancestor::m and $leaf/ancestor::res(\"restorations\"))\n\
             then <i><b>{$leaf}</b></i>\n\
             else if ($leaf/xancestor::m) then <b>{$leaf}</b>\n\
             else $leaf\n\
             , <br/> )",
        )
        .unwrap();
        // Leaf-accurate output: una (restored+match), w and e (match only),
        // ndendne (rest of word).
        assert_eq!(out, "<i><b>una</b></i><b>w</b><b>e</b>ndendne<br/>");
    }

    #[test]
    fn query_iii1_merged_reading() {
        // The closest consistent reading of the paper's printed output
        // resolves `res` to the temporary wrapper; merging adjacent
        // equally-formatted leaves then gives <i><b>unawe</b></i>ndendne.
        let out = run_query(
            &figure1(),
            "for $w in /descendant::w[matches(string(.), '.*unawe.*')]\n\
             return (\n\
             let $res := analyze-string($w, '.*unawe.*')\n\
             return (\n\
             for $m in $res/child::m return <i><b>{string($m)}</b></i>,\n\
             for $t in $res/child::text() return string($t)\n\
             , <br/> ))",
        )
        .unwrap();
        assert_eq!(out, "<i><b>unawe</b></i>ndendne<br/>");
    }

    #[test]
    fn example1_fragment_pattern() {
        // Definition 4 Example 1: XML-fragment pattern with group tagging.
        let out = run_query(
            &figure1(),
            "let $w := (/descendant::w)[2] return \
             serialize(analyze-string($w, '.*un<a>a</a>we.*'))",
        )
        .unwrap();
        assert_eq!(out, "<res><m>un<a>a</a>we</m>ndendne</res>");
    }
}

#[cfg(test)]
mod engine_tests {
    use super::paper_tests::figure1;
    use super::*;

    fn run(q: &str) -> String {
        run_query(&figure1(), q).unwrap()
    }

    #[test]
    fn flwor_for_at() {
        assert_eq!(
            run("for $w at $i in /descendant::w return concat($i, ':', string($w), ' ')"),
            "1:gesceaftum 2:unawendendne 3:singallice 4:sibbe 5:gecynde 6:þa "
        );
    }

    #[test]
    fn flwor_where() {
        assert_eq!(
            run("for $w in /descendant::w where string-length(string($w)) > 9 \
                 return concat(string($w), ';')"),
            "gesceaftum;unawendendne;singallice;"
        );
    }

    #[test]
    fn flwor_order_by() {
        assert_eq!(
            run("for $w in /descendant::w order by string($w) return concat(string($w), ' ')"),
            "gecynde gesceaftum sibbe singallice unawendendne þa "
        );
        assert_eq!(
            run("for $w in /descendant::w order by string-length(string($w)) descending, \
                 string($w) return concat(string($w), ' ')"),
            "unawendendne gesceaftum singallice gecynde sibbe þa "
        );
    }

    #[test]
    fn let_bindings_chain() {
        assert_eq!(run("let $a := 2 let $b := $a * 3 return $a + $b"), "8");
    }

    #[test]
    fn quantified() {
        assert_eq!(run("some $w in /descendant::w satisfies string($w) = 'sibbe'"), "true");
        assert_eq!(
            run("every $w in /descendant::w satisfies string-length(string($w)) > 3"),
            "false"
        );
    }

    #[test]
    fn ranges_and_aggregates() {
        assert_eq!(run("sum(1 to 10)"), "55");
        assert_eq!(run("count(1 to 0)"), "0");
        assert_eq!(run("avg((2, 4))"), "3");
        assert_eq!(run("min((3, 1, 2))"), "1");
        assert_eq!(run("max((3, 1, 2))"), "3");
    }

    #[test]
    fn node_comparisons() {
        assert_eq!(run("(/descendant::w)[1] is (/descendant::w)[1]"), "true");
        assert_eq!(run("(/descendant::w)[1] << (/descendant::w)[2]"), "true");
        assert_eq!(run("(/descendant::w)[2] >> (/descendant::w)[1]"), "true");
        // Cross-hierarchy order: lines (h0) before words (h1).
        assert_eq!(run("(/descendant::line)[1] << (/descendant::w)[1]"), "true");
    }

    #[test]
    fn value_comparisons() {
        assert_eq!(run("2 lt 10"), "true");
        assert_eq!(run("'2' = 2"), "true");
        assert_eq!(run("'abc' eq 'abc'"), "true");
    }

    #[test]
    fn constructed_node_navigation() {
        assert_eq!(run("let $x := <d><a>1</a><b>2</b></d> return string($x/child::b)"), "2");
        assert_eq!(run("let $x := <d><a>1</a></d> return count($x/descendant::node())"), "2");
        // A chain join over constructed nodes runs its two steps as written.
        let chained = "let $x := <d><a><b/><b/></a><a><b/></a></d> \
                       return count($x/descendant::a/descendant::b)";
        assert_eq!(run(chained), "3");
    }

    #[test]
    fn attribute_constructors() {
        assert_eq!(
            run("let $c := 'x' return <div class=\"pre-{$c}\">t</div>"),
            "<div class=\"pre-x\">t</div>"
        );
    }

    #[test]
    fn deep_copy_in_constructors() {
        // A copied goddag element keeps markup of its own hierarchy only.
        assert_eq!(
            run("<out>{(/descendant::vline)[3]}</out>"),
            "<out><vline><w>þa</w></vline></out>"
        );
    }

    #[test]
    fn tokenize_returns_sequence() {
        assert_eq!(run("count(tokenize('a b c', ' '))"), "3");
        assert_eq!(run("string-join(tokenize('a b c', ' '), '-')"), "a-b-c");
    }

    #[test]
    fn distinct_and_reverse_and_subsequence() {
        assert_eq!(run("string-join(distinct-values(('a','b','a')), '')"), "ab");
        assert_eq!(run("string-join(reverse(('a','b','c')), '')"), "cba");
        assert_eq!(run("string-join(subsequence(('a','b','c','d'), 2, 2), '')"), "bc");
        // Positions round(start) <= p < round(start) + round(len), halves
        // rounding toward +∞; a NaN start keeps nothing.
        assert_eq!(run("string-join(subsequence(('a','b','c','d'), -0.5, 3), '')"), "ab");
        assert_eq!(run("string-join(subsequence(('a','b','c','d'), 1.5, 2), '')"), "bc");
        assert_eq!(run("count(subsequence((1,2,3), number('x')))"), "0");
        assert_eq!(run("round(-2.5)"), "-2");
        assert_eq!(run("round(-0.5)"), "0");
        assert_eq!(run("substring('12345', -1.5, 4)"), "12");
    }

    #[test]
    fn hierarchies_function() {
        assert_eq!(run("string-join(hierarchies(), ',')"), "lines,words,restorations,damage");
        assert_eq!(run("hierarchy((/descendant::dmg)[1])"), "damage");
        assert_eq!(run("leaf-count()"), "16");
        // With no argument, hierarchy() reads the context item.
        assert_eq!(run("count(/descendant::dmg[hierarchy() = 'damage'])"), "2");
    }

    #[test]
    fn leaves_function() {
        assert_eq!(
            run("string-join(for $l in leaves((/descendant::w)[2]) return string($l), '|')"),
            "una|w|endendne"
        );
        // With no argument, leaves() reads the context item.
        assert_eq!(run("count(/descendant::w[count(leaves()) = 3])"), "2");
    }

    #[test]
    fn if_without_effective_boolean() {
        assert_eq!(run("if (/descendant::w[string(.) = 'zzz']) then 'y' else 'n'"), "n");
        assert_eq!(run("if (/descendant::w[string(.) = 'sibbe']) then 'y' else 'n'"), "y");
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("7 idiv 2"), "3");
        assert_eq!(run("7 div 2"), "3.5");
        assert_eq!(run("7 mod 2"), "1");
        assert_eq!(run("-(3) + 5"), "2");
        assert_eq!(run("() + 1"), "");
    }

    #[test]
    fn empty_sequence_behaviour() {
        assert_eq!(run("()"), "");
        assert_eq!(run("empty(())"), "true");
        assert_eq!(run("exists(())"), "false");
        assert_eq!(run("count(())"), "0");
    }

    #[test]
    fn errors_reported() {
        let g = figure1();
        for src in ["$undefined", "wat()", "count()", "if (false()) then wat() else 1"] {
            let compile = XQueryErrorKind::Compile;
            assert_eq!(run_query(&g, src).unwrap_err().kind, compile, "`{src}`");
            assert_eq!(CompiledXQuery::compile(src).unwrap_err().kind, compile, "`{src}`");
        }
        assert!(run_query(&g, "1 idiv 0").is_err());
        assert!(run_query(&g, "analyze-string('notanode', 'x')").is_err());
        assert!(run_query(&g, "'a'/child::b").is_err());
    }

    #[test]
    fn analyze_string_does_not_mutate_input_goddag() {
        let g = figure1();
        let before = g.hierarchy_count();
        run_query(&g, "let $r := analyze-string((/descendant::w)[1], 'ge') return string($r)")
            .unwrap();
        assert_eq!(g.hierarchy_count(), before);
        assert_eq!(g.leaf_count(), 16);
    }

    #[test]
    fn analyze_string_xslt_mode() {
        let g = figure1();
        let opts = EvalOptions { analyze_mode: AnalyzeMode::Xslt, ..Default::default() };
        // In XSLT mode ".*unawe.*" greedily matches the whole word.
        let out = run_query_with(
            &g,
            "let $res := analyze-string((/descendant::w)[2], '.*unawe.*') \
             return serialize($res)",
            &opts,
        )
        .unwrap();
        assert_eq!(out, "<res><m>unawendendne</m></res>");
    }

    #[test]
    fn run_query_sequence_per_item() {
        let g = figure1();
        let v = run_query_sequence(
            &g,
            "for $w in /descendant::w return string($w)",
            &EvalOptions::default(),
        )
        .unwrap();
        assert_eq!(v.len(), 6);
        assert_eq!(v[0], "gesceaftum");
        assert_eq!(v[5], "þa");
        // A lone `.` is the context item, atomic or not; `./…` and `$x/.`
        // stay steps from a node.
        for (q, want) in [
            ("(1, 2, 3)[. > 1]", &["2", "3"][..]),
            ("for $x in (1, 2, 3) return $x[. > 1]", &["2", "3"]),
            ("count(/descendant::vline[./child::w])", &["3"]),
            (
                "for $w in (/descendant::w)[position() < 3] return string($w/.)",
                &["gesceaftum", "unawendendne"],
            ),
        ] {
            assert_eq!(run_query_sequence(&g, q, &EvalOptions::default()).unwrap(), want, "{q}");
        }
    }

    #[test]
    fn nested_flwor_in_sequence() {
        assert_eq!(
            run("for $x in (1, 2) return (for $y in (10, 20) return $x * $y, '|')"),
            "1020|2040|"
        );
    }

    #[test]
    fn predicates_with_position_inside_paths() {
        assert_eq!(run("string((/descendant::w)[position() = last()])"), "þa");
        assert_eq!(run("string(/descendant::w[2])"), "unawendendne");
    }

    #[test]
    fn union_in_xquery() {
        assert_eq!(run("count(/descendant::line | /descendant::vline)"), "5");
    }

    /// The deepest query of each shape, in both languages, compiles
    /// (lowering, static check, optimizer), explains, evaluates and
    /// serializes on a thread with the 2 MiB stack a server's workers get;
    /// one level deeper is a parse error, not a stack overflow.
    #[test]
    fn nesting_is_capped_within_a_worker_stack() {
        std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| {
                let g = figure1();
                let idx = StructIndex::build(&g);
                // Each shape at `levels` nested levels below the top one.
                let around = |open: &str, mid: &str, close: &str, levels: usize| {
                    format!("{}{mid}{}", open.repeat(levels), close.repeat(levels))
                };
                // Evaluation recurses once per FLWOR clause and quantifier
                // binding, so these count a level each, as brackets do.
                let clauses = |levels: usize| {
                    let each = |clause: fn(usize) -> &'static str| {
                        (0..levels).map(clause).collect::<String>()
                    };
                    vec![
                        format!("{}return $x", each(|_| "for $x in 1 ")),
                        format!("{}return $x", each(|_| "let $x := 1 ")),
                        format!("{}return $x", each(|i| ["for $x in 1 ", "where $x "][i % 2])),
                        format!("{}order by $x return $x", "for $x in 1 ".repeat(levels - 1)),
                        format!("some {} satisfies true()", vec!["$x in 1"; levels].join(", ")),
                        around("every $x in 1 satisfies ", "$x", "", levels),
                        // Clauses and brackets share the budget.
                        format!(
                            "{}for $x in {} return $x",
                            "for $x in 1 ".repeat(levels / 2),
                            around("(", "1", ")", levels - levels / 2 - 1)
                        ),
                    ]
                };
                let xquery = |levels: usize| {
                    let mut shapes = vec![
                        around("(", "1", ")", levels),
                        around("-", "1", "", levels),
                        around("", "1", " + 1", levels),
                        around("1 + (", "1", ")", levels / 2),
                        around("count(", "1", ")", levels),
                        around("/descendant::w[self::w", "", "]", levels),
                        around("<a>", "x", "</a>", levels),
                        around("<a>{", "1", "}</a>", levels / 2),
                        around("for $x in 1 return ", "$x", "", levels),
                    ];
                    shapes.extend(clauses(levels));
                    shapes
                };
                let xpath = |levels: usize| {
                    vec![
                        around("(", "1", ")", levels),
                        around("-", "1", "", levels),
                        around("", "1", " * 1", levels),
                        around("string(", "1", ")", levels),
                        around("/descendant::w[self::w", "", "]", levels),
                    ]
                };
                let deepest = parser::MAX_DEPTH - 1;
                for (lang, shapes, compile) in [
                    ("xquery", xquery(deepest), CompiledXQuery::compile as fn(&str) -> _),
                    ("xpath", xpath(deepest), CompiledXQuery::compile_xpath),
                ] {
                    for q in shapes {
                        let plan = compile(&q).unwrap_or_else(|e| panic!("{lang} {q}: {e}"));
                        plan.explain(&g, &idx);
                        for optimize in [true, false] {
                            let opts = EvalOptions { optimize, ..EvalOptions::default() };
                            plan.run_with_index(&g, Some(&idx), &opts).unwrap();
                        }
                    }
                }
                let shared =
                    format!("{}return {}", "for $x in 1 ".repeat(40), around("(", "1", ")", 40));
                for (lang, shapes, compile) in [
                    ("xquery", xquery(deepest + 1), CompiledXQuery::compile as fn(&str) -> _),
                    ("xquery", vec![shared], CompiledXQuery::compile),
                    ("xpath", xpath(deepest + 1), CompiledXQuery::compile_xpath),
                ] {
                    for q in shapes.into_iter().chain([around("(", "1", ")", 10_000)]) {
                        let err = compile(&q).expect_err(&format!("{lang} {q}"));
                        assert_eq!(err.kind, XQueryErrorKind::Parse, "{lang}: {err}");
                        assert!(err.msg.contains("nests deeper"), "{lang}: {err}");
                    }
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn ranges_past_the_cap_fail_before_allocating() {
        let g = figure1();
        let err = run_query(&g, "count(1 to 100000000000)").unwrap_err();
        assert_eq!(err.kind, XQueryErrorKind::Eval);
        assert!(err.msg.contains("longer than"), "{err}");
        let max = eval::MAX_RANGE;
        assert_eq!(run_query(&g, &format!("count(1 to {max})")).unwrap(), max.to_string());
        assert!(run_query(&g, &format!("count(0 to {max})")).is_err());
        assert!(run_query(&g, "count(-9223372036854775808 to 9223372036854775807)").is_err());
        assert_eq!(run_query(&g, "count(5 to 1)").unwrap(), "0");
        // A bound that is not a whole number is an error too, never a
        // rounded or zeroed range.
        for q in [
            "count('a' to 3)",
            "count(0.5 to 2)",
            "for $i in 1.5 to 3 return $i",
            "count((1 div 0) to 3)",
            "count(1 to (-1 div 0))",
        ] {
            let err = run_query(&g, q).unwrap_err();
            assert_eq!(err.kind, XQueryErrorKind::Eval, "`{q}`");
            assert!(err.msg.contains("not an integer"), "`{q}`: {err}");
        }
        assert_eq!(run_query(&g, "count(2.0 to 4)").unwrap(), "3");
        assert_eq!(run_query(&g, "count(<a>2</a> to 4)").unwrap(), "3");
        assert_eq!(
            run_query(&g, "count((/descendant::w)[1] to 4)").unwrap_err().kind,
            XQueryErrorKind::Eval
        );
    }

    /// `analyze-string` over a borrowed goddag copies it, but the copy
    /// shares every base hierarchy with the original, which is unchanged.
    #[test]
    fn analyze_string_copy_shares_base_hierarchies() {
        let g = figure1();
        let (version, count) = (g.version(), g.hierarchy_count());
        let plan = CompiledXQuery::compile("count(analyze-string(/, 'ge')/child::m)").unwrap();
        let shared = plan
            .evaluate(&g, None, &EvalOptions::default(), |ev, seq| {
                let copy = ev.goddag();
                assert_eq!(copy.hierarchy_count(), count + 1);
                assert_eq!(seq, vec![Item::Num(2.0)], "gesceaftum, gecynde");
                g.hierarchies().all(|(h, base)| std::ptr::eq(copy.hierarchy(h), base))
            })
            .unwrap()
            .0;
        assert!(shared, "the copy must share the base hierarchies");
        assert_eq!((g.version(), g.hierarchy_count()), (version, count));
    }
}
