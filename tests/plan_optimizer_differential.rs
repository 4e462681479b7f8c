//! Differential property suite for the compiled pipeline: on random
//! GODDAGs, random paths with mixed positional / position-free predicates
//! must produce **identical node sets (document order included)** with the
//! optimizer on and off, as XPath texts (lowered onto the XQuery plan) and
//! as XQuery texts. The as-written plan is the optimizer's oracle, and the
//! naive `mhx-xpath` interpreter is the lowering's: every XPath answer —
//! typed value and serialized form — must equal the interpreter's, with
//! the optimizer on and off, including the XPath 1.0 conversion shapes the
//! lowering writes out as XQuery.
//!
//! The second half pins semantics with hand-computed answers: the
//! optimizer must never reorder across a positional predicate, and the
//! XPath probes whose text means something else as XQuery keep their
//! XPath meaning.

use multihier_xquery::corpus::{figure1, generate, GeneratorConfig};
use multihier_xquery::goddag::{Goddag, NodeId, StructIndex};
use multihier_xquery::prelude::*;
use multihier_xquery::xpath::eval::evaluate_xpath_naive;
use multihier_xquery::xpath::Value;
use multihier_xquery::xquery::{serialize, xpath_value, CompiledXQuery, Evaluator, Item};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        0u32..500,
        (60usize..240),
        (1usize..4),
        (5usize..25),
        (0usize..=10),
        prop_oneof![Just(true), Just(false)],
    )
        .prop_map(|(seed, text_len, hierarchies, avg_element_len, jitter, nested)| {
            GeneratorConfig {
                seed: seed as u64,
                text_len,
                hierarchies,
                avg_element_len,
                boundary_jitter: jitter as f64 / 10.0,
                nested,
            }
        })
}

/// Predicates spanning every optimizer class: positional (numeric,
/// `position()`, `last()`), position-free structural (extended-axis
/// subqueries, attribute and child tests), and position-free value tests.
fn arb_predicate() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        // positional
        Just("1"),
        Just("2"),
        Just("position() = 2"),
        Just("position() < last()"),
        Just("last()"),
        Just("count(child::node()) + 1"),
        // position-free, cheap
        Just("@n"),
        Just("child::s0"),
        Just("string-length(string(.)) > 4"),
        Just("contains(string(.), 'a')"),
        // position-free, extended-axis (expensive: reorder targets)
        Just("xancestor::e0"),
        Just("xfollowing::e1"),
        Just("xdescendant::e1"),
        Just("overlapping::e0"),
        Just("xancestor::e0[1]"),
    ]
}

fn arb_step() -> impl Strategy<Value = String> {
    let axis = prop_oneof![
        Just("descendant"),
        Just("descendant-or-self"),
        Just("child"),
        Just("xfollowing"),
        Just("xpreceding"),
        Just("xdescendant"),
        Just("xancestor"),
        Just("overlapping"),
        Just("following"),
        Just("ancestor"),
    ];
    let test = prop_oneof![
        Just("e0".to_string()),
        Just("e1".to_string()),
        Just("s0".to_string()),
        Just("*".to_string()),
        Just("node()".to_string()),
        Just("leaf()".to_string()),
    ];
    let preds = proptest::collection::vec(arb_predicate(), 0..3);
    (axis, test, preds).prop_map(|(a, t, ps)| {
        let preds: String = ps.iter().map(|p| format!("[{p}]")).collect();
        format!("{a}::{t}{preds}")
    })
}

/// Paths mixing explicit steps with `//` abbreviations (the fusion
/// target); always absolute so both languages start from the root.
fn arb_path() -> impl Strategy<Value = String> {
    let joiner = prop_oneof![Just("/"), Just("//")];
    (proptest::collection::vec(arb_step(), 1..4), proptest::collection::vec(joiner, 0..3)).prop_map(
        |(steps, joiners)| {
            let mut out = String::new();
            for (i, s) in steps.iter().enumerate() {
                let sep = if i == 0 { "/" } else { *joiners.get(i - 1).unwrap_or(&"/") };
                out.push_str(sep);
                out.push_str(s);
            }
            out
        },
    )
}

/// Boolean single-step extended-axis predicates — the existential
/// early-exit (first-witness probe) targets.
fn arb_boolean_axis_predicate() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("xancestor::e0"),
        Just("xfollowing::e1"),
        Just("xpreceding::e0"),
        Just("xdescendant::e1"),
        Just("overlapping::e0"),
        Just("preceding-overlapping::e1"),
        Just("following-overlapping::e0"),
        // Near-misses the optimizer must leave alone, mixed in so the
        // annotated and unannotated paths interleave on one step.
        Just("count(xfollowing::e1)"),
        Just("xancestor::e0[1]"),
        Just("2"),
    ]
}

/// `//a//b`-shaped chains (the chain-join target) with predicate lists
/// biased toward boolean axis predicates on the inner step.
fn arb_chain_path() -> impl Strategy<Value = String> {
    let name = prop_oneof![Just("e0"), Just("e1"), Just("s0")];
    (name.clone(), name, proptest::collection::vec(arb_boolean_axis_predicate(), 0..3)).prop_map(
        |(a, b, ps)| {
            let preds: String = ps.iter().map(|p| format!("[{p}]")).collect();
            format!("//{a}//{b}{preds}")
        },
    )
}

/// Conversion shapes the XPath lowering writes out as XQuery: node-set
/// arguments of string and number functions, arithmetic on node-sets,
/// node-sets against booleans, `tokenize`, zero-argument context
/// functions, and predicates reading them. `P`/`Q` stand for paths.
const COERCION_SHAPES: [&str; 48] = [
    "string(P)",
    "contains(P, 'e')",
    "starts-with(P, 'e')",
    "ends-with(P, 'e')",
    "substring-before(P, 'e')",
    "substring-after(P, 'e')",
    "upper-case(P)",
    "lower-case(concat(P, 'X'))",
    "replace(P, 'e', 'E')",
    "ceiling(P)",
    "round(P div 3)",
    "not(P) or local-name(P) = leaf-count()",
    "substring(P, 2, 3)",
    "string-length(P)",
    "concat(P, '|', Q)",
    "normalize-space(P)",
    "matches(P, 'e.')",
    "translate(P, 'e', 'E')",
    "P + 1",
    "-(P)",
    "floor(P)",
    "number(P) * 2",
    "sum(P)",
    "count(P) mod 3",
    "P = true()",
    "P != false()",
    "P < true()",
    "false() >= P",
    "true() < count(P)",
    "false() > '0.5'",
    "P = 'x'",
    "P > 3",
    "P = Q",
    "P | Q",
    "tokenize(string(P), ' ')",
    "boolean(P)",
    "name(P)",
    "hierarchy(P)",
    "leaves(P)",
    "leaves()",
    "hierarchy()",
    "position() + last()",
    "string()",
    "name()",
    "P[string() != '']",
    "P[. = true()]",
    "P[hierarchy() = 'h0']",
    "(P)[last()]",
];

/// Paths to fill the shapes with — empty, single and multi-node sets.
fn arb_operand() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("/descendant::e0"),
        Just("//s0"),
        Just("/descendant::e1[2]"),
        Just("/descendant::nope"),
        Just("/descendant::leaf()"),
        Just("/descendant::e0/xfollowing::e1"),
        Just("/descendant::*[overlapping::e0]"),
        Just("child::node()"),
        Just("."),
        Just("/"),
    ]
}

/// One XPath run on the compiled pipeline: typed value, serialized form,
/// step counters.
fn run_xpath(
    g: &Goddag,
    idx: &StructIndex,
    plan: &CompiledXQuery,
    optimize: bool,
) -> Result<(Value, String, EvalStats), String> {
    let opts = EvalOptions { optimize, ..Default::default() };
    plan.evaluate(g, Some(idx), &opts, |ev, seq| {
        (xpath_value(&seq), serialize::serialize_sequence(ev, &seq))
    })
    .map(|((value, out), stats)| (value, out, stats))
    .map_err(|e| e.to_string())
}

fn xpath_nodes(
    g: &Goddag,
    idx: &StructIndex,
    plan: &CompiledXQuery,
    optimize: bool,
) -> Vec<NodeId> {
    match run_xpath(g, idx, plan, optimize).unwrap().0 {
        Value::Nodes(ns) => ns,
        other => panic!("path should yield a node-set, got {other:?}"),
    }
}

/// The naive interpreter's answer in the same two forms.
fn naive(g: &Goddag, src: &str) -> Result<(Value, String), String> {
    let v = evaluate_xpath_naive(g, src).map_err(|e| e.to_string())?;
    let items: Vec<Item> = match &v {
        Value::Nodes(ns) => ns.iter().map(|&n| Item::Node(n)).collect(),
        Value::Str(s) => vec![Item::Str(s.clone())],
        Value::Num(n) => vec![Item::Num(*n)],
        Value::Bool(b) => vec![Item::Bool(*b)],
    };
    let out = serialize::serialize_sequence(&Evaluator::new(g, EvalOptions::default()), &items);
    Ok((v, out))
}

/// Typed equality with `NaN` equal to itself.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

/// The compiled XPath answer equals the naive interpreter's — typed value
/// and serialized form, optimizer on and off — or both reject the text.
fn assert_matches_naive(g: &Goddag, src: &str) {
    let idx = StructIndex::build(g);
    let oracle = naive(g, src);
    let plan = CompiledXQuery::compile_xpath(src).map_err(|e| e.to_string());
    for optimize in [false, true] {
        let got =
            plan.as_ref().map_err(String::clone).and_then(|p| run_xpath(g, &idx, p, optimize));
        match (&oracle, &got) {
            (Ok((v, out)), Ok((w, wout, _))) => {
                assert!(
                    same_value(v, w),
                    "`{src}` optimize={optimize}: naive {v:?}, compiled {w:?}"
                );
                assert_eq!(out, wout, "`{src}` optimize={optimize}: serialized forms differ");
            }
            (Err(_), Err(_)) => {}
            _ => panic!("`{src}` optimize={optimize}: naive {oracle:?}, compiled {got:?}"),
        }
    }
}

fn xquery_trace(g: &Goddag, path: &str, optimize: bool) -> String {
    let q = format!("for $n in {path} return concat(name($n), ':', string($n), '\u{1}')");
    let opts = EvalOptions { optimize, ..Default::default() };
    run_query_with(g, &q, &opts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Optimized == unoptimized node sets (order included) for random
    /// predicate-heavy paths, as XPath and as XQuery texts.
    #[test]
    fn optimizer_is_invisible_in_results(cfg in arb_config(), path in arb_path()) {
        let g = generate(&cfg).build_goddag();
        let idx = StructIndex::build(&g);
        let compiled = CompiledXQuery::compile_xpath(&path).unwrap();

        let base = xpath_nodes(&g, &idx, &compiled, false);
        let opt = xpath_nodes(&g, &idx, &compiled, true);
        prop_assert_eq!(&base, &opt, "xpath optimized vs as-written on `{}`", path);
        // Results must be in document order with no duplicates.
        for w in opt.windows(2) {
            prop_assert_eq!(g.cmp_order(w[0], w[1]), std::cmp::Ordering::Less);
        }

        let q_base = xquery_trace(&g, &path, false);
        let q_opt = xquery_trace(&g, &path, true);
        prop_assert_eq!(&q_base, &q_opt, "xquery optimized vs as-written on `{}`", path);
        assert_matches_naive(&g, &path);
    }

    /// XPath and XQuery texts of one path agree under the optimizer.
    #[test]
    fn engines_agree_under_optimizer(cfg in arb_config(), path in arb_path()) {
        let g = generate(&cfg).build_goddag();
        let idx = StructIndex::build(&g);
        let compiled = CompiledXQuery::compile_xpath(&path).unwrap();
        let xp: Vec<String> = xpath_nodes(&g, &idx, &compiled, true)
            .iter()
            .map(|&n| format!("{}:{}", g.name(n).unwrap_or(""), g.string_value(n)))
            .collect();
        let xq: Vec<String> = xquery_trace(&g, &path, true)
            .split('\u{1}')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        prop_assert_eq!(xp, xq, "engines disagree under the optimizer on `{}`", path);
    }

    /// Round-2 rewrites (containment-chain joins, existential probes,
    /// hoisting) stay invisible on paths built to trigger them: `//a//b`
    /// chains carrying boolean-axis predicate lists, through both
    /// engines, against the as-written oracle.
    #[test]
    fn chain_joins_and_probes_are_invisible(cfg in arb_config(), path in arb_chain_path()) {
        let g = generate(&cfg).build_goddag();
        let idx = StructIndex::build(&g);
        let compiled = CompiledXQuery::compile_xpath(&path).unwrap();

        let base = xpath_nodes(&g, &idx, &compiled, false);
        let opt = xpath_nodes(&g, &idx, &compiled, true);
        prop_assert_eq!(&base, &opt, "xpath optimized vs as-written on `{}`", path);
        for w in opt.windows(2) {
            prop_assert_eq!(g.cmp_order(w[0], w[1]), std::cmp::Ordering::Less);
        }

        let q_base = xquery_trace(&g, &path, false);
        let q_opt = xquery_trace(&g, &path, true);
        prop_assert_eq!(&q_base, &q_opt, "xquery optimized vs as-written on `{}`", path);
        assert_matches_naive(&g, &path);
    }

    /// The lowering's XPath 1.0 conversions equal the naive interpreter's
    /// on random documents, optimizer on and off: every shape, filled with
    /// random paths.
    #[test]
    fn lowered_conversions_equal_naive(
        cfg in arb_config(),
        p in arb_operand(),
        q in arb_operand(),
    ) {
        let g = generate(&cfg).build_goddag();
        for shape in COERCION_SHAPES {
            assert_matches_naive(&g, &shape.replace('P', p).replace('Q', q));
        }
    }
}

/// XPath texts that mean something else — or nothing — as XQuery, with
/// their hand-computed XPath answers on Figure 1 (words `gesceaftum …
/// þa`, lines split inside `singallice`). Each gives a different answer at
/// the XQuery reading of the same text; the compiled XPath must give the
/// XPath one, equal to the naive interpreter's. `None` is a compile error.
#[test]
fn xpath_probes_keep_their_xpath_meaning() {
    let g = figure1::goddag();
    let text = g.text().to_string();
    let table: &[(&str, Option<&str>)] = &[
        // first-node conversion of node-set arguments
        ("string(/descendant::w)", Some("gesceaftum")),
        ("contains(/descendant::w,'una')", Some("false")),
        ("substring(/descendant::w,2,3)", Some("esc")),
        ("matches(/descendant::w,'una')", Some("false")),
        // …and of arithmetic operands: the first node is not a number
        ("/descendant::w + 1", Some("NaN")),
        ("-(/descendant::line)", Some("NaN")),
        ("floor(/descendant::w)", Some("NaN")),
        // ordering a boolean against a number compares numbers: 1 < 2
        ("true() < 2", Some("true")),
        // a node-set against a boolean compares as boolean(node-set)
        ("/descendant::nope = true()", Some("false")),
        ("/descendant::nope = false()", Some("true")),
        ("/descendant::nope != true()", Some("true")),
        ("/descendant::nope < true()", Some("true")),
        ("/descendant::w = true()", Some("true")),
        ("/descendant::w = false()", Some("false")),
        ("/descendant::w != true()", Some("false")),
        ("/descendant::w < true()", Some("false")),
        // no sequences in XPath 1.0
        ("tokenize('a b c',' ')", Some("a b c")),
        // round() takes halves toward +∞ (§4.4), also inside substring()
        ("round(-2.5)", Some("-2")),
        ("round(-0.5)", Some("0")),
        ("substring('12345', -1.5, 4)", Some("12")),
        // the root is the top-level focus, position 1 of size 1
        ("leaves()", Some(text.as_str())),
        ("hierarchy()", Some("")),
        ("child::r", Some("")),
        ("position()", Some("1")),
        ("last()", Some("1")),
        ("string()", Some(text.as_str())),
        ("name()", Some("r")),
        // XPath's own function set
        ("exists(/descendant::w)", None),
        ("count('a')", None),
    ];
    let idx = StructIndex::build(&g);
    for (src, expected) in table {
        assert_matches_naive(&g, src);
        let plan = CompiledXQuery::compile_xpath(src);
        match expected {
            Some(want) => {
                let plan = plan.unwrap_or_else(|e| panic!("`{src}` should compile: {e}"));
                for optimize in [false, true] {
                    let (_, out, _) = run_xpath(&g, &idx, &plan, optimize).unwrap();
                    assert_eq!(out, *want, "`{src}` optimize={optimize}");
                }
            }
            None => assert!(plan.is_err(), "`{src}` must be a compile error"),
        }
    }
}

// ----------------------------------------------------------------------
// Positional-semantics regression table
// ----------------------------------------------------------------------

/// Pages + words over the text `aaa bbb ccc`, with the page break placed
/// *inside* the second word: `bbb` straddles the boundary, so it has no
/// `xancestor::p` while `aaa` and `ccc` do.
fn paged() -> Goddag {
    GoddagBuilder::new()
        .hierarchy("pages", "<r><p>aaa bb</p><p>b ccc</p></r>")
        .hierarchy("words", "<r><w>aaa</w> <w>bbb</w> <w>ccc</w></r>")
        .build()
        .unwrap()
}

/// Hand-computed answers for queries mixing positional and structural
/// predicates. The optimizer must never reorder across a positional
/// predicate — `w[2][xancestor::p]` (empty: `bbb` straddles the page
/// break) and `w[xancestor::p][2]` (`ccc`) are different queries.
#[test]
fn positional_semantics_pinned() {
    let g = paged();
    let idx = StructIndex::build(&g);
    let table: &[(&str, &[&str])] = &[
        ("/descendant::w[position() = 2]", &["bbb"]),
        ("/descendant::w[2]", &["bbb"]),
        ("/descendant::w[last()]", &["ccc"]),
        ("/descendant::w[xancestor::p]", &["aaa", "ccc"]),
        // positional after structural: filter first, then index.
        ("/descendant::w[xancestor::p][2]", &["ccc"]),
        ("/descendant::w[xancestor::p][position() = 1]", &["aaa"]),
        // structural after positional: index first, then filter — the
        // second word straddles the page break, so nothing survives.
        ("/descendant::w[2][xancestor::p]", &[]),
        ("/descendant::w[last()][xancestor::p]", &["ccc"]),
        // `//w[2]` is "second w-child of each parent", not fusable.
        ("//w[2]", &["bbb"]),
        // filter-expression predicates follow the same rules.
        ("(/descendant::w)[2]", &["bbb"]),
        ("(/descendant::w[xancestor::p])[last()]", &["ccc"]),
    ];
    for (src, expected) in table {
        assert_matches_naive(&g, src);
        let compiled = CompiledXQuery::compile_xpath(src).unwrap();
        for optimize in [false, true] {
            let got: Vec<String> = xpath_nodes(&g, &idx, &compiled, optimize)
                .iter()
                .map(|&n| g.string_value(n).to_string())
                .collect();
            assert_eq!(
                &got.iter().map(String::as_str).collect::<Vec<_>>(),
                expected,
                "`{src}` with optimize={optimize}"
            );
        }
        // And as an XQuery text, both knob settings.
        for optimize in [false, true] {
            let got = xquery_trace(&g, src, optimize);
            let words: Vec<&str> = got
                .split('\u{1}')
                .filter(|s| !s.is_empty())
                .map(|s| s.split_once(':').unwrap().1)
                .collect();
            assert_eq!(&words, expected, "xquery `{src}` with optimize={optimize}");
        }
    }
}

/// A numeric literal predicate keeps the item at that position, counted
/// from the end on a reverse axis and from the start in a filter
/// expression, and nothing for `0`, a fraction or a position past the end.
#[test]
fn literal_positions_select_one_item_or_none() {
    let g = paged();
    let paths = [
        // forward axes
        "/descendant::w[K]",
        "/descendant::w[1]/xfollowing::node()[K]",
        "/descendant::w[2]/following-overlapping::node()[K]",
        // reverse axes
        "/descendant::w[3]/xpreceding::node()[K]",
        "/descendant::leaf()[4]/ancestor::node()[K]",
        "/descendant::w[2]/preceding-overlapping::node()[K]",
        // filter expressions
        "(/descendant::w)[K]",
        "(/descendant::w[3]/xpreceding::node())[K]",
    ];
    for path in paths {
        for k in ["1", "2", "3", "4", "0", "1.5", "99", "-1", "2.0"] {
            assert_matches_naive(&g, &path.replace('K', k));
        }
    }
    for optimize in [false, true] {
        let opts = EvalOptions { optimize, ..Default::default() };
        for (q, want) in [("(5, 6, 7)[2]", "6"), ("(5, 6, 7)[0]", ""), ("(5, 6, 7)[1.5]", "")] {
            assert_eq!(run_query_with(&g, q, &opts).unwrap(), want, "{q} optimize={optimize}");
        }
        assert_eq!(run_query_with(&g, "(5, 6, 7)[4]", &opts).unwrap(), "");
    }
}

/// Two hierarchies sharing the name `x`, nested in itself, with empty
/// `<x/>` elements, which take part in no extended axis on either side.
fn shared_x() -> Goddag {
    GoddagBuilder::new()
        .hierarchy("h1", "<r><x>ab<x/>c</x><x>d<x>e</x></x>f<x/></r>")
        .hierarchy("h2", "<r>a<x>bcd<x/></x><x>ef</x></r>")
        .build()
        .unwrap()
}

/// Named extended-axis lookups, as probes and as steps, over a name that
/// both hierarchies carry (so one candidate list spans both), over its
/// empty elements, and under hierarchy-qualified tests.
#[test]
fn named_lookups_over_shared_empty_and_qualified_elements() {
    let g = shared_x();
    let idx = StructIndex::build(&g);
    let axes = [
        "xancestor",
        "xdescendant",
        "xfollowing",
        "xpreceding",
        "preceding-overlapping",
        "following-overlapping",
        "overlapping",
    ];
    for axis in axes {
        for test in ["x", "x(\"h1\")", "x(\"h2\")", "*", "node()", "nope"] {
            for src in [
                format!("/descendant::x[{axis}::{test}]"),
                format!("/descendant::node()[{axis}::{test}]"),
                format!("/descendant::x/{axis}::{test}"),
            ] {
                assert_matches_naive(&g, &src);
            }
        }
    }
    let probed = CompiledXQuery::compile_xpath("/descendant::x[xdescendant::x(\"h1\")]").unwrap();
    let (_, _, k) = run_xpath(&g, &idx, &probed, true).unwrap();
    assert!(k.early_exit_steps >= 1, "the one-pass probe answered the predicate");
}

/// The fusion rewrite really fires on this corpus and stays invisible:
/// `//w` (two desugared walks) equals `/descendant::w`, and the engine
/// counters prove the optimized run used a rewritten plan.
#[test]
fn fusion_equivalence_and_counters() {
    let g = paged();
    let idx = StructIndex::build(&g);
    let compiled = CompiledXQuery::compile_xpath("//w[xancestor::p]").unwrap();
    assert!(compiled.report().fused_steps >= 1);
    assert!(compiled.report().batch_routed_steps >= 1);

    let (v, _, k) = run_xpath(&g, &idx, &compiled, true).unwrap();
    let Value::Nodes(ns) = v else { panic!() };
    assert_eq!(ns.len(), 2);
    assert!(k.batched_steps >= 1, "fused step took the batch path");
    assert!(k.rewritten_steps >= 1);

    // As-written plan: same result, nothing rewritten.
    let (v0, _, k0) = run_xpath(&g, &idx, &compiled, false).unwrap();
    assert_eq!(v0, Value::Nodes(ns));
    assert_eq!(k0.rewritten_steps, 0);
}

/// A single-hierarchy corpus where `p` really contains `w` in the tree —
/// `//p//w` has non-trivial answers, unlike the cross-hierarchy [`paged`].
fn nested() -> Goddag {
    GoddagBuilder::new()
        .hierarchy("doc", "<r><p><w>aaa</w> <w>bbb</w></p> <w>ccc</w></r>")
        .build()
        .unwrap()
}

/// Existential early-exit must NOT fire where it would change semantics:
/// a numeric-typed predicate (`count(...)` is a position shorthand) and a
/// positional predicate pin the step to the per-candidate path, and the
/// runtime counter stays at zero. The boolean-axis control fires.
#[test]
fn early_exit_fires_only_on_boolean_axis_predicates() {
    let g = paged();
    let idx = StructIndex::build(&g);

    for src in [
        // count(...) is numeric: [count(xfollowing::p)] means position().
        "/descendant::w[count(xfollowing::p)]",
        // positional context: the probe annotation must not cross [2].
        "/descendant::w[2][xancestor::p]",
    ] {
        let compiled = CompiledXQuery::compile_xpath(src).unwrap();
        assert_eq!(compiled.report().existential_probes, 0, "`{src}` must not be annotated");
        let (_, _, k) = run_xpath(&g, &idx, &compiled, true).unwrap();
        assert_eq!(k.early_exit_steps, 0, "`{src}` must not probe");
    }

    let compiled = CompiledXQuery::compile_xpath("/descendant::w[xancestor::p]").unwrap();
    assert!(compiled.report().existential_probes >= 1);
    let (v, _, k) = run_xpath(&g, &idx, &compiled, true).unwrap();
    let Value::Nodes(ns) = v else { panic!() };
    assert_eq!(ns.len(), 2);
    assert!(k.early_exit_steps >= 1, "the boolean-axis control must probe");

    // Knob off: same nodes, no probes counted.
    let (v0, _, k0) = run_xpath(&g, &idx, &compiled, false).unwrap();
    assert_eq!(v0, Value::Nodes(ns));
    assert_eq!(k0.early_exit_steps, 0);
}

/// The chain-join and hoist rewrites fire on corpora built for them, stay
/// invisible in the results, and surface in the runtime counters.
#[test]
fn chain_join_and_hoist_counters() {
    let g = nested();
    let idx = StructIndex::build(&g);

    let chain = CompiledXQuery::compile_xpath("//p//w").unwrap();
    assert_eq!(chain.report().chain_join_steps, 1);
    let (v, _, k) = run_xpath(&g, &idx, &chain, true).unwrap();
    let Value::Nodes(ns) = v else { panic!() };
    assert_eq!(ns.len(), 2, "aaa and bbb sit under p; ccc does not");
    assert!(k.chain_joins >= 1);
    let (v0, _, k0) = run_xpath(&g, &idx, &chain, false).unwrap();
    assert_eq!(v0, Value::Nodes(ns));
    assert_eq!(k0.chain_joins, 0);

    let hoist = CompiledXQuery::compile_xpath("/descendant::w[count(/descendant::p) > 0]").unwrap();
    assert!(hoist.report().hoisted_predicates >= 1);
    let (v, _, k) = run_xpath(&g, &idx, &hoist, true).unwrap();
    let Value::Nodes(ns) = v else { panic!() };
    assert_eq!(ns.len(), 3, "the hoisted predicate is true for every w");
    assert!(k.hoisted_preds >= 1);
    let (v0, _, k0) = run_xpath(&g, &idx, &hoist, false).unwrap();
    assert_eq!(v0, Value::Nodes(ns));
    assert_eq!(k0.hoisted_preds, 0);

    // Same queries as XQuery texts, both knob settings.
    for src in ["//p//w", "/descendant::w[count(/descendant::p) > 0]"] {
        assert_eq!(xquery_trace(&g, src, true), xquery_trace(&g, src, false), "`{src}`");
    }
}

/// Pages and words carrying attributes: `n` on some elements of both
/// hierarchies, and names an element and an attribute share (`p`, `x`).
fn attributed() -> Goddag {
    GoddagBuilder::new()
        .hierarchy("pages", r#"<r><p n="1">aaa bb</p><p n="2" x="q">b ccc</p></r>"#)
        .hierarchy("words", r#"<r><w n="1">aaa</w> <w>bbb</w> <w n="3" p="x">ccc</w></r>"#)
        .build()
        .unwrap()
}

/// `return` forms over a bound item — attribute steps present and absent,
/// `@*`, `..`, `child::*`, calls, a positional variable, a nested FLWOR
/// that shadows `$x`, quantifiers — with the optimizer on and off, against
/// the naive interpreter run once per tuple on `(P)[i]` (`X` below, and
/// `I` for `i`). Each tuple's answer ends in `§`, so an item landing in
/// the wrong tuple shows.
#[test]
fn return_forms_over_a_bound_item_match_naive_per_tuple() {
    let forms: &[(&str, &str)] = &[
        ("string($x/@n)", "string(X/@n)"),
        ("$x/@n", "X/@n"),
        ("string($x/@missing)", "string(X/@missing)"),
        ("$x/@*", "X/@*"),
        ("$x/@p", "X/@p"),
        ("$x/..", "X/.."),
        ("$x/child::*", "X/child::*"),
        (
            "concat('[', string($x/@n), '|', string($x), ']')",
            "concat('[', string(X/@n), '|', string(X), ']')",
        ),
        ("contains(string($x), 'c')", "contains(string(X), 'c')"),
        ("concat($i, ':', name($x))", "concat(I, ':', name(X))"),
        ("(for $x in $x/@n return string($x), string($x))", "concat(string(X/@n), string(X))"),
        ("some $a in $x/@n satisfies $a = '1'", "X/@n = '1'"),
        (
            "every $c in $x/child::* satisfies contains(string($c), 'c')",
            "not(X/child::*[not(contains(string(.), 'c'))])",
        ),
    ];
    let paths = [
        "/descendant::w",
        "/descendant::p",
        "/descendant::e0",
        "/descendant::e1[xdescendant::e0]",
        "/descendant::w[xancestor::p]",
        "/descendant::node()",
        "/descendant::nope",
    ];
    let cfg = GeneratorConfig {
        seed: 7,
        text_len: 160,
        hierarchies: 2,
        avg_element_len: 12,
        boundary_jitter: 0.5,
        nested: true,
    };
    for g in [attributed(), figure1::goddag(), generate(&cfg).build_goddag()] {
        for path in paths {
            let count = match evaluate_xpath_naive(&g, path).unwrap() {
                Value::Nodes(ns) => ns.len(),
                other => panic!("`{path}` should yield nodes, got {other:?}"),
            };
            for (ret, oracle) in forms {
                let mut want = String::new();
                for i in 1..=count {
                    let src =
                        oracle.replace('X', &format!("({path})[{i}]")).replace('I', &i.to_string());
                    want.push_str(&naive(&g, &src).unwrap_or_else(|e| panic!("`{src}`: {e}")).1);
                    want.push('§');
                }
                let q = format!("for $x at $i in {path} return ({ret}, '§')");
                for optimize in [false, true] {
                    let opts = EvalOptions { optimize, ..Default::default() };
                    let got = run_query_with(&g, &q, &opts).unwrap();
                    assert_eq!(got, want, "`{q}` optimize={optimize}");
                }
            }
        }
    }
}
