//! Integration: XPath texts and XQuery texts agree on the path
//! sub-language, on random documents.

use multihier_xquery::corpus::{generate, GeneratorConfig};
use multihier_xquery::prelude::*;
use multihier_xquery::xpath::Value;

/// Evaluate a path as XPath and as XQuery and compare result node
/// string-values.
fn compare(g: &mhx_goddag::Goddag, path: &str) {
    let xp = match evaluate_xpath(g, path).unwrap() {
        Value::Nodes(ns) => ns
            .iter()
            .map(|&n| format!("{}:{}", g.name(n).unwrap_or(""), g.string_value(n)))
            .collect::<Vec<_>>(),
        other => panic!("expected node-set from `{path}`, got {other:?}"),
    };
    let q = format!("for $n in {path} return concat(name($n), ':', string($n), '\u{1}')");
    let xq_out = run_query(g, &q).unwrap();
    let xq: Vec<String> =
        xq_out.split('\u{1}').filter(|s| !s.is_empty()).map(str::to_string).collect();
    assert_eq!(xp, xq, "engines disagree on `{path}`");
}

#[test]
fn engines_agree_on_extended_paths() {
    let doc = generate(&GeneratorConfig {
        text_len: 700,
        hierarchies: 3,
        boundary_jitter: 0.8,
        nested: true,
        ..Default::default()
    });
    let g = doc.build_goddag();
    for path in [
        "/descendant::e0",
        "/descendant::e1[overlapping::e0]",
        "/descendant::e2[xancestor::e0]",
        "/descendant::e0/xdescendant::e1",
        "/descendant::e0[1]/xfollowing::e1",
        "/descendant::e0[last()]/xpreceding::e1",
        "/descendant::e1[preceding-overlapping::e0]",
        "/descendant::e1[following-overlapping::e0]",
        "/descendant::leaf()[ancestor::e0 and ancestor::e1]",
        "/descendant::text(\"h0\")",
        "/descendant::node(\"h1\")[2]",
        "/descendant::*(\"h2\")",
        "/descendant::s0/parent::node()",
        "//e0/following-sibling::e0[1]",
        "/descendant::e0[@n = '1']",
    ] {
        compare(&g, path);
    }
}

#[test]
fn engines_agree_on_figure1_paths() {
    let g = multihier_xquery::corpus::figure1::goddag();
    for path in [
        "/descendant::line[xdescendant::w[string(.) = 'singallice'] or \
         overlapping::w[string(.) = 'singallice']]",
        "/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]",
        "/descendant::leaf()[ancestor::w and ancestor::dmg]",
        "/descendant::vline/xdescendant::res",
        "/descendant::res[overlapping::line]",
    ] {
        compare(&g, path);
    }
}

/// Engine counters for the batch path: both languages report steps taken
/// set-at-a-time and steps executed from optimizer-rewritten plans.
#[test]
fn engine_counts_batched_and_rewritten_steps() {
    let doc = generate(&GeneratorConfig {
        text_len: 700,
        hierarchies: 3,
        boundary_jitter: 0.8,
        nested: true,
        ..Default::default()
    });
    let catalog = Catalog::new();
    catalog.insert("doc", doc.build_goddag());
    assert_eq!(catalog.eval_stats(), EvalStats::default(), "counters start at zero");

    // `//e0[xfollowing::e1]` desugars to two axis walks; the optimizer
    // fuses them into one indexed scan and batch-routes the predicate, so
    // the (default-on) path reports one batched, rewritten step.
    catalog.xpath("doc", "//e0[xfollowing::e1]").unwrap();
    let after_xpath = catalog.eval_stats();
    assert!(after_xpath.batched_steps >= 1, "{after_xpath:?}");
    assert!(after_xpath.rewritten_steps >= 1, "{after_xpath:?}");
    assert!(after_xpath.plan_rewrites >= 2, "fusion + batch routing: {after_xpath:?}");

    // Same path through the XQuery evaluator: counters keep growing.
    catalog.xquery("doc", "for $n in //e0[xfollowing::e1] return name($n)").unwrap();
    let after_xquery = catalog.eval_stats();
    assert!(after_xquery.batched_steps > after_xpath.batched_steps, "{after_xquery:?}");
    assert!(after_xquery.rewritten_steps > after_xpath.rewritten_steps, "{after_xquery:?}");

    // Optimize off: predicate-free steps still batch, but nothing is
    // "rewritten" — the knob really selects the as-written plan.
    let mut session = catalog.session("doc").unwrap();
    session.options_mut().optimize = false;
    session.xpath("/descendant::e0/xfollowing::e1").unwrap();
    let after_off = catalog.eval_stats();
    assert!(after_off.batched_steps > after_xquery.batched_steps, "{after_off:?}");
    assert_eq!(after_off.rewritten_steps, after_xquery.rewritten_steps, "{after_off:?}");
    assert_eq!(after_off.plan_rewrites, after_xquery.plan_rewrites, "{after_off:?}");

    // A positional predicate pins its step to the per-node path: the
    // rewritten counter must not move for a purely positional step.
    let before = catalog.eval_stats();
    catalog.xpath("doc", "/descendant::e0[position() = 2]").unwrap();
    let after_positional = catalog.eval_stats();
    assert_eq!(after_positional.rewritten_steps, before.rewritten_steps, "{after_positional:?}");
}

#[test]
fn xpath_functions_match_xquery_functions() {
    let g = multihier_xquery::corpus::figure1::goddag();
    for (xp, xq) in [
        ("count(/descendant::w)", "count(/descendant::w)"),
        ("string-length(string(/))", "string-length(string(root()))"),
        ("normalize-space('  a  b ')", "normalize-space('  a  b ')"),
        ("substring('singallice', 4, 4)", "substring('singallice', 4, 4)"),
        ("translate('abc', 'ab', 'x')", "translate('abc', 'ab', 'x')"),
    ] {
        let a = evaluate_xpath(&g, xp).unwrap().to_str(&g);
        let b = run_query(&g, xq).unwrap();
        assert_eq!(a, b, "{xp} vs {xq}");
    }
}

/// One explain printer serves both languages: the same path prints the
/// same plan — strategies, batch routing, chain joins, estimates, actuals,
/// and how each predicate runs — as an XPath and as an XQuery text.
#[test]
fn explain_prints_one_plan_for_both_languages() {
    let catalog = Catalog::new();
    catalog.insert("figure1", multihier_xquery::corpus::figure1::goddag());
    let doc = generate(&GeneratorConfig {
        text_len: 700,
        hierarchies: 3,
        boundary_jitter: 0.8,
        nested: true,
        ..Default::default()
    });
    catalog.insert("doc", doc.build_goddag());
    // The paper's figure, then every `benches/plan.rs` query.
    let queries = [
        ("figure1", "//w[xfollowing::line]"),
        ("figure1", "//vline//w"),
        ("doc", "//e0"),
        ("doc", "//s0[xancestor::e0]"),
        ("doc", "/descendant::e0/descendant::s0[contains(string(.), 'sin')]"),
        ("doc", "//s0[overlapping::e1]"),
        ("doc", "/descendant::s0[xpreceding::e1][contains(string(.), 'sin')]"),
        ("doc", "//e0[xfollowing::e1]"),
        ("doc", "/descendant::e0/descendant::s0"),
        ("doc", "/descendant::e0[count(/descendant::e1) > 0]"),
        ("doc", "/descendant::s0[xdescendant::e1][xpreceding::e0]"),
        ("doc", "/descendant::e0[position() = 2]/xfollowing::*"),
        ("doc", "/descendant::e0[last()]"),
    ];
    for (doc, q) in queries {
        let xpath = catalog.explain(doc, QueryLang::XPath, q).unwrap();
        assert!(xpath.contains(" actual ") && xpath.contains(" est "), "{xpath}");
        assert_eq!(xpath, catalog.explain(doc, QueryLang::XQuery, q).unwrap(), "`{q}`");
    }
}

/// The documents the binding-form tables run over, with the two element
/// names their queries ask for: `a`, and `b`, which overlaps `a`.
fn binding_documents() -> Vec<(&'static str, Goddag, &'static str, &'static str)> {
    let doc = generate(&GeneratorConfig {
        text_len: 500,
        hierarchies: 3,
        boundary_jitter: 0.8,
        nested: true,
        ..Default::default()
    });
    vec![
        ("figure1", multihier_xquery::corpus::figure1::goddag(), "w", "line"),
        ("generated", doc.build_goddag(), "e1", "e0"),
    ]
}

/// Every binding form the evaluator has: FLWORs with `for`, `at`, `let`,
/// `where` and `order by` (ascending, descending, ties kept in tuple
/// order), quantifiers, and positional predicates. `{a}` and `{b}` are the
/// document's element names.
const BINDING_QUERIES: &[&str] = &[
    "for $x in /descendant::{a} return concat(string($x), '|')",
    "for $x at $i in /descendant::{a} return concat($i, ':', string-length(string($x)), ' ')",
    "for $x in /descendant::{a} let $n := string-length(string($x)) where $n > 3 \
     return concat($n, ' ')",
    "for $x at $i in /descendant::{a} where $i mod 2 = 0 return concat($i, ' ')",
    "for $x in /descendant::{a} order by string($x) return concat(string($x), '|')",
    "for $x at $i in /descendant::{a} order by string-length(string($x)) descending \
     return concat($i, ' ')",
    "for $x at $i in /descendant::{a} order by string-length(string($x)) ascending, \
     $i mod 3 descending return concat($i, ' ')",
    "for $x at $i in /descendant::{a} let $s := string($x) order by $s descending \
     for $j in 1 to 2 return concat($i, '.', $j, ' ')",
    "for $x in /descendant::{a}, $y in $x/xancestor::{b} \
     return concat(string-length(string($x)), '-', string-length(string($y)), ' ')",
    "count(for $x in /descendant::{a} for $y in /descendant::{b} \
     where exists($x/xancestor::{b}[. is $y]) return 1)",
    "let $all := /descendant::{a} let $n := count($all) return $n * 2",
    "for $y in /descendant::{b} return (for $x in $y/xdescendant::{a} \
     return string-length(string($x)), '|')",
    "for $x in (1, 2) return (for $x in ($x * 10, $x * 100) return $x, '|')",
    "let $x := 1 let $x := $x + 1 return $x",
    "for $y in /descendant::{b} return concat(count(/descendant::{a}\
     [string-length(string(.)) > string-length(string($y)) div 8]), ' ')",
    "some $x in /descendant::{a} satisfies string-length(string($x)) > 6",
    "every $x in /descendant::{a} satisfies string-length(string($x)) > 0",
    "every $x in /descendant::{a}, $y in $x/xancestor::{b} \
     satisfies string-length(string($y)) > 3",
    "some $x in /descendant::{a}, $y in /descendant::{b} satisfies $x << $y and $y << $x",
    "for $y in /descendant::{b} where some $x in $y/xdescendant::{a} \
     satisfies string-length(string($x)) > 4 return concat(string-length(string($y)), ' ')",
    "(some $x in () satisfies false(), every $x in () satisfies false())",
    "count(/descendant::{a}[position() > 1])",
    "string((/descendant::{a})[last()])",
    "for $y in /descendant::{b} \
     return concat(count($y/xdescendant::{a}[position() mod 2 = 1]), ' ')",
    "string-join(for $x in (/descendant::{a})[position() = (2, 3)] return string($x), '|')",
    "/descendant::{a}[2]",
    "string((/descendant::{a})[position() < 3][last()])",
    "count(/descendant::{a}[preceding-sibling::{a}[1]])",
    "for $i in 1 to 5 return $i * $i",
    "sum(for $i in 1 to 100 where $i mod 7 = 0 return $i)",
];

/// One table row's answer as the fixture records it.
fn answer(g: &Goddag, query: &str, optimize: bool) -> String {
    let opts = EvalOptions { optimize, ..EvalOptions::default() };
    format!("{:?}", run_query_with(g, query, &opts).map_err(|e| e.kind))
}

/// Every binding form reproduces the answers recorded in
/// `tests/fixtures/binding_forms.txt` (one `doc<TAB>query<TAB>answer`
/// line per row), with the optimizer on and off, and behind an unused
/// `let` that must change nothing but the work done.
#[test]
fn binding_forms_reproduce_their_recorded_answers() {
    let fixture = include_str!("fixtures/binding_forms.txt");
    let recorded: std::collections::HashMap<(&str, &str), &str> = fixture
        .lines()
        .map(|line| {
            let mut cols = line.splitn(3, '\t');
            let mut col = || cols.next().expect("three tab-separated columns");
            ((col(), col()), col())
        })
        .collect();
    let mut wrong = Vec::new();
    for (doc, g, a, b) in binding_documents() {
        for template in BINDING_QUERIES {
            let query = template.replace("{a}", a).replace("{b}", b);
            let want = recorded.get(&(doc, query.as_str())).copied().unwrap_or("(not recorded)");
            for unused in ["", "let $unused := /descendant::{a} return "] {
                let full = format!("{}{query}", unused.replace("{a}", a));
                for optimize in [true, false] {
                    let got = answer(&g, &full, optimize);
                    if got != want {
                        wrong.push(format!("{doc}\t{full}\t{got} (optimize {optimize})"));
                    }
                }
            }
        }
    }
    assert!(wrong.is_empty(), "answers differ from the fixture:\n{}", wrong.join("\n"));
    let rows = binding_documents().len() * BINDING_QUERIES.len();
    assert_eq!(recorded.len(), rows, "one fixture line per document and query");
}

/// Identities between the binding forms, on both documents with the
/// optimizer on and off: a FLWOR's clauses may be split into nested
/// FLWORs (a `where` becoming an `if`), and a quantifier is a FLWOR that
/// stops at its first deciding tuple.
#[test]
fn binding_forms_agree_with_their_rewritten_forms() {
    // Clause lists; each is also run nested, one clause per FLWOR.
    let clause_lists: &[&[&str]] = &[
        &["for $x in /descendant::{a}", "let $n := string-length(string($x))", "where $n > 3"],
        &["for $x at $i in /descendant::{a}", "where $i mod 2 = 1", "for $y in $x/xancestor::{b}"],
        &["let $all := /descendant::{b}", "for $x in /descendant::{a}", "where count($all) > 1"],
        &["for $x in /descendant::{a}", "for $y in /descendant::{b}", "where $x << $y"],
    ];
    let body = "concat(string-length(string($x)), ' ')";
    // (bindings, condition) for the quantifier identities.
    let quantified: &[(&str, &str)] = &[
        ("$x in /descendant::{a}", "string-length(string($x)) > 5"),
        ("$x in /descendant::{a}", "string-length(string($x)) > 0"),
        ("$x in /descendant::{a}, $y in $x/xancestor::{b}", "string($x) = string($y)"),
        ("$x in /descendant::{a}, $y in /descendant::{b}", "$x << $y"),
        ("$x in ()", "false()"),
    ];
    for (doc, g, a, b) in binding_documents() {
        let fill = |t: &str| t.replace("{a}", a).replace("{b}", b);
        let mut pairs = Vec::new();
        for clauses in clause_lists {
            let flat = format!("{} return {body}", clauses.join(" "));
            let nested = clauses.iter().rev().fold(body.to_string(), |inner, clause| match clause
                .strip_prefix("where ")
            {
                Some(cond) => format!("if ({cond}) then ({inner}) else ()"),
                None => format!("{clause} return ({inner})"),
            });
            pairs.push((fill(&flat), fill(&nested)));
        }
        for (binds, cond) in quantified {
            pairs.push((
                fill(&format!("some {binds} satisfies {cond}")),
                fill(&format!("exists(for {binds} where {cond} return 1)")),
            ));
            pairs.push((
                fill(&format!("every {binds} satisfies {cond}")),
                fill(&format!("empty(for {binds} where not({cond}) return 1)")),
            ));
        }
        for (left, right) in pairs {
            for optimize in [true, false] {
                let got = answer(&g, &left, optimize);
                assert!(got.starts_with("Ok("), "{doc}: `{left}` → {got}");
                assert_eq!(got, answer(&g, &right, optimize), "{doc}: `{left}` vs `{right}`");
            }
        }
    }
}
