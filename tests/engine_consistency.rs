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
