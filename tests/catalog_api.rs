//! Integration tests for the multi-document serving facade: the shared
//! plan cache across documents, concurrent `&self` queries, typed errors,
//! and the unified result type.

use multihier_xquery::prelude::*;
use std::thread;

/// A tiny manuscript: one base text, lines + words hierarchies, with the
/// line break placed so that exactly one word straddles it.
fn manuscript(line_break_word: usize) -> Goddag {
    let words = ["gesceaftum", "unawendendne", "singallice", "sibbe", "gecynde"];
    let text = words.join(" ");
    let breaks: Vec<usize> = {
        // Byte offset into the middle of the chosen word.
        let start: usize = words[..line_break_word].iter().map(|w| w.len() + 1).sum();
        vec![start + words[line_break_word].len() / 2]
    };
    let lines =
        format!("<r><line>{}</line><line>{}</line></r>", &text[..breaks[0]], &text[breaks[0]..]);
    let word_markup: String =
        words.iter().map(|w| format!("<w>{w}</w>")).collect::<Vec<_>>().join(" ");
    GoddagBuilder::new()
        .hierarchy("lines", lines)
        .hierarchy("words", format!("<r>{word_markup}</r>"))
        .build()
        .unwrap()
}

fn corpus(n: usize) -> Catalog {
    let catalog = Catalog::new();
    for i in 0..n {
        catalog.insert(format!("ms-{i}"), manuscript(i % 4));
    }
    catalog
}

#[test]
fn catalog_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Catalog>();
    assert_send_sync::<QueryOutcome>();
    assert_send_sync::<EngineError>();
    assert_send_sync::<Prepared>();
}

#[test]
fn one_compilation_serves_every_document() {
    let catalog = corpus(4);
    let q = "for $w in /descendant::w[overlapping::line] return string($w)";
    let answers: Vec<String> =
        (0..4).map(|i| catalog.xquery(&format!("ms-{i}"), q).unwrap().into_string()).collect();
    // Each manuscript breaks a different word, so the answers differ —
    // same plan, genuinely different documents.
    assert_eq!(answers, ["gesceaftum", "unawendendne", "singallice", "sibbe"]);

    let stats = catalog.cache_stats();
    assert_eq!(stats.misses, 1, "the query text compiled exactly once");
    assert_eq!(stats.hits, 3);
    assert_eq!(stats.cross_doc_hits, 3, "every further document reused ms-0's plan");
    assert_eq!(stats.entries, 1);
}

#[test]
fn parallel_queries_through_a_shared_reference() {
    let catalog = corpus(3);
    let expected = ["gesceaftum", "unawendendne", "singallice"];
    let q = "for $w in /descendant::w[overlapping::line] return string($w)";

    // Warm both plans on ms-0 so the parallel phase is deterministic
    // (two concurrent first-misses would both compile — benign, but it
    // would blur the counters this test asserts).
    catalog.xquery("ms-0", q).unwrap();
    catalog.xpath("ms-0", "count(/descendant::w)").unwrap();

    // Many threads, one &Catalog: different documents in parallel, and
    // every document also queried by several threads at once.
    thread::scope(|s| {
        for round in 0..4 {
            for (i, want) in expected.iter().enumerate() {
                let catalog = &catalog;
                s.spawn(move || {
                    let id = format!("ms-{i}");
                    let out = catalog.xquery(&id, q).unwrap();
                    assert_eq!(out.serialize(), *want, "round {round}, {id}");
                    let n = catalog.xpath(&id, "count(/descendant::w)").unwrap();
                    assert_eq!(n.num(), Some(5.0));
                });
            }
        }
    });

    let stats = catalog.cache_stats();
    assert_eq!(stats.misses, 2, "two distinct query texts, compiled once each");
    assert_eq!(stats.hits, 24, "4 rounds × 3 documents × 2 queries, all cache hits");
    assert_eq!(stats.cross_doc_hits, 16, "every hit from ms-1/ms-2 crossed documents");
}

#[test]
fn concurrent_sessions_share_plans() {
    let catalog = corpus(2);
    thread::scope(|s| {
        for i in 0..2 {
            let catalog = &catalog;
            s.spawn(move || {
                let session = catalog.session(&format!("ms-{i}")).unwrap();
                for _ in 0..3 {
                    let out = session.xquery("count(/descendant::line)").unwrap();
                    assert_eq!(out.serialize(), "2");
                }
            });
        }
    });
    assert_eq!(catalog.cache_stats().misses, 1);
}

#[test]
fn eviction_pressure_with_mixed_languages() {
    // Capacity 2, two documents, one query text valid in both languages:
    // four distinct (language, document) evaluations must stay four
    // distinct semantics while occupying at most two cache entries.
    let catalog = corpus(2);
    catalog.set_plan_cache_capacity(2);
    let q = "count(/descendant::w)"; // valid XPath *and* XQuery

    for id in ["ms-0", "ms-1"] {
        assert_eq!(catalog.xquery(id, q).unwrap().serialize(), "5");
        assert_eq!(catalog.xpath(id, q).unwrap().num(), Some(5.0));
    }
    let stats = catalog.cache_stats();
    assert_eq!(stats.entries, 2, "one entry per language, shared across documents");
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.cross_doc_hits, 2);
    assert_eq!(stats.evictions, 0, "capacity 2 fits both languages");

    // Now overflow the capacity with fresh texts and re-issue the shared
    // query: evictions happen, semantics never bleed across languages.
    catalog.xpath("ms-0", "/descendant::line").unwrap();
    catalog.xpath("ms-1", "/descendant::w[2]").unwrap();
    assert!(catalog.cache_stats().evictions >= 2);
    assert_eq!(catalog.xquery("ms-1", q).unwrap().serialize(), "5");
    assert_eq!(catalog.xpath("ms-1", q).unwrap().num(), Some(5.0));
    assert_eq!(catalog.cache_stats().entries, 2);
}

#[test]
fn typed_errors_name_the_stage() {
    let catalog = corpus(1);

    match catalog.xquery("ms-0", "for $x in") {
        Err(EngineError::Parse { lang: QueryLang::XQuery, at: Some(_), .. }) => {}
        other => panic!("expected XQuery parse error, got {other:?}"),
    }
    match catalog.xpath("ms-0", "/descendant::") {
        Err(EngineError::Parse { lang: QueryLang::XPath, .. }) => {}
        other => panic!("expected XPath parse error, got {other:?}"),
    }
    match catalog.xquery("ms-0", "for $w in /descendant::w return $typo") {
        Err(EngineError::Compile { lang: QueryLang::XQuery, message }) => {
            assert!(message.contains("$typo"), "{message}");
        }
        other => panic!("expected compile error, got {other:?}"),
    }
    match catalog.xquery("ms-0", "1 idiv 0") {
        Err(EngineError::Eval { lang: QueryLang::XQuery, .. }) => {}
        other => panic!("expected eval error, got {other:?}"),
    }
    match catalog.xquery("unregistered", "1") {
        Err(EngineError::UnknownDocument { id }) => assert_eq!(id, "unregistered"),
        other => panic!("expected unknown-document error, got {other:?}"),
    }
    match catalog.add_hierarchy("ms-0", "bad", "<r>different text entirely</r>") {
        Err(EngineError::Document { .. }) => {}
        other => panic!("expected document error, got {other:?}"),
    }

    // Failed parses/compiles never pollute the shared cache; queries for
    // unknown documents never even compile. Only `1 idiv 0` — valid text
    // that failed at evaluation — was worth keeping.
    assert_eq!(catalog.cache_stats().entries, 1);
}

#[test]
fn resize_mid_life_preserves_plans_and_counters() {
    let catalog = corpus(1);
    for i in 1..=4 {
        catalog.xpath("ms-0", &format!("/descendant::w[{i}]")).unwrap();
    }
    catalog.xpath("ms-0", "/descendant::w[4]").unwrap();
    let before = catalog.cache_stats();
    assert_eq!(before.entries, 4);
    assert_eq!(before.hits, 1);

    catalog.set_plan_cache_capacity(2);
    let after = catalog.cache_stats();
    assert_eq!(after.entries, 2, "kept the two most recent plans");
    assert_eq!(after.hits, before.hits, "counters are cumulative across resize");
    assert_eq!(after.misses, before.misses);
    assert_eq!(after.evictions, before.evictions + 2);

    // The most recently used plans survived.
    catalog.xpath("ms-0", "/descendant::w[4]").unwrap();
    catalog.xpath("ms-0", "/descendant::w[3]").unwrap();
    assert_eq!(catalog.cache_stats().hits, before.hits + 2);
    assert_eq!(catalog.plan_cache_capacity(), 2);
}

#[test]
fn query_outcome_is_language_agnostic() {
    let catalog = corpus(1);

    let nodes = catalog.xpath("ms-0", "/descendant::line").unwrap();
    assert_eq!(nodes.lang(), QueryLang::XPath);
    assert_eq!(nodes.nodes().unwrap().len(), 2);
    assert!(!nodes.is_empty());

    let num = catalog.xpath("ms-0", "count(/descendant::line)").unwrap();
    assert_eq!(num.num(), Some(2.0));
    assert_eq!(num.serialize(), "2");

    let b = catalog.xpath("ms-0", "count(/descendant::line) > 1").unwrap();
    assert_eq!(b.bool(), Some(true));
    assert_eq!(b.serialize(), "true");

    let markup = catalog.xquery("ms-0", "<out>{count(/descendant::line)}</out>").unwrap();
    assert_eq!(markup.lang(), QueryLang::XQuery);
    assert_eq!(markup.serialize(), "<out>2</out>");
    match markup.into_value() {
        QueryValue::Markup(s) => assert_eq!(s, "<out>2</out>"),
        other => panic!("expected markup, got {other:?}"),
    }

    // Both languages serialize node results identically.
    let via_xpath = catalog.xpath("ms-0", "(/descendant::w)[2]").unwrap();
    let via_xquery = catalog.xquery("ms-0", "(/descendant::w)[2]").unwrap();
    assert_eq!(via_xpath.serialize(), via_xquery.serialize());
    assert_eq!(via_xpath.serialize(), "<w>unawendendne</w>");
}

#[test]
fn prepared_queries_run_on_any_document_and_any_session() {
    let catalog = corpus(3);
    let q = catalog
        .prepare(QueryLang::XQuery, "string((/descendant::w[overlapping::line])[1])")
        .unwrap();
    let expected = ["gesceaftum", "unawendendne", "singallice"];
    for (i, want) in expected.iter().enumerate() {
        let id = format!("ms-{i}");
        assert_eq!(catalog.execute(&id, &q).unwrap().serialize(), *want);
        let session = catalog.session(&id).unwrap();
        assert_eq!(session.run(&q).unwrap().serialize(), *want);
    }
}

#[test]
fn per_document_mutation_does_not_disturb_neighbours() {
    let catalog = corpus(2);
    let line_texts = "for $l in /descendant::line return (string($l), '|')";
    let before_ms1 = catalog.xquery("ms-1", line_texts).unwrap();

    // Annotate ms-0 with a third hierarchy; ms-1 must be untouched and
    // the shared plans must survive.
    let text = catalog.with_document("ms-0", |g| g.text().to_string()).unwrap();
    let (a, b) = text.split_at(7);
    catalog
        .add_hierarchy("ms-0", "halves", &format!("<r><half>{a}</half><half>{b}</half></r>"))
        .unwrap();

    assert_eq!(catalog.with_document("ms-0", |g| g.hierarchy_count()).unwrap(), 3);
    assert_eq!(catalog.with_document("ms-1", |g| g.hierarchy_count()).unwrap(), 2);
    assert_eq!(catalog.xpath("ms-0", "count(/descendant::half)").unwrap().num(), Some(2.0));
    assert_eq!(catalog.xquery("ms-1", line_texts).unwrap(), before_ms1);
}

#[test]
fn a_one_document_catalog_grows_into_a_corpus() {
    let catalog = Catalog::new();
    catalog.insert("main", manuscript(2));
    let q = "string((/descendant::w[overlapping::line])[1])";
    assert_eq!(catalog.xquery("main", q).unwrap().serialize(), "singallice");

    // More documents join later and reuse the compiled plan.
    catalog.insert("extra", manuscript(0));
    assert_eq!(catalog.len(), 2);
    assert_eq!(catalog.xquery("extra", q).unwrap().serialize(), "gesceaftum");
    assert_eq!(catalog.cache_stats().cross_doc_hits, 1);
    assert_eq!(catalog.session("main").unwrap().doc_id(), "main");
}

#[test]
fn prepared_queries_respect_the_per_session_optimize_knob() {
    let catalog = corpus(1);
    // A predicate-heavy query the optimizer rewrites: `//w` fuses to an
    // indexed scan and the position-free predicate batch-routes.
    let q = catalog.prepare(QueryLang::XPath, "//w[overlapping::line]").unwrap();

    let on = catalog.session("ms-0").unwrap();
    let off_opts = EvalOptions { optimize: false, ..catalog.options().clone() };
    let off = catalog.session("ms-0").unwrap().with_options(off_opts);

    // Same answer either way — the knob may never change results.
    let expected = on.run(&q).unwrap().into_string();
    assert_eq!(off.run(&q).unwrap().serialize(), expected);

    // But the knob really selects a different plan at execution time: the
    // optimize-on run reports rewritten steps, the optimize-off run none.
    let after_both = catalog.eval_stats();
    assert!(after_both.rewritten_steps > 0, "{after_both:?}");
    off.run(&q).unwrap();
    let after_off_again = catalog.eval_stats();
    assert_eq!(
        after_off_again.rewritten_steps, after_both.rewritten_steps,
        "optimize-off execution must evaluate the as-written plan"
    );

    // One compilation serves both knob settings: the prepared handle and
    // the cache entry are shared, never forked per knob.
    assert_eq!(catalog.cache_stats().misses, 1);
    assert_eq!(catalog.cache_stats().entries, 1);
}

#[test]
fn flipping_the_knob_on_a_live_session_reresolves_behavior() {
    let catalog = corpus(1);
    let mut session = catalog.session("ms-0").unwrap();
    let q = catalog.prepare(QueryLang::XQuery, "count(//w[overlapping::line])").unwrap();

    let optimized = session.run(&q).unwrap().into_string();
    let rewritten_after_on = catalog.eval_stats().rewritten_steps;
    assert!(rewritten_after_on > 0);

    // Flip the knob mid-session: the very next execution of the *same*
    // prepared handle must use the as-written plan (no stale plan reuse).
    let off = EvalOptions { optimize: false, ..session.options().clone() };
    session = session.with_options(off);
    assert_eq!(session.run(&q).unwrap().serialize(), optimized);
    assert_eq!(catalog.eval_stats().rewritten_steps, rewritten_after_on);

    // And back on: rewrites resume, still without recompiling.
    let on = EvalOptions { optimize: true, ..session.options().clone() };
    session = session.with_options(on);
    assert_eq!(session.run(&q).unwrap().serialize(), optimized);
    assert!(catalog.eval_stats().rewritten_steps > rewritten_after_on);
    assert_eq!(catalog.cache_stats().misses, 1, "one parse served every knob flip");
}

#[test]
fn plan_cache_does_not_collide_across_optimize_settings() {
    // Two catalogs, one configured optimize-off by default: the same query
    // text must behave per-catalog (plans carry both forms; the knob is
    // evaluation state, not a cache key — so collisions are impossible).
    let on = corpus(1);
    let off = Catalog::with_options(EvalOptions { optimize: false, ..Default::default() });
    off.insert("ms-0", manuscript(0));

    let q = "//w[overlapping::line]";
    let a = on.xpath("ms-0", q).unwrap().into_string();
    let b = off.xpath("ms-0", q).unwrap().into_string();
    assert_eq!(a, b);
    assert!(on.eval_stats().rewritten_steps > 0);
    assert_eq!(off.eval_stats().rewritten_steps, 0);
}

/// `n` words of a line-broken text, each word carrying an attribute and
/// text that need escaping, so every answer has markup of its own to
/// write.
fn escaped_words(n: usize) -> (String, String) {
    let words: Vec<String> = (0..n).map(|i| format!("w{i}&amp;&lt;")).collect();
    let text = words.join(" ");
    let half = words[..n / 2].join(" ").len() + 1;
    let lines = format!("<r><line>{}</line><line>{}</line></r>", &text[..half], &text[half..]);
    let marked: Vec<String> =
        words.iter().enumerate().map(|(i, w)| format!("<w n=\"{i}&quot;\">{w}</w>")).collect();
    (lines, format!("<r>{}</r>", marked.join(" ")))
}

/// Four threads held at a barrier then serialize elements of hierarchies
/// no query has written yet, each starting on a different one: every
/// answer is the one a single thread gets from an identical document.
#[test]
fn racing_first_answers_equal_one_threads() {
    let (lines, words) = escaped_words(600);
    let build = || GoddagBuilder::new().hierarchy("lines", &lines).hierarchy("words", &words);
    let catalog = Catalog::new();
    catalog.insert("raced", build().build().unwrap());
    catalog.insert("alone", build().build().unwrap());
    let queries = ["/descendant::w", "/descendant::line", "/descendant::w[overlapping::line]"];
    let expected: Vec<String> =
        queries.iter().map(|q| catalog.xpath("alone", q).unwrap().into_string()).collect();
    assert!(expected[0].starts_with("<w n=\"0&quot;\">w0&amp;&lt;</w>"), "{}", expected[0]);
    let barrier = std::sync::Barrier::new(4);
    thread::scope(|s| {
        for t in 0..4 {
            let (catalog, barrier, expected) = (&catalog, &barrier, &expected);
            s.spawn(move || {
                barrier.wait();
                for k in 0..queries.len() {
                    let q = (t + k) % queries.len();
                    let answer = catalog.xpath("raced", queries[q]).unwrap().into_string();
                    assert_eq!(answer, expected[q], "thread {t}, {}", queries[q]);
                }
            });
        }
    });
}

/// A hierarchy added to a document whose answers were already written
/// answers with markup of its own, and the written ones are unchanged.
#[test]
fn answers_after_add_hierarchy_are_each_hierarchys_markup() {
    let catalog = Catalog::new();
    let lines = "<r><line>a &lt; b</line><line> c</line></r>";
    catalog.insert("ms", GoddagBuilder::new().hierarchy("lines", lines).build().unwrap());
    let line_answer = "<line>a &lt; b</line><line> c</line>";
    assert_eq!(catalog.xpath("ms", "/descendant::line").unwrap().serialize(), line_answer);
    catalog.add_hierarchy("ms", "words", r#"<r><w k="&quot;">a</w> &lt; <w/>b c</r>"#).unwrap();
    let w = catalog.xpath("ms", "/descendant::w").unwrap();
    assert_eq!(w.serialize(), r#"<w k="&quot;">a</w><w/>"#);
    assert_eq!(catalog.xpath("ms", "/descendant::line").unwrap().serialize(), line_answer);
    let lines_then_words = catalog.xquery("ms", "(/descendant::line[2], /descendant::w[1])");
    assert_eq!(lines_then_words.unwrap().serialize(), r#"<line> c</line><w k="&quot;">a</w>"#);
}
