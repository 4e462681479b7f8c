//! Quickstart: two overlapping hierarchies, three queries.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use multihier_xquery::prelude::*;

fn main() {
    // One text, two concurrent markup hierarchies: physical lines vs words.
    // The word "singallice" is split across the line break — no single
    // well-formed XML document can hold both hierarchies.
    let goddag = GoddagBuilder::new()
        .hierarchy(
            "lines",
            "<r><line>gesceaftum unawendendne sin</line><line>gallice sibbe gecynde þa</line></r>",
        )
        .hierarchy(
            "words",
            "<r><w>gesceaftum</w> <w>unawendendne</w> <w>singallice</w> <w>sibbe</w> \
             <w>gecynde</w> <w>þa</w></r>",
        )
        .build()
        .expect("both encodings spell the same text");

    println!("base text S = {:?}", goddag.text());
    println!("{} hierarchies, {} shared leaves\n", goddag.hierarchy_count(), goddag.leaf_count());

    // The serving facade: owns the document, keeps the structural index
    // current, caches compiled plans. Queries take &self.
    let catalog = Catalog::new();
    catalog.insert("ms", goddag);

    // 1. Which lines contain the word "singallice"? The xdescendant axis
    //    finds contained words; the overlapping axis catches the split one.
    let q1 = "for $l in /descendant::line[xdescendant::w[string(.) = 'singallice'] or \
              overlapping::w[string(.) = 'singallice']] return (string($l), '|')";
    println!("Q1 lines containing 'singallice':\n  {}\n", catalog.xquery("ms", q1).unwrap());

    // 2. Extended XPath through the same facade, same QueryOutcome result
    //    type: which words straddle a line break?
    let q2 = "/descendant::w[overlapping::line]";
    let out = catalog.xpath("ms", q2).unwrap();
    println!("Q2 words overlapping a line break:");
    for &n in out.nodes().unwrap_or(&[]) {
        catalog.with_document("ms", |g| println!("  {:?}", g.string_value(n))).unwrap();
    }
    println!();

    // 3. analyze-string: tag a regex match as a temporary hierarchy and
    //    relate it to the structure — here, highlight the match inside the
    //    word even though the match crosses the line boundary.
    let q3 = "let $res := analyze-string(root(), 'sin.?gall') \
              return (serialize($res/child::m), ' overlaps ', \
              count($res/child::m/overlapping::line), ' lines')";
    println!("Q3 analyze-string over the whole text:\n  {}\n", catalog.xquery("ms", q3).unwrap());

    // Every plan compiled once; repeats are cache hits.
    catalog.xquery("ms", q1).unwrap();
    let stats = catalog.cache_stats();
    println!("plan cache: {} misses, {} hits, {} entries", stats.misses, stats.hits, stats.entries);
}
