//! The paper's running example end to end: the Cotton Otho A. vi fragment
//! (Figure 1), its CMH, the KyGODDAG (Figure 2), and all §4 queries.
//!
//! ```sh
//! cargo run --example manuscript_edition
//! ```

use multihier_xquery::corpus::figure1;
use multihier_xquery::goddag::dot;
use multihier_xquery::prelude::*;

fn main() {
    // 1. Validate the four encodings against the CMH (four DTDs over <r>).
    let cmh = figure1::cmh();
    let docs = figure1::documents();
    cmh.validate_documents(&docs).expect("Figure-1 encodings are CMH-valid");
    println!(
        "CMH check: {} DTDs over root <{}> — all encodings valid\n",
        cmh.dtds().len(),
        cmh.root()
    );

    // 2. Build the KyGODDAG and show the Figure-2 structure.
    let catalog = Catalog::new();
    catalog.insert("figure1", figure1::goddag());
    catalog.with_document("figure1", |g| println!("{}", dot::to_text(g))).unwrap();

    // 3. Run every paper query through the serving facade.
    for (id, query, expected) in figure1::PAPER_QUERIES {
        let out = catalog.xquery("figure1", query).expect("paper query evaluates");
        let status = if out.serialize() == expected { "OK " } else { "DIFF" };
        println!("[{status}] query {id}");
        println!("       {out}");
        if out.serialize() != expected {
            println!("  want {expected}");
        }
    }

    // 4. Graphviz output for the curious (pipe to `dot -Tsvg`).
    if std::env::args().any(|a| a == "--dot") {
        catalog.with_document("figure1", |g| println!("\n{}", dot::to_dot(g))).unwrap();
    }
}
