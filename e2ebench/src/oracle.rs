//! The answer oracle: expected results from an in-process `Catalog` over
//! the same generated documents, compared with every response's
//! `serialized` string.

use crate::corpus::{Doc, Query};
use mhx_goddag::{GoddagBuilder, StructIndex};
use mhx_store::DocStore;
use multihier_xquery::Catalog;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Per-version facts gathered while the oracle loads the corpus.
#[derive(Debug, Clone, Copy, Default)]
pub struct VersionStats {
    pub nodes: usize,
    pub xml_bytes: usize,
    pub snapshot_bytes: u64,
}

pub struct Oracle {
    /// Every version of every document, under [`Doc::key`].
    pub catalog: Catalog,
    answers: HashMap<(String, String), Arc<str>>,
    /// `stats[doc][version]`.
    pub stats: Vec<Vec<VersionStats>>,
}

impl Oracle {
    /// Load every version of `docs`, saving each snapshot into
    /// `store_dir` to learn its size on disk.
    pub fn load(docs: &[Doc], store_dir: &Path) -> Result<Oracle, String> {
        let store = DocStore::open(store_dir).map_err(|e| format!("oracle store: {e}"))?;
        let catalog = Catalog::new();
        let mut stats = Vec::with_capacity(docs.len());
        for doc in docs {
            let mut per_version = Vec::new();
            for (v, encodings) in doc.versions.iter().enumerate() {
                let mut builder = GoddagBuilder::new();
                for (name, xml) in encodings {
                    builder = builder.hierarchy(name.clone(), xml.clone());
                }
                let g = builder.build().map_err(|e| format!("{}: {e}", doc.id))?;
                let index = StructIndex::build(&g);
                let snapshot_bytes =
                    store.save(&doc.key(v), &g, &index).map_err(|e| format!("{}: {e}", doc.id))?;
                per_version.push(VersionStats {
                    nodes: g.all_nodes().len(),
                    xml_bytes: doc.xml_bytes(v),
                    snapshot_bytes,
                });
                catalog.insert(doc.key(v), g);
            }
            stats.push(per_version);
        }
        Ok(Oracle { catalog, answers: HashMap::new(), stats })
    }

    /// Compute (once) and remember the answer to `query` on `key`.
    pub fn learn(&mut self, key: &str, query: &Query) -> Result<(), String> {
        let slot = (key.to_string(), query.text.clone());
        if !self.answers.contains_key(&slot) {
            let out = self
                .catalog
                .query(key, query.lang(), &query.text)
                .map_err(|e| format!("oracle {key} `{}`: {e}", query.text))?;
            self.answers.insert(slot, out.serialize().into());
        }
        Ok(())
    }

    /// The remembered answer (see [`Oracle::learn`]).
    pub fn expected(&self, key: &str, query: &Query) -> Arc<str> {
        self.answers
            .get(&(key.to_string(), query.text.clone()))
            .cloned()
            .unwrap_or_else(|| panic!("no expected answer learnt for {key} `{}`", query.text))
    }
}

/// Whether a response matches its expectation.
pub fn matches(got: &str, want: &str) -> bool {
    got == want
}

/// An expectation altered in its last character — what the self-test
/// feeds to [`matches`] to prove a wrong answer would be caught.
pub fn corrupted(want: &str) -> String {
    let mut out: String = want.chars().take(want.chars().count().saturating_sub(1)).collect();
    out.push(if want.ends_with('#') { '%' } else { '#' });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{documents, Class};

    #[test]
    fn corrupted_expectation_is_caught() {
        let docs = documents(3, "t", 1, 400, 2);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/oracle-test-{}", std::process::id()));
        let mut oracle = Oracle::load(&docs, &dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        for class in Class::FIXED {
            let q = Query::fixed(class);
            oracle.learn(&docs[0].key(0), &q).unwrap();
            let want = oracle.expected(&docs[0].key(0), &q);
            let got = oracle.catalog.query(&docs[0].key(0), q.lang(), &q.text).unwrap();
            assert!(matches(got.serialize(), &want));
            assert!(!matches(got.serialize(), &corrupted(&want)), "{class:?}");
        }
        // A document replaced by its other version answers differently,
        // so a stale expectation would be caught too.
        let q = Query::fixed(Class::Overlap);
        oracle.learn(&docs[0].key(1), &q).unwrap();
        assert!(!matches(
            &oracle.expected(&docs[0].key(0), &q),
            &oracle.expected(&docs[0].key(1), &q)
        ));
    }
}
