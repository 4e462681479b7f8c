//! Seeded inputs: documents, query classes, and request draws.
//!
//! Documents come from `mhx_corpus::generate` with nested elements on, so
//! that `//e0//s0` is a real containment-chain join; everything else
//! (3 hierarchies, jitter 0.7, 30-char elements) matches the existing
//! serve/shard benches.

use mhx_corpus::{generate, GeneratorConfig};
use mhx_json::Json;
use multihier_xquery::QueryLang;
use rand::rngs::StdRng;
use rand::RngCore;

/// SplitMix64 finaliser: derives independent seeds from (seed, stream).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [0, 1).
pub fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Query classes. Each fixed class is one query text; `Literal` carries a
/// word from the corpus vocabulary, so its texts outnumber the plan
/// cache; `Count` is the first query after a boot or restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Overlap,
    XFollowing,
    Chain,
    Flwor,
    Analyze,
    Literal,
    Count,
}

impl Class {
    /// The classes every connection prepares, in handle order.
    pub const FIXED: [Class; 5] =
        [Class::Overlap, Class::XFollowing, Class::Chain, Class::Flwor, Class::Analyze];

    pub fn lang(self) -> QueryLang {
        match self {
            Class::Overlap | Class::XFollowing | Class::Chain | Class::Count => QueryLang::XPath,
            Class::Flwor | Class::Analyze | Class::Literal => QueryLang::XQuery,
        }
    }

    /// Span name of its in-process execution (`layer.class`).
    pub fn span(self) -> &'static str {
        match self {
            Class::Overlap => "xpath.overlap",
            Class::XFollowing => "xpath.xfollowing",
            Class::Chain => "xpath.chain",
            Class::Count => "xpath.count",
            Class::Flwor => "xquery.flwor",
            Class::Analyze => "xquery.analyze",
            Class::Literal => "xquery.literal",
        }
    }

    pub fn name(self) -> &'static str {
        self.span().split('.').nth(1).expect("span names are layer.class")
    }

    fn text(self) -> &'static str {
        match self {
            Class::Overlap => "/descendant::e1[overlapping::e0]",
            Class::XFollowing => "/descendant::e2[7]/xfollowing::e0",
            Class::Chain => "/descendant::e0/descendant::s0",
            Class::Flwor => "for $x in /descendant::e1[xdescendant::e0] return string($x/@n)",
            Class::Analyze => {
                "let $r := analyze-string(root(), 'sceaft') return count($r/child::m)"
            }
            Class::Literal => {
                "for $x in /descendant::e0[overlapping::e1] where contains(string($x), 'WORD') \
                 return string($x/@n)"
            }
            Class::Count => "count(/descendant::e0[overlapping::e1])",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    pub class: Class,
    pub text: String,
}

impl Query {
    pub fn fixed(class: Class) -> Query {
        Query { class, text: class.text().to_string() }
    }

    pub fn literal(word: &str) -> Query {
        Query { class: Class::Literal, text: Class::Literal.text().replace("WORD", word) }
    }

    pub fn lang(&self) -> QueryLang {
        self.class.lang()
    }

    /// The `/query` body `Client::query` sends for this query.
    pub fn body(&self, doc: &str) -> Json {
        Json::Obj(vec![
            ("lang".into(), Json::Str(self.lang().name().into())),
            ("query".into(), Json::Str(self.text.clone())),
            ("doc".into(), Json::Str(doc.into())),
        ])
    }
}

/// One document id with one or more versions (each a list of
/// `(hierarchy name, XML)`); `ingest-cold` uploads alternate versions.
pub struct Doc {
    pub id: String,
    pub versions: Vec<Vec<(String, String)>>,
    /// Base text of version 0 (the literal-query vocabulary).
    pub text: String,
}

impl Doc {
    /// The oracle's id for one version.
    pub fn key(&self, version: usize) -> String {
        format!("{}.v{version}", self.id)
    }

    pub fn xml_bytes(&self, version: usize) -> usize {
        self.versions[version].iter().map(|(_, xml)| xml.len()).sum()
    }

    /// The `PUT /documents/{id}` body (what `Client::put_document` sends).
    pub fn put_body(&self, version: usize) -> Json {
        let items = self.versions[version]
            .iter()
            .map(|(name, xml)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("xml".into(), Json::Str(xml.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![("hierarchies".into(), Json::Arr(items))])
    }
}

/// `count` documents named `<prefix><i>`, each with `versions` versions.
pub fn documents(
    seed: u64,
    prefix: &str,
    count: usize,
    text_len: usize,
    versions: usize,
) -> Vec<Doc> {
    (0..count)
        .map(|i| {
            let gen = |v: usize| {
                generate(&GeneratorConfig {
                    seed: mix(mix(seed, i as u64), v as u64),
                    text_len,
                    hierarchies: 3,
                    avg_element_len: 30,
                    boundary_jitter: 0.7,
                    nested: true,
                })
            };
            let first = gen(0);
            let mut all = vec![first.encodings];
            all.extend((1..versions).map(|v| gen(v).encodings));
            Doc { id: format!("{prefix}{i:02}"), versions: all, text: first.text }
        })
        .collect()
}

/// Distinct words of the documents' texts, sorted.
pub fn vocabulary(docs: &[Doc]) -> Vec<String> {
    let mut words: Vec<String> =
        docs.iter().flat_map(|d| d.text.split(' ').map(str::to_string)).collect();
    words.sort_unstable();
    words.dedup();
    words
}

/// Draw an index from cumulative weights.
pub fn pick(rng: &mut StdRng, cumulative: &[f64]) -> usize {
    let u = unit(rng) * cumulative.last().copied().unwrap_or(1.0);
    cumulative.partition_point(|&c| c <= u).min(cumulative.len() - 1)
}

pub fn cumulative(weights: impl IntoIterator<Item = f64>) -> Vec<f64> {
    weights
        .into_iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn same_seed_same_documents() {
        let a = documents(7, "d", 2, 300, 2);
        let b = documents(7, "d", 2, 300, 2);
        assert_eq!(a[1].versions, b[1].versions);
        assert_ne!(a[1].versions[0], a[1].versions[1], "versions differ");
        assert_ne!(documents(8, "d", 1, 300, 1)[0].versions, a[0].versions[..1]);
    }

    #[test]
    fn pick_follows_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let cum = cumulative([1.0, 0.0, 3.0]);
        let mut hits = [0usize; 3];
        for _ in 0..4000 {
            hits[pick(&mut rng, &cum)] += 1;
        }
        assert_eq!(hits[1], 0);
        assert!(hits[2] > 2 * hits[0], "{hits:?}");
    }
}
