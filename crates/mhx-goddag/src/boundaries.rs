//! The shared leaf layer: a ref-counted set of markup boundaries over the
//! base text `S`.
//!
//! A *leaf* (paper §3) is a maximal substring of `S` not broken by markup of
//! any hierarchy, i.e. the interval between two consecutive boundaries.
//! Every node span's endpoints are registered here, so `leaves(n)` of any
//! node is exactly the run of leaves covered by its span.
//!
//! The set is a flat sorted array of distinct offsets with a parallel
//! refcount array, and every leaf lookup is a binary search over it.
//! Boundaries arrive and leave one hierarchy at a time: installing a
//! hierarchy sorts its node endpoints and merges them into the array in
//! one linear pass, and removing it merges them back out. An offset whose
//! count drops to zero leaves the array, so the leaves it split merge back
//! automatically — the mechanism behind `analyze-string()`'s "temporary
//! hierarchies are deleted after the query" (Definition 4, step 5).

#[derive(Debug, Clone)]
pub struct Boundaries {
    /// Sorted, distinct boundary offsets. Invariant: contains 0 and
    /// `text_len` (pinned by construction with refcount ≥ 1), every entry
    /// ≤ `text_len`.
    offsets: Vec<u32>,
    /// `refs[i]` is how many registrations `offsets[i]` has (always ≥ 1).
    refs: Vec<u32>,
    text_len: u32,
}

impl Boundaries {
    pub fn new(text_len: u32) -> Boundaries {
        let offsets = if text_len > 0 { vec![0, text_len] } else { vec![0] };
        let refs = vec![1; offsets.len()];
        Boundaries { offsets, refs, text_len }
    }

    pub fn text_len(&self) -> u32 {
        self.text_len
    }

    /// Register one hierarchy's node endpoints. An offset listed `k` times
    /// gains `k` references.
    pub fn add_all(&mut self, endpoints: Vec<u32>) {
        debug_assert!(endpoints.iter().all(|&o| o <= self.text_len));
        self.merge(endpoints, |refs, n| refs + n);
    }

    /// Unregister endpoints registered by [`Boundaries::add_all`]. Offsets
    /// left without references stop being boundaries, merging their two
    /// leaves back into one.
    pub fn remove_all(&mut self, endpoints: Vec<u32>) {
        self.merge(endpoints, |refs, n| {
            debug_assert!(n <= refs, "removing unregistered boundary");
            refs.saturating_sub(n)
        });
    }

    /// Sort `batch` and merge it into the array in one pass, combining each
    /// offset's current count with its number of occurrences in `batch`.
    fn merge(&mut self, mut batch: Vec<u32>, combine: impl Fn(u32, u32) -> u32) {
        batch.sort_unstable();
        let mut offsets = Vec::with_capacity(self.offsets.len() + batch.len());
        let mut refs = Vec::with_capacity(offsets.capacity());
        let (mut i, mut j) = (0, 0);
        while let Some(off) = self.offsets.get(i).into_iter().chain(batch.get(j)).copied().min() {
            let mut count = 0;
            if self.offsets.get(i) == Some(&off) {
                count = self.refs[i];
                i += 1;
            }
            let n = batch[j..].iter().take_while(|&&b| b == off).count();
            j += n;
            let count = combine(count, n as u32);
            if count > 0 {
                offsets.push(off);
                refs.push(count);
            }
        }
        self.offsets = offsets;
        self.refs = refs;
    }

    /// Number of leaves (consecutive boundary pairs).
    pub fn leaf_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Index of the first boundary greater than `offset`.
    fn after(&self, offset: u32) -> usize {
        self.offsets.partition_point(|&b| b <= offset)
    }

    /// Start offset of the leaf containing `offset` (the greatest boundary
    /// ≤ `offset`).
    pub fn leaf_start_at(&self, offset: u32) -> u32 {
        self.after(offset).checked_sub(1).map_or(0, |i| self.offsets[i])
    }

    /// End offset of the leaf starting at (or containing) `offset`.
    pub fn leaf_end_at(&self, offset: u32) -> u32 {
        self.offsets.get(self.after(offset)).copied().unwrap_or(self.text_len)
    }

    /// The leaf `(start, end)` containing `offset`.
    pub fn leaf_at(&self, offset: u32) -> (u32, u32) {
        (self.leaf_start_at(offset), self.leaf_end_at(offset))
    }

    /// The boundaries within the half-open span `[start, end)`.
    fn within(&self, start: u32, end: u32) -> &[u32] {
        let lo = self.offsets.partition_point(|&b| b < start);
        let len = self.offsets[lo..].partition_point(|&b| b < end);
        &self.offsets[lo..lo + len]
    }

    /// Start offsets of all leaves within the half-open span `[start, end)`.
    /// Span endpoints are expected to be boundaries (true for node spans).
    pub fn leaves_in(&self, start: u32, end: u32) -> impl Iterator<Item = u32> + '_ {
        self.within(start, end).iter().copied()
    }

    /// All leaf start offsets, in order.
    pub fn leaf_starts(&self) -> impl Iterator<Item = u32> + '_ {
        // Every boundary except the final one (`text_len`) starts a leaf.
        self.offsets[..self.leaf_count()].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn b() -> Boundaries {
        let mut b = Boundaries::new(20);
        b.add_all(vec![5, 10, 15]);
        b
    }

    #[test]
    fn leaf_lookup() {
        let b = b();
        assert_eq!(b.leaf_count(), 4);
        assert_eq!(b.leaf_at(0), (0, 5));
        assert_eq!(b.leaf_at(4), (0, 5));
        assert_eq!(b.leaf_at(5), (5, 10));
        assert_eq!(b.leaf_at(19), (15, 20));
    }

    #[test]
    fn leaves_in_span() {
        let b = b();
        assert_eq!(b.leaves_in(5, 15).collect::<Vec<_>>(), vec![5, 10]);
        assert_eq!(b.leaves_in(0, 20).collect::<Vec<_>>(), vec![0, 5, 10, 15]);
        assert_eq!(b.leaves_in(5, 5).count(), 0);
    }

    #[test]
    fn refcounting_merges_leaves_back() {
        let mut b = Boundaries::new(10);
        assert_eq!(b.leaf_count(), 1);
        b.add_all(vec![4, 4]);
        assert_eq!(b.leaf_count(), 2);
        b.remove_all(vec![4]);
        assert_eq!(b.leaf_count(), 2, "still referenced once");
        b.remove_all(vec![4]);
        assert_eq!(b.leaf_count(), 1, "merged back");
    }

    #[test]
    fn leaf_starts_excludes_text_end() {
        let b = b();
        assert_eq!(b.leaf_starts().collect::<Vec<_>>(), vec![0, 5, 10, 15]);
    }

    #[test]
    fn empty_text() {
        let b = Boundaries::new(0);
        assert_eq!(b.leaf_count(), 0);
        assert_eq!(b.leaf_starts().count(), 0);
    }

    #[test]
    fn figure1_boundaries() {
        // S = "gesceaftum unawendendne singallice sibbe gecynde þa"
        // (þ is two bytes; byte length 52, char length 51).
        let s = "gesceaftum unawendendne singallice sibbe gecynde þa";
        let mut b = Boundaries::new(s.len() as u32);
        // line ends; word boundaries; res boundaries; dmg boundaries.
        b.add_all(vec![27]); // line split after "...sin"
        b.add_all(vec![10, 11, 23, 24, 34, 35, 40, 41, 48, 49]); // words and spaces
        b.add_all(vec![24, 49]); // vlines (duplicates refcount)
        b.add_all(vec![14, 25, 27, 46]); // res
        b.add_all(vec![14, 15, 46]); // dmg

        // 16 leaves as in Figure 2.
        assert_eq!(b.leaf_count(), 16);
        let starts: Vec<u32> = b.leaf_starts().collect();
        assert_eq!(starts, vec![0, 10, 11, 14, 15, 23, 24, 25, 27, 34, 35, 40, 41, 46, 48, 49]);
        // Leaf contents spell the partition from the paper.
        let words: Vec<&str> = starts
            .iter()
            .map(|&st| {
                let (a, e) = b.leaf_at(st);
                &s[a as usize..e as usize]
            })
            .collect();
        assert_eq!(
            words,
            vec![
                "gesceaftum",
                " ",
                "una",
                "w",
                "endendne",
                " ",
                "s",
                "in",
                "gallice",
                " ",
                "sibbe",
                " ",
                "gecyn",
                "de",
                " ",
                "þa"
            ]
        );
    }

    /// The reference model: offset → refcount in a `BTreeMap`, one
    /// registration at a time.
    struct Model {
        map: BTreeMap<u32, u32>,
        text_len: u32,
    }

    impl Model {
        fn new(text_len: u32) -> Model {
            Model { map: [(0, 1), (text_len, 1)].into_iter().collect(), text_len }
        }
        fn add(&mut self, off: u32) {
            *self.map.entry(off).or_insert(0) += 1;
        }
        fn remove(&mut self, off: u32) {
            let rc = self.map.get_mut(&off).expect("model removes only what it added");
            *rc -= 1;
            if *rc == 0 {
                self.map.remove(&off);
            }
        }
        fn leaf_at(&self, off: u32) -> (u32, u32) {
            let start = *self.map.range(..=off).next_back().unwrap().0;
            let end = self.map.range(off + 1..).next().map_or(self.text_len, |(&k, _)| k);
            (start, end)
        }
        fn leaves_in(&self, s: u32, e: u32) -> Vec<u32> {
            self.map.range(s..e).map(|(&k, _)| k).collect()
        }
    }

    /// Check every lookup of `flat` against `model` at the probe offsets.
    fn agree(flat: &Boundaries, model: &Model, probes: &[(u32, u32)]) -> Result<(), TestCaseError> {
        let len = model.text_len;
        let keys: Vec<u32> = model.map.keys().copied().collect();
        prop_assert_eq!(flat.leaf_count(), keys.len() - 1);
        let starts: Vec<u32> = flat.leaf_starts().collect();
        prop_assert_eq!(&starts[..], &keys[..keys.len() - 1]);
        prop_assert_eq!(starts.first(), Some(&0), "0 stays pinned");
        prop_assert_eq!(flat.leaf_end_at(*starts.last().unwrap()), len, "text_len stays pinned");
        for &(a, b) in probes {
            let (a, b) = (a.min(len), b.min(len));
            prop_assert_eq!(flat.leaf_at(a), model.leaf_at(a), "leaf_at({})", a);
            let (s, e) = (a.min(b), a.max(b));
            let want = model.leaves_in(s, e);
            prop_assert_eq!(flat.leaves_in(s, e).collect::<Vec<_>>(), &want[..], "{}..{}", s, e);
        }
        Ok(())
    }

    /// A text length and a sequence of steps: each either removes the
    /// most recently added batch (tag 0, as virtual hierarchies go, LIFO)
    /// or adds a hierarchy-sized batch of offsets. Batches include 0 and
    /// `text_len` and repeat offsets, so refcounts above one and the
    /// pinned ends are exercised.
    fn arb_steps() -> impl Strategy<Value = (u32, Vec<(u8, Vec<u32>)>)> {
        (1u32..40).prop_flat_map(|len| {
            let batch = proptest::collection::vec(0..=len, 0..12);
            (Just(len), proptest::collection::vec((0u8..3, batch), 1..10))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat array answers like the map after every add and remove,
        /// and once every batch is removed only the one whole-text leaf
        /// is left.
        #[test]
        fn flat_array_matches_btreemap_model(
            case in arb_steps(),
            probes in proptest::collection::vec((0u32..40, 0u32..40), 8),
        ) {
            let (len, steps) = case;
            let mut flat = Boundaries::new(len);
            let mut model = Model::new(len);
            let mut live: Vec<Vec<u32>> = Vec::new();
            let remove = |flat: &mut Boundaries, model: &mut Model, batch: Vec<u32>| {
                batch.iter().for_each(|&o| model.remove(o));
                flat.remove_all(batch);
            };
            for (tag, batch) in steps {
                match live.pop() {
                    Some(top) if tag == 0 => remove(&mut flat, &mut model, top),
                    top => {
                        live.extend(top);
                        batch.iter().for_each(|&o| model.add(o));
                        flat.add_all(batch.clone());
                        live.push(batch);
                    }
                }
                agree(&flat, &model, &probes)?;
            }
            while let Some(top) = live.pop() {
                remove(&mut flat, &mut model, top);
                agree(&flat, &model, &probes)?;
            }
            prop_assert_eq!(flat.leaf_count(), 1, "every removed leaf merged back");
        }
    }
}
