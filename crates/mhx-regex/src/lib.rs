//! # mhx-regex — a small regex engine with capture groups
//!
//! Built from scratch because the sanctioned offline crate set has no
//! `regex`, and the paper's `matches()` / `replace()` / `tokenize()` /
//! `analyze-string()` functions all need one. Pipeline: recursive-descent
//! parser → Thompson NFA → Pike VM, giving leftmost-first (backtracker-
//! compatible) semantics with submatch capture in O(len·insts).
//!
//! A search costs a `str::find` scan plus work near each match when the
//! pattern starts with literal text: the compiler records the prefix every
//! match must start with (the leading literals, read through groups), and
//! the VM jumps to its next occurrence whenever no thread is live. Such a
//! jump skips only bytes no thread would read, so the O(len·insts) bound
//! and leftmost-first semantics hold. A pattern that is one literal with no
//! capture groups is answered by `str::find` / `starts_with` alone.
//!
//! Two caps keep a hostile pattern from aborting or stalling its caller,
//! each a [`RegexError`]: groups nest at most [`parser::MAX_DEPTH`] deep,
//! and a program holds at most [`nfa::MAX_INSTS`] instructions, counted
//! before a counted repetition is expanded.
//!
//! Supported syntax: literals, `.`, classes `[a-z^-]` with `\d \w \s`
//! escapes, alternation, `(..)` / `(?:..)` groups, `* + ? {m} {m,} {m,n}`
//! with lazy variants, anchors `^ $`.
//!
//! ```
//! let re = mhx_regex::Regex::new("un(a)we").unwrap();
//! let caps = re.captures("unawendendne").unwrap();
//! assert_eq!(caps.get(0).unwrap().as_str(), "unawe");
//! assert_eq!(caps.get(1).unwrap().as_str(), "a");
//! ```

pub mod ast;
pub mod nfa;
pub mod parser;
pub mod pikevm;

pub use parser::RegexError;

use nfa::Program;
use pikevm::PikeVm;

/// A match location within a haystack (byte offsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match<'h> {
    haystack: &'h str,
    pub start: usize,
    pub end: usize,
}

impl<'h> Match<'h> {
    pub fn as_str(&self) -> &'h str {
        &self.haystack[self.start..self.end]
    }

    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// All capture groups of one match. Group 0 is the whole match.
#[derive(Debug, Clone)]
pub struct Captures<'h> {
    haystack: &'h str,
    slots: Vec<Option<usize>>,
}

impl<'h> Captures<'h> {
    pub fn get(&self, i: usize) -> Option<Match<'h>> {
        let (s, e) = (*self.slots.get(2 * i)?, *self.slots.get(2 * i + 1)?);
        match (s, e) {
            (Some(s), Some(e)) => Some(Match { haystack: self.haystack, start: s, end: e }),
            _ => None,
        }
    }

    /// Number of groups including group 0.
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    pub fn is_empty(&self) -> bool {
        false // group 0 always exists
    }
}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    prog: Program,
    pattern: String,
}

impl Regex {
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let parsed = parser::parse(pattern)?;
        let prog = nfa::compile(&parsed.ast, parsed.group_count)?;
        Ok(Regex { prog, pattern: pattern.to_string() })
    }

    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// Number of capturing groups (excluding group 0).
    pub fn group_count(&self) -> u32 {
        self.prog.group_count
    }

    /// Does the pattern match anywhere in `hay`? (XPath `fn:matches`
    /// semantics: unanchored.)
    pub fn is_match(&self, hay: &str) -> bool {
        PikeVm::new(&self.prog).run_search(hay, 0).is_some()
    }

    /// Does the pattern match the *entire* haystack?
    pub fn is_full_match(&self, hay: &str) -> bool {
        match PikeVm::new(&self.prog).run_anchored(hay, 0) {
            Some(slots) => slots[1] == Some(hay.len()),
            None => false,
        }
    }

    pub fn find<'h>(&self, hay: &'h str) -> Option<Match<'h>> {
        self.find_at(hay, 0)
    }

    pub fn find_at<'h>(&self, hay: &'h str, start: usize) -> Option<Match<'h>> {
        let slots = PikeVm::new(&self.prog).run_search(hay, start)?;
        Some(Match { haystack: hay, start: slots[0].unwrap(), end: slots[1].unwrap() })
    }

    pub fn captures<'h>(&self, hay: &'h str) -> Option<Captures<'h>> {
        self.captures_at(hay, 0)
    }

    pub fn captures_at<'h>(&self, hay: &'h str, start: usize) -> Option<Captures<'h>> {
        let slots = PikeVm::new(&self.prog).run_search(hay, start)?;
        Some(Captures { haystack: hay, slots })
    }

    /// Iterator over non-overlapping matches, left to right. Empty matches
    /// advance by one character so the iteration always terminates.
    pub fn find_iter<'r, 'h>(&'r self, hay: &'h str) -> FindIter<'r, 'h> {
        FindIter { re: self, hay, at: 0, done: false }
    }

    /// Iterator over non-overlapping [`Captures`].
    pub fn captures_iter<'r, 'h>(&'r self, hay: &'h str) -> CapturesIter<'r, 'h> {
        CapturesIter { re: self, hay, at: 0, done: false }
    }

    /// Replace every match with `rep`, where `$0`..`$9` in `rep` refer to
    /// capture groups and `$$` is a literal dollar (XPath `fn:replace`).
    pub fn replace_all(&self, hay: &str, rep: &str) -> String {
        let mut out = String::with_capacity(hay.len());
        let mut last = 0;
        for caps in self.captures_iter(hay) {
            let whole = caps.get(0).expect("group 0 present");
            out.push_str(&hay[last..whole.start]);
            expand(rep, &caps, &mut out);
            last = whole.end;
        }
        out.push_str(&hay[last..]);
        out
    }

    /// Split `hay` on matches (XPath `fn:tokenize` semantics: a leading
    /// empty token is produced if the string starts with a separator).
    pub fn split<'h>(&self, hay: &'h str) -> Vec<&'h str> {
        let mut out = Vec::new();
        let mut last = 0;
        for m in self.find_iter(hay) {
            if m.is_empty() {
                continue;
            }
            out.push(&hay[last..m.start]);
            last = m.end;
        }
        out.push(&hay[last..]);
        out
    }
}

fn expand(rep: &str, caps: &Captures<'_>, out: &mut String) {
    let mut chars = rep.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '$' {
            out.push(c);
            continue;
        }
        match chars.peek() {
            Some('$') => {
                chars.next();
                out.push('$');
            }
            Some(d) if d.is_ascii_digit() => {
                let i = d.to_digit(10).unwrap() as usize;
                chars.next();
                if let Some(m) = caps.get(i) {
                    out.push_str(m.as_str());
                }
            }
            _ => out.push('$'),
        }
    }
}

pub struct FindIter<'r, 'h> {
    re: &'r Regex,
    hay: &'h str,
    at: usize,
    done: bool,
}

impl<'h> Iterator for FindIter<'_, 'h> {
    type Item = Match<'h>;

    fn next(&mut self) -> Option<Match<'h>> {
        if self.done {
            return None;
        }
        let m = self.re.find_at(self.hay, self.at)?;
        advance_after(&m, self.hay, &mut self.at, &mut self.done);
        Some(m)
    }
}

pub struct CapturesIter<'r, 'h> {
    re: &'r Regex,
    hay: &'h str,
    at: usize,
    done: bool,
}

impl<'h> Iterator for CapturesIter<'_, 'h> {
    type Item = Captures<'h>;

    fn next(&mut self) -> Option<Captures<'h>> {
        if self.done {
            return None;
        }
        let caps = self.re.captures_at(self.hay, self.at)?;
        let m = caps.get(0).expect("group 0 present");
        advance_after(&m, self.hay, &mut self.at, &mut self.done);
        Some(caps)
    }
}

fn advance_after(m: &Match<'_>, hay: &str, at: &mut usize, done: &mut bool) {
    if m.is_empty() {
        // Step one char past an empty match.
        match hay[m.end..].chars().next() {
            Some(c) => *at = m.end + c.len_utf8(),
            None => *done = true,
        }
    } else {
        *at = m.end;
    }
    if *at > hay.len() {
        *done = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_iter_non_overlapping() {
        let re = Regex::new("aa").unwrap();
        let ms: Vec<_> = re.find_iter("aaaa").map(|m| (m.start, m.end)).collect();
        assert_eq!(ms, vec![(0, 2), (2, 4)]);
    }

    #[test]
    fn find_iter_empty_matches_terminate() {
        let re = Regex::new("a*").unwrap();
        let ms: Vec<_> = re.find_iter("ab").map(|m| (m.start, m.end)).collect();
        // "a" at 0..1, empty at 1..1, empty at 2..2.
        assert_eq!(ms, vec![(0, 1), (1, 1), (2, 2)]);
    }

    #[test]
    fn is_full_match() {
        let re = Regex::new("a+b").unwrap();
        assert!(re.is_full_match("aab"));
        assert!(!re.is_full_match("aabc"));
        assert!(!re.is_full_match("xaab"));
        // Greedy prefix must not spoil full match detection.
        let re2 = Regex::new("a*").unwrap();
        assert!(re2.is_full_match("aaa"));
    }

    #[test]
    fn replace_all_with_groups() {
        let re = Regex::new("(a)(b)").unwrap();
        assert_eq!(re.replace_all("xabyab", "$2$1"), "xbayba");
        assert_eq!(re.replace_all("ab", "[$0]"), "[ab]");
        assert_eq!(re.replace_all("ab", "$$"), "$");
    }

    #[test]
    fn split_tokenize() {
        let re = Regex::new(r"\s+").unwrap();
        assert_eq!(re.split("a b  c"), vec!["a", "b", "c"]);
        assert_eq!(re.split(" a"), vec!["", "a"]);
        assert_eq!(re.split("a"), vec!["a"]);
    }

    #[test]
    fn captures_iter_collects_groups() {
        let re = Regex::new(r"(\w)(\d)").unwrap();
        let all: Vec<_> = re
            .captures_iter("a1 b2")
            .map(|c| {
                (c.get(1).unwrap().as_str().to_string(), c.get(2).unwrap().as_str().to_string())
            })
            .collect();
        assert_eq!(all, vec![("a".into(), "1".into()), ("b".into(), "2".into())]);
    }

    #[test]
    fn paper_example1_pattern() {
        // ".*un<a>a</a>we.*" after tag→group conversion is ".*un(a)we.*".
        let re = Regex::new(".*un(a)we.*").unwrap();
        let caps = re.captures("unawendendne").unwrap();
        assert_eq!(caps.get(0).unwrap().range(), 0..12);
        assert_eq!(caps.get(1).unwrap().range(), 2..3);
        assert_eq!(caps.get(1).unwrap().as_str(), "a");
    }

    #[test]
    fn group_count_exposed() {
        assert_eq!(Regex::new("(a)(?:b)(c)").unwrap().group_count(), 2);
    }

    /// On a thread with the 2 MiB stack a server's workers get, the
    /// deepest accepted pattern compiles, matches and drops; one level
    /// deeper is an error, not a stack overflow, as is a repetition whose
    /// program would exhaust memory.
    #[test]
    fn caps_hold_within_a_worker_stack() {
        std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| {
                let nested =
                    |levels: usize| format!("{}a{}", "(".repeat(levels), ")".repeat(levels));
                let deepest = Regex::new(&nested(parser::MAX_DEPTH)).expect("the deepest pattern");
                let caps = deepest.captures("xa").unwrap();
                assert_eq!(caps.len(), parser::MAX_DEPTH + 1);
                assert_eq!(caps.get(parser::MAX_DEPTH).unwrap().range(), 1..2);
                drop(deepest);
                let err = Regex::new(&nested(parser::MAX_DEPTH + 1)).unwrap_err();
                assert!(err.msg.contains("nested deeper"), "{err}");
                assert!(Regex::new(&nested(10_000)).is_err());
                for huge in ["x{4294967295}", "(a{1000}){1000}"] {
                    let err = Regex::new(huge).unwrap_err();
                    assert!(err.msg.contains("instructions"), "{huge}: {err}");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    /// The prefix skip never re-reads a byte a live thread has read:
    /// `a.*b` over 200,000 `a`s is one pass, where seeding an anchored
    /// VM run at every candidate would take quadratic time.
    #[test]
    fn prefix_skip_stays_linear() {
        let hay = "a".repeat(200_000);
        let re = Regex::new("a.*b").unwrap();
        let started = std::time::Instant::now();
        assert!(re.find(&hay).is_none());
        assert_eq!(re.find(&format!("{hay}b")).map(|m| m.range()), Some(0..200_001));
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs() < 20, "a.*b over 200k chars took {elapsed:?}");
    }

    #[test]
    fn literal_patterns_skip_the_vm() {
        let re = Regex::new("sceaft").unwrap();
        assert!(re.prog.literal);
        let hay = "gesceaftum þa sceaft";
        let spans: Vec<_> = re.find_iter(hay).map(|m| m.range()).collect();
        assert_eq!(spans, vec![2..8, 15..21]);
        assert!(re.is_full_match("sceaft"));
        assert!(!re.is_full_match("sceafta"));
        assert_eq!(Regex::new("").unwrap().find_iter("ab").count(), 3);
    }

    #[test]
    fn multibyte_haystacks() {
        let re = Regex::new("gecyn").unwrap();
        let hay = "sibbe gecynde þa";
        let m = re.find(hay).unwrap();
        assert_eq!(m.as_str(), "gecyn");
        let re2 = Regex::new("þa").unwrap();
        assert_eq!(re2.find(hay).unwrap().as_str(), "þa");
    }
}

#[cfg(test)]
mod oracle {
    //! Property tests against a naive backtracking oracle.

    use super::*;
    use crate::ast::Ast;
    use proptest::prelude::*;
    use std::cell::Cell;

    /// Capture slots of the oracle, in char indices (same layout as the
    /// VM's: `2k`/`2k+1` for group `k`).
    type Caps = [Cell<Option<usize>>];

    /// Naive backtracking matcher. Calls `k` with each end offset in
    /// preference order; stops when `k` returns true. A capture group
    /// records its span in `caps` on the way to `k`, and restores the old
    /// span when `k` fails, so a success leaves the last iteration's spans.
    fn bt(
        ast: &Ast,
        hay: &[char],
        pos: usize,
        caps: &Caps,
        k: &mut dyn FnMut(usize) -> bool,
    ) -> bool {
        match ast {
            Ast::Empty => k(pos),
            Ast::Literal(c) => pos < hay.len() && hay[pos] == *c && k(pos + 1),
            Ast::AnyChar => pos < hay.len() && k(pos + 1),
            Ast::Class(cs) => pos < hay.len() && cs.contains(hay[pos]) && k(pos + 1),
            Ast::StartAnchor => pos == 0 && k(pos),
            Ast::EndAnchor => pos == hay.len() && k(pos),
            Ast::Group { ast, index: None } => bt(ast, hay, pos, caps, k),
            Ast::Group { ast, index: Some(i) } => {
                let (s, e) = (&caps[2 * *i as usize], &caps[2 * *i as usize + 1]);
                bt(ast, hay, pos, caps, &mut |p2| {
                    let old = (s.replace(Some(pos)), e.replace(Some(p2)));
                    k(p2) || {
                        s.set(old.0);
                        e.set(old.1);
                        false
                    }
                })
            }
            Ast::Concat(parts) => bt_concat(parts, hay, pos, caps, k),
            Ast::Alternate(parts) => parts.iter().any(|p| bt(p, hay, pos, caps, k)),
            Ast::Repeat { ast, min, max, greedy } => {
                bt_repeat(ast, *min, *max, *greedy, hay, pos, caps, k, 0)
            }
        }
    }

    fn bt_concat(
        parts: &[Ast],
        hay: &[char],
        pos: usize,
        caps: &Caps,
        k: &mut dyn FnMut(usize) -> bool,
    ) -> bool {
        match parts.split_first() {
            None => k(pos),
            Some((first, rest)) => {
                bt(first, hay, pos, caps, &mut |p2| bt_concat(rest, hay, p2, caps, k))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn bt_repeat(
        ast: &Ast,
        min: u32,
        max: Option<u32>,
        greedy: bool,
        hay: &[char],
        pos: usize,
        caps: &Caps,
        k: &mut dyn FnMut(usize) -> bool,
        depth: u32,
    ) -> bool {
        let can_more = max.map(|m| depth < m).unwrap_or(true) && depth < 64;
        let must_more = depth < min;
        let try_more = |k: &mut dyn FnMut(usize) -> bool| {
            bt(ast, hay, pos, caps, &mut |p2| {
                if p2 == pos {
                    // Empty-width iteration: stop to avoid infinite loops
                    // (same behaviour as the VM's step dedup).
                    return false;
                }
                bt_repeat(ast, min, max, greedy, hay, p2, caps, k, depth + 1)
            })
        };
        if must_more {
            // A mandatory iteration that matches empty satisfies the whole
            // remaining minimum (further copies would be empty too).
            return bt(ast, hay, pos, caps, &mut |p2| {
                if p2 == pos {
                    k(pos)
                } else {
                    bt_repeat(ast, min, max, greedy, hay, p2, caps, k, depth + 1)
                }
            });
        }
        // The branches differ only in evaluation ORDER, which is exactly
        // what greediness means: the closures are side-effecting, so the
        // `||` operands are not commutative here.
        #[allow(clippy::if_same_then_else)]
        if greedy {
            (can_more && try_more(k)) || k(pos)
        } else {
            k(pos) || (can_more && try_more(k))
        }
    }

    /// Byte offset of every char index of `hay`, and of its end.
    fn byte_offsets(hay: &str) -> Vec<usize> {
        hay.char_indices().map(|(i, _)| i).chain([hay.len()]).collect()
    }

    /// Oracle find from char index `from`: earliest start, then the
    /// backtracking-preferred end. Returns the slots in byte offsets.
    fn oracle_find_at(
        parsed: &parser::Parsed,
        hay: &str,
        from: usize,
    ) -> Option<Vec<Option<usize>>> {
        let chars: Vec<char> = hay.chars().collect();
        let offs = byte_offsets(hay);
        let caps: Vec<Cell<Option<usize>>> =
            (0..2 * (parsed.group_count as usize + 1)).map(|_| Cell::new(None)).collect();
        for start in from..=chars.len() {
            let mut end = None;
            bt(&parsed.ast, &chars, start, &caps, &mut |e| {
                end = Some(e);
                true
            });
            if let Some(e) = end {
                caps[0].set(Some(start));
                caps[1].set(Some(e));
                return Some(caps.iter().map(|c| c.get().map(|i| offs[i])).collect());
            }
        }
        None
    }

    /// The oracle's `captures_iter`: non-overlapping, stepping one char
    /// past an empty match.
    fn oracle_captures_iter(pattern: &str, hay: &str) -> Vec<Vec<Option<usize>>> {
        let parsed = parser::parse(pattern).unwrap();
        let offs = byte_offsets(hay);
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(slots) = oracle_find_at(&parsed, hay, from) {
            let (s, e) = (slots[0].unwrap(), slots[1].unwrap());
            from = offs.iter().position(|&o| o == e).unwrap() + usize::from(s == e);
            out.push(slots);
            if from >= offs.len() {
                break;
            }
        }
        out
    }

    /// The same pattern compiled without its literal prefix: every search
    /// steps the VM from every byte, as it did before the prefix skip.
    fn without_prefix(re: &Regex) -> Regex {
        let mut plain = re.clone();
        plain.prog.prefix.clear();
        plain.prog.literal = false;
        plain
    }

    fn arb_pattern() -> impl Strategy<Value = String> {
        let atom = prop_oneof![
            Just("a".to_string()),
            Just("b".to_string()),
            Just("c".to_string()),
            Just(".".to_string()),
            Just("[ab]".to_string()),
            Just("[^a]".to_string()),
        ];
        atom.prop_recursive(3, 16, 3, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a}{b}")),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("(?:{a}|{b})")),
                inner.clone().prop_map(|a| format!("(?:{a})*")),
                inner.clone().prop_map(|a| format!("(?:{a})?")),
                inner.clone().prop_map(|a| format!("(?:{a})+")),
                inner.prop_map(|a| format!("({a})")),
            ]
        })
    }

    /// A pattern that starts with literal text, some of it inside groups,
    /// followed by an arbitrary tail (or nothing: a plain literal).
    fn arb_literal_led() -> impl Strategy<Value = String> {
        let lead = prop_oneof![
            Just("a".to_string()),
            Just("aa".to_string()),
            Just("þa".to_string()),
            Just("(a)".to_string()),
            Just("a(þ)".to_string()),
            Just("(?:ab)a".to_string()),
            Just("(a(b))".to_string()),
            Just("a(b[aþ])".to_string()),
        ];
        let tail = prop_oneof![Just(String::new()), Just("þ".to_string()), arb_pattern()];
        (lead, tail).prop_map(|(l, t)| format!("{l}{t}"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The VM and the backtracking oracle agree on match spans.
        #[test]
        fn vm_agrees_with_backtracker(pat in arb_pattern(), hay in "[abc]{0,12}") {
            let parsed = parser::parse(&pat).unwrap();
            let re = Regex::new(&pat).unwrap();
            let vm = re.find(&hay).map(|m| (m.start, m.end));
            let oracle = oracle_find_at(&parsed, &hay, 0).map(|s| (s[0].unwrap(), s[1].unwrap()));
            prop_assert_eq!(vm, oracle, "pattern={} hay={}", pat, hay);
        }

        /// Literal-led patterns take the prefix skip (or the literal path):
        /// every match and every capture equals the backtracking oracle's
        /// and the same program's without its prefix.
        #[test]
        fn prefix_skip_keeps_every_answer(pat in arb_literal_led(), hay in "[aaabþ]{0,16}") {
            let re = Regex::new(&pat).unwrap();
            prop_assert!(!re.prog.prefix.is_empty(), "pattern={}", pat);
            let plain = without_prefix(&re);
            let spans = |r: &Regex| r.find_iter(&hay).map(|m| (m.start, m.end)).collect::<Vec<_>>();
            let slots = |r: &Regex| r.captures_iter(&hay).map(|c| c.slots).collect::<Vec<_>>();
            let oracle = oracle_captures_iter(&pat, &hay);
            let oracle_spans: Vec<_> =
                oracle.iter().map(|s| (s[0].unwrap(), s[1].unwrap())).collect();
            prop_assert_eq!(spans(&re), oracle_spans, "pattern={} hay={}", pat, hay);
            prop_assert_eq!(spans(&re), spans(&plain), "pattern={} hay={}", pat, hay);
            prop_assert_eq!(slots(&re), oracle, "pattern={} hay={}", pat, hay);
            prop_assert_eq!(slots(&re), slots(&plain), "pattern={} hay={}", pat, hay);
        }

        /// find_iter terminates and yields ordered matches.
        #[test]
        fn find_iter_sound(pat in arb_pattern(), hay in "[abc]{0,16}") {
            let re = Regex::new(&pat).unwrap();
            let mut last_start = 0usize;
            let mut n = 0;
            for m in re.find_iter(&hay) {
                prop_assert!(m.start >= last_start);
                prop_assert!(m.end >= m.start);
                last_start = m.start;
                n += 1;
                prop_assert!(n <= hay.len() + 2);
            }
        }

        /// Parser never panics.
        #[test]
        fn parser_total(pat in "[ -~]{0,24}") {
            let _ = Regex::new(&pat);
        }

        /// replace_all with identity template reconstructs the haystack.
        #[test]
        fn replace_identity(pat in arb_pattern(), hay in "[abc]{0,12}") {
            let re = Regex::new(&pat).unwrap();
            prop_assert_eq!(re.replace_all(&hay, "$0"), hay);
        }
    }
}
