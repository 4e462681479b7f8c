//! Pike VM: NFA simulation with capture slots.
//!
//! Threads are kept in priority order, so alternation is leftmost-first and
//! repetition greediness follows the `Split` branch order — the same match
//! a backtracking engine would find, in O(len · insts) time.
//!
//! An unanchored search seeds a thread only where a match can start: when
//! no thread is live and nothing has matched, it jumps with `str::find` to
//! the next occurrence of the program's literal prefix. The jump skips only
//! bytes no thread would have read, so each byte is still stepped at most
//! once. A purely literal program never enters the VM.

use crate::nfa::{Inst, Program};
use std::rc::Rc;

type Slots = Rc<Vec<Option<usize>>>;

struct Thread {
    pc: usize,
    slots: Slots,
}

struct ThreadList {
    threads: Vec<Thread>,
    /// `seen[pc] == stamp` → pc already queued this step.
    seen: Vec<u64>,
    stamp: u64,
}

impl ThreadList {
    fn new(n: usize) -> ThreadList {
        ThreadList { threads: Vec::new(), seen: vec![0; n], stamp: 0 }
    }

    fn clear(&mut self) {
        self.threads.clear();
        self.stamp += 1;
    }
}

/// Execution over one haystack. `pos` values are byte offsets.
pub struct PikeVm<'p> {
    prog: &'p Program,
}

impl<'p> PikeVm<'p> {
    pub fn new(prog: &'p Program) -> PikeVm<'p> {
        PikeVm { prog }
    }

    /// Run an anchored-at-`start` match attempt: the match must begin
    /// exactly at `start`. Returns the capture slots of the best
    /// (leftmost-first) match.
    pub fn run_anchored(&self, hay: &str, start: usize) -> Option<Vec<Option<usize>>> {
        self.run(hay, start, true)
    }

    /// Unanchored search from `start`: earliest-starting match wins.
    pub fn run_search(&self, hay: &str, start: usize) -> Option<Vec<Option<usize>>> {
        self.run(hay, start, false)
    }

    fn run(&self, hay: &str, start: usize, anchored: bool) -> Option<Vec<Option<usize>>> {
        let prefix = self.prog.prefix.as_str();
        if self.prog.literal {
            let tail = &hay[start..];
            let at = if anchored {
                tail.starts_with(prefix).then_some(start)?
            } else {
                start + tail.find(prefix)?
            };
            return Some(vec![Some(at), Some(at + prefix.len())]);
        }
        let n = self.prog.insts.len();
        let mut clist = ThreadList::new(n);
        let mut nlist = ThreadList::new(n);
        let mut stack = Vec::new();
        let mut best: Option<Vec<Option<usize>>> = None;

        let init_slots: Slots = Rc::new(vec![None; self.prog.n_slots]);
        clist.clear();

        let mut pos = start;
        loop {
            let searching = !anchored && best.is_none();
            if searching && clist.threads.is_empty() && !prefix.is_empty() {
                // No thread is live: the next match starts at the next
                // occurrence of the prefix, or nowhere.
                pos += hay[pos..].find(prefix)?;
            }
            let next_char = hay[pos..].chars().next();

            // Seed a new thread at this position (lowest priority) while
            // searching and nothing matched yet.
            if pos == start || searching {
                stack.push((0, init_slots.clone()));
                add_threads(self.prog, &mut clist, &mut stack, pos, hay);
            }

            if clist.threads.is_empty() && best.is_some() {
                break;
            }

            nlist.clear();
            for t in std::mem::take(&mut clist.threads) {
                let advances = match (&self.prog.insts[t.pc], next_char) {
                    (Inst::Char(c), Some(ch)) => ch == *c,
                    (Inst::Class(cs), Some(ch)) => cs.contains(ch),
                    (Inst::Any, Some(_)) => true,
                    (Inst::Match, _) => {
                        // The highest-priority thread still running matched
                        // here: lower-priority threads are cut off. Threads
                        // already in nlist came from higher-priority ones,
                        // so they keep running and may extend the match.
                        best = Some((*t.slots).clone());
                        break;
                    }
                    _ => false,
                };
                if let (true, Some(ch)) = (advances, next_char) {
                    stack.push((t.pc + 1, t.slots));
                    add_threads(self.prog, &mut nlist, &mut stack, pos + ch.len_utf8(), hay);
                }
            }
            std::mem::swap(&mut clist, &mut nlist);
            match next_char {
                Some(c) => pos += c.len_utf8(),
                None => break,
            }
            if clist.threads.is_empty() && (anchored || best.is_some()) {
                break;
            }
        }
        best
    }
}

/// Queue the threads on `stack` (following epsilon transitions) onto
/// `list` at input offset `pos`, depth first, so each `Split` queues its
/// preferred branch first. A work stack rather than recursion: a chain of
/// epsilon instructions can be as long as the program.
fn add_threads(
    prog: &Program,
    list: &mut ThreadList,
    stack: &mut Vec<(usize, Slots)>,
    pos: usize,
    hay: &str,
) {
    while let Some((pc, slots)) = stack.pop() {
        if list.seen[pc] == list.stamp {
            continue;
        }
        list.seen[pc] = list.stamp;
        match &prog.insts[pc] {
            Inst::Jmp(t) => stack.push((*t, slots)),
            Inst::Split(a, b) => {
                stack.push((*b, slots.clone()));
                stack.push((*a, slots));
            }
            Inst::Save(n) => {
                let mut s = (*slots).clone();
                s[*n] = Some(pos);
                stack.push((pc + 1, Rc::new(s)));
            }
            Inst::AssertStart => {
                if pos == 0 {
                    stack.push((pc + 1, slots));
                }
            }
            Inst::AssertEnd => {
                if pos == hay.len() {
                    stack.push((pc + 1, slots));
                }
            }
            _ => list.threads.push(Thread { pc, slots }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::compile;
    use crate::parser::parse;

    fn slots(pattern: &str, hay: &str) -> Option<Vec<Option<usize>>> {
        let p = parse(pattern).unwrap();
        let prog = compile(&p.ast, p.group_count).unwrap();
        PikeVm::new(&prog).run_search(hay, 0)
    }

    fn m(pattern: &str, hay: &str) -> Option<(usize, usize)> {
        slots(pattern, hay).map(|s| (s[0].unwrap(), s[1].unwrap()))
    }

    #[test]
    fn literal_search() {
        assert_eq!(m("abc", "xxabcx"), Some((2, 5)));
        assert_eq!(m("abc", "ab"), None);
    }

    #[test]
    fn leftmost_earliest_wins() {
        assert_eq!(m("a|ab", "xab"), Some((1, 2))); // leftmost-first: 'a' branch
        assert_eq!(m("ab|a", "xab"), Some((1, 3)));
    }

    #[test]
    fn greedy_vs_lazy() {
        assert_eq!(m("a+", "aaa"), Some((0, 3)));
        assert_eq!(m("a+?", "aaa"), Some((0, 1)));
        assert_eq!(m("<.*>", "<a><b>"), Some((0, 6)));
        assert_eq!(m("<.*?>", "<a><b>"), Some((0, 3)));
    }

    #[test]
    fn captures_basic() {
        let s = slots("un(a)we", "unawendendne").unwrap();
        assert_eq!((s[0], s[1]), (Some(0), Some(5)));
        assert_eq!((s[2], s[3]), (Some(2), Some(3)));
    }

    #[test]
    fn captures_in_repeat_keep_last() {
        let s = slots("(a|b)+", "abab").unwrap();
        assert_eq!((s[0], s[1]), (Some(0), Some(4)));
        assert_eq!((s[2], s[3]), (Some(3), Some(4)));
    }

    #[test]
    fn unmatched_group_is_none() {
        let s = slots("(a)|(b)", "b").unwrap();
        assert_eq!(s[2], None);
        assert_eq!((s[4], s[5]), (Some(0), Some(1)));
    }

    #[test]
    fn anchors_work() {
        assert_eq!(m("^ab", "ab"), Some((0, 2)));
        assert_eq!(m("^ab", "xab"), None);
        assert_eq!(m("ab$", "xab"), Some((1, 3)));
        assert_eq!(m("ab$", "abx"), None);
        assert_eq!(m("^$", ""), Some((0, 0)));
    }

    #[test]
    fn anchored_run_requires_start() {
        let p = parse("ab").unwrap();
        let prog = compile(&p.ast, p.group_count).unwrap();
        let vm = PikeVm::new(&prog);
        assert!(vm.run_anchored("xab", 0).is_none());
        assert!(vm.run_anchored("xab", 1).is_some());
    }

    #[test]
    fn empty_pattern_matches_empty() {
        assert_eq!(m("", "abc"), Some((0, 0)));
        assert_eq!(m("x*", "abc"), Some((0, 0)));
    }

    #[test]
    fn counted_repetition() {
        assert_eq!(m("a{2,3}", "aaaa"), Some((0, 3)));
        assert_eq!(m("a{2,3}", "a"), None);
        assert_eq!(m("a{2}", "aa"), Some((0, 2)));
    }

    #[test]
    fn multibyte_offsets_are_byte_offsets() {
        assert_eq!(m("a", "þa"), Some((2, 3)));
        assert_eq!(m("þ", "aþ"), Some((1, 3)));
    }

    #[test]
    fn paper_pattern_dotstar() {
        // ".*unawe.*" over "unawendendne": greedy .* still must find match.
        assert_eq!(m(".*unawe.*", "unawendendne"), Some((0, 12)));
        assert_eq!(m("unawe", "unawendendne"), Some((0, 5)));
    }

    #[test]
    fn class_matching() {
        assert_eq!(m("[a-c]+", "zzabcaz"), Some((2, 6)));
        assert_eq!(m("[^a-c]+", "abxyz"), Some((2, 5)));
        assert_eq!(m(r"\w+", "  word12  "), Some((2, 8)));
    }

    #[test]
    fn alternation_with_groups_priority() {
        // Leftmost-first: first alternative that matches at the leftmost
        // start position wins, even if shorter.
        let s = slots("(ab|a)(c?)", "abc").unwrap();
        assert_eq!((s[0], s[1]), (Some(0), Some(3)));
        assert_eq!((s[2], s[3]), (Some(0), Some(2)));
        assert_eq!((s[4], s[5]), (Some(2), Some(3)));
    }
}
