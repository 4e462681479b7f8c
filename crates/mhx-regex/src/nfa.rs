//! Thompson construction: [`Ast`] → instruction program for the Pike VM.

use crate::ast::{Ast, ClassSet};
use crate::parser::RegexError;

/// The most instructions a compiled program may hold. The VM may step
/// every instruction at every byte, so this bounds the work per byte as
/// well as the program's memory: `x{4294967295}` would ask for billions.
/// The size is counted before anything is emitted.
pub const MAX_INSTS: usize = 10_000;

/// One VM instruction. `Split` prefers its first branch, which is how
/// greediness and leftmost-first alternation are encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    Char(char),
    Class(ClassSet),
    Any,
    Split(usize, usize),
    Jmp(usize),
    /// Store the current input offset into capture slot `n`.
    Save(usize),
    AssertStart,
    AssertEnd,
    Match,
}

/// A compiled program. Slot layout: `2*k` = start of group `k`,
/// `2*k + 1` = end of group `k`; group 0 is the whole match.
#[derive(Debug, Clone)]
pub struct Program {
    pub insts: Vec<Inst>,
    pub n_slots: usize,
    pub group_count: u32,
    /// Literal text every match starts with: the leading literals of the
    /// top-level concatenation, read through groups. An unanchored search
    /// skips to its next occurrence whenever no thread is live.
    pub prefix: String,
    /// The pattern is `prefix` and nothing else, with no capture groups:
    /// a match is an occurrence of `prefix`, found without the VM.
    pub literal: bool,
}

pub fn compile(ast: &Ast, group_count: u32) -> Result<Program, RegexError> {
    let len = emitted_len(ast).saturating_add(3);
    if len > MAX_INSTS {
        return Err(RegexError {
            msg: format!("pattern compiles to more than {MAX_INSTS} instructions"),
            at: 0,
        });
    }
    let mut c = Compiler { insts: Vec::with_capacity(len) };
    c.push(Inst::Save(0));
    c.emit(ast);
    c.push(Inst::Save(1));
    c.push(Inst::Match);
    debug_assert_eq!(c.insts.len(), len);
    let mut prefix = String::new();
    let literal = literal_prefix(ast, &mut prefix) && group_count == 0;
    Ok(Program {
        insts: c.insts,
        n_slots: 2 * (group_count as usize + 1),
        group_count,
        prefix,
        literal,
    })
}

/// Append to `out` the literal text every match of `ast` starts with;
/// true when that text is all `ast` matches.
fn literal_prefix(ast: &Ast, out: &mut String) -> bool {
    match ast {
        Ast::Empty => true,
        Ast::Literal(c) => {
            out.push(*c);
            true
        }
        Ast::Group { ast, .. } => literal_prefix(ast, out),
        Ast::Concat(parts) => parts.iter().all(|p| literal_prefix(p, out)),
        _ => false,
    }
}

/// How many instructions [`Compiler::emit`] writes for `ast`, saturating
/// (counted repetitions multiply).
fn emitted_len(ast: &Ast) -> usize {
    let sum = |parts: &[Ast]| parts.iter().fold(0usize, |n, p| n.saturating_add(emitted_len(p)));
    match ast {
        Ast::Empty => 0,
        Ast::Literal(_) | Ast::AnyChar | Ast::Class(_) | Ast::StartAnchor | Ast::EndAnchor => 1,
        Ast::Concat(parts) => sum(parts),
        // A split and a jump around every branch but the last.
        Ast::Alternate(parts) => sum(parts).saturating_add(2 * (parts.len() - 1)),
        Ast::Group { ast, index } => {
            emitted_len(ast).saturating_add(if index.is_some() { 2 } else { 0 })
        }
        Ast::Repeat { ast, min, max, .. } => {
            let body = emitted_len(ast);
            let optional = match max {
                None => body.saturating_add(2),
                Some(mx) => ((mx - min) as usize).saturating_mul(body.saturating_add(1)),
            };
            (*min as usize).saturating_mul(body).saturating_add(optional)
        }
    }
}

struct Compiler {
    insts: Vec<Inst>,
}

impl Compiler {
    fn push(&mut self, i: Inst) -> usize {
        self.insts.push(i);
        self.insts.len() - 1
    }

    fn here(&self) -> usize {
        self.insts.len()
    }

    fn emit(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty => {}
            Ast::Literal(c) => {
                self.push(Inst::Char(*c));
            }
            Ast::AnyChar => {
                self.push(Inst::Any);
            }
            Ast::Class(cs) => {
                self.push(Inst::Class(cs.clone()));
            }
            Ast::StartAnchor => {
                self.push(Inst::AssertStart);
            }
            Ast::EndAnchor => {
                self.push(Inst::AssertEnd);
            }
            Ast::Concat(parts) => {
                for p in parts {
                    self.emit(p);
                }
            }
            Ast::Alternate(parts) => {
                // split → b1, split → b2, ... with jumps to a common end.
                let mut jmp_ends = Vec::new();
                let mut prev_split: Option<usize> = None;
                for (i, p) in parts.iter().enumerate() {
                    if let Some(s) = prev_split.take() {
                        let here = self.here();
                        if let Inst::Split(_, ref mut b) = self.insts[s] {
                            *b = here;
                        }
                    }
                    let last = i + 1 == parts.len();
                    if !last {
                        let s = self.push(Inst::Split(0, 0));
                        let here = self.here();
                        if let Inst::Split(ref mut a, _) = self.insts[s] {
                            *a = here;
                        }
                        prev_split = Some(s);
                    }
                    self.emit(p);
                    if !last {
                        jmp_ends.push(self.push(Inst::Jmp(0)));
                    }
                }
                let end = self.here();
                for j in jmp_ends {
                    if let Inst::Jmp(ref mut t) = self.insts[j] {
                        *t = end;
                    }
                }
            }
            Ast::Group { ast, index } => match index {
                Some(i) => {
                    self.push(Inst::Save(2 * *i as usize));
                    self.emit(ast);
                    self.push(Inst::Save(2 * *i as usize + 1));
                }
                None => self.emit(ast),
            },
            Ast::Repeat { ast, min, max, greedy } => {
                self.emit_repeat(ast, *min, *max, *greedy);
            }
        }
    }

    fn emit_repeat(&mut self, ast: &Ast, min: u32, max: Option<u32>, greedy: bool) {
        // Mandatory copies; a body that emits nothing needs no more.
        for _ in 0..min {
            let before = self.here();
            self.emit(ast);
            if self.here() == before {
                break;
            }
        }
        match max {
            None => {
                // star (or the tail of plus): L: split(body, end) body jmp L
                let l = self.here();
                let s = self.push(Inst::Split(0, 0));
                let body = self.here();
                self.emit(ast);
                self.push(Inst::Jmp(l));
                let end = self.here();
                self.insts[s] =
                    if greedy { Inst::Split(body, end) } else { Inst::Split(end, body) };
            }
            Some(mx) => {
                // (mx - min) optional copies.
                let mut splits = Vec::new();
                for _ in min..mx {
                    let s = self.push(Inst::Split(0, 0));
                    let body = self.here();
                    splits.push((s, body));
                    self.emit(ast);
                }
                let end = self.here();
                for (s, body) in splits {
                    self.insts[s] =
                        if greedy { Inst::Split(body, end) } else { Inst::Split(end, body) };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn prog(p: &str) -> Program {
        let parsed = parse(p).unwrap();
        compile(&parsed.ast, parsed.group_count).unwrap()
    }

    #[test]
    fn literal_program_shape() {
        let p = prog("ab");
        assert_eq!(
            p.insts,
            vec![Inst::Save(0), Inst::Char('a'), Inst::Char('b'), Inst::Save(1), Inst::Match,]
        );
    }

    #[test]
    fn star_is_loop() {
        let p = prog("a*");
        // Save0, Split(2,4), Char a, Jmp 1, Save1, Match
        assert_eq!(p.insts[1], Inst::Split(2, 4));
        assert_eq!(p.insts[3], Inst::Jmp(1));
    }

    #[test]
    fn lazy_star_prefers_exit() {
        let p = prog("a*?");
        assert_eq!(p.insts[1], Inst::Split(4, 2));
    }

    #[test]
    fn plus_expands_to_copy_then_star() {
        let p = prog("a+");
        assert_eq!(p.insts[1], Inst::Char('a'));
        assert_eq!(p.insts[2], Inst::Split(3, 5));
    }

    #[test]
    fn counted_expansion() {
        let p = prog("a{2,3}");
        let chars = p.insts.iter().filter(|i| matches!(i, Inst::Char('a'))).count();
        assert_eq!(chars, 3);
        let splits = p.insts.iter().filter(|i| matches!(i, Inst::Split(..))).count();
        assert_eq!(splits, 1);
    }

    #[test]
    fn groups_allocate_slots() {
        let p = prog("(a)(b)");
        assert_eq!(p.n_slots, 6);
        assert!(p.insts.contains(&Inst::Save(2)));
        assert!(p.insts.contains(&Inst::Save(5)));
    }

    #[test]
    fn literal_prefix_reads_through_groups() {
        let prefix = |pat: &str| {
            let p = prog(pat);
            (p.prefix, p.literal)
        };
        assert_eq!(prefix("sceaft"), ("sceaft".into(), true));
        assert_eq!(prefix("(?:sc)eaft"), ("sceaft".into(), true));
        assert_eq!(prefix("sce(af)t"), ("sceaft".into(), false));
        assert_eq!(prefix("un(a(w))e.*"), ("unawe".into(), false));
        assert_eq!(prefix("ab*"), ("a".into(), false));
        assert_eq!(prefix("(ab[c])d"), ("ab".into(), false));
        assert_eq!(prefix("a(b|c)"), ("a".into(), false));
        for none in ["[s]ceaft", ".a", "^a", "a|b", "(?:ab)*c", "a?b", r"\da"] {
            assert_eq!(prefix(none), (String::new(), false), "{none}");
        }
        // The empty pattern is the empty literal: it matches everywhere.
        assert_eq!(prefix(""), (String::new(), true));
    }

    #[test]
    fn program_size_is_counted_before_expansion() {
        let len = |pat: &str| {
            let parsed = parse(pat).unwrap();
            compile(&parsed.ast, parsed.group_count).map(|p| p.insts.len())
        };
        assert_eq!(len("a{9997}"), Ok(MAX_INSTS));
        assert!(len("a{9998}").is_err());
        assert!(len("x{4294967295}").is_err());
        assert!(len("x{0,4294967295}").is_err());
        assert!(len("(a{1000}){1000}").is_err());
        assert!(len("(?:x{65536}){65536}").is_err(), "the count saturates, never wraps");
        // A body that emits nothing costs nothing, however often repeated.
        assert_eq!(len("(?:){4294967295}"), Ok(3));
    }

    #[test]
    fn alternation_three_way() {
        let p = prog("a|b|c");
        let splits = p.insts.iter().filter(|i| matches!(i, Inst::Split(..))).count();
        assert_eq!(splits, 2);
    }
}
