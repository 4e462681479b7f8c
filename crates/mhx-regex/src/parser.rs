//! Recursive-descent regex parser.
//!
//! Grammar (precedence low → high):
//! ```text
//! alternation := concat ('|' concat)*
//! concat      := repeat*
//! repeat      := atom ('*'|'+'|'?'|'{m}'|'{m,}'|'{m,n}') '?'?
//! atom        := literal | '.' | class | '(' alternation ')'
//!              | '(?:' alternation ')' | '^' | '$' | escape
//! ```

use crate::ast::{Ast, ClassSet};
use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    pub msg: String,
    /// Byte offset in the pattern.
    pub at: usize,
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for RegexError {}

/// The deepest nesting of groups [`parse`] accepts. The parser, the
/// compiler and `Drop` of the syntax tree recurse once per level, and so
/// does `analyze-string`'s walk over an XML-fragment pattern, whose tags
/// become groups; the cap keeps a hostile pattern within a worker's stack.
pub const MAX_DEPTH: usize = 128;

pub struct Parsed {
    pub ast: Ast,
    /// Number of capturing groups (not counting group 0).
    pub group_count: u32,
}

pub fn parse(pattern: &str) -> Result<Parsed, RegexError> {
    let mut p = Parser { chars: pattern.char_indices().collect(), pos: 0, next_group: 1, depth: 0 };
    let ast = p.alternation()?;
    if p.pos < p.chars.len() {
        return Err(p.err("unexpected `)`"));
    }
    Ok(Parsed { ast, group_count: p.next_group - 1 })
}

struct Parser {
    chars: Vec<(usize, char)>,
    pos: usize,
    next_group: u32,
    /// Groups open at `pos`.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn offset(&self) -> usize {
        self.chars
            .get(self.pos)
            .map(|&(i, _)| i)
            .unwrap_or_else(|| self.chars.last().map(|&(i, c)| i + c.len_utf8()).unwrap_or(0))
    }

    fn err(&self, msg: &str) -> RegexError {
        RegexError { msg: msg.to_string(), at: self.offset() }
    }

    fn alternation(&mut self) -> Result<Ast, RegexError> {
        let mut parts = vec![self.concat()?];
        while self.eat('|') {
            parts.push(self.concat()?);
        }
        Ok(if parts.len() == 1 { parts.pop().unwrap() } else { Ast::Alternate(parts) })
    }

    fn concat(&mut self) -> Result<Ast, RegexError> {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.repeat()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().unwrap(),
            _ => Ast::Concat(parts),
        })
    }

    fn repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.atom()?;
        let (min, max) = match self.peek() {
            Some('*') => {
                self.bump();
                (0, None)
            }
            Some('+') => {
                self.bump();
                (1, None)
            }
            Some('?') => {
                self.bump();
                (0, Some(1))
            }
            Some('{') => {
                // `{` not followed by a digit is a literal brace.
                let save = self.pos;
                self.bump();
                match self.counted() {
                    Some(mm) => mm,
                    None => {
                        self.pos = save;
                        return Ok(atom);
                    }
                }
            }
            _ => return Ok(atom),
        };
        if matches!(atom, Ast::StartAnchor | Ast::EndAnchor | Ast::Empty) {
            return Err(self.err("repetition operator on empty pattern or anchor"));
        }
        if let Some(mx) = max {
            if min > mx {
                return Err(self.err("repetition range {m,n} with m > n"));
            }
        }
        let greedy = !self.eat('?');
        Ok(Ast::Repeat { ast: Box::new(atom), min, max, greedy })
    }

    /// Parse `m}`, `m,}` or `m,n}` after `{`. Returns `None` (caller rewinds)
    /// if it isn't a counted repetition.
    fn counted(&mut self) -> Option<(u32, Option<u32>)> {
        let mut m = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                m.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if m.is_empty() {
            return None;
        }
        let m: u32 = m.parse().ok()?;
        if self.eat('}') {
            return Some((m, Some(m)));
        }
        if !self.eat(',') {
            return None;
        }
        let mut n = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                n.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if !self.eat('}') {
            return None;
        }
        if n.is_empty() {
            Some((m, None))
        } else {
            Some((m, Some(n.parse().ok()?)))
        }
    }

    fn atom(&mut self) -> Result<Ast, RegexError> {
        match self.peek() {
            None => Ok(Ast::Empty),
            Some('(') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("groups nested deeper than {MAX_DEPTH} levels")));
                }
                self.bump();
                let index = if self.peek() == Some('?') {
                    // only (?: ... ) is supported
                    self.bump();
                    if !self.eat(':') {
                        return Err(self.err("only (?:...) groups are supported after `(?`"));
                    }
                    None
                } else {
                    let i = self.next_group;
                    self.next_group += 1;
                    Some(i)
                };
                self.depth += 1;
                let inner = self.alternation()?;
                self.depth -= 1;
                if !self.eat(')') {
                    return Err(self.err("missing `)`"));
                }
                Ok(Ast::Group { ast: Box::new(inner), index })
            }
            Some('[') => {
                self.bump();
                self.class()
            }
            Some('.') => {
                self.bump();
                Ok(Ast::AnyChar)
            }
            Some('^') => {
                self.bump();
                Ok(Ast::StartAnchor)
            }
            Some('$') => {
                self.bump();
                Ok(Ast::EndAnchor)
            }
            Some('\\') => {
                self.bump();
                self.escape()
            }
            Some(c @ ('*' | '+' | '?')) => {
                Err(self.err(&format!("dangling repetition operator `{c}`")))
            }
            Some(c) => {
                self.bump();
                Ok(Ast::Literal(c))
            }
        }
    }

    fn escape(&mut self) -> Result<Ast, RegexError> {
        let c = self.bump().ok_or_else(|| self.err("pattern ends with `\\`"))?;
        Ok(match c {
            'd' => Ast::Class(ClassSet::digit()),
            'D' => Ast::Class(ClassSet::digit().negate()),
            'w' => Ast::Class(ClassSet::word()),
            'W' => Ast::Class(ClassSet::word().negate()),
            's' => Ast::Class(ClassSet::space()),
            'S' => Ast::Class(ClassSet::space().negate()),
            'n' => Ast::Literal('\n'),
            't' => Ast::Literal('\t'),
            'r' => Ast::Literal('\r'),
            c if c.is_ascii_alphanumeric() => {
                return Err(self.err(&format!("unknown escape `\\{c}`")));
            }
            c => Ast::Literal(c),
        })
    }

    /// Body of `[...]` (the `[` is consumed).
    fn class(&mut self) -> Result<Ast, RegexError> {
        let negated = self.eat('^');
        let mut ranges: Vec<(char, char)> = Vec::new();
        let mut first = true;
        loop {
            let c = match self.peek() {
                None => return Err(self.err("missing `]`")),
                Some(']') if !first => {
                    self.bump();
                    break;
                }
                Some(c) => c,
            };
            first = false;
            self.bump();
            let lo = if c == '\\' {
                match self.escape()? {
                    Ast::Literal(l) => l,
                    Ast::Class(cs) => {
                        // \d etc. inside a class: merge its ranges.
                        if cs.negated {
                            return Err(self.err("negated class escape inside [...]"));
                        }
                        ranges.extend(cs.ranges);
                        continue;
                    }
                    _ => return Err(self.err("bad escape in class")),
                }
            } else {
                c
            };
            if self.peek() == Some('-')
                && self.chars.get(self.pos + 1).map(|&(_, c)| c) != Some(']')
            {
                self.bump(); // '-'
                let hi_c = self.bump().ok_or_else(|| self.err("missing `]`"))?;
                let hi = if hi_c == '\\' {
                    match self.escape()? {
                        Ast::Literal(l) => l,
                        _ => return Err(self.err("bad range endpoint")),
                    }
                } else {
                    hi_c
                };
                if hi < lo {
                    return Err(self.err("invalid range (hi < lo)"));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        Ok(Ast::Class(ClassSet { negated, ranges }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(p: &str) -> Ast {
        parse(p).unwrap().ast
    }

    #[test]
    fn literals_and_concat() {
        assert_eq!(ok("ab"), Ast::Concat(vec![Ast::Literal('a'), Ast::Literal('b')]));
        assert_eq!(ok("a"), Ast::Literal('a'));
        assert_eq!(ok(""), Ast::Empty);
    }

    #[test]
    fn alternation_priority() {
        assert_eq!(
            ok("a|bc"),
            Ast::Alternate(vec![
                Ast::Literal('a'),
                Ast::Concat(vec![Ast::Literal('b'), Ast::Literal('c')]),
            ])
        );
    }

    #[test]
    fn repeats() {
        assert_eq!(
            ok("a*"),
            Ast::Repeat { ast: Box::new(Ast::Literal('a')), min: 0, max: None, greedy: true }
        );
        assert_eq!(
            ok("a+?"),
            Ast::Repeat { ast: Box::new(Ast::Literal('a')), min: 1, max: None, greedy: false }
        );
        assert_eq!(
            ok("a{2,5}"),
            Ast::Repeat { ast: Box::new(Ast::Literal('a')), min: 2, max: Some(5), greedy: true }
        );
        assert_eq!(
            ok("a{3}"),
            Ast::Repeat { ast: Box::new(Ast::Literal('a')), min: 3, max: Some(3), greedy: true }
        );
        assert_eq!(
            ok("a{2,}"),
            Ast::Repeat { ast: Box::new(Ast::Literal('a')), min: 2, max: None, greedy: true }
        );
    }

    #[test]
    fn literal_brace_when_not_counted() {
        assert_eq!(ok("a{b"), Ast::Concat(vec![ok("a"), ok("\\{"), ok("b")]));
        assert_eq!(ok("{2"), Ast::Concat(vec![Ast::Literal('{'), Ast::Literal('2')]));
    }

    #[test]
    fn groups_numbered_in_parse_order() {
        let p = parse("(a)(?:b)((c))").unwrap();
        assert_eq!(p.group_count, 3);
        match p.ast {
            Ast::Concat(parts) => {
                assert!(matches!(&parts[0], Ast::Group { index: Some(1), .. }));
                assert!(matches!(&parts[1], Ast::Group { index: None, .. }));
                match &parts[2] {
                    Ast::Group { index: Some(2), ast } => {
                        assert!(matches!(&**ast, Ast::Group { index: Some(3), .. }));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn classes() {
        assert_eq!(
            ok("[a-z0]"),
            Ast::Class(ClassSet { negated: false, ranges: vec![('a', 'z'), ('0', '0')] })
        );
        assert_eq!(
            ok("[^ab]"),
            Ast::Class(ClassSet { negated: true, ranges: vec![('a', 'a'), ('b', 'b')] })
        );
        // ']' first is literal
        assert_eq!(
            ok("[]a]"),
            Ast::Class(ClassSet { negated: false, ranges: vec![(']', ']'), ('a', 'a')] })
        );
        // trailing '-' is literal
        assert_eq!(
            ok("[a-]"),
            Ast::Class(ClassSet { negated: false, ranges: vec![('a', 'a'), ('-', '-')] })
        );
    }

    #[test]
    fn class_with_escapes() {
        assert_eq!(
            ok(r"[\d\-]"),
            Ast::Class(ClassSet { negated: false, ranges: vec![('0', '9'), ('-', '-')] })
        );
    }

    #[test]
    fn perl_classes_and_escapes() {
        assert_eq!(ok(r"\d"), Ast::Class(ClassSet::digit()));
        assert_eq!(ok(r"\."), Ast::Literal('.'));
        assert_eq!(ok(r"\n"), Ast::Literal('\n'));
        assert_eq!(ok(r"\\"), Ast::Literal('\\'));
    }

    #[test]
    fn anchors() {
        assert_eq!(
            ok("^a$"),
            Ast::Concat(vec![Ast::StartAnchor, Ast::Literal('a'), Ast::EndAnchor])
        );
    }

    #[test]
    fn errors() {
        assert!(parse("(a").is_err());
        assert!(parse("a)").is_err());
        assert!(parse("*a").is_err());
        assert!(parse("[a").is_err());
        assert!(parse(r"\q").is_err());
        assert!(parse("a{3,1}").is_err());
        assert!(parse("(?=a)").is_err());
        assert!(parse("[z-a]").is_err());
        assert!(parse("\\").is_err());
    }

    #[test]
    fn paper_patterns_parse() {
        // The patterns used in the paper's §4 queries (after tag→group
        // conversion).
        assert!(parse(".*unawe.*").is_ok());
        assert!(parse(".*un(a)we.*").is_ok());
        assert!(parse("unawe").is_ok());
    }

    #[test]
    fn display_roundtrip_reparses() {
        for p in ["a(b|c)*d", "[a-z]+", "x{2,3}?", r"\d\w\s", "^ab$", "(?:ab)+"] {
            let a1 = ok(p);
            let a2 = ok(&a1.to_string());
            assert_eq!(a1, a2, "pattern {p}");
        }
    }
}
