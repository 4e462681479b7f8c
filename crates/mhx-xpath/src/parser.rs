//! Recursive-descent parser for the extended XPath.
//!
//! Grammar: XPath 1.0 with the paper's additions — seven extended axes and
//! hierarchy-parameterized node tests (`text("h")`, `node("h")`, `*("h")`,
//! and, as an extension, `name("h")` after an explicit axis). Binary
//! operators are parsed by one precedence-climbing loop over one table of
//! levels (`operator`), so a bracket costs the parser a few frames, not one
//! per precedence level.

use crate::ast::{BinOp, Expr, NodeTest, PathExpr, PathStart, Step};
use crate::error::{Result, XPathError};
use crate::lexer::{tokenize, SpannedTok, Tok};
use mhx_goddag::Axis;

/// The deepest syntax tree [`parse`] and the XQuery parser accept. Each
/// parser, and every later pass over its tree (lowering, the static check,
/// the optimizer, evaluation, explain), recurses once per level, so the
/// cap keeps a hostile query within a worker's stack. Evaluation also
/// recurses once per FLWOR clause and quantifier binding, and the XQuery
/// parser counts those as levels too.
pub const MAX_DEPTH: usize = 64;

/// How deep the syntax tree being parsed reaches, counted conservatively:
/// a bracket, a call's argument, a clause's expression, a unary operand
/// and a nested constructor each open a level, and so does every operator
/// of a chain such as `1 + 1 + 1`, whose tree deepens by one per operator.
/// Every FLWOR clause and quantifier binding after the first opens one
/// more, so clauses and brackets share one budget.
#[derive(Debug, Default)]
pub struct Nesting {
    /// Levels of the tree above the expression being parsed.
    depth: usize,
    /// The deepest level the tree reaches so far (see [`Nesting::mark`]).
    peak: usize,
}

impl Nesting {
    /// Record that the expression being built reaches `height` levels
    /// below the current depth: `None` if that is past [`MAX_DEPTH`].
    pub fn grow(&mut self, height: usize) -> Option<usize> {
        if self.depth + height > MAX_DEPTH {
            return None;
        }
        self.peak = self.peak.max(self.depth + height);
        Some(height)
    }

    /// Enter one level deeper, unless that is past [`MAX_DEPTH`]; every
    /// successful `enter` is paired with a [`Nesting::leave`].
    pub fn enter(&mut self) -> bool {
        if self.grow(1).is_none() {
            return false;
        }
        self.depth += 1;
        true
    }

    pub fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Start measuring the expression about to be parsed: how many levels
    /// below the current depth it reaches. The left operand of an operator
    /// ends up one level deeper than it was parsed at, once the operator
    /// is seen. Returns what [`Nesting::height_since`] needs.
    pub fn mark(&mut self) -> usize {
        std::mem::replace(&mut self.peak, self.depth)
    }

    /// The height of what was parsed since `mark` returned `outer`.
    pub fn height_since(&mut self, outer: usize) -> usize {
        let height = self.peak - self.depth;
        self.peak = self.peak.max(outer);
        height
    }
}

/// Parse a complete XPath expression.
pub fn parse(src: &str) -> Result<Expr> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, pos: 0, nesting: Nesting::default() };
    let e = p.expr()?;
    if p.pos < p.toks.len() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(e)
}

pub(crate) struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    nesting: Nesting,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}")))
        }
    }

    fn err(&self, msg: impl Into<String>) -> XPathError {
        let at = self.toks.get(self.pos).map(|t| t.at);
        XPathError { msg: msg.into(), at }
    }

    fn too_deep(&self) -> XPathError {
        self.err(format!("expression nests deeper than {MAX_DEPTH} levels"))
    }

    fn grow(&mut self, height: usize) -> Result<usize> {
        self.nesting.grow(height).ok_or_else(|| self.too_deep())
    }

    fn enter(&mut self) -> Result<()> {
        self.nesting.enter().then_some(()).ok_or_else(|| self.too_deep())
    }

    pub(crate) fn expr(&mut self) -> Result<Expr> {
        self.enter()?;
        let e = self.binary(1);
        self.nesting.leave();
        e
    }

    /// Precedence climbing over [`operator`]'s table: an operand, then
    /// each operator at level `min` or above with its right operand, which
    /// holds only operators that bind tighter.
    fn binary(&mut self, min: u8) -> Result<Expr> {
        let outer = self.nesting.mark();
        let mut lhs = self.unary(min)?;
        let mut height = self.nesting.height_since(outer);
        while let Some((op, level)) = self.peek().and_then(operator).filter(|&(_, l)| l >= min) {
            self.bump();
            let outer = self.nesting.mark();
            let rhs = self.binary(level + 1)?;
            let h = self.nesting.height_since(outer);
            height = self.grow(height.max(h) + 1)?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    /// An operand: `-` and a union expression, where `min` lets a unary
    /// minus stand (not as the right operand of `|`), or a path expression.
    fn unary(&mut self, min: u8) -> Result<Expr> {
        if min > UNION || !self.eat(&Tok::Minus) {
            return self.path_expr();
        }
        self.enter()?;
        let operand = self.binary(UNION)?;
        self.nesting.leave();
        Ok(Expr::Neg(Box::new(operand)))
    }

    /// PathExpr: location path, or filter expression with optional trailing
    /// steps.
    pub(crate) fn path_expr(&mut self) -> Result<Expr> {
        match self.peek() {
            Some(Tok::Slash) => {
                self.bump();
                // Bare `/` selects the root.
                if self.starts_step() {
                    let steps = self.relative_path()?;
                    Ok(Expr::Path(PathExpr { start: PathStart::Root, steps }))
                } else {
                    Ok(Expr::Path(PathExpr { start: PathStart::Root, steps: vec![] }))
                }
            }
            Some(Tok::DoubleSlash) => {
                self.bump();
                let mut steps = vec![descendant_or_self_node()];
                steps.extend(self.relative_path()?);
                Ok(Expr::Path(PathExpr { start: PathStart::Root, steps }))
            }
            _ if self.starts_step() => {
                let steps = self.relative_path()?;
                Ok(Expr::Path(PathExpr { start: PathStart::Context, steps }))
            }
            _ => {
                // Filter expression.
                let outer = self.nesting.mark();
                let primary = self.primary_expr()?;
                let height = self.nesting.height_since(outer);
                let mut predicates = Vec::new();
                while self.eat(&Tok::LBracket) {
                    predicates.push(self.expr()?);
                    self.expect(&Tok::RBracket)?;
                }
                let mut steps = Vec::new();
                if self.eat(&Tok::Slash) {
                    steps = self.relative_path()?;
                } else if self.eat(&Tok::DoubleSlash) {
                    steps.push(descendant_or_self_node());
                    steps.extend(self.relative_path()?);
                }
                if predicates.is_empty() && steps.is_empty() {
                    Ok(primary)
                } else {
                    self.grow(height + 1)?;
                    Ok(Expr::Path(PathExpr {
                        start: PathStart::Filter { expr: Box::new(primary), predicates },
                        steps,
                    }))
                }
            }
        }
    }

    /// Does the upcoming token start a location step?
    fn starts_step(&self) -> bool {
        match self.peek() {
            Some(Tok::Dot) | Some(Tok::DotDot) | Some(Tok::At) => true,
            Some(Tok::Star) => true,
            Some(Tok::Name(n)) => {
                // `name::` → axis; `name(` → node-test or function call:
                // node tests (text/node/leaf/comment) are steps, anything
                // else with `(` is a function call.
                match self.peek2() {
                    Some(Tok::ColonColon) => true,
                    Some(Tok::LParen) => {
                        matches!(n.as_str(), "text" | "node" | "leaf" | "comment")
                    }
                    _ => !matches!(n.as_str(), "div" | "mod" | "and" | "or"),
                }
            }
            _ => false,
        }
    }

    fn relative_path(&mut self) -> Result<Vec<Step>> {
        let mut steps = vec![self.step()?];
        loop {
            if self.eat(&Tok::Slash) {
                steps.push(self.step()?);
            } else if self.eat(&Tok::DoubleSlash) {
                steps.push(descendant_or_self_node());
                steps.push(self.step()?);
            } else {
                break;
            }
        }
        Ok(steps)
    }

    fn step(&mut self) -> Result<Step> {
        // Abbreviations.
        if self.eat(&Tok::Dot) {
            return Ok(Step {
                axis: Axis::SelfAxis,
                test: NodeTest::AnyNode { hierarchies: None },
                predicates: self.predicates()?,
            });
        }
        if self.eat(&Tok::DotDot) {
            return Ok(Step {
                axis: Axis::Parent,
                test: NodeTest::AnyNode { hierarchies: None },
                predicates: self.predicates()?,
            });
        }
        let axis = if self.eat(&Tok::At) {
            Axis::Attribute
        } else if let (Some(Tok::Name(n)), Some(Tok::ColonColon)) = (self.peek(), self.peek2()) {
            let axis = Axis::from_name(n).ok_or_else(|| self.err(format!("unknown axis `{n}`")))?;
            self.bump();
            self.bump();
            axis
        } else {
            Axis::Child
        };
        let test = self.node_test(axis != Axis::Child || self.explicit_axis_behind())?;
        let predicates = self.predicates()?;
        Ok(Step { axis, test, predicates })
    }

    /// True when the two tokens just consumed were `axis::` (needed to
    /// decide whether `name(` is a hierarchy-qualified name test).
    fn explicit_axis_behind(&self) -> bool {
        self.pos >= 1 && self.toks.get(self.pos - 1).map(|t| &t.tok) == Some(&Tok::ColonColon)
    }

    fn node_test(&mut self, allow_name_hierarchy: bool) -> Result<NodeTest> {
        match self.bump() {
            Some(Tok::Star) => {
                let hierarchies = self.opt_hierarchy_list()?;
                Ok(NodeTest::AnyElement { hierarchies })
            }
            Some(Tok::Name(n)) => match n.as_str() {
                "text" if self.peek() == Some(&Tok::LParen) => {
                    let h = self.required_paren_hierarchies()?;
                    Ok(NodeTest::Text { hierarchies: h })
                }
                "node" if self.peek() == Some(&Tok::LParen) => {
                    let h = self.required_paren_hierarchies()?;
                    Ok(NodeTest::AnyNode { hierarchies: h })
                }
                "leaf" if self.peek() == Some(&Tok::LParen) => {
                    self.expect(&Tok::LParen)?;
                    self.expect(&Tok::RParen)?;
                    Ok(NodeTest::Leaf)
                }
                "comment" if self.peek() == Some(&Tok::LParen) => {
                    self.expect(&Tok::LParen)?;
                    self.expect(&Tok::RParen)?;
                    Ok(NodeTest::Comment)
                }
                _ => {
                    let hierarchies =
                        if allow_name_hierarchy { self.opt_hierarchy_list()? } else { None };
                    Ok(NodeTest::Name { name: n, hierarchies })
                }
            },
            _ => Err(self.err("expected a node test")),
        }
    }

    /// `("h1,h2")` after `*` or a name (optional).
    fn opt_hierarchy_list(&mut self) -> Result<Option<Vec<String>>> {
        if self.peek() == Some(&Tok::LParen) {
            if let Some(Tok::Literal(_)) = self.peek2() {
                self.bump(); // (
                let Some(Tok::Literal(s)) = self.bump() else { unreachable!("peeked literal") };
                self.expect(&Tok::RParen)?;
                return Ok(Some(split_hierarchies(&s)));
            }
        }
        Ok(None)
    }

    /// `()` or `("h1,h2")` after `text`/`node` (parens required).
    fn required_paren_hierarchies(&mut self) -> Result<Option<Vec<String>>> {
        self.expect(&Tok::LParen)?;
        if let Some(Tok::Literal(s)) = self.peek().cloned() {
            self.bump();
            self.expect(&Tok::RParen)?;
            Ok(Some(split_hierarchies(&s)))
        } else {
            self.expect(&Tok::RParen)?;
            Ok(None)
        }
    }

    fn predicates(&mut self) -> Result<Vec<Expr>> {
        let mut out = Vec::new();
        while self.eat(&Tok::LBracket) {
            out.push(self.expr()?);
            self.expect(&Tok::RBracket)?;
        }
        Ok(out)
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        match self.bump() {
            Some(Tok::Literal(s)) => Ok(Expr::Literal(s)),
            Some(Tok::Number(n)) => Ok(Expr::Number(n)),
            Some(Tok::Var(v)) => Ok(Expr::Var(v)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Name(name)) if self.peek() == Some(&Tok::LParen) => {
                self.bump(); // (
                let mut args = Vec::new();
                if self.peek() != Some(&Tok::RParen) {
                    args.push(self.expr()?);
                    while self.eat(&Tok::Comma) {
                        args.push(self.expr()?);
                    }
                }
                self.expect(&Tok::RParen)?;
                Ok(Expr::Call { name, args })
            }
            Some(t) => Err(XPathError::new(format!("unexpected token {t:?}"))),
            None => Err(XPathError::new("unexpected end of expression")),
        }
    }
}

/// The level of `|`, the tightest binary operator; a unary minus binds
/// just looser.
const UNION: u8 = 7;

/// XPath's binary operators and their levels: a higher level binds
/// tighter, and every operator associates to the left. A word is an
/// operator only where one may stand, after an operand.
fn operator(tok: &Tok) -> Option<(BinOp, u8)> {
    Some(match tok {
        Tok::Name(n) if n == "or" => (BinOp::Or, 1),
        Tok::Name(n) if n == "and" => (BinOp::And, 2),
        Tok::Eq => (BinOp::Eq, 3),
        Tok::Ne => (BinOp::Ne, 3),
        Tok::Lt => (BinOp::Lt, 4),
        Tok::Le => (BinOp::Le, 4),
        Tok::Gt => (BinOp::Gt, 4),
        Tok::Ge => (BinOp::Ge, 4),
        Tok::Plus => (BinOp::Add, 5),
        Tok::Minus => (BinOp::Sub, 5),
        Tok::Star => (BinOp::Mul, 6),
        Tok::Name(n) if n == "div" => (BinOp::Div, 6),
        Tok::Name(n) if n == "mod" => (BinOp::Mod, 6),
        Tok::Pipe => (BinOp::Union, UNION),
        _ => return None,
    })
}

fn descendant_or_self_node() -> Step {
    Step {
        axis: Axis::DescendantOrSelf,
        test: NodeTest::AnyNode { hierarchies: None },
        predicates: vec![],
    }
}

fn split_hierarchies(s: &str) -> Vec<String> {
    s.split(',').map(|p| p.trim().to_string()).filter(|p| !p.is_empty()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Expr {
        parse(src).unwrap_or_else(|e| panic!("parse `{src}`: {e}"))
    }

    #[test]
    fn paper_query_i1_predicate_shape() {
        let e = ok("/descendant::line[xdescendant::w[string(.) = 'singallice'] or \
                    overlapping::w[string(.) = 'singallice']]");
        let Expr::Path(p) = e else { panic!("expected path") };
        assert!(matches!(p.start, PathStart::Root));
        assert_eq!(p.steps.len(), 1);
        let step = &p.steps[0];
        assert_eq!(step.axis, Axis::Descendant);
        assert_eq!(step.predicates.len(), 1);
        assert!(matches!(step.predicates[0], Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn extended_axes_parse() {
        for axis in [
            "xancestor",
            "xdescendant",
            "xfollowing",
            "xpreceding",
            "preceding-overlapping",
            "following-overlapping",
            "overlapping",
        ] {
            let e = ok(&format!("{axis}::dmg"));
            let Expr::Path(p) = e else { panic!() };
            assert_eq!(p.steps[0].axis.name(), axis);
        }
    }

    #[test]
    fn leaf_node_test() {
        let e = ok("$l/descendant::leaf()");
        let Expr::Path(p) = e else { panic!() };
        assert!(matches!(p.start, PathStart::Filter { .. }));
        assert_eq!(p.steps[0].test, NodeTest::Leaf);
    }

    #[test]
    fn hierarchy_parameterized_tests() {
        let e = ok("child::text(\"words,lines\")");
        let Expr::Path(p) = e else { panic!() };
        assert_eq!(
            p.steps[0].test,
            NodeTest::Text { hierarchies: Some(vec!["words".into(), "lines".into()]) }
        );
        let e = ok("xdescendant::*(\"damage\")");
        let Expr::Path(p) = e else { panic!() };
        assert_eq!(
            p.steps[0].test,
            NodeTest::AnyElement { hierarchies: Some(vec!["damage".into()]) }
        );
        let e = ok("xdescendant::w(\"words\")");
        let Expr::Path(p) = e else { panic!() };
        assert_eq!(
            p.steps[0].test,
            NodeTest::Name { name: "w".into(), hierarchies: Some(vec!["words".into()]) }
        );
    }

    #[test]
    fn function_call_vs_node_test() {
        // string(.) is a function call, text() is a node test.
        let e = ok("string(.)");
        assert!(matches!(e, Expr::Call { .. }));
        let e = ok("text()");
        assert!(matches!(e, Expr::Path(_)));
        let e = ok("count(/descendant::w)");
        let Expr::Call { name, args } = e else { panic!() };
        assert_eq!(name, "count");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn abbreviations() {
        let e = ok("../@part");
        let Expr::Path(p) = e else { panic!() };
        assert_eq!(p.steps[0].axis, Axis::Parent);
        assert_eq!(p.steps[1].axis, Axis::Attribute);
        assert_eq!(p.steps[1].test, NodeTest::Name { name: "part".into(), hierarchies: None });
        let e = ok("//w");
        let Expr::Path(p) = e else { panic!() };
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
    }

    #[test]
    fn operators_precedence() {
        let e = ok("1 + 2 * 3 = 7 and true()");
        let Expr::Binary { op: BinOp::And, lhs, .. } = e else { panic!("{e}") };
        let Expr::Binary { op: BinOp::Eq, lhs: add, .. } = *lhs else { panic!() };
        assert!(matches!(*add, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn union_of_paths() {
        let e = ok("child::a | child::b | child::c");
        assert!(matches!(e, Expr::Binary { op: BinOp::Union, .. }));
    }

    #[test]
    fn filter_with_predicate_and_steps() {
        let e = ok("$res[1]/child::node()");
        let Expr::Path(p) = e else { panic!() };
        let PathStart::Filter { predicates, .. } = &p.start else { panic!() };
        assert_eq!(predicates.len(), 1);
        assert_eq!(p.steps.len(), 1);
    }

    #[test]
    fn bare_slash_is_root() {
        let e = ok("/");
        let Expr::Path(p) = e else { panic!() };
        assert!(matches!(p.start, PathStart::Root));
        assert!(p.steps.is_empty());
    }

    #[test]
    fn parse_errors() {
        assert!(parse("/descendant::").is_err());
        assert!(parse("]").is_err());
        assert!(parse("child::w[").is_err());
        assert!(parse("1 +").is_err());
        assert!(parse("wat::w").is_err(), "unknown axis name");
        assert!(parse("a b").is_err());
    }

    #[test]
    fn display_roundtrip() {
        for src in [
            "/descendant::line[overlapping::w]",
            "child::w[position() = 1]/attribute::part",
            "$l/descendant::leaf()",
            "xancestor::dmg | xdescendant::dmg",
            "count(/descendant::w) + 1",
        ] {
            let e1 = ok(src);
            let e2 = ok(&e1.to_string());
            assert_eq!(e1, e2, "roundtrip {src}");
        }
    }
}
