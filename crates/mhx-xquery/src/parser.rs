//! Character-level recursive-descent parser for the extended XQuery.
//!
//! XQuery's direct element constructors mix markup with expressions, so the
//! parser works on characters (with a [`Cursor`]) rather than on a fixed
//! token stream. The expression grammar is the XQuery 1.0 core the paper
//! exercises: FLWOR (`for`/`let`/`where`/`order by`/`return`), quantified
//! expressions, `if/then/else`, general/value/node comparisons, ranges
//! (`1 to n`), arithmetic, unions, full path expressions with the extended
//! axes, and direct element constructors with enclosed expressions.
//!
//! Binary operators are parsed by one precedence-climbing loop over one
//! table (`OPERATORS`). The bindings of `for`, `let`, `some` and `every`
//! share one loop, and each binding is a [`Clause`] of its own; since
//! evaluation recurses once per clause, each clause after the first is
//! parsed one nesting level deeper (see [`MAX_DEPTH`]).

use crate::ast::{
    ArithOp, AttrPiece, Clause, Comp, Content, DirElem, OrderKeySpec, QExpr, QPathStart, QStep,
};
use crate::error::{Result, XQueryError};
use mhx_goddag::Axis;
use mhx_xml::cursor::Cursor;
use mhx_xml::escape::{unescape, EntityMap};
use mhx_xpath::parser::Nesting;
pub use mhx_xpath::parser::MAX_DEPTH;
use mhx_xpath::NodeTest;

/// Parse a complete query (expression; prologs are not supported). Its
/// syntax tree nests at most [`MAX_DEPTH`] levels, counted as XPath's are.
pub fn parse_query(src: &str) -> Result<QExpr> {
    let mut p = P { cur: Cursor::new(src), nesting: Nesting::default() };
    p.ws();
    let e = p.expr()?;
    p.ws();
    if !p.cur.is_eof() {
        return Err(p.err("trailing input after query"));
    }
    Ok(e)
}

struct P<'a> {
    cur: Cursor<'a>,
    nesting: Nesting,
}

impl<'a> P<'a> {
    fn err(&self, msg: impl Into<String>) -> XQueryError {
        XQueryError::at(msg, self.cur.offset())
    }

    fn too_deep(&self) -> XQueryError {
        self.err(format!("query nests deeper than {MAX_DEPTH} levels"))
    }

    fn grow(&mut self, height: usize) -> Result<usize> {
        self.nesting.grow(height).ok_or_else(|| self.too_deep())
    }

    fn enter(&mut self) -> Result<()> {
        self.nesting.enter().then_some(()).ok_or_else(|| self.too_deep())
    }

    fn ws(&mut self) {
        loop {
            self.cur.skip_ws();
            // XQuery comments: (: ... :), nestable.
            if self.cur.starts_with("(:") {
                let mut depth = 0;
                loop {
                    if self.cur.eat("(:") {
                        depth += 1;
                    } else if self.cur.eat(":)") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if self.cur.bump().is_none() {
                        break;
                    }
                }
            } else {
                break;
            }
        }
    }

    /// Peek: does an NCName start here?
    fn at_name(&self) -> bool {
        self.cur.peek().is_some_and(|c| c != ':' && mhx_xml::name::is_name_start(c))
    }

    fn name(&mut self) -> Result<String> {
        if !self.at_name() {
            return Err(self.err("expected a name"));
        }
        Ok(self.cur.take_while(|c| c != ':' && mhx_xml::name::is_name_char(c)).to_string())
    }

    /// Consume keyword `w` if present with a word boundary.
    fn kw(&mut self, w: &str) -> bool {
        if !self.cur.starts_with(w) {
            return false;
        }
        let after = self.cur.rest()[w.len()..].chars().next();
        if after.is_some_and(|c| c != ':' && mhx_xml::name::is_name_char(c)) {
            return false;
        }
        self.cur.eat(w);
        true
    }

    /// Peek keyword without consuming.
    fn peek_kw(&self, w: &str) -> bool {
        if !self.cur.starts_with(w) {
            return false;
        }
        let after = self.cur.rest()[w.len()..].chars().next();
        !after.is_some_and(|c| c != ':' && mhx_xml::name::is_name_char(c))
    }

    // ---------- expression grammar ----------

    /// `Expr := ExprSingle (',' ExprSingle)*`
    fn expr(&mut self) -> Result<QExpr> {
        let first = self.expr_single()?;
        self.ws();
        if !self.cur.starts_with(",") {
            return Ok(first);
        }
        let mut items = vec![first];
        while {
            self.ws();
            self.cur.eat(",")
        } {
            self.ws();
            items.push(self.expr_single()?);
            self.ws();
        }
        Ok(QExpr::Sequence(items))
    }

    fn expr_single(&mut self) -> Result<QExpr> {
        self.enter()?;
        self.ws();
        let e = if (self.peek_kw("for") || self.peek_kw("let")) && self.next_after_kw_is('$') {
            self.flwor()
        } else if (self.peek_kw("some") || self.peek_kw("every")) && self.next_after_kw_is('$') {
            self.quantified()
        } else if self.peek_kw("if") && self.next_after_kw_is('(') {
            self.if_expr()
        } else {
            self.binary(1)
        };
        self.nesting.leave();
        e
    }

    /// After a keyword at the cursor, is the next non-space char `want`?
    fn next_after_kw_is(&self, want: char) -> bool {
        let rest = self.cur.rest();
        let Some(end) = rest.find(|c: char| !(c != ':' && mhx_xml::name::is_name_char(c))) else {
            return false;
        };
        rest[end..].trim_start().starts_with(want)
    }

    /// Enter the level of the clause after `clauses`. Evaluation recurses
    /// once per FLWOR clause and quantifier binding, so each after the
    /// first is parsed one level deeper than the one before it; the body
    /// is parsed at the last clause's level, and then `leave_clauses`
    /// leaves them all.
    fn next_clause(&mut self, clauses: &[Clause]) -> Result<()> {
        if clauses.is_empty() {
            Ok(())
        } else {
            self.enter()
        }
    }

    fn leave_clauses(&mut self, clauses: &[Clause]) {
        for _ in 1..clauses.len() {
            self.nesting.leave();
        }
    }

    fn flwor(&mut self) -> Result<QExpr> {
        let mut clauses = Vec::new();
        loop {
            self.ws();
            let binding = ["for", "let"].into_iter().find(|k| self.peek_kw(k));
            if let Some(kw) = binding.filter(|_| self.next_after_kw_is('$')) {
                self.kw(kw);
                self.bindings(kw, &mut clauses)?;
            } else if self.kw("where") {
                self.ws();
                self.next_clause(&clauses)?;
                clauses.push(Clause::Where(self.expr_single()?));
            } else if self.peek_kw("stable") || (self.peek_kw("order") && self.order_by_ahead()) {
                self.kw("stable");
                self.ws();
                self.kw("order");
                self.ws();
                if !self.kw("by") {
                    return Err(self.err("expected `by` after `order`"));
                }
                self.next_clause(&clauses)?;
                let mut keys = Vec::new();
                loop {
                    self.ws();
                    let key = self.expr_single()?;
                    self.ws();
                    let descending = if self.kw("descending") {
                        true
                    } else {
                        self.kw("ascending");
                        false
                    };
                    keys.push(OrderKeySpec { key, descending });
                    self.ws();
                    if !self.cur.eat(",") {
                        break;
                    }
                }
                clauses.push(Clause::OrderBy { keys });
            } else {
                break;
            }
        }
        self.ws();
        if !self.kw("return") {
            return Err(self.err("expected `return` to finish the FLWOR expression"));
        }
        self.ws();
        let ret = self.expr_single()?;
        self.leave_clauses(&clauses);
        if !clauses.iter().any(|c| matches!(c, Clause::For { .. } | Clause::Let { .. })) {
            return Err(self.err("FLWOR needs at least one for/let clause"));
        }
        Ok(QExpr::Flwor { clauses, ret: Box::new(ret) })
    }

    /// The comma-separated bindings after `kw`, each a clause of its own:
    /// `$var := expr` after `let`, `$var at $pos in expr` after `for` (the
    /// `at` optional), and `$var in expr` after `some` or `every`.
    fn bindings(&mut self, kw: &str, clauses: &mut Vec<Clause>) -> Result<()> {
        loop {
            self.ws();
            self.next_clause(clauses)?;
            self.cur.expect("$").map_err(|_| self.err(format!("expected `$var` after {kw}")))?;
            let var = self.name()?;
            self.ws();
            if kw == "let" {
                if !self.cur.eat(":=") {
                    return Err(self.err("expected `:=` in let clause"));
                }
                self.ws();
                clauses.push(Clause::Let { var, expr: self.expr_single()? });
            } else {
                let at = if kw == "for" && self.kw("at") {
                    self.ws();
                    self.cur.expect("$").map_err(|_| self.err("expected `$var` after at"))?;
                    Some(self.name()?)
                } else {
                    None
                };
                self.ws();
                if !self.kw("in") {
                    return Err(self.err(format!("expected `in` after `${var}`")));
                }
                self.ws();
                clauses.push(Clause::For { var, at, seq: self.expr_single()? });
            }
            self.ws();
            if !(self.cur.starts_with(",") && self.comma_starts_binding()) {
                return Ok(());
            }
            self.cur.eat(",");
        }
    }

    /// After a `,` in a list of bindings, does a new `$var` binding
    /// follow?
    fn comma_starts_binding(&self) -> bool {
        self.cur.rest()[1..].trim_start().starts_with('$')
    }

    fn order_by_ahead(&self) -> bool {
        let rest = self.cur.rest();
        let Some(tail) = rest.strip_prefix("order") else { return false };
        tail.trim_start().starts_with("by")
    }

    fn quantified(&mut self) -> Result<QExpr> {
        let every = self.kw("every");
        if !every {
            self.kw("some");
        }
        let mut binds = Vec::new();
        self.bindings(if every { "every" } else { "some" }, &mut binds)?;
        self.ws();
        if !self.kw("satisfies") {
            return Err(self.err("expected `satisfies`"));
        }
        self.ws();
        let satisfies = Box::new(self.expr_single()?);
        self.leave_clauses(&binds);
        Ok(QExpr::Quantified { every, binds, satisfies })
    }

    fn if_expr(&mut self) -> Result<QExpr> {
        self.kw("if");
        self.ws();
        self.cur.expect("(").map_err(|_| self.err("expected `(` after if"))?;
        let cond = self.expr()?;
        self.ws();
        self.cur.expect(")").map_err(|_| self.err("expected `)` after if condition"))?;
        self.ws();
        if !self.kw("then") {
            return Err(self.err("expected `then`"));
        }
        self.ws();
        let then = self.expr_single()?;
        self.ws();
        if !self.kw("else") {
            return Err(self.err("expected `else`"));
        }
        self.ws();
        let els = self.expr_single()?;
        Ok(QExpr::If { cond: Box::new(cond), then: Box::new(then), els: Box::new(els) })
    }

    /// Precedence climbing over [`OPERATORS`]: an operand, then each
    /// operator at level `min` or above with its right operand, which holds
    /// only operators that bind tighter. After a comparison or a range only
    /// a looser operator may follow, so `1 = 2 = 3` is an error.
    fn binary(&mut self, min: u8) -> Result<QExpr> {
        let outer = self.nesting.mark();
        let mut lhs = self.unary_expr()?;
        let mut height = self.nesting.height_since(outer);
        let mut max = u8::MAX;
        loop {
            self.ws();
            let Some(&(spelling, op, level)) = OPERATORS.iter().find(|(spelling, ..)| {
                if spelling.starts_with(|c: char| c.is_ascii_alphabetic()) {
                    self.peek_kw(spelling)
                } else {
                    self.cur.starts_with(spelling)
                }
            }) else {
                return Ok(lhs);
            };
            if !(min..=max).contains(&level) {
                return Ok(lhs);
            }
            self.cur.eat(spelling);
            self.ws();
            let outer = self.nesting.mark();
            let rhs = self.binary(level + 1)?;
            let h = self.nesting.height_since(outer);
            height = self.grow(height.max(h) + 1)?;
            let (l, r) = (Box::new(lhs), Box::new(rhs));
            lhs = match op {
                Op::Or => QExpr::Or(l, r),
                Op::And => QExpr::And(l, r),
                Op::Compare(op) => QExpr::Compare { op, lhs: l, rhs: r },
                Op::Range => QExpr::Range { lo: l, hi: r },
                Op::Arith(op) => QExpr::Arith { op, lhs: l, rhs: r },
                Op::Union => QExpr::Union(l, r),
            };
            max = if matches!(op, Op::Compare(_) | Op::Range) { level - 1 } else { level };
        }
    }

    fn unary_expr(&mut self) -> Result<QExpr> {
        self.ws();
        if self.cur.eat("-") {
            self.ws();
            self.enter()?;
            let operand = self.unary_expr()?;
            self.nesting.leave();
            return Ok(QExpr::Neg(Box::new(operand)));
        }
        self.cur.eat("+"); // unary plus is a no-op
        self.path_expr()
    }

    fn path_expr(&mut self) -> Result<QExpr> {
        self.ws();
        if self.cur.starts_with("//") {
            self.cur.eat("//");
            let mut steps = vec![dos_step()];
            self.relative_path_into(&mut steps)?;
            return Ok(QExpr::Path { start: QPathStart::Root, steps });
        }
        if self.cur.starts_with("/") {
            self.cur.eat("/");
            self.ws();
            if self.at_step_start() {
                let mut steps = Vec::new();
                self.relative_path_into(&mut steps)?;
                return Ok(QExpr::Path { start: QPathStart::Root, steps });
            }
            return Ok(QExpr::Path { start: QPathStart::Root, steps: vec![] });
        }
        // Relative: first step-expr, then /-chain.
        let outer = self.nesting.mark();
        let first = self.step_expr()?;
        let height = self.nesting.height_since(outer);
        self.ws();
        if !self.cur.starts_with("/") || self.cur.starts_with("/>") {
            return Ok(first);
        }
        self.grow(height + 1)?;
        let start = QPathStart::Expr(Box::new(first));
        let mut steps = Vec::new();
        loop {
            self.ws();
            if self.cur.starts_with("//") {
                self.cur.eat("//");
                steps.push(dos_step());
                steps.push(self.axis_step()?);
            } else if self.cur.starts_with("/") && !self.cur.starts_with("/>") {
                self.cur.eat("/");
                steps.push(self.axis_step()?);
            } else {
                break;
            }
        }
        Ok(QExpr::Path { start, steps })
    }

    fn relative_path_into(&mut self, steps: &mut Vec<QStep>) -> Result<()> {
        steps.push(self.axis_step()?);
        loop {
            self.ws();
            if self.cur.starts_with("//") {
                self.cur.eat("//");
                steps.push(dos_step());
                steps.push(self.axis_step()?);
            } else if self.cur.starts_with("/") && !self.cur.starts_with("/>") {
                self.cur.eat("/");
                steps.push(self.axis_step()?);
            } else {
                return Ok(());
            }
        }
    }

    /// Is the next construct a location step (vs. a primary expression)?
    fn at_step_start(&self) -> bool {
        match self.cur.peek() {
            Some('.') | Some('@') | Some('*') => true,
            Some(c) if c != ':' && mhx_xml::name::is_name_start(c) => {
                // Look past the name: `::` → axis step; `(` → node test or
                // function; else name test.
                let rest = self.cur.rest();
                let end = rest
                    .find(|c: char| !(c != ':' && mhx_xml::name::is_name_char(c)))
                    .unwrap_or(rest.len());
                let name = &rest[..end];
                let tail = rest[end..].trim_start();
                if tail.starts_with("::") {
                    return true;
                }
                if tail.starts_with('(') {
                    return matches!(name, "text" | "node" | "leaf" | "comment");
                }
                // Keywords that can't be element names in practice would
                // still parse as name tests; grammar context prevents them
                // from reaching here in valid queries.
                true
            }
            _ => false,
        }
    }

    /// A single step in a path tail: always an axis step (primaries can
    /// only start a path).
    fn axis_step(&mut self) -> Result<QStep> {
        self.ws();
        if self.cur.eat("..") {
            return Ok(QStep::new(
                Axis::Parent,
                NodeTest::AnyNode { hierarchies: None },
                self.predicates()?,
            ));
        }
        if self.cur.eat(".") {
            return Ok(QStep::new(
                Axis::SelfAxis,
                NodeTest::AnyNode { hierarchies: None },
                self.predicates()?,
            ));
        }
        let (axis, explicit) = if self.cur.eat("@") {
            (Axis::Attribute, true)
        } else {
            // Try `name::`.
            let save = self.cur.clone();
            if self.at_name() {
                let n = self.name()?;
                if self.cur.eat("::") {
                    let axis = Axis::from_name(&n)
                        .ok_or_else(|| self.err(format!("unknown axis `{n}`")))?;
                    (axis, true)
                } else {
                    self.cur = save;
                    (Axis::Child, false)
                }
            } else {
                (Axis::Child, false)
            }
        };
        let test = self.node_test(explicit)?;
        let predicates = self.predicates()?;
        Ok(QStep::new(axis, test, predicates))
    }

    fn node_test(&mut self, allow_name_hierarchy: bool) -> Result<NodeTest> {
        self.ws();
        if self.cur.eat("*") {
            let hierarchies = self.opt_hierarchy_parens()?;
            return Ok(NodeTest::AnyElement { hierarchies });
        }
        if !self.at_name() {
            return Err(self.err("expected a node test"));
        }
        let name = self.name()?;
        match name.as_str() {
            "text" if self.cur.starts_with("(") => {
                let h = self.paren_hierarchies()?;
                Ok(NodeTest::Text { hierarchies: h })
            }
            "node" if self.cur.starts_with("(") => {
                let h = self.paren_hierarchies()?;
                Ok(NodeTest::AnyNode { hierarchies: h })
            }
            "leaf" if self.cur.starts_with("(") => {
                self.cur.expect("(").map_err(|_| self.err("expected ("))?;
                self.ws();
                self.cur.expect(")").map_err(|_| self.err("expected )"))?;
                Ok(NodeTest::Leaf)
            }
            "comment" if self.cur.starts_with("(") => {
                self.cur.expect("(").map_err(|_| self.err("expected ("))?;
                self.ws();
                self.cur.expect(")").map_err(|_| self.err("expected )"))?;
                Ok(NodeTest::Comment)
            }
            _ => {
                let hierarchies =
                    if allow_name_hierarchy { self.opt_hierarchy_parens()? } else { None };
                Ok(NodeTest::Name { name, hierarchies })
            }
        }
    }

    /// Optional `("h1,h2")` directly after a name or `*`.
    fn opt_hierarchy_parens(&mut self) -> Result<Option<Vec<String>>> {
        let save = self.cur.clone();
        if self.cur.eat("(") {
            self.ws();
            if let Some(q @ ('"' | '\'')) = self.cur.peek() {
                self.cur.bump();
                let s = self.cur.take_until(&q.to_string())?.to_string();
                self.cur.bump();
                self.ws();
                if self.cur.eat(")") {
                    return Ok(Some(split_hier(&s)));
                }
            }
            self.cur = save;
        }
        Ok(None)
    }

    /// `()` or `("h1,h2")` (parens required) after text/node.
    fn paren_hierarchies(&mut self) -> Result<Option<Vec<String>>> {
        self.cur.expect("(").map_err(|_| self.err("expected ("))?;
        self.ws();
        if let Some(q @ ('"' | '\'')) = self.cur.peek() {
            self.cur.bump();
            let s = self.cur.take_until(&q.to_string())?.to_string();
            self.cur.bump();
            self.ws();
            self.cur.expect(")").map_err(|_| self.err("expected )"))?;
            Ok(Some(split_hier(&s)))
        } else {
            self.cur.expect(")").map_err(|_| self.err("expected )"))?;
            Ok(None)
        }
    }

    fn predicates(&mut self) -> Result<Vec<QExpr>> {
        let mut out = Vec::new();
        loop {
            self.ws();
            if !self.cur.eat("[") {
                return Ok(out);
            }
            let e = self.expr()?;
            self.ws();
            self.cur.expect("]").map_err(|_| self.err("expected `]`"))?;
            out.push(e);
        }
    }

    /// Step-expression: either an axis step or a primary with postfix
    /// predicates.
    fn step_expr(&mut self) -> Result<QExpr> {
        self.ws();
        if self.at_step_start() {
            let step = self.axis_step()?;
            return Ok(QExpr::Path { start: QPathStart::Context, steps: vec![step] });
        }
        let outer = self.nesting.mark();
        let primary = self.primary_expr()?;
        let height = self.nesting.height_since(outer);
        let predicates = self.predicates()?;
        if predicates.is_empty() {
            Ok(primary)
        } else {
            self.grow(height + 1)?;
            Ok(QExpr::Filter { base: Box::new(primary), predicates })
        }
    }

    fn primary_expr(&mut self) -> Result<QExpr> {
        self.ws();
        match self.cur.peek() {
            Some('\'') | Some('"') => {
                let q = self.cur.bump().expect("peeked");
                let mut s = String::new();
                loop {
                    match self.cur.bump() {
                        None => return Err(self.err("unterminated string literal")),
                        Some(c) if c == q => {
                            // doubled quote = escaped quote
                            if self.cur.peek() == Some(q) {
                                self.cur.bump();
                                s.push(q);
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c),
                    }
                }
                Ok(QExpr::Literal(s))
            }
            Some('$') => {
                self.cur.bump();
                Ok(QExpr::Var(self.name()?))
            }
            Some('(') => {
                self.cur.bump();
                self.ws();
                if self.cur.eat(")") {
                    return Ok(QExpr::Sequence(vec![]));
                }
                let e = self.expr()?;
                self.ws();
                self.cur.expect(")").map_err(|_| self.err("expected `)`"))?;
                Ok(e)
            }
            Some('<') => self.nested_dir_elem().map(QExpr::DirElem),
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(c) if c != ':' && mhx_xml::name::is_name_start(c) => {
                let name = self.name()?;
                self.ws();
                if !self.cur.eat("(") {
                    return Err(self.err(format!("unexpected name `{name}` (not a function call)")));
                }
                let mut args = Vec::new();
                self.ws();
                if !self.cur.starts_with(")") {
                    loop {
                        args.push(self.expr_single()?);
                        self.ws();
                        if !self.cur.eat(",") {
                            break;
                        }
                        self.ws();
                    }
                }
                self.cur.expect(")").map_err(|_| self.err("expected `)` after arguments"))?;
                Ok(QExpr::Call { name, args })
            }
            Some(c) => Err(self.err(format!("unexpected character `{c}`"))),
            None => Err(self.err("unexpected end of query")),
        }
    }

    fn number(&mut self) -> Result<QExpr> {
        let s = self.cur.take_while(|c| c.is_ascii_digit() || c == '.');
        s.parse::<f64>().map(QExpr::Number).map_err(|_| self.err(format!("bad number `{s}`")))
    }

    // ---------- direct constructors ----------

    /// A direct constructor, one level deeper.
    fn nested_dir_elem(&mut self) -> Result<DirElem> {
        self.enter()?;
        let d = self.dir_elem();
        self.nesting.leave();
        d
    }

    fn dir_elem(&mut self) -> Result<DirElem> {
        self.cur.expect("<").map_err(|_| self.err("expected `<`"))?;
        let name = self.name()?;
        let mut attrs = Vec::new();
        loop {
            self.ws();
            if self.cur.eat("/>") {
                return Ok(DirElem { name, attrs, content: vec![] });
            }
            if self.cur.eat(">") {
                break;
            }
            let aname = self.name().map_err(|_| self.err("expected attribute name or `>`"))?;
            self.ws();
            self.cur.expect("=").map_err(|_| self.err("expected `=`"))?;
            self.ws();
            let pieces = self.attr_value()?;
            attrs.push((aname, pieces));
        }
        let content = self.elem_content(&name)?;
        Ok(DirElem { name, attrs, content })
    }

    fn attr_value(&mut self) -> Result<Vec<AttrPiece>> {
        let q = match self.cur.peek() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.cur.bump();
        let mut pieces = Vec::new();
        let mut text = String::new();
        loop {
            match self.cur.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(c) if c == q => {
                    self.cur.bump();
                    break;
                }
                Some('{') => {
                    self.cur.bump();
                    if self.cur.eat("{") {
                        text.push('{');
                        continue;
                    }
                    if !text.is_empty() {
                        pieces.push(AttrPiece::Text(std::mem::take(&mut text)));
                    }
                    let e = self.expr()?;
                    self.ws();
                    self.cur.expect("}").map_err(|_| self.err("expected `}`"))?;
                    pieces.push(AttrPiece::Expr(e));
                }
                Some('}') => {
                    self.cur.bump();
                    if self.cur.eat("}") {
                        text.push('}');
                    } else {
                        return Err(self.err("lone `}` in attribute value (use `}}`)"));
                    }
                }
                Some('&') => {
                    let chunk = self.entity_ref()?;
                    text.push_str(&chunk);
                }
                Some(c) => {
                    self.cur.bump();
                    text.push(c);
                }
            }
        }
        if !text.is_empty() {
            pieces.push(AttrPiece::Text(text));
        }
        Ok(pieces)
    }

    fn entity_ref(&mut self) -> Result<String> {
        // cursor at '&'
        let start = self.cur.offset();
        self.cur.bump();
        let body = self.cur.take_while(|c| c != ';' && !c.is_whitespace());
        if !self.cur.eat(";") {
            return Err(XQueryError::at("unterminated entity reference", start));
        }
        let raw = format!("&{body};");
        unescape(&raw, &EntityMap::new(), mhx_xml::Pos::start())
            .map(|c| c.into_owned())
            .map_err(|e| XQueryError::at(e.to_string(), start))
    }

    fn elem_content(&mut self, open_name: &str) -> Result<Vec<Content>> {
        let mut out = Vec::new();
        let mut text = String::new();
        loop {
            match self.cur.peek() {
                None => return Err(self.err(format!("element <{open_name}> never closed"))),
                Some('<') => {
                    if self.cur.starts_with("</") {
                        flush_text(&mut text, &mut out);
                        self.cur.eat("</");
                        let close = self.name()?;
                        self.ws();
                        self.cur.expect(">").map_err(|_| self.err("expected `>`"))?;
                        if close != open_name {
                            return Err(self
                                .err(format!("mismatched end tag </{close}> for <{open_name}>")));
                        }
                        return Ok(out);
                    }
                    if self.cur.starts_with("<!--") {
                        self.cur.eat("<!--");
                        self.cur.take_until("-->")?;
                        self.cur.eat("-->");
                        continue;
                    }
                    if self.cur.starts_with("<![CDATA[") {
                        self.cur.eat("<![CDATA[");
                        let body = self.cur.take_until("]]>")?.to_string();
                        self.cur.eat("]]>");
                        text.push_str(&body);
                        continue;
                    }
                    flush_text(&mut text, &mut out);
                    out.push(Content::Elem(self.nested_dir_elem()?));
                }
                Some('{') => {
                    self.cur.bump();
                    if self.cur.eat("{") {
                        text.push('{');
                        continue;
                    }
                    flush_text(&mut text, &mut out);
                    let e = self.expr()?;
                    self.ws();
                    self.cur.expect("}").map_err(|_| self.err("expected `}`"))?;
                    out.push(Content::Expr(e));
                }
                Some('}') => {
                    self.cur.bump();
                    if self.cur.eat("}") {
                        text.push('}');
                    } else {
                        return Err(self.err("lone `}` in element content (use `}}`)"));
                    }
                }
                Some('&') => {
                    let chunk = self.entity_ref()?;
                    text.push_str(&chunk);
                }
                Some(c) => {
                    self.cur.bump();
                    text.push(c);
                }
            }
        }
    }
}

/// Boundary-space strip (the XQuery default): drop whitespace-only text
/// chunks between constructor pieces.
fn flush_text(text: &mut String, out: &mut Vec<Content>) {
    if !text.is_empty() {
        if !text.chars().all(|c| c.is_whitespace()) {
            out.push(Content::Text(std::mem::take(text)));
        } else {
            text.clear();
        }
    }
}

/// A binary operator of [`OPERATORS`].
#[derive(Debug, Clone, Copy)]
enum Op {
    Or,
    And,
    Compare(Comp),
    Range,
    Arith(ArithOp),
    Union,
}

/// XQuery's binary operators and their levels: a higher level binds
/// tighter. Comparisons and `to` take one operator; the rest associate to
/// the left. A symbol is listed before its prefixes (`<=` before `<`), and
/// a word matches only as a whole word.
const OPERATORS: &[(&str, Op, u8)] = &[
    ("or", Op::Or, 1),
    ("and", Op::And, 2),
    ("!=", Op::Compare(Comp::Ne), 3),
    ("<<", Op::Compare(Comp::Before), 3),
    (">>", Op::Compare(Comp::After), 3),
    ("<=", Op::Compare(Comp::Le), 3),
    (">=", Op::Compare(Comp::Ge), 3),
    ("=", Op::Compare(Comp::Eq), 3),
    ("<", Op::Compare(Comp::Lt), 3),
    (">", Op::Compare(Comp::Gt), 3),
    ("eq", Op::Compare(Comp::VEq), 3),
    ("ne", Op::Compare(Comp::VNe), 3),
    ("lt", Op::Compare(Comp::VLt), 3),
    ("le", Op::Compare(Comp::VLe), 3),
    ("gt", Op::Compare(Comp::VGt), 3),
    ("ge", Op::Compare(Comp::VGe), 3),
    ("is", Op::Compare(Comp::Is), 3),
    ("to", Op::Range, 4),
    ("+", Op::Arith(ArithOp::Add), 5),
    ("-", Op::Arith(ArithOp::Sub), 5),
    ("*", Op::Arith(ArithOp::Mul), 6),
    ("idiv", Op::Arith(ArithOp::IDiv), 6),
    ("div", Op::Arith(ArithOp::Div), 6),
    ("mod", Op::Arith(ArithOp::Mod), 6),
    ("|", Op::Union, 7),
    ("union", Op::Union, 7),
];

fn dos_step() -> QStep {
    QStep::new(Axis::DescendantOrSelf, NodeTest::AnyNode { hierarchies: None }, vec![])
}

fn split_hier(s: &str) -> Vec<String> {
    s.split(',').map(|p| p.trim().to_string()).filter(|p| !p.is_empty()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> QExpr {
        parse_query(src).unwrap_or_else(|e| panic!("parse `{src}`: {e}"))
    }

    #[test]
    fn paper_query_i1_parses() {
        let q = ok("for $l in /descendant::line \
                    [xdescendant::w[string(.) = 'singallice'] or \
                    overlapping::w[string(.) = 'singallice']] return string($l)");
        let QExpr::Flwor { clauses, ret } = q else { panic!() };
        assert_eq!(clauses.len(), 1);
        assert!(matches!(&clauses[0], Clause::For { var, .. } if var == "l"));
        assert!(matches!(&*ret, QExpr::Call { name, .. } if name == "string"));
    }

    #[test]
    fn paper_query_i2_parses() {
        let q = ok("for $l in /descendant::line[xdescendant::w[xancestor::dmg or \
                    xdescendant::dmg or overlapping::dmg]]\n\
                    return ( for $leaf in $l/descendant::leaf() return\n\
                    if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b>\n\
                    else $leaf\n\
                    , <br/> )");
        let QExpr::Flwor { ret, .. } = q else { panic!() };
        let QExpr::Sequence(items) = &*ret else { panic!("{ret:?}") };
        assert_eq!(items.len(), 2);
        assert!(matches!(&items[0], QExpr::Flwor { .. }));
        assert!(matches!(&items[1], QExpr::DirElem(d) if d.name == "br"));
    }

    #[test]
    fn paper_query_ii1_parses() {
        let q = ok("for $w in /descendant::w[matches(string(.), '.*unawe.*')]\n\
                    return (\n\
                    let $res := analyze-string($w, '.*unawe.*')\n\
                    for $n in $res/child::node() return\n\
                    if ($n[self::m]) then <b>{string($n)}</b> else string($n)\n\
                    , <br/> )");
        assert!(q.uses_analyze_string());
    }

    #[test]
    fn flwor_with_multiple_bindings() {
        let q = ok("for $a in (1,2), $b in (3,4) let $c := $a + $b, $d := $c return $d");
        let QExpr::Flwor { clauses, .. } = q else { panic!() };
        assert_eq!(clauses.len(), 4);
    }

    #[test]
    fn flwor_where_order_by() {
        let q = ok("for $w in //w where string-length(string($w)) > 3 \
                    order by string($w) descending, 1 return $w");
        let QExpr::Flwor { clauses, .. } = q else { panic!() };
        assert!(matches!(clauses[1], Clause::Where(_)));
        let Clause::OrderBy { keys } = &clauses[2] else { panic!() };
        assert_eq!(keys.len(), 2);
        assert!(keys[0].descending);
        assert!(!keys[1].descending);
    }

    #[test]
    fn quantified_expressions() {
        let q = ok("some $x in (1,2,3) satisfies $x > 2");
        assert!(matches!(q, QExpr::Quantified { every: false, .. }));
        let q = ok("every $x in //w, $y in //line satisfies $x << $y");
        let QExpr::Quantified { every: true, binds, .. } = q else { panic!() };
        assert_eq!(binds.len(), 2);
    }

    #[test]
    fn if_then_else() {
        let q = ok("if ($x) then 'a' else 'b'");
        assert!(matches!(q, QExpr::If { .. }));
    }

    #[test]
    fn constructors_with_attrs_and_nesting() {
        let q = ok(r#"<div class="x {$c}" id='i'>pre <b>{$leaf}</b> post</div>"#);
        let QExpr::DirElem(d) = q else { panic!() };
        assert_eq!(d.name, "div");
        assert_eq!(d.attrs.len(), 2);
        assert_eq!(d.attrs[0].1.len(), 2); // "x " + {$c}
        assert_eq!(d.content.len(), 3); // "pre ", <b>, " post"
        assert!(matches!(&d.content[1], Content::Elem(b) if b.name == "b"));
    }

    #[test]
    fn constructor_escapes() {
        let q = ok("<a>x {{not-an-expr}} &amp; &#xFE;</a>");
        let QExpr::DirElem(d) = q else { panic!() };
        let Content::Text(t) = &d.content[0] else { panic!("{:?}", d.content) };
        assert_eq!(t, "x {not-an-expr} & þ");
    }

    #[test]
    fn boundary_space_stripped() {
        let q = ok("<a> <b/> </a>");
        let QExpr::DirElem(d) = q else { panic!() };
        assert_eq!(d.content.len(), 1);
    }

    #[test]
    fn cdata_kept_verbatim() {
        let q = ok("<a><![CDATA[<raw> & {stuff}]]></a>");
        let QExpr::DirElem(d) = q else { panic!() };
        let Content::Text(t) = &d.content[0] else { panic!() };
        assert_eq!(t, "<raw> & {stuff}");
    }

    #[test]
    fn node_comparisons_and_ranges() {
        assert!(matches!(ok("$a is $b"), QExpr::Compare { op: Comp::Is, .. }));
        assert!(matches!(ok("$a << $b"), QExpr::Compare { op: Comp::Before, .. }));
        assert!(matches!(ok("$a >> $b"), QExpr::Compare { op: Comp::After, .. }));
        assert!(matches!(ok("1 to 5"), QExpr::Range { .. }));
        assert!(matches!(ok("2 lt 3"), QExpr::Compare { op: Comp::VLt, .. }));
    }

    #[test]
    fn arithmetic_keywords() {
        assert!(matches!(ok("7 idiv 2"), QExpr::Arith { op: ArithOp::IDiv, .. }));
        assert!(matches!(ok("7 div 2"), QExpr::Arith { op: ArithOp::Div, .. }));
        assert!(matches!(ok("7 mod 2"), QExpr::Arith { op: ArithOp::Mod, .. }));
    }

    #[test]
    fn sequences_and_empty() {
        let q = ok("(1, 'two', <x/>)");
        let QExpr::Sequence(items) = q else { panic!() };
        assert_eq!(items.len(), 3);
        assert_eq!(ok("()"), QExpr::Sequence(vec![]));
    }

    #[test]
    fn paths_with_filters() {
        let q = ok("$res/child::m[1]/descendant::leaf()");
        let QExpr::Path { start: QPathStart::Expr(_), steps } = q else { panic!() };
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].predicates.len(), 1);
        let q = ok("(//w)[2]");
        assert!(matches!(q, QExpr::Filter { .. }));
    }

    #[test]
    fn comments_skipped() {
        let q = ok("(: find words (: nested :) :) //w");
        assert!(matches!(q, QExpr::Path { .. }));
    }

    #[test]
    fn doubled_quote_in_literal() {
        let q = ok("'it''s'");
        assert_eq!(q, QExpr::Literal("it's".into()));
    }

    #[test]
    fn errors() {
        assert!(parse_query("for $x in").is_err());
        assert!(parse_query("for $x in 1").is_err()); // missing return
        assert!(parse_query("if (1) then 2").is_err()); // missing else
        assert!(parse_query("<a>").is_err());
        assert!(parse_query("<a></b>").is_err());
        assert!(parse_query("'unterminated").is_err());
        assert!(parse_query("1 +").is_err());
        assert!(parse_query("some $x in 1").is_err()); // missing satisfies
        assert!(parse_query("<a>}</a>").is_err());
        assert!(parse_query("").is_err());
    }

    #[test]
    fn hierarchy_node_tests_in_xquery() {
        let q = ok("/descendant::text(\"words\")");
        let QExpr::Path { steps, .. } = q else { panic!() };
        assert_eq!(steps[0].test, NodeTest::Text { hierarchies: Some(vec!["words".into()]) });
    }

    #[test]
    fn slash_not_confused_with_self_closing_tag() {
        let q = ok("<x>{$a}</x>");
        assert!(matches!(q, QExpr::DirElem(_)));
        let q = ok("for $a in <d/> return $a");
        assert!(matches!(q, QExpr::Flwor { .. }));
    }
}
