//! XPath on the XQuery pipeline.
//!
//! XPath with the Definition 1 axes and Definition 2 node tests is the
//! path sub-language of the extended XQuery, so an XPath expression
//! compiles by lowering its AST ([`mhx_xpath::Expr`]) into a [`QExpr`] and
//! wrapping that in the same [`CompiledXQuery`] an XQuery text compiles
//! to: one optimizer, one evaluator, one set of counters and one
//! `--explain` printer serve both languages.
//!
//! XPath 1.0's conversions are written out as plain XQuery, so the
//! evaluator needs no XPath mode:
//!
//! * a node-set argument of a string or number function, or an operand of
//!   arithmetic, converts through its first node — `(X)[1]`, inside
//!   `number()` where a number is due (an empty node-set is `NaN`);
//! * a node-set compared with a boolean compares as `boolean(X)` (§3.4),
//!   and an ordering comparison of a boolean with a string or number
//!   compares numbers;
//! * `tokenize` joins its tokens with one space (XPath 1.0 has no
//!   sequences);
//! * zero-argument `leaves()` and `hierarchy()` read the context node, `(.)`;
//! * the document root is the top-level focus, at position 1 of size 1;
//! * only XPath's own function library is callable: any other name, a
//!   wrong argument count, or a statically non-node argument where a
//!   node-set is due (`count('a')`) is a compile-stage error.
//!
//! The naive interpreter in `mhx-xpath` stays the oracle: the differential
//! suites check this pipeline against it.

use crate::ast::{ArithOp, Comp, QExpr, QPathStart, QStep};
use crate::error::{Result, XQueryError, XQueryErrorKind};
use crate::opt::{static_type, Ty};
use crate::{CompiledXQuery, EvalOptions, Item};
use mhx_goddag::{Axis, Goddag, StructIndex};
use mhx_xpath::{BinOp, Expr, NodeTest, PathExpr, PathStart, Value, XPathError};

impl CompiledXQuery {
    /// Parse an XPath expression, lower it onto the XQuery AST, and
    /// optimize once.
    pub fn compile_xpath(src: &str) -> Result<CompiledXQuery> {
        let expr = mhx_xpath::parse(src)?;
        Ok(CompiledXQuery::build(src.to_string(), lower(&expr)?, true))
    }
}

/// Evaluate an XPath expression with the KyGODDAG root as context, through
/// the compiled, index-backed pipeline (building a throwaway
/// [`StructIndex`]). Callers issuing many queries against one document
/// should use the root crate's catalog, which caches both the index and
/// the compiled plans.
pub fn evaluate_xpath(g: &Goddag, src: &str) -> mhx_xpath::Result<Value> {
    let as_xpath = |e: XQueryError| XPathError { msg: e.msg, at: e.at };
    let plan = CompiledXQuery::compile_xpath(src).map_err(as_xpath)?;
    let idx = StructIndex::build(g);
    let (value, _) = plan
        .evaluate(g, Some(&idx), &EvalOptions::default(), |_, seq| xpath_value(&seq))
        .map_err(as_xpath)?;
    Ok(value)
}

/// The typed XPath value of a lowered expression's result: exactly one
/// atomic item, or a node-set (paths already yield document order without
/// duplicates).
pub fn xpath_value(seq: &[Item]) -> Value {
    match seq {
        [Item::Str(s)] => Value::Str(s.clone()),
        [Item::Num(n)] => Value::Num(*n),
        [Item::Bool(b)] => Value::Bool(*b),
        items => Value::Nodes(items.iter().filter_map(Item::as_goddag_node).collect()),
    }
}

/// What an XPath function parameter converts its argument to.
#[derive(Debug, Clone, Copy)]
enum Param {
    Str,
    Num,
    Bool,
    Nodes,
}

/// XPath's function library: arity range and parameter kinds (the last
/// kind repeats, for `concat`).
fn signature(name: &str) -> Option<(usize, usize, &'static [Param])> {
    use Param::*;
    Some(match name {
        "position" | "last" | "true" | "false" | "leaf-count" => (0, 0, &[]),
        "count" | "sum" => (1, 1, &[Nodes]),
        "name" | "local-name" | "leaves" | "hierarchy" => (0, 1, &[Nodes]),
        "string" | "string-length" | "normalize-space" => (0, 1, &[Str]),
        "number" => (0, 1, &[Num]),
        "concat" => (2, usize::MAX, &[Str]),
        "starts-with" | "ends-with" | "contains" | "substring-before" | "substring-after"
        | "matches" | "tokenize" => (2, 2, &[Str]),
        "translate" | "replace" => (3, 3, &[Str]),
        "substring" => (2, 3, &[Str, Num, Num]),
        "upper-case" | "lower-case" => (1, 1, &[Str]),
        "boolean" | "not" => (1, 1, &[Bool]),
        "floor" | "ceiling" | "round" => (1, 1, &[Num]),
        _ => return None,
    })
}

fn compile_error(msg: impl Into<String>) -> XQueryError {
    XQueryError::new(msg).with_kind(XQueryErrorKind::Compile)
}

/// Lower a parsed XPath expression into the XQuery AST.
pub(crate) fn lower(e: &Expr) -> Result<QExpr> {
    Ok(match e {
        Expr::Literal(s) => QExpr::Literal(s.clone()),
        Expr::Number(n) => QExpr::Number(*n),
        Expr::Var(v) => QExpr::Var(v.clone()),
        Expr::Neg(inner) => QExpr::Neg(Box::new(to_number(lower(inner)?))),
        Expr::Binary { op, lhs, rhs } => binary(*op, lower(lhs)?, lower(rhs)?),
        Expr::Call { name, args } => lower_call(name, args)?,
        Expr::Path(p) => path(p)?,
    })
}

fn lower_all(es: &[Expr]) -> Result<Vec<QExpr>> {
    es.iter().map(lower).collect()
}

fn binary(op: BinOp, l: QExpr, r: QExpr) -> QExpr {
    let arith = match op {
        BinOp::Or => return QExpr::Or(Box::new(l), Box::new(r)),
        BinOp::And => return QExpr::And(Box::new(l), Box::new(r)),
        BinOp::Union => return QExpr::Union(Box::new(l), Box::new(r)),
        BinOp::Eq => return compare(Comp::Eq, l, r),
        BinOp::Ne => return compare(Comp::Ne, l, r),
        BinOp::Lt => return compare(Comp::Lt, l, r),
        BinOp::Le => return compare(Comp::Le, l, r),
        BinOp::Gt => return compare(Comp::Gt, l, r),
        BinOp::Ge => return compare(Comp::Ge, l, r),
        BinOp::Add => ArithOp::Add,
        BinOp::Sub => ArithOp::Sub,
        BinOp::Mul => ArithOp::Mul,
        BinOp::Div => ArithOp::Div,
        BinOp::Mod => ArithOp::Mod,
    };
    QExpr::Arith { op: arith, lhs: Box::new(to_number(l)), rhs: Box::new(to_number(r)) }
}

/// XPath 1.0 §3.4 on top of XQuery's general comparison: against a
/// boolean, a node-set compares as `boolean(X)`, and an ordering
/// comparison converts a boolean facing a string or number to a number.
/// Every other pairing already compares alike in both languages.
fn compare(op: Comp, l: QExpr, r: QExpr) -> QExpr {
    let (lt, rt) = (static_type(&l), static_type(&r));
    let ordering = !matches!(op, Comp::Eq | Comp::Ne);
    let side = |e: QExpr, t: Ty, other: Ty| match (t, other) {
        (t, Ty::Bool) if maybe_nodes(t) => call("boolean", vec![e]),
        (Ty::Bool, other) if ordering && matches!(other, Ty::Str | Ty::Num) => {
            call("number", vec![e])
        }
        _ => e,
    };
    QExpr::Compare { op, lhs: Box::new(side(l, lt, rt)), rhs: Box::new(side(r, rt, lt)) }
}

fn lower_call(name: &str, args: &[Expr]) -> Result<QExpr> {
    let Some((lo, hi, params)) = signature(name) else {
        return Err(compile_error(format!("unknown function {name}()")));
    };
    if args.len() < lo || args.len() > hi {
        return Err(compile_error(if hi == usize::MAX {
            format!("{name}() needs at least {lo} arguments")
        } else {
            format!("{name}() expects {lo}..{hi} arguments, got {}", args.len())
        }));
    }
    let mut lowered = Vec::with_capacity(args.len());
    for (i, a) in args.iter().enumerate() {
        let e = lower(a)?;
        lowered.push(match params[i.min(params.len() - 1)] {
            Param::Str => to_string(e),
            Param::Num => to_number(e),
            Param::Bool => e,
            Param::Nodes if maybe_nodes(static_type(&e)) => e,
            Param::Nodes => return Err(compile_error(format!("{name}() requires a node-set"))),
        });
    }
    Ok(match name {
        "leaves" | "hierarchy" if lowered.is_empty() => call(name, vec![dot()]),
        "tokenize" => {
            call("string-join", vec![call(name, lowered), QExpr::Literal(" ".to_string())])
        }
        _ => call(name, lowered),
    })
}

fn path(p: &PathExpr) -> Result<QExpr> {
    let steps = p
        .steps
        .iter()
        .map(|s| Ok(QStep::new(s.axis, s.test.clone(), lower_all(&s.predicates)?)))
        .collect::<Result<Vec<_>>>()?;
    let start = match &p.start {
        PathStart::Root => QPathStart::Root,
        PathStart::Context => QPathStart::Context,
        PathStart::Filter { expr, predicates } => {
            let mut base = lower(expr)?;
            if steps.is_empty() && predicates.is_empty() {
                return Ok(base);
            }
            if !maybe_nodes(static_type(&base)) {
                return Err(compile_error("filter/path expression requires a node-set operand"));
            }
            if !predicates.is_empty() {
                base = QExpr::Filter { base: Box::new(base), predicates: lower_all(predicates)? };
            }
            if steps.is_empty() {
                return Ok(base);
            }
            QPathStart::Expr(Box::new(base))
        }
    };
    Ok(QExpr::Path { start, steps })
}

fn call(name: &str, args: Vec<QExpr>) -> QExpr {
    QExpr::Call { name: name.to_string(), args }
}

/// `.` — the context node, as both parsers write it.
fn dot() -> QExpr {
    QExpr::Path {
        start: QPathStart::Context,
        steps: vec![QStep::new(Axis::SelfAxis, NodeTest::AnyNode { hierarchies: None }, vec![])],
    }
}

/// Could the expression yield a node-set? (Unknown types — variables —
/// get the node-set treatment, which is harmless on atomic values.)
fn maybe_nodes(t: Ty) -> bool {
    matches!(t, Ty::Nodes | Ty::Unknown)
}

/// Exactly one node on every document: `/` and `.`.
fn is_one_node(e: &QExpr) -> bool {
    match e {
        QExpr::Path { start: QPathStart::Root, steps } => steps.is_empty(),
        QExpr::Path { start: QPathStart::Context, .. } => *e == dot(),
        _ => false,
    }
}

/// XPath's `string()` conversion of an argument: a node-set converts
/// through its first node (the XQuery function maps an empty sequence to
/// `""`).
fn to_string(e: QExpr) -> QExpr {
    if maybe_nodes(static_type(&e)) && !is_one_node(&e) {
        QExpr::Filter { base: Box::new(e), predicates: vec![QExpr::Number(1.0)] }
    } else {
        e
    }
}

/// XPath's `number()` conversion of an operand: a node-set converts
/// through its first node, and an empty one to `NaN`. Strings and booleans
/// already convert inside every XQuery numeric operation.
fn to_number(e: QExpr) -> QExpr {
    if maybe_nodes(static_type(&e)) && !is_one_node(&e) {
        call("number", vec![to_string(e)])
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_tests::figure1;
    use mhx_goddag::{GoddagBuilder, NodeId};
    use mhx_xpath::evaluate_xpath_naive;

    #[test]
    fn compiled_equals_naive_on_paper_queries() {
        let g = figure1();
        for src in [
            "/descendant::line[xdescendant::w[string(.) = 'singallice'] or \
             overlapping::w[string(.) = 'singallice']]",
            "/descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or \
             overlapping::dmg]]",
            "/descendant::line[1]/descendant::leaf()",
            "/descendant::leaf()[ancestor::w and ancestor::dmg]",
            "/descendant::w[last()]/preceding::w[1]",
            "/descendant::w[position() = 2]",
            "/descendant::node(\"damage\")",
            "/descendant::*(\"words\")",
            "/descendant::line | /descendant::w[1]",
            "//vline//w",
            "(/descendant::w)[3]",
            "count(/descendant::leaf())",
            "/descendant::w[1]/../.",
            "/descendant-or-self::r",
            "string-length(string(/descendant::w[3]))",
        ] {
            let naive = evaluate_xpath_naive(&g, src).unwrap();
            assert_eq!(evaluate_xpath(&g, src).unwrap(), naive, "compiled vs naive on `{src}`");
        }
    }

    #[test]
    fn one_compiled_plan_serves_many_documents() {
        let plan = CompiledXQuery::compile_xpath("/descendant::w").unwrap();
        let count = |g: &Goddag| {
            let idx = StructIndex::build(g);
            let opts = EvalOptions::default();
            let (v, _) = plan.evaluate(g, Some(&idx), &opts, |_, seq| xpath_value(&seq)).unwrap();
            v.as_nodes().map(<[NodeId]>::len)
        };
        assert_eq!(count(&figure1()), Some(6));
        let g2 = GoddagBuilder::new().hierarchy("a", "<r><w>x</w></r>").build().unwrap();
        assert_eq!(count(&g2), Some(1));
    }

    #[test]
    fn static_errors_are_compile_stage() {
        for src in ["exists(/descendant::w)", "count('a')", "sum(1)", "substring('a')", "(1)[1]"] {
            let e = CompiledXQuery::compile_xpath(src).unwrap_err();
            assert_eq!(e.kind, XQueryErrorKind::Compile, "`{src}`: {e}");
        }
        let parse = CompiledXQuery::compile_xpath("/descendant::").unwrap_err();
        assert_eq!(parse.kind, XQueryErrorKind::Parse);
        // An unbound variable is a runtime error: XPath has no static
        // variable check.
        let g = figure1();
        let plan = CompiledXQuery::compile_xpath("$v").unwrap();
        let err = plan.run_with_index(&g, None, &EvalOptions::default()).unwrap_err();
        assert_eq!(err.kind, XQueryErrorKind::Eval);
    }
}
