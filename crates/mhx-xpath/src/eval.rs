//! XPath evaluation over a KyGODDAG: the naive reference interpreter.

use crate::ast::{BinOp, Expr, NodeTest, PathExpr, PathStart, Step};
use crate::error::{Result, XPathError};
use crate::value::{compare, Value};
use mhx_goddag::{axis_nodes, Axis, Goddag, NodeId};
use std::collections::BTreeMap;

/// Dynamic evaluation context.
#[derive(Debug, Clone)]
pub struct Context {
    pub node: NodeId,
    pub position: usize,
    pub size: usize,
    pub variables: BTreeMap<String, Value>,
}

impl Context {
    pub fn new(node: NodeId) -> Context {
        Context { node, position: 1, size: 1, variables: BTreeMap::new() }
    }

    pub fn with_var(mut self, name: impl Into<String>, v: Value) -> Context {
        self.variables.insert(name.into(), v);
        self
    }
}

/// Evaluate an XPath expression string with the KyGODDAG root as context,
/// through the naive interpreter (`all_nodes()` scans) — the reference
/// oracle for differential tests. The index-backed compiled pipeline is
/// `mhx_xquery::evaluate_xpath`.
pub fn evaluate_xpath_naive(g: &Goddag, src: &str) -> Result<Value> {
    let expr = crate::parser::parse(src)?;
    evaluate_expr(g, &expr, &Context::new(NodeId::Root))
}

/// Evaluate a parsed expression in a context.
pub fn evaluate_expr(g: &Goddag, expr: &Expr, ctx: &Context) -> Result<Value> {
    match expr {
        Expr::Literal(s) => Ok(Value::Str(s.clone())),
        Expr::Number(n) => Ok(Value::Num(*n)),
        Expr::Var(v) => ctx
            .variables
            .get(v)
            .cloned()
            .ok_or_else(|| XPathError::new(format!("unbound variable ${v}"))),
        Expr::Neg(e) => Ok(Value::Num(-evaluate_expr(g, e, ctx)?.to_num(g))),
        Expr::Binary { op, lhs, rhs } => eval_binary(g, *op, lhs, rhs, ctx),
        Expr::Call { name, args } => crate::functions::call(g, name, args, ctx),
        Expr::Path(p) => eval_path(g, p, ctx),
    }
}

fn eval_binary(g: &Goddag, op: BinOp, lhs: &Expr, rhs: &Expr, ctx: &Context) -> Result<Value> {
    match op {
        BinOp::Or => {
            if evaluate_expr(g, lhs, ctx)?.to_bool() {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(evaluate_expr(g, rhs, ctx)?.to_bool()))
        }
        BinOp::And => {
            if !evaluate_expr(g, lhs, ctx)?.to_bool() {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(evaluate_expr(g, rhs, ctx)?.to_bool()))
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let a = evaluate_expr(g, lhs, ctx)?;
            let b = evaluate_expr(g, rhs, ctx)?;
            Ok(Value::Bool(compare(g, op, &a, &b)))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let a = evaluate_expr(g, lhs, ctx)?.to_num(g);
            let b = evaluate_expr(g, rhs, ctx)?.to_num(g);
            Ok(Value::Num(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Mod => a % b,
                _ => unreachable!("arithmetic ops"),
            }))
        }
        BinOp::Union => {
            let a = evaluate_expr(g, lhs, ctx)?;
            let b = evaluate_expr(g, rhs, ctx)?;
            match (a, b) {
                (Value::Nodes(mut xs), Value::Nodes(ys)) => {
                    xs.extend(ys);
                    Ok(Value::nodes(xs, g))
                }
                _ => Err(XPathError::new("`|` requires node-sets on both sides")),
            }
        }
    }
}

fn eval_path(g: &Goddag, p: &PathExpr, ctx: &Context) -> Result<Value> {
    let mut current: Vec<NodeId> = match &p.start {
        PathStart::Root => vec![NodeId::Root],
        PathStart::Context => vec![ctx.node],
        PathStart::Filter { expr, predicates } => {
            let v = evaluate_expr(g, expr, ctx)?;
            if p.steps.is_empty() && predicates.is_empty() {
                return Ok(v);
            }
            let Value::Nodes(ns) = v else {
                return Err(XPathError::new("filter/path expression requires a node-set operand"));
            };
            let mut ns = ns;
            for pred in predicates {
                ns = apply_predicate(g, &ns, pred, ctx, false)?;
            }
            ns
        }
    };
    for step in &p.steps {
        current = eval_step(g, &current, step, ctx)?;
    }
    Ok(Value::nodes(current, g))
}

fn eval_step(g: &Goddag, input: &[NodeId], step: &Step, outer: &Context) -> Result<Vec<NodeId>> {
    let mut out: Vec<NodeId> = Vec::new();
    for &n in input {
        let mut candidates = walk_step(g, step.axis, &step.test, n);
        for pred in &step.predicates {
            candidates = apply_predicate(g, &candidates, pred, outer, step.axis.is_reverse())?;
        }
        out.extend(candidates);
    }
    g.sort_nodes(&mut out);
    out.dedup();
    Ok(out)
}

/// One step from context node `n` by the plain axis walk, node test
/// applied, in Definition-3 order: the naive interpreter's step, and the
/// oracle the compiled pipeline's step resolution is tested against.
pub fn walk_step(g: &Goddag, axis: Axis, test: &NodeTest, n: NodeId) -> Vec<NodeId> {
    axis_nodes(g, axis, n).into_iter().filter(|&m| node_test_matches(g, axis, m, test)).collect()
}

/// Apply one predicate to a candidate list. `reverse` flips `position()`
/// numbering (XPath reverse-axis rule).
fn apply_predicate(
    g: &Goddag,
    candidates: &[NodeId],
    pred: &Expr,
    outer: &Context,
    reverse: bool,
) -> Result<Vec<NodeId>> {
    let size = candidates.len();
    let mut out = Vec::with_capacity(size);
    for (i, &m) in candidates.iter().enumerate() {
        let position = if reverse { size - i } else { i + 1 };
        let ctx = Context { node: m, position, size, variables: outer.variables.clone() };
        let v = evaluate_expr(g, pred, &ctx)?;
        let keep = match v {
            // Numeric predicate = position shorthand.
            Value::Num(n) => (position as f64) == n,
            other => other.to_bool(),
        };
        if keep {
            out.push(m);
        }
    }
    Ok(out)
}

/// Does node `m`, reached via `axis`, satisfy `test`? This implements
/// Definition 2 (including the hierarchy-parameterized forms).
pub fn node_test_matches(g: &Goddag, axis: Axis, m: NodeId, test: &NodeTest) -> bool {
    let in_hierarchies = |hs: &Option<Vec<String>>| -> bool {
        match hs {
            None => true,
            Some(names) => names
                .iter()
                .any(|name| g.hierarchy_id(name).map(|h| g.in_hierarchy(m, h)).unwrap_or(false)),
        }
    };
    match test {
        NodeTest::Name { name, hierarchies } => {
            let principal = if axis == Axis::Attribute { m.is_attr() } else { m.is_element() };
            principal && g.name(m) == Some(name.as_str()) && in_hierarchies(hierarchies)
        }
        NodeTest::AnyElement { hierarchies } => {
            let principal = if axis == Axis::Attribute { m.is_attr() } else { m.is_element() };
            principal && in_hierarchies(hierarchies)
        }
        NodeTest::Text { hierarchies } => m.is_text() && in_hierarchies(hierarchies),
        NodeTest::AnyNode { hierarchies } => in_hierarchies(hierarchies),
        NodeTest::Leaf => m.is_leaf(),
        NodeTest::Comment => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhx_goddag::GoddagBuilder;

    fn figure1() -> Goddag {
        GoddagBuilder::new()
            .hierarchy(
                "lines",
                "<r><line>gesceaftum unawendendne sin</line><line>gallice sibbe gecynde þa</line></r>",
            )
            .hierarchy(
                "words",
                "<r><vline><w>gesceaftum</w> <w>unawendendne</w> </vline><vline><w>singallice</w> <w>sibbe</w> <w>gecynde</w> </vline><vline><w>þa</w></vline></r>",
            )
            .hierarchy(
                "restorations",
                "<r><res>gesceaftum una</res>wendendne s<res>in</res><res>gallice sibbe gecyn</res>de þa</r>",
            )
            .hierarchy(
                "damage",
                "<r>gesceaftum una<dmg>w</dmg>endendne singallice sibbe gecyn<dmg>de þa</dmg></r>",
            )
            .build()
            .unwrap()
    }

    fn nodes(g: &Goddag, src: &str) -> Vec<NodeId> {
        match evaluate_xpath_naive(g, src).unwrap() {
            Value::Nodes(ns) => ns,
            other => panic!("expected node-set, got {other:?}"),
        }
    }

    fn strings(g: &Goddag, src: &str) -> Vec<String> {
        nodes(g, src).into_iter().map(|n| g.string_value(n).to_string()).collect()
    }

    #[test]
    fn paper_query_i1_path() {
        let g = figure1();
        let out = strings(
            &g,
            "/descendant::line[xdescendant::w[string(.) = 'singallice'] or \
             overlapping::w[string(.) = 'singallice']]",
        );
        assert_eq!(out, vec!["gesceaftum unawendendne sin", "gallice sibbe gecynde þa"]);
    }

    #[test]
    fn paper_query_i2_line_selection() {
        let g = figure1();
        let out = strings(
            &g,
            "/descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or \
             overlapping::dmg]]",
        );
        assert_eq!(out.len(), 2, "both lines contain damaged words");
    }

    #[test]
    fn descendant_leaf_from_line() {
        let g = figure1();
        let out = strings(&g, "/descendant::line[1]/descendant::leaf()");
        assert_eq!(out, vec!["gesceaftum", " ", "una", "w", "endendne", " ", "s", "in"]);
    }

    #[test]
    fn leaf_ancestor_cross_hierarchy_predicate() {
        let g = figure1();
        // Leaves inside both a word and a damage region: w, de, þa.
        let out = strings(&g, "/descendant::leaf()[ancestor::w and ancestor::dmg]");
        assert_eq!(out, vec!["w", "de", "þa"]);
    }

    #[test]
    fn position_predicates() {
        let g = figure1();
        assert_eq!(strings(&g, "/descendant::w[1]"), vec!["gesceaftum"]);
        assert_eq!(strings(&g, "/descendant::w[last()]"), vec!["þa"]);
        assert_eq!(strings(&g, "/descendant::w[position() = 2]"), vec!["unawendendne"]);
    }

    #[test]
    fn reverse_axis_position() {
        let g = figure1();
        // From the last word, the first preceding w is gecynde... via
        // preceding axis (same component: words hierarchy).
        let out = strings(&g, "/descendant::w[last()]/preceding::w[1]");
        assert_eq!(out, vec!["gecynde"]);
    }

    #[test]
    fn hierarchy_parameterized_node_test() {
        let g = figure1();
        // node("damage") from root descendant: all damage-hierarchy nodes +
        // root + leaves covered by damage (all leaves).
        let all = nodes(&g, "/descendant::node(\"damage\")");
        assert!(all.iter().all(|&n| {
            let h = g.hierarchy_id("damage").unwrap();
            g.in_hierarchy(n, h)
        }));
        // *("words") restricts elements to the words hierarchy.
        let words_only = strings(&g, "/descendant::*(\"words\")");
        assert_eq!(words_only.len(), 3 + 6); // 3 vlines + 6 words
                                             // text("lines") finds exactly the two line texts.
        assert_eq!(nodes(&g, "/descendant::text(\"lines\")").len(), 2);
    }

    #[test]
    fn attribute_axis() {
        let g = GoddagBuilder::new()
            .hierarchy("a", r#"<r><w part="I">x</w><w part="F">y</w></r>"#)
            .build()
            .unwrap();
        assert_eq!(strings(&g, "/descendant::w/@part"), vec!["I", "F"]);
        assert_eq!(strings(&g, "/descendant::w[@part = 'F']"), vec!["y"]);
        assert_eq!(strings(&g, "/descendant::w/attribute::*"), vec!["I", "F"]);
    }

    #[test]
    fn variables_in_context() {
        let g = figure1();
        let expr = crate::parser::parse("$x/descendant::leaf()").unwrap();
        let w = nodes(&g, "/descendant::w[2]");
        let ctx = Context::new(NodeId::Root).with_var("x", Value::Nodes(w));
        let v = evaluate_expr(&g, &expr, &ctx).unwrap();
        let Value::Nodes(ns) = v else { panic!() };
        let texts: Vec<&str> = ns.iter().map(|&n| g.string_value(n)).collect();
        assert_eq!(texts, vec!["una", "w", "endendne"]);
    }

    #[test]
    fn unbound_variable_errors() {
        let g = figure1();
        assert!(evaluate_xpath_naive(&g, "$nope").is_err());
    }

    #[test]
    fn arithmetic_and_logic() {
        let g = figure1();
        assert_eq!(evaluate_xpath_naive(&g, "1 + 2 * 3").unwrap(), Value::Num(7.0));
        assert_eq!(evaluate_xpath_naive(&g, "10 mod 3").unwrap(), Value::Num(1.0));
        assert_eq!(evaluate_xpath_naive(&g, "10 div 4").unwrap(), Value::Num(2.5));
        assert_eq!(evaluate_xpath_naive(&g, "-(3)").unwrap(), Value::Num(-3.0));
        assert_eq!(evaluate_xpath_naive(&g, "1 < 2 and 2 < 3").unwrap(), Value::Bool(true));
        assert_eq!(evaluate_xpath_naive(&g, "1 = 2 or 3 > 4").unwrap(), Value::Bool(false));
    }

    #[test]
    fn union_merges_sorted() {
        let g = figure1();
        let out = strings(&g, "/descendant::line | /descendant::w[1]");
        assert_eq!(out.len(), 3);
        // Lines (hierarchy 0) sort before words (hierarchy 1).
        assert_eq!(out[0], "gesceaftum unawendendne sin");
        assert_eq!(out[2], "gesceaftum");
    }

    #[test]
    fn double_slash_abbreviation() {
        let g = figure1();
        assert_eq!(strings(&g, "//w").len(), 6);
        assert_eq!(strings(&g, "//vline//w").len(), 6);
    }

    #[test]
    fn dot_and_dotdot() {
        let g = figure1();
        assert_eq!(strings(&g, "/descendant::w[1]/..").len(), 1);
        let out = strings(&g, "/descendant::w[1]/../.");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], "gesceaftum unawendendne ");
    }

    #[test]
    fn root_path_returns_root() {
        let g = figure1();
        assert_eq!(nodes(&g, "/"), vec![NodeId::Root]);
    }

    #[test]
    fn comment_test_never_matches() {
        let g = figure1();
        assert!(nodes(&g, "/descendant::comment()").is_empty());
    }

    #[test]
    fn unknown_hierarchy_in_test_matches_nothing() {
        let g = figure1();
        assert!(nodes(&g, "/descendant::text(\"nope\")").is_empty());
    }

    #[test]
    fn numeric_predicate_on_filter_expr() {
        let g = figure1();
        let out = strings(&g, "(/descendant::w)[3]");
        assert_eq!(out, vec!["singallice"]);
    }
}
