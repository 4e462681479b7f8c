//! XQuery abstract syntax.
//!
//! Path steps reuse the XPath layer's [`NodeTest`] and [`Axis`]; predicates
//! and all other sub-expressions are full XQuery expressions.

use crate::functions::Callee;
use crate::plan::{choose_strategy, StepStrategy};
use mhx_goddag::Axis;
use mhx_xpath::NodeTest;

/// Comparison operators: XPath general comparisons, XQuery value
/// comparisons, and node comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comp {
    // general
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    // value
    VEq,
    VNe,
    VLt,
    VLe,
    VGt,
    VGe,
    // node
    Is,
    Before,
    After,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    IDiv,
    Mod,
}

/// FLWOR clauses.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    For { var: String, at: Option<String>, seq: QExpr },
    Let { var: String, expr: QExpr },
    Where(QExpr),
    OrderBy { keys: Vec<OrderKeySpec> },
}

#[derive(Debug, Clone, PartialEq)]
pub struct OrderKeySpec {
    pub key: QExpr,
    pub descending: bool,
}

/// A path step with XQuery predicates, compiled at parse time: `strategy`
/// records how step resolution ([`crate::plan`]) answers the axis —
/// through the structural index or the plain walk.
#[derive(Debug, Clone, PartialEq)]
pub struct QStep {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicates: Vec<QExpr>,
    pub strategy: StepStrategy,
    /// Set by the optimizer ([`crate::opt`]) when every predicate is
    /// position-free *and* pure (no `analyze-string`): the evaluator may
    /// resolve the whole context set in one index pass and filter the
    /// deduplicated union once.
    pub preds_position_free: bool,
    /// Set by the optimizer on any step it changed — drives the
    /// `rewritten_steps` engine counter.
    pub rewritten: bool,
    /// Per-predicate existential-probe annotation (parallel to
    /// `predicates`): a boolean single-step extended-axis predicate
    /// answers through `StructIndex::witnessed` — one pass over the
    /// candidates, first witness each, no materialization. Optimizer-only;
    /// as-written plans leave it empty.
    pub pred_probes: Vec<Option<(Axis, NodeTest)>>,
    /// Per-predicate hoist annotation (parallel to `predicates`):
    /// context-independent pure predicates are evaluated once per step
    /// instead of once per candidate. Optimizer-only.
    pub pred_hoistable: Vec<bool>,
    /// Set by the optimizer when this step absorbed a preceding
    /// predicate-free `descendant::<name>` step: the pair evaluates as
    /// one containment-chain merge join with the stored name as the
    /// outer chain.
    pub chain_outer: Option<String>,
}

impl QStep {
    pub fn new(axis: Axis, test: NodeTest, predicates: Vec<QExpr>) -> QStep {
        let strategy = choose_strategy(axis, &test);
        QStep {
            axis,
            test,
            predicates,
            strategy,
            preds_position_free: false,
            rewritten: false,
            pred_probes: Vec::new(),
            pred_hoistable: Vec::new(),
            chain_outer: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum QPathStart {
    Root,
    Context,
    Expr(Box<QExpr>),
}

/// Direct element constructor content piece.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// Literal character data (entity refs already resolved).
    Text(String),
    /// `{ expr }`
    Expr(QExpr),
    /// Nested direct constructor.
    Elem(DirElem),
}

/// Attribute value piece.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrPiece {
    Text(String),
    Expr(QExpr),
}

#[derive(Debug, Clone, PartialEq)]
pub struct DirElem {
    pub name: String,
    pub attrs: Vec<(String, Vec<AttrPiece>)>,
    pub content: Vec<Content>,
}

/// XQuery expression.
#[derive(Debug, Clone, PartialEq)]
pub enum QExpr {
    /// `(e1, e2, …)` — also `()` for the empty sequence.
    Sequence(Vec<QExpr>),
    Flwor {
        clauses: Vec<Clause>,
        ret: Box<QExpr>,
    },
    If {
        cond: Box<QExpr>,
        then: Box<QExpr>,
        els: Box<QExpr>,
    },
    /// `some`/`every`: its bindings are `for` clauses without `at`.
    Quantified {
        every: bool,
        binds: Vec<Clause>,
        satisfies: Box<QExpr>,
    },
    Or(Box<QExpr>, Box<QExpr>),
    And(Box<QExpr>, Box<QExpr>),
    Compare {
        op: Comp,
        lhs: Box<QExpr>,
        rhs: Box<QExpr>,
    },
    Range {
        lo: Box<QExpr>,
        hi: Box<QExpr>,
    },
    Arith {
        op: ArithOp,
        lhs: Box<QExpr>,
        rhs: Box<QExpr>,
    },
    Union(Box<QExpr>, Box<QExpr>),
    Neg(Box<QExpr>),
    Literal(String),
    Number(f64),
    Var(String),
    ContextItem,
    /// A function call; build one with [`QExpr::call`], which looks its
    /// registry entry up once.
    Call {
        name: String,
        args: Vec<QExpr>,
        callee: Callee,
    },
    Path {
        start: QPathStart,
        steps: Vec<QStep>,
    },
    /// Postfix predicates on an arbitrary expression: `$x[1]`, `(e)[cond]`.
    Filter {
        base: Box<QExpr>,
        predicates: Vec<QExpr>,
    },
    DirElem(DirElem),
}

impl QExpr {
    /// A call of `name`, its registry entry resolved here, at compile time.
    pub fn call(name: impl Into<String>, args: Vec<QExpr>) -> QExpr {
        let name = name.into();
        QExpr::Call { callee: Callee::of(&name), name, args }
    }

    /// Does this expression (recursively) call a function that installs
    /// a temporary hierarchy (`analyze-string`)? Such an expression needs
    /// a mutable KyGODDAG and must not be reordered.
    pub fn uses_analyze_string(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let QExpr::Call { callee, .. } = e {
                found |= callee.entry().is_some_and(|f| f.installs_hierarchy);
            }
        });
        found
    }

    /// Preorder walk over all sub-expressions.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a QExpr)) {
        self.visit(true, f);
    }

    /// Preorder walk over the sub-expressions evaluated under this
    /// expression's focus: step and filter predicates, which get a fresh
    /// focus per candidate, are skipped.
    pub(crate) fn walk_focus<'a>(&'a self, f: &mut impl FnMut(&'a QExpr)) {
        self.visit(false, f);
    }

    fn visit<'a>(&'a self, predicates: bool, f: &mut impl FnMut(&'a QExpr)) {
        f(self);
        self.children(predicates, |e: &'a QExpr| e.visit(predicates, f));
    }

    /// Each direct sub-expression, in evaluation order; step and filter
    /// predicates only when `predicates` is set.
    pub(crate) fn children<'a>(&'a self, predicates: bool, mut go: impl FnMut(&'a QExpr)) {
        match self {
            QExpr::Sequence(es) => es.iter().for_each(go),
            QExpr::Flwor { clauses, ret: body }
            | QExpr::Quantified { binds: clauses, satisfies: body, .. } => {
                for c in clauses {
                    match c {
                        Clause::For { seq, .. } => go(seq),
                        Clause::Let { expr, .. } => go(expr),
                        Clause::Where(e) => go(e),
                        Clause::OrderBy { keys } => keys.iter().for_each(|k| go(&k.key)),
                    }
                }
                go(body);
            }
            QExpr::If { cond, then, els } => [cond, then, els].into_iter().for_each(|e| go(e)),
            QExpr::Or(a, b)
            | QExpr::And(a, b)
            | QExpr::Union(a, b)
            | QExpr::Compare { lhs: a, rhs: b, .. }
            | QExpr::Arith { lhs: a, rhs: b, .. }
            | QExpr::Range { lo: a, hi: b } => {
                go(a);
                go(b);
            }
            QExpr::Neg(e) => go(e),
            QExpr::Call { args, .. } => args.iter().for_each(go),
            QExpr::Path { start, steps } => {
                if let QPathStart::Expr(e) = start {
                    go(e);
                }
                if predicates {
                    steps.iter().flat_map(|s| &s.predicates).for_each(go);
                }
            }
            QExpr::Filter { base, predicates: preds } => {
                go(base);
                if predicates {
                    preds.iter().for_each(go);
                }
            }
            QExpr::DirElem(d) => visit_dir(d, &mut go),
            QExpr::Literal(_) | QExpr::Number(_) | QExpr::Var(_) | QExpr::ContextItem => {}
        }
    }
}

fn visit_dir<'a>(d: &'a DirElem, go: &mut impl FnMut(&'a QExpr)) {
    for (_, pieces) in &d.attrs {
        for p in pieces {
            if let AttrPiece::Expr(e) = p {
                go(e);
            }
        }
    }
    for c in &d.content {
        match c {
            Content::Text(_) => {}
            Content::Expr(e) => go(e),
            Content::Elem(inner) => visit_dir(inner, go),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uses_analyze_string_detection() {
        let plain = QExpr::call("string", vec![QExpr::ContextItem]);
        assert!(!plain.uses_analyze_string());
        let inner = QExpr::call("analyze-string", vec![]);
        let nested = QExpr::Flwor {
            clauses: vec![Clause::Let { var: "res".into(), expr: inner }],
            ret: Box::new(QExpr::Var("res".into())),
        };
        assert!(nested.uses_analyze_string());
    }

    #[test]
    fn walk_reaches_constructor_expressions() {
        let d = DirElem {
            name: "b".into(),
            attrs: vec![("k".into(), vec![AttrPiece::Expr(QExpr::Var("a".into()))])],
            content: vec![Content::Expr(QExpr::call("analyze-string", vec![]))],
        };
        assert!(QExpr::DirElem(d).uses_analyze_string());
    }
}
