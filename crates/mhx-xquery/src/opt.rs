//! Plan-level optimizer: AST-to-AST rewrites over [`QExpr`] path
//! expressions. XPath queries are lowered into the same AST
//! ([`crate::xpath`]), so every rewrite here serves both languages.
//!
//! As written, a predicated step resolves per context node, because
//! `position()`/`last()` are assigned within each context node's candidate
//! list. On the extended axes that is expensive in a new way: an
//! `xfollowing::*[xancestor::page]` step pays span-index lookups *per
//! context node per candidate*, so predicate order and batchability
//! dominate query cost. The rewrites recover the set-at-a-time path for
//! the (very common) predicates that cannot observe the focus position:
//!
//! 1. **Classification** ([`classify_predicate`]): a predicate is
//!    *position-free* when it references neither `position()` nor `last()`
//!    in the current focus (nested predicates get a fresh focus and do not
//!    count) **and** its statically-known type can never be numeric (a
//!    numeric predicate value is the `[2]` position shorthand). Anything
//!    of unknown type — variables, FLWORs — is conservatively
//!    *positional*.
//! 2. **Reordering**: within each maximal run of consecutive position-free
//!    predicates, predicates are stable-sorted cheapest-first — name,
//!    attribute and string tests before extended-axis subqueries.
//!    Position-free filters commute, so this never crosses a positional
//!    predicate. At evaluation time [`stats_order`] refines the order with
//!    the document's real name frequencies.
//! 3. **Batch routing**: a step whose predicates are *all* position-free is
//!    flagged for the evaluator to resolve its whole context set in one
//!    [`crate::plan::resolve_step`] call (one index pass) and filter the
//!    deduplicated union once — filtering commutes with union. Any other
//!    predicated step resolves one context at a time, as a batch of one.
//! 4. **Step fusion**: the parsers desugar `//x` to
//!    `descendant-or-self::node()/child::x` — two index-free axis walks.
//!    When the following step's predicates are all position-free, the pair
//!    fuses to `descendant::x[preds]`, a single indexed scan.
//! 5. **Chain joins, existential probes, hoisting**: `descendant::a/
//!    descendant::b` becomes one containment-chain merge join; a boolean
//!    single-step extended-axis predicate answers from the first witness,
//!    for all candidates in one pass (`StructIndex::witnessed`); a
//!    context-independent predicate is evaluated once per step.
//!
//! Types, focus use, purity and call costs come from the function registry
//! ([`crate::functions`]).
//!
//! XQuery predicates can also mutate the copy-on-write KyGODDAG through
//! `analyze-string()` (temporary hierarchies installed mid-query), and the
//! per-node path (a batch of one context, the index re-checked per context)
//! makes that mutation visible to *subsequent context nodes* of the same
//! step. Every rewrite therefore also requires the predicates
//! to be **pure** ([`QExpr::uses_analyze_string`] is false) — an impure
//! predicate pins the step to the per-node path so the mutation
//! interleaving stays exactly as written.
//!
//! Every rewrite is proved invisible by the differential suite
//! (`tests/plan_optimizer_differential.rs`): optimized == as-written
//! results on random GODDAGs and random predicate mixes. The `optimize`
//! knob on [`crate::EvalOptions`] (default **on**) selects either form of
//! the same compiled plan.

use crate::ast::{
    AttrPiece, Clause, Comp, Content, DirElem, OrderKeySpec, QExpr, QPathStart, QStep,
};
use crate::eval::{Env, Evaluator};
use crate::functions::{lookup, Reads};
use crate::item::{Item, Sequence};
use crate::plan::StepStrategy;
use mhx_goddag::{Axis, IndexStats, NodeId};
use mhx_xpath::NodeTest;

/// The optimizer's verdict on one predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateClass {
    /// Cannot observe `position()`/`last()` and can never evaluate to a
    /// number: safe to reorder among its position-free neighbours and to
    /// apply set-at-a-time over a batched candidate union.
    PositionFree,
    /// Everything else (including conservatively-unknown expressions).
    Positional,
}

/// Counts of rewrites applied to one compiled query. Surfaced through
/// [`crate::CompiledXQuery::report`] and the engine stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerReport {
    /// `descendant-or-self::node()/child::x` pairs collapsed into a single
    /// indexed `descendant::x` scan.
    pub fused_steps: u32,
    /// Predicate runs whose order changed (cheapest-first).
    pub reordered_predicate_runs: u32,
    /// Predicated steps routed through the set-at-a-time batch path.
    pub batch_routed_steps: u32,
    /// Boolean single-step extended-axis predicates annotated to answer
    /// through a first-witness probe (`StructIndex::witnessed`)
    /// instead of materializing the axis.
    pub existential_probes: u32,
    /// Context-independent predicates annotated for once-per-step
    /// hoisting out of the per-candidate loop.
    pub hoisted_predicates: u32,
    /// `descendant::a/descendant::b` pairs fused into one containment-
    /// chain merge join.
    pub chain_join_steps: u32,
}

impl OptimizerReport {
    /// Total rewrites applied (0 = the plan was already optimal).
    pub fn total(&self) -> u32 {
        self.fused_steps
            + self.reordered_predicate_runs
            + self.batch_routed_steps
            + self.existential_probes
            + self.hoisted_predicates
            + self.chain_join_steps
    }
}

/// Relative cost of resolving one step — dimensionless weights used only
/// to order position-free predicates cheapest-first.
pub fn step_cost(strategy: StepStrategy, axis: Axis) -> u64 {
    match strategy {
        // Span-index interval lookups — the expensive extended axes.
        StepStrategy::IndexedExtended => 64,
        // One name-run / leaf-run intersection.
        StepStrategy::NameIndex | StepStrategy::LeafRange => 24,
        StepStrategy::AxisWalk => match axis {
            Axis::SelfAxis | Axis::Attribute | Axis::Parent => 2,
            Axis::Child
            | Axis::FollowingSibling
            | Axis::PrecedingSibling
            | Axis::Ancestor
            | Axis::AncestorOrSelf => 6,
            // Whole-subtree / whole-document walks.
            _ => 48,
        },
    }
}

/// Classify one predicate (see module docs).
pub fn classify_predicate(pred: &QExpr) -> PredicateClass {
    if !uses_focus(pred) && !matches!(static_type(pred), Ty::Num | Ty::Unknown) {
        PredicateClass::PositionFree
    } else {
        PredicateClass::Positional
    }
}

/// Position-free *and* pure — the condition for reordering, batch routing
/// and fusion.
fn is_free(pred: &QExpr) -> bool {
    classify_predicate(pred) == PredicateClass::PositionFree && !pred.uses_analyze_string()
}

/// Does the expression read the *current* focus position or size?
/// Predicates (of steps and filters) get a fresh focus and are skipped;
/// everything else — FLWOR clause sources, function arguments, filter
/// bases, path-start expressions — evaluates under the current focus.
fn uses_focus(e: &QExpr) -> bool {
    let mut found = false;
    e.walk_focus(&mut |x| found |= is_focus_call(x));
    found
}

fn is_focus_call(e: &QExpr) -> bool {
    matches!(e, QExpr::Call { name, .. } if lookup(name).is_some_and(|f| f.reads == Reads::Focus))
}

/// Coarse static type lattice — what classification and the XPath
/// lowering's coercions need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ty {
    Bool,
    Str,
    Num,
    Nodes,
    Unknown,
}

pub(crate) fn static_type(e: &QExpr) -> Ty {
    match e {
        QExpr::Literal(_) => Ty::Str,
        QExpr::Number(_) => Ty::Num,
        QExpr::Var(_) | QExpr::ContextItem | QExpr::Flwor { .. } => Ty::Unknown,
        // ebv([]) is false; a non-empty literal sequence could hold
        // anything — conservatively unknown.
        QExpr::Sequence(es) => {
            if es.is_empty() {
                Ty::Bool
            } else {
                Ty::Unknown
            }
        }
        QExpr::If { then, els, .. } => {
            let (a, b) = (static_type(then), static_type(els));
            if a == b {
                a
            } else {
                Ty::Unknown
            }
        }
        QExpr::Quantified { .. } | QExpr::Or(_, _) | QExpr::And(_, _) => Ty::Bool,
        QExpr::Compare { op, .. } => match op {
            // Value/node comparisons on empty operands yield (), but ()
            // is never numeric, so Bool stays safe for classification.
            Comp::Is | Comp::Before | Comp::After => Ty::Bool,
            _ => Ty::Bool,
        },
        QExpr::Range { .. } | QExpr::Arith { .. } | QExpr::Neg(_) => Ty::Num,
        QExpr::Union(_, _) | QExpr::Path { .. } | QExpr::DirElem(_) => Ty::Nodes,
        QExpr::Filter { base, .. } => match static_type(base) {
            Ty::Nodes => Ty::Nodes,
            _ => Ty::Unknown,
        },
        QExpr::Call { name, .. } => lookup(name).map_or(Ty::Unknown, |f| f.result),
    }
}

/// Relative cost of a predicate — dimensionless weights used only to order
/// position-free predicates cheapest-first. Extended-axis subqueries
/// dominate; attribute/self/name tests are near-free. With a document's
/// `stats`, a named scan costs what the name actually occurs there, so a
/// filter on a rare name runs before a filter on a ubiquitous one even
/// though the fixed weights price them identically.
fn cost(e: &QExpr, stats: Option<&IndexStats>) -> u64 {
    let c = |x: &QExpr| cost(x, stats);
    match e {
        QExpr::Literal(_) | QExpr::Number(_) | QExpr::Var(_) | QExpr::ContextItem => 1,
        QExpr::Sequence(es) => 1 + es.iter().map(c).sum::<u64>(),
        QExpr::Flwor { clauses, ret: body }
        | QExpr::Quantified { binds: clauses, satisfies: body, .. } => {
            4 + clauses
                .iter()
                .map(|cl| match cl {
                    Clause::For { seq, .. } => c(seq),
                    Clause::Let { expr, .. } => c(expr),
                    Clause::Where(e) => c(e),
                    Clause::OrderBy { keys } => keys.iter().map(|k| c(&k.key)).sum(),
                })
                .sum::<u64>()
                + c(body)
        }
        QExpr::If { cond, then, els } => 1 + c(cond) + c(then).max(c(els)),
        QExpr::Or(a, b)
        | QExpr::And(a, b)
        | QExpr::Union(a, b)
        | QExpr::Compare { lhs: a, rhs: b, .. }
        | QExpr::Arith { lhs: a, rhs: b, .. }
        | QExpr::Range { lo: a, hi: b } => 1 + c(a) + c(b),
        QExpr::Neg(inner) => 1 + c(inner),
        QExpr::Call { name, args } => {
            lookup(name).map_or(2, |f| f.cost) + args.iter().map(c).sum::<u64>()
        }
        QExpr::Path { start, steps } => {
            let start_cost = match start {
                QPathStart::Expr(e) => c(e),
                QPathStart::Root | QPathStart::Context => 0,
            };
            start_cost
                + steps
                    .iter()
                    .map(|s| {
                        let fixed = step_cost(s.strategy, s.axis);
                        // Near-free local walks keep their fixed weight: their
                        // cost does not scale with the name's frequency.
                        let step = match (&s.test, stats) {
                            (NodeTest::Name { name, .. }, Some(stats)) if fixed > 8 => {
                                2 + stats.name_count(name)
                            }
                            _ => fixed,
                        };
                        step + s.predicates.iter().map(c).sum::<u64>()
                    })
                    .sum::<u64>()
        }
        QExpr::Filter { base, predicates } => 1 + c(base) + predicates.iter().map(c).sum::<u64>(),
        QExpr::DirElem(_) => 8,
    }
}

/// Optimize a parsed query. The input is untouched; the engine runs this
/// once at compile time ([`crate::CompiledXQuery`] carries both forms),
/// so a cached parse serves both knob settings without key forking.
pub fn optimize(ast: &QExpr) -> (QExpr, OptimizerReport) {
    let mut report = OptimizerReport::default();
    let out = opt_expr(ast, &mut report);
    (out, report)
}

fn opt_expr(e: &QExpr, r: &mut OptimizerReport) -> QExpr {
    match e {
        QExpr::Literal(_) | QExpr::Number(_) | QExpr::Var(_) | QExpr::ContextItem => e.clone(),
        QExpr::Sequence(es) => QExpr::Sequence(es.iter().map(|e| opt_expr(e, r)).collect()),
        QExpr::Flwor { clauses, ret } => {
            QExpr::Flwor { clauses: opt_clauses(clauses, r), ret: Box::new(opt_expr(ret, r)) }
        }
        QExpr::If { cond, then, els } => QExpr::If {
            cond: Box::new(opt_expr(cond, r)),
            then: Box::new(opt_expr(then, r)),
            els: Box::new(opt_expr(els, r)),
        },
        QExpr::Quantified { every, binds, satisfies } => QExpr::Quantified {
            every: *every,
            binds: opt_clauses(binds, r),
            satisfies: Box::new(opt_expr(satisfies, r)),
        },
        QExpr::Or(a, b) => QExpr::Or(Box::new(opt_expr(a, r)), Box::new(opt_expr(b, r))),
        QExpr::And(a, b) => QExpr::And(Box::new(opt_expr(a, r)), Box::new(opt_expr(b, r))),
        QExpr::Union(a, b) => QExpr::Union(Box::new(opt_expr(a, r)), Box::new(opt_expr(b, r))),
        QExpr::Compare { op, lhs, rhs } => QExpr::Compare {
            op: *op,
            lhs: Box::new(opt_expr(lhs, r)),
            rhs: Box::new(opt_expr(rhs, r)),
        },
        QExpr::Range { lo, hi } => {
            QExpr::Range { lo: Box::new(opt_expr(lo, r)), hi: Box::new(opt_expr(hi, r)) }
        }
        QExpr::Arith { op, lhs, rhs } => QExpr::Arith {
            op: *op,
            lhs: Box::new(opt_expr(lhs, r)),
            rhs: Box::new(opt_expr(rhs, r)),
        },
        QExpr::Neg(inner) => QExpr::Neg(Box::new(opt_expr(inner, r))),
        QExpr::Call { name, args } => {
            QExpr::Call { name: name.clone(), args: args.iter().map(|a| opt_expr(a, r)).collect() }
        }
        QExpr::Filter { base, predicates } => {
            let mut preds: Vec<QExpr> = predicates.iter().map(|p| opt_expr(p, r)).collect();
            r.reordered_predicate_runs += reorder_free_runs(&mut preds);
            QExpr::Filter { base: Box::new(opt_expr(base, r)), predicates: preds }
        }
        QExpr::DirElem(d) => QExpr::DirElem(opt_dir(d, r)),
        QExpr::Path { start, steps } => opt_path(start, steps, r),
    }
}

fn opt_clauses(clauses: &[Clause], r: &mut OptimizerReport) -> Vec<Clause> {
    let mut opt = |e: &QExpr| opt_expr(e, r);
    clauses
        .iter()
        .map(|c| match c {
            Clause::For { var, at, seq } => {
                Clause::For { var: var.clone(), at: at.clone(), seq: opt(seq) }
            }
            Clause::Let { var, expr } => Clause::Let { var: var.clone(), expr: opt(expr) },
            Clause::Where(e) => Clause::Where(opt(e)),
            Clause::OrderBy { keys } => Clause::OrderBy {
                keys: keys
                    .iter()
                    .map(|k| OrderKeySpec { key: opt(&k.key), descending: k.descending })
                    .collect(),
            },
        })
        .collect()
}

fn opt_dir(d: &DirElem, r: &mut OptimizerReport) -> DirElem {
    DirElem {
        name: d.name.clone(),
        attrs: d
            .attrs
            .iter()
            .map(|(n, pieces)| {
                (
                    n.clone(),
                    pieces
                        .iter()
                        .map(|p| match p {
                            AttrPiece::Text(t) => AttrPiece::Text(t.clone()),
                            AttrPiece::Expr(e) => AttrPiece::Expr(opt_expr(e, r)),
                        })
                        .collect(),
                )
            })
            .collect(),
        content: d
            .content
            .iter()
            .map(|c| match c {
                Content::Text(t) => Content::Text(t.clone()),
                Content::Expr(e) => Content::Expr(opt_expr(e, r)),
                Content::Elem(inner) => Content::Elem(opt_dir(inner, r)),
            })
            .collect(),
    }
}

fn opt_path(start: &QPathStart, steps: &[QStep], r: &mut OptimizerReport) -> QExpr {
    let start = match start {
        QPathStart::Root => QPathStart::Root,
        QPathStart::Context => QPathStart::Context,
        QPathStart::Expr(e) => QPathStart::Expr(Box::new(opt_expr(e, r))),
    };
    let mut steps: Vec<QStep> = steps
        .iter()
        .map(|s| {
            let mut out = s.clone();
            out.predicates = s.predicates.iter().map(|p| opt_expr(p, r)).collect();
            out
        })
        .collect();

    // Pass 1 — fuse `descendant-or-self::node()` + downward step pairs.
    let mut fused: Vec<QStep> = Vec::with_capacity(steps.len());
    let mut i = 0;
    while i < steps.len() {
        if i + 1 < steps.len() && is_dos_any_node(&steps[i]) {
            let next = &steps[i + 1];
            let downward =
                matches!(next.axis, Axis::Child | Axis::Descendant | Axis::DescendantOrSelf);
            if downward && next.predicates.iter().all(is_free) {
                let axis = if next.axis == Axis::DescendantOrSelf {
                    Axis::DescendantOrSelf
                } else {
                    Axis::Descendant
                };
                let mut s = QStep::new(axis, next.test.clone(), next.predicates.clone());
                s.rewritten = true;
                r.fused_steps += 1;
                fused.push(s);
                i += 2;
                continue;
            }
        }
        fused.push(steps[i].clone());
        i += 1;
    }
    steps = fused;

    // Pass 1b — containment-chain join: a predicate-free `descendant::a`
    // followed by `descendant::b` (plain name tests — the shape `//a//b`
    // fusion emits) collapses into one merge join over the laminar
    // containment chains (`StructIndex::descendant_chain_batch`). The inner step's predicates must all be free
    // (position-free *and* pure) — the join hands the evaluator the
    // deduplicated union.
    let mut chained: Vec<QStep> = Vec::with_capacity(steps.len());
    let mut i = 0;
    while i < steps.len() {
        if i + 1 < steps.len() {
            let (a, b) = (&steps[i], &steps[i + 1]);
            if is_plain_descendant_name(a)
                && a.predicates.is_empty()
                && a.chain_outer.is_none()
                && is_plain_descendant_name(b)
                && b.chain_outer.is_none()
                && b.predicates.iter().all(is_free)
            {
                let NodeTest::Name { name: outer_name, .. } = &a.test else { unreachable!() };
                let mut s = b.clone();
                s.chain_outer = Some(outer_name.clone());
                s.rewritten = true;
                r.chain_join_steps += 1;
                chained.push(s);
                i += 2;
                continue;
            }
        }
        chained.push(steps[i].clone());
        i += 1;
    }
    steps = chained;

    // Pass 2 — cheapest-first within position-free pure runs.
    // Pass 3 — flag all-free steps for the batch path.
    // Pass 4 — probe/hoist annotations on the steps the batch path
    // evaluates (the only consumer of the annotations).
    for step in &mut steps {
        let runs = reorder_free_runs(&mut step.predicates);
        if runs > 0 {
            r.reordered_predicate_runs += runs;
            step.rewritten = true;
        }
        if !step.predicates.is_empty() && step.predicates.iter().all(is_free) {
            step.preds_position_free = true;
            step.rewritten = true;
            r.batch_routed_steps += 1;
        }
        if step.preds_position_free || step.chain_outer.is_some() {
            step.pred_probes = step.predicates.iter().map(probe_of).collect();
            step.pred_hoistable = step
                .predicates
                .iter()
                .map(|p| {
                    is_context_independent(p)
                        && !matches!(static_type(p), Ty::Num | Ty::Unknown)
                        && !p.uses_analyze_string()
                })
                .collect();
            r.existential_probes += step.pred_probes.iter().filter(|p| p.is_some()).count() as u32;
            r.hoisted_predicates += step.pred_hoistable.iter().filter(|&&h| h).count() as u32;
        }
    }
    QExpr::Path { start, steps }
}

fn is_dos_any_node(s: &QStep) -> bool {
    s.axis == Axis::DescendantOrSelf
        && matches!(&s.test, NodeTest::AnyNode { hierarchies: None })
        && s.predicates.is_empty()
}

/// Plain `descendant::name` — `Descendant` axis, bare name test with no
/// hierarchy filter: the exact shape `descendant_chain_batch` joins
/// (`descendant-or-self` would also admit the context node itself).
fn is_plain_descendant_name(s: &QStep) -> bool {
    s.axis == Axis::Descendant
        && matches!(&s.test, NodeTest::Name { hierarchies: None, .. })
        && s.strategy == StepStrategy::NameIndex
}

/// The existential-probe shape: a relative single-step extended-axis path
/// with no predicates of its own — `[xfollowing::e1]`, `[overlapping::p]`.
/// Its effective boolean value is "does the axis hold a matching node",
/// which `StructIndex::witnessed` answers from the first witness. Only
/// the seven extended (span-indexed) axes are probed: the tree-walk axes
/// are already output-local, and materializing them is cheap.
fn probe_of(pred: &QExpr) -> Option<(Axis, NodeTest)> {
    let QExpr::Path { start: QPathStart::Context, steps } = pred else { return None };
    let [step] = steps.as_slice() else { return None };
    if !step.predicates.is_empty() || step.strategy != StepStrategy::IndexedExtended {
        return None;
    }
    Some((step.axis, step.test.clone()))
}

/// Can the expression's value depend on the focus (context item, position,
/// size)? `false` ⇒ safe to evaluate once per step: literals, variables
/// (bound outside the predicate), absolute paths and calls that read no
/// focus (`root()`, `leaf-count()`) qualify; anything touching the focus —
/// `position()`/`last()`, relative paths, zero-argument context functions
/// like `string()` — does not, and direct constructors conservatively stay
/// per-candidate.
pub fn is_context_independent(e: &QExpr) -> bool {
    let mut dependent = false;
    e.walk_focus(&mut |x| {
        dependent |= match x {
            QExpr::ContextItem | QExpr::DirElem(_) => true,
            QExpr::Path { start: QPathStart::Context, .. } => true,
            QExpr::Call { name, args } => lookup(name).is_none_or(|f| f.reads_focus(args.len())),
            _ => false,
        }
    });
    !dependent
}

/// Evaluation order for an all-free predicate list, decided at
/// **evaluation** time from the current document's [`IndexStats`]: a
/// stable sort of the written indices, cheapest first. Compiled plans are
/// document-independent and cached across documents, so the
/// statistics-guided decision cannot be baked into the plan — the
/// evaluator asks per document instead.
pub fn stats_order(preds: &[QExpr], stats: &IndexStats) -> Vec<usize> {
    if preds.len() < 2 {
        return (0..preds.len()).collect();
    }
    let mut order: Vec<usize> = (0..preds.len()).collect();
    let costs: Vec<u64> = preds.iter().map(|p| cost(p, Some(stats))).collect();
    order.sort_by_key(|&i| costs[i]);
    order
}

/// A one-line human summary of a query sub-expression, for `--explain`
/// output. Lossy by design: enough to recognize the predicate, not to
/// re-parse it.
pub fn qexpr_summary(e: &QExpr) -> String {
    match e {
        QExpr::Literal(s) => format!("'{s}'"),
        QExpr::Number(n) => format!("{n}"),
        QExpr::Var(v) => format!("${v}"),
        // XPath's `.` is a step from the context node; both print alike.
        QExpr::ContextItem => ".".to_string(),
        QExpr::Path { .. } if *e == crate::xpath::dot() => ".".to_string(),
        QExpr::Neg(inner) => format!("-{}", qexpr_summary(inner)),
        QExpr::Or(a, b) => format!("{} or {}", qexpr_summary(a), qexpr_summary(b)),
        QExpr::And(a, b) => format!("{} and {}", qexpr_summary(a), qexpr_summary(b)),
        QExpr::Union(a, b) => format!("{} | {}", qexpr_summary(a), qexpr_summary(b)),
        QExpr::Compare { op, lhs, rhs } => {
            format!("{} {op:?} {}", qexpr_summary(lhs), qexpr_summary(rhs))
        }
        QExpr::Arith { op, lhs, rhs } => {
            format!("{} {op:?} {}", qexpr_summary(lhs), qexpr_summary(rhs))
        }
        QExpr::Range { lo, hi } => format!("{} to {}", qexpr_summary(lo), qexpr_summary(hi)),
        QExpr::Call { name, args } => {
            let args: Vec<String> = args.iter().map(qexpr_summary).collect();
            format!("{name}({})", args.join(", "))
        }
        QExpr::Path { start, steps } => {
            let mut out = match start {
                QPathStart::Root => "/".to_string(),
                QPathStart::Context => String::new(),
                QPathStart::Expr(e) => format!("({})", qexpr_summary(e)),
            };
            for (i, s) in steps.iter().enumerate() {
                if i > 0 || matches!(start, QPathStart::Expr(_)) {
                    out.push('/');
                }
                out.push_str(&format!("{}::{}", s.axis.name(), s.test));
                for q in &s.predicates {
                    out.push_str(&format!("[{}]", qexpr_summary(q)));
                }
            }
            out
        }
        QExpr::Filter { base, predicates } => {
            let mut out = format!("({})", qexpr_summary(base));
            for q in predicates {
                out.push_str(&format!("[{}]", qexpr_summary(q)));
            }
            out
        }
        QExpr::Sequence(es) => {
            let parts: Vec<String> = es.iter().map(qexpr_summary).collect();
            format!("({})", parts.join(", "))
        }
        QExpr::If { .. } => "if(…)".to_string(),
        QExpr::Flwor { .. } => "flwor(…)".to_string(),
        QExpr::Quantified { every, .. } => {
            if *every {
                "every(…)".to_string()
            } else {
                "some(…)".to_string()
            }
        }
        QExpr::DirElem(d) => format!("<{}>…</{}>", d.name, d.name),
    }
}

/// Render the optimized plan: the rewrite summary, then every path in the
/// optimized AST with per-step strategies, annotations, cardinality
/// estimates from the document's [`IndexStats`], and **actual**
/// cardinalities — each path is evaluated step by step on `ev` in the
/// query's top-level environment to measure them. A path whose start
/// cannot be evaluated there (it reads a FLWOR variable, say) reports
/// `actual ?`.
pub(crate) fn explain<'q>(
    ev: &mut Evaluator<'_>,
    env: &mut Env<'q>,
    optimized: &'q QExpr,
    report: &OptimizerReport,
    src: &str,
    stats: &IndexStats,
) -> String {
    let mut out = format!(
        "query: {}\nrewrites: {} fused, {} predicate runs reordered, {} batch-routed, \
         {} existential probes, {} hoisted predicates, {} chain joins\n",
        src,
        report.fused_steps,
        report.reordered_predicate_runs,
        report.batch_routed_steps,
        report.existential_probes,
        report.hoisted_predicates,
        report.chain_join_steps,
    );
    // Every path outside step and filter predicates — predicates render
    // inline under their step.
    let mut paths: Vec<(&QPathStart, &[QStep])> = Vec::new();
    optimized.walk_focus(&mut |e| {
        if let QExpr::Path { start, steps } = e {
            paths.push((start, steps));
        }
    });
    if paths.is_empty() {
        out.push_str("plan: no path expressions (per-step cardinalities not applicable)\n");
        return out;
    }
    let actual = |seq: &Option<Sequence>| seq.as_ref().map_or("?".into(), |s| s.len().to_string());
    for (pi, (start, steps)) in paths.iter().enumerate() {
        let (start_desc, mut current) = match start {
            QPathStart::Root => ("/".to_string(), Some(vec![Item::Node(NodeId::Root)])),
            QPathStart::Context => {
                ("context".to_string(), env.focus.as_ref().map(|(item, _, _)| vec![item.clone()]))
            }
            QPathStart::Expr(e) => (format!("({})", qexpr_summary(e)), ev.eval(e, env).ok()),
        };
        out.push_str(&format!(
            "path {}: start {} actual {}\n",
            pi + 1,
            start_desc,
            actual(&current)
        ));
        for (i, step) in steps.iter().enumerate() {
            current = current.and_then(|input| ev.eval_step(&input, step, env).ok());
            let estimate = match &step.test {
                NodeTest::Name { name, .. } => format!("{}", stats.name_count(name)),
                NodeTest::AnyElement { .. } => format!("{}", stats.element_count()),
                _ => "?".into(),
            };
            let chain = match &step.chain_outer {
                Some(outer) => format!(" chain-join(outer descendant::{outer})"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  step {}: {}::{}{} [{:?}{}] est {} actual {}\n",
                i + 1,
                step.axis.name(),
                step.test,
                chain,
                step.strategy,
                if step.preds_position_free { ", batch" } else { "" },
                estimate,
                actual(&current),
            ));
            for (qi, pred) in step.predicates.iter().enumerate() {
                let how = if step.pred_probes.get(qi).is_some_and(Option::is_some) {
                    "existential probe"
                } else if step.pred_hoistable.get(qi).copied().unwrap_or(false) {
                    "hoisted (evaluated once)"
                } else if step.preds_position_free {
                    "position-free filter"
                } else {
                    "per-candidate"
                };
                out.push_str(&format!(
                    "    predicate {}: {} — {}\n",
                    qi + 1,
                    qexpr_summary(pred),
                    how
                ));
            }
        }
    }
    out
}

fn reorder_free_runs(preds: &mut [QExpr]) -> u32 {
    let mut changed = 0;
    let mut i = 0;
    while i < preds.len() {
        if !is_free(&preds[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < preds.len() && is_free(&preds[i]) {
            i += 1;
        }
        let run = &mut preds[start..i];
        if run.len() > 1 {
            let costs: Vec<u64> = run.iter().map(|p| cost(p, None)).collect();
            if costs.windows(2).any(|w| w[0] > w[1]) {
                let mut keyed: Vec<(u64, QExpr)> =
                    costs.into_iter().zip(run.iter().cloned()).collect();
                keyed.sort_by_key(|(c, _)| *c);
                for (slot, (_, pred)) in run.iter_mut().zip(keyed) {
                    *slot = pred;
                }
                changed += 1;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::plan::StepStrategy;

    fn path_steps(e: &QExpr) -> &[QStep] {
        match e {
            QExpr::Path { steps, .. } => steps,
            other => panic!("expected a path, got {other:?}"),
        }
    }

    fn optimize_src(src: &str) -> (QExpr, OptimizerReport) {
        optimize(&parse_query(src).unwrap())
    }

    #[test]
    fn classification_table() {
        for (src, expected) in [
            ("/descendant::w[xancestor::p]", PredicateClass::PositionFree),
            ("/descendant::w[@n]", PredicateClass::PositionFree),
            ("/descendant::w[string(.) = 'a']", PredicateClass::PositionFree),
            ("/descendant::w[contains(string(.), 'a')]", PredicateClass::PositionFree),
            ("/descendant::w[child::a or xdescendant::b]", PredicateClass::PositionFree),
            // Nested positional predicates get a fresh focus: still free.
            ("/descendant::w[xancestor::p[1]]", PredicateClass::PositionFree),
            ("/descendant::w[2]", PredicateClass::Positional),
            ("/descendant::w[position() = 2]", PredicateClass::Positional),
            ("/descendant::w[last()]", PredicateClass::Positional),
            ("/descendant::w[position() < last()]", PredicateClass::Positional),
            ("/descendant::w[count(child::a)]", PredicateClass::Positional),
            ("/descendant::w[$v]", PredicateClass::Positional),
            ("/descendant::w[string-length(string(.)) - 2]", PredicateClass::Positional),
            // position() inside a function argument still reads the focus.
            ("/descendant::w[string(position()) = '1']", PredicateClass::Positional),
            // position() read through a FLWOR clause still pins the step.
            (
                "/descendant::w[some $x in (position()) satisfies $x = 1]",
                PredicateClass::Positional,
            ),
        ] {
            let ast = parse_query(src).unwrap();
            let pred = &path_steps(&ast)[0].predicates[0];
            assert_eq!(classify_predicate(pred), expected, "classifying predicate of `{src}`");
        }
    }

    #[test]
    fn reorder_is_cheapest_first_and_stops_at_positional() {
        let (opt, report) = optimize_src("/descendant::w[xancestor::p][@n][2][xfollowing::q][@m]");
        let step = &path_steps(&opt)[0];
        // Run 1 (before the positional [2]): @n now precedes xancestor::p.
        // Run 2 (after it): @m precedes xfollowing::q.
        let shown: Vec<String> = step.predicates.iter().map(|p| format!("{p:?}")).collect();
        assert!(shown[0].contains("Attribute"), "cheap attribute test first: {shown:?}");
        assert!(shown[1].contains("XAncestor"), "extended axis second: {shown:?}");
        assert!(shown[2].contains("Number"), "positional barrier untouched: {shown:?}");
        assert!(shown[3].contains("Attribute"), "cheap test first in run 2: {shown:?}");
        assert!(shown[4].contains("XFollowing"), "extended axis last: {shown:?}");
        assert_eq!(report.reordered_predicate_runs, 2);
        // A positional predicate anywhere keeps the step off the batch path.
        assert!(!step.preds_position_free);
    }

    #[test]
    fn fusion_blocked_by_positional_predicate_and_optimal_plans_report_zero() {
        // `//w[2]` means "second w child of each node" — not fusable.
        let (opt, report) = optimize_src("//w[2]");
        let steps = path_steps(&opt);
        assert_eq!(steps.len(), 2);
        assert_eq!(report.fused_steps, 0);
        assert_eq!(steps[1].axis, Axis::Child);
        assert_eq!(optimize_src("/descendant::w[1]/child::a").1.total(), 0);
    }

    #[test]
    fn chain_join_fuses_descendant_pairs_only() {
        let (opt, r) = optimize_src("/descendant::a/descendant::b");
        assert_eq!(path_steps(&opt).len(), 1);
        assert_eq!(path_steps(&opt)[0].chain_outer.as_deref(), Some("a"));
        assert_eq!(r.chain_join_steps, 1);
        // Blocked: a predicate on the outer step (the join has nowhere to
        // apply it), a positional predicate on the inner step, or a
        // hierarchy-filtered test.
        for src in [
            "/descendant::a[@n]/descendant::b",
            "/descendant::a/descendant::b[2]",
            "/descendant::a(\"h\")/descendant::b",
        ] {
            let (opt, r) = optimize_src(src);
            assert_eq!(path_steps(&opt).len(), 2, "`{src}` must not chain-join");
            assert_eq!(r.chain_join_steps, 0, "`{src}` must not chain-join");
        }
    }

    #[test]
    fn probe_and_hoist_near_misses() {
        // After the cheapest-first reorder the extended-axis predicate sits
        // second; only it probes.
        let (opt, report) = optimize_src("/descendant::w[xfollowing::e1][child::a]");
        let probes: Vec<bool> =
            path_steps(&opt)[0].pred_probes.iter().map(Option::is_some).collect();
        assert_eq!(probes, vec![false, true]);
        assert_eq!(report.existential_probes, 1);
        // A numeric-typed predicate is the position shorthand — never
        // probed; a nested predicate blocks the probe but not the batch
        // route.
        let (opt, r) = optimize_src("/descendant::w[count(xfollowing::e1)]");
        assert!(path_steps(&opt)[0].pred_probes.is_empty());
        assert_eq!(r.existential_probes, 0);
        let (opt, r) = optimize_src("/descendant::w[xfollowing::e1[1]]");
        assert!(path_steps(&opt)[0].preds_position_free);
        assert!(path_steps(&opt)[0].pred_probes.iter().all(Option::is_none));
        assert_eq!(r.existential_probes, 0);
        // Zero-argument calls that read no focus hoist.
        for src in [
            "/descendant::w[count(root()) = 1]",
            "/descendant::w[leaf-count() > 1]",
            "/descendant::w[hierarchies() = 'words']",
        ] {
            let (opt, r) = optimize_src(src);
            assert_eq!(r.hoisted_predicates, 1, "`{src}` hoists");
            assert!(path_steps(&opt)[0].pred_hoistable[0], "`{src}`");
        }
        // Context-dependent lookalikes never hoist: relative paths,
        // zero-argument context functions, focus readers.
        for src in [
            "/descendant::w[contains(string(.), 'a')]",
            "/descendant::w[string-length() > 1]",
            "/descendant::w[count(leaves()) > 1]",
            "/descendant::w[child::a]",
            "/descendant::w[position() > 1]",
        ] {
            let (opt, r) = optimize_src(src);
            assert_eq!(r.hoisted_predicates, 0, "`{src}` must not hoist");
            assert!(path_steps(&opt)[0].pred_hoistable.iter().all(|&h| !h), "`{src}`");
        }
    }

    /// The fixed weight table prices every extended-axis subquery alike
    /// (and above a string test), so it cannot know which name is rare;
    /// `stats_order` asks the document.
    #[test]
    fn stats_order_picks_the_rarer_name_first() {
        use mhx_goddag::{GoddagBuilder, StructIndex};
        let words = "<r><w>a</w><w>b</w><w>c</w><w>d</w><w>e</w><w>f</w><w>g</w><w>h</w></r>";
        // `w` covers every character; `rare` occurs once.
        let g = GoddagBuilder::new()
            .hierarchy("words", words)
            .hierarchy("marks", "<r><rare>a</rare>bcdefgh</r>")
            .build()
            .unwrap();
        let idx = StructIndex::build(&g);
        let (opt, _) = optimize_src("/descendant::r[xdescendant::w][xdescendant::rare]");
        let preds = &path_steps(&opt)[0].predicates;
        assert!(format!("{:?}", preds[0]).contains("\"w\""), "static order kept");
        assert_eq!(stats_order(preds, idx.stats()), vec![1, 0]);
        // A probe on a once-per-document name beats materializing every
        // candidate's string value, though the fixed table says otherwise.
        let (opt, _) = optimize_src("/descendant::r[contains(string(.), 'zz')][xdescendant::rare]");
        let preds2 = &path_steps(&opt)[0].predicates;
        assert!(matches!(&preds2[0], QExpr::Call { name, .. } if name == "contains"));
        assert_eq!(stats_order(preds2, idx.stats()), vec![1, 0]);
        // When the frequencies flip, so does the verdict.
        let g2 = GoddagBuilder::new()
            .hierarchy("words", "<r><w>a</w>bcdefgh</r>")
            .hierarchy("marks", words.replace('w', "rare"))
            .build()
            .unwrap();
        assert_eq!(stats_order(preds, StructIndex::build(&g2).stats()), vec![0, 1]);
    }

    #[test]
    fn impure_predicates_stay_per_node() {
        let ast = parse_query("/descendant::w[analyze-string(., 'a')/child::m]").unwrap();
        let (opt, report) = optimize(&ast);
        let step = &path_steps(&opt)[0];
        assert!(!step.preds_position_free, "analyze-string predicates must stay per-node");
        assert_eq!(report.batch_routed_steps, 0);
    }

    #[test]
    fn fusion_and_batch_routing_applied() {
        let ast = parse_query("//vline//w[xancestor::dmg]").unwrap();
        let (opt, report) = optimize(&ast);
        let steps = path_steps(&opt);
        // Fused to two indexed scans, then chain-joined into one step.
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].strategy, StepStrategy::NameIndex);
        assert_eq!(steps[0].chain_outer.as_deref(), Some("vline"));
        assert!(steps[0].preds_position_free);
        assert_eq!(report.fused_steps, 2);
        assert_eq!(report.chain_join_steps, 1);
        // The boolean extended-axis predicate is probe-annotated.
        assert_eq!(report.existential_probes, 1);
        assert!(steps[0].pred_probes[0].is_some());
    }

    #[test]
    fn hoist_and_probe_mirror_the_xpath_rules() {
        // Context-independent boolean predicate: hoisted.
        let ast = parse_query("/descendant::w[count(/descendant::e1) > 0]").unwrap();
        let (opt, report) = optimize(&ast);
        assert_eq!(report.hoisted_predicates, 1);
        assert!(path_steps(&opt)[0].pred_hoistable[0]);

        // Impure lookalike: analyze-string() keeps it per-candidate even
        // though it is an absolute path underneath.
        let ast2 = parse_query("/descendant::w[analyze-string(., 'a')/child::m]").unwrap();
        let (opt2, r2) = optimize(&ast2);
        assert_eq!(r2.hoisted_predicates, 0);
        assert!(path_steps(&opt2)[0].pred_hoistable.is_empty());

        // Positional context: no annotations at all.
        let ast3 = parse_query("/descendant::w[xfollowing::e1][2]").unwrap();
        let (opt3, r3) = optimize(&ast3);
        assert_eq!(r3.existential_probes, 0);
        assert!(path_steps(&opt3)[0].pred_probes.is_empty());
    }

    #[test]
    fn optimizer_reaches_flwor_bodies() {
        let ast = parse_query("for $l in //line[overlapping::w] return string($l)").unwrap();
        let (_, report) = optimize(&ast);
        assert_eq!(report.fused_steps, 1);
        assert_eq!(report.batch_routed_steps, 1);
    }
}
