//! The XQuery evaluator.
//!
//! Variables live on one stack ([`Env`]): a binding form pushes its
//! bindings, runs its body, and pops them again, on its error path too, so
//! an expression leaves the environment as it found it. A lookup scans
//! from the innermost binding. FLWOR expressions and quantifiers share one
//! loop (`Evaluator::tuples`), which binds one tuple at a time and runs the
//! body on it; a quantifier is that loop with an early stop, and only
//! `order by` keeps tuples, those of the clauses before it. A predicate
//! swaps each candidate in as the focus and the outer focus back after.
//!
//! Evaluation owns a clone-on-write handle to the KyGODDAG: read-only
//! queries never copy; the first `analyze-string()` call clones so it can
//! install temporary hierarchies, which die with the evaluator — the
//! paper's "temporary hierarchies are deleted after the entire query is
//! evaluated" (Definition 4, step 5). The clone shares every hierarchy
//! with the original (they sit behind `Arc`s): it copies the text, the
//! leaf boundaries and one pointer per hierarchy, and dropping it frees
//! only the temporary hierarchies.

use crate::analyze::AnalyzeMode;
use crate::ast::{ArithOp, AttrPiece, Clause, Comp, Content, DirElem, QExpr, QPathStart, QStep};
use crate::error::{Result, XQueryError};
use crate::item::{Item, Sequence};
use crate::plan;
use mhx_goddag::index::StructIndex;
use mhx_goddag::{Axis, Goddag, NodeId};
use mhx_xml::{Document, NodeId as OutId, NodeKind};
use mhx_xpath::NodeTest;
use std::borrow::Cow;

/// The longest sequence `lo to hi` may build. A range is materialized, so
/// without the cap a 25-byte `count(1 to 100000000000)` asks for terabytes;
/// past it the range is an evaluation error, raised before allocating.
pub const MAX_RANGE: usize = 1 << 24;

/// Evaluation options.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// How `analyze-string()` treats its pattern (see [`AnalyzeMode`]).
    pub analyze_mode: AnalyzeMode,
    /// Insert a single space between adjacent atomic values when
    /// serializing the result sequence (standard XQuery serialization).
    /// Off by default: the paper's printed outputs concatenate directly.
    pub space_separator: bool,
    /// Run queries through the plan-level optimizer ([`crate::opt`]):
    /// predicate reordering, `//x` fusion, set-at-a-time routing of
    /// position-free predicated steps, and the round-2 rewrites. **On by
    /// default**; flip off per connection to A/B the same cached plan.
    pub optimize: bool,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions { analyze_mode: AnalyzeMode::default(), space_separator: false, optimize: true }
    }
}

/// Step counters of one evaluation (both query languages), summed by the
/// engine into per-catalog and per-session totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Steps resolved set-at-a-time (one index pass for the whole context
    /// set) — predicate-free steps over pure node sets and
    /// optimizer-routed position-free predicated steps.
    pub batched_steps: u64,
    /// Steps evaluated from a plan the optimizer rewrote (fused,
    /// reordered, or batch-routed). Grows only while the `optimize` knob
    /// is on.
    pub rewritten_steps: u64,
    /// Rewrites the optimizer applied to the executed plans (0 when the
    /// `optimize` knob is off or the plan was already optimal).
    pub plan_rewrites: u64,
    /// Steps that answered at least one boolean axis predicate through a
    /// first-witness existential probe instead of materializing the axis.
    pub early_exit_steps: u64,
    /// Context-independent predicates evaluated once per step instead of
    /// once per candidate.
    pub hoisted_preds: u64,
    /// `descendant::a/descendant::b` pairs answered as one containment-
    /// chain merge join.
    pub chain_joins: u64,
}

impl EvalStats {
    /// Fold another snapshot's counters into this one.
    pub fn absorb(&mut self, other: &EvalStats) {
        self.batched_steps += other.batched_steps;
        self.rewritten_steps += other.rewritten_steps;
        self.plan_rewrites += other.plan_rewrites;
        self.early_exit_steps += other.early_exit_steps;
        self.hoisted_preds += other.hoisted_preds;
        self.chain_joins += other.chain_joins;
    }
}

/// Variable bindings, innermost last, and the focus (context item,
/// position, size). Names are borrowed from the query being evaluated. A
/// bound value is copied only when an expression reads it.
#[derive(Debug, Default, PartialEq)]
pub struct Env<'q> {
    pub(crate) vars: Vec<(&'q str, Sequence)>,
    pub focus: Option<(Item, usize, usize)>,
}

impl Env<'_> {
    /// The value of the innermost binding of `name`.
    fn get(&self, name: &str) -> Option<&Sequence> {
        self.vars.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

/// The evaluator's handle on a [`StructIndex`]: borrowed from the caller
/// (the engine facade shares its long-lived index), or owned after a lazy
/// (re)build — which happens on first indexed step, and again whenever
/// `analyze-string()` installs or removes a temporary hierarchy on the
/// copy-on-write goddag and bumps its version. The copy itself is cheap
/// (it shares the base hierarchies); the rebuild is not, since it indexes
/// every hierarchy again, and only an indexed step after the copy pays it.
enum IndexState<'g> {
    None,
    Borrowed(&'g StructIndex),
    // Boxed: a StructIndex is hundreds of bytes, the other variants one
    // pointer.
    Owned(Box<StructIndex>),
}

impl IndexState<'_> {
    fn get(&self) -> Option<&StructIndex> {
        match self {
            IndexState::None => None,
            IndexState::Borrowed(i) => Some(i),
            IndexState::Owned(i) => Some(i),
        }
    }
}

/// The evaluator. Holds the (copy-on-write) KyGODDAG, the structural index
/// over it, and the output arena for constructed nodes.
pub struct Evaluator<'g> {
    pub(crate) g: Cow<'g, Goddag>,
    pub(crate) out: Document,
    pub(crate) opts: EvalOptions,
    pub(crate) stats: EvalStats,
    index: IndexState<'g>,
}

impl<'g> Evaluator<'g> {
    pub fn new(g: &'g Goddag, opts: EvalOptions) -> Evaluator<'g> {
        Evaluator {
            g: Cow::Borrowed(g),
            out: Document::new(),
            opts,
            stats: EvalStats::default(),
            index: IndexState::None,
        }
    }

    /// Like [`Evaluator::new`], but starting from a pre-built index for `g`
    /// (the engine facade's). The evaluator falls back to its own rebuild
    /// the moment the copy-on-write goddag diverges.
    pub fn with_index(g: &'g Goddag, idx: &'g StructIndex, opts: EvalOptions) -> Evaluator<'g> {
        let mut ev = Evaluator::new(g, opts);
        if idx.is_current(g) {
            ev.index = IndexState::Borrowed(idx);
        }
        ev
    }

    /// Step counters accumulated since construction.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Make `self.index` current for `self.g`, rebuilding if missing or
    /// stale (after an `analyze-string()` mutation).
    fn ensure_index(&mut self) {
        let fresh = self.index.get().map(|i| i.is_current(self.g.as_ref())).unwrap_or(false);
        if !fresh {
            self.index = IndexState::Owned(Box::new(StructIndex::build(self.g.as_ref())));
        }
    }

    /// Candidate nodes for one compiled step from a set of KyGODDAG
    /// context nodes (sorted, deduplicated output), through
    /// [`plan::resolve_step`]. The index is (re)built only for the
    /// strategies that read it, so a tree walk after an `analyze-string()`
    /// pays no rebuild.
    fn step_candidates(&mut self, step: &QStep, ctxs: &[NodeId]) -> Vec<NodeId> {
        let idx = if step.strategy.reads_index() {
            self.ensure_index();
            self.index.get()
        } else {
            None
        };
        plan::resolve_step(self.g.as_ref(), idx, step.strategy, step.axis, &step.test, ctxs)
    }

    pub fn goddag(&self) -> &Goddag {
        self.g.as_ref()
    }

    pub fn output_doc(&self) -> &Document {
        &self.out
    }

    /// String value of an item.
    pub fn item_string(&self, item: &Item) -> String {
        match item {
            Item::Node(n) => self.g.string_value(*n).to_string(),
            Item::ONode(o) => self.out.string_value(*o),
            Item::Str(s) => s.clone(),
            Item::Num(n) => mhx_xpath::value::format_number(*n),
            Item::Bool(b) => b.to_string(),
        }
    }

    /// Numeric value of an item (NaN on non-numeric strings).
    pub fn item_number(&self, item: &Item) -> f64 {
        match item {
            Item::Num(n) => *n,
            Item::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            other => mhx_xpath::value::parse_number(&self.item_string(other)),
        }
    }

    /// Effective boolean value of a sequence.
    pub fn ebv(&self, seq: &[Item]) -> Result<bool> {
        match seq {
            [] => Ok(false),
            [first, ..] if first.is_node() => Ok(true),
            [single] => Ok(match single {
                Item::Str(s) => !s.is_empty(),
                Item::Num(n) => *n != 0.0 && !n.is_nan(),
                Item::Bool(b) => *b,
                _ => unreachable!("node case handled above"),
            }),
            _ => Err(XQueryError::new("effective boolean value of a multi-item atomic sequence")),
        }
    }

    /// Evaluate an expression to a sequence. `env` is left as it was
    /// found, whether evaluation succeeds or fails.
    pub fn eval<'q>(&mut self, e: &'q QExpr, env: &mut Env<'q>) -> Result<Sequence> {
        match e {
            QExpr::Literal(s) => Ok(vec![Item::Str(s.clone())]),
            QExpr::Number(n) => Ok(vec![Item::Num(*n)]),
            QExpr::Var(v) => env
                .get(v)
                .cloned()
                .ok_or_else(|| XQueryError::new(format!("unbound variable ${v}"))),
            QExpr::ContextItem => match &env.focus {
                Some((item, _, _)) => Ok(vec![item.clone()]),
                None => Err(XQueryError::new("no context item")),
            },
            QExpr::Sequence(es) => {
                let mut out = Vec::new();
                for e in es {
                    out.extend(self.eval(e, env)?);
                }
                Ok(out)
            }
            QExpr::Or(a, b) => {
                let l = self.eval(a, env)?;
                if self.ebv(&l)? {
                    return Ok(vec![Item::Bool(true)]);
                }
                let r = self.eval(b, env)?;
                Ok(vec![Item::Bool(self.ebv(&r)?)])
            }
            QExpr::And(a, b) => {
                let l = self.eval(a, env)?;
                if !self.ebv(&l)? {
                    return Ok(vec![Item::Bool(false)]);
                }
                let r = self.eval(b, env)?;
                Ok(vec![Item::Bool(self.ebv(&r)?)])
            }
            QExpr::Neg(e) => {
                let v = self.eval(e, env)?;
                match v.len() {
                    0 => Ok(vec![]),
                    1 => Ok(vec![Item::Num(-self.item_number(&v[0]))]),
                    _ => Err(XQueryError::new("unary minus on a multi-item sequence")),
                }
            }
            QExpr::Arith { op, lhs, rhs } => {
                arith(*op, self.eval_singleton_num(lhs, env)?, self.eval_singleton_num(rhs, env)?)
            }
            QExpr::Range { lo, hi } => {
                let l = self.eval_singleton_num(lo, env)?;
                let h = self.eval_singleton_num(hi, env)?;
                let (Some(l), Some(h)) = (l, h) else { return Ok(vec![]) };
                // NaN and the infinities have no whole part either.
                if let Some(b) = [l, h].into_iter().find(|b| b.fract() != 0.0) {
                    let b = mhx_xpath::value::format_number(b);
                    return Err(XQueryError::new(format!("range bound {b} is not an integer")));
                }
                let (l, h) = (l as i64, h as i64);
                if i128::from(h) - i128::from(l) >= MAX_RANGE as i128 {
                    return Err(XQueryError::new(format!(
                        "range {l} to {h} is longer than {MAX_RANGE} items"
                    )));
                }
                Ok((l..=h).map(|i| Item::Num(i as f64)).collect())
            }
            QExpr::Compare { op, lhs, rhs } => {
                let (l, r) = (self.eval(lhs, env)?, self.eval(rhs, env)?);
                self.compare(*op, &l, &r)
            }
            QExpr::Union(a, b) => {
                let mut l = self.eval(a, env)?;
                let r = self.eval(b, env)?;
                l.extend(r);
                if l.iter().any(|i| !i.is_node()) {
                    return Err(XQueryError::new("`|` requires node operands"));
                }
                self.sort_dedup_items(&mut l);
                Ok(l)
            }
            QExpr::If { cond, then, els } => {
                let c = self.eval(cond, env)?;
                if self.ebv(&c)? {
                    self.eval(then, env)
                } else {
                    self.eval(els, env)
                }
            }
            QExpr::Quantified { every, binds, satisfies } => {
                // The answer unless some tuple decides otherwise.
                let mut answer = *every;
                self.tuples(binds, env, &mut |ev, env| {
                    let v = ev.eval(satisfies, env)?;
                    if ev.ebv(&v)? == *every {
                        return Ok(true);
                    }
                    answer = !*every;
                    Ok(false)
                })?;
                Ok(vec![Item::Bool(answer)])
            }
            QExpr::Flwor { clauses, ret } => {
                let mut out = Vec::new();
                self.tuples(clauses, env, &mut |ev, env| {
                    out.extend(ev.eval(ret, env)?);
                    Ok(true)
                })?;
                Ok(out)
            }
            QExpr::Call { name, args } => crate::functions::call(self, name, args, env),
            QExpr::Filter { base, predicates } => {
                let mut items = self.eval(base, env)?;
                for p in predicates {
                    items = self.apply_predicate(items, p, env, false)?;
                }
                Ok(items)
            }
            QExpr::Path { start, steps } => self.eval_path(start, steps, env),
            QExpr::DirElem(d) => {
                let o = self.eval_constructor(d, env)?;
                Ok(vec![Item::ONode(o)])
            }
        }
    }

    fn eval_singleton_num<'q>(&mut self, e: &'q QExpr, env: &mut Env<'q>) -> Result<Option<f64>> {
        let v = self.eval(e, env)?;
        match v.len() {
            0 => Ok(None),
            1 => Ok(Some(self.item_number(&v[0]))),
            _ => Err(XQueryError::new("expected a singleton numeric operand")),
        }
    }

    fn compare(&self, op: Comp, l: &[Item], r: &[Item]) -> Result<Sequence> {
        match op {
            Comp::Eq | Comp::Ne | Comp::Lt | Comp::Le | Comp::Gt | Comp::Ge => {
                // General comparison: existential over atomized pairs.
                let mut found = false;
                'outer: for a in l {
                    for b in r {
                        if self.compare_pair(op, a, b) {
                            found = true;
                            break 'outer;
                        }
                    }
                }
                Ok(vec![Item::Bool(found)])
            }
            Comp::VEq | Comp::VNe | Comp::VLt | Comp::VLe | Comp::VGt | Comp::VGe => {
                if l.is_empty() || r.is_empty() {
                    return Ok(vec![]);
                }
                if l.len() > 1 || r.len() > 1 {
                    return Err(XQueryError::new("value comparison on multi-item sequence"));
                }
                let g = match op {
                    Comp::VEq => Comp::Eq,
                    Comp::VNe => Comp::Ne,
                    Comp::VLt => Comp::Lt,
                    Comp::VLe => Comp::Le,
                    Comp::VGt => Comp::Gt,
                    Comp::VGe => Comp::Ge,
                    _ => unreachable!("value comparisons only"),
                };
                Ok(vec![Item::Bool(self.compare_pair(g, &l[0], &r[0]))])
            }
            Comp::Is | Comp::Before | Comp::After => {
                if l.is_empty() || r.is_empty() {
                    return Ok(vec![]);
                }
                if l.len() > 1 || r.len() > 1 {
                    return Err(XQueryError::new("node comparison on multi-item sequence"));
                }
                let result = match (&l[0], &r[0]) {
                    (Item::Node(a), Item::Node(b)) => match op {
                        Comp::Is => a == b,
                        Comp::Before => self.g.cmp_order(*a, *b) == std::cmp::Ordering::Less,
                        Comp::After => self.g.cmp_order(*a, *b) == std::cmp::Ordering::Greater,
                        _ => unreachable!("node comparisons only"),
                    },
                    (Item::ONode(a), Item::ONode(b)) => match op {
                        Comp::Is => a == b,
                        Comp::Before => {
                            self.out.cmp_document_order(*a, *b) == std::cmp::Ordering::Less
                        }
                        Comp::After => {
                            self.out.cmp_document_order(*a, *b) == std::cmp::Ordering::Greater
                        }
                        _ => unreachable!("node comparisons only"),
                    },
                    // Mixed arenas: never identical; KyGODDAG nodes sort
                    // before constructed nodes (documented).
                    (Item::Node(_), Item::ONode(_)) => matches!(op, Comp::Before),
                    (Item::ONode(_), Item::Node(_)) => matches!(op, Comp::After),
                    _ => return Err(XQueryError::new("node comparison on non-node items")),
                };
                Ok(vec![Item::Bool(result)])
            }
        }
    }

    /// One atomized pair under a general comparison operator.
    fn compare_pair(&self, op: Comp, a: &Item, b: &Item) -> bool {
        let numeric = matches!(a, Item::Num(_)) || matches!(b, Item::Num(_));
        let boolean = matches!(a, Item::Bool(_)) || matches!(b, Item::Bool(_));
        if boolean {
            let (x, y) = (self.item_truthy(a), self.item_truthy(b));
            return cmp_ord(op, &x, &y);
        }
        if numeric {
            let (x, y) = (self.item_number(a), self.item_number(b));
            return match op {
                Comp::Eq => x == y,
                Comp::Ne => x != y,
                Comp::Lt => x < y,
                Comp::Le => x <= y,
                Comp::Gt => x > y,
                Comp::Ge => x >= y,
                _ => unreachable!("general comparisons only"),
            };
        }
        match op {
            Comp::Eq => self.item_string(a) == self.item_string(b),
            Comp::Ne => self.item_string(a) != self.item_string(b),
            // Untyped ordering comparisons are numeric in XPath 1.0 style.
            _ => {
                let (x, y) = (self.item_number(a), self.item_number(b));
                match op {
                    Comp::Lt => x < y,
                    Comp::Le => x <= y,
                    Comp::Gt => x > y,
                    Comp::Ge => x >= y,
                    _ => unreachable!("ordering comparisons only"),
                }
            }
        }
    }

    fn item_truthy(&self, i: &Item) -> bool {
        match i {
            Item::Bool(b) => *b,
            Item::Num(n) => *n != 0.0 && !n.is_nan(),
            Item::Str(s) => !s.is_empty(),
            node => !self.item_string(node).is_empty(),
        }
    }

    /// Bind `clauses` one tuple at a time, in order, and run `body` on
    /// each tuple with its bindings pushed; `body` answers `Ok(false)` to
    /// stop the loop, and then so does this. Each clause is one level of
    /// recursion (the parsers count it as one level of nesting); an
    /// `order by` first collects the tuples of the clauses before it, with
    /// copies of their bindings, and sorts them stably. The `let` and
    /// `where` clauses before the first `for` bind once, outside those
    /// tuples, as they do without `order by`. Every binding is popped
    /// again before this returns, on the error path too.
    fn tuples<'q>(
        &mut self,
        clauses: &'q [Clause],
        env: &mut Env<'q>,
        body: &mut dyn FnMut(&mut Self, &mut Env<'q>) -> Result<bool>,
    ) -> Result<bool> {
        let outer = env.vars.len();
        let order_by = match clauses.first() {
            Some(Clause::Let { .. } | Clause::Where(_)) => None,
            _ => clauses.iter().rposition(|c| matches!(c, Clause::OrderBy { .. })),
        };
        if let Some(k) = order_by {
            let Clause::OrderBy { keys } = &clauses[k] else { unreachable!("found above") };
            let mut sorted = Vec::new();
            self.tuples(&clauses[..k], env, &mut |ev, env| {
                let mut ks = Vec::with_capacity(keys.len());
                for spec in keys {
                    let v = ev.eval(&spec.key, env)?;
                    ks.push(match v.first() {
                        None => OrdKey::Empty,
                        Some(Item::Num(n)) => OrdKey::Num(*n),
                        Some(item) => OrdKey::Str(ev.item_string(item)),
                    });
                }
                sorted.push((ks, env.vars[outer..].to_vec()));
                Ok(true)
            })?;
            sorted.sort_by(|(a, _), (b, _)| {
                for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                    let ord = x.cmp_key(y);
                    let ord = if keys[i].descending { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            for (_, bound) in sorted {
                env.vars.extend(bound);
                let go_on = self.tuples(&clauses[k + 1..], env, body);
                env.vars.truncate(outer);
                if !go_on? {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
        let Some((clause, rest)) = clauses.split_first() else { return body(self, env) };
        match clause {
            Clause::For { var, at, seq } => {
                for (i, item) in self.eval(seq, env)?.into_iter().enumerate() {
                    env.vars.push((var, vec![item]));
                    if let Some(at) = at {
                        env.vars.push((at, vec![Item::Num((i + 1) as f64)]));
                    }
                    let go_on = self.tuples(rest, env, body);
                    env.vars.truncate(outer);
                    if !go_on? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Clause::Let { var, expr } => {
                let v = self.eval(expr, env)?;
                env.vars.push((var, v));
                let go_on = self.tuples(rest, env, body);
                env.vars.truncate(outer);
                go_on
            }
            Clause::Where(cond) => {
                let v = self.eval(cond, env)?;
                if self.ebv(&v)? {
                    self.tuples(rest, env, body)
                } else {
                    Ok(true)
                }
            }
            Clause::OrderBy { .. } => unreachable!("order by is split off above"),
        }
    }

    // ---------- paths ----------

    fn eval_path<'q>(
        &mut self,
        start: &'q QPathStart,
        steps: &'q [QStep],
        env: &mut Env<'q>,
    ) -> Result<Sequence> {
        let mut current: Sequence = match start {
            QPathStart::Root => vec![Item::Node(NodeId::Root)],
            QPathStart::Context => match &env.focus {
                Some((item, _, _)) => vec![item.clone()],
                None => return Err(XQueryError::new("relative path with no context item")),
            },
            QPathStart::Expr(e) => self.eval(e, env)?,
        };
        for step in steps {
            current = self.eval_step(&current, step, env)?;
        }
        Ok(current)
    }

    pub(crate) fn eval_step<'q>(
        &mut self,
        input: &[Item],
        step: &'q QStep,
        env: &mut Env<'q>,
    ) -> Result<Sequence> {
        // Containment-chain join: this step absorbed a predicate-free
        // `descendant::<outer>` step. Over pure KyGODDAG input the pair
        // resolves as one merge join over the laminar containment chains;
        // anything else (constructed nodes in the context) falls back to
        // the two steps the join stands for.
        let Some(outer_name) = &step.chain_outer else { return self.plain_step(input, step, env) };
        let Some(ctxs) = goddag_nodes(input) else {
            let outer = QStep::new(
                Axis::Descendant,
                NodeTest::Name { name: outer_name.clone(), hierarchies: None },
                Vec::new(),
            );
            // Predicate-free: the outer step reads no environment.
            let mid = self.plain_step(input, &outer, &mut Env::default())?;
            return self.plain_step(&mid, step, env);
        };
        let NodeTest::Name { name, .. } = &step.test else {
            unreachable!("chain joins are only planned for plain name tests");
        };
        self.stats.batched_steps += 1;
        self.stats.rewritten_steps += 1;
        self.stats.chain_joins += 1;
        self.ensure_index();
        let g = self.g.as_ref();
        let idx = self.index.get().expect("ensure_index populated the slot");
        let items: Sequence = idx
            .descendant_chain_batch(g, outer_name, name, &ctxs)
            .into_iter()
            .map(Item::Node)
            .collect();
        self.apply_free_predicates(items, step, env)
    }

    /// One step as written, leaving aside any chain join it absorbed.
    fn plain_step<'q>(
        &mut self,
        input: &[Item],
        step: &'q QStep,
        env: &mut Env<'q>,
    ) -> Result<Sequence> {
        // `.` — a predicate-free `self::node()` step from one node — is that
        // node: the hot case of per-candidate predicates such as
        // `[contains(string(.), 'x')]`, answered without a step pass.
        if let [item] = input {
            if item.is_node()
                && step.axis == Axis::SelfAxis
                && step.test == (NodeTest::AnyNode { hierarchies: None })
                && step.predicates.is_empty()
            {
                return Ok(vec![item.clone()]);
            }
        }
        // Batched fast path: a pure KyGODDAG node set and either no
        // predicates or only optimizer-certified position-free *pure*
        // predicates. Predicate-free: nothing evaluates per candidate, so
        // no `analyze-string()` mutation can occur mid-step. Batch-routed:
        // the optimizer proved the predicates cannot observe the focus
        // position and never mutate the goddag, so filtering the
        // deduplicated union once equals per-node filter-then-union.
        let batchable = step.predicates.is_empty() || step.preds_position_free;
        if let Some(ctxs) = batchable.then(|| goddag_nodes(input)).flatten() {
            self.stats.batched_steps += 1;
            if step.rewritten {
                self.stats.rewritten_steps += 1;
            }
            let items: Sequence =
                self.step_candidates(step, &ctxs).into_iter().map(Item::Node).collect();
            return self.apply_free_predicates(items, step, env);
        }
        if step.rewritten {
            self.stats.rewritten_steps += 1;
        }
        let mut out: Sequence = Vec::new();
        for item in input {
            let candidates: Sequence = match item {
                // One context at a time, the index re-checked each time: a
                // predicate's `analyze-string()` mutates the goddag, and the
                // next context must see it, exactly like the naive walk.
                Item::Node(n) => {
                    self.step_candidates(step, &[*n]).into_iter().map(Item::Node).collect()
                }
                Item::ONode(o) => self.onode_axis(*o, step.axis, &step.test)?,
                _ => {
                    return Err(XQueryError::new("path step applied to an atomic value"));
                }
            };
            let mut candidates = candidates;
            for p in &step.predicates {
                candidates = self.apply_predicate(candidates, p, env, step.axis.is_reverse())?;
            }
            out.extend(candidates);
        }
        self.sort_dedup_items(&mut out);
        Ok(out)
    }

    /// Predicate application with position()/last() focus; numeric
    /// predicate = position shorthand. A numeric literal keeps the item at
    /// its position without evaluating anything per item: the `k`-th, or on
    /// a reverse axis the `k`-th from the end; nothing unless `k` is a whole
    /// number in `1..=size`.
    pub(crate) fn apply_predicate<'q>(
        &mut self,
        mut items: Sequence,
        pred: &'q QExpr,
        env: &mut Env<'q>,
        reverse: bool,
    ) -> Result<Sequence> {
        let size = items.len();
        if let QExpr::Number(k) = *pred {
            if k.fract() != 0.0 || !(1.0..=size as f64).contains(&k) {
                return Ok(Vec::new());
            }
            let k = k as usize;
            return Ok(vec![items.swap_remove(if reverse { size - k } else { k - 1 })]);
        }
        let outer = env.focus.take();
        let out = Vec::with_capacity(size);
        let kept = items.into_iter().enumerate().try_fold(out, |mut out, (i, item)| {
            let position = if reverse { size - i } else { i + 1 };
            env.focus = Some((item, position, size));
            let keep = self.eval(pred, env).and_then(|v| match v.as_slice() {
                [Item::Num(n)] => Ok((position as f64) == *n),
                other => self.ebv(other),
            });
            let (item, _, _) = env.focus.take().expect("evaluation restores the focus");
            if keep? {
                out.push(item);
            }
            Ok(out)
        });
        env.focus = outer;
        kept
    }

    /// Apply an all-free (position-free, pure) predicate list to a batched
    /// candidate set, honouring the optimizer's annotations:
    ///
    /// * predicates run in [`crate::opt::stats_order`] (per-document name
    ///   frequencies, not the fixed weight table);
    /// * hoistable (context-independent) predicates evaluate **once**;
    /// * probe-annotated predicates answer for the whole candidate list in
    ///   one pass of a `StructIndex::witnessed` predicate — first witness
    ///   per candidate, no materialization;
    /// * everything else falls back to [`Evaluator::apply_predicate`].
    ///
    /// Free predicates are pure (no `analyze-string()`), so the index
    /// stays current across the whole list.
    fn apply_free_predicates<'q>(
        &mut self,
        mut items: Sequence,
        step: &'q QStep,
        env: &mut Env<'q>,
    ) -> Result<Sequence> {
        if step.predicates.is_empty() {
            return Ok(items);
        }
        self.ensure_index();
        let order = {
            let idx = self.index.get().expect("ensure_index populated the slot");
            crate::opt::stats_order(&step.predicates, idx.stats())
        };
        let mut used_probe = false;
        for pi in order {
            if items.is_empty() {
                break;
            }
            let pred = &step.predicates[pi];
            if step.pred_hoistable.get(pi).copied().unwrap_or(false) {
                let v = self.eval(pred, env)?;
                // Hoisted predicates are statically never numeric; keep
                // the positional shorthand safe anyway by falling through
                // to the per-candidate rule if a number shows up.
                if !matches!(v.as_slice(), [Item::Num(_)]) {
                    self.stats.hoisted_preds += 1;
                    if !self.ebv(&v)? {
                        items.clear();
                        break;
                    }
                    continue;
                }
            }
            if let Some(Some((axis, test))) = step.pred_probes.get(pi) {
                let axis = *axis;
                let g = self.g.as_ref();
                let idx = self.index.get().expect("ensure_index populated the slot");
                let mut has = idx.witnessed(g, axis, plan::element_name(test), |w| {
                    mhx_xpath::node_test_matches(g, axis, w, test)
                });
                items.retain(|it| match it {
                    Item::Node(n) => has(*n),
                    _ => unreachable!("the batched paths only carry goddag nodes"),
                });
                used_probe = true;
                continue;
            }
            items = self.apply_predicate(items, pred, env, step.axis.is_reverse())?;
        }
        if used_probe {
            self.stats.early_exit_steps += 1;
        }
        Ok(items)
    }

    /// Standard axes over constructed nodes (output arena). Extended axes
    /// and hierarchy-parameterized tests make no sense there and error.
    fn onode_axis(&self, o: OutId, axis: Axis, test: &NodeTest) -> Result<Sequence> {
        let nodes: Vec<OutId> = match axis {
            Axis::Child => self.out.children(o).collect(),
            Axis::Descendant => self.out.descendants(o).collect(),
            Axis::DescendantOrSelf => {
                let mut v = vec![o];
                v.extend(self.out.descendants(o));
                v
            }
            Axis::Parent => self.out.parent(o).into_iter().collect(),
            Axis::Ancestor => self.out.ancestors(o).collect(),
            Axis::AncestorOrSelf => {
                let mut v = vec![o];
                v.extend(self.out.ancestors(o));
                v
            }
            Axis::SelfAxis => vec![o],
            Axis::FollowingSibling => {
                let mut v = Vec::new();
                let mut cur = self.out.next_sibling(o);
                while let Some(s) = cur {
                    v.push(s);
                    cur = self.out.next_sibling(s);
                }
                v
            }
            Axis::PrecedingSibling => {
                let mut v = Vec::new();
                let mut cur = self.out.prev_sibling(o);
                while let Some(s) = cur {
                    v.push(s);
                    cur = self.out.prev_sibling(s);
                }
                v.reverse();
                v
            }
            Axis::Attribute => {
                return Err(XQueryError::new(
                    "attribute axis on constructed nodes is not supported",
                ));
            }
            _ => {
                return Err(XQueryError::new(format!(
                    "axis {} requires KyGODDAG nodes (context is a constructed node)",
                    axis.name()
                )));
            }
        };
        Ok(nodes.into_iter().filter(|&m| self.onode_test(m, test)).map(Item::ONode).collect())
    }

    fn onode_test(&self, o: OutId, test: &NodeTest) -> bool {
        match test {
            NodeTest::Name { name, hierarchies } => {
                hierarchies.is_none()
                    && matches!(self.out.kind(o), NodeKind::Element { name: n, .. } if n == name)
            }
            NodeTest::AnyElement { hierarchies } => hierarchies.is_none() && self.out.is_element(o),
            NodeTest::Text { hierarchies } => hierarchies.is_none() && self.out.is_text(o),
            NodeTest::AnyNode { hierarchies } => hierarchies.is_none(),
            NodeTest::Leaf => false,
            NodeTest::Comment => matches!(self.out.kind(o), NodeKind::Comment(_)),
        }
    }

    /// Sort mixed node items in document order (KyGODDAG nodes by
    /// Definition 3, constructed nodes after them in output-arena order)
    /// and drop duplicates. Non-node items keep their relative order at
    /// the end (paths never produce them).
    pub(crate) fn sort_dedup_items(&self, items: &mut Vec<Item>) {
        let g = self.g.as_ref();
        items.sort_by(|a, b| match (a, b) {
            (Item::Node(x), Item::Node(y)) => g.cmp_order(*x, *y),
            (Item::ONode(x), Item::ONode(y)) => x.cmp(y),
            (Item::Node(_), Item::ONode(_)) => std::cmp::Ordering::Less,
            (Item::ONode(_), Item::Node(_)) => std::cmp::Ordering::Greater,
            _ => std::cmp::Ordering::Equal,
        });
        items.dedup_by(|a, b| match (a, b) {
            (Item::Node(x), Item::Node(y)) => x == y,
            (Item::ONode(x), Item::ONode(y)) => x == y,
            _ => false,
        });
    }

    // ---------- constructors ----------

    fn eval_constructor<'q>(&mut self, d: &'q DirElem, env: &mut Env<'q>) -> Result<OutId> {
        let el = self.out.create_element(&d.name);
        for (aname, pieces) in &d.attrs {
            let mut value = String::new();
            for p in pieces {
                match p {
                    AttrPiece::Text(t) => value.push_str(t),
                    AttrPiece::Expr(e) => {
                        let seq = self.eval(e, env)?;
                        for (i, item) in seq.iter().enumerate() {
                            if i > 0 {
                                value.push(' ');
                            }
                            value.push_str(&self.item_string(item));
                        }
                    }
                }
            }
            self.out.set_attr(el, aname.clone(), value);
        }
        for piece in &d.content {
            match piece {
                Content::Text(t) => {
                    let tn = self.out.create_text(t.clone());
                    self.out.append_child(el, tn);
                }
                Content::Elem(inner) => {
                    let child = self.eval_constructor(inner, env)?;
                    self.out.append_child(el, child);
                }
                Content::Expr(e) => {
                    let seq = self.eval(e, env)?;
                    for item in seq {
                        match item {
                            Item::Node(n) => {
                                let copy = self.deep_copy_goddag(n);
                                self.out.append_child(el, copy);
                            }
                            Item::ONode(o) => {
                                let copy = self.deep_copy_onode(o);
                                self.out.append_child(el, copy);
                            }
                            atomic => {
                                let s = self.item_string(&atomic);
                                let tn = self.out.create_text(s);
                                self.out.append_child(el, tn);
                            }
                        }
                    }
                }
            }
        }
        Ok(el)
    }

    /// Deep-copy a KyGODDAG node into the output arena (XQuery constructor
    /// copy semantics). Elements copy their own hierarchy's subtree; text,
    /// leaf and attribute nodes copy their string value; the root copies
    /// the base text.
    pub(crate) fn deep_copy_goddag(&mut self, n: NodeId) -> OutId {
        match n {
            NodeId::Elem { .. } => {
                let name = self.g.name(n).unwrap_or("?").to_string();
                let el = self.out.create_element(name);
                for (k, v) in self.g.attrs(n).to_vec() {
                    self.out.set_attr(el, k, v);
                }
                for c in self.g.children(n) {
                    match c {
                        NodeId::Elem { .. } => {
                            let child = self.deep_copy_goddag(c);
                            self.out.append_child(el, child);
                        }
                        NodeId::Text { .. } => {
                            let t = self.g.string_value(c).to_string();
                            let tn = self.out.create_text(t);
                            self.out.append_child(el, tn);
                        }
                        _ => {}
                    }
                }
                el
            }
            other => {
                let t = self.g.string_value(other).to_string();
                self.out.create_text(t)
            }
        }
    }

    fn deep_copy_onode(&mut self, o: OutId) -> OutId {
        match self.out.kind(o).clone() {
            NodeKind::Element { name, attrs } => {
                let el = self.out.create_element(name);
                for a in attrs {
                    self.out.set_attr(el, a.name, a.value);
                }
                let kids: Vec<OutId> = self.out.children(o).collect();
                for c in kids {
                    let copy = self.deep_copy_onode(c);
                    self.out.append_child(el, copy);
                }
                el
            }
            NodeKind::Text(t) => self.out.create_text(t),
            NodeKind::Comment(t) => self.out.create_comment(t),
            NodeKind::Pi { target, data } => self.out.create_pi(target, data),
            NodeKind::Document => {
                let kids: Vec<OutId> = self.out.children(o).collect();
                // Copy children under a fresh element-less parent is not
                // representable; document nodes never appear as items.
                kids.first()
                    .map(|&c| self.deep_copy_onode(c))
                    .unwrap_or_else(|| self.out.create_text(String::new()))
            }
        }
    }
}

/// The items of `input` as KyGODDAG nodes, if they all are.
fn goddag_nodes(input: &[Item]) -> Option<Vec<NodeId>> {
    input.iter().map(Item::as_goddag_node).collect()
}

#[derive(Debug, Clone)]
enum OrdKey {
    Empty,
    Num(f64),
    Str(String),
}

impl OrdKey {
    fn cmp_key(&self, other: &OrdKey) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        match (self, other) {
            (OrdKey::Empty, OrdKey::Empty) => Equal,
            (OrdKey::Empty, _) => Less, // empty least
            (_, OrdKey::Empty) => Greater,
            (OrdKey::Num(a), OrdKey::Num(b)) => a.partial_cmp(b).unwrap_or(Equal),
            (a, b) => a.as_str().cmp(&b.as_str()),
        }
    }

    fn as_str(&self) -> String {
        match self {
            OrdKey::Empty => String::new(),
            OrdKey::Num(n) => mhx_xpath::value::format_number(*n),
            OrdKey::Str(s) => s.clone(),
        }
    }
}

fn cmp_ord(op: Comp, a: &bool, b: &bool) -> bool {
    match op {
        Comp::Eq => a == b,
        Comp::Ne => a != b,
        Comp::Lt => a < b,
        Comp::Le => a <= b,
        Comp::Gt => a > b,
        Comp::Ge => a >= b,
        _ => unreachable!("general comparisons only"),
    }
}

/// `a op b`, or the empty sequence if an operand is empty.
fn arith(op: ArithOp, a: Option<f64>, b: Option<f64>) -> Result<Sequence> {
    let (Some(a), Some(b)) = (a, b) else { return Ok(vec![]) };
    let v = match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => a / b,
        ArithOp::IDiv if b == 0.0 => return Err(XQueryError::new("integer division by zero")),
        ArithOp::IDiv => (a / b).trunc(),
        ArithOp::Mod => a % b,
    };
    Ok(vec![Item::Num(v)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use mhx_goddag::GoddagBuilder;

    /// Whether evaluation succeeds or fails inside a clause, a binding or
    /// a predicate, the environment ends holding exactly the bindings and
    /// focus it held before, with the optimizer's plan and without.
    #[test]
    fn evaluation_leaves_the_environment_as_it_found_it() {
        let g = GoddagBuilder::new().hierarchy("w", "<r><w>a</w><w>b</w></r>").build().unwrap();
        let failing = [
            "for $x in (1, 2) return $x idiv 0",
            "for $x at $i in (1, 2) let $y := $i idiv 0 return $y",
            "let $y := 1 for $z in ($y, $y idiv 0) return $z",
            "for $x in (1, 2) where $x idiv 0 return $x",
            "for $x in (1, 2) order by $x idiv 0 return $x",
            "for $x in (1, 2) order by $x descending return $x idiv 0",
            "for $x in (1, 2) order by $x for $y in (3, $x idiv 0) return $y",
            "some $x in (1, 2), $y in (3, 4) satisfies $y idiv 0",
            "every $x in (1, 2) satisfies $x idiv 0",
            "/descendant::w[. idiv 0]",
            "/descendant::w[string(. idiv 0)]",
            "(1, 2)[for $x in (1, 2) return $x idiv 0]",
            "$outer[position() idiv 0]",
            "count(/descendant::w[some $y in (1) satisfies $y idiv 0])",
        ];
        let passing = [
            "for $x at $i in (1, 2) let $y := $x order by $y descending return ($x, $i, $outer)",
            "some $x in (1, 2) satisfies $x = 2",
            "/descendant::w[position() = $x idiv 4][string(.)]",
            "($outer, $x)[last()]",
        ];
        for (q, fails) in
            failing.iter().map(|q| (q, true)).chain(passing.iter().map(|q| (q, false)))
        {
            let ast = parse_query(q).unwrap();
            for plan in [ast.clone(), crate::opt::optimize(&ast).0] {
                let outer = || Env {
                    vars: vec![("outer", vec![Item::Num(7.0)]), ("x", vec![Item::Num(8.0)])],
                    focus: Some((Item::Str("focus".into()), 2, 3)),
                };
                let mut env = outer();
                let result = Evaluator::new(&g, EvalOptions::default()).eval(&plan, &mut env);
                match result {
                    Err(e) => assert!(fails && e.msg.contains("division by zero"), "`{q}`: {e}"),
                    Ok(v) => assert!(!fails, "`{q}` answered {v:?}"),
                }
                assert_eq!(env, outer(), "`{q}`");
            }
        }
    }
}
