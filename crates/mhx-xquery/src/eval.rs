//! The XQuery evaluator.
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
use mhx_goddag::index::StructIndex;
use mhx_goddag::{Axis, Goddag, NodeId};
use mhx_xml::{Document, NodeId as OutId, NodeKind};
use mhx_xpath::plan;
use mhx_xpath::{NodeTest, StepStrategy};
use std::borrow::Cow;
use std::collections::BTreeMap;

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

/// Variable bindings + focus (context item, position, size).
#[derive(Debug, Clone, Default)]
pub struct Env {
    pub vars: BTreeMap<String, Sequence>,
    pub focus: Option<(Item, usize, usize)>,
}

impl Env {
    pub fn with_var(mut self, name: impl Into<String>, v: Sequence) -> Env {
        self.vars.insert(name.into(), v);
        self
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

    /// Candidate nodes for one compiled step from a KyGODDAG context node,
    /// resolved through the shared plan layer. Computed per context node so
    /// a predicate that mutates the goddag (nested `analyze-string()`) is
    /// seen by subsequent context nodes, exactly like the naive walk.
    fn step_candidates(&mut self, step: &QStep, n: NodeId) -> Vec<NodeId> {
        if step.strategy == StepStrategy::AxisWalk {
            // The plain walk never touches the index; skip (re)builds.
            return plan::walk_step(self.g.as_ref(), step.axis, &step.test, n);
        }
        self.ensure_index();
        let idx = self.index.get().expect("ensure_index populated the slot");
        plan::resolve_step(self.g.as_ref(), idx, step.strategy, step.axis, &step.test, n)
    }

    /// Set-at-a-time form of [`Evaluator::step_candidates`]: one index pass
    /// for the whole context set (sorted, deduplicated output). Only taken
    /// for predicate-free steps, where no expression — hence no
    /// `analyze-string()` mutation — can run between context nodes.
    fn step_candidates_batch(&mut self, step: &QStep, ctxs: &[NodeId]) -> Vec<NodeId> {
        if step.strategy == StepStrategy::AxisWalk {
            // The plain walk never touches the index; skip (re)builds and
            // hoist the document-order sort-dedup to once per step.
            let g = self.g.as_ref();
            let mut out = Vec::new();
            for &n in ctxs {
                out.extend(plan::walk_step(g, step.axis, &step.test, n));
            }
            g.sort_nodes(&mut out);
            out.dedup();
            return out;
        }
        self.ensure_index();
        let g = self.g.as_ref();
        let idx = self.index.get().expect("ensure_index populated the slot");
        plan::resolve_step_batch(g, idx, step.strategy, step.axis, &step.test, ctxs)
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

    /// Evaluate an expression to a sequence.
    pub fn eval(&mut self, e: &QExpr, env: &Env) -> Result<Sequence> {
        match e {
            QExpr::Literal(s) => Ok(vec![Item::Str(s.clone())]),
            QExpr::Number(n) => Ok(vec![Item::Num(*n)]),
            QExpr::Var(v) => env
                .vars
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
            QExpr::Arith { op, lhs, rhs } => self.eval_arith(*op, lhs, rhs, env),
            QExpr::Range { lo, hi } => {
                let l = self.eval_singleton_num(lo, env)?;
                let h = self.eval_singleton_num(hi, env)?;
                let (Some(l), Some(h)) = (l, h) else { return Ok(vec![]) };
                let (l, h) = (l.round() as i64, h.round() as i64);
                if i128::from(h) - i128::from(l) >= MAX_RANGE as i128 {
                    return Err(XQueryError::new(format!(
                        "range {l} to {h} is longer than {MAX_RANGE} items"
                    )));
                }
                Ok((l..=h).map(|i| Item::Num(i as f64)).collect())
            }
            QExpr::Compare { op, lhs, rhs } => self.eval_compare(*op, lhs, rhs, env),
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
                let r = self.eval_quantified(*every, binds, satisfies, env)?;
                Ok(vec![Item::Bool(r)])
            }
            QExpr::Flwor { clauses, ret } => self.eval_flwor(clauses, ret, env),
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

    fn eval_singleton_num(&mut self, e: &QExpr, env: &Env) -> Result<Option<f64>> {
        let v = self.eval(e, env)?;
        match v.len() {
            0 => Ok(None),
            1 => Ok(Some(self.item_number(&v[0]))),
            _ => Err(XQueryError::new("expected a singleton numeric operand")),
        }
    }

    fn eval_arith(&mut self, op: ArithOp, lhs: &QExpr, rhs: &QExpr, env: &Env) -> Result<Sequence> {
        let (Some(a), Some(b)) =
            (self.eval_singleton_num(lhs, env)?, self.eval_singleton_num(rhs, env)?)
        else {
            return Ok(vec![]);
        };
        let v = match op {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
            ArithOp::IDiv => {
                if b == 0.0 {
                    return Err(XQueryError::new("integer division by zero"));
                }
                (a / b).trunc()
            }
            ArithOp::Mod => a % b,
        };
        Ok(vec![Item::Num(v)])
    }

    fn eval_compare(&mut self, op: Comp, lhs: &QExpr, rhs: &QExpr, env: &Env) -> Result<Sequence> {
        let l = self.eval(lhs, env)?;
        let r = self.eval(rhs, env)?;
        match op {
            Comp::Eq | Comp::Ne | Comp::Lt | Comp::Le | Comp::Gt | Comp::Ge => {
                // General comparison: existential over atomized pairs.
                let mut found = false;
                'outer: for a in &l {
                    for b in &r {
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

    fn eval_quantified(
        &mut self,
        every: bool,
        binds: &[(String, QExpr)],
        satisfies: &QExpr,
        env: &Env,
    ) -> Result<bool> {
        match binds.split_first() {
            None => {
                let v = self.eval(satisfies, env)?;
                self.ebv(&v)
            }
            Some(((var, seq_expr), rest)) => {
                let items = self.eval(seq_expr, env)?;
                for item in items {
                    let mut env2 = env.clone();
                    env2.vars.insert(var.clone(), vec![item]);
                    let r = self.eval_quantified(every, rest, satisfies, &env2)?;
                    if every && !r {
                        return Ok(false);
                    }
                    if !every && r {
                        return Ok(true);
                    }
                }
                Ok(every)
            }
        }
    }

    fn eval_flwor(&mut self, clauses: &[Clause], ret: &QExpr, env: &Env) -> Result<Sequence> {
        let mut frames: Vec<Env> = vec![env.clone()];
        for clause in clauses {
            match clause {
                Clause::For { var, at, seq } => {
                    let mut next = Vec::new();
                    for frame in &frames {
                        let items = self.eval(seq, frame)?;
                        for (i, item) in items.into_iter().enumerate() {
                            let mut f2 = frame.clone();
                            f2.vars.insert(var.clone(), vec![item]);
                            if let Some(at) = at {
                                f2.vars.insert(at.clone(), vec![Item::Num((i + 1) as f64)]);
                            }
                            next.push(f2);
                        }
                    }
                    frames = next;
                }
                Clause::Let { var, expr } => {
                    for frame in &mut frames {
                        let v = {
                            let frame_ro: &Env = frame;
                            self.eval(expr, frame_ro)?
                        };
                        frame.vars.insert(var.clone(), v);
                    }
                }
                Clause::Where(cond) => {
                    let mut kept = Vec::new();
                    for frame in frames {
                        let v = self.eval(cond, &frame)?;
                        if self.ebv(&v)? {
                            kept.push(frame);
                        }
                    }
                    frames = kept;
                }
                Clause::OrderBy { keys } => {
                    // Compute all keys, then stable-sort frames.
                    let mut keyed: Vec<(Vec<OrdKey>, Env)> = Vec::with_capacity(frames.len());
                    for frame in frames {
                        let mut ks = Vec::with_capacity(keys.len());
                        for spec in keys {
                            let v = self.eval(&spec.key, &frame)?;
                            let k = match v.first() {
                                None => OrdKey::Empty,
                                Some(Item::Num(n)) => OrdKey::Num(*n),
                                Some(item) => OrdKey::Str(self.item_string(item)),
                            };
                            ks.push(k);
                        }
                        keyed.push((ks, frame));
                    }
                    keyed.sort_by(|(a, _), (b, _)| {
                        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                            let ord = x.cmp_key(y);
                            let ord = if keys[i].descending { ord.reverse() } else { ord };
                            if ord != std::cmp::Ordering::Equal {
                                return ord;
                            }
                        }
                        std::cmp::Ordering::Equal
                    });
                    frames = keyed.into_iter().map(|(_, f)| f).collect();
                }
            }
        }
        let mut out = Vec::new();
        for frame in frames {
            out.extend(self.eval(ret, &frame)?);
        }
        Ok(out)
    }

    // ---------- paths ----------

    fn eval_path(&mut self, start: &QPathStart, steps: &[QStep], env: &Env) -> Result<Sequence> {
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

    pub(crate) fn eval_step(
        &mut self,
        input: &[Item],
        step: &QStep,
        env: &Env,
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
        // Containment-chain join: this step absorbed a predicate-free
        // `descendant::<outer>` step. Over pure KyGODDAG input the pair
        // resolves as one merge join over the laminar containment chains;
        // anything else (constructed nodes in the context) falls back to
        // the equivalent two-step form.
        if let Some(outer_name) = &step.chain_outer {
            if input.iter().all(|i| matches!(i, Item::Node(_))) {
                let ctxs: Vec<NodeId> = input
                    .iter()
                    .map(|i| match i {
                        Item::Node(n) => *n,
                        _ => unreachable!("guard above admits only goddag nodes"),
                    })
                    .collect();
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
                return self.apply_free_predicates(items, step, env);
            }
            let outer_step = QStep::new(
                Axis::Descendant,
                NodeTest::Name { name: outer_name.clone(), hierarchies: None },
                Vec::new(),
            );
            let mut inner = step.clone();
            inner.chain_outer = None;
            let mid = self.eval_step(input, &outer_step, env)?;
            return self.eval_step(&mid, &inner, env);
        }
        // Batched fast path: a pure KyGODDAG node set and either no
        // predicates or only optimizer-certified position-free *pure*
        // predicates. Predicate-free: nothing evaluates per candidate, so
        // no `analyze-string()` mutation can occur mid-step. Batch-routed:
        // the optimizer proved the predicates cannot observe the focus
        // position and never mutate the goddag, so filtering the
        // deduplicated union once equals per-node filter-then-union.
        let batchable = step.predicates.is_empty() || step.preds_position_free;
        if batchable && input.iter().all(|i| matches!(i, Item::Node(_))) {
            let ctxs: Vec<NodeId> = input
                .iter()
                .map(|i| match i {
                    Item::Node(n) => *n,
                    _ => unreachable!("guard above admits only goddag nodes"),
                })
                .collect();
            self.stats.batched_steps += 1;
            if step.rewritten {
                self.stats.rewritten_steps += 1;
            }
            let items: Sequence =
                self.step_candidates_batch(step, &ctxs).into_iter().map(Item::Node).collect();
            return self.apply_free_predicates(items, step, env);
        }
        if step.rewritten {
            self.stats.rewritten_steps += 1;
        }
        let mut out: Sequence = Vec::new();
        for item in input {
            let candidates: Sequence = match item {
                Item::Node(n) => {
                    self.step_candidates(step, *n).into_iter().map(Item::Node).collect()
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
    /// predicate = position shorthand.
    pub(crate) fn apply_predicate(
        &mut self,
        items: Sequence,
        pred: &QExpr,
        env: &Env,
        reverse: bool,
    ) -> Result<Sequence> {
        let size = items.len();
        let mut out = Vec::with_capacity(size);
        for (i, item) in items.into_iter().enumerate() {
            let position = if reverse { size - i } else { i + 1 };
            let mut env2 = env.clone();
            env2.focus = Some((item.clone(), position, size));
            let v = self.eval(pred, &env2)?;
            let keep = match v.as_slice() {
                [Item::Num(n)] => (position as f64) == *n,
                other => self.ebv(other)?,
            };
            if keep {
                out.push(item);
            }
        }
        Ok(out)
    }

    /// Apply an all-free (position-free, pure) predicate list to a batched
    /// candidate set, honouring the optimizer's annotations:
    ///
    /// * predicates run in [`crate::opt::stats_order`] (per-document name
    ///   frequencies, not the fixed weight table);
    /// * hoistable (context-independent) predicates evaluate **once**;
    /// * probe-annotated predicates answer per candidate through
    ///   `StructIndex::axis_exists` — first witness, no materialization;
    /// * everything else falls back to [`Evaluator::apply_predicate`].
    ///
    /// Free predicates are pure (no `analyze-string()`), so the index
    /// stays current across the whole list.
    fn apply_free_predicates(
        &mut self,
        mut items: Sequence,
        step: &QStep,
        env: &Env,
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
                items.retain(|it| match it {
                    Item::Node(n) => idx.axis_exists(g, axis, *n, |w| {
                        mhx_xpath::node_test_matches(g, axis, w, test)
                    }),
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

    fn eval_constructor(&mut self, d: &DirElem, env: &Env) -> Result<OutId> {
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
