//! The function registry: one entry per function of the compiled
//! pipeline — XPath 1.0's library, the sequence, numeric and regex
//! functions of the extended XQuery, the KyGODDAG functions and
//! `analyze-string()` (Definition 4).
//!
//! An entry holds every fact a stage needs about its function: the
//! argument counts it takes (one range for both languages), XPath 1.0's
//! conversion of each parameter (none for a function XPath does not
//! offer), its result type, what it reads besides its arguments, whether
//! it installs a temporary hierarchy, its cost weight and its
//! implementation. XQuery's static check (run by
//! [`CompiledXQuery::compile`](crate::CompiledXQuery::compile)) and the
//! XPath lowering ([`crate::xpath`]) reject a call the registry does not
//! offer; the optimizer reads types, focus use, purity and cost here; the
//! evaluator runs the implementation on the evaluated arguments.

use crate::ast::QExpr;
use crate::error::{Result, XQueryError};
use crate::eval::{Env, Evaluator};
use crate::item::{Item, Sequence};
use crate::opt::Ty::{self, Bool, Nodes, Num, Str, Unknown};
use mhx_regex::Regex;
use mhx_xpath::value::round;

/// What a call reads besides its arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reads {
    /// Nothing: only its arguments and the document.
    Nothing,
    /// The context item, when called with no argument (`string()`).
    ContextItem,
    /// The focus position and size (`position()`, `last()`).
    Focus,
}

type Imp = fn(&mut Evaluator<'_>, &[Sequence], &Env<'_>) -> Result<Sequence>;

/// One function: everything the pipeline knows about it.
pub(crate) struct Function {
    pub(crate) name: &'static str,
    /// Fewest and most arguments, in both languages (`usize::MAX`: no
    /// upper limit).
    pub(crate) arity: (usize, usize),
    /// The type XPath 1.0 converts each argument to (the last entry
    /// repeats); `None` when XPath does not offer the function.
    pub(crate) xpath: Option<&'static [Ty]>,
    pub(crate) result: Ty,
    pub(crate) reads: Reads,
    /// Installs a temporary hierarchy (Definition 4): evaluation mutates
    /// the KyGODDAG, so the optimizer never reorders or batches the call.
    pub(crate) installs_hierarchy: bool,
    /// Relative cost of one call, for ordering predicates cheapest-first.
    pub(crate) cost: u64,
    imp: Imp,
}

/// A function of both languages.
const fn xp(
    name: &'static str,
    arity: (usize, usize),
    params: &'static [Ty],
    result: Ty,
    imp: Imp,
) -> Function {
    Function { xpath: Some(params), ..xq(name, arity, result, imp) }
}

/// A function of XQuery only.
const fn xq(name: &'static str, arity: (usize, usize), result: Ty, imp: Imp) -> Function {
    let (reads, installs_hierarchy, cost) = (Reads::Nothing, false, 2);
    Function { name, arity, xpath: None, result, reads, installs_hierarchy, cost, imp }
}

impl Function {
    const fn reading(self, reads: Reads) -> Function {
        Function { reads, ..self }
    }

    /// Regex functions compile their pattern per call.
    const fn regex(self) -> Function {
        Function { cost: 16, ..self }
    }

    /// Does a call with `argc` arguments read the focus?
    pub(crate) fn reads_focus(&self, argc: usize) -> bool {
        match self.reads {
            Reads::Nothing => false,
            Reads::ContextItem => argc == 0,
            Reads::Focus => true,
        }
    }

    /// Reject an argument count outside the function's range.
    pub(crate) fn check_arity(&self, argc: usize) -> Result<()> {
        let (lo, hi) = self.arity;
        if (lo..=hi).contains(&argc) {
            Ok(())
        } else if hi == usize::MAX {
            Err(XQueryError::new(format!("{}() needs at least {lo} arguments", self.name)))
        } else {
            Err(XQueryError::new(format!(
                "{}() expects {lo}..{hi} arguments, got {argc}",
                self.name
            )))
        }
    }
}

/// Every argument converts to a string.
const STRINGS: &[Ty] = &[Str];

/// Sorted by name, for [`lookup`].
static REGISTRY: &[Function] = &[
    xq("abs", (1, 1), Num, |ev, v, _| num(one_number(ev, &v[0], "abs")?.abs())),
    Function {
        installs_hierarchy: true,
        ..xq("analyze-string", (2, 2), Nodes, analyze_string).regex()
    },
    xq("avg", (1, 1), Num, |ev, v, _| {
        let total: f64 = v[0].iter().map(|i| ev.item_number(i)).sum();
        Ok(if v[0].is_empty() { vec![] } else { vec![Item::Num(total / v[0].len() as f64)] })
    }),
    xp("boolean", (1, 1), &[Bool], Bool, |ev, v, _| boolean(ev.ebv(&v[0])?)),
    xp("ceiling", (1, 1), &[Num], Num, |ev, v, _| num(one_number(ev, &v[0], "ceiling")?.ceil())),
    xp("concat", (2, usize::MAX), STRINGS, Str, |ev, v, _| {
        string(v.iter().map(|seq| one_string(ev, seq, "concat")).collect::<Result<_>>()?)
    }),
    xp("contains", (2, 2), STRINGS, Bool, |ev, v, _| {
        let [s, part] = strings(ev, v, "contains")?;
        boolean(s.contains(&part))
    }),
    xp("count", (1, 1), &[Nodes], Num, |_, v, _| num(v[0].len() as f64)),
    xq("data", (1, 1), Unknown, |ev, v, _| {
        Ok(v[0].iter().map(|i| Item::Str(ev.item_string(i))).collect())
    }),
    xq("distinct-values", (1, 1), Unknown, |ev, v, _| {
        let mut seen: Vec<String> = Vec::new();
        for item in &v[0] {
            let s = ev.item_string(item);
            if !seen.contains(&s) {
                seen.push(s);
            }
        }
        Ok(seen.into_iter().map(Item::Str).collect())
    }),
    xq("empty", (1, 1), Bool, |_, v, _| boolean(v[0].is_empty())),
    xp("ends-with", (2, 2), STRINGS, Bool, |ev, v, _| {
        let [s, part] = strings(ev, v, "ends-with")?;
        boolean(s.ends_with(&part))
    }),
    xq("exists", (1, 1), Bool, |_, v, _| boolean(!v[0].is_empty())),
    xp("false", (0, 0), &[], Bool, |_, _, _| boolean(false)),
    xp("floor", (1, 1), &[Num], Num, |ev, v, _| num(one_number(ev, &v[0], "floor")?.floor())),
    xq("hierarchies", (0, 0), Unknown, |ev, _, _| {
        Ok(ev.goddag().hierarchies().map(|(_, h)| Item::Str(h.name.clone())).collect())
    }),
    xp("hierarchy", (0, 1), &[Nodes], Str, |ev, v, env| {
        string(match arg_or_context(v, env)?.first() {
            Some(Item::Node(n)) => {
                n.hierarchy().map(|h| ev.goddag().hierarchy(h).name.clone()).unwrap_or_default()
            }
            _ => String::new(),
        })
    })
    .reading(Reads::ContextItem),
    xq("insert-before", (3, 3), Unknown, |ev, v, _| {
        let pos = round(one_number(ev, &v[1], "insert-before")?).max(1.0) as usize;
        let mut out = v[0].clone();
        let at = (pos - 1).min(out.len());
        out.splice(at..at, v[2].iter().cloned());
        Ok(out)
    }),
    xp("last", (0, 0), &[], Num, |_, _, env| match &env.focus {
        Some((_, _, size)) => num(*size as f64),
        None => Err(XQueryError::new("last() outside a predicate")),
    })
    .reading(Reads::Focus),
    xp("leaf-count", (0, 0), &[], Num, |ev, _, _| num(ev.goddag().leaf_count() as f64)),
    xp("leaves", (0, 1), &[Nodes], Nodes, |ev, v, env| {
        let mut out = Vec::new();
        for item in arg_or_context(v, env)? {
            let Item::Node(n) = item else {
                return Err(XQueryError::new("leaves() requires KyGODDAG nodes"));
            };
            out.extend(ev.goddag().leaves_of(*n).into_iter().map(Item::Node));
        }
        ev.sort_dedup_items(&mut out);
        Ok(out)
    })
    .reading(Reads::ContextItem),
    xp("local-name", (0, 1), &[Nodes], Str, name).reading(Reads::ContextItem),
    xp("lower-case", (1, 1), STRINGS, Str, |ev, v, _| {
        string(one_string(ev, &v[0], "lower-case")?.to_lowercase())
    }),
    xp("matches", (2, 2), STRINGS, Bool, |ev, v, _| {
        let [s, pattern] = strings(ev, v, "matches")?;
        boolean(compile(&pattern)?.is_match(&s))
    })
    .regex(),
    xq("max", (1, 1), Num, |ev, v, _| Ok(fold(ev, &v[0], f64::max))),
    xq("min", (1, 1), Num, |ev, v, _| Ok(fold(ev, &v[0], f64::min))),
    xp("name", (0, 1), &[Nodes], Str, name).reading(Reads::ContextItem),
    xp("normalize-space", (0, 1), STRINGS, Str, |ev, v, env| {
        let s = one_string(ev, arg_or_context(v, env)?, "normalize-space")?;
        string(s.split_whitespace().collect::<Vec<_>>().join(" "))
    })
    .reading(Reads::ContextItem),
    xp("not", (1, 1), &[Bool], Bool, |ev, v, _| boolean(!ev.ebv(&v[0])?)),
    xp("number", (0, 1), &[Num], Num, |ev, v, env| {
        num(one_number(ev, arg_or_context(v, env)?, "number").unwrap_or(f64::NAN))
    })
    .reading(Reads::ContextItem),
    xp("position", (0, 0), &[], Num, |_, _, env| match &env.focus {
        Some((_, position, _)) => num(*position as f64),
        None => Err(XQueryError::new("position() outside a predicate")),
    })
    .reading(Reads::Focus),
    xq("remove", (2, 2), Unknown, |ev, v, _| {
        let pos = round(one_number(ev, &v[1], "remove")?) as usize;
        Ok(v[0]
            .iter()
            .enumerate()
            .filter(|(i, _)| i + 1 != pos)
            .map(|(_, item)| item.clone())
            .collect())
    }),
    xp("replace", (3, 3), STRINGS, Str, |ev, v, _| {
        let [s, pattern, with] = strings(ev, v, "replace")?;
        string(compile(&pattern)?.replace_all(&s, &with))
    })
    .regex(),
    xq("reverse", (1, 1), Unknown, |_, v, _| Ok(v[0].iter().rev().cloned().collect())),
    xq("root", (0, 0), Nodes, |_, _, _| Ok(vec![Item::Node(mhx_goddag::NodeId::Root)])),
    xp("round", (1, 1), &[Num], Num, |ev, v, _| num(round(one_number(ev, &v[0], "round")?))),
    xq("serialize", (1, 1), Str, |ev, v, _| {
        string(crate::serialize::serialize_sequence(ev, &v[0]))
    }),
    xp("starts-with", (2, 2), STRINGS, Bool, |ev, v, _| {
        let [s, part] = strings(ev, v, "starts-with")?;
        boolean(s.starts_with(&part))
    }),
    xp("string", (0, 1), STRINGS, Str, |ev, v, env| {
        string(one_string(ev, arg_or_context(v, env)?, "string")?)
    })
    .reading(Reads::ContextItem),
    xq("string-join", (1, 2), Str, |ev, v, _| {
        let sep = match v.get(1) {
            Some(seq) => one_string(ev, seq, "string-join")?,
            None => String::new(),
        };
        string(v[0].iter().map(|i| ev.item_string(i)).collect::<Vec<_>>().join(&sep))
    }),
    xp("string-length", (0, 1), STRINGS, Num, |ev, v, env| {
        num(one_string(ev, arg_or_context(v, env)?, "string-length")?.chars().count() as f64)
    })
    .reading(Reads::ContextItem),
    xq("subsequence", (2, 3), Unknown, |ev, v, _| {
        let keep = positions(ev, v, "subsequence")?;
        Ok(v[0].iter().zip(1..).filter(|&(_, p)| keep(p)).map(|(item, _)| item.clone()).collect())
    }),
    xp("substring", (2, 3), &[Str, Num, Num], Str, |ev, v, _| {
        let s = one_string(ev, &v[0], "substring")?;
        let keep = positions(ev, v, "substring")?;
        string(s.chars().zip(1..).filter(|&(_, p)| keep(p)).map(|(c, _)| c).collect())
    }),
    xp("substring-after", (2, 2), STRINGS, Str, |ev, v, _| {
        let [s, part] = strings(ev, v, "substring-after")?;
        string(s.find(&part).map(|i| s[i + part.len()..].to_string()).unwrap_or_default())
    }),
    xp("substring-before", (2, 2), STRINGS, Str, |ev, v, _| {
        let [s, part] = strings(ev, v, "substring-before")?;
        string(s.find(&part).map(|i| s[..i].to_string()).unwrap_or_default())
    }),
    xp("sum", (1, 1), &[Nodes], Num, |ev, v, _| num(v[0].iter().map(|i| ev.item_number(i)).sum())),
    xp("tokenize", (2, 2), STRINGS, Unknown, |ev, v, _| {
        let [s, pattern] = strings(ev, v, "tokenize")?;
        Ok(compile(&pattern)?.split(&s).into_iter().map(|t| Item::Str(t.to_string())).collect())
    })
    .regex(),
    xp("translate", (3, 3), STRINGS, Str, |ev, v, _| {
        let [s, from, to] = strings(ev, v, "translate")?;
        let (from, to): (Vec<char>, Vec<char>) = (from.chars().collect(), to.chars().collect());
        string(
            s.chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect(),
        )
    }),
    xp("true", (0, 0), &[], Bool, |_, _, _| boolean(true)),
    xp("upper-case", (1, 1), STRINGS, Str, |ev, v, _| {
        string(one_string(ev, &v[0], "upper-case")?.to_uppercase())
    }),
];

/// The registry entry named `name`. The evaluator looks up every call it
/// runs, so the search compares first bytes, then only the few names
/// that share the first byte.
pub(crate) fn lookup(name: &str) -> Option<&'static Function> {
    let first = |f: &Function| f.name.as_bytes()[0];
    let byte = *name.as_bytes().first()?;
    let from = REGISTRY.partition_point(|f| first(f) < byte);
    REGISTRY[from..].iter().take_while(|f| first(f) == byte).find(|f| f.name == name)
}

/// The entry a call of `name` with `argc` arguments runs, or the error
/// saying why there is none.
pub(crate) fn resolve(name: &str, argc: usize) -> Result<&'static Function> {
    let f = lookup(name).ok_or_else(|| XQueryError::new(format!("unknown function {name}()")))?;
    f.check_arity(argc)?;
    Ok(f)
}

/// Evaluate a call: the arguments in order, then the implementation. A
/// compiled plan only holds calls the registry offers; the check here is
/// for an AST handed to [`Evaluator::eval`] without compiling.
pub fn call<'q>(
    ev: &mut Evaluator<'_>,
    name: &str,
    args: &'q [QExpr],
    env: &mut Env<'q>,
) -> Result<Sequence> {
    let f = resolve(name, args.len())?;
    let mut vals = Vec::with_capacity(args.len());
    for a in args {
        vals.push(ev.eval(a, env)?);
    }
    (f.imp)(ev, &vals, env)
}

fn analyze_string(ev: &mut Evaluator<'_>, v: &[Sequence], _: &Env<'_>) -> Result<Sequence> {
    let pattern = one_string(ev, &v[1], "analyze-string pattern")?;
    let node = match v[0].as_slice() {
        [Item::Node(n)] => *n,
        [Item::ONode(_)] => {
            return Err(XQueryError::new(
                "analyze-string requires a KyGODDAG node, not a constructed node",
            ));
        }
        _ => return Err(XQueryError::new("analyze-string requires a single node")),
    };
    let mode = ev.opts.analyze_mode;
    Ok(vec![Item::Node(crate::analyze::analyze_string(ev.g.to_mut(), node, &pattern, mode)?)])
}

/// `name()` and `local-name()`: `""` without a node, or without a focus.
fn name(ev: &mut Evaluator<'_>, v: &[Sequence], env: &Env<'_>) -> Result<Sequence> {
    string(match arg_or_context(v, env).unwrap_or_default().first() {
        Some(Item::Node(n)) => ev.goddag().name(*n).unwrap_or("").to_string(),
        Some(Item::ONode(o)) => ev.output_doc().name(*o).unwrap_or("").to_string(),
        Some(_) => return Err(XQueryError::new("name() requires a node")),
        None => String::new(),
    })
}

/// The positions `substring` and `subsequence` keep: XPath 1.0 §4.2 and
/// F&O `fn:subsequence`, `round(start) <= p < round(start) + round(len)`
/// (no upper bound without a length). NaN and the infinities follow from
/// the comparisons.
fn positions(ev: &Evaluator<'_>, v: &[Sequence], what: &str) -> Result<impl Fn(usize) -> bool> {
    let from = round(one_number(ev, &v[1], what)?);
    let until = match v.get(2) {
        Some(len) => from + round(one_number(ev, len, what)?),
        None => f64::INFINITY,
    };
    Ok(move |p: usize| from <= p as f64 && (p as f64) < until)
}

/// The first argument, or else the context item.
fn arg_or_context<'a>(v: &'a [Sequence], env: &'a Env<'_>) -> Result<&'a [Item]> {
    match (v.first(), &env.focus) {
        (Some(seq), _) => Ok(seq),
        (None, Some((item, _, _))) => Ok(std::slice::from_ref(item)),
        (None, None) => Err(XQueryError::new("no context item for implicit argument")),
    }
}

fn one_string(ev: &Evaluator<'_>, seq: &[Item], what: &str) -> Result<String> {
    match seq {
        [] => Ok(String::new()),
        [item] => Ok(ev.item_string(item)),
        _ => Err(XQueryError::new(format!("{what}: expected a single item"))),
    }
}

/// The `N` arguments as strings.
fn strings<const N: usize>(ev: &Evaluator<'_>, v: &[Sequence], what: &str) -> Result<[String; N]> {
    let mut out = std::array::from_fn(|_| String::new());
    for (s, seq) in out.iter_mut().zip(v) {
        *s = one_string(ev, seq, what)?;
    }
    Ok(out)
}

fn one_number(ev: &Evaluator<'_>, seq: &[Item], what: &str) -> Result<f64> {
    match seq {
        [item] => Ok(ev.item_number(item)),
        _ => Err(XQueryError::new(format!("{what}: expected a single numeric item"))),
    }
}

/// `min`/`max`: the fold of the items' numbers, empty for no items.
fn fold(ev: &Evaluator<'_>, seq: &[Item], pick: fn(f64, f64) -> f64) -> Sequence {
    let numbers = seq.iter().map(|i| ev.item_number(i));
    numbers.reduce(pick).map(|n| vec![Item::Num(n)]).unwrap_or_default()
}

fn num(n: f64) -> Result<Sequence> {
    Ok(vec![Item::Num(n)])
}

fn string(s: String) -> Result<Sequence> {
    Ok(vec![Item::Str(s)])
}

fn boolean(b: bool) -> Result<Sequence> {
    Ok(vec![Item::Bool(b)])
}

fn compile(pattern: &str) -> Result<Regex> {
    Regex::new(pattern).map_err(|e| XQueryError::new(format!("bad regular expression: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledXQuery, XQueryErrorKind};
    use mhx_goddag::GoddagBuilder;
    use mhx_xpath::evaluate_xpath_naive;

    #[test]
    fn the_registry_is_sorted_by_name() {
        assert!(REGISTRY.windows(2).all(|w| w[0].name < w[1].name));
    }

    /// The registry against the oracle's own table, which stays separate
    /// so that the oracle stays independent: XPath compiles a call exactly
    /// when the oracle accepts its argument count, and neither offers an
    /// XQuery-only function.
    #[test]
    fn xpath_argument_counts_agree_with_the_oracle() {
        let g = GoddagBuilder::new().hierarchy("w", "<r><w>ab</w></r>").build().unwrap();
        for f in REGISTRY {
            for argc in 0..=4 {
                let src = format!("{}({})", f.name, vec!["/"; argc].join(", "));
                let compiled = CompiledXQuery::compile_xpath(&src);
                let naive = evaluate_xpath_naive(&g, &src);
                if let Err(e) = &compiled {
                    assert_eq!(e.kind, XQueryErrorKind::Compile, "`{src}`: {e}");
                }
                let oracle_refuses = |what: &str| matches!(&naive, Err(e) if e.msg.contains(what));
                if f.xpath.is_some() {
                    assert_eq!(
                        compiled.is_err(),
                        oracle_refuses("argument"),
                        "`{src}`: compiled {compiled:?}, oracle {naive:?}"
                    );
                } else {
                    assert!(compiled.is_err(), "`{src}` is XQuery-only");
                    assert!(oracle_refuses("unknown function"), "`{src}`: oracle {naive:?}");
                }
            }
        }
    }
}
