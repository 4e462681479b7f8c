//! XPath core function library, plus the regex functions (`matches`,
//! `replace`, `tokenize` — XPath 2.0 style, needed by the paper's queries)
//! and KyGODDAG extensions (`leaves`, `hierarchy`, `leaf-count`).

use crate::ast::Expr;
use crate::error::{Result, XPathError};
use crate::eval::{evaluate_expr, Context};
use crate::value::{round, Value};
use mhx_goddag::{Goddag, NodeId};

pub fn call(g: &Goddag, name: &str, args: &[Expr], ctx: &Context) -> Result<Value> {
    // Evaluate arguments lazily where semantics require (none do in XPath
    // 1.0), so just evaluate all up front.
    let mut vals = Vec::with_capacity(args.len());
    for a in args {
        vals.push(evaluate_expr(g, a, ctx)?);
    }
    dispatch(g, name, &vals, ctx)
}

fn arity(name: &str, vals: &[Value], lo: usize, hi: usize) -> Result<()> {
    if vals.len() < lo || vals.len() > hi {
        return Err(XPathError::new(format!(
            "{name}() expects {lo}..{hi} arguments, got {}",
            vals.len()
        )));
    }
    Ok(())
}

/// Dispatch on evaluated arguments.
fn dispatch(g: &Goddag, name: &str, vals: &[Value], ctx: &Context) -> Result<Value> {
    let ctx_nodes = || Value::Nodes(vec![ctx.node]);
    let arg_or_ctx = |i: usize| -> Value { vals.get(i).cloned().unwrap_or_else(ctx_nodes) };
    Ok(match name {
        // ---- node-set functions ----
        "position" => {
            arity(name, vals, 0, 0)?;
            Value::Num(ctx.position as f64)
        }
        "last" => {
            arity(name, vals, 0, 0)?;
            Value::Num(ctx.size as f64)
        }
        "count" => {
            arity(name, vals, 1, 1)?;
            match &vals[0] {
                Value::Nodes(ns) => Value::Num(ns.len() as f64),
                _ => return Err(XPathError::new("count() requires a node-set")),
            }
        }
        "name" | "local-name" => {
            arity(name, vals, 0, 1)?;
            let v = arg_or_ctx(0);
            let n = match &v {
                Value::Nodes(ns) => ns.first().copied(),
                _ => return Err(XPathError::new("name() requires a node-set")),
            };
            Value::Str(n.and_then(|n| g.name(n)).unwrap_or_default().to_string())
        }
        // ---- string functions ----
        "string" => {
            arity(name, vals, 0, 1)?;
            Value::Str(arg_or_ctx(0).to_str(g))
        }
        "concat" => {
            if vals.len() < 2 {
                return Err(XPathError::new("concat() needs at least two arguments"));
            }
            Value::Str(vals.iter().map(|v| v.to_str(g)).collect())
        }
        "starts-with" => {
            arity(name, vals, 2, 2)?;
            Value::Bool(vals[0].to_str(g).starts_with(&vals[1].to_str(g)))
        }
        "ends-with" => {
            arity(name, vals, 2, 2)?;
            Value::Bool(vals[0].to_str(g).ends_with(&vals[1].to_str(g)))
        }
        "contains" => {
            arity(name, vals, 2, 2)?;
            Value::Bool(vals[0].to_str(g).contains(&vals[1].to_str(g)))
        }
        "substring-before" => {
            arity(name, vals, 2, 2)?;
            let s = vals[0].to_str(g);
            let p = vals[1].to_str(g);
            Value::Str(s.find(&p).map(|i| s[..i].to_string()).unwrap_or_default())
        }
        "substring-after" => {
            arity(name, vals, 2, 2)?;
            let s = vals[0].to_str(g);
            let p = vals[1].to_str(g);
            Value::Str(s.find(&p).map(|i| s[i + p.len()..].to_string()).unwrap_or_default())
        }
        "substring" => {
            arity(name, vals, 2, 3)?;
            // XPath 1.0 §4.2: the characters at 1-based positions p with
            // round(start) <= p < round(start) + round(len).
            let start = round(vals[1].to_num(g));
            let end = vals.get(2).map_or(f64::INFINITY, |v| start + round(v.to_num(g)));
            let s = vals[0].to_str(g);
            let kept = s.chars().zip(1u32..).filter(|&(_, p)| {
                let p = f64::from(p);
                start <= p && p < end
            });
            Value::Str(kept.map(|(c, _)| c).collect())
        }
        "string-length" => {
            arity(name, vals, 0, 1)?;
            Value::Num(arg_or_ctx(0).to_str(g).chars().count() as f64)
        }
        "normalize-space" => {
            arity(name, vals, 0, 1)?;
            let s = arg_or_ctx(0).to_str(g);
            Value::Str(s.split_whitespace().collect::<Vec<_>>().join(" "))
        }
        "translate" => {
            arity(name, vals, 3, 3)?;
            let s = vals[0].to_str(g);
            let from: Vec<char> = vals[1].to_str(g).chars().collect();
            let to: Vec<char> = vals[2].to_str(g).chars().collect();
            Value::Str(
                s.chars()
                    .filter_map(|c| match from.iter().position(|&f| f == c) {
                        Some(i) => to.get(i).copied(),
                        None => Some(c),
                    })
                    .collect(),
            )
        }
        "upper-case" => {
            arity(name, vals, 1, 1)?;
            Value::Str(vals[0].to_str(g).to_uppercase())
        }
        "lower-case" => {
            arity(name, vals, 1, 1)?;
            Value::Str(vals[0].to_str(g).to_lowercase())
        }
        // ---- regex functions (XPath 2.0 style, per the paper's usage) ----
        "matches" => {
            arity(name, vals, 2, 2)?;
            let s = vals[0].to_str(g);
            let re = compile(&vals[1].to_str(g))?;
            Value::Bool(re.is_match(&s))
        }
        "replace" => {
            arity(name, vals, 3, 3)?;
            let s = vals[0].to_str(g);
            let re = compile(&vals[1].to_str(g))?;
            Value::Str(re.replace_all(&s, &vals[2].to_str(g)))
        }
        "tokenize" => {
            // XPath 1.0 has no sequences; join tokens with a single space
            // (documented deviation — the XQuery layer returns a sequence).
            arity(name, vals, 2, 2)?;
            let s = vals[0].to_str(g);
            let re = compile(&vals[1].to_str(g))?;
            Value::Str(re.split(&s).join(" "))
        }
        // ---- boolean functions ----
        "boolean" => {
            arity(name, vals, 1, 1)?;
            Value::Bool(vals[0].to_bool())
        }
        "not" => {
            arity(name, vals, 1, 1)?;
            Value::Bool(!vals[0].to_bool())
        }
        "true" => {
            arity(name, vals, 0, 0)?;
            Value::Bool(true)
        }
        "false" => {
            arity(name, vals, 0, 0)?;
            Value::Bool(false)
        }
        // ---- number functions ----
        "number" => {
            arity(name, vals, 0, 1)?;
            Value::Num(arg_or_ctx(0).to_num(g))
        }
        "sum" => {
            arity(name, vals, 1, 1)?;
            match &vals[0] {
                Value::Nodes(ns) => Value::Num(
                    ns.iter().map(|&n| crate::value::parse_number(g.string_value(n))).sum(),
                ),
                _ => return Err(XPathError::new("sum() requires a node-set")),
            }
        }
        "floor" => {
            arity(name, vals, 1, 1)?;
            Value::Num(vals[0].to_num(g).floor())
        }
        "ceiling" => {
            arity(name, vals, 1, 1)?;
            Value::Num(vals[0].to_num(g).ceil())
        }
        "round" => {
            arity(name, vals, 1, 1)?;
            Value::Num(round(vals[0].to_num(g)))
        }
        // ---- KyGODDAG extensions ----
        "leaves" => {
            // leaves(node-set?) → all leaves under the nodes (context node
            // if omitted).
            arity(name, vals, 0, 1)?;
            let v = arg_or_ctx(0);
            let Value::Nodes(ns) = v else {
                return Err(XPathError::new("leaves() requires a node-set"));
            };
            let mut out: Vec<NodeId> = ns.iter().flat_map(|&n| g.leaves_of(n)).collect();
            g.sort_nodes(&mut out);
            out.dedup();
            Value::Nodes(out)
        }
        "hierarchy" => {
            // hierarchy(node-set?) → name of the hierarchy of the first
            // node ("" for root/leaves, which are shared).
            arity(name, vals, 0, 1)?;
            let v = arg_or_ctx(0);
            let Value::Nodes(ns) = v else {
                return Err(XPathError::new("hierarchy() requires a node-set"));
            };
            let h = ns
                .first()
                .and_then(|n| n.hierarchy())
                .map(|h| g.hierarchy(h).name.clone())
                .unwrap_or_default();
            Value::Str(h)
        }
        "leaf-count" => {
            arity(name, vals, 0, 0)?;
            Value::Num(g.leaf_count() as f64)
        }
        _ => return Err(XPathError::new(format!("unknown function {name}()"))),
    })
}

fn compile(pattern: &str) -> Result<mhx_regex::Regex> {
    mhx_regex::Regex::new(pattern)
        .map_err(|e| XPathError::new(format!("bad regular expression: {e}")))
}

trait JoinExt {
    fn join(&self, sep: &str) -> String;
}

impl JoinExt for Vec<&str> {
    fn join(&self, sep: &str) -> String {
        self.as_slice().join(sep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_xpath_naive;
    use mhx_goddag::GoddagBuilder;

    fn g() -> Goddag {
        GoddagBuilder::new()
            .hierarchy("words", "<r><w>unawendendne</w> <w>singallice</w></r>")
            .hierarchy("lines", "<r><line>unawendendne sing</line><line>allice</line></r>")
            .build()
            .unwrap()
    }

    fn s(src: &str) -> String {
        evaluate_xpath_naive(&g(), src).unwrap().to_str(&g())
    }

    fn b(src: &str) -> bool {
        evaluate_xpath_naive(&g(), src).unwrap().to_bool()
    }

    fn n(src: &str) -> f64 {
        let g = g();
        evaluate_xpath_naive(&g, src).unwrap().to_num(&g)
    }

    #[test]
    fn string_functions() {
        assert_eq!(s("concat('a', 'b', 1)"), "ab1");
        assert!(b("starts-with('unawe', 'un')"));
        assert!(b("ends-with('unawe', 'we')"));
        assert!(b("contains('unawendendne', 'awend')"));
        assert_eq!(s("substring('singallice', 4)"), "gallice");
        assert_eq!(s("substring('singallice', 4, 4)"), "gall");
        assert_eq!(s("substring-before('a-b', '-')"), "a");
        assert_eq!(s("substring-after('a-b', '-')"), "b");
        assert_eq!(n("string-length('þa')"), 2.0, "chars, not bytes");
        assert_eq!(s("normalize-space('  a   b ')"), "a b");
        assert_eq!(s("translate('bar', 'abc', 'ABC')"), "BAr");
        assert_eq!(s("translate('bar', 'ar', 'A')"), "bA");
        assert_eq!(s("upper-case('sin')"), "SIN");
        assert_eq!(s("lower-case('SIN')"), "sin");
    }

    #[test]
    fn regex_functions() {
        assert!(b("matches('unawendendne', '.*unawe.*')"));
        assert!(b("matches('unawendendne', 'unawe')"));
        assert!(!b("matches('gesceaftum', 'unawe')"));
        assert_eq!(s("replace('a1b2', '[0-9]', '_')"), "a_b_");
        assert_eq!(s("replace('ab', '(a)(b)', '$2$1')"), "ba");
        assert_eq!(s("tokenize('a b  c', ' +')"), "a b c");
        assert!(evaluate_xpath_naive(&g(), "matches('x', '[')").is_err());
    }

    #[test]
    fn node_functions() {
        assert_eq!(n("count(/descendant::w)"), 2.0);
        assert_eq!(s("name(/descendant::w[1])"), "w");
        assert_eq!(s("name(/)"), "r");
        assert_eq!(n("sum(/descendant::nothing)"), 0.0);
    }

    #[test]
    fn number_functions() {
        assert_eq!(n("floor(2.7)"), 2.0);
        assert_eq!(n("ceiling(2.1)"), 3.0);
        assert_eq!(n("round(2.5)"), 3.0);
        assert_eq!(n("round(-2.5)"), -2.0, "halves toward +∞");
        assert_eq!(s("round(-0.5)"), "0", "negative zero prints 0");
        assert_eq!(n("number('4')"), 4.0);
        assert!(n("number('x')").is_nan());
    }

    #[test]
    fn boolean_functions() {
        assert!(b("not(false())"));
        assert!(b("boolean('x')"));
        assert!(!b("boolean('')"));
        assert!(b("true()"));
        assert!(!b("false()"));
    }

    #[test]
    fn goddag_extensions() {
        let g = g();
        // leaves of word 2 ("singallice") split by the line boundary.
        let v = evaluate_xpath_naive(&g, "leaves(/descendant::w[2])").unwrap();
        let Value::Nodes(ns) = v else { panic!() };
        let texts: Vec<&str> = ns.iter().map(|&l| g.string_value(l)).collect();
        assert_eq!(texts, vec!["sing", "allice"]);
        assert_eq!(s("hierarchy(/descendant::w[1])"), "words");
        assert_eq!(s("hierarchy(/)"), "");
        assert!(n("leaf-count()") >= 4.0);
    }

    #[test]
    fn unknown_function_and_arity_errors() {
        let g = g();
        assert!(evaluate_xpath_naive(&g, "wat(1)").is_err());
        assert!(evaluate_xpath_naive(&g, "count()").is_err());
        assert!(evaluate_xpath_naive(&g, "concat('a')").is_err());
        assert!(evaluate_xpath_naive(&g, "count('notanodeset')").is_err());
    }

    #[test]
    fn substring_edge_cases() {
        // XPath 1.0 spec examples.
        assert_eq!(s("substring('12345', 1.5, 2.6)"), "234");
        assert_eq!(s("substring('12345', 0, 3)"), "12");
        assert_eq!(s("substring('12345', 2)"), "2345");
        assert_eq!(s("substring('12345', 0 div 0, 3)"), "");
        assert_eq!(s("substring('12345', -42, 1 div 0)"), "12345");
        assert_eq!(s("substring('12345', -1 div 0, 1 div 0)"), "");
        assert_eq!(s("substring('12345', -1.5, 4)"), "12", "round(-1.5) is -1");
    }
}
