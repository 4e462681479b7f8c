//! XPath 1.0 value model and conversions.

use mhx_goddag::{Goddag, NodeId};

/// An XPath value: node-set, string, number, or boolean.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Always kept in KyGODDAG document order without duplicates.
    Nodes(Vec<NodeId>),
    Str(String),
    Num(f64),
    Bool(bool),
}

impl Value {
    pub fn nodes(mut ns: Vec<NodeId>, g: &Goddag) -> Value {
        g.sort_nodes(&mut ns);
        ns.dedup();
        Value::Nodes(ns)
    }

    pub fn as_nodes(&self) -> Option<&[NodeId]> {
        match self {
            Value::Nodes(ns) => Some(ns),
            _ => None,
        }
    }

    /// XPath `string()` conversion.
    pub fn to_str(&self, g: &Goddag) -> String {
        match self {
            Value::Nodes(ns) => {
                ns.first().map(|&n| g.string_value(n).to_string()).unwrap_or_default()
            }
            Value::Str(s) => s.clone(),
            Value::Num(n) => format_number(*n),
            Value::Bool(b) => b.to_string(),
        }
    }

    /// XPath `number()` conversion.
    pub fn to_num(&self, g: &Goddag) -> f64 {
        match self {
            Value::Nodes(_) => parse_number(&self.to_str(g)),
            Value::Str(s) => parse_number(s),
            Value::Num(n) => *n,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// XPath `boolean()` conversion.
    pub fn to_bool(&self) -> bool {
        match self {
            Value::Nodes(ns) => !ns.is_empty(),
            Value::Str(s) => !s.is_empty(),
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Bool(b) => *b,
        }
    }
}

/// XPath 1.0 number → string: integers print without a decimal point,
/// NaN prints as `NaN`, infinities as `Infinity`/`-Infinity`.
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 {
            "Infinity".to_string()
        } else {
            "-Infinity".to_string()
        }
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// XPath 1.0 string → number: trimmed decimal or NaN.
pub fn parse_number(s: &str) -> f64 {
    s.trim().parse::<f64>().unwrap_or(f64::NAN)
}

/// XPath 1.0 `round()` (§4.4) and F&O `fn:round`: the nearest integer,
/// halves toward +∞ (`f64::round` takes them away from zero). Negative
/// zero for -0.5 <= n < 0; NaN and the infinities round to themselves.
pub fn round(n: f64) -> f64 {
    let floor = n.floor();
    (if n - floor >= 0.5 { floor + 1.0 } else { floor }).copysign(n)
}

/// XPath 1.0 comparison semantics for `=`, `!=`, `<`, `<=`, `>`, `>=`,
/// including the existential node-set rules.
pub fn compare(g: &Goddag, op: crate::ast::BinOp, a: &Value, b: &Value) -> bool {
    use crate::ast::BinOp::*;
    let string_value = |n: NodeId| Value::Str(g.string_value(n).to_string());
    match (a, b) {
        // §3.4: a node-set compared with a boolean compares as
        // `boolean(node-set)`, not node by node.
        (Value::Nodes(_), Value::Bool(_)) | (Value::Bool(_), Value::Nodes(_)) => {
            compare(g, op, &Value::Bool(a.to_bool()), &Value::Bool(b.to_bool()))
        }
        // Otherwise a node-set holds when some node's string value does.
        (Value::Nodes(xs), _) => xs.iter().any(|&x| compare(g, op, &string_value(x), b)),
        (_, Value::Nodes(ys)) => ys.iter().any(|&y| compare(g, op, a, &string_value(y))),
        _ => match op {
            Eq | Ne => {
                let eq = match (a, b) {
                    (Value::Bool(_), _) | (_, Value::Bool(_)) => a.to_bool() == b.to_bool(),
                    (Value::Num(_), _) | (_, Value::Num(_)) => a.to_num(g) == b.to_num(g),
                    _ => a.to_str(g) == b.to_str(g),
                };
                (op == Eq) == eq
            }
            _ => cmp_numbers(op, a.to_num(g), b.to_num(g)),
        },
    }
}

fn cmp_numbers(op: crate::ast::BinOp, a: f64, b: f64) -> bool {
    use crate::ast::BinOp::*;
    match op {
        Lt => a < b,
        Le => a <= b,
        Gt => a > b,
        Ge => a >= b,
        Eq => a == b,
        Ne => a != b,
        _ => unreachable!("compare handles only comparison ops"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;
    use mhx_goddag::GoddagBuilder;

    fn g() -> Goddag {
        GoddagBuilder::new().hierarchy("a", "<r><w>5</w><w>abc</w></r>").build().unwrap()
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(5.0), "5");
        assert_eq!(format_number(-3.0), "-3");
        assert_eq!(format_number(2.5), "2.5");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::INFINITY), "Infinity");
        assert_eq!(format_number(0.0), "0");
    }

    #[test]
    fn rounding_takes_halves_toward_positive_infinity() {
        for (n, want) in [(2.5, 3.0), (-2.5, -2.0), (2.4, 2.0), (-2.6, -3.0), (0.5, 1.0)] {
            assert_eq!(round(n), want, "round({n})");
        }
        // The largest double below 0.5 rounds down: no `floor(n + 0.5)`
        // double rounding.
        assert_eq!(round(0.5 - f64::EPSILON / 4.0), 0.0);
        for n in [-0.5, -0.2, -0.0] {
            assert!(round(n) == 0.0 && round(n).is_sign_negative(), "round({n}) is -0");
        }
        assert!(round(f64::NAN).is_nan());
        assert_eq!(round(f64::INFINITY), f64::INFINITY);
        assert_eq!(round(f64::NEG_INFINITY), f64::NEG_INFINITY);
        // An odd integer above 2^52, where `n + 0.5` is not representable.
        assert_eq!(round(4503599627370497.0), 4503599627370497.0);
    }

    #[test]
    fn number_parsing() {
        assert_eq!(parse_number(" 42 "), 42.0);
        assert!(parse_number("abc").is_nan());
        assert_eq!(parse_number("-1.5"), -1.5);
    }

    #[test]
    fn conversions() {
        let g = g();
        assert!(Value::Str("x".into()).to_bool());
        assert!(!Value::Str("".into()).to_bool());
        assert!(!Value::Num(0.0).to_bool());
        assert!(!Value::Num(f64::NAN).to_bool());
        assert!(Value::Num(-1.0).to_bool());
        assert!(!Value::Nodes(vec![]).to_bool());
        assert_eq!(Value::Bool(true).to_num(&g), 1.0);
        assert_eq!(Value::Str("7".into()).to_num(&g), 7.0);
    }

    #[test]
    fn nodeset_string_value_is_first_node() {
        let g = g();
        let words: Vec<NodeId> =
            g.all_nodes().into_iter().filter(|&n| g.name(n) == Some("w")).collect();
        let v = Value::Nodes(words);
        assert_eq!(v.to_str(&g), "5");
        assert_eq!(v.to_num(&g), 5.0);
    }

    #[test]
    fn existential_nodeset_compare() {
        let g = g();
        let words: Vec<NodeId> =
            g.all_nodes().into_iter().filter(|&n| g.name(n) == Some("w")).collect();
        let v = Value::Nodes(words);
        // = 'abc' holds because SOME node equals.
        assert!(compare(&g, BinOp::Eq, &v, &Value::Str("abc".into())));
        assert!(compare(&g, BinOp::Eq, &v, &Value::Str("5".into())));
        assert!(!compare(&g, BinOp::Eq, &v, &Value::Str("zz".into())));
        // Both = and != can hold simultaneously (XPath 1.0 semantics).
        assert!(compare(&g, BinOp::Ne, &v, &Value::Str("abc".into())));
        // Numeric comparison: node "5" < 6.
        assert!(compare(&g, BinOp::Lt, &v, &Value::Num(6.0)));
        assert!(compare(&g, BinOp::Gt, &Value::Num(6.0), &v));
    }

    /// XPath 1.0 §3.4, hand-computed: `boolean(node-set)` meets the
    /// boolean; ordering compares the two as numbers (false 0, true 1).
    #[test]
    fn nodeset_against_boolean_compares_its_boolean() {
        let g = g();
        let empty = Value::Nodes(vec![]);
        let words =
            Value::Nodes(g.all_nodes().into_iter().filter(|&n| g.name(n) == Some("w")).collect());
        let (t, f) = (Value::Bool(true), Value::Bool(false));
        for (set, op, b, expected) in [
            (&empty, BinOp::Eq, &t, false),
            (&empty, BinOp::Eq, &f, true),
            (&empty, BinOp::Ne, &t, true),
            (&empty, BinOp::Lt, &t, true),
            (&words, BinOp::Eq, &t, true),
            (&words, BinOp::Eq, &f, false),
            (&words, BinOp::Ne, &t, false),
            (&words, BinOp::Lt, &t, false),
        ] {
            assert_eq!(compare(&g, op, set, b), expected, "{set:?} {op:?} {b:?}");
            // The boolean on the left flips ordering operators only.
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                other => other,
            };
            assert_eq!(compare(&g, flipped, b, set), expected, "{b:?} {flipped:?} {set:?}");
        }
    }

    #[test]
    fn scalar_compares() {
        let g = g();
        assert!(compare(&g, BinOp::Eq, &Value::Num(2.0), &Value::Str("2".into())));
        assert!(compare(&g, BinOp::Ne, &Value::Str("a".into()), &Value::Str("b".into())));
        assert!(compare(&g, BinOp::Le, &Value::Str("2".into()), &Value::Num(3.0)));
        assert!(compare(&g, BinOp::Eq, &Value::Bool(true), &Value::Str("x".into())));
    }

    #[test]
    fn nodes_constructor_sorts_and_dedups() {
        let g = g();
        let mut ns = g.all_nodes();
        ns.reverse();
        let mut doubled = ns.clone();
        doubled.extend(ns.iter().copied());
        let v = Value::nodes(doubled, &g);
        assert_eq!(v.as_nodes().unwrap(), g.all_nodes().as_slice());
    }
}
