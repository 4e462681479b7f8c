//! XQuery's static check, run by [`CompiledXQuery::compile`]: every
//! function call names a function of the registry ([`crate::functions`]),
//! whose entry the call holds since it was built ([`QExpr::call`]), with
//! an argument count it takes, and every variable reference is bound
//! by an enclosing clause — a FLWOR's `for` or `let`, or a quantifier's
//! binding, which is a `for` clause too, so one arm checks both forms.
//! Queries start from an empty variable environment. A failure is a
//! [`XQueryErrorKind::Compile`] error, raised before any document is
//! touched, even in a branch evaluation would never reach.
//!
//! The XPath lowering checks calls itself ([`crate::xpath`]); XPath has no
//! static variable rule, so an unbound XPath variable fails at evaluation.
//!
//! [`CompiledXQuery::compile`]: crate::CompiledXQuery::compile

use crate::ast::{Clause, QExpr};
use crate::error::{Result, XQueryError, XQueryErrorKind};

/// The first static error of `ast`, in document order.
pub(crate) fn check(ast: &QExpr) -> Result<()> {
    expr(ast, &mut Vec::new()).map_err(|e| e.with_kind(XQueryErrorKind::Compile))
}

/// Check `e` with the variables in `scope` bound. An error abandons the
/// whole check, so only a successful binding form restores the scope.
fn expr<'a>(e: &'a QExpr, scope: &mut Vec<&'a str>) -> Result<()> {
    let depth = scope.len();
    match e {
        QExpr::Var(v) if !scope.contains(&v.as_str()) => {
            return Err(XQueryError::new(format!("unbound variable ${v}")));
        }
        QExpr::Call { name, args, callee } => {
            callee.resolve(name, args.len())?;
        }
        QExpr::Flwor { clauses, ret: body }
        | QExpr::Quantified { binds: clauses, satisfies: body, .. } => {
            for c in clauses {
                match c {
                    Clause::For { var, at, seq } => {
                        expr(seq, scope)?;
                        scope.push(var);
                        scope.extend(at.as_deref());
                    }
                    Clause::Let { var, expr: bound } => {
                        expr(bound, scope)?;
                        scope.push(var);
                    }
                    Clause::Where(cond) => expr(cond, scope)?,
                    Clause::OrderBy { keys } => {
                        keys.iter().try_for_each(|k| expr(&k.key, scope))?;
                    }
                }
            }
            expr(body, scope)?;
            scope.truncate(depth);
            return Ok(());
        }
        _ => {}
    }
    let mut result = Ok(());
    e.children(true, |child| {
        if result.is_ok() {
            result = expr(child, scope);
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    #[test]
    fn accepts_all_binding_forms() {
        for q in [
            "for $w at $i in /descendant::w return concat($i, string($w))",
            "let $a := 2 let $b := $a * 3 return $a + $b",
            "some $w in /descendant::w satisfies string($w) = 'sibbe'",
            "every $x in (1, 2) satisfies $x > 0",
            "for $w in /descendant::w where string($w) order by string($w) return $w",
            "for $w in /descendant::w return <b k=\"{$w}\">{$w}</b>",
            "let $res := analyze-string(/, 'ge') for $n in $res/child::m return string($n)",
            "for $w in /descendant::w return $w[1]",
            "concat('a', 'b', 'c', 'd')",
            "/descendant::w[leaves()]",
        ] {
            let ast = parse_query(q).unwrap();
            assert_eq!(check(&ast), Ok(()), "false positive on `{q}`");
        }
    }

    #[test]
    fn rejects_free_variables_unknown_functions_and_wrong_argument_counts() {
        for (q, named) in [
            ("$undefined", "$undefined"),
            ("for $w in /descendant::w return $typo", "$typo"),
            ("let $a := $a return 1", "$a"),
            ("(for $x in (1) return $x, $x)", "$x"),
            ("some $x in (1) satisfies $y", "$y"),
            ("/descendant::w[$p]", "$p"),
            ("nosuch()", "nosuch()"),
            ("if (false()) then nosuch() else 1", "nosuch()"),
            ("<b>{wat(1)}</b>", "wat()"),
            ("count((1, 2), 3)", "count()"),
            ("for $x in (1) return substring($x)", "substring()"),
            ("concat('a')", "concat()"),
            ("true(1)", "true()"),
        ] {
            let ast = parse_query(q).unwrap();
            match check(&ast) {
                Err(e) => {
                    assert_eq!(e.kind, XQueryErrorKind::Compile, "`{q}`");
                    assert!(e.msg.contains(named), "`{q}` should name {named}: {}", e.msg);
                }
                Ok(()) => panic!("`{q}` should fail the static check"),
            }
        }
    }
}
