//! Rule-based optimizer: the *Optimizer* feature of Figure 2.
//!
//! Two rules, both classic and both measurable in the ablation bench:
//!
//! 1. **Constant folding** — `Literal op Literal` collapses to a literal;
//!    `AND`/`OR` with constant operands simplify (Kleene logic).
//! 2. **Primary-key access-path selection** — top-level `AND` conjuncts of
//!    the form `pk op literal` narrow the access path: `=` becomes a point
//!    lookup, inequalities tighten a range. The literal is first coerced to
//!    the key column's type (rows are keyed by that type's encoding); a
//!    literal that does not coerce narrows nothing. The full predicate
//!    stays as the residual check, so the rule can only prune I/O.

use fame_storage::{Schema, Value};

use crate::plan::{AccessPath, Plan};
use crate::sql::ast::{BinOp, Expr};

/// Optimize a predicate into a plan for a table with the given schema.
pub fn optimize(schema: &Schema, predicate: Option<Expr>) -> Plan {
    let predicate = predicate.map(fold);
    let pk = &schema.columns()[0];

    let mut point: Option<Vec<u8>> = None;
    let mut start: Option<Vec<u8>> = None;
    let mut end: Option<Vec<u8>> = None;

    if let Some(pred) = &predicate {
        for_each_conjunct(pred, &mut |c| {
            if let Some((op, value)) = pk_comparison(c, &pk.name) {
                // Rows are keyed by the column's encoding, so the literal
                // is encoded as the column would store it; one that does
                // not coerce losslessly (`-1` against a U32 key) does not
                // narrow the path and the residual alone decides.
                let key = crate::exec::coerce(value.clone(), pk.ty)
                    .ok()
                    .and_then(|v| v.to_key_bytes());
                let Some(key) = key else {
                    return;
                };
                match op {
                    BinOp::Eq => point = Some(key),
                    BinOp::Ge => tighten_start(&mut start, key),
                    BinOp::Gt => tighten_start(&mut start, successor(key)),
                    BinOp::Lt => tighten_end(&mut end, key),
                    BinOp::Le => tighten_end(&mut end, successor(key)),
                    _ => {}
                }
            }
        });
    }

    let path = if let Some(key) = point {
        AccessPath::Point(key)
    } else if start.is_some() || end.is_some() {
        AccessPath::Range { start, end }
    } else {
        AccessPath::FullScan
    };

    Plan {
        path,
        residual: predicate,
    }
}

/// The immediate successor of a key in bytewise order (`k ++ [0]`), used
/// to turn inclusive bounds into the B+-tree's exclusive ones.
fn successor(mut key: Vec<u8>) -> Vec<u8> {
    key.push(0);
    key
}

fn tighten_start(start: &mut Option<Vec<u8>>, candidate: Vec<u8>) {
    match start {
        Some(s) if *s >= candidate => {}
        _ => *start = Some(candidate),
    }
}

fn tighten_end(end: &mut Option<Vec<u8>>, candidate: Vec<u8>) {
    match end {
        Some(e) if *e <= candidate => {}
        _ => *end = Some(candidate),
    }
}

/// Visit a predicate's top-level AND conjuncts, left to right.
fn for_each_conjunct<'e>(e: &'e Expr, visit: &mut impl FnMut(&'e Expr)) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            for_each_conjunct(lhs, visit);
            for_each_conjunct(rhs, visit);
        }
        other => visit(other),
    }
}

/// Match `pk op literal` or `literal op pk` (the latter with the operator
/// mirrored).
fn pk_comparison<'e>(e: &'e Expr, pk: &str) -> Option<(BinOp, &'e Value)> {
    let Expr::Binary { op, lhs, rhs } = e else {
        return None;
    };
    match (&**lhs, &**rhs) {
        (Expr::Column(c), Expr::Literal(v)) if c == pk => Some((*op, v)),
        (Expr::Literal(v), Expr::Column(c)) if c == pk => {
            let mirrored = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => *other,
            };
            Some((mirrored, v))
        }
        _ => None,
    }
}

/// Constant folding with Kleene three-valued logic.
pub fn fold(mut e: Expr) -> Expr {
    fold_in_place(&mut e);
    e
}

/// [`fold`] on a borrowed tree: a node that folds is overwritten with
/// its literal or with the operand it reduces to, moved out of its box,
/// and every node that stays keeps its boxes.
fn fold_in_place(e: &mut Expr) {
    let folded = match e {
        Expr::Binary { op, lhs, rhs } => {
            fold_in_place(lhs);
            fold_in_place(rhs);
            match (*op, &**lhs, &**rhs) {
                // Comparisons of two literals.
                (
                    op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                    Expr::Literal(a),
                    Expr::Literal(b),
                ) => Expr::Literal(match a.compare(b) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(match op {
                        BinOp::Eq => ord.is_eq(),
                        BinOp::Ne => ord.is_ne(),
                        BinOp::Lt => ord.is_lt(),
                        BinOp::Le => ord.is_le(),
                        BinOp::Gt => ord.is_gt(),
                        BinOp::Ge => ord.is_ge(),
                        _ => unreachable!(),
                    }),
                }),
                // AND identities.
                (BinOp::And, Expr::Literal(Value::Bool(false)), _)
                | (BinOp::And, _, Expr::Literal(Value::Bool(false))) => {
                    Expr::Literal(Value::Bool(false))
                }
                (BinOp::And, Expr::Literal(Value::Bool(true)), _) => take(rhs),
                (BinOp::And, _, Expr::Literal(Value::Bool(true))) => take(lhs),
                // OR identities.
                (BinOp::Or, Expr::Literal(Value::Bool(true)), _)
                | (BinOp::Or, _, Expr::Literal(Value::Bool(true))) => {
                    Expr::Literal(Value::Bool(true))
                }
                (BinOp::Or, Expr::Literal(Value::Bool(false)), _) => take(rhs),
                (BinOp::Or, _, Expr::Literal(Value::Bool(false))) => take(lhs),
                _ => return,
            }
        }
        Expr::Not(inner) => {
            fold_in_place(inner);
            match **inner {
                Expr::Literal(Value::Bool(b)) => Expr::Literal(Value::Bool(!b)),
                Expr::Literal(Value::Null) => Expr::Literal(Value::Null),
                _ => return,
            }
        }
        _ => return,
    };
    *e = folded;
}

/// Move an operand out of its box, leaving a literal that needs no heap.
fn take(operand: &mut Expr) -> Expr {
    std::mem::replace(operand, Expr::Literal(Value::Null))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fame_storage::DataType;

    fn schema() -> Schema {
        Schema::new([("id", DataType::U32), ("v", DataType::Str)])
    }

    fn col(name: &str) -> Expr {
        Expr::Column(name.into())
    }

    fn lit_u32(v: u32) -> Expr {
        Expr::Literal(Value::U32(v))
    }

    #[test]
    fn equality_becomes_point_lookup() {
        let p = optimize(
            &schema(),
            Some(Expr::binary(BinOp::Eq, col("id"), lit_u32(42))),
        );
        assert_eq!(p.path, AccessPath::Point(42u32.to_be_bytes().to_vec()));
        assert!(p.residual.is_some(), "predicate still re-checked");
    }

    #[test]
    fn range_bounds_tightened() {
        // id >= 10 AND id < 20 AND v = 'x'
        let pred = Expr::binary(
            BinOp::And,
            Expr::binary(
                BinOp::And,
                Expr::binary(BinOp::Ge, col("id"), lit_u32(10)),
                Expr::binary(BinOp::Lt, col("id"), lit_u32(20)),
            ),
            Expr::binary(BinOp::Eq, col("v"), Expr::Literal(Value::Str("x".into()))),
        );
        let p = optimize(&schema(), Some(pred));
        assert_eq!(
            p.path,
            AccessPath::Range {
                start: Some(10u32.to_be_bytes().to_vec()),
                end: Some(20u32.to_be_bytes().to_vec()),
            }
        );
    }

    #[test]
    fn inclusive_bounds_use_successor() {
        let pred = Expr::binary(BinOp::Le, col("id"), lit_u32(9));
        let p = optimize(&schema(), Some(pred));
        let mut want = 9u32.to_be_bytes().to_vec();
        want.push(0);
        assert_eq!(
            p.path,
            AccessPath::Range {
                start: None,
                end: Some(want)
            }
        );
    }

    #[test]
    fn mirrored_literal_first() {
        // 10 <= id  ==  id >= 10
        let pred = Expr::binary(BinOp::Le, lit_u32(10), col("id"));
        let p = optimize(&schema(), Some(pred));
        assert_eq!(
            p.path,
            AccessPath::Range {
                start: Some(10u32.to_be_bytes().to_vec()),
                end: None,
            }
        );
    }

    #[test]
    fn key_literals_are_encoded_as_the_key_column() {
        let i64_key = Schema::new([("id", DataType::I64), ("v", DataType::U32)]);
        let p = optimize(
            &i64_key,
            Some(Expr::binary(BinOp::Eq, col("id"), lit_u32(5))),
        );
        assert_eq!(
            p.path,
            AccessPath::Point(Value::I64(5).to_key_bytes().unwrap())
        );
        // -1 has no U32 encoding: the conjunct narrows nothing.
        let minus_one = Expr::Literal(Value::I64(-1));
        let p = optimize(
            &schema(),
            Some(Expr::binary(BinOp::Gt, col("id"), minus_one)),
        );
        assert_eq!(p.path, AccessPath::FullScan);
    }

    #[test]
    fn non_key_predicates_full_scan() {
        let pred = Expr::binary(BinOp::Eq, col("v"), Expr::Literal(Value::Str("a".into())));
        let p = optimize(&schema(), Some(pred));
        assert_eq!(p.path, AccessPath::FullScan);
    }

    #[test]
    fn or_disables_pruning() {
        // id = 1 OR v = 'x' cannot prune on id alone.
        let pred = Expr::binary(
            BinOp::Or,
            Expr::binary(BinOp::Eq, col("id"), lit_u32(1)),
            Expr::binary(BinOp::Eq, col("v"), Expr::Literal(Value::Str("x".into()))),
        );
        let p = optimize(&schema(), Some(pred));
        assert_eq!(p.path, AccessPath::FullScan);
    }

    #[test]
    fn fold_comparisons() {
        let e = fold(Expr::binary(BinOp::Lt, lit_u32(1), lit_u32(2)));
        assert_eq!(e, Expr::Literal(Value::Bool(true)));
        let e = fold(Expr::binary(BinOp::Eq, lit_u32(1), lit_u32(2)));
        assert_eq!(e, Expr::Literal(Value::Bool(false)));
    }

    #[test]
    fn fold_null_propagates() {
        let e = fold(Expr::binary(
            BinOp::Eq,
            Expr::Literal(Value::Null),
            lit_u32(1),
        ));
        assert_eq!(e, Expr::Literal(Value::Null));
    }

    #[test]
    fn fold_and_or_identities() {
        let t = Expr::Literal(Value::Bool(true));
        let f = Expr::Literal(Value::Bool(false));
        let c = col("x");
        assert_eq!(fold(Expr::binary(BinOp::And, t.clone(), c.clone())), c);
        assert_eq!(
            fold(Expr::binary(BinOp::And, f.clone(), c.clone())),
            Expr::Literal(Value::Bool(false))
        );
        assert_eq!(
            fold(Expr::binary(BinOp::Or, t.clone(), c.clone())),
            Expr::Literal(Value::Bool(true))
        );
        assert_eq!(fold(Expr::binary(BinOp::Or, f, c.clone())), c);
        let _ = t;
    }

    #[test]
    fn fold_not() {
        assert_eq!(
            fold(Expr::Not(Box::new(Expr::Literal(Value::Bool(true))))),
            Expr::Literal(Value::Bool(false))
        );
        assert_eq!(
            fold(Expr::Not(Box::new(Expr::Literal(Value::Null)))),
            Expr::Literal(Value::Null)
        );
    }

    #[test]
    fn contradictory_range_stays_range() {
        // id > 20 AND id < 10: empty range, still a valid (empty) scan.
        let pred = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Gt, col("id"), lit_u32(20)),
            Expr::binary(BinOp::Lt, col("id"), lit_u32(10)),
        );
        let p = optimize(&schema(), Some(pred));
        match p.path {
            AccessPath::Range {
                start: Some(s),
                end: Some(e),
            } => assert!(s > e),
            other => panic!("unexpected {other:?}"),
        }
    }
}
