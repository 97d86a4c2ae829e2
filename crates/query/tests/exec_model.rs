//! Differential test of the SQL executor: random tables, predicates and
//! statements run through `SqlEngine` and through a naive `BTreeMap`
//! model with its own three-valued evaluator; every result must agree
//! row for row.
//!
//! The key column is U32 or I64 and the literals compared with it are
//! drawn in and out of its domain (negative, beyond `u32::MAX`, float,
//! string, NULL), so a plan that narrows the key range wrongly shows up
//! as a missing or extra row. Key conjuncts are often ANDed in front of a
//! non-key filter, so range paths carry a residual that must still be
//! checked. Strings include non-ASCII text and an embedded quote, which
//! the statements spell `''`. Statements insert rows one at a time, and
//! one statement drops the table and creates it again with the other key
//! type, so every later statement must see the new schema.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use fame_buffer::{BufferPool, ReplacementKind};
use fame_os::{AllocPolicy, InMemoryDevice};
use fame_query::{QueryOutput, SqlEngine};
use fame_storage::{Pager, Value};
use proptest::prelude::*;

const COLS: [&str; 3] = ["id", "v", "s"];
const STRS: [&str; 6] = ["a", "b", "ab", "c", "né", "it's"];

/// A predicate, rendered to SQL and evaluated by the model.
#[derive(Debug, Clone)]
enum Pred {
    /// `COLS[col] op lit`, or `lit op COLS[col]` when `lit_first`.
    Cmp {
        col: usize,
        op: usize,
        lit: Value,
        lit_first: bool,
    },
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

const OPS: [&str; 6] = ["=", "!=", "<", "<=", ">", ">="];

#[derive(Debug, Clone)]
enum Stmt {
    Select {
        /// `None` = `COUNT(*)`; `Some(&[])` = `*`.
        proj: Option<&'static [usize]>,
        pred: Option<Pred>,
        order: Option<(usize, bool)>,
        limit: Option<usize>,
    },
    Update {
        col: usize,
        lit: Value,
        pred: Option<Pred>,
    },
    Delete {
        pred: Option<Pred>,
    },
    /// `INSERT INTO t VALUES (key, v, STRS[s])`.
    Insert {
        key: i64,
        v: Option<u32>,
        s: usize,
    },
    /// `DROP TABLE t`, then `CREATE TABLE t` with the other key type.
    Recreate,
}

const PROJS: [Option<&[usize]>; 6] = [
    Some(&[]),
    Some(&[0]),
    Some(&[1, 2]),
    Some(&[2, 0]),
    Some(&[1, 1]),
    None,
];

/// The literal the parser produces for an integer token.
fn int_lit(i: i64) -> Value {
    match u32::try_from(i) {
        Ok(u) => Value::U32(u),
        Err(_) => Value::I64(i),
    }
}

fn sql_lit(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::U32(x) => x.to_string(),
        Value::I64(x) => x.to_string(),
        Value::F64(x) => format!("{x:?}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => unreachable!("not generated: {other:?}"),
    }
}

fn sql_pred(p: &Pred) -> String {
    match p {
        Pred::Cmp {
            col,
            op,
            lit,
            lit_first,
        } => {
            let (c, l) = (COLS[*col], sql_lit(lit));
            if *lit_first {
                format!("{l} {} {c}", OPS[*op])
            } else {
                format!("{c} {} {l}", OPS[*op])
            }
        }
        Pred::And(a, b) => format!("({}) AND ({})", sql_pred(a), sql_pred(b)),
        Pred::Or(a, b) => format!("({}) OR ({})", sql_pred(a), sql_pred(b)),
        Pred::Not(a) => format!("NOT ({})", sql_pred(a)),
    }
}

fn sql_where(pred: &Option<Pred>) -> String {
    pred.as_ref()
        .map_or(String::new(), |p| format!(" WHERE {}", sql_pred(p)))
}

fn create_sql(i64_key: bool) -> String {
    let key_ty = if i64_key { "I64" } else { "U32" };
    format!("CREATE TABLE t (id {key_ty}, v U32, s TEXT)")
}

fn insert_sql(key: i64, v: Option<u32>, s: &str) -> String {
    let v = v.map_or(Value::Null, Value::U32);
    format!(
        "INSERT INTO t VALUES ({key}, {}, {})",
        sql_lit(&v),
        sql_lit(&Value::Str(s.into()))
    )
}

/// The statement's text; `Recreate` renders its CREATE (the DROP before
/// it is run on its own).
fn sql(stmt: &Stmt, i64_key: bool) -> String {
    match stmt {
        Stmt::Select {
            proj,
            pred,
            order,
            limit,
        } => {
            let cols = match proj {
                None => "COUNT(*)".to_string(),
                Some([]) => "*".to_string(),
                Some(cols) => cols.iter().map(|&c| COLS[c]).collect::<Vec<_>>().join(", "),
            };
            let mut s = format!("SELECT {cols} FROM t{}", sql_where(pred));
            if let Some((c, desc)) = order {
                s += &format!(" ORDER BY {}{}", COLS[*c], if *desc { " DESC" } else { "" });
            }
            if let Some(n) = limit {
                s += &format!(" LIMIT {n}");
            }
            s
        }
        Stmt::Update { col, lit, pred } => {
            format!(
                "UPDATE t SET {} = {}{}",
                COLS[*col],
                sql_lit(lit),
                sql_where(pred)
            )
        }
        Stmt::Delete { pred } => format!("DELETE FROM t{}", sql_where(pred)),
        Stmt::Insert { key, v, s } => insert_sql(*key, *v, STRS[*s]),
        Stmt::Recreate => create_sql(!i64_key),
    }
}

// ---- the model ---------------------------------------------------------------

/// Rows by key: `(v, s)`.
type Model = BTreeMap<i64, (Option<u32>, String)>;

fn model_row(i64_key: bool, k: i64, (v, s): &(Option<u32>, String)) -> Vec<Value> {
    let id = if i64_key {
        Value::I64(k)
    } else {
        Value::U32(k as u32)
    };
    vec![id, v.map_or(Value::Null, Value::U32), Value::Str(s.clone())]
}

/// SQL comparison: numbers by value across U32/I64/F64, strings by
/// bytes, anything with NULL or across kinds incomparable.
fn model_cmp(a: &Value, b: &Value) -> Option<Ordering> {
    fn num(v: &Value) -> Option<f64> {
        match v {
            Value::U32(x) => Some(f64::from(*x)),
            Value::I64(x) => Some(*x as f64),
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        _ => num(a)?.partial_cmp(&num(b)?),
    }
}

/// Three-valued truth: `None` is UNKNOWN.
fn model_eval(p: &Pred, row: &[Value]) -> Option<bool> {
    match p {
        Pred::Cmp {
            col,
            op,
            lit,
            lit_first,
        } => {
            let (l, r) = if *lit_first {
                (lit, &row[*col])
            } else {
                (&row[*col], lit)
            };
            let ord = model_cmp(l, r)?;
            Some(match OPS[*op] {
                "=" => ord == Ordering::Equal,
                "!=" => ord != Ordering::Equal,
                "<" => ord == Ordering::Less,
                "<=" => ord != Ordering::Greater,
                ">" => ord == Ordering::Greater,
                _ => ord != Ordering::Less,
            })
        }
        Pred::And(a, b) => match (model_eval(a, row), model_eval(b, row)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Pred::Or(a, b) => match (model_eval(a, row), model_eval(b, row)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Pred::Not(a) => model_eval(a, row).map(|b| !b),
    }
}

/// What the model says a statement returns; `None` = an error. Applies
/// the statement's writes to the model, and `Recreate`'s flip of the key
/// type to `i64_key`.
fn model_run(model: &mut Model, i64_key: &mut bool, stmt: &Stmt) -> Option<QueryOutput> {
    if let Stmt::Recreate = stmt {
        model.clear();
        *i64_key = !*i64_key;
        return Some(QueryOutput::Created);
    }
    let i64_key = *i64_key;
    let hits = |model: &Model, pred: &Option<Pred>| -> Vec<i64> {
        model
            .iter()
            .filter(|(&k, r)| {
                pred.as_ref()
                    .is_none_or(|p| model_eval(p, &model_row(i64_key, k, r)) == Some(true))
            })
            .map(|(&k, _)| k)
            .collect()
    };
    match stmt {
        Stmt::Select {
            proj,
            pred,
            order,
            limit,
        } => {
            let mut rows: Vec<Vec<Value>> = hits(model, pred)
                .into_iter()
                .map(|k| model_row(i64_key, k, &model[&k]))
                .collect();
            if let Some((c, desc)) = *order {
                rows.sort_by(|a, b| {
                    let ord = model_cmp(&a[c], &b[c]).unwrap_or(Ordering::Equal);
                    if desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
            }
            if let Some(n) = *limit {
                rows.truncate(n);
            }
            Some(match proj {
                None => QueryOutput::Count(rows.len() as u64),
                Some([]) => QueryOutput::Rows {
                    columns: COLS.iter().map(|c| c.to_string()).collect(),
                    rows,
                },
                Some(cols) => QueryOutput::Rows {
                    columns: cols.iter().map(|&c| COLS[c].to_string()).collect(),
                    rows: rows
                        .into_iter()
                        .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
                        .collect(),
                },
            })
        }
        Stmt::Update { col, lit, pred } => {
            let keys = hits(model, pred);
            for &k in &keys {
                let row = model.get_mut(&k).expect("hit");
                match (col, lit) {
                    (1, Value::Null) => row.0 = None,
                    (1, Value::U32(x)) => row.0 = Some(*x),
                    (2, Value::Str(s)) => row.1 = s.clone(),
                    // Not storable in the column: the first matching row
                    // fails the statement before anything is written.
                    _ => return None,
                }
            }
            Some(QueryOutput::Updated(keys.len()))
        }
        Stmt::Delete { pred } => {
            let keys = hits(model, pred);
            for k in &keys {
                model.remove(k);
            }
            Some(QueryOutput::Deleted(keys.len()))
        }
        Stmt::Insert { key, v, s } => {
            // A negative key does not coerce into a U32 key column; a
            // present one is a duplicate.
            if (!i64_key && *key < 0) || model.contains_key(key) {
                return None;
            }
            model.insert(*key, (*v, STRS[*s].to_string()));
            Some(QueryOutput::Inserted(1))
        }
        Stmt::Recreate => unreachable!("answered above"),
    }
}

// ---- strategies --------------------------------------------------------------

fn lit() -> BoxedStrategy<Value> {
    let ints = || (-20i64..35).prop_map(int_lit);
    prop_oneof![
        ints(),
        ints(),
        ints(),
        Just(Value::I64(1 << 32)),
        Just(Value::F64(2.5)),
        (0usize..STRS.len()).prop_map(|i| Value::Str(STRS[i].into())),
        Just(Value::Null),
    ]
    .boxed()
}

fn cmp_on(cols: std::ops::Range<usize>) -> impl Strategy<Value = Pred> {
    (cols, 0usize..OPS.len(), lit(), any::<bool>()).prop_map(|(col, op, lit, lit_first)| {
        Pred::Cmp {
            col,
            op,
            lit,
            lit_first,
        }
    })
}

fn pred() -> BoxedStrategy<Pred> {
    cmp_on(0..3).prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Pred::Not(Box::new(a))),
        ]
    })
}

/// A WHERE clause: often one or two key comparisons ANDed in front of
/// an arbitrary predicate, so the optimizer narrows the path and the
/// residual still has work to do.
fn where_clause() -> BoxedStrategy<Option<Pred>> {
    let and = |a: Pred, b: Pred| Pred::And(Box::new(a), Box::new(b));
    prop_oneof![
        Just(None),
        pred().prop_map(Some),
        cmp_on(0..1).prop_map(Some),
        (cmp_on(0..1), pred()).prop_map(move |(k, p)| Some(and(k, p))),
        (cmp_on(0..1), cmp_on(0..1), pred()).prop_map(move |(k1, k2, p)| Some(and(and(k1, k2), p))),
    ]
    .boxed()
}

fn stmt() -> BoxedStrategy<Stmt> {
    let select = (
        0usize..PROJS.len(),
        where_clause(),
        prop::option::of((0usize..3, any::<bool>())),
        prop::option::of(0usize..6),
    )
        .prop_map(|(p, pred, order, limit)| Stmt::Select {
            proj: PROJS[p],
            pred,
            order,
            limit,
        });
    let set = prop_oneof![
        (0u32..25).prop_map(|x| (1, Value::U32(x))),
        Just((1, Value::Null)),
        Just((1, Value::I64(-1))),
        (0usize..STRS.len()).prop_map(|i| (2, Value::Str(STRS[i].into()))),
    ];
    let update =
        (set, where_clause()).prop_map(|((col, lit), pred)| Stmt::Update { col, lit, pred });
    let delete = where_clause().prop_map(|pred| Stmt::Delete { pred });
    let insert = (-20i64..35, prop::option::of(0u32..20), 0usize..STRS.len())
        .prop_map(|(key, v, s)| Stmt::Insert { key, v, s });
    prop_oneof![
        select.clone(),
        select.clone(),
        select,
        update,
        delete,
        insert.clone(),
        insert,
        Just(Stmt::Recreate),
    ]
    .boxed()
}

fn engine() -> (Pager, SqlEngine) {
    let pool = BufferPool::new(
        Box::new(InMemoryDevice::new(256)),
        ReplacementKind::Lru,
        AllocPolicy::Dynamic {
            max_frames: Some(64),
        },
    );
    let mut pager = Pager::open(pool).unwrap();
    let engine = SqlEngine::open_default(&mut pager).unwrap();
    (pager, engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn executor_agrees_with_the_model(
        i64_key in any::<bool>(),
        rows in prop::collection::btree_map(
            0i64..30,
            (prop::option::of(0u32..20), 0usize..STRS.len()),
            0..=20,
        ),
        stmts in prop::collection::vec(stmt(), 1..12),
    ) {
        // I64 keys straddle zero; U32 keys start at it.
        let shift = if i64_key { 15 } else { 0 };
        let mut model: Model = rows
            .into_iter()
            .map(|(k, (v, s))| (k - shift, (v, STRS[s].to_string())))
            .collect();
        let (mut pg, mut e) = engine();
        let mut i64_key = i64_key;
        e.execute(&mut pg, &create_sql(i64_key)).unwrap();
        for (&k, r) in &model {
            e.execute(&mut pg, &insert_sql(k, r.0, &r.1)).unwrap();
        }
        let everything = Stmt::Select { proj: Some(&[]), pred: None, order: None, limit: None };
        for stmt in stmts.iter().chain([&everything]) {
            if let Stmt::Recreate = stmt {
                let dropped = e.execute(&mut pg, "DROP TABLE t");
                prop_assert!(matches!(dropped, Ok(QueryOutput::Dropped)), "DROP: {dropped:?}");
            }
            let text = sql(stmt, i64_key);
            let want = model_run(&mut model, &mut i64_key, stmt);
            let got = e.execute(&mut pg, &text);
            let agree = match (&got, &want) {
                (Ok(got), Some(want)) => got == want,
                (Err(_), None) => true,
                _ => false,
            };
            prop_assert!(agree, "{text}: got {got:?}, model {want:?}");
        }
    }
}
