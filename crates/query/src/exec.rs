//! Statement execution against catalog tables.
//!
//! Row-sourcing statements stream: the access path visits each candidate
//! row in its B+-tree leaf by reference, the row is decoded there —
//! materialising only the columns the statement reads, checking the rest
//! — and tested against the residual predicate, whose column names were
//! resolved to indexes once per statement. Only rows that pass are
//! copied out.

use std::borrow::Cow;
use std::sync::Arc;

use fame_storage::{BTree, DataType, Pager, Schema, Value};

use crate::catalog::{Catalog, TableInfo};
use crate::error::{QueryError, QueryResult};
use crate::plan::{AccessPath, Plan};
use crate::sql::ast::{BinOp, Expr, OrderBy, SelectCols, Stmt};
use crate::sql::parser::parse;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// `CREATE TABLE` succeeded.
    Created,
    /// `DROP TABLE` succeeded.
    Dropped,
    /// Rows inserted.
    Inserted(usize),
    /// Rows updated.
    Updated(usize),
    /// Rows deleted.
    Deleted(usize),
    /// A result set.
    Rows {
        /// Column names, in output order.
        columns: Vec<String>,
        /// Row values.
        rows: Vec<Vec<Value>>,
    },
    /// `SELECT COUNT(*)`.
    Count(u64),
}

impl QueryOutput {
    /// The result set's rows, if this is one (test convenience).
    pub fn rows(&self) -> Option<&Vec<Vec<Value>>> {
        match self {
            QueryOutput::Rows { rows, .. } => Some(rows),
            _ => None,
        }
    }
}

/// Statistics feature: counters of what the executor did — how many rows
/// each access path produced before residual filtering, and how often each
/// plan shape was chosen.
#[cfg(feature = "obs")]
#[derive(Debug, Default)]
pub struct QueryObs {
    /// Rows fetched from the index by row-sourcing statements (before the
    /// residual predicate drops non-matching ones).
    pub rows_scanned: fame_obs::Counter,
    /// Row-sourcing statements executed as a full leaf scan.
    pub full_scans: fame_obs::Counter,
    /// ... as a primary-key point lookup.
    pub point_lookups: fame_obs::Counter,
    /// ... as a primary-key range scan.
    pub range_scans: fame_obs::Counter,
}

/// A point-in-time copy of [`QueryObs`].
#[cfg(feature = "obs")]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryObsSnapshot {
    pub rows_scanned: u64,
    pub full_scans: u64,
    pub point_lookups: u64,
    pub range_scans: u64,
}

/// The SQL engine: parser + planner + executor over a [`Catalog`].
pub struct SqlEngine {
    catalog: Catalog,
    /// Tables resolved since their name was last created or dropped. The
    /// engine is its catalog's only writer (it hands the catalog out by
    /// shared reference), so only its own CREATE and DROP can make an
    /// entry stale, and both drop it.
    tables: Vec<Arc<TableInfo>>,
    /// Access-path labels of executed SELECT/UPDATE/DELETE statements
    /// (diagnostics for the optimizer ablation).
    last_path: Option<&'static str>,
    #[cfg(feature = "obs")]
    obs: QueryObs,
}

impl SqlEngine {
    /// Create an engine over an opened catalog.
    pub fn new(catalog: Catalog) -> Self {
        SqlEngine {
            catalog,
            tables: Vec::new(),
            last_path: None,
            #[cfg(feature = "obs")]
            obs: QueryObs::default(),
        }
    }

    /// Open an engine with the default catalog layout.
    pub fn open_default(pager: &mut Pager) -> QueryResult<Self> {
        Ok(SqlEngine::new(Catalog::open_default(pager)?))
    }

    /// The catalog (e.g. for listing tables).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Access path chosen by the last row-sourcing statement.
    pub fn last_access_path(&self) -> Option<&'static str> {
        self.last_path
    }

    /// Statistics feature: executor counters.
    #[cfg(feature = "obs")]
    pub fn obs(&self) -> QueryObsSnapshot {
        QueryObsSnapshot {
            rows_scanned: self.obs.rows_scanned.get(),
            full_scans: self.obs.full_scans.get(),
            point_lookups: self.obs.point_lookups.get(),
            range_scans: self.obs.range_scans.get(),
        }
    }

    /// The named table, resolved through the catalog on first use.
    fn table(&mut self, pager: &mut Pager, name: &str) -> QueryResult<Arc<TableInfo>> {
        if let Some(info) = self.tables.iter().find(|t| t.name == name) {
            return Ok(Arc::clone(info));
        }
        let info = Arc::new(self.catalog.table(pager, name)?);
        self.tables.push(Arc::clone(&info));
        Ok(info)
    }

    /// Drop the resolved entry of a table whose catalog entry changes.
    fn forget(&mut self, name: &str) {
        self.tables.retain(|t| t.name != name);
    }

    /// Parse and execute one statement.
    pub fn execute(&mut self, pager: &mut Pager, sql: &str) -> QueryResult<QueryOutput> {
        let stmt = parse(sql)?;
        self.execute_stmt(pager, stmt)
    }

    /// Execute an already-parsed statement.
    fn execute_stmt(&mut self, pager: &mut Pager, stmt: Stmt) -> QueryResult<QueryOutput> {
        match stmt {
            Stmt::CreateTable { name, columns } => {
                let schema = Schema::new(columns);
                let keyable = matches!(
                    schema.columns()[0].ty,
                    DataType::U32 | DataType::I64 | DataType::Str | DataType::Bytes
                );
                if !keyable {
                    return Err(QueryError::Type(format!(
                        "first column `{}` must have a key-encodable type",
                        schema.columns()[0].name
                    )));
                }
                self.forget(&name);
                self.catalog.create_table(pager, &name, &schema)?;
                Ok(QueryOutput::Created)
            }
            Stmt::DropTable { name } => {
                self.forget(&name);
                self.catalog.drop_table(pager, &name)?;
                Ok(QueryOutput::Dropped)
            }
            Stmt::Insert { table, rows } => {
                let info = self.table(pager, &table)?;
                let mut tree = BTree::open(pager, info.slot)?;
                let mut n = 0;
                for row in rows {
                    let row = coerce_row(&info.schema, row)?;
                    let key = key_of(&info.schema, &row)?;
                    let bytes = info.schema.encode_row(&row)?;
                    if !tree.insert_new(pager, &key, &bytes)? {
                        return Err(QueryError::DuplicateKey(format!("{}", row[0])));
                    }
                    n += 1;
                }
                Ok(QueryOutput::Inserted(n))
            }
            Stmt::Select {
                cols,
                table,
                predicate,
                order_by,
                limit,
            } => self.select(pager, cols, &table, predicate, order_by, limit),
            Stmt::Update {
                table,
                sets,
                predicate,
            } => {
                let info = self.table(pager, &table)?;
                let sets = sets
                    .into_iter()
                    .map(|(col, value)| Ok((column(&info.schema, &col)?, value)))
                    .collect::<QueryResult<Vec<_>>>()?;
                validate_predicate(&info, &predicate)?;
                let mut matching = Vec::new();
                let all = vec![true; info.schema.arity()];
                self.matching_rows(pager, &info, predicate, all, &mut |key, row| {
                    matching.push((key.to_vec(), std::mem::take(row)));
                })?;
                let mut tree = BTree::open(pager, info.slot)?;
                let mut n = 0;
                for (old_key, mut row) in matching {
                    for &(idx, ref value) in &sets {
                        row[idx] = coerce(value.clone(), info.schema.columns()[idx].ty)?;
                    }
                    info.schema.check_row(&row).map_err(QueryError::from)?;
                    let new_key = key_of(&info.schema, &row)?;
                    let bytes = info.schema.encode_row(&row)?;
                    if new_key == old_key {
                        tree.insert(pager, &new_key, &bytes)?;
                    } else if tree.insert_new(pager, &new_key, &bytes)? {
                        tree.remove(pager, &old_key)?;
                    } else {
                        return Err(QueryError::DuplicateKey(format!("{}", row[0])));
                    }
                    n += 1;
                }
                Ok(QueryOutput::Updated(n))
            }
            Stmt::Delete { table, predicate } => {
                let info = self.table(pager, &table)?;
                validate_predicate(&info, &predicate)?;
                let mut keys = Vec::new();
                let none = vec![false; info.schema.arity()];
                self.matching_rows(pager, &info, predicate, none, &mut |key, _| {
                    keys.push(key.to_vec());
                })?;
                let mut tree = BTree::open(pager, info.slot)?;
                for key in &keys {
                    tree.remove(pager, key)?;
                }
                Ok(QueryOutput::Deleted(keys.len()))
            }
            Stmt::Explain(inner) => self.explain(pager, *inner),
        }
    }

    /// `EXPLAIN`: plan the statement's row source without executing it.
    fn explain(&mut self, pager: &mut Pager, stmt: Stmt) -> QueryResult<QueryOutput> {
        let (table, predicate) = match stmt {
            Stmt::Select {
                table, predicate, ..
            }
            | Stmt::Update {
                table, predicate, ..
            }
            | Stmt::Delete { table, predicate } => (table, predicate),
            other => {
                return Err(QueryError::Parse(format!(
                    "EXPLAIN supports SELECT/UPDATE/DELETE, got {other:?}"
                )))
            }
        };
        let info = self.table(pager, &table)?;
        validate_predicate(&info, &predicate)?;
        let plan = plan(&info.schema, predicate);

        let mut steps = vec![format!("table: {}", info.name)];
        steps.push(match &plan.path {
            AccessPath::FullScan => "access: full leaf scan".to_string(),
            AccessPath::Point(_) => format!(
                "access: point lookup on primary key `{}`",
                info.schema.columns()[0].name
            ),
            AccessPath::Range { start, end } => format!(
                "access: range scan on primary key `{}` ({}, {})",
                info.schema.columns()[0].name,
                if start.is_some() {
                    "bounded below"
                } else {
                    "open below"
                },
                if end.is_some() {
                    "bounded above"
                } else {
                    "open above"
                },
            ),
        });
        steps.push(match &plan.residual {
            Some(_) => "filter: residual predicate re-checked per row".to_string(),
            None => "filter: none".to_string(),
        });
        if !cfg!(feature = "optimizer") {
            steps.push("note: optimizer feature not composed; no pruning".to_string());
        }
        self.last_path = Some(plan.path.label());
        Ok(QueryOutput::Rows {
            columns: vec!["plan".to_string()],
            rows: steps.into_iter().map(|s| vec![Value::Str(s)]).collect(),
        })
    }

    /// `SELECT`: stream the matching rows, keeping of each only the
    /// projected columns (plus a hidden `ORDER BY` column), moved out of
    /// the decoded row rather than cloned.
    fn select(
        &mut self,
        pager: &mut Pager,
        cols: SelectCols,
        table: &str,
        predicate: Option<Expr>,
        order_by: Option<OrderBy>,
        limit: Option<usize>,
    ) -> QueryResult<QueryOutput> {
        let info = self.table(pager, table)?;
        let schema = &info.schema;
        let count = cols == SelectCols::CountStar;
        // Per output column: the row index it is taken from, and whether
        // this is that column's last use, where it is moved, not cloned
        // (`SELECT v, v` clones the first).
        let (columns, mut moves): (_, Vec<(usize, bool)>) = match cols {
            SelectCols::All => (
                schema.columns().iter().map(|c| c.name.clone()).collect(),
                (0..schema.arity()).map(|c| (c, true)).collect(),
            ),
            SelectCols::Some(names) => {
                let moves = names
                    .iter()
                    .map(|n| Ok((column(schema, n)?, true)))
                    .collect::<QueryResult<_>>()?;
                (names, moves)
            }
            SelectCols::CountStar => (Vec::new(), Vec::new()),
        };
        let width = moves.len();
        // Position of the sort column in an output row; one that is not
        // projected rides behind the projection until the sort is done.
        let sort = match order_by {
            None => None,
            Some(ob) => {
                let idx = column(schema, &ob.column)?;
                let at = moves
                    .iter()
                    .position(|&(c, _)| c == idx)
                    .unwrap_or_else(|| {
                        moves.push((idx, true));
                        width
                    });
                Some((at, ob.desc))
            }
        };
        validate_predicate(&info, &predicate)?;

        let mut keep = vec![false; schema.arity()];
        if count {
            let mut n = 0u64;
            self.matching_rows(pager, &info, predicate, keep, &mut |_, _| n += 1)?;
            let n = limit.map_or(n, |l| n.min(l as u64));
            return Ok(QueryOutput::Count(n));
        }
        for j in 0..moves.len() {
            let c = moves[j].0;
            keep[c] = true;
            moves[j].1 = !moves[j + 1..].iter().any(|&(d, _)| d == c);
        }
        let mut rows: Vec<Vec<Value>> = Vec::new();
        self.matching_rows(pager, &info, predicate, keep, &mut |_, row| {
            rows.push(
                moves
                    .iter()
                    .map(|&(c, last)| {
                        if last {
                            std::mem::replace(&mut row[c], Value::Null)
                        } else {
                            row[c].clone()
                        }
                    })
                    .collect(),
            );
        })?;

        if let Some((at, desc)) = sort {
            rows.sort_by(|a, b| {
                let ord = a[at].compare(&b[at]).unwrap_or(std::cmp::Ordering::Equal);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
        }
        if let Some(n) = limit {
            rows.truncate(n);
        }
        if moves.len() > width {
            for r in &mut rows {
                r.truncate(width);
            }
        }
        Ok(QueryOutput::Rows { columns, rows })
    }

    /// Stream the rows matching `predicate` through the planned access
    /// path. Each candidate is decoded in its leaf — the columns `keep`
    /// marks plus those the residual reads are materialised, every other
    /// column is only checked — and tested against the residual; `visit`
    /// sees each row that passes, with its key, and may take its values.
    fn matching_rows(
        &mut self,
        pager: &mut Pager,
        info: &TableInfo,
        predicate: Option<Expr>,
        mut keep: Vec<bool>,
        visit: &mut dyn FnMut(&[u8], &mut Vec<Value>),
    ) -> QueryResult<()> {
        let plan = plan(&info.schema, predicate);
        self.last_path = Some(plan.path.label());
        #[cfg(feature = "obs")]
        match &plan.path {
            AccessPath::FullScan => self.obs.full_scans.inc(),
            AccessPath::Point(_) => self.obs.point_lookups.inc(),
            AccessPath::Range { .. } => self.obs.range_scans.inc(),
        }
        let residual = plan
            .residual
            .map(|p| Bound::new(p, &info.schema))
            .transpose()?;
        if let Some(r) = &residual {
            r.mark_columns(&mut keep);
        }

        let tree = BTree::open(pager, info.slot)?;
        let mut row = Vec::with_capacity(info.schema.arity());
        #[cfg(feature = "obs")]
        let mut scanned = 0u64;
        let mut on_row = |key: &[u8], bytes: &[u8]| -> QueryResult<()> {
            #[cfg(feature = "obs")]
            {
                scanned += 1;
            }
            info.schema.decode_row_into(bytes, &keep, &mut row)?;
            let hit = match &residual {
                None => true,
                Some(r) => matches!(*r.eval(&row)?, Value::Bool(true)),
            };
            if hit {
                visit(key, &mut row);
            }
            Ok(())
        };
        match &plan.path {
            AccessPath::Point(key) => {
                if let Some(r) = tree.get_with(pager, key, |v| on_row(key, v))? {
                    r?;
                }
            }
            AccessPath::FullScan => tree.scan_with(pager, None, None, &mut on_row)?,
            AccessPath::Range { start, end } => {
                tree.scan_with(pager, start.as_deref(), end.as_deref(), &mut on_row)?
            }
        }
        #[cfg(feature = "obs")]
        self.obs.rows_scanned.add(scanned);
        Ok(())
    }
}

/// The statement's access plan (Optimizer composed).
#[cfg(feature = "optimizer")]
fn plan(schema: &Schema, predicate: Option<Expr>) -> Plan {
    crate::optimizer::optimize(schema, predicate)
}

/// The statement's access plan (Optimizer composed out): a full scan.
#[cfg(not(feature = "optimizer"))]
fn plan(_: &Schema, predicate: Option<Expr>) -> Plan {
    Plan::full_scan(predicate)
}

/// Index of a named column.
fn column(schema: &Schema, name: &str) -> QueryResult<usize> {
    schema
        .column_index(name)
        .ok_or_else(|| QueryError::NoSuchColumn(name.to_string()))
}

fn validate_predicate(info: &TableInfo, predicate: &Option<Expr>) -> QueryResult<()> {
    fn walk(e: &Expr, schema: &Schema) -> QueryResult<()> {
        match e {
            Expr::Column(c) => column(schema, c).map(|_| ()),
            Expr::Literal(_) => Ok(()),
            Expr::Binary { lhs, rhs, .. } => {
                walk(lhs, schema)?;
                walk(rhs, schema)
            }
            Expr::Not(inner) => walk(inner, schema),
        }
    }
    match predicate {
        None => Ok(()),
        Some(p) => walk(p, &info.schema),
    }
}

/// A predicate bound to a table: column names resolved to row indexes
/// once per statement, so no row is evaluated by name.
#[derive(Debug)]
enum Bound {
    Column(usize),
    Literal(Value),
    Not(Box<Bound>),
    Binary {
        op: BinOp,
        lhs: Box<Bound>,
        rhs: Box<Bound>,
    },
}

impl Bound {
    fn new(e: Expr, schema: &Schema) -> QueryResult<Bound> {
        let bind = |e: Box<Expr>| Bound::new(*e, schema).map(Box::new);
        Ok(match e {
            Expr::Column(c) => Bound::Column(column(schema, &c)?),
            Expr::Literal(v) => Bound::Literal(v),
            Expr::Not(inner) => Bound::Not(bind(inner)?),
            Expr::Binary { op, lhs, rhs } => Bound::Binary {
                op,
                lhs: bind(lhs)?,
                rhs: bind(rhs)?,
            },
        })
    }

    /// Mark every column the expression reads.
    fn mark_columns(&self, used: &mut [bool]) {
        match self {
            Bound::Column(i) => used[*i] = true,
            Bound::Literal(_) => {}
            Bound::Not(inner) => inner.mark_columns(used),
            Bound::Binary { lhs, rhs, .. } => {
                lhs.mark_columns(used);
                rhs.mark_columns(used);
            }
        }
    }

    /// Evaluate over a row (SQL three-valued logic; `Null` stands for
    /// UNKNOWN). Column and literal operands are borrowed, never cloned.
    fn eval<'a>(&'a self, row: &'a [Value]) -> QueryResult<Cow<'a, Value>> {
        Ok(match self {
            Bound::Column(i) => Cow::Borrowed(&row[*i]),
            Bound::Literal(v) => Cow::Borrowed(v),
            Bound::Not(inner) => Cow::Owned(match &*inner.eval(row)? {
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
                other => {
                    return Err(QueryError::Type(format!("NOT applied to {other}")));
                }
            }),
            Bound::Binary { op, lhs, rhs } => {
                let l = lhs.eval(row)?;
                let r = rhs.eval(row)?;
                Cow::Owned(match op {
                    BinOp::And => kleene_and(to_truth(&l)?, to_truth(&r)?),
                    BinOp::Or => kleene_or(to_truth(&l)?, to_truth(&r)?),
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        match l.compare(&r) {
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
                        }
                    }
                })
            }
        })
    }
}

fn to_truth(v: &Value) -> QueryResult<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        other => Err(QueryError::Type(format!(
            "expected boolean condition, got {other}"
        ))),
    }
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Value {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn kleene_or(a: Option<bool>, b: Option<bool>) -> Value {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

/// Coerce a literal to a column type where lossless (ints widen, ints
/// float, U32↔I64 in range).
pub fn coerce(v: Value, ty: DataType) -> QueryResult<Value> {
    Ok(match (v, ty) {
        (Value::Null, _) => Value::Null,
        (Value::U32(x), DataType::U32) => Value::U32(x),
        (Value::U32(x), DataType::I64) => Value::I64(i64::from(x)),
        (Value::U32(x), DataType::F64) => Value::F64(f64::from(x)),
        (Value::I64(x), DataType::I64) => Value::I64(x),
        (Value::I64(x), DataType::U32) if (0..=i64::from(u32::MAX)).contains(&x) => {
            Value::U32(x as u32)
        }
        (Value::I64(x), DataType::F64) => Value::F64(x as f64),
        (Value::F64(x), DataType::F64) => Value::F64(x),
        (Value::Bool(b), DataType::Bool) => Value::Bool(b),
        (Value::Str(s), DataType::Str) => Value::Str(s),
        (Value::Bytes(b), DataType::Bytes) => Value::Bytes(b),
        (v, ty) => {
            return Err(QueryError::Type(format!(
                "cannot store {v} in a {ty} column"
            )));
        }
    })
}

fn coerce_row(schema: &Schema, row: Vec<Value>) -> QueryResult<Vec<Value>> {
    if row.len() != schema.arity() {
        return Err(QueryError::Type(format!(
            "expected {} values, got {}",
            schema.arity(),
            row.len()
        )));
    }
    row.into_iter()
        .zip(schema.columns())
        .map(|(v, c)| coerce(v, c.ty))
        .collect()
}

fn key_of(schema: &Schema, row: &[Value]) -> QueryResult<Vec<u8>> {
    row[0].to_key_bytes().ok_or_else(|| {
        QueryError::Type(format!(
            "column `{}` value {} is not key-encodable",
            schema.columns()[0].name,
            row[0]
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fame_buffer::{BufferPool, ReplacementKind};
    use fame_os::{AllocPolicy, InMemoryDevice};

    fn setup() -> (Pager, SqlEngine) {
        let dev = InMemoryDevice::new(512);
        let pool = BufferPool::new(
            Box::new(dev),
            ReplacementKind::Lru,
            AllocPolicy::Dynamic {
                max_frames: Some(128),
            },
        );
        let mut pager = Pager::open(pool).unwrap();
        let engine = SqlEngine::open_default(&mut pager).unwrap();
        (pager, engine)
    }

    fn seed(pager: &mut Pager, e: &mut SqlEngine) {
        e.execute(pager, "CREATE TABLE users (id U32, name TEXT, age U32)")
            .unwrap();
        e.execute(
            pager,
            "INSERT INTO users VALUES (1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35)",
        )
        .unwrap();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn obs_counts_plans_and_rows_scanned() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        // Full scan: all 3 rows are fetched.
        e.execute(&mut pg, "SELECT * FROM users").unwrap();
        // Point lookup: 1 row fetched.
        e.execute(&mut pg, "SELECT name FROM users WHERE id = 2")
            .unwrap();
        // Residual predicate on a non-key column still scans every row.
        e.execute(&mut pg, "SELECT name FROM users WHERE age > 28")
            .unwrap();
        let s = e.obs();
        assert_eq!(s.point_lookups, 1);
        assert!(s.full_scans >= 2, "full scans: {}", s.full_scans);
        assert_eq!(s.rows_scanned, 3 + 1 + 3);
    }

    /// A column no statement reads is still checked: a corrupt `pad`
    /// fails every statement that touches its row, through every path.
    #[test]
    fn unread_corrupt_columns_still_fail() {
        use fame_storage::StorageError;
        let (mut pg, mut e) = setup();
        e.execute(&mut pg, "CREATE TABLE t (id U32, v U32, pad TEXT)")
            .unwrap();
        e.execute(&mut pg, "INSERT INTO t VALUES (1, 10, 'fine')")
            .unwrap();
        let slot = e.catalog().table(&mut pg, "t").unwrap().slot;
        let key = Value::U32(2).to_key_bytes().unwrap();
        let mut head = Vec::new();
        Value::U32(2).encode(&mut head);
        Value::U32(20).encode(&mut head);
        let bad_utf8 = [&head[..], &[5, 2, 0, 0xFF, 0xFE]].concat();
        let truncated = [&head[..], &[5, 10, 0, b'a', b'b', b'c']].concat();
        for (bytes, reason) in [
            (bad_utf8, "value decode: invalid UTF-8 in string"),
            (truncated, "value decode: truncated payload"),
        ] {
            let mut tree = BTree::open(&mut pg, slot).unwrap();
            tree.insert(&mut pg, &key, &bytes).unwrap();
            for sql in [
                "SELECT id FROM t",
                "SELECT COUNT(*) FROM t",
                "SELECT v FROM t WHERE id = 2",
                "SELECT id FROM t WHERE id >= 2 AND v > 0",
            ] {
                match e.execute(&mut pg, sql) {
                    Err(QueryError::Storage(StorageError::Corrupt { reason: r, .. })) => {
                        assert_eq!(r, reason, "{sql}")
                    }
                    other => panic!("{sql}: {other:?}"),
                }
            }
            tree.remove(&mut pg, &key).unwrap();
        }
        assert_eq!(
            e.execute(&mut pg, "SELECT COUNT(*) FROM t").unwrap(),
            QueryOutput::Count(1)
        );
    }

    #[test]
    fn create_insert_select_star() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        let out = e.execute(&mut pg, "SELECT * FROM users").unwrap();
        let QueryOutput::Rows { columns, rows } = out else {
            panic!()
        };
        assert_eq!(columns, ["id", "name", "age"]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][1], Value::Str("alice".into()));
    }

    #[test]
    fn select_projection_and_where() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        let out = e
            .execute(&mut pg, "SELECT name FROM users WHERE age > 26")
            .unwrap();
        let rows = out.rows().unwrap();
        assert_eq!(rows.len(), 2);
        let names: Vec<&Value> = rows.iter().map(|r| &r[0]).collect();
        assert_eq!(
            names,
            [&Value::Str("alice".into()), &Value::Str("carol".into())]
        );
    }

    #[cfg(feature = "optimizer")]
    #[test]
    fn pk_equality_uses_point_lookup() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        let out = e
            .execute(&mut pg, "SELECT name FROM users WHERE id = 2")
            .unwrap();
        assert_eq!(out.rows().unwrap()[0][0], Value::Str("bob".into()));
        assert_eq!(e.last_access_path(), Some("point-lookup"));
    }

    #[cfg(feature = "optimizer")]
    #[test]
    fn pk_range_uses_range_scan() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        let out = e
            .execute(&mut pg, "SELECT id FROM users WHERE id >= 2 AND id <= 3")
            .unwrap();
        assert_eq!(out.rows().unwrap().len(), 2);
        assert_eq!(e.last_access_path(), Some("range-scan"));
    }

    #[test]
    fn order_by_and_limit() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        let out = e
            .execute(&mut pg, "SELECT name FROM users ORDER BY age DESC LIMIT 2")
            .unwrap();
        let rows = out.rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Str("carol".into()));
        assert_eq!(rows[1][0], Value::Str("alice".into()));
    }

    #[test]
    fn count_star() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        let out = e
            .execute(&mut pg, "SELECT COUNT(*) FROM users WHERE age < 31")
            .unwrap();
        assert_eq!(out, QueryOutput::Count(2));
    }

    #[test]
    fn update_rows() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        let out = e
            .execute(&mut pg, "UPDATE users SET age = 26 WHERE name = 'bob'")
            .unwrap();
        assert_eq!(out, QueryOutput::Updated(1));
        let rows = e
            .execute(&mut pg, "SELECT age FROM users WHERE id = 2")
            .unwrap();
        assert_eq!(rows.rows().unwrap()[0][0], Value::U32(26));
    }

    #[test]
    fn update_primary_key_moves_row() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        e.execute(&mut pg, "UPDATE users SET id = 99 WHERE id = 1")
            .unwrap();
        assert_eq!(
            e.execute(&mut pg, "SELECT COUNT(*) FROM users").unwrap(),
            QueryOutput::Count(3)
        );
        let out = e
            .execute(&mut pg, "SELECT name FROM users WHERE id = 99")
            .unwrap();
        assert_eq!(out.rows().unwrap()[0][0], Value::Str("alice".into()));
    }

    #[test]
    fn update_pk_duplicate_rejected() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        let err = e
            .execute(&mut pg, "UPDATE users SET id = 2 WHERE id = 1")
            .unwrap_err();
        assert!(matches!(err, QueryError::DuplicateKey(_)));
        // The refusal wrote nothing: both rows are as they were.
        for (id, name) in [(1, "alice"), (2, "bob")] {
            let sql = format!("SELECT name FROM users WHERE id = {id}");
            let out = e.execute(&mut pg, &sql).unwrap();
            assert_eq!(out.rows().unwrap()[..], [vec![Value::Str(name.into())]]);
        }
    }

    #[test]
    fn delete_rows() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        let out = e
            .execute(&mut pg, "DELETE FROM users WHERE age >= 30")
            .unwrap();
        assert_eq!(out, QueryOutput::Deleted(2));
        assert_eq!(
            e.execute(&mut pg, "SELECT COUNT(*) FROM users").unwrap(),
            QueryOutput::Count(1)
        );
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        let err = e
            .execute(&mut pg, "INSERT INTO users VALUES (1, 'dup', 1)")
            .unwrap_err();
        assert!(matches!(err, QueryError::DuplicateKey(_)));
    }

    #[test]
    fn unknown_table_and_column() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        assert!(matches!(
            e.execute(&mut pg, "SELECT * FROM nope"),
            Err(QueryError::NoSuchTable(_))
        ));
        assert!(matches!(
            e.execute(&mut pg, "SELECT missing FROM users"),
            Err(QueryError::NoSuchColumn(_))
        ));
        assert!(matches!(
            e.execute(&mut pg, "SELECT * FROM users WHERE ghost = 1"),
            Err(QueryError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn null_semantics_in_where() {
        let (mut pg, mut e) = setup();
        e.execute(&mut pg, "CREATE TABLE t (id U32, v U32)")
            .unwrap();
        e.execute(&mut pg, "INSERT INTO t VALUES (1, 10), (2, NULL)")
            .unwrap();
        // NULL comparisons are UNKNOWN and excluded.
        let out = e.execute(&mut pg, "SELECT id FROM t WHERE v > 5").unwrap();
        assert_eq!(out.rows().unwrap().len(), 1);
        let out = e
            .execute(&mut pg, "SELECT id FROM t WHERE NOT (v > 5)")
            .unwrap();
        assert_eq!(out.rows().unwrap().len(), 0, "NOT UNKNOWN is UNKNOWN");
    }

    #[test]
    fn type_errors() {
        let (mut pg, mut e) = setup();
        e.execute(&mut pg, "CREATE TABLE t (id U32, v U32)")
            .unwrap();
        assert!(matches!(
            e.execute(&mut pg, "INSERT INTO t VALUES ('str', 1)"),
            Err(QueryError::Type(_))
        ));
        assert!(matches!(
            e.execute(&mut pg, "INSERT INTO t VALUES (1)"),
            Err(QueryError::Type(_))
        ));
        // F64 primary keys are not key-encodable.
        assert!(matches!(
            e.execute(&mut pg, "CREATE TABLE bad (x F64)"),
            Err(QueryError::Type(_))
        ));
    }

    #[test]
    fn int_coercion_into_i64_and_f64() {
        let (mut pg, mut e) = setup();
        e.execute(&mut pg, "CREATE TABLE t (id U32, big I64, f F64)")
            .unwrap();
        e.execute(&mut pg, "INSERT INTO t VALUES (1, 5, 5)")
            .unwrap();
        let out = e.execute(&mut pg, "SELECT big, f FROM t").unwrap();
        let rows = out.rows().unwrap();
        assert_eq!(rows[0][0], Value::I64(5));
        assert_eq!(rows[0][1], Value::F64(5.0));
    }

    #[test]
    fn drop_table_removes_data() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        e.execute(&mut pg, "DROP TABLE users").unwrap();
        assert!(matches!(
            e.execute(&mut pg, "SELECT * FROM users"),
            Err(QueryError::NoSuchTable(_))
        ));
        // The slot is reusable, and the name is resolved afresh: the new
        // schema decides coercion, projection and the key.
        e.execute(&mut pg, "CREATE TABLE users (id I64, x U32)")
            .unwrap();
        assert_eq!(
            e.execute(&mut pg, "SELECT COUNT(*) FROM users").unwrap(),
            QueryOutput::Count(0)
        );
        e.execute(&mut pg, "INSERT INTO users VALUES (-5, 7)")
            .unwrap();
        assert!(matches!(
            e.execute(&mut pg, "SELECT name FROM users"),
            Err(QueryError::NoSuchColumn(_))
        ));
        let out = e
            .execute(&mut pg, "SELECT x FROM users WHERE id = -5")
            .unwrap();
        assert_eq!(out.rows().unwrap(), &vec![vec![Value::U32(7)]]);
    }

    #[cfg(feature = "optimizer")]
    #[test]
    fn explain_reports_access_paths() {
        let (mut pg, mut e) = setup();
        seed(&mut pg, &mut e);
        let out = e
            .execute(&mut pg, "EXPLAIN SELECT * FROM users WHERE id = 2")
            .unwrap();
        let rows = out.rows().unwrap();
        let text: Vec<String> = rows.iter().map(|r| r[0].to_string()).collect();
        assert!(text.iter().any(|s| s.contains("point lookup")), "{text:?}");

        let out = e
            .execute(
                &mut pg,
                "EXPLAIN SELECT * FROM users WHERE id >= 1 AND id < 3",
            )
            .unwrap();
        let text: Vec<String> = out
            .rows()
            .unwrap()
            .iter()
            .map(|r| r[0].to_string())
            .collect();
        assert!(text.iter().any(|s| s.contains("range scan")), "{text:?}");

        let out = e
            .execute(&mut pg, "EXPLAIN DELETE FROM users WHERE name = 'bob'")
            .unwrap();
        let text: Vec<String> = out
            .rows()
            .unwrap()
            .iter()
            .map(|r| r[0].to_string())
            .collect();
        assert!(
            text.iter().any(|s| s.contains("full leaf scan")),
            "{text:?}"
        );
        // EXPLAIN must not execute: bob is still there.
        assert_eq!(
            e.execute(&mut pg, "SELECT COUNT(*) FROM users").unwrap(),
            QueryOutput::Count(3)
        );
    }

    #[test]
    fn explain_rejects_non_row_statements() {
        let (mut pg, mut e) = setup();
        assert!(e
            .execute(&mut pg, "EXPLAIN CREATE TABLE t (id U32)")
            .is_err());
        let _ = pg;
    }

    #[test]
    fn non_ascii_strings_round_trip() {
        let (mut pg, mut e) = setup();
        e.execute(&mut pg, "CREATE TABLE t (id U32, s TEXT)")
            .unwrap();
        e.execute(
            &mut pg,
            "INSERT INTO t VALUES (1, 'café'), (2, 'l''été à 東京')",
        )
        .unwrap();
        let out = e
            .execute(&mut pg, "SELECT s FROM t WHERE s >= 'c'")
            .unwrap();
        assert_eq!(
            out.rows().unwrap(),
            &vec![
                vec![Value::Str("café".into())],
                vec![Value::Str("l'été à 東京".into())]
            ]
        );
        let out = e
            .execute(&mut pg, "SELECT id FROM t WHERE s = 'café'")
            .unwrap();
        assert_eq!(out.rows().unwrap(), &vec![vec![Value::U32(1)]]);
    }

    #[test]
    fn string_primary_keys() {
        let (mut pg, mut e) = setup();
        e.execute(&mut pg, "CREATE TABLE cfg (key TEXT, val TEXT)")
            .unwrap();
        e.execute(
            &mut pg,
            "INSERT INTO cfg VALUES ('b', '2'), ('a', '1'), ('c', '3')",
        )
        .unwrap();
        let out = e.execute(&mut pg, "SELECT key FROM cfg").unwrap();
        let keys: Vec<&Value> = out.rows().unwrap().iter().map(|r| &r[0]).collect();
        // Primary-index order = sorted keys.
        assert_eq!(
            keys,
            [
                &Value::Str("a".into()),
                &Value::Str("b".into()),
                &Value::Str("c".into())
            ]
        );
    }
}
