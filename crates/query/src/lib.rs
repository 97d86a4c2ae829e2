//! Access layer of FAME-DBMS: the *SQL Engine* and *Optimizer* features of
//! Figure 2.
//!
//! The paper's feature diagram places declarative access (SQL Engine) and
//! the Optimizer as optional features above the storage manager — most
//! deeply embedded products compose only the procedural `put`/`get` API,
//! while larger ones add SQL. Accordingly:
//!
//! * the whole crate is optional (cargo feature `sql` of `fame-dbms`);
//! * [`optimizer`] is optional *within* it (cargo feature `optimizer`) —
//!   without it every query runs as a full scan; with it, point and range
//!   predicates on the primary key use the B+-tree ([`plan::AccessPath`]).
//!
//! Pipeline: SQL text → [`sql::lexer`] → [`sql::parser`] → [`sql::ast`] →
//! [`plan`] (+ [`optimizer`]) → [`exec`] against [`catalog`] tables. The
//! lexer's tokens borrow from the statement text (a string literal is
//! copied only to unescape a `''`), and the parser moves them, so an
//! identifier or literal is copied once, into the owned AST. The
//! optimizer folds constants in place, reusing the AST's boxes.
//! [`SqlEngine`] keeps each table it has resolved through the catalog
//! (root slot and decoded schema) until its own CREATE or DROP of that
//! name; it is the catalog's only writer. Per
//! statement, [`exec`] resolves the residual predicate's column names to
//! row indexes once; per row, it streams: the access path
//! ([`fame_storage::BTree::scan_with`] or [`fame_storage::BTree::get_with`])
//! hands over each candidate in its leaf by reference, the row is decoded
//! there — only the columns the projection, the residual and `ORDER BY`
//! read are materialised, the rest are checked and skipped — and only
//! rows that pass the residual are copied out.
//!
//! The dialect covers what the paper's scenarios need: `CREATE TABLE`,
//! `DROP TABLE`, `INSERT`, `SELECT` (projection, `WHERE`, `ORDER BY`,
//! `LIMIT`, `COUNT(*)`), `UPDATE`, and `DELETE`.

pub mod catalog;
pub mod error;
pub mod exec;
#[cfg(feature = "optimizer")]
pub mod optimizer;
pub mod plan;
pub mod sql;

pub use catalog::{Catalog, TableInfo};
pub use error::{QueryError, QueryResult as Result};
#[cfg(feature = "obs")]
pub use exec::{QueryObs, QueryObsSnapshot};
pub use exec::{QueryOutput, SqlEngine};
pub use plan::{AccessPath, Plan};
