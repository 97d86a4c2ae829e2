//! SQL Engine (Fig. 2: *Access → SQL Engine*): statements over the
//! product's pager, through an engine opened on first use.

use super::*;

impl Database {
    /// Execute a SQL statement (feature `sql`).
    pub fn sql(&mut self, statement: &str) -> Result<fame_query::QueryOutput> {
        let out = {
            let mut core = self.engine.core();
            if self.sql.is_none() {
                self.sql = Some(fame_query::SqlEngine::open_default(&mut core.pager)?);
            }
            let engine = self.sql.as_mut().expect("just initialized");
            engine.execute(&mut core.pager, statement)?
        };
        record!(self, Query, 0, statement.len() as u64, 0);
        Ok(out)
    }

    /// Access path chosen by the last SQL row-sourcing statement
    /// (optimizer diagnostics).
    pub fn last_access_path(&self) -> Option<&'static str> {
        self.sql.as_ref().and_then(|e| e.last_access_path())
    }
}
