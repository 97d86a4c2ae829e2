//! `sql-scan`: point lookups against range scans, through `Database::sql`.
//!
//! One table of 50 k rows, one thread, a fixed mix: four in five
//! statements are `SELECT … WHERE id = ?`, one in five is a 100-row
//! primary-key range with a residual filter on `v` (the dialect has no
//! BETWEEN; the range is spelled `id >= a AND id <= b`). Parse, plan and
//! execute plus the B-tree cursor dominate. Every result set is compared,
//! row for row, with a model the harness computes from the same
//! generator.

use std::sync::Arc;

use fame_dbms::fame_storage::Value;
use fame_dbms::Database;
use fame_os::InMemoryDevice;

use super::{get, PAGE_SIZE};
use crate::gen::Rng;
use crate::measure::{drive, RoundOut};
use crate::metrics::Sheet;
use crate::trace::{self, DevCounters, DevSnapshot, TimedDevice};
use crate::{ladder, IoTotals, Params, Workload};

pub const ROWS: u32 = 50_000;
pub const RANGE_ROWS: u32 = 100;
const FRAMES: usize = 32_000;
/// `v` is uniform in `0..V_RANGE`; the range filter keeps `v > c`.
const V_RANGE: u32 = 1_000;
const PAD: &str = "fame-dbms-benchmark-row-"; // 24 bytes: a 32-byte payload
const ROW_BYTES: u64 = 4 + 4 + PAD.len() as u64;
const ROWS_PER_INSERT: u32 = 100;
/// Statements per budget-second.
const RATE: u64 = 88_000;
const WARM_UP_STATEMENTS: u64 = 5_000;

/// The model: `v` of row `id`.
pub fn v_of(id: u32) -> u32 {
    (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as u32 % V_RANGE
}

pub fn point_sql(id: u32) -> String {
    format!("SELECT v FROM t WHERE id = {id}")
}

pub fn range_sql(a: u32, c: u32) -> String {
    let b = a + RANGE_ROWS - 1;
    format!("SELECT id, v FROM t WHERE id >= {a} AND id <= {b} AND v > {c}")
}

pub struct SqlScan {
    db: Database,
    data: Arc<DevCounters>,
    /// Rows the traced rounds' statements returned, and their count.
    traced_rows: u64,
    failed_setup: u64,
    mark: (u64, DevSnapshot, fame_dbms::fame_buffer::PoolStats),
}

impl SqlScan {
    /// One statement of the mix, checked; returns the rows it returned,
    /// or `None` on a wrong answer.
    fn statement<const TRACED: bool>(db: &mut Database, rng: &mut Rng, i: u64) -> Option<u64> {
        let range = rng.below(5) == 0;
        let (sql, want): (String, Vec<Vec<Value>>) = if range {
            let a = rng.below(ROWS - RANGE_ROWS);
            let c = rng.below(V_RANGE);
            let want = (a..a + RANGE_ROWS)
                .filter(|&id| v_of(id) > c)
                .map(|id| vec![Value::U32(id), Value::U32(v_of(id))])
                .collect();
            (range_sql(a, c), want)
        } else {
            let id = rng.below(ROWS);
            (point_sql(id), vec![vec![Value::U32(v_of(id))]])
        };
        let run = |db: &mut Database| db.sql(&sql);
        let out = if TRACED && i.is_multiple_of(13) {
            trace::op_span(if range { "sql-range" } else { "sql-point" }, || run(db))
        } else {
            run(db)
        };
        match out.ok()?.rows() {
            Some(rows) if *rows == want => Some(rows.len() as u64),
            _ => None,
        }
    }

    fn run<const TRACED: bool>(&mut self, p: &Params, lane: u64, statements: u64) -> RoundOut {
        let mut rng = Rng::fork(p.seed, 100 + lane);
        let (db, traced_rows) = (&mut self.db, &mut self.traced_rows);
        // Span sampling happens in `statement`, which knows the op's kind.
        drive::<false>("sql", statements, 3, 1, |i| {
            match Self::statement::<TRACED>(db, &mut rng, i) {
                Some(rows) => {
                    if TRACED {
                        *traced_rows += rows;
                    }
                    true
                }
                None => false,
            }
        })
    }

    fn rows_scanned(&mut self) -> u64 {
        let stats = self.db.stats().expect("stats");
        stats.query.map_or(0, |q| q.rows_scanned)
    }
}

impl Workload for SqlScan {
    const NAME: &'static str = "sql-scan";

    fn setup(p: &Params) -> Self {
        let data = Arc::new(DevCounters::default());
        let device = TimedDevice::wrap(InMemoryDevice::new(PAGE_SIZE), &trace::DATA, &data);
        let mut db = Database::open_with_devices(get::config(FRAMES), device, None).expect("open");
        db.sql("CREATE TABLE t (id U32, v U32, pad TEXT)")
            .expect("create table");
        // Rows arrive in a seeded order, a hundred per statement.
        for chunk in get::load_order(p.seed, ROWS).chunks(ROWS_PER_INSERT as usize) {
            let rows: Vec<String> = chunk
                .iter()
                .map(|&id| format!("({id}, {}, '{PAD}')", v_of(id)))
                .collect();
            db.sql(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
                .expect("insert");
        }
        db.sync().expect("sync after load");
        let mut w = SqlScan {
            db,
            data,
            traced_rows: 0,
            failed_setup: 0,
            mark: Default::default(),
        };
        w.failed_setup = w.run::<false>(p, 99, WARM_UP_STATEMENTS).failed;
        w
    }

    fn round<const TRACED: bool>(&mut self, p: &Params, round: u64) -> RoundOut {
        self.run::<TRACED>(p, round, p.ops_per_round(RATE))
    }

    fn verify(&mut self) -> u64 {
        let count_ok = self.db.sql("SELECT COUNT(*) FROM t").ok()
            == Some(fame_dbms::QueryOutput::Count(u64::from(ROWS)));
        self.failed_setup + u64::from(!count_ok) + super::integrity_failures(&mut self.db)
    }

    fn io(&self) -> IoTotals {
        let d = self.data.snapshot();
        let user = u64::from(ROWS) * ROW_BYTES;
        IoTotals {
            written: d.writes * PAGE_SIZE as u64,
            user_written: user,
            disk: d.pages * PAGE_SIZE as u64,
            user_live: user,
        }
    }

    fn mark(&mut self) {
        self.mark = (
            self.rows_scanned(),
            self.data.snapshot(),
            self.db.pool_stats(),
        );
        self.traced_rows = 0;
    }

    fn layers(
        &mut self,
        p: &Params,
        spans: &[trace::Span],
        _reference: &[RoundOut],
        _traced: &[RoundOut],
        sheet: &mut Sheet,
    ) {
        ladder::pool_in_situ(sheet, &self.mark.2, &self.db.pool_stats());
        ladder::device_in_situ(sheet, "data", &self.data.snapshot().since(&self.mark.1));
        let scanned = self.rows_scanned() - self.mark.0;
        sheet.set(
            "query.rows_examined_per_row",
            scanned as f64 / self.traced_rows.max(1) as f64,
        );
        let (point_ns, _, points) = trace::op_times(spans, "sql-point");
        let (range_ns, _, ranges) = trace::op_times(spans, "sql-range");
        sheet.set("query.point.ns", point_ns);
        // Half the rows of a range pass the `v > c` filter on average; the
        // cursor still walks all of them.
        sheet.set("query.range.ns_per_row", range_ns / f64::from(RANGE_ROWS));
        let n = (points + ranges).max(1) as f64;
        sheet.set(
            "trace.op_ns",
            (point_ns * points as f64 + range_ns * ranges as f64) / n,
        );
        ladder::query_rungs(sheet, p);
    }
}
