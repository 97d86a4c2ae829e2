//! `get-hot` and `get-cold`: uniform point reads over one loaded B-tree.
//!
//! Same data, same key stream, same code; only the pool size differs.
//! Hot: the pool holds every page, so each access is a hit and the device
//! is idle — facade, B-tree descent and the pool's hit path do all the
//! work (the Fig. 1b band). Cold: the pool holds a sixteenth of the pages,
//! so inner nodes stay resident and nearly every leaf read misses — the
//! pool's miss/eviction path and the device read dominate. A hit-path
//! change must not move `get-cold`; a replacement change must not move
//! `get-hot`.

use std::sync::Arc;
use std::time::Instant;

use fame_dbms::fame_buffer::{PoolStats, ReplacementKind};
use fame_dbms::{BufferConfig, Database, DbmsConfig};
use fame_os::InMemoryDevice;

use super::PAGE_SIZE;
use crate::gen::{check_value, key, value, Rng, RECORD_BYTES};
use crate::measure::{drive, RoundOut};
use crate::metrics::Sheet;
use crate::trace::{self, DevCounters, DevSnapshot, TimedDevice};
use crate::{ladder, IoTotals, Params, Workload};

/// 100 000 records make a B-tree of height 4 (three inner levels and the
/// leaf) for every insertion order. At 200 000 the height flips between 4
/// and 5 with the seed, which moves `ops_s` by a tenth and the LRU's
/// memory by a quarter from one seed to the next.
pub const RECORDS: u32 = 100_000;
/// Hot pool: more than twice the ~13 300 pages the load allocates.
pub const HOT_FRAMES: usize = 32_000;
/// Cold pool: a sixteenth of them.
pub const COLD_FRAMES: usize = 830;
/// Gets per budget-second: a run's rounds take about `--seconds` on the
/// reference box.
const HOT_RATE: u64 = 1_600_000;
const COLD_RATE: u64 = 1_300_000;
/// Rng lanes: load order, warm-up, then one per round.
const LANE_LOAD: u64 = 1;
const LANE_WARM: u64 = 2;
pub const LANE_ROUND: u64 = 100;

pub fn config(frames: usize) -> DbmsConfig {
    let mut c = DbmsConfig::in_memory();
    c.page_size = PAGE_SIZE;
    c.buffer = Some(BufferConfig {
        frames,
        replacement: ReplacementKind::Lru,
        static_alloc: false,
    });
    c
}

/// The records in the order they are inserted: a seeded shuffle, so leaves
/// fill the way random arrivals fill them (~2/3), not the way a sorted
/// bulk load would.
pub fn load_order(seed: u64, records: u32) -> Vec<u32> {
    let mut order: Vec<u32> = (0..records).collect();
    Rng::fork(seed, LANE_LOAD).shuffle(&mut order);
    order
}

/// One checked point read through the facade.
#[inline]
pub fn checked_get(db: &mut Database, k: u32) -> bool {
    matches!(
        db.get_with(&key(k), |v| check_value(k, v) == Some(0)),
        Ok(Some(true))
    )
}

pub struct Get<const HOT: bool> {
    pub db: Database,
    data: Arc<DevCounters>,
    records: u32,
    /// Mean ns of one `Database::put` during the load.
    put_ns: f64,
    failed_setup: u64,
    mark: (PoolStats, DevSnapshot),
}

impl<const HOT: bool> Get<HOT> {
    pub fn frames() -> usize {
        if HOT {
            HOT_FRAMES
        } else {
            COLD_FRAMES
        }
    }

    /// Open over a fresh in-memory device, load `records`, sync, read every
    /// record once (the warm-up: afterwards the pool holds what it can).
    pub fn open_and_load(p: &Params, records: u32, config: DbmsConfig) -> Self {
        let data = Arc::new(DevCounters::default());
        let device = TimedDevice::wrap(InMemoryDevice::new(PAGE_SIZE), &trace::DATA, &data);
        let mut db = Database::open_with_devices(config, device, None).expect("open");
        let order = load_order(p.seed, records);
        let t = Instant::now();
        for &k in &order {
            db.put(&key(k), &value(k, 0)).expect("load put");
        }
        let put_ns = t.elapsed().as_nanos() as f64 / f64::from(records);
        db.sync().expect("sync after load");

        let mut rng = Rng::fork(p.seed, LANE_WARM);
        let mut failed_setup = 0;
        for _ in 0..records {
            failed_setup += u64::from(!checked_get(&mut db, rng.below(records)));
        }
        let mark = (db.pool_stats(), data.snapshot());
        Get {
            db,
            data,
            records,
            put_ns,
            failed_setup,
            mark,
        }
    }
}

impl<const HOT: bool> Workload for Get<HOT> {
    const NAME: &'static str = if HOT { "get-hot" } else { "get-cold" };

    fn setup(p: &Params) -> Self {
        Self::open_and_load(p, RECORDS, config(Self::frames()))
    }

    fn round<const TRACED: bool>(&mut self, p: &Params, round: u64) -> RoundOut {
        let ops = p.ops_per_round(if HOT { HOT_RATE } else { COLD_RATE });
        let mut rng = Rng::fork(p.seed, LANE_ROUND + round);
        let (db, records) = (&mut self.db, self.records);
        drive::<TRACED>("get", ops, 17, 61, |_| checked_get(db, rng.below(records)))
    }

    fn verify(&mut self) -> u64 {
        self.failed_setup + super::integrity_failures(&mut self.db)
    }

    fn io(&self) -> IoTotals {
        let d = self.data.snapshot();
        let user = u64::from(self.records) * RECORD_BYTES;
        IoTotals {
            written: d.writes * PAGE_SIZE as u64,
            user_written: user,
            disk: d.pages * PAGE_SIZE as u64,
            user_live: user,
        }
    }

    fn mark(&mut self) {
        self.mark = (self.db.pool_stats(), self.data.snapshot());
    }

    fn layers(
        &mut self,
        p: &Params,
        spans: &[trace::Span],
        _reference: &[RoundOut],
        _traced: &[RoundOut],
        sheet: &mut Sheet,
    ) {
        ladder::pool_in_situ(sheet, &self.mark.0, &self.db.pool_stats());
        ladder::device_in_situ(sheet, "data", &self.data.snapshot().since(&self.mark.1));
        ladder::op_in_situ(sheet, spans, "get");
        let facade_ns = ladder::get_rungs(
            sheet,
            p,
            &mut self.db,
            self.records,
            Self::frames(),
            self.put_ns,
        );
        if HOT {
            ladder::full_vs_min(sheet, p, facade_ns);
        } else {
            ladder::crypto_probe(sheet, p);
        }
    }
}
