//! `commit-durable`: one writer, force commit, real files.
//!
//! Data and log are `FileDevice`s in the benchmark's scratch directory, so
//! every commit pays a real `fsync` of the log. A transaction is `begin`,
//! four `txn_put` of fresh keys, `commit` (the primary op). Log encoding,
//! appending and syncing and the log device dominate; pool and index
//! barely matter. Flush policy: `CommitPolicy::Force`, always.
//!
//! The file system under the scratch directory is the host's: its `fsync`
//! drifted between 50 and 230 µs within one afternoon on the reference
//! box, which no bound survives. So the device wrappers time every call
//! here, traced or not, and the bounded `ops_s`/`p50_us`/`p99_us` of this
//! workload count *engine time* — the commit minus the time inside the
//! two devices: what the repo's code controls. How many device calls a
//! commit makes stays bounded through `write_bytes_per_user_byte` and
//! exact through `txn.syncs_per_commit`; the wall-clock numbers, device
//! included, are `lat.commit-durable.*` on the per-layer sheet.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::Database;
use fame_os::FileDevice;

use super::engine::{self, Devices, Mark};
use super::PAGE_SIZE;
use crate::gen::{check_value, fresh_key, key, value, RECORD_BYTES};
use crate::measure::{percentile, steady, Better, RoundOut};
use crate::metrics::Sheet;
use crate::{ladder, trace, IoTotals, Params, Workload};

/// Records loaded before the first measured commit.
const PRELOAD: u32 = 100_000;
const FRAMES: usize = 32_000;
pub const PUTS_PER_TXN: u32 = 4;
/// Commits per budget-second.
const RATE: u64 = 6_500;
const WARM_UP_COMMITS: u64 = 1_000;

/// Each set-up of a run gets its own file pair.
static INSTANCE: AtomicU64 = AtomicU64::new(0);

pub struct CommitDurable {
    db: Database,
    devices: Devices,
    /// Fresh keys handed out so far (`fresh_key(0..next)` are in the db).
    next: u32,
    /// Wall-clock (ops/s, p50 µs, p99 µs) of every round, device included.
    wall: Vec<[f64; 3]>,
    failed_setup: u64,
    mark: Mark,
}

fn commit_one(db: &mut Database, next: &mut u32) -> bool {
    let Ok(txn) = db.begin() else {
        return false;
    };
    for _ in 0..PUTS_PER_TXN {
        let k = fresh_key(*next);
        *next += 1;
        if db.txn_put(txn, &key(k), &value(k, 0)).is_err() {
            return false;
        }
    }
    db.commit(txn).is_ok()
}

pub fn scratch_file(p: &Params, name: &str) -> PathBuf {
    let n = INSTANCE.fetch_add(1, Relaxed);
    p.scratch.join(format!("{name}-{n}"))
}

impl Workload for CommitDurable {
    const NAME: &'static str = "commit-durable";

    fn setup(p: &Params) -> Self {
        let devices = Devices::always_timed();
        let mut db = devices.open(
            engine::txn_config(FRAMES, CommitPolicy::Force, false),
            FileDevice::create(scratch_file(p, "data.db"), PAGE_SIZE).expect("data file"),
            FileDevice::create(scratch_file(p, "wal.log"), PAGE_SIZE).expect("log file"),
        );
        let mut next = 0u32;
        while next < PRELOAD {
            let k = fresh_key(next);
            db.put(&key(k), &value(k, 0)).expect("load put");
            next += 1;
        }
        db.sync().expect("sync after load");
        let mut failed_setup = 0;
        for _ in 0..WARM_UP_COMMITS {
            failed_setup += u64::from(!commit_one(&mut db, &mut next));
        }
        CommitDurable {
            db,
            devices,
            next,
            wall: Vec::new(),
            failed_setup,
            mark: Mark::default(),
        }
    }

    fn round<const TRACED: bool>(&mut self, p: &Params, _round: u64) -> RoundOut {
        let ops = p.ops_per_round(RATE);
        let mut out = RoundOut {
            ops,
            ..RoundOut::default()
        };
        let mut wall_ns = Vec::with_capacity(ops as usize);
        let (t_round, busy_round) = (Instant::now(), self.devices.busy_ns());
        for i in 0..ops {
            let (t, busy) = (Instant::now(), self.devices.busy_ns());
            let ok = if TRACED && i.is_multiple_of(3) {
                trace::op_span("commit", || commit_one(&mut self.db, &mut self.next))
            } else {
                commit_one(&mut self.db, &mut self.next)
            };
            let wall = t.elapsed().as_nanos() as u64;
            wall_ns.push(wall);
            out.lat_ns
                .push(wall.saturating_sub(self.devices.busy_ns() - busy));
            out.failed += u64::from(!ok);
        }
        let wall_s = t_round.elapsed().as_secs_f64();
        out.secs = wall_s - (self.devices.busy_ns() - busy_round) as f64 / 1e9;
        wall_ns.sort_unstable();
        self.wall.push([
            ops as f64 / wall_s,
            percentile(&wall_ns, 50.0) / 1e3,
            percentile(&wall_ns, 99.0) / 1e3,
        ]);
        out
    }

    fn verify(&mut self) -> u64 {
        let mut wrong = 0u64;
        for i in 0..self.next {
            let k = fresh_key(i);
            let ok = matches!(
                self.db.get_with(&key(k), |v| check_value(k, v) == Some(0)),
                Ok(Some(true))
            );
            wrong += u64::from(!ok);
        }
        self.failed_setup + wrong + super::integrity_failures(&mut self.db)
    }

    fn io(&self) -> IoTotals {
        let user = u64::from(self.next) * RECORD_BYTES;
        self.devices.io(user, user)
    }

    fn mark(&mut self) {
        self.mark = Mark::take(&mut self.db, &self.devices);
    }

    fn layers(
        &mut self,
        p: &Params,
        spans: &[trace::Span],
        reference: &[RoundOut],
        _traced: &[RoundOut],
        sheet: &mut Sheet,
    ) {
        let now = Mark::take(&mut self.db, &self.devices);
        self.mark.layers_since(&now, sheet);
        let commit_cpu_ns = ladder::op_in_situ(sheet, spans, "commit");
        sheet.set("core.commit.cpu_ns", commit_cpu_ns);
        let wall =
            |i: usize| -> Vec<f64> { self.wall[..reference.len()].iter().map(|r| r[i]).collect() };
        sheet.set(
            "lat.commit-durable.ops_s",
            steady(&wall(0), Better::Higher).value,
        );
        sheet.set(
            "lat.commit-durable.p50_us",
            steady(&wall(1), Better::Lower).value,
        );
        sheet.set(
            "lat.commit-durable.p99_us",
            steady(&wall(2), Better::Lower).value,
        );
        ladder::file_rungs(sheet, p);
        ladder::log_rungs(sheet, p);
    }
}
