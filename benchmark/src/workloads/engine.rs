//! What the full-product workloads share: opening the engine over timed
//! devices, and reading its public counters before and after the traced
//! rounds.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use fame_dbms::fame_buffer::{PoolStats, VersionStats};
use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::{Concurrency, Database, DbmsConfig, TxnConfig};
use fame_os::BlockDevice;

use super::{get, PAGE_SIZE};
use crate::metrics::Sheet;
use crate::trace::{self, DevCounters, DevSnapshot, TimedDevice};
use crate::{ladder, IoTotals};

/// Commits per log sync of the group-commit workloads; never varies.
pub const GROUP_SIZE: u32 = 4;

pub fn group_commit() -> CommitPolicy {
    CommitPolicy::Group {
        group_size: GROUP_SIZE,
    }
}

/// A transactional configuration over the get workloads' base (512-byte
/// pages, LRU pool of `frames`).
pub fn txn_config(frames: usize, commit: CommitPolicy, multi_writer: bool) -> DbmsConfig {
    let mut c = get::config(frames);
    c.transactions = Some(TxnConfig { commit });
    if multi_writer {
        c.concurrency = Concurrency::MultiWriter { shards: 0 };
    }
    c
}

/// The data and log devices of one database, with the harness's handles
/// on their counters.
#[derive(Default)]
pub struct Devices {
    pub data: Arc<DevCounters>,
    pub log: Arc<DevCounters>,
}

impl Devices {
    /// Devices whose calls are timed in untraced runs too.
    pub fn always_timed() -> Devices {
        let devices = Devices::default();
        devices.data.always_timed.store(true, Relaxed);
        devices.log.always_timed.store(true, Relaxed);
        devices
    }

    /// Time spent inside both devices so far, ns.
    pub fn busy_ns(&self) -> u64 {
        self.data.busy_ns.load(Relaxed) + self.log.busy_ns.load(Relaxed)
    }

    pub fn open(
        &self,
        config: DbmsConfig,
        data: impl BlockDevice + 'static,
        log: impl BlockDevice + 'static,
    ) -> Database {
        Database::open_with_devices(
            config,
            TimedDevice::wrap(data, &trace::DATA, &self.data),
            Some(TimedDevice::wrap(log, &trace::LOG, &self.log)),
        )
        .expect("open")
    }

    /// Write-cost and space totals, given the user bytes written and alive.
    pub fn io(&self, user_written: u64, user_live: u64) -> IoTotals {
        let (d, l) = (self.data.snapshot(), self.log.snapshot());
        IoTotals {
            written: (d.writes + l.writes) * PAGE_SIZE as u64,
            user_written,
            disk: (d.pages + l.pages) * PAGE_SIZE as u64,
            user_live,
        }
    }
}

/// The engine's public counters at one instant.
#[derive(Default)]
pub struct Mark {
    pool: PoolStats,
    data: DevSnapshot,
    log: DevSnapshot,
    commits: u64,
    aborts: u64,
    log_syncs: u64,
    log_bytes: u64,
    lock_waits: u64,
    lock_wait_ns: u64,
    deadlock_aborts: u64,
    timeout_aborts: u64,
    versions: VersionStats,
}

impl Mark {
    pub fn take(db: &mut Database, devices: &Devices) -> Mark {
        let s = db.stats().expect("stats");
        let (commits, aborts) = s.txn.unwrap_or_default();
        let locks = s.locks.as_ref();
        Mark {
            pool: s.pool,
            data: devices.data.snapshot(),
            log: devices.log.snapshot(),
            commits,
            aborts,
            log_syncs: s.log_syncs.unwrap_or(0),
            log_bytes: s.log_bytes.unwrap_or(0),
            lock_waits: locks.map_or(0, |l| l.waits),
            lock_wait_ns: locks.map_or(0, |l| l.wait_time.sum_ns),
            deadlock_aborts: locks.map_or(0, |l| l.deadlock_aborts),
            timeout_aborts: locks.map_or(0, |l| l.timeout_aborts),
            versions: s.versions.unwrap_or_default(),
        }
    }

    /// The in-situ layer metrics: what moved between `self` and `now`.
    pub fn layers_since(&self, now: &Mark, sheet: &mut Sheet) {
        ladder::pool_in_situ(sheet, &self.pool, &now.pool);
        ladder::device_in_situ(sheet, "data", &now.data.since(&self.data));
        ladder::device_in_situ(sheet, "log", &now.log.since(&self.log));
        let commits = now.commits - self.commits;
        let aborts = now.aborts - self.aborts;
        let syncs = now.log_syncs - self.log_syncs;
        let per_commit = |x: u64| x as f64 / commits.max(1) as f64;
        sheet.set(
            "txn.log.bytes_per_commit",
            per_commit(now.log_bytes - self.log_bytes),
        );
        sheet.set("txn.syncs_per_commit", per_commit(syncs));
        sheet.set(
            "txn.group.txns_per_sync",
            commits as f64 / syncs.max(1) as f64,
        );
        sheet.set(
            "txn.retries_per_commit",
            commits as f64 / (commits + aborts).max(1) as f64,
        );
        sheet.set("txn.locks.waits", (now.lock_waits - self.lock_waits) as f64);
        sheet.set(
            "txn.locks.wait_ns",
            (now.lock_wait_ns - self.lock_wait_ns) as f64,
        );
        sheet.set(
            "txn.locks.deadlock_aborts",
            (now.deadlock_aborts - self.deadlock_aborts) as f64,
        );
        sheet.set(
            "txn.locks.timeout_aborts",
            (now.timeout_aborts - self.timeout_aborts) as f64,
        );
        // Every chain entry ever captured is either reclaimed or alive.
        let captured = |v: &VersionStats| v.pruned + v.live_entries;
        sheet.set(
            "buffer.versions.captures",
            (captured(&now.versions) - captured(&self.versions)) as f64,
        );
        sheet.set("buffer.versions.chain_max", now.versions.chain_max as f64);
        sheet.set(
            "buffer.versions.pruned",
            (now.versions.pruned - self.versions.pruned) as f64,
        );
    }
}
