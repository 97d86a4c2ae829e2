//! `rmw-contended`: two writers read-modify-write a small set of counters.
//!
//! MultiWriter product, group commit, in-memory devices — a sync is free,
//! so the lock manager, not the disk, is the bottleneck. Each transaction
//! reads two of `HOT_KEYS` counters (S locks), then writes both back plus
//! one (S→X upgrades), in random key order, through `commit_with_retry`:
//! two transactions that read the same counter deadlock on the upgrade
//! and one retries. The final counter sum must equal the acknowledged
//! increments — no lost updates.

use std::time::Instant;

use fame_dbms::{Database, DbWriter, DbmsError};
use fame_os::InMemoryDevice;

use super::engine::{self, Devices, Mark};
use super::PAGE_SIZE;
use crate::gen::{key, Rng, RECORD_BYTES, VALUE_LEN};
use crate::measure::{drive, steady, Better, RoundOut};
use crate::metrics::Sheet;
use crate::{host, ladder, trace, IoTotals, Params, Workload};

/// Hot set size. On the 2-core reference box aborts/commit tops out near
/// 0.03 whatever the size: below ~32 counters the two writers fall into a
/// convoy or one runs solo through the other's back-off, and throughput
/// turns bimodal. 64 is the smallest size that held one regime over every
/// seed tried (`lat.rmw-contended.aborts_per_commit` reports the ratio).
pub const HOT_KEYS: u32 = 64;
const THREADS: u64 = 2;
const FRAMES: usize = 4_096;
const KEYS_PER_TXN: u64 = 2;
const MAX_RETRIES: u32 = 100_000;
/// Transactions (both threads together) per budget-second.
const RATE: u64 = 95_000;
const WARM_UP_TXNS: u64 = 30_000;

fn counter(n: u64) -> [u8; VALUE_LEN] {
    let mut v = [0u8; VALUE_LEN];
    v[..8].copy_from_slice(&n.to_be_bytes());
    v
}

fn parse(v: &[u8]) -> Option<u64> {
    (v.len() == VALUE_LEN).then(|| u64::from_be_bytes(v[..8].try_into().expect("8 bytes")))
}

pub struct RmwContended {
    db: Database,
    devices: Devices,
    /// Transactions whose commit was acknowledged.
    acked: u64,
    /// Aborts per commit, one entry per round.
    aborts_per_commit: Vec<f64>,
    failed_setup: u64,
    mark: Mark,
}

fn rmw_txn(w: &DbWriter, rng: &mut Rng) -> bool {
    let a = rng.below(HOT_KEYS);
    let b = (a + 1 + rng.below(HOT_KEYS - 1)) % HOT_KEYS;
    let Ok(txn) = w.begin() else {
        return false;
    };
    w.commit_with_retry(txn, MAX_RETRIES, |w, txn| {
        // Read both (S locks), then write both (S→X upgrades).
        let mut current = [0u64; KEYS_PER_TXN as usize];
        for (slot, k) in current.iter_mut().zip([a, b]) {
            *slot = w
                .get(txn, &key(k))?
                .as_deref()
                .and_then(parse)
                .ok_or_else(|| DbmsError::Config(format!("counter {k} unreadable")))?;
        }
        for (n, k) in current.into_iter().zip([a, b]) {
            w.put(txn, &key(k), &counter(n + 1))?;
        }
        Ok(())
    })
    .is_ok()
}

impl RmwContended {
    fn run<const TRACED: bool>(&mut self, p: &Params, lane: u64, txns: u64) -> RoundOut {
        let writer = self.db.writer().expect("writer");
        let (commits0, aborts0) = writer.txn_stats();
        let t0 = Instant::now();
        let parts: Vec<RoundOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let w = writer.clone();
                    let mut rng = Rng::fork(p.seed, 1_000 * (lane + 1) + t);
                    s.spawn(move || {
                        drive::<TRACED>("rmw", txns / THREADS, 1, 13, |_| rmw_txn(&w, &mut rng))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("writer thread"))
                .collect()
        });
        let round = RoundOut::merged(parts, t0.elapsed().as_secs_f64());
        let (commits1, aborts1) = writer.txn_stats();
        self.acked += round.ops - round.failed;
        self.aborts_per_commit
            .push((aborts1 - aborts0) as f64 / (commits1 - commits0).max(1) as f64);
        round
    }
}

impl Workload for RmwContended {
    const NAME: &'static str = "rmw-contended";

    fn setup(p: &Params) -> Self {
        host::require_threads(THREADS as usize);
        let devices = Devices::default();
        let mut db = devices.open(
            engine::txn_config(FRAMES, engine::group_commit(), true),
            InMemoryDevice::new(PAGE_SIZE),
            InMemoryDevice::new(PAGE_SIZE),
        );
        for k in 0..HOT_KEYS {
            db.put(&key(k), &counter(0)).expect("load put");
        }
        db.sync().expect("sync after load");
        let mut w = RmwContended {
            db,
            devices,
            acked: 0,
            aborts_per_commit: Vec::new(),
            failed_setup: 0,
            mark: Mark::default(),
        };
        w.failed_setup = w.run::<false>(p, 99, WARM_UP_TXNS).failed;
        w.aborts_per_commit.clear();
        w
    }

    fn round<const TRACED: bool>(&mut self, p: &Params, round: u64) -> RoundOut {
        self.run::<TRACED>(p, round, p.ops_per_round(RATE))
    }

    fn verify(&mut self) -> u64 {
        let mut sum = 0u64;
        for k in 0..HOT_KEYS {
            sum += self
                .db
                .get_with(&key(k), parse)
                .ok()
                .flatten()
                .flatten()
                .unwrap_or(0);
        }
        let lost = u64::from(sum != self.acked * KEYS_PER_TXN);
        if lost != 0 {
            eprintln!(
                "fame-benchmark: counters sum to {sum}, acknowledged increments {}",
                self.acked * KEYS_PER_TXN
            );
        }
        self.failed_setup + lost + super::integrity_failures(&mut self.db)
    }

    fn io(&self) -> IoTotals {
        let live = u64::from(HOT_KEYS) * RECORD_BYTES;
        self.devices
            .io(live + self.acked * KEYS_PER_TXN * RECORD_BYTES, live)
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
        let commit_cpu_ns = ladder::op_in_situ(sheet, spans, "rmw");
        sheet.set("core.commit.cpu_ns", commit_cpu_ns);
        sheet.set(
            "lat.rmw-contended.aborts_per_commit",
            steady(&self.aborts_per_commit[..reference.len()], Better::Lower).median,
        );
        ladder::lock_rungs(sheet, p);
    }
}
