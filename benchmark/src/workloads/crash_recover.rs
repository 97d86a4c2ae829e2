//! `crash-recover`: fill, pull the plug, reopen.
//!
//! Data and log sit on `FaultDevice::write_back` over in-memory devices:
//! a write stays in a volatile cache until a sync succeeds, and
//! `trip_now()` drops the cache — the test itself discards unflushed
//! bytes, as a real power loss would. One cycle is a fresh database,
//! `TXNS_PER_CYCLE` group-commit transactions of four puts (every tenth
//! left open, every tenth aborted), a crash at a seeded point in the last
//! twentieth, and the reopen. The reopen is the primary op (`p50_us` is
//! the restart time); `ops_s` is cycles per second of fill + reopen, so
//! the logging path under a write-back device is on the sheet too.
//!
//! After each reopen: every commit a log sync covered must be readable,
//! every later commit must be all-or-nothing, no open or aborted
//! transaction may show. A violation is a failed op.

use std::time::Instant;

use fame_os::{FaultDevice, FaultPlan, InMemoryDevice, SharedDevice};

use super::engine::{self, Devices};
use super::PAGE_SIZE;
use crate::gen::{check_value, fresh_key, key, value, Rng, RECORD_BYTES};
use crate::measure::{steady, Better, RoundOut};
use crate::metrics::Sheet;
use crate::trace::DevSnapshot;
use crate::{ladder, trace, IoTotals, Params, Workload};

pub const TXNS_PER_CYCLE: u32 = 4_000;
pub const PUTS_PER_TXN: u32 = 4;
const FRAMES: usize = 32_000;
/// Cycles per budget-second.
const RATE: u64 = 19;
const WARM_UP_CYCLES: u64 = 5;

type Crashable = SharedDevice<FaultDevice<InMemoryDevice>>;

fn crashable() -> Crashable {
    SharedDevice::new(FaultDevice::write_back(
        InMemoryDevice::new(PAGE_SIZE),
        FaultPlan::default(),
    ))
}

/// What transaction `i` of a cycle does at its end.
#[derive(PartialEq)]
enum Fate {
    Commit,
    Abort,
    LeaveOpen,
}

fn fate(i: u32) -> Fate {
    match i % 10 {
        4 => Fate::Abort,
        9 => Fate::LeaveOpen,
        _ => Fate::Commit,
    }
}

#[derive(Default)]
pub struct CrashRecover {
    io: IoTotals,
    /// Restart seconds of every cycle since set-up, in order.
    restart_s: Vec<f64>,
    /// From the latest cycle.
    redo: usize,
    undo: usize,
    log_bytes_at_crash: u64,
    /// Device calls of the cycles since `mark`, data then log.
    device_calls: (DevSnapshot, DevSnapshot),
    failed_setup: u64,
    integrity_failures: u64,
}

struct Cycle {
    fill_and_reopen_s: f64,
    restart_ns: u64,
    ok: bool,
}

impl CrashRecover {
    fn cycle<const TRACED: bool>(&mut self, p: &Params, cycle: u64) -> Cycle {
        let mut rng = Rng::fork(p.seed, 10_000 + cycle);
        let (data, log) = (crashable(), crashable());
        let config = || engine::txn_config(FRAMES, engine::group_commit(), false);
        let before = Devices::default();
        let mut db = before.open(config(), data.clone(), log.clone());

        let crash_at = TXNS_PER_CYCLE - rng.below(TXNS_PER_CYCLE / 20);
        let mut durable_upto = 0u32; // transactions below this index are synced
        let mut syncs = db.log_syncs().unwrap_or(0);
        let t_fill = Instant::now();
        for i in 0..crash_at {
            let txn = db.begin().expect("begin");
            for j in 0..PUTS_PER_TXN {
                let k = fresh_key(i * PUTS_PER_TXN + j);
                db.txn_put(txn, &key(k), &value(k, 0)).expect("txn_put");
            }
            match fate(i) {
                Fate::Commit => db.commit(txn).expect("commit"),
                Fate::Abort => db.abort(txn).expect("abort"),
                Fate::LeaveOpen => {}
            }
            let now = db.log_syncs().unwrap_or(0);
            if now != syncs {
                syncs = now;
                durable_upto = i + 1;
            }
        }
        let fill_s = t_fill.elapsed().as_secs_f64();

        // Power loss: both caches are gone, and the engine's destructors
        // find the devices offline.
        data.with(FaultDevice::trip_now);
        log.with(FaultDevice::trip_now);
        drop(db);
        data.with(FaultDevice::heal);
        log.with(FaultDevice::heal);
        self.log_bytes_at_crash = u64::from(log.with(|d| {
            use fame_os::BlockDevice;
            d.num_pages()
        })) * PAGE_SIZE as u64;

        let after = Devices::default();
        let t_open = Instant::now();
        let reopen = || after.open(config(), data.clone(), log.clone());
        let mut db = if TRACED {
            trace::op_span("restart", reopen)
        } else {
            reopen()
        };
        let restart_ns = t_open.elapsed().as_nanos() as u64;

        if let Some(r) = db.last_recovery() {
            (self.redo, self.undo) = (r.redo_applied, r.undo_applied);
        }
        let mut ok = true;
        let mut survivors = 0u64;
        for i in 0..crash_at {
            let mut present = 0;
            for j in 0..PUTS_PER_TXN {
                let k = fresh_key(i * PUTS_PER_TXN + j);
                match db.get_with(&key(k), |v| check_value(k, v) == Some(0)) {
                    Ok(Some(true)) => present += 1,
                    Ok(None) => {}
                    _ => ok = false, // unreadable or wrong bytes
                }
            }
            ok &= match fate(i) {
                Fate::Commit if i < durable_upto => present == PUTS_PER_TXN,
                Fate::Commit => present == 0 || present == PUTS_PER_TXN,
                Fate::Abort | Fate::LeaveOpen => present == 0,
            };
            survivors += u64::from(present);
        }
        self.integrity_failures += super::integrity_failures(&mut db);

        let committed = (0..crash_at).filter(|&i| fate(i) == Fate::Commit).count() as u64;
        let user_written = committed * u64::from(PUTS_PER_TXN) * RECORD_BYTES;
        for devices in [&before, &after] {
            let io = devices.io(0, 0);
            self.io.written += io.written;
            self.io.disk = self.io.disk.max(io.disk);
            self.device_calls.0.add(&devices.data.snapshot());
            self.device_calls.1.add(&devices.log.snapshot());
        }
        self.io.user_written += user_written;
        self.io.user_live = self.io.user_live.max(survivors * RECORD_BYTES);
        Cycle {
            fill_and_reopen_s: fill_s + restart_ns as f64 / 1e9,
            restart_ns,
            ok,
        }
    }
}

impl Workload for CrashRecover {
    const NAME: &'static str = "crash-recover";

    /// Nothing outlives a cycle, so set-up is `WARM_UP_CYCLES` whole cycles.
    fn setup(p: &Params) -> Self {
        let mut w = CrashRecover::default();
        for c in 0..WARM_UP_CYCLES {
            w.failed_setup += u64::from(!w.cycle::<false>(p, 1_000_000 + c).ok);
        }
        w
    }

    fn round<const TRACED: bool>(&mut self, p: &Params, round: u64) -> RoundOut {
        let cycles = p.ops_per_round(RATE);
        let mut out = RoundOut {
            ops: cycles,
            ..RoundOut::default()
        };
        for c in 0..cycles {
            let cycle = self.cycle::<TRACED>(p, round * cycles + c);
            out.secs += cycle.fill_and_reopen_s;
            out.failed += u64::from(!cycle.ok);
            out.lat_ns.push(cycle.restart_ns);
        }
        self.restart_s
            .extend(out.lat_ns.iter().map(|&ns| ns as f64 / 1e9));
        out
    }

    fn verify(&mut self) -> u64 {
        self.failed_setup + self.integrity_failures
    }

    /// Written bytes and acknowledged user bytes add up over the cycles;
    /// the space ratio is that of the largest cycle.
    fn io(&self) -> IoTotals {
        self.io
    }

    fn mark(&mut self) {
        self.device_calls = Default::default();
    }

    fn layers(
        &mut self,
        p: &Params,
        spans: &[trace::Span],
        reference: &[RoundOut],
        _traced: &[RoundOut],
        sheet: &mut Sheet,
    ) {
        let cycles = p.ops_per_round(RATE) as usize;
        ladder::op_in_situ(sheet, spans, "restart");
        ladder::device_in_situ(sheet, "data", &self.device_calls.0);
        ladder::device_in_situ(sheet, "log", &self.device_calls.1);
        sheet.set("txn.recover.redo", self.redo as f64);
        sheet.set("txn.recover.undo", self.undo as f64);
        sheet.set("txn.log.bytes_at_crash", self.log_bytes_at_crash as f64);
        sheet.set(
            "lat.crash-recover.restart_s",
            steady(&self.restart_s[..reference.len() * cycles], Better::Lower).value,
        );
        ladder::recover_rungs(sheet, p);
    }
}
