//! `read-beside-write`: snapshot reads with a writer beside them.
//!
//! MultiWriter + Snapshot product, group commit, in-memory devices, pool
//! fits. Thread A (the primary op) reads through a `DbSnapshot`,
//! zipf(0.9) keys, re-pinning every 1024 gets; thread B commits
//! transactions of four updates on zipf(0.9) keys beside it, paced to one
//! commit per 20 of A's gets — about three quarters of what B manages
//! alone, and a write volume the seed fixes: left to run free, B's commit
//! count (and with it the log size and the memory) followed the two
//! threads' luck with the scheduler. The same buffer and storage layers as
//! `get-hot`, but through the seqlock pool, the optimistic descent and the
//! version chains. B's commit rate is `lat.read-beside-write.bg_commit_s`:
//! a read-path gain that taxes writers (or the reverse) shows there.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use fame_dbms::{Database, DbSnapshot, DbWriter};
use fame_os::InMemoryDevice;

use super::engine::{self, Devices, Mark};
use super::PAGE_SIZE;
use crate::gen::{check_value, key, value, Rng, Zipf, RECORD_BYTES};
use crate::measure::{drive, steady, Better, RoundOut};
use crate::metrics::Sheet;
use crate::{host, ladder, trace, IoTotals, Params, Workload};

pub const RECORDS: u32 = 50_000;
/// The pool holds every page (~7 k) several times over.
pub const FRAMES: usize = 32_000;
const THETA: f64 = 0.9;
const GETS_PER_REFRESH: u64 = 1024;
const UPDATES_PER_TXN: u64 = 4;
/// B's pace: one commit per this many of A's gets.
const GETS_PER_COMMIT: u64 = 20;
/// How often A publishes its progress (one relaxed store).
const PROGRESS_EVERY: u64 = 64;
/// Versions a page keeps for a lagging snapshot. The writer commits the
/// hottest page a dozen times between two re-pins; the default cap of 8
/// would strand the reader there.
const CHAIN_CAP: usize = 64;
/// Snapshot gets per budget-second.
const RATE: u64 = 800_000;
const LANE_READ: u64 = 100;
const LANE_WRITE: u64 = 200;

pub struct ReadBesideWrite {
    db: Database,
    devices: Devices,
    zipf: Zipf,
    /// Committed version of every key (thread B is the only writer).
    versions: Vec<u32>,
    /// Newest version a snapshot has shown for every key. Snapshots only
    /// move forward, so a read below it contradicts an earlier one.
    seen: Vec<u32>,
    /// How often that happened. On the current tree it does, about once
    /// in two million gets, always within one pin: the earlier read saw a
    /// version newer than its timestamp (README.md, known anomalies). The
    /// bytes are self-consistent either way, so this is reported
    /// (`core.snapshot.backward_reads`), not counted as a failed op.
    backward_reads: u64,
    bg_puts: u64,
    /// B's commits per second, one entry per round.
    pub bg_commit_s: Vec<f64>,
    strandings: u64,
    failed_setup: u64,
    mark: Mark,
}

impl ReadBesideWrite {
    /// A reads `gets` keys while B commits at A's pace; returns A's round.
    fn run<const TRACED: bool>(&mut self, p: &Params, lane: u64, gets: u64) -> RoundOut {
        let snap = self.db.snapshot().expect("snapshot");
        let writer = self.db.writer().expect("writer");
        // A's progress in gets; `gets` once A is done.
        let progress = AtomicU64::new(0);
        let (zipf, seen, versions) = (&self.zipf, &mut self.seen, &mut self.versions);
        let seed = p.seed;
        let (round, (strandings, backward), (commits, commit_secs)) = std::thread::scope(|s| {
            let progress = &progress;
            let b = s.spawn(move || {
                write_paced::<TRACED>(&writer, zipf, versions, seed, lane, progress, gets)
            });
            let a = s.spawn(move || read::<TRACED>(snap, zipf, seen, seed, lane, gets, progress));
            let (round, anomalies) = a.join().expect("reader thread");
            (round, anomalies, b.join().expect("writer thread"))
        });
        self.strandings += strandings;
        self.backward_reads += backward;
        self.bg_puts += commits * UPDATES_PER_TXN;
        self.bg_commit_s.push(commits as f64 / commit_secs);
        round
    }
}

fn read<const TRACED: bool>(
    mut snap: DbSnapshot,
    zipf: &Zipf,
    seen: &mut [u32],
    seed: u64,
    lane: u64,
    gets: u64,
    progress: &AtomicU64,
) -> (RoundOut, (u64, u64)) {
    let mut rng = Rng::fork(seed, LANE_READ + lane);
    let (mut strandings, mut backward) = (0u64, 0u64);
    let round = drive::<TRACED>("snapshot-get", gets, 17, 61, |i| {
        if i % GETS_PER_REFRESH == 0 {
            snap.refresh();
        }
        if i % PROGRESS_EVERY == 0 {
            progress.store(i, Relaxed);
        }
        let k = zipf.draw(&mut rng);
        loop {
            match snap.get_with(&key(k), |v| check_value(k, v)) {
                Ok(Some(Some(version))) => {
                    backward += u64::from(version < seen[k as usize]);
                    seen[k as usize] = seen[k as usize].max(version);
                    return true;
                }
                // The documented client protocol when the chain cap cut a
                // version this snapshot needed: re-pin and read again.
                Err(e) if e.to_string().contains("too old") => {
                    strandings += 1;
                    snap.refresh();
                }
                other => {
                    eprintln!("fame-benchmark: snapshot get of key {k}: {other:?}");
                    return false;
                }
            }
        }
    });
    progress.store(gets, Relaxed);
    (round, (strandings, backward))
}

/// Commit update transactions at A's pace, `gets / GETS_PER_COMMIT` in
/// all; returns how many committed and the seconds it took.
fn write_paced<const TRACED: bool>(
    writer: &DbWriter,
    zipf: &Zipf,
    versions: &mut [u32],
    seed: u64,
    lane: u64,
    progress: &AtomicU64,
    gets: u64,
) -> (u64, f64) {
    let mut rng = Rng::fork(seed, LANE_WRITE + lane);
    let total = gets / GETS_PER_COMMIT;
    let mut commits = 0u64;
    let t0 = Instant::now();
    while commits < total {
        if commits >= progress.load(Relaxed) / GETS_PER_COMMIT {
            std::thread::yield_now(); // ahead of the reader
            continue;
        }
        let mut txn_body = || {
            let txn = writer.begin().expect("begin");
            for _ in 0..UPDATES_PER_TXN {
                let k = zipf.draw(&mut rng);
                versions[k as usize] += 1;
                writer
                    .put(txn, &key(k), &value(k, versions[k as usize]))
                    .expect("update");
            }
            writer.commit(txn).expect("commit");
        };
        if TRACED && commits.is_multiple_of(7) {
            trace::op_span("bg-commit", txn_body);
        } else {
            txn_body();
        }
        commits += 1;
    }
    (commits, t0.elapsed().as_secs_f64())
}

impl Workload for ReadBesideWrite {
    const NAME: &'static str = "read-beside-write";

    fn setup(p: &Params) -> Self {
        host::require_threads(2);
        let devices = Devices::default();
        let mut config = engine::txn_config(FRAMES, engine::group_commit(), true);
        config.snapshot_chain_cap = CHAIN_CAP;
        let mut db = devices.open(
            config,
            InMemoryDevice::new(PAGE_SIZE),
            InMemoryDevice::new(PAGE_SIZE),
        );
        for &k in &super::get::load_order(p.seed, RECORDS) {
            db.put(&key(k), &value(k, 0)).expect("load put");
        }
        db.sync().expect("sync after load");
        let mut w = ReadBesideWrite {
            db,
            devices,
            zipf: Zipf::new(RECORDS, THETA),
            versions: vec![0; RECORDS as usize],
            seen: vec![0; RECORDS as usize],
            bg_puts: 0,
            bg_commit_s: Vec::new(),
            strandings: 0,
            backward_reads: 0,
            failed_setup: 0,
            mark: Mark::default(),
        };
        // Warm-up: a short round of the real thing.
        w.failed_setup = w.run::<false>(p, 99, u64::from(RECORDS)).failed;
        w.bg_commit_s.clear();
        w
    }

    fn round<const TRACED: bool>(&mut self, p: &Params, round: u64) -> RoundOut {
        self.run::<TRACED>(p, round, p.ops_per_round(RATE))
    }

    fn verify(&mut self) -> u64 {
        // The final state is the writer's: every key at its last
        // committed version.
        let mut wrong = 0u64;
        for (k, &version) in self.versions.iter().enumerate() {
            let k = k as u32;
            let ok = matches!(
                self.db
                    .get_with(&key(k), |v| check_value(k, v) == Some(version)),
                Ok(Some(true))
            );
            wrong += u64::from(!ok);
        }
        if wrong > 0 {
            eprintln!("fame-benchmark: {wrong} keys differ from the writer's last commit");
        }
        if self.strandings + self.backward_reads > 0 {
            eprintln!(
                "fame-benchmark: {} snapshot strandings (re-pinned), {} backward reads",
                self.strandings, self.backward_reads
            );
        }
        self.failed_setup + wrong + super::integrity_failures(&mut self.db)
    }

    fn io(&self) -> IoTotals {
        let live = u64::from(RECORDS) * RECORD_BYTES;
        self.devices.io(live + self.bg_puts * RECORD_BYTES, live)
    }

    fn mark(&mut self) {
        self.backward_reads = 0;
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
        ladder::op_in_situ(sheet, spans, "snapshot-get");
        let (_, commit_cpu_ns, _) = trace::op_times(spans, "bg-commit");
        sheet.set("core.commit.cpu_ns", commit_cpu_ns);
        sheet.set(
            "lat.read-beside-write.bg_commit_s",
            steady(&self.bg_commit_s[..reference.len()], Better::Higher).value,
        );
        sheet.set("core.snapshot.backward_reads", self.backward_reads as f64);
        ladder::shared_read_rungs(sheet, p, &mut self.db, RECORDS, &self.zipf);
        let t = Instant::now();
        let _ = self.db.stats().expect("stats");
        sheet.set("obs.stats_call_ns", t.elapsed().as_nanos() as f64);
    }
}
