//! Crash-point torture harness (experiment E7) — the repository's one
//! crash harness.
//!
//! The WAL rule — log records durable before the data pages they describe —
//! only shows its teeth when a crash lands *between* two barriers. This
//! harness makes that systematic instead of anecdotal:
//!
//! 1. **Record**: run a deterministic workload against a product variant on
//!    write-back [`FaultDevice`]s (writes stage in a volatile cache; only a
//!    successful `sync()` reaches the media) and note how many device writes
//!    and syncs the run performs, plus the model state after every commit.
//!    The recording performs exactly the operations of a crash run, so it
//!    sizes the sweep exactly.
//! 2. **Sweep**: for each crash point — write `k` on the log device (clean
//!    and torn), write `k` on the data device (clean), and sync `s` on the
//!    log device, each counted from 0 — restart the workload from a fresh
//!    universe with that fault armed. The device trips mid-run, the
//!    harness trips the *other* device too (one power supply), heals both,
//!    and reopens the database over the surviving media. An armed fault
//!    that never fires replayed a fault-free run and tested nothing: on a
//!    sequential row that is a violation.
//! 3. **Judge**: after recovery the image must pass the storage integrity
//!    checker, and the recovered key/value state must equal the state after
//!    some committed prefix `m` of the workload with
//!    `durable_commits <= m <= completed_commits` — commits whose log sync
//!    succeeded before the crash must survive, and nothing uncommitted may.
//!    A second open must find nothing to replay.
//!
//! Torn writes are only injected on the *log* device: an append-only log
//! never changes already-synced bytes of its tail page, so a torn page
//! write preserves the durable prefix and at worst truncates the tail to a
//! checksum-detectable partial frame. Data pages enjoy no such shield (no
//! page checksums or double-write buffer in this engine), so torn data
//! writes are out of scope here — the data device crashes cleanly at a
//! write boundary of its volatile cache.
//!
//! **Write-through rows** ([`TortureSpec::write_through`]) run the same
//! workload on devices with no volatile cache — every accepted write is on
//! the media — and a pool of two frames, so a dirty leaf holding
//! *uncommitted* effects is evicted onto the media in the middle of a
//! transaction. That is the interleaving the buffered log tail must
//! survive: the record of a put has to be written (not synced — these
//! media have no cache) before the page carrying the put, or recovery has
//! nothing to undo it with. A write-back device never shows this: an
//! evicted page sits in the cache until the next barrier, and
//! `Database::sync` syncs the log first.
//!
//! With no cache to drop, the media change write by write, and a logical
//! (key-level) WAL does not repair an index whose multi-page update was
//! cut in half — the same limit as torn data writes above. So these rows
//! keep the index structure still: the universe starts as a committed,
//! checkpointed image of every key at its largest value (no later put can
//! overflow a page; the checkpoint also means recovery redoes none of the
//! image, so nothing papers over a missing undo), the workload overwrites
//! and never removes (no node merges), and only the *log* device's crash
//! points are swept.
//!
//! **Two-writer rows** ([`TortureSpec::writers`] = 2, experiment E12) run
//! [`fame_dbms::DbWriter`] clones on threads of their own over keys of
//! their own. The writers rendezvous before every commit, so a
//! group-commit leader drains both transactions and the armed fault lands
//! inside that drain (between the coalesced append, the protocol sync and
//! the per-transaction finish). The oracle is per transaction: its keys
//! survive together with their exact bytes or not at all, and the
//! policy's durability floor holds — under Force every acknowledged commit
//! survives, under Group every commit followed by a later successful log
//! sync does. The OS schedules these threads, so a recording sizes the
//! sweep only roughly: their unfired points are counted, not judged.

use std::collections::BTreeMap;
use std::sync::Barrier;

use fame_dbms::fame_os::{BlockDevice, FaultDevice, FaultPlan, InMemoryDevice, SharedDevice};
use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::{
    BufferConfig, Concurrency, Database, DbmsConfig, DbmsError, IndexKind, TxnConfig, WriteBatch,
};

/// Distinct keys the sequential workload cycles through (reuse forces
/// overwrites and removes of existing keys).
const KEY_UNIVERSE: usize = 16;

/// Key outside the workload universe: updating it poisons a batch, which
/// must reject the whole batch before anything is logged or applied.
const POISON_KEY: &[u8] = b"key-poison";

type Dev = SharedDevice<FaultDevice<InMemoryDevice>>;
type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// One product variant × workload shape to torture.
#[derive(Debug, Clone)]
pub struct TortureSpec {
    /// Label for reports, e.g. `btree/buffered/force`.
    pub name: &'static str,
    /// Primary index of the variant.
    pub index: TortureIndex,
    /// `Some(frames)` composes the buffer manager in.
    pub buffer_frames: Option<usize>,
    /// Commit protocol; `None` runs the non-transactional workload.
    pub commit: Option<CommitPolicy>,
    /// Transactions (or non-txn batches) in the workload, per writer.
    pub txns: usize,
    /// Operations per transaction/batch.
    pub ops_per_txn: usize,
    /// Sweep stride: test every `stride`-th write index (1 = all).
    pub stride: u64,
    /// Issue each transaction as one [`WriteBatch`] via `apply_batch`
    /// (E10) instead of per-record calls. Aborting slots become poisoned
    /// batches that must be rejected without any effect.
    pub batched: bool,
    /// Run on write-through devices (no volatile cache), from a preloaded
    /// universe, sweeping the log device's crash points only — see the
    /// module docs.
    pub write_through: bool,
    /// Writer threads: 1 runs the sequential workload, 2 the two-writer
    /// workload of the module docs (transactional, unbatched, write-back).
    pub writers: usize,
}

/// Index choice, decoupled from `IndexKind`'s cfg-gated constructors.
#[derive(Debug, Clone, Copy)]
pub enum TortureIndex {
    BTree,
    List,
    Hash,
}

/// One crash point's verdict.
#[derive(Debug, Clone)]
pub struct CrashRow {
    /// Variant label.
    pub variant: &'static str,
    /// `log-clean`, `log-torn`, `data-clean`, or `log-sync-fail`.
    pub mode: &'static str,
    /// Write (or sync) index the fault was armed at, counted from 0.
    pub crash_at: u64,
    /// Whether the armed fault tripped its device.
    pub fired: bool,
    /// Commits whose `commit()` returned before the crash.
    pub completed: usize,
    /// Commits provably durable at the crash (log sync after the record).
    pub durable: usize,
    /// Committed prefix the recovered state matched, if any (two-writer
    /// rows: the number of transactions that survived).
    pub recovered: Option<usize>,
    /// Violations found (empty = pass).
    pub violations: Vec<String>,
}

/// Aggregate of one spec's sweep.
#[derive(Debug, Clone, Default)]
pub struct TortureResult {
    /// Per-crash-point rows (one per fault armed).
    pub rows: Vec<CrashRow>,
}

impl TortureResult {
    /// Crash points swept.
    pub fn crash_points(&self) -> usize {
        self.rows.len()
    }

    /// Total violations across all crash points.
    pub fn violations(&self) -> usize {
        self.rows.iter().map(|r| r.violations.len()).sum()
    }

    /// Crash points whose armed fault never fired.
    pub fn unfired(&self) -> usize {
        self.rows.iter().filter(|r| !r.fired).count()
    }
}

fn fresh_dev(spec: &TortureSpec) -> Dev {
    let (inner, plan) = (InMemoryDevice::new(512), FaultPlan::default());
    SharedDevice::new(if spec.write_through {
        FaultDevice::new(inner, plan)
    } else {
        FaultDevice::write_back(inner, plan)
    })
}

/// Has `dev` tripped? A tripped device refuses every operation, even one
/// that changes nothing.
fn tripped(dev: &Dev) -> bool {
    dev.with(|d| d.ensure_pages(0).is_err())
}

/// Pull the plug on both devices (one power supply feeds both) before the
/// engine is dropped: the buffer pool's Drop impl would otherwise flush
/// dirty frames past the simulated power loss.
fn power_cut(data: &Dev, log: &Dev) {
    log.with(|d| d.trip_now());
    data.with(|d| d.trip_now());
}

/// The power comes back: both devices hold what their media last saw.
fn heal(data: &Dev, log: &Dev) {
    data.with(|d| d.heal());
    log.with(|d| d.heal());
}

/// The state every universe of `spec` starts from: empty, or — for the
/// write-through rows — every key at a value no workload value outgrows.
fn base_state(spec: &TortureSpec) -> Model {
    if !spec.write_through {
        return Model::new();
    }
    let seed = |n| format!("seed-{n:03}-{}", "s".repeat(27)).into_bytes();
    (0..KEY_UNIVERSE).map(|n| (key(n), seed(n))).collect()
}

/// A fresh `(data, log)` pair holding [`base_state`], fault counters at
/// zero. The base image is committed, synced and — by the reopen, whose
/// recovery seals the log — checkpointed.
fn fresh_universe(spec: &TortureSpec) -> (Dev, Dev) {
    let (data, log) = (fresh_dev(spec), fresh_dev(spec));
    let base = base_state(spec);
    if !base.is_empty() {
        let mut db = open(spec, &data, &log).expect("fault-free preload open");
        let t = db.begin().expect("preload begin");
        for (k, v) in &base {
            db.txn_put(t, k, v).expect("preload put");
        }
        db.commit(t).expect("preload commit");
        db.sync().expect("preload sync");
        drop(db);
        drop(open(spec, &data, &log).expect("fault-free preload reopen"));
        heal(&data, &log);
    }
    (data, log)
}

fn config_for(spec: &TortureSpec) -> DbmsConfig {
    let mut cfg = DbmsConfig::in_memory();
    cfg.index = match spec.index {
        TortureIndex::BTree => IndexKind::BTree,
        TortureIndex::List => IndexKind::List,
        TortureIndex::Hash => IndexKind::Hash { buckets: 8 },
    };
    cfg.buffer = spec.buffer_frames.map(|frames| BufferConfig {
        frames,
        replacement: fame_dbms::fame_buffer::ReplacementKind::Lru,
        static_alloc: false,
    });
    cfg.transactions = spec.commit.map(|commit| TxnConfig { commit });
    if spec.writers > 1 {
        cfg.concurrency = Concurrency::MultiWriter { shards: 0 };
    }
    cfg
}

fn open(spec: &TortureSpec, data: &Dev, log: &Dev) -> Result<Database, DbmsError> {
    let log_dev = spec
        .commit
        .map(|_| Box::new(log.clone()) as Box<dyn BlockDevice>);
    Database::open_with_devices(config_for(spec), Box::new(data.clone()), log_dev)
}

fn key(n: usize) -> Vec<u8> {
    format!("key-{:03}", n % KEY_UNIVERSE).into_bytes()
}

fn value(txn: usize, op: usize) -> Vec<u8> {
    format!(
        "val-{txn:03}-{op:02}-{}",
        "x".repeat(1 + (txn * 7 + op) % 24)
    )
    .into_bytes()
}

/// Key `i` of writer `w`'s transaction `j` on a two-writer row.
fn writer_key(w: usize, j: usize, i: usize) -> Vec<u8> {
    format!("w{w}-j{j}-i{i}").into_bytes()
}

fn writer_value(w: usize, j: usize, i: usize) -> Vec<u8> {
    format!("v{w}-{j}-{i}-{}", "z".repeat(1 + (w * 7 + j * 3 + i) % 13)).into_bytes()
}

/// Does transaction `j` abort (instead of committing) in the schedule?
fn aborts(j: usize) -> bool {
    j % 5 == 4
}

/// Slot `j`'s operations as one batch; aborting slots carry the poison
/// update that must reject the batch with no effect.
fn build_batch(spec: &TortureSpec, j: usize) -> WriteBatch {
    let mut b = WriteBatch::new();
    for i in 0..spec.ops_per_txn {
        let k = key(j * spec.ops_per_txn + i);
        if is_remove(spec, j, i) {
            b.remove(&k);
        } else {
            b.put(&k, &value(j, i));
        }
    }
    if aborts(j) {
        b.update(POISON_KEY, b"never");
    }
    b
}

/// Is operation `i` of transaction `j` a remove? Never in a write-through
/// row: removes merge B-tree nodes, and those rows keep the index
/// structure still (module docs).
fn is_remove(spec: &TortureSpec, j: usize, i: usize) -> bool {
    !spec.write_through && (j * 3 + i) % 5 == 4
}

/// Does slot `j` take effect? An aborting slot aborts its transaction or
/// poisons its batch; the per-record non-transactional workload has no
/// abort.
fn takes_effect(spec: &TortureSpec, j: usize) -> bool {
    !aborts(j) || (spec.commit.is_none() && !spec.batched)
}

/// Pure model of the sequential workload: `states[0]` is the base state,
/// `states[j + 1]` the state after slot `j`.
fn slot_states(spec: &TortureSpec) -> Vec<Model> {
    let mut states = vec![base_state(spec)];
    for j in 0..spec.txns {
        let mut next = states[j].clone();
        for i in (0..spec.ops_per_txn).filter(|_| takes_effect(spec, j)) {
            let k = key(j * spec.ops_per_txn + i);
            if is_remove(spec, j, i) {
                next.remove(&k);
            } else {
                next.insert(k, value(j, i));
            }
        }
        states.push(next);
    }
    states
}

/// Run slot `j` of the sequential workload. `Err` ends the workload: a
/// device tripped, or a poisoned batch applied. Transactional rows push
/// the log device's sync count sampled just *before* each commit's record
/// was appended — the commit is provably durable once the device's total
/// exceeds it; non-transactional rows push the data device's sync count
/// after each slot's barrier.
fn run_slot(
    db: &mut Database,
    spec: &TortureSpec,
    j: usize,
    (data, log): (&Dev, &Dev),
    samples: &mut Vec<u64>,
) -> Result<(), DbmsError> {
    let log_syncs = || log.with(|d| d.syncs_done());
    let committed = if spec.batched {
        // One slot = one WriteBatch = (with transactions) one coalesced
        // WAL append + one commit.
        let before = log_syncs();
        match (db.apply_batch(build_batch(spec, j)), aborts(j)) {
            // The poison rejects the batch up front.
            (Err(DbmsError::Config(_)), true) => false,
            (Ok(()), false) => {
                if spec.commit.is_some() {
                    samples.push(before);
                }
                true
            }
            (r, _) => return r.and(Err(DbmsError::Config("a poisoned batch applied".into()))),
        }
    } else if spec.commit.is_some() {
        let t = db.begin()?;
        for i in 0..spec.ops_per_txn {
            let k = key(j * spec.ops_per_txn + i);
            if is_remove(spec, j, i) {
                db.txn_remove(t, &k)?;
            } else {
                db.txn_put(t, &k, &value(j, i))?;
            }
            // Mid-transaction durability barrier: the dirty pages now
            // carry *uncommitted* effects, so `Database::sync` must make
            // the undo records durable before the data pages (the WAL
            // rule). A crash at this barrier is exactly the interleaving
            // that punishes a data-before-log sync ordering — without it
            // every barrier in the workload lands on a commit boundary,
            // where the log is already durable and the ordering is
            // unobservable.
            if i == spec.ops_per_txn / 2 && j % 2 == 1 {
                db.sync()?;
            }
        }
        if aborts(j) {
            db.abort(t)?;
            false
        } else {
            let before = log_syncs();
            db.commit(t)?;
            samples.push(before);
            true
        }
    } else {
        for i in 0..spec.ops_per_txn {
            let k = key(j * spec.ops_per_txn + i);
            if is_remove(spec, j, i) {
                db.remove(&k)?;
            } else {
                db.put(&k, &value(j, i))?;
            }
        }
        false
    };
    if spec.commit.is_none() {
        // Non-transactional: slots separated by explicit syncs; the oracle
        // keys off the data device's sync count.
        db.sync()?;
        samples.push(data.with(|d| d.syncs_done()));
    } else if committed && samples.len().is_multiple_of(3) {
        // Periodic full barrier: exercises the log-before-data ordering
        // of `Database::sync` under the sweep.
        db.sync()?;
    }
    Ok(())
}

/// Run the sequential workload until it completes or a device trips;
/// returns the samples of [`run_slot`].
fn run_sequential(db: &mut Database, spec: &TortureSpec, data: &Dev, log: &Dev) -> Vec<u64> {
    let mut samples = Vec::new();
    let _ = (0..spec.txns).try_for_each(|j| run_slot(db, spec, j, (data, log), &mut samples));
    samples
}

/// One acknowledged commit of the two-writer workload: writer, its
/// transaction, and the log device's sync count sampled after `commit`
/// returned — any later successful sync made the record durable.
type Ack = (usize, usize, u64);

/// Run the two-writer workload until it completes or a device trips.
fn run_writers(db: &Database, spec: &TortureSpec, log: &Dev) -> Vec<Ack> {
    let writer = db.writer().expect("MultiWriter configured");
    let barrier = Barrier::new(spec.writers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.writers)
            .map(|w| {
                let (writer, barrier) = (writer.clone(), &barrier);
                s.spawn(move || {
                    let mut acks = Vec::new();
                    // Every iteration reaches the barrier exactly once,
                    // failed or not — a writer that bailed early would
                    // strand its peer at the fence.
                    for j in 0..spec.txns {
                        let txn = writer.begin().ok();
                        let staged = txn.is_some_and(|txn| {
                            (0..spec.ops_per_txn).all(|i| {
                                let (k, v) = (writer_key(w, j, i), writer_value(w, j, i));
                                writer.put(txn, &k, &v).is_ok()
                            })
                        });
                        // Rendezvous: both writers commit together, so one
                        // leader drains both transactions and the fault
                        // can trip inside the drain.
                        barrier.wait();
                        if staged && writer.commit(txn.unwrap()).is_ok() {
                            acks.push((w, j, log.with(|d| d.syncs_done())));
                        }
                    }
                    acks
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("writer thread"))
            .collect()
    })
}

/// What one run of the workload acknowledged before it ended.
enum Acked {
    /// Samples of [`run_slot`].
    Sequential(Vec<u64>),
    /// Acknowledged commits of [`run_writers`].
    Writers(Vec<Ack>),
}

fn run_workload(db: &mut Database, spec: &TortureSpec, data: &Dev, log: &Dev) -> Acked {
    if spec.writers > 1 {
        Acked::Writers(run_writers(db, spec, log))
    } else {
        Acked::Sequential(run_sequential(db, spec, data, log))
    }
}

/// What the fault-free recording run measured.
#[derive(Debug, Clone)]
pub struct Recording {
    /// Total accepted writes on the log device.
    pub log_writes: u64,
    /// Total accepted writes on the data device.
    pub data_writes: u64,
    /// Total successful syncs on the log device.
    pub log_syncs: u64,
    /// Model state after each committed prefix.
    pub committed: Vec<Model>,
    /// Non-txn oracle: `(data sync count, model state at that barrier)`,
    /// starting from `(0, base state)` — a crash before the first barrier
    /// (the format's) leaves a blank image that reopens empty.
    pub sync_states: Vec<(u64, Model)>,
}

/// Fault-free run of exactly the operations a crash run makes: sizes the
/// sweep and snapshots the oracles.
pub fn record(spec: &TortureSpec) -> Recording {
    let (data, log) = fresh_universe(spec);
    let mut db = open(spec, &data, &log).expect("fault-free open");
    let acked = run_workload(&mut db, spec, &data, &log);

    let states = slot_states(spec);
    let committed = (0..spec.txns)
        .filter(|&j| takes_effect(spec, j))
        .map(|j| &states[j + 1]);
    let mut rec = Recording {
        log_writes: log.with(|d| d.writes_done()),
        data_writes: data.with(|d| d.writes_done()),
        log_syncs: log.with(|d| d.syncs_done()),
        committed: std::iter::once(&states[0])
            .chain(committed)
            .cloned()
            .collect(),
        sync_states: vec![(0, states[0].clone())],
    };
    let finished = match &acked {
        Acked::Sequential(s) if spec.commit.is_some() => s.len() + 1 == rec.committed.len(),
        Acked::Sequential(s) => s.len() == spec.txns,
        Acked::Writers(acks) => acks.len() == spec.writers * spec.txns,
    };
    assert!(finished, "{}: the fault-free run ended early", spec.name);
    if let (None, Acked::Sequential(syncs)) = (spec.commit, acked) {
        rec.sync_states
            .extend(syncs.into_iter().zip(states.into_iter().skip(1)));
    }
    rec
}

/// Read the sequential workload's key universe back out of a reopened
/// database.
fn read_state(db: &mut Database) -> Result<Model, DbmsError> {
    let mut m = Model::new();
    for n in 0..KEY_UNIVERSE {
        let k = key(n);
        if let Some(v) = db.get(&k)? {
            m.insert(k, v);
        }
    }
    Ok(m)
}

/// Arm the fault `mode` at index `crash_at` on a fresh universe, replay
/// the workload into the crash, heal, reopen, recover, and judge.
fn crash_once(spec: &TortureSpec, rec: &Recording, mode: &'static str, crash_at: u64) -> CrashRow {
    let (data, log) = fresh_universe(spec);
    let writes = FaultPlan {
        fail_after_writes: Some(crash_at),
        ..FaultPlan::default()
    };
    let (armed, plan) = match mode {
        "log-clean" => (&log, writes),
        "log-torn" => (
            &log,
            FaultPlan {
                tear_offset: Some(1 + (crash_at as usize * 37) % 511),
                ..writes
            },
        ),
        "log-sync-fail" => (
            &log,
            FaultPlan {
                fail_after_syncs: Some(crash_at),
                ..FaultPlan::default()
            },
        ),
        "data-clean" => (&data, writes),
        _ => unreachable!("unknown crash mode {mode}"),
    };
    armed.with(|d| d.set_plan(plan));

    let mut row = CrashRow {
        variant: spec.name,
        mode,
        crash_at,
        fired: false,
        completed: 0,
        durable: 0,
        recovered: None,
        violations: Vec::new(),
    };

    let mut db = open(spec, &data, &log).ok();
    let acked = match db.as_mut() {
        Some(db) => run_workload(db, spec, &data, &log),
        // The fault tripped inside the very first open (e.g. while
        // formatting): nothing was acknowledged.
        None if spec.writers > 1 => Acked::Writers(Vec::new()),
        None => Acked::Sequential(Vec::new()),
    };
    // Sample *before* healing (heal resets the counters).
    let (data_syncs, log_syncs) = (data.with(|d| d.syncs_done()), log.with(|d| d.syncs_done()));
    row.fired = tripped(armed);
    power_cut(&data, &log);
    drop(db);
    if !row.fired && spec.writers == 1 {
        row.violations
            .push("the armed fault never fired: the run tested nothing".into());
    }

    heal(&data, &log);
    let mut db = match open(spec, &data, &log) {
        Ok(db) => db,
        Err(e) => {
            row.violations
                .push(format!("reopen after crash failed: {e:?}"));
            return row;
        }
    };
    match db.verify_integrity() {
        Ok(report) if !report.is_ok() => row.violations.push(format!("integrity: {report}")),
        Ok(_) => {}
        Err(e) => row
            .violations
            .push(format!("integrity check errored: {e:?}")),
    }
    match acked {
        Acked::Writers(acks) => judge_writers(&mut db, spec, &acks, log_syncs, &mut row),
        Acked::Sequential(before) => match read_state(&mut db) {
            Err(e) => row
                .violations
                .push(format!("post-recovery read failed: {e:?}")),
            Ok(state) if spec.commit.is_none() => judge_synced(&state, rec, data_syncs, &mut row),
            Ok(state) => judge_prefix(&state, rec, &before, log_syncs, &mut row),
        },
    }

    // A second open must find nothing to replay: recovery seals the log
    // with aborts for the losers plus a checkpoint.
    if spec.commit.is_some() {
        drop(db);
        match open(spec, &data, &log) {
            Ok(db2) => {
                if let Some(stats) = db2.last_recovery() {
                    if stats.redo_applied != 0 || stats.undo_applied != 0 {
                        row.violations.push(format!(
                            "second open replayed work after a sealed recovery: {} redo, {} undo",
                            stats.redo_applied, stats.undo_applied
                        ));
                    }
                }
            }
            Err(e) => row.violations.push(format!("second reopen failed: {e:?}")),
        }
    }
    row
}

/// Transactional oracle: the recovered state is the state after some
/// committed prefix m, with every provably-durable commit included.
fn judge_prefix(
    recovered: &Model,
    rec: &Recording,
    syncs_before_commit: &[u64],
    log_syncs_at_crash: u64,
    row: &mut CrashRow,
) {
    row.completed = syncs_before_commit.len();
    row.durable = syncs_before_commit
        .iter()
        .filter(|&&before| log_syncs_at_crash > before)
        .count();
    // Two committed states can be equal (a slot whose only effect is
    // removing absent keys), so judge every prefix the state matches.
    let matches: Vec<usize> = (0..rec.committed.len())
        .filter(|&m| rec.committed[m] == *recovered)
        .collect();
    row.recovered = matches
        .iter()
        .copied()
        .find(|m| (row.durable..=row.completed + 1).contains(m))
        .or(matches.first().copied());
    match row.recovered {
        None => row
            .violations
            .push("recovered state matches no committed prefix (atomicity broken)".to_string()),
        Some(m) if m < row.durable => row.violations.push(format!(
            "durability broken: {} commits were synced but only {m} survived",
            row.durable
        )),
        // One commit may be in flight at the crash: its record can hit
        // the media (e.g. a torn write persisting the full frame) even
        // though `commit()` never returned. Landing on either side of
        // an in-flight commit is legitimate; resurrecting more than one
        // is not (the workload is sequential).
        Some(m) if m > row.completed + 1 => row.violations.push(format!(
            "recovered {m} commits but only {} ever completed",
            row.completed
        )),
        Some(_) => {}
    }
}

/// Non-transactional oracle: write-back media holds exactly the state at
/// the last successful data sync.
fn judge_synced(recovered: &Model, rec: &Recording, data_syncs_at_crash: u64, row: &mut CrashRow) {
    let at = rec
        .sync_states
        .iter()
        .rposition(|(s, _)| *s <= data_syncs_at_crash)
        .expect("sync_states starts at 0 syncs");
    if rec.sync_states[at].1 == *recovered {
        row.recovered = Some(at);
    } else {
        row.violations.push(format!(
            "recovered state is not the last-synced state ({data_syncs_at_crash} data syncs)"
        ));
    }
}

/// Two-writer oracle: each transaction survives whole with its exact bytes
/// or not at all, and the durability floor of the policy holds.
fn judge_writers(
    db: &mut Database,
    spec: &TortureSpec,
    acks: &[Ack],
    log_syncs_at_crash: u64,
    row: &mut CrashRow,
) {
    let mut survived = std::collections::BTreeSet::new();
    for w in 0..spec.writers {
        for j in 0..spec.txns {
            let mut present = 0;
            for i in 0..spec.ops_per_txn {
                match db.get(&writer_key(w, j, i)) {
                    Ok(Some(v)) if v == writer_value(w, j, i) => present += 1,
                    Ok(Some(_)) => row
                        .violations
                        .push(format!("txn ({w},{j}) recovered a wrong value")),
                    Ok(None) => {}
                    Err(e) => row
                        .violations
                        .push(format!("post-recovery read failed: {e:?}")),
                }
            }
            if present == spec.ops_per_txn {
                survived.insert((w, j));
            } else if present > 0 {
                row.violations.push(format!(
                    "txn ({w},{j}) recovered {present}/{} keys: per-transaction atomicity broken",
                    spec.ops_per_txn
                ));
            }
        }
    }
    // Force: an acknowledged commit synced inside its own drain, so it
    // survives unconditionally. Group: the commit record is on the media
    // once *any* later sync succeeded.
    let force = matches!(spec.commit, Some(CommitPolicy::Force));
    let must_survive: Vec<_> = acks
        .iter()
        .filter(|&&(_, _, after)| force || log_syncs_at_crash > after)
        .collect();
    row.completed = acks.len();
    row.durable = must_survive.len();
    row.recovered = Some(survived.len());
    for &&(w, j, _) in &must_survive {
        if !survived.contains(&(w, j)) {
            row.violations.push(format!(
                "acknowledged txn ({w},{j}) lost after crash (durability broken)"
            ));
        }
    }
}

/// The crash modes a sweep can arm, in sweep order.
pub const MODES: [&str; 4] = ["log-clean", "log-torn", "log-sync-fail", "data-clean"];

/// Sweep every crash point of a spec. The recording sizes the sweep;
/// `stride` thins it.
pub fn torture(spec: &TortureSpec) -> TortureResult {
    torture_modes(spec, &MODES)
}

/// Sweep the crash points of a spec in the given modes only (a mode the
/// spec does not sweep contributes no point).
pub fn torture_modes(spec: &TortureSpec, modes: &[&str]) -> TortureResult {
    let rec = record(spec);
    let mut sweeps = Vec::new();
    if spec.commit.is_some() {
        sweeps.extend([
            ("log-clean", rec.log_writes),
            ("log-torn", rec.log_writes),
            // The barrier itself fails.
            ("log-sync-fail", rec.log_syncs),
        ]);
    }
    // Clean only (no torn-page protection on data media), and only where a
    // volatile cache makes the media change barrier by barrier — see the
    // module docs.
    if !spec.write_through {
        sweeps.push(("data-clean", rec.data_writes));
    }
    let stride = spec.stride.max(1) as usize;
    let rows = sweeps
        .into_iter()
        .filter(|(mode, _)| modes.contains(mode))
        .flat_map(|(mode, n)| (0..n).step_by(stride).map(move |at| (mode, at)))
        .map(|(mode, at)| crash_once(spec, &rec, mode, at))
        .collect();
    TortureResult { rows }
}

/// A sequential, unbatched, write-back row at stride 1.
fn spec(
    name: &'static str,
    index: TortureIndex,
    buffer_frames: Option<usize>,
    commit: Option<CommitPolicy>,
    txns: usize,
    ops_per_txn: usize,
) -> TortureSpec {
    TortureSpec {
        name,
        index,
        buffer_frames,
        commit,
        txns,
        ops_per_txn,
        stride: 1,
        batched: false,
        write_through: false,
        writers: 1,
    }
}

/// The default variant × commit-policy matrix of experiment E7.
pub fn default_specs() -> Vec<TortureSpec> {
    use TortureIndex::{BTree, Hash, List};
    let force = Some(CommitPolicy::Force);
    let group = |group_size| Some(CommitPolicy::Group { group_size });
    let batched = |s| TortureSpec { batched: true, ..s };
    let write_through = |s| TortureSpec {
        write_through: true,
        ..s
    };
    let two_writers = |s| TortureSpec { writers: 2, ..s };
    vec![
        spec("btree/buffered/force", BTree, Some(32), force, 10, 4),
        spec("btree/buffered/group3", BTree, Some(32), group(3), 10, 4),
        spec("list/buffered/force", List, Some(32), force, 8, 4),
        spec("hash/buffered/group2", Hash, Some(32), group(2), 8, 4),
        // Slot 9 syncs its write of a key no earlier commit wrote (key 12:
        // three ops per slot), then aborts; slot 10's commit makes the
        // `Abort` durable while that write is on the data media and its
        // compensation only in the pool, until the next data barrier.
        spec("btree/synced-abort/force", BTree, Some(32), force, 12, 3),
        spec("btree/unbuffered/no-txn", BTree, None, None, 8, 4),
        spec("list/unbuffered/no-txn", List, None, None, 8, 4),
        // E10: batched write path — each slot is one WriteBatch applied
        // through the coalesced WAL commit; recovery must observe every
        // batch entirely or not at all.
        batched(spec("btree/batched/force", BTree, Some(32), force, 10, 6)),
        batched(spec("hash/batched/group3", Hash, Some(32), group(3), 8, 6)),
        batched(spec("list/batched/no-txn", List, None, None, 8, 6)),
        // Write-through media, a pool of two frames, transactions that
        // straddle leaves: uncommitted pages are evicted onto the media
        // mid-transaction, and only the log-tail barrier in front of the
        // data device keeps them undoable.
        write_through(spec(
            "btree/2-frames/force/wt",
            BTree,
            Some(2),
            force,
            10,
            6,
        )),
        write_through(spec(
            "btree/2-frames/group3/wt",
            BTree,
            Some(2),
            group(3),
            10,
            6,
        )),
        write_through(batched(spec(
            "btree/2-frames/batched/wt",
            BTree,
            Some(2),
            force,
            10,
            6,
        ))),
        // E12: two DbWriter clones commit together, so the fault lands
        // inside a group-commit leader's drain.
        two_writers(spec("btree/mt2/force", BTree, Some(16), force, 4, 2)),
        two_writers(spec("btree/mt2/group2", BTree, Some(16), group(2), 4, 2)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_name(name: &str) -> TortureSpec {
        default_specs()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap()
    }

    /// The gate: every row of the matrix at stride 1 — every write and
    /// sync index from 0, on every device the row sweeps — recovers with
    /// no violation, and every armed fault of a sequential row fires.
    #[test]
    fn every_crash_point_of_every_row_recovers() {
        let (mut points, mut failures) = (0, Vec::new());
        for spec in default_specs() {
            let result = torture(&TortureSpec { stride: 1, ..spec });
            points += result.crash_points();
            failures.extend(result.rows.into_iter().filter(|r| !r.violations.is_empty()));
        }
        assert!(points > 400, "{points} crash points");
        assert!(failures.is_empty(), "{failures:#?}");
    }

    /// Slots 2 and 3 leave the same state (slot 3 only removes an absent
    /// key). Three commits were synced and the state recovered is that
    /// of prefix 3, which equals prefix 2: a correct recovery.
    #[test]
    fn equal_consecutive_prefixes_are_not_a_durability_violation() {
        let state = |keys: &[&str]| -> Model {
            keys.iter()
                .map(|k| (k.as_bytes().to_vec(), b"v".to_vec()))
                .collect()
        };
        let rec = Recording {
            log_writes: 0,
            data_writes: 0,
            log_syncs: 3,
            committed: vec![
                state(&[]),
                state(&["a"]),
                state(&["a", "b"]),
                state(&["a", "b"]),
                state(&["a", "b", "c"]),
            ],
            sync_states: vec![(0, state(&[]))],
        };
        let judge = |recovered: &Model| {
            let mut row = CrashRow {
                variant: "synthetic",
                mode: "log-clean",
                crash_at: 0,
                fired: true,
                completed: 0,
                durable: 0,
                recovered: None,
                violations: Vec::new(),
            };
            judge_prefix(recovered, &rec, &[0, 1, 2], 3, &mut row);
            row
        };
        let row = judge(&state(&["a", "b"]));
        assert_eq!((row.durable, row.completed), (3, 3));
        assert!(row.violations.is_empty(), "{:?}", row.violations);
        assert_eq!(row.recovered, Some(3));
        // A state older than the synced prefix still is a violation.
        let lost = judge(&state(&["a"]));
        assert_eq!(lost.recovered, Some(1));
        assert!(lost.violations[0].starts_with("durability broken"));
    }

    #[test]
    fn recording_measures_writes_and_syncs() {
        let spec = &default_specs()[0];
        let rec = record(spec);
        assert!(rec.log_writes > 10, "log writes: {}", rec.log_writes);
        assert!(rec.data_writes > 0, "data writes: {}", rec.data_writes);
        assert!(rec.log_syncs > 0);
        assert_eq!(rec.committed.len(), 9, "10 txns, every 5th aborts");
    }

    #[test]
    fn force_commit_survives_a_mid_log_crash() {
        let spec = &default_specs()[0];
        let rec = record(spec);
        let row = crash_once(spec, &rec, "log-clean", rec.log_writes / 2);
        assert!(row.violations.is_empty(), "{:?}", row.violations);
        assert!(row.recovered.is_some());
    }

    #[test]
    fn batched_force_survives_a_mid_log_crash() {
        let spec = by_name("btree/batched/force");
        let rec = record(&spec);
        // Coalescing means the batched run writes far fewer log pages than
        // one per record: 10 slots (2 poisoned) ≈ a Begin + frame run +
        // Commit each, not 6 records' worth of tail rewrites.
        assert!(rec.log_writes > 4, "log writes: {}", rec.log_writes);
        for k in [0, rec.log_writes / 2, rec.log_writes - 1] {
            let row = crash_once(&spec, &rec, "log-clean", k);
            assert!(row.violations.is_empty(), "@{k}: {:?}", row.violations);
        }
    }

    #[test]
    fn non_txn_variant_recovers_last_synced_state() {
        let spec = &by_name("btree/unbuffered/no-txn");
        let rec = record(spec);
        let row = crash_once(spec, &rec, "data-clean", rec.data_writes / 2);
        assert!(row.violations.is_empty(), "{:?}", row.violations);
    }

    /// `Database::sync` must make the log durable *before* the data pages.
    /// With the log barrier armed to fail, a correctly ordered sync errors
    /// out before ever issuing the data barrier.
    #[test]
    fn sync_orders_log_barrier_before_data_barrier() {
        let spec = &default_specs()[0];
        let (data, log) = fresh_universe(spec);
        let mut db = open(spec, &data, &log).expect("open");

        // Leave a transaction in flight so the log holds undo records that
        // the barrier must make durable before any uncommitted page can.
        let t = db.begin().expect("begin");
        for i in 0..4 {
            db.txn_put(t, &key(i), b"uncommitted").expect("txn_put");
        }

        let data_syncs_before = data.with(|d| d.syncs_done());
        log.with(|d| {
            let done = d.syncs_done();
            d.set_plan(FaultPlan {
                fail_after_syncs: Some(done),
                ..FaultPlan::default()
            });
        });

        assert!(
            db.sync().is_err(),
            "sync must report the failed log barrier"
        );
        assert_eq!(
            data.with(|d| d.syncs_done()),
            data_syncs_before,
            "data barrier issued although the log barrier failed: \
             uncommitted pages could outlive their undo records"
        );

        // After the log heals the same barrier goes through, data included.
        log.with(|d| d.heal());
        db.sync().expect("sync after heal");
        assert!(
            data.with(|d| d.syncs_done()) > 0,
            "healed sync should reach the data device"
        );
    }

    /// Recovery seals the log (terminal records for losers plus a
    /// checkpoint), so a second open finds nothing to replay.
    #[test]
    fn recovery_seals_log_and_second_open_replays_nothing() {
        const OPS: usize = 3;
        let spec = &default_specs()[0];
        let (data, log) = fresh_universe(spec);
        {
            let mut db = open(spec, &data, &log).expect("open");
            for j in 0..3 {
                let t = db.begin().expect("begin");
                for i in 0..OPS {
                    db.txn_put(t, &key(j * OPS + i), &value(j, i)).expect("put");
                }
                db.commit(t).expect("commit");
            }
            // Crash with committed work not yet on the data media: redo
            // exists.
            power_cut(&data, &log);
        }
        heal(&data, &log);

        {
            let mut db = open(spec, &data, &log).expect("first reopen");
            let stats = db.last_recovery().expect("first reopen recovers");
            assert!(stats.redo_applied > 0, "the crash left committed redo work");
            let mut expected = Model::new();
            for j in 0..3 {
                for i in 0..OPS {
                    expected.insert(key(j * OPS + i), value(j, i));
                }
            }
            assert_eq!(read_state(&mut db).unwrap(), expected);
        }
        {
            let db = open(spec, &data, &log).expect("second reopen");
            let stats = db.last_recovery().expect("stats recorded");
            assert_eq!(
                (stats.redo_applied, stats.undo_applied),
                (0, 0),
                "second open replayed work after a sealed recovery"
            );
        }
    }

    /// The WAL rule with a buffered log tail: a log record reaches the log
    /// device before the data page it describes reaches the data device —
    /// `fame_os::OrderedDevice` in front of the data device writes the
    /// pending tail ahead of every page write. Both devices are
    /// write-through here (every accepted write is on the media) and the
    /// pool has a handful of frames, so the page a `txn_put` dirtied is
    /// evicted — an uncommitted value on the media — before the commit that
    /// never comes. Recovery can undo the put only if its record got to the
    /// log device first. Without the barrier call in
    /// `OrderedDevice::write_page` this test fails: the record dies in
    /// memory and the uncommitted value survives the reopen. Both pools are
    /// covered (transactions cannot be composed with the unbuffered pager:
    /// `DbmsConfig::check`).
    #[test]
    fn a_data_page_never_outruns_the_log_record_that_describes_it() {
        const ROWS: u32 = 64;
        let row = |i: u32| format!("row-{i:03}").into_bytes();
        let committed = |i: u32| format!("committed-{i:03}-{}", "c".repeat(40)).into_bytes();

        let spec = TortureSpec {
            buffer_frames: Some(4),
            write_through: true,
            ..default_specs()[0].clone()
        };
        let shared = DbmsConfig {
            concurrency: Concurrency::MultiReader { shards: 1 },
            ..config_for(&spec)
        };
        for (label, cfg) in [
            ("exclusive pool", config_for(&spec)),
            ("shared pool", shared),
        ] {
            let (data, log) = (fresh_dev(&spec), fresh_dev(&spec));
            let open = || {
                Database::open_with_devices(
                    cfg.clone(),
                    Box::new(data.clone()),
                    Some(Box::new(log.clone()) as Box<dyn BlockDevice>),
                )
            };

            // Several leaves of committed rows, all of them on the media,
            // and a reopen: recovery seals the log with a checkpoint, so
            // the next one redoes none of this and cannot paper over a
            // missing undo. (It also restarts the id sequence — see the
            // test below.)
            let mut db = open().expect("open");
            let t = db.begin().unwrap();
            for i in 0..ROWS {
                db.txn_put(t, &row(i), &committed(i)).unwrap();
            }
            db.commit(t).unwrap();
            db.sync().unwrap();
            drop(db);
            let mut db = open().expect("reopen");

            // One uncommitted overwrite, then reads of every other leaf:
            // the dirty page leaves memory.
            let writes_before = data.with(|d| d.writes_done());
            let t = db.begin().unwrap();
            db.txn_put(t, &row(7), b"uncommitted").unwrap();
            for i in 0..ROWS {
                db.get(&row(i)).unwrap();
            }
            assert!(
                data.with(|d| d.writes_done()) > writes_before,
                "{label}: the dirty page must have reached the data device"
            );

            // Power loss before the commit.
            power_cut(&data, &log);
            drop(db);
            heal(&data, &log);

            let mut db = open().unwrap_or_else(|e| panic!("{label}: reopen failed: {e:?}"));
            assert_eq!(
                db.get(&row(7)).unwrap(),
                Some(committed(7)),
                "{label}: the uncommitted put must be undone"
            );
            assert_eq!(
                db.last_recovery().map(|r| r.undo_applied),
                Some(1),
                "{label}"
            );
            let report = db.verify_integrity().expect("integrity check runs");
            assert!(report.is_ok(), "{label}: integrity violations: {report}");
            for i in 0..ROWS {
                assert_eq!(
                    db.get(&row(i)).unwrap(),
                    Some(committed(i)),
                    "{label}: row {i}"
                );
            }
        }
    }

    /// An abort compensates in the pool only; no record logs it. When the
    /// aborted write reached the data media mid-transaction and a later
    /// commit made the `Abort` durable, recovery must re-apply the
    /// compensation at that `Abort` — without it the aborted bytes survive
    /// the reopen.
    #[test]
    fn an_aborted_write_synced_before_its_abort_does_not_survive_a_crash() {
        let spec = &TortureSpec {
            buffer_frames: Some(64),
            ..by_name("btree/buffered/force")
        };
        let (data, log) = fresh_universe(spec);
        let mut db = open(spec, &data, &log).expect("open");
        let t = db.begin().unwrap();
        db.txn_put(t, b"k", b"committed").unwrap();
        db.commit(t).unwrap();
        db.sync().unwrap();
        drop(db);

        // The reopen seals the log with a checkpoint: nothing before it is
        // redone, so no older redo can paper over the aborted write.
        let mut db = open(spec, &data, &log).expect("reopen");
        let t1 = db.begin().unwrap();
        db.txn_put(t1, b"k", b"uncommitted").unwrap();
        db.sync().unwrap(); // the aborted write reaches the data media
        db.abort(t1).unwrap(); // compensated in the pool only
        let t2 = db.begin().unwrap();
        db.txn_put(t2, b"other", b"later").unwrap();
        db.commit(t2).unwrap(); // its log sync makes the Abort durable
        power_cut(&data, &log);
        drop(db);
        heal(&data, &log);

        let mut db = open(spec, &data, &log).expect("reopen after crash");
        assert_eq!(db.get(b"k").unwrap(), Some(b"committed".to_vec()));
        assert_eq!(db.get(b"other").unwrap(), Some(b"later".to_vec()));
        let stats = db.last_recovery().expect("the crash left work to replay");
        assert!(stats.losers.is_empty(), "{stats:?}");
        assert_eq!(stats.undo_applied, 1, "{stats:?}");
    }

    /// Transaction ids keep rising across a reopen. Recovery classifies by
    /// id over the whole log, so were the sequence to restart at 1, the
    /// uncommitted transaction below would inherit the `Commit` of the
    /// first session's transaction 1 and be redone instead of undone.
    #[test]
    fn a_reopened_log_never_reuses_a_transaction_id() {
        let spec = &default_specs()[0];
        let (data, log) = fresh_universe(spec);
        let mut db = open(spec, &data, &log).expect("open");
        let t = db.begin().unwrap();
        db.txn_put(t, b"k", b"committed").unwrap();
        db.commit(t).unwrap();
        db.sync().unwrap();
        drop(db);

        let mut db = open(spec, &data, &log).expect("reopen");
        let t2 = db.begin().unwrap();
        assert!(
            t2.id() > t.id(),
            "ids continue: {} after {}",
            t2.id(),
            t.id()
        );
        db.txn_put(t2, b"k", b"uncommitted").unwrap();
        db.sync().unwrap(); // log and data both durable, the commit never comes
        power_cut(&data, &log);
        drop(db);
        heal(&data, &log);

        let mut db = open(spec, &data, &log).expect("reopen after crash");
        assert_eq!(db.get(b"k").unwrap(), Some(b"committed".to_vec()));
    }
}
