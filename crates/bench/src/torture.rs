//! Crash-point torture harness (experiment E7).
//!
//! The WAL rule — log records durable before the data pages they describe —
//! only shows its teeth when a crash lands *between* two barriers. This
//! harness makes that systematic instead of anecdotal:
//!
//! 1. **Record**: run a deterministic workload against a product variant on
//!    write-back [`FaultDevice`]s (writes stage in a volatile cache; only a
//!    successful `sync()` reaches the media) and note how many device writes
//!    and syncs the run performs, plus the model state after every commit.
//! 2. **Sweep**: for each crash point — write index `k` on the log device
//!    (clean and torn), write index `k` on the data device (clean), and
//!    sync index `s` on the log device — restart the workload from a fresh
//!    universe with that fault armed. The device trips mid-run, the
//!    harness trips the *other* device too (one power supply), heals both,
//!    and reopens the database over the surviving media.
//! 3. **Judge**: after recovery the image must pass the storage integrity
//!    checker, and the recovered key/value state must equal the state after
//!    some committed prefix `m` of the workload with
//!    `durable_commits <= m <= completed_commits` — commits whose log sync
//!    succeeded before the crash must survive, and nothing uncommitted may.
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

use std::collections::BTreeMap;

use fame_dbms::fame_os::{FaultDevice, FaultPlan, InMemoryDevice, SharedDevice};
use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::{BufferConfig, Database, DbmsConfig, DbmsError, IndexKind, TxnConfig, WriteBatch};

/// Distinct keys the workload cycles through (reuse forces overwrites and
/// removes of existing keys).
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
    /// Transactions (or non-txn batches) in the workload.
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
    /// Write (or sync) index the fault was armed at.
    pub crash_at: u64,
    /// Commits whose `commit()` returned before the crash.
    pub completed: usize,
    /// Commits provably durable at the crash (log sync after the record).
    pub durable: usize,
    /// Committed prefix the recovered state matched, if any.
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
}

fn fresh_dev(spec: &TortureSpec) -> Dev {
    let (inner, plan) = (InMemoryDevice::new(512), FaultPlan::default());
    SharedDevice::new(if spec.write_through {
        FaultDevice::new(inner, plan)
    } else {
        FaultDevice::write_back(inner, plan)
    })
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
        data.with(|d| d.heal());
        log.with(|d| d.heal());
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
    cfg
}

fn open(spec: &TortureSpec, data: &Dev, log: &Dev) -> Result<Database, fame_dbms::DbmsError> {
    let log_dev = spec
        .commit
        .map(|_| Box::new(log.clone()) as Box<dyn fame_dbms::fame_os::BlockDevice>);
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

/// Pure model of the workload: the key/value state after each committed
/// prefix. `states[0]` is the base state, `states[m]` the state after `m`
/// commits.
fn committed_states(spec: &TortureSpec) -> Vec<Model> {
    let mut cur = base_state(spec);
    let mut states = vec![cur.clone()];
    for j in 0..spec.txns {
        let mut draft = cur.clone();
        for i in 0..spec.ops_per_txn {
            let k = key(j * spec.ops_per_txn + i);
            if is_remove(spec, j, i) {
                draft.remove(&k);
            } else {
                draft.insert(k, value(j, i));
            }
        }
        if !aborts(j) {
            cur = draft;
            states.push(cur.clone());
        }
    }
    states
}

/// Run the workload until it completes or the device trips. Returns the
/// per-commit log-sync samples: `samples[c]` is the log device's successful
/// sync count just *before* commit `c`'s record was appended — commit `c`
/// is provably durable once the device's total exceeds it.
fn run_workload(db: &mut Database, spec: &TortureSpec, log: &Dev, data: &Dev) -> Vec<u64> {
    let mut syncs_before_commit = Vec::new();
    if spec.batched && spec.commit.is_some() {
        // Batched transactional workload: each slot is one WriteBatch =
        // one transaction = one coalesced WAL append + one commit.
        for j in 0..spec.txns {
            let b = build_batch(spec, j);
            if aborts(j) {
                match db.apply_batch(b) {
                    // Expected: the poison rejects the batch up front.
                    Err(DbmsError::Config(_)) => {}
                    // Device tripped during resolution — or, worse, the
                    // poisoned batch applied. Either way the workload ends.
                    _ => return syncs_before_commit,
                }
            } else {
                let before = log.with(|d| d.syncs_done());
                if db.apply_batch(b).is_err() {
                    return syncs_before_commit;
                }
                syncs_before_commit.push(before);
                // Periodic full barrier, as in the per-record workload.
                if syncs_before_commit.len() % 3 == 0 && db.sync().is_err() {
                    return syncs_before_commit;
                }
            }
        }
    } else if spec.batched {
        // Batched non-transactional workload: bulk apply + explicit sync.
        let _ = data;
        for j in 0..spec.txns {
            let b = build_batch(spec, j);
            if aborts(j) {
                match db.apply_batch(b) {
                    Err(DbmsError::Config(_)) => {}
                    _ => return syncs_before_commit,
                }
            } else if db.apply_batch(b).is_err() {
                return syncs_before_commit;
            }
            if db.sync().is_err() {
                return syncs_before_commit;
            }
        }
    } else if spec.commit.is_some() {
        for j in 0..spec.txns {
            let Ok(t) = db.begin() else {
                return syncs_before_commit;
            };
            for i in 0..spec.ops_per_txn {
                let k = key(j * spec.ops_per_txn + i);
                let r = if is_remove(spec, j, i) {
                    db.txn_remove(t, &k).map(|_| ())
                } else {
                    db.txn_put(t, &k, &value(j, i)).map(|_| ())
                };
                if r.is_err() {
                    return syncs_before_commit;
                }
                // Mid-transaction durability barrier: the dirty pages now
                // carry *uncommitted* effects, so `Database::sync` must make
                // the undo records durable before the data pages (the WAL
                // rule). A crash at this barrier is exactly the interleaving
                // that punishes a data-before-log sync ordering — without it
                // every barrier in the workload lands on a commit boundary,
                // where the log is already durable and the ordering is
                // unobservable.
                if i == spec.ops_per_txn / 2 && j % 2 == 1 && db.sync().is_err() {
                    return syncs_before_commit;
                }
            }
            if aborts(j) {
                if db.abort(t).is_err() {
                    return syncs_before_commit;
                }
            } else {
                let before = log.with(|d| d.syncs_done());
                if db.commit(t).is_err() {
                    return syncs_before_commit;
                }
                syncs_before_commit.push(before);
                // Periodic full barrier: exercises the log-before-data
                // ordering of `Database::sync` under the sweep.
                if syncs_before_commit.len() % 3 == 0 && db.sync().is_err() {
                    return syncs_before_commit;
                }
            }
        }
    } else {
        // Non-transactional: batches separated by explicit syncs. The
        // caller's oracle keys off the *data* device sync count instead.
        let _ = data;
        for j in 0..spec.txns {
            for i in 0..spec.ops_per_txn {
                let k = key(j * spec.ops_per_txn + i);
                let r = if is_remove(spec, j, i) {
                    db.remove(&k).map(|_| ())
                } else {
                    db.put(&k, &value(j, i)).map(|_| ())
                };
                if r.is_err() {
                    return syncs_before_commit;
                }
            }
            if db.sync().is_err() {
                return syncs_before_commit;
            }
        }
    }
    syncs_before_commit
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
    /// Non-txn oracle: `(data sync count, model state at that barrier)`.
    pub sync_states: Vec<(u64, Model)>,
}

/// Fault-free run: sizes the sweep and snapshots the oracles.
pub fn record(spec: &TortureSpec) -> Recording {
    let (data, log) = fresh_universe(spec);
    let mut db = open(spec, &data, &log).expect("fault-free open");

    // For the non-txn oracle, sample the state at each explicit sync by
    // replaying the model alongside the engine.
    let mut sync_states: Vec<(u64, Model)> = vec![(data.with(|d| d.syncs_done()), Model::new())];
    if spec.commit.is_none() {
        let mut model = Model::new();
        for j in 0..spec.txns {
            if spec.batched {
                let mut draft = model.clone();
                for i in 0..spec.ops_per_txn {
                    let k = key(j * spec.ops_per_txn + i);
                    if is_remove(spec, j, i) {
                        draft.remove(&k);
                    } else {
                        draft.insert(k, value(j, i));
                    }
                }
                let b = build_batch(spec, j);
                if aborts(j) {
                    assert!(
                        matches!(db.apply_batch(b), Err(DbmsError::Config(_))),
                        "poisoned batch must be rejected up front"
                    );
                } else {
                    db.apply_batch(b).expect("fault-free batch");
                    model = draft;
                }
            } else {
                for i in 0..spec.ops_per_txn {
                    let k = key(j * spec.ops_per_txn + i);
                    if is_remove(spec, j, i) {
                        model.remove(&k);
                        db.remove(&k).expect("fault-free remove");
                    } else {
                        model.insert(k.clone(), value(j, i));
                        db.put(&k, &value(j, i)).expect("fault-free put");
                    }
                }
            }
            db.sync().expect("fault-free sync");
            sync_states.push((data.with(|d| d.syncs_done()), model.clone()));
        }
    } else {
        run_workload(&mut db, spec, &log, &data);
        db.sync().expect("fault-free final sync");
    }

    let rec = Recording {
        log_writes: log.with(|d| d.writes_done()),
        data_writes: data.with(|d| d.writes_done()),
        log_syncs: log.with(|d| d.syncs_done()),
        committed: committed_states(spec),
        sync_states,
    };
    drop(db);
    rec
}

/// Read the full key universe back out of a reopened database.
fn read_state(db: &mut Database) -> Result<Model, fame_dbms::DbmsError> {
    let mut m = Model::new();
    for n in 0..KEY_UNIVERSE {
        let k = key(n);
        if let Some(v) = db.get(&k)? {
            m.insert(k, v);
        }
    }
    Ok(m)
}

/// Arm `plan` on `target` (log or data device of a fresh universe), replay
/// the workload into the crash, heal, reopen, recover, and judge.
fn crash_once(
    spec: &TortureSpec,
    rec: &Recording,
    mode: &'static str,
    crash_at: u64,
    plan_log: Option<FaultPlan>,
    plan_data: Option<FaultPlan>,
) -> CrashRow {
    let (data, log) = fresh_universe(spec);
    if let Some(p) = plan_log {
        log.with(|d| d.set_plan(p));
    }
    if let Some(p) = plan_data {
        data.with(|d| d.set_plan(p));
    }

    let mut row = CrashRow {
        variant: spec.name,
        mode,
        crash_at,
        completed: 0,
        durable: 0,
        recovered: None,
        violations: Vec::new(),
    };

    let final_data_syncs = match open(spec, &data, &log) {
        Ok(mut db) => {
            let syncs_before_commit = run_workload(&mut db, spec, &log, &data);
            // Sample *before* healing (heal resets the counters), and trip
            // both devices before dropping the engine: one power supply
            // feeds both, and the buffer pool's Drop impl would otherwise
            // flush dirty frames past the simulated power loss.
            let final_log_syncs = log.with(|d| d.syncs_done());
            let final_data_syncs = data.with(|d| d.syncs_done());
            row.completed = syncs_before_commit.len();
            row.durable = syncs_before_commit
                .iter()
                .filter(|&&before| final_log_syncs > before)
                .count();
            log.with(|d| d.trip_now());
            data.with(|d| d.trip_now());
            drop(db);
            final_data_syncs
        }
        // The fault tripped inside the very first open (e.g. while
        // formatting): crash the other device too and judge what survived.
        Err(_) => {
            let final_data_syncs = data.with(|d| d.syncs_done());
            log.with(|d| d.trip_now());
            data.with(|d| d.trip_now());
            final_data_syncs
        }
    };

    verify_reopen(spec, rec, &data, &log, final_data_syncs, &mut row);
    row
}

/// Heal both devices, reopen, and check integrity + state oracles.
/// Pushes violations into `row` and fills `row.recovered`.
fn verify_reopen(
    spec: &TortureSpec,
    rec: &Recording,
    data: &Dev,
    log: &Dev,
    data_syncs_at_crash: u64,
    row: &mut CrashRow,
) {
    data.with(|d| d.heal());
    log.with(|d| d.heal());

    let mut db = match open(spec, data, log) {
        Ok(db) => db,
        Err(e) => {
            row.violations
                .push(format!("reopen after crash failed: {e:?}"));
            return;
        }
    };

    match db.verify_integrity() {
        Ok(report) => {
            if !report.is_ok() {
                row.violations.push(format!("integrity: {report}"));
            }
        }
        Err(e) => row
            .violations
            .push(format!("integrity check errored: {e:?}")),
    }

    let recovered = match read_state(&mut db) {
        Ok(s) => s,
        Err(e) => {
            row.violations
                .push(format!("post-recovery read failed: {e:?}"));
            return;
        }
    };

    if spec.commit.is_some() {
        // Transactional oracle: the recovered state is the state after some
        // committed prefix m, with every provably-durable commit included.
        let matched = (0..rec.committed.len()).find(|&m| rec.committed[m] == recovered);
        row.recovered = matched;
        match matched {
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
    } else {
        // Non-transactional oracle: write-back media holds exactly the
        // state at the last successful data sync.
        let at = rec
            .sync_states
            .iter()
            .rposition(|(s, _)| *s <= data_syncs_at_crash);
        match at {
            Some(i) if rec.sync_states[i].1 == recovered => row.recovered = Some(i),
            Some(_) => row.violations.push(format!(
                "recovered state is not the last-synced state ({data_syncs_at_crash} data syncs)"
            )),
            None => row
                .violations
                .push("no sync-state snapshot at or below crash point".to_string()),
        }
    }

    // A second open must find nothing to replay: recovery seals the log
    // with aborts for the losers plus a checkpoint.
    if spec.commit.is_some() {
        drop(db);
        match open(spec, data, log) {
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
}

/// Sweep every crash point of a spec. The recording sizes the sweep;
/// `stride` thins it.
pub fn torture(spec: &TortureSpec) -> TortureResult {
    let rec = record(spec);
    let mut out = TortureResult::default();

    let stride = spec.stride.max(1);
    // Crash on the k-th log write: clean, then torn at a rotating offset.
    if spec.commit.is_some() {
        let mut k = 1;
        while k <= rec.log_writes {
            out.rows.push(crash_once(
                spec,
                &rec,
                "log-clean",
                k,
                Some(FaultPlan {
                    fail_after_writes: Some(k),
                    ..FaultPlan::default()
                }),
                None,
            ));
            out.rows.push(crash_once(
                spec,
                &rec,
                "log-torn",
                k,
                Some(FaultPlan {
                    fail_after_writes: Some(k),
                    tear_offset: Some(1 + (k as usize * 37) % 511),
                    ..FaultPlan::default()
                }),
                None,
            ));
            k += stride;
        }
        // Crash on the s-th log sync (the barrier itself fails).
        let mut s = 0;
        while s < rec.log_syncs {
            out.rows.push(crash_once(
                spec,
                &rec,
                "log-sync-fail",
                s,
                Some(FaultPlan {
                    fail_after_syncs: Some(s),
                    ..FaultPlan::default()
                }),
                None,
            ));
            s += stride;
        }
    }
    // Crash on the k-th data write: clean only (no torn-page protection on
    // data media), and only where a volatile cache makes the media change
    // barrier by barrier — see the module docs.
    let mut k = 1;
    while !spec.write_through && k <= rec.data_writes {
        out.rows.push(crash_once(
            spec,
            &rec,
            "data-clean",
            k,
            None,
            Some(FaultPlan {
                fail_after_writes: Some(k),
                ..FaultPlan::default()
            }),
        ));
        k += stride;
    }
    out
}

/// The default variant × commit-policy matrix of experiment E7.
pub fn default_specs() -> Vec<TortureSpec> {
    vec![
        TortureSpec {
            name: "btree/buffered/force",
            index: TortureIndex::BTree,
            buffer_frames: Some(32),
            commit: Some(CommitPolicy::Force),
            txns: 10,
            ops_per_txn: 4,
            stride: 1,
            batched: false,
            write_through: false,
        },
        TortureSpec {
            name: "btree/buffered/group3",
            index: TortureIndex::BTree,
            buffer_frames: Some(32),
            commit: Some(CommitPolicy::Group { group_size: 3 }),
            txns: 10,
            ops_per_txn: 4,
            stride: 1,
            batched: false,
            write_through: false,
        },
        TortureSpec {
            name: "list/buffered/force",
            index: TortureIndex::List,
            buffer_frames: Some(32),
            commit: Some(CommitPolicy::Force),
            txns: 8,
            ops_per_txn: 4,
            stride: 2,
            batched: false,
            write_through: false,
        },
        TortureSpec {
            name: "hash/buffered/group2",
            index: TortureIndex::Hash,
            buffer_frames: Some(32),
            commit: Some(CommitPolicy::Group { group_size: 2 }),
            txns: 8,
            ops_per_txn: 4,
            stride: 2,
            batched: false,
            write_through: false,
        },
        TortureSpec {
            name: "btree/unbuffered/no-txn",
            index: TortureIndex::BTree,
            buffer_frames: None,
            commit: None,
            txns: 8,
            ops_per_txn: 4,
            stride: 2,
            batched: false,
            write_through: false,
        },
        TortureSpec {
            name: "list/unbuffered/no-txn",
            index: TortureIndex::List,
            buffer_frames: None,
            commit: None,
            txns: 8,
            ops_per_txn: 4,
            stride: 2,
            batched: false,
            write_through: false,
        },
        // E10: batched write path — each slot is one WriteBatch applied
        // through the coalesced WAL commit; recovery must observe every
        // batch entirely or not at all.
        TortureSpec {
            name: "btree/batched/force",
            index: TortureIndex::BTree,
            buffer_frames: Some(32),
            commit: Some(CommitPolicy::Force),
            txns: 10,
            ops_per_txn: 6,
            stride: 1,
            batched: true,
            write_through: false,
        },
        TortureSpec {
            name: "hash/batched/group3",
            index: TortureIndex::Hash,
            buffer_frames: Some(32),
            commit: Some(CommitPolicy::Group { group_size: 3 }),
            txns: 8,
            ops_per_txn: 6,
            stride: 2,
            batched: true,
            write_through: false,
        },
        TortureSpec {
            name: "list/batched/no-txn",
            index: TortureIndex::List,
            buffer_frames: None,
            commit: None,
            txns: 8,
            ops_per_txn: 6,
            stride: 2,
            batched: true,
            write_through: false,
        },
        // Write-through media, a pool of two frames, transactions that
        // straddle leaves: uncommitted pages are evicted onto the media
        // mid-transaction, and only the log-tail barrier in front of the
        // data device keeps them undoable.
        TortureSpec {
            name: "btree/2-frames/force/wt",
            index: TortureIndex::BTree,
            buffer_frames: Some(2),
            commit: Some(CommitPolicy::Force),
            txns: 10,
            ops_per_txn: 6,
            stride: 1,
            batched: false,
            write_through: true,
        },
        TortureSpec {
            name: "btree/2-frames/group3/wt",
            index: TortureIndex::BTree,
            buffer_frames: Some(2),
            commit: Some(CommitPolicy::Group { group_size: 3 }),
            txns: 10,
            ops_per_txn: 6,
            stride: 1,
            batched: false,
            write_through: true,
        },
        TortureSpec {
            name: "btree/2-frames/batched/wt",
            index: TortureIndex::BTree,
            buffer_frames: Some(2),
            commit: Some(CommitPolicy::Force),
            txns: 10,
            ops_per_txn: 6,
            stride: 1,
            batched: true,
            write_through: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let row = crash_once(
            spec,
            &rec,
            "log-clean",
            rec.log_writes / 2,
            Some(FaultPlan {
                fail_after_writes: Some(rec.log_writes / 2),
                ..FaultPlan::default()
            }),
            None,
        );
        assert!(row.violations.is_empty(), "{:?}", row.violations);
        assert!(row.recovered.is_some());
    }

    #[test]
    fn batched_force_survives_a_mid_log_crash() {
        let spec = default_specs()
            .into_iter()
            .find(|s| s.name == "btree/batched/force")
            .unwrap();
        let rec = record(&spec);
        // Coalescing means the batched run writes far fewer log pages than
        // one per record: 10 slots (2 poisoned) ≈ a Begin + frame run +
        // Commit each, not 6 records' worth of tail rewrites.
        assert!(rec.log_writes > 4, "log writes: {}", rec.log_writes);
        for k in [1, rec.log_writes / 2, rec.log_writes] {
            let row = crash_once(
                &spec,
                &rec,
                "log-clean",
                k,
                Some(FaultPlan {
                    fail_after_writes: Some(k),
                    ..FaultPlan::default()
                }),
                None,
            );
            assert!(row.violations.is_empty(), "@{k}: {:?}", row.violations);
        }
    }

    #[test]
    fn non_txn_variant_recovers_last_synced_state() {
        let spec = &default_specs()[4];
        let rec = record(spec);
        let row = crash_once(
            spec,
            &rec,
            "data-clean",
            rec.data_writes / 2,
            None,
            Some(FaultPlan {
                fail_after_writes: Some(rec.data_writes / 2),
                ..FaultPlan::default()
            }),
        );
        assert!(row.violations.is_empty(), "{:?}", row.violations);
    }
}
