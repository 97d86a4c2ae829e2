//! Integration: crash-point torture against the composed engine.
//!
//! A bounded, self-contained edition of experiment E7 (the full sweep lives
//! in `fame-bench`'s `crash_torture` binary): the database runs on
//! write-back [`FaultDevice`]s whose writes stage in a volatile cache until
//! a successful `sync()`, so a crash loses exactly what a real power cut
//! would. The tests pin the two durability-ordering bugs this PR fixes:
//!
//! * `Database::sync` must issue the *log* barrier before the *data*
//!   barrier (the WAL rule) — observable by failing the log barrier and
//!   checking the data device never synced.
//! * `commit()` must not acknowledge (release locks, count the commit)
//!   before its durability sync — observable by crashing at every log
//!   write/sync index and checking the recovered state against a pure
//!   model of the committed prefixes.

#![cfg(all(
    feature = "transactions",
    feature = "commit-force",
    feature = "commit-group",
    feature = "api-batch"
))]

use std::collections::BTreeMap;

use fame_dbms::fame_os::{BlockDevice, FaultDevice, FaultPlan, InMemoryDevice, SharedDevice};
use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::{BufferConfig, Database, DbmsConfig, DbmsError, IndexKind, TxnConfig, WriteBatch};

type Dev = SharedDevice<FaultDevice<InMemoryDevice>>;
type Model = BTreeMap<Vec<u8>, Vec<u8>>;

const PAGE: usize = 512;
const TXNS: usize = 6;
const OPS: usize = 3;
const KEYS: usize = 8;

fn fresh_dev() -> Dev {
    SharedDevice::new(FaultDevice::write_back(
        InMemoryDevice::new(PAGE),
        FaultPlan::default(),
    ))
}

fn config(commit: CommitPolicy) -> DbmsConfig {
    let mut cfg = DbmsConfig::in_memory();
    cfg.index = IndexKind::BTree;
    cfg.buffer = Some(BufferConfig {
        frames: 16,
        replacement: fame_dbms::fame_buffer::ReplacementKind::Lru,
        static_alloc: false,
    });
    cfg.transactions = Some(TxnConfig { commit });
    cfg
}

fn open(data: &Dev, log: &Dev, commit: CommitPolicy) -> Result<Database, fame_dbms::DbmsError> {
    Database::open_with_devices(
        config(commit),
        Box::new(data.clone()),
        Some(Box::new(log.clone()) as Box<dyn BlockDevice>),
    )
}

fn key(n: usize) -> Vec<u8> {
    format!("k{:02}", n % KEYS).into_bytes()
}

fn value(j: usize, i: usize) -> Vec<u8> {
    format!("v-{j}-{i}-{}", "y".repeat(1 + (j * 5 + i) % 17)).into_bytes()
}

fn aborts(j: usize) -> bool {
    j == 2
}

/// Pure model: state after each committed prefix (`states[0]` is empty).
fn committed_states() -> Vec<Model> {
    let mut states = vec![Model::new()];
    let mut cur = Model::new();
    for j in 0..TXNS {
        let mut draft = cur.clone();
        for i in 0..OPS {
            draft.insert(key(j * OPS + i), value(j, i));
        }
        if !aborts(j) {
            cur = draft;
            states.push(cur.clone());
        }
    }
    states
}

/// Run the workload until completion or the first device trip; returns the
/// log-device sync count sampled just before each `commit()`.
fn run_workload(db: &mut Database, log: &Dev) -> Vec<u64> {
    let mut syncs_before_commit = Vec::new();
    for j in 0..TXNS {
        let Ok(t) = db.begin() else {
            return syncs_before_commit;
        };
        for i in 0..OPS {
            if db.txn_put(t, &key(j * OPS + i), &value(j, i)).is_err() {
                return syncs_before_commit;
            }
            // Mid-transaction barrier: dirty pages hold uncommitted effects,
            // so the sync ordering inside `Database::sync` is load-bearing.
            if i == 1 && j % 2 == 1 && db.sync().is_err() {
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
        }
    }
    syncs_before_commit
}

/// Batched edition of the workload (E10): slot `j`'s puts as one
/// `WriteBatch` — one coalesced WAL append, one commit, one sync under
/// Force. The aborting slot becomes a poisoned batch (an `update` of a key
/// that never exists) which must be rejected with no effect, standing in
/// for the abort in [`committed_states`].
fn run_workload_batched(db: &mut Database, log: &Dev) -> Vec<u64> {
    let mut syncs_before_commit = Vec::new();
    for j in 0..TXNS {
        let mut b = WriteBatch::new();
        for i in 0..OPS {
            b.put(&key(j * OPS + i), &value(j, i));
        }
        if aborts(j) {
            b.update(b"never-written", b"poison");
            match db.apply_batch(b) {
                // Rejected up front: nothing logged, nothing applied.
                Err(DbmsError::Config(_)) => {}
                // Device tripped mid-resolution (or the poison applied).
                _ => return syncs_before_commit,
            }
        } else {
            let before = log.with(|d| d.syncs_done());
            if db.apply_batch(b).is_err() {
                return syncs_before_commit;
            }
            syncs_before_commit.push(before);
        }
    }
    syncs_before_commit
}

fn read_state(db: &mut Database) -> Model {
    let mut m = Model::new();
    for n in 0..KEYS {
        let k = key(n);
        if let Some(v) = db.get(&k).expect("post-recovery read") {
            m.insert(k, v);
        }
    }
    m
}

/// One crash point: arm `plan` on the log device of a fresh universe, run
/// into the crash, heal, reopen, and judge durability + atomicity +
/// integrity. Returns the matched committed prefix.
fn crash_and_judge(commit: CommitPolicy, plan: FaultPlan, label: &str) -> usize {
    crash_and_judge_with(commit, plan, label, false)
}

/// As [`crash_and_judge`], with the workload optionally issued as one
/// `WriteBatch` per slot. The oracle is unchanged: a batch is one commit,
/// so matching a committed prefix *is* batch atomicity — a half-applied
/// batch matches no prefix.
fn crash_and_judge_with(
    commit: CommitPolicy,
    plan: FaultPlan,
    label: &str,
    batched: bool,
) -> usize {
    let states = committed_states();
    let data = fresh_dev();
    let log = fresh_dev();
    log.with(|d| d.set_plan(plan));

    let (completed, durable) = match open(&data, &log, commit) {
        Ok(mut db) => {
            let samples = if batched {
                run_workload_batched(&mut db, &log)
            } else {
                run_workload(&mut db, &log)
            };
            let final_syncs = log.with(|d| d.syncs_done());
            let durable = samples.iter().filter(|&&b| final_syncs > b).count();
            // One power supply: trip both devices before the buffer pool's
            // Drop impl can flush dirty frames past the power loss.
            log.with(|d| d.trip_now());
            data.with(|d| d.trip_now());
            drop(db);
            (samples.len(), durable)
        }
        Err(_) => {
            log.with(|d| d.trip_now());
            data.with(|d| d.trip_now());
            (0, 0)
        }
    };

    data.with(|d| d.heal());
    log.with(|d| d.heal());

    let mut db = open(&data, &log, commit).unwrap_or_else(|e| {
        panic!("{label}: reopen after crash failed: {e:?}");
    });
    let report = db.verify_integrity().expect("integrity check runs");
    assert!(report.is_ok(), "{label}: integrity violations: {report}");

    let recovered = read_state(&mut db);
    let matched = (0..states.len()).find(|&m| states[m] == recovered);
    let Some(m) = matched else {
        panic!("{label}: recovered state matches no committed prefix (atomicity broken)");
    };
    assert!(
        m >= durable,
        "{label}: durability broken — {durable} commits synced, only {m} survived"
    );
    // `completed + 1` allows the one in-flight commit whose record reached
    // the media even though `commit()` never returned.
    assert!(
        m <= completed + 1,
        "{label}: recovered {m} commits but only {completed} completed"
    );
    m
}

/// Satellite (a): `Database::sync` must make the log durable *before* the
/// data pages. With the log barrier armed to fail, a correctly ordered sync
/// errors out before ever issuing the data barrier.
#[test]
fn sync_orders_log_barrier_before_data_barrier() {
    let data = fresh_dev();
    let log = fresh_dev();
    let mut db = open(&data, &log, CommitPolicy::Force).expect("open");

    // Leave a transaction in flight so the log holds undo records that the
    // barrier must make durable before any uncommitted page can.
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

/// Satellite (e): recovery seals the log (terminal records for losers plus
/// a checkpoint), so a second open finds nothing to replay.
#[test]
fn recovery_seals_log_and_second_open_replays_nothing() {
    let data = fresh_dev();
    let log = fresh_dev();
    {
        let mut db = open(&data, &log, CommitPolicy::Force).expect("open");
        for j in 0..3 {
            let t = db.begin().expect("begin");
            for i in 0..OPS {
                db.txn_put(t, &key(j * OPS + i), &value(j, i)).expect("put");
            }
            db.commit(t).expect("commit");
        }
        // Crash with committed work not yet on the data media: redo exists.
        log.with(|d| d.trip_now());
        data.with(|d| d.trip_now());
    }

    data.with(|d| d.heal());
    log.with(|d| d.heal());

    {
        let mut db = open(&data, &log, CommitPolicy::Force).expect("first reopen");
        let stats = db.last_recovery().expect("first reopen recovers");
        assert!(stats.redo_applied > 0, "the crash left committed redo work");
        let mut expected = Model::new();
        for j in 0..3 {
            for i in 0..OPS {
                expected.insert(key(j * OPS + i), value(j, i));
            }
        }
        assert_eq!(read_state(&mut db), expected);
    }
    {
        let db = open(&data, &log, CommitPolicy::Force).expect("second reopen");
        let stats = db.last_recovery().expect("stats recorded");
        assert_eq!(
            (stats.redo_applied, stats.undo_applied),
            (0, 0),
            "second open replayed work after a sealed recovery"
        );
    }
}

/// Bounded sweep, Force commits: crash cleanly at every 3rd log write.
#[test]
fn crash_sweep_force_clean() {
    for k in (1..200).step_by(3) {
        crash_and_judge(
            CommitPolicy::Force,
            FaultPlan {
                fail_after_writes: Some(k),
                ..FaultPlan::default()
            },
            &format!("force/log-clean@{k}"),
        );
    }
}

/// Bounded sweep, Force commits: torn final write at every 5th log write.
#[test]
fn crash_sweep_force_torn() {
    for k in (1..200).step_by(5) {
        crash_and_judge(
            CommitPolicy::Force,
            FaultPlan {
                fail_after_writes: Some(k),
                tear_offset: Some(1 + (k as usize * 37) % (PAGE - 1)),
                ..FaultPlan::default()
            },
            &format!("force/log-torn@{k}"),
        );
    }
}

/// E10 satellite: batched commits, Force policy — crash cleanly at every
/// log write index. Zero tolerance: a batch must be observed entirely or
/// not at all after recovery.
#[test]
fn batch_crash_sweep_force_clean() {
    // The coalesced append writes far fewer log pages than the per-record
    // path, so a tighter sweep still covers every write index.
    for k in 1..60 {
        crash_and_judge_with(
            CommitPolicy::Force,
            FaultPlan {
                fail_after_writes: Some(k),
                ..FaultPlan::default()
            },
            &format!("batch-force/log-clean@{k}"),
            true,
        );
    }
}

/// E10 satellite: batched commits with a torn final log write. The tear
/// can split the batch's frame run across the page boundary — recovery
/// must still land on a whole-batch prefix.
#[test]
fn batch_crash_sweep_force_torn() {
    for k in (1..60).step_by(2) {
        crash_and_judge_with(
            CommitPolicy::Force,
            FaultPlan {
                fail_after_writes: Some(k),
                tear_offset: Some(1 + (k as usize * 37) % (PAGE - 1)),
                ..FaultPlan::default()
            },
            &format!("batch-force/log-torn@{k}"),
            true,
        );
    }
}

/// E10 satellite: batched commits under Group(2) — a batch counts as one
/// commit toward the group quota, and failing barriers must not break
/// batch atomicity.
#[test]
fn batch_crash_sweep_group_clean_and_sync_fail() {
    let group = CommitPolicy::Group { group_size: 2 };
    for k in (1..60).step_by(2) {
        crash_and_judge_with(
            group,
            FaultPlan {
                fail_after_writes: Some(k),
                ..FaultPlan::default()
            },
            &format!("batch-group2/log-clean@{k}"),
            true,
        );
    }
    for s in 0..8 {
        crash_and_judge_with(
            group,
            FaultPlan {
                fail_after_syncs: Some(s),
                ..FaultPlan::default()
            },
            &format!("batch-group2/log-sync-fail@{s}"),
            true,
        );
    }
}

/// E12 satellite: multi-writer crash points. Two writer threads run
/// transactions over txn-unique keys through cloned [`fame_dbms::DbWriter`]
/// handles and rendezvous at every commit, so a group-commit leader drains
/// a multi-transaction batch — and the armed fault lands *inside* that
/// drain (between the coalesced append, the protocol sync, and the
/// per-transaction finish). The judge enforces per-transaction atomicity
/// (each transaction's keys survive together or not at all) and the
/// policy's durability floor.
#[cfg(feature = "concurrency-multi-writer")]
mod multi_writer {
    use super::*;
    use fame_dbms::Concurrency;
    use std::sync::Barrier;

    const MT_WRITERS: usize = 2;
    const MT_TXNS: usize = 4; // per writer
    const MT_OPS: usize = 2;

    fn mt_config(commit: CommitPolicy) -> DbmsConfig {
        let mut cfg = config(commit);
        cfg.concurrency = Concurrency::MultiWriter { shards: 0 };
        cfg
    }

    fn mt_open(data: &Dev, log: &Dev, commit: CommitPolicy) -> Result<Database, DbmsError> {
        Database::open_with_devices(
            mt_config(commit),
            Box::new(data.clone()),
            Some(Box::new(log.clone()) as Box<dyn BlockDevice>),
        )
    }

    fn mt_key(t: usize, j: usize, i: usize) -> Vec<u8> {
        format!("t{t}-j{j}-i{i}").into_bytes()
    }

    fn mt_value(t: usize, j: usize, i: usize) -> Vec<u8> {
        format!("v{t}-{j}-{i}-{}", "z".repeat(1 + (t * 7 + j * 3 + i) % 13)).into_bytes()
    }

    /// One crash point: run the two-writer workload into the armed fault,
    /// crash, heal, reopen (recovery runs through the shared cells), and
    /// judge. `force` = every acknowledged commit is durable by protocol;
    /// under Group the floor is commits followed by a later sync.
    fn mt_crash_and_judge(commit: CommitPolicy, force: bool, plan: FaultPlan, label: &str) {
        let data = fresh_dev();
        let log = fresh_dev();
        log.with(|d| d.set_plan(plan));

        // (writer, txn, log syncs sampled after commit returned Ok)
        let mut committed: Vec<(usize, usize, u64)> = Vec::new();
        let final_syncs = match mt_open(&data, &log, commit) {
            Ok(db) => {
                let writer = db.writer().expect("MultiWriter configured");
                let barrier = Barrier::new(MT_WRITERS);
                let results: Vec<Vec<(usize, usize, u64)>> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..MT_WRITERS)
                        .map(|t| {
                            let w = writer.clone();
                            let barrier = &barrier;
                            let log = log.clone();
                            s.spawn(move || {
                                let mut mine = Vec::new();
                                // Every iteration reaches the barrier exactly
                                // once, failed or not — a writer that bailed
                                // early would strand its peer at the fence.
                                for j in 0..MT_TXNS {
                                    let txn = w.begin().ok();
                                    let staged = txn.is_some_and(|txn| {
                                        (0..MT_OPS).all(|i| {
                                            w.put(txn, &mt_key(t, j, i), &mt_value(t, j, i)).is_ok()
                                        })
                                    });
                                    // Rendezvous: both writers commit together,
                                    // so one leader drains both transactions and
                                    // the fault can trip inside the drain.
                                    barrier.wait();
                                    if staged && w.commit(txn.unwrap()).is_ok() {
                                        mine.push((t, j, log.with(|d| d.syncs_done())));
                                    }
                                }
                                mine
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                for r in results {
                    committed.extend(r);
                }
                let final_syncs = log.with(|d| d.syncs_done());
                // One power supply: trip both devices before Drop can flush.
                log.with(|d| d.trip_now());
                data.with(|d| d.trip_now());
                drop(db);
                final_syncs
            }
            Err(_) => {
                log.with(|d| d.trip_now());
                data.with(|d| d.trip_now());
                0
            }
        };

        data.with(|d| d.heal());
        log.with(|d| d.heal());

        let mut db = mt_open(&data, &log, commit).unwrap_or_else(|e| {
            panic!("{label}: reopen after crash failed: {e:?}");
        });
        let report = db.verify_integrity().expect("integrity check runs");
        assert!(report.is_ok(), "{label}: integrity violations: {report}");

        // Per-transaction atomicity: each transaction's keys survive
        // together (with the right bytes) or not at all.
        let mut survived = std::collections::BTreeSet::new();
        for t in 0..MT_WRITERS {
            for j in 0..MT_TXNS {
                let mut present = 0;
                for i in 0..MT_OPS {
                    if let Some(v) = db.get(&mt_key(t, j, i)).expect("post-recovery read") {
                        assert_eq!(
                            v,
                            mt_value(t, j, i),
                            "{label}: txn ({t},{j}) recovered a wrong value"
                        );
                        present += 1;
                    }
                }
                assert!(
                    present == 0 || present == MT_OPS,
                    "{label}: txn ({t},{j}) recovered {present}/{MT_OPS} keys — \
                     per-transaction atomicity broken"
                );
                if present == MT_OPS {
                    survived.insert((t, j));
                }
            }
        }

        // Durability floor. Force: an acknowledged commit synced inside its
        // own drain, so it must survive unconditionally. Group: the commit
        // record is on the media once *any* later sync succeeded.
        for &(t, j, syncs_after) in &committed {
            let must_survive = force || final_syncs > syncs_after;
            if must_survive {
                assert!(
                    survived.contains(&(t, j)),
                    "{label}: acknowledged txn ({t},{j}) lost after crash \
                     (durability broken)"
                );
            }
        }
    }

    /// Force commits, clean crash at every log write index: the fault
    /// sweeps through the coalesced `append_many` inside the drain.
    #[test]
    fn mt_crash_sweep_force_clean() {
        for k in 1..48 {
            mt_crash_and_judge(
                CommitPolicy::Force,
                true,
                FaultPlan {
                    fail_after_writes: Some(k),
                    ..FaultPlan::default()
                },
                &format!("mt-force/log-clean@{k}"),
            );
        }
    }

    /// Force commits with a torn final log write: the tear can split a
    /// drained batch's commit records across the page boundary.
    #[test]
    fn mt_crash_sweep_force_torn() {
        for k in (1..48).step_by(2) {
            mt_crash_and_judge(
                CommitPolicy::Force,
                true,
                FaultPlan {
                    fail_after_writes: Some(k),
                    tear_offset: Some(1 + (k as usize * 37) % (PAGE - 1)),
                    ..FaultPlan::default()
                },
                &format!("mt-force/log-torn@{k}"),
            );
        }
    }

    /// Group(2) commits: clean crashes through the drain plus failing
    /// protocol syncs (the leader's sync errors; every transaction in the
    /// batch must stay atomic and unacknowledged work may vanish).
    #[test]
    fn mt_crash_sweep_group_clean_and_sync_fail() {
        let group = CommitPolicy::Group { group_size: 2 };
        for k in (1..48).step_by(2) {
            mt_crash_and_judge(
                group,
                false,
                FaultPlan {
                    fail_after_writes: Some(k),
                    ..FaultPlan::default()
                },
                &format!("mt-group2/log-clean@{k}"),
            );
        }
        for s in 0..8 {
            mt_crash_and_judge(
                group,
                false,
                FaultPlan {
                    fail_after_syncs: Some(s),
                    ..FaultPlan::default()
                },
                &format!("mt-group2/log-sync-fail@{s}"),
            );
        }
    }
}

/// Bounded sweep, Group(2) commits: crash at every 4th log write and at
/// every failing barrier.
#[test]
fn crash_sweep_group_clean_and_sync_fail() {
    let group = CommitPolicy::Group { group_size: 2 };
    for k in (1..200).step_by(4) {
        crash_and_judge(
            group,
            FaultPlan {
                fail_after_writes: Some(k),
                ..FaultPlan::default()
            },
            &format!("group2/log-clean@{k}"),
        );
    }
    for s in 0..12 {
        crash_and_judge(
            group,
            FaultPlan {
                fail_after_syncs: Some(s),
                ..FaultPlan::default()
            },
            &format!("group2/log-sync-fail@{s}"),
        );
    }
}

/// The WAL rule with a buffered log tail: a log record reaches the log
/// device before the data page it describes reaches the data device —
/// `fame_os::OrderedDevice` in front of the data device writes the pending
/// tail ahead of every page write. Both devices are write-through here
/// (every accepted write is on the media) and the pool has a handful of
/// frames, so the page a `txn_put` dirtied is evicted — an uncommitted
/// value on the media — before the commit that never comes. Recovery can
/// undo the put only if its record got to the log device first. Without
/// the barrier call in `OrderedDevice::write_page` this test fails: the
/// record dies in memory and the uncommitted value survives the reopen.
/// Both pools are covered (transactions cannot be composed with the
/// unbuffered pager: `DbmsConfig::check`).
#[test]
fn a_data_page_never_outruns_the_log_record_that_describes_it() {
    const ROWS: u32 = 64;
    let row = |i: u32| format!("row-{i:03}").into_bytes();
    let committed = |i: u32| format!("committed-{i:03}-{}", "c".repeat(40)).into_bytes();

    let mut pools = vec![("exclusive pool", config(CommitPolicy::Force))];
    #[cfg(feature = "concurrency-multi")]
    pools.push(("shared pool", {
        let mut cfg = config(CommitPolicy::Force);
        cfg.concurrency = fame_dbms::Concurrency::MultiReader { shards: 1 };
        cfg
    }));
    for (label, mut cfg) in pools {
        cfg.buffer.as_mut().expect("buffered").frames = 4;
        let write_through = || {
            SharedDevice::new(FaultDevice::new(
                InMemoryDevice::new(PAGE),
                FaultPlan::default(),
            ))
        };
        let (data, log) = (write_through(), write_through());
        let open = || {
            Database::open_with_devices(
                cfg.clone(),
                Box::new(data.clone()),
                Some(Box::new(log.clone()) as Box<dyn BlockDevice>),
            )
        };

        // Several leaves of committed rows, all of them on the media, and
        // a reopen: recovery seals the log with a checkpoint, so the next
        // one redoes none of this and cannot paper over a missing undo.
        // (It also restarts the id sequence — see the test below.)
        let mut db = open().expect("open");
        let t = db.begin().unwrap();
        for i in 0..ROWS {
            db.txn_put(t, &row(i), &committed(i)).unwrap();
        }
        db.commit(t).unwrap();
        db.sync().unwrap();
        drop(db);
        let mut db = open().expect("reopen");

        // One uncommitted overwrite, then reads of every other leaf: the
        // dirty page leaves memory.
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
        log.with(|d| d.trip_now());
        data.with(|d| d.trip_now());
        drop(db);
        data.with(|d| d.heal());
        log.with(|d| d.heal());

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

/// Transaction ids keep rising across a reopen. Recovery classifies by id
/// over the whole log, so were the sequence to restart at 1, the
/// uncommitted transaction below would inherit the `Commit` of the first
/// session's transaction 1 and be redone instead of undone.
#[test]
fn a_reopened_log_never_reuses_a_transaction_id() {
    let (data, log) = (fresh_dev(), fresh_dev());
    let mut db = open(&data, &log, CommitPolicy::Force).expect("open");
    let t = db.begin().unwrap();
    db.txn_put(t, b"k", b"committed").unwrap();
    db.commit(t).unwrap();
    db.sync().unwrap();
    drop(db);

    let mut db = open(&data, &log, CommitPolicy::Force).expect("reopen");
    let t2 = db.begin().unwrap();
    assert!(
        t2.id() > t.id(),
        "ids continue: {} after {}",
        t2.id(),
        t.id()
    );
    db.txn_put(t2, b"k", b"uncommitted").unwrap();
    db.sync().unwrap(); // log and data both durable, the commit never comes
    log.with(|d| d.trip_now());
    data.with(|d| d.trip_now());
    drop(db);
    data.with(|d| d.heal());
    log.with(|d| d.heal());

    let mut db = open(&data, &log, CommitPolicy::Force).expect("reopen after crash");
    assert_eq!(db.get(b"k").unwrap(), Some(b"committed".to_vec()));
}
