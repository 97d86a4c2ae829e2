//! Integration: the MultiWriter concurrency feature (*Buffer Manager →
//! Concurrency* in the extended Figure 2 model).
//!
//! Covers the contracts of the concurrent write path: transactions over
//! disjoint keys are equivalent to *some* serial execution (property
//! test), contended read-modify-write cycles serialize through the S/X
//! block locks (upgrade deadlocks are aborted and retried, never lost
//! updates), aborts stay atomic under concurrency, and products without
//! the runtime `MultiWriter` alternative behave exactly like the
//! sequential seed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use fame_dbms::fame_txn::{CommitPolicy, TxnError};
use fame_dbms::{Concurrency, Database, DbWriter, DbmsConfig, DbmsError, TxnConfig};
use proptest::prelude::*;

fn mw_config(policy: CommitPolicy) -> DbmsConfig {
    let mut cfg = DbmsConfig::in_memory();
    cfg.concurrency = Concurrency::MultiWriter { shards: 0 };
    cfg.transactions = Some(TxnConfig { commit: policy });
    cfg
}

/// Retry a transactional closure until it commits; lock failures
/// (deadlock victim, timeout) abort and rerun it. Returns retry count.
fn with_retry(w: &DbWriter, mut body: impl FnMut(&DbWriter, fame_dbms::TxnHandle) -> bool) -> u32 {
    for attempt in 0..1_000 {
        let txn = w.begin().expect("begin");
        if body(w, txn) {
            w.commit(txn).expect("commit");
            return attempt;
        }
        w.abort(txn).expect("abort victim");
    }
    panic!("transaction starved after 1000 attempts");
}

#[derive(Clone, Debug)]
enum Op {
    Put(u8, u8),
    Remove(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8, any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        (0u8..8).prop_map(Op::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 2–4 writers, each running its op script over a private key stripe,
    /// chunked into transactions. Disjoint stripes mean every interleaving
    /// is equivalent to the serial execution of each script — the final
    /// state must equal applying each writer's script independently.
    #[test]
    fn disjoint_writers_match_serial_execution(
        scripts in prop::collection::vec(
            prop::collection::vec(op_strategy(), 1..24),
            2..=4,
        ),
        chunk in 1usize..4,
        group in any::<bool>(),
    ) {
        let policy = if group {
            CommitPolicy::Group { group_size: 3 }
        } else {
            CommitPolicy::Force
        };
        let mut db = Database::open(mw_config(policy)).unwrap();
        let writer = db.writer().unwrap();
        let retries = AtomicU32::new(0);

        std::thread::scope(|s| {
            for (t, script) in scripts.iter().enumerate() {
                let (w, retries) = (writer.clone(), &retries);
                s.spawn(move || {
                    for txn_ops in script.chunks(chunk) {
                        let again = with_retry(&w, |w, txn| {
                            for op in txn_ops {
                                let ok = match *op {
                                    Op::Put(k, v) => {
                                        w.put(txn, &[t as u8, k], &[v; 8]).is_ok()
                                    }
                                    Op::Remove(k) => w.remove(txn, &[t as u8, k]).is_ok(),
                                };
                                // Disjoint stripes: a lock failure here
                                // would be a lock-manager bug, not a
                                // legitimate conflict.
                                assert!(ok, "disjoint stripe hit a lock conflict");
                            }
                            true
                        });
                        retries.fetch_add(again, Relaxed);
                    }
                });
            }
        });
        // Disjoint stripes never conflict: no retry, and no transaction
        // aborted — every deadlock victim or timeout would be one.
        prop_assert_eq!((retries.into_inner(), writer.txn_stats().1), (0, 0));

        // Serial oracle: each script applied independently.
        let mut expected: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (t, script) in scripts.iter().enumerate() {
            for op in script {
                match *op {
                    Op::Put(k, v) => {
                        expected.insert(vec![t as u8, k], vec![v; 8]);
                    }
                    Op::Remove(k) => {
                        expected.remove(&vec![t as u8, k]);
                    }
                }
            }
        }
        let got: BTreeMap<Vec<u8>, Vec<u8>> =
            db.scan(None, None).unwrap().into_iter().collect();
        prop_assert_eq!(got, expected);
        let report = db.verify_integrity().unwrap();
        prop_assert!(report.is_ok(), "integrity: {}", report);
    }
}

/// Four writers increment one shared counter 64 times each through a
/// transactional read-modify-write (S lock, then S→X upgrade). Upgrade
/// deadlocks are expected — both S holders request X — and the victim
/// retries. Any lost update makes the final count wrong. The lock timeout
/// is far longer than the run, so a timeout abort can only be a cycle the
/// detector missed.
#[test]
fn contended_rmw_increments_serialize() {
    const WRITERS: usize = 4;
    const INCREMENTS: u64 = 64;
    let mut cfg = mw_config(CommitPolicy::Group { group_size: 4 });
    cfg.lock_timeout_ms = 30_000;
    let mut db = Database::open(cfg).unwrap();
    db.put(b"counter", &0u64.to_be_bytes()).unwrap();
    let writer = db.writer().unwrap();

    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            let w = writer.clone();
            s.spawn(move || {
                for _ in 0..INCREMENTS {
                    with_retry(&w, |w, txn| {
                        let Ok(Some(cur)) = w.get(txn, b"counter") else {
                            return false; // deadlock victim on the S lock
                        };
                        let n = u64::from_be_bytes(cur.try_into().unwrap()) + 1;
                        w.put(txn, b"counter", &n.to_be_bytes()).is_ok()
                    });
                }
            });
        }
    });

    let got = db.get(b"counter").unwrap().unwrap();
    assert_eq!(
        u64::from_be_bytes(got.try_into().unwrap()),
        WRITERS as u64 * INCREMENTS,
        "lost update: RMW cycles did not serialize"
    );
    let (committed, _) = writer.txn_stats();
    assert!(committed >= WRITERS as u64 * INCREMENTS);
    #[cfg(feature = "statistics")]
    assert_eq!(db.stats().unwrap().locks.unwrap().timeout_aborts, 0);
    // The slow mode this test once had (~2 min on a 2-core box) was a
    // run of lock timeouts: the detector flagged a waiter that was not on
    // the cycle, and the two upgraders on it waited each other out. No
    // aggregate bound on retries: victims here retry with no back-off, at
    // a rate the scheduler sets. Livelock is caught per transaction:
    // `with_retry` panics after 1 000 attempts.
}

/// Sync accounting of a lone writer, by count: under `Force` every commit
/// drains alone and syncs the log exactly once; under `Group { 4 }` a
/// drained batch of one counts one toward the quota, so at most every
/// fourth commit syncs.
#[test]
fn lone_writer_syncs_once_per_commit_or_once_per_quota() {
    const TXNS: u32 = 64;
    let syncs = |policy| {
        let db = Database::open(mw_config(policy)).unwrap();
        let w = db.writer().unwrap();
        let before = w.log_syncs();
        for n in 0..TXNS {
            let txn = w.begin().unwrap();
            for k in 0..4 {
                w.put(txn, &(n << 4 | k).to_be_bytes(), &[n as u8; 16])
                    .unwrap();
            }
            w.commit(txn).unwrap();
        }
        w.log_syncs() - before
    };
    assert_eq!(syncs(CommitPolicy::Force), u64::from(TXNS));
    assert!(syncs(CommitPolicy::Group { group_size: 4 }) <= u64::from(TXNS / 4));
}

/// Aborts stay atomic while other writers run: every odd transaction
/// aborts after writing, every even one commits, and only the committed
/// writes survive — regardless of interleaving.
#[test]
fn aborts_are_atomic_under_concurrency() {
    const WRITERS: usize = 3;
    const TXNS: u32 = 40;
    let mut db = Database::open(mw_config(CommitPolicy::Force)).unwrap();
    let writer = db.writer().unwrap();

    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let w = writer.clone();
            s.spawn(move || {
                for n in 0..TXNS {
                    let txn = w.begin().unwrap();
                    let key = [t as u8, (n >> 8) as u8, n as u8];
                    w.put(txn, &key, b"candidate").unwrap();
                    if n % 2 == 1 {
                        w.abort(txn).unwrap();
                    } else {
                        w.put(txn, &key, b"final").unwrap();
                        w.commit(txn).unwrap();
                    }
                }
            });
        }
    });

    for t in 0..WRITERS {
        for n in 0..TXNS {
            let key = [t as u8, (n >> 8) as u8, n as u8];
            let got = db.get(&key).unwrap();
            if n % 2 == 1 {
                assert_eq!(got, None, "aborted write for {key:?} survived");
            } else {
                assert_eq!(
                    got.as_deref(),
                    Some(b"final".as_slice()),
                    "committed write for {key:?} lost or torn"
                );
            }
        }
    }
    let report = db.verify_integrity().unwrap();
    assert!(report.is_ok(), "{report}");
}

/// Products whose runtime configuration keeps `Concurrency::Single` (or
/// `MultiReader`) must not hand out writers, and the sequential facade
/// must behave exactly like the seed — byte-for-byte identical state.
#[test]
fn single_product_exposes_no_writer_and_matches_seed() {
    let db = Database::open(DbmsConfig::in_memory()).unwrap();
    let Err(err) = db.writer() else {
        panic!("Single product must not hand out writers");
    };
    assert!(err.to_string().contains("MultiWriter"), "{err}");

    // Same workload, Single vs MultiWriter facade: the concurrency
    // feature changes the locking discipline, never the semantics.
    let run = |cfg: DbmsConfig| {
        let mut db = Database::open(cfg).unwrap();
        for i in 0..200u32 {
            db.put(&i.to_be_bytes(), &i.to_le_bytes().repeat(3))
                .unwrap();
        }
        for i in (0..200u32).step_by(3) {
            db.remove(&i.to_be_bytes()).unwrap();
        }
        db.update(&7u32.to_be_bytes(), b"updated").unwrap();
        (db.len().unwrap(), db.scan(None, None).unwrap())
    };
    let single = run(DbmsConfig::in_memory());
    let multi = run(mw_config(CommitPolicy::Force));
    assert_eq!(single, multi);
}

/// The facade transaction API rides the shared path in MultiWriter mode:
/// `begin`/`txn_put`/`commit` on `&mut Database` interoperate with
/// `DbWriter` handles on other threads against the same lock table.
#[test]
fn facade_txns_interoperate_with_writer_handles() {
    let mut db = Database::open(mw_config(CommitPolicy::Group { group_size: 2 })).unwrap();
    let writer = db.writer().unwrap();

    std::thread::scope(|s| {
        let w = writer.clone();
        s.spawn(move || {
            for n in 0u32..50 {
                with_retry(&w, |w, txn| w.put(txn, b"shared", &n.to_be_bytes()).is_ok());
            }
        });
        for n in 0u32..50 {
            let txn = db.begin().expect("facade begin");
            match db.txn_put(txn, b"shared", &n.to_be_bytes()) {
                Ok(()) => db.commit(txn).unwrap(),
                Err(_) => db.abort(txn).unwrap(), // deadlock victim: drop it
            }
        }
    });

    assert!(db.get(b"shared").unwrap().is_some());
    let report = db.verify_integrity().unwrap();
    assert!(report.is_ok(), "{report}");
}

/// `Database::apply_batch` locks its keys *before* it reads existence and
/// before-images. A writer inserts absent key `k` and keeps its X lock;
/// the batch's `update(k)` must wait for that lock and, once the writer
/// aborts, find `k` missing and reject the batch — a batch that read
/// first would take the uncommitted insert for the before-image and
/// create `k`. The delay before the abort only gives the batch time to
/// reach the lock: run after the abort instead, it sees the same
/// committed state, so the assertions hold either way.
#[cfg(feature = "api-batch")]
#[test]
fn apply_batch_locks_before_it_reads() {
    let mut db = Database::open(mw_config(CommitPolicy::Force)).unwrap();
    let w = db.writer().unwrap();
    let (locked_tx, locked_rx) = std::sync::mpsc::channel();

    std::thread::scope(|s| {
        s.spawn(move || {
            let txn = w.begin().unwrap();
            w.put(txn, b"k", b"uncommitted").unwrap();
            locked_tx.send(()).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(100));
            w.abort(txn).unwrap();
        });
        locked_rx.recv().unwrap();
        let mut batch = fame_dbms::WriteBatch::new();
        batch.put(b"other", b"1").update(b"k", b"v");
        let err = db
            .apply_batch(batch)
            .expect_err("batch acted on another writer's uncommitted insert");
        assert!(err.to_string().contains("update of a missing key"), "{err}");
    });

    assert_eq!(db.get(b"k").unwrap(), None, "rejected batch created k");
    assert_eq!(db.get(b"other").unwrap(), None, "all-or-nothing");
    // The rejected batch left no locks behind.
    let mut batch = fame_dbms::WriteBatch::new();
    batch.put(b"k", b"1").update(b"k", b"2");
    db.apply_batch(batch).unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"2".to_vec()));
    assert!(db.verify_integrity().unwrap().is_ok());
}

/// A product whose block-lock waits give up after 300 ms.
fn short_timeout_config() -> DbmsConfig {
    let mut cfg = mw_config(CommitPolicy::Force);
    cfg.lock_timeout_ms = 300;
    cfg
}

fn is_unknown_txn<T>(r: Result<T, DbmsError>) -> bool {
    matches!(r, Err(DbmsError::Txn(TxnError::UnknownTxn(_))))
}

/// A finished transaction's handle used again for a write must leave no
/// lock behind. Ids are never reused, so a block lock granted to one would
/// keep its key locked for good: the next writer would time out on it.
#[test]
fn a_dead_handle_put_leaves_no_lock_behind() {
    let mut db = Database::open(short_timeout_config()).unwrap();
    let w = db.writer().unwrap();
    let t = w.begin().unwrap();
    w.put(t, b"k", b"1").unwrap();
    w.commit(t).unwrap();
    // A read is the dead handle's first grant too: it must be refused.
    assert!(is_unknown_txn(w.get(t, b"k")));
    assert!(is_unknown_txn(w.put(t, b"k", b"2")));
    assert!(is_unknown_txn(w.abort(t)));
    let t2 = w.begin().unwrap();
    w.put(t2, b"k", b"3")
        .expect("the dead handle's put left k locked");
    w.commit(t2).unwrap();

    // The facade's own transactional API delegates to the same protocol.
    let t3 = db.begin().unwrap();
    db.commit(t3).unwrap();
    assert!(is_unknown_txn(db.txn_put(t3, b"k", b"4")));
    let t4 = w.begin().unwrap();
    w.put(t4, b"k", b"5")
        .expect("the facade's dead put left k locked");
    w.commit(t4).unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"5".to_vec()));
}

/// The same for a read: a dead handle's `get` must not keep an S lock.
#[test]
fn a_dead_handle_get_leaves_no_lock_behind() {
    let db = Database::open(short_timeout_config()).unwrap();
    let w = db.writer().unwrap();
    let t = w.begin().unwrap();
    w.put(t, b"k", b"1").unwrap();
    w.commit(t).unwrap();
    assert!(is_unknown_txn(w.get(t, b"k")));
    let t2 = w.begin().unwrap();
    w.put(t2, b"k", b"2")
        .expect("the dead handle's get left k locked");
    w.commit(t2).unwrap();
}

/// Config validation: `MultiWriter` without transactions (or with
/// replication) is rejected at open, with an explanation.
#[test]
fn multiwriter_config_requires_transactions() {
    let mut cfg = DbmsConfig::in_memory();
    cfg.concurrency = Concurrency::MultiWriter { shards: 0 };
    cfg.transactions = None;
    let Err(err) = Database::open(cfg) else {
        panic!("MultiWriter without transactions must be rejected");
    };
    assert!(err.to_string().contains("transactions"), "{err}");

    let mut cfg = mw_config(CommitPolicy::Force);
    cfg.concurrency = Concurrency::MultiWriter { shards: 3 };
    assert!(
        Database::open(cfg).is_err(),
        "non-power-of-two shard count must be rejected"
    );
}

/// Statistics feature: lock-wait counters surface in the stats snapshot
/// and its TSV rendering after a contended run.
#[cfg(feature = "statistics")]
#[test]
fn lock_stats_surface_in_snapshot() {
    let mut db = Database::open(mw_config(CommitPolicy::Force)).unwrap();
    db.put(b"hot", b"0").unwrap();
    let writer = db.writer().unwrap();

    std::thread::scope(|s| {
        for _ in 0..3 {
            let w = writer.clone();
            s.spawn(move || {
                for _ in 0..50 {
                    with_retry(&w, |w, txn| w.put(txn, b"hot", b"x").is_ok());
                }
            });
        }
    });

    let stats = db.stats().unwrap();
    let locks = stats
        .locks
        .as_ref()
        .expect("MultiWriter product records lock stats");
    let (committed, aborted) = db.txn_stats().unwrap();
    assert!(committed >= 150, "all transactions committed eventually");
    // Deadlock/timeout aborts all correspond to retried client attempts.
    assert!(aborted >= locks.deadlock_aborts + locks.timeout_aborts);
    let tsv = stats.to_tsv();
    assert!(
        tsv.contains("lock.waits\t"),
        "TSV misses lock.waits:\n{tsv}"
    );
    assert!(tsv.contains("lock.deadlock_aborts\t"), "{tsv}");
}
