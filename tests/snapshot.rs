//! Integration: the Snapshot concurrency feature (*Buffer Manager →
//! Concurrency → MultiWriter → Snapshot* in the extended Figure 2 model).
//!
//! Covers the MVCC-lite contracts: snapshots are wait-free (they read
//! committed state while writers hold X locks), transactionally atomic
//! and prefix-consistent under concurrent writers (property test),
//! version chains prune eagerly down to what live snapshots need, a
//! too-small chain cap strands stragglers with an explicit error, and
//! `commit_with_retry` serializes contended read-modify-write cycles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::{Concurrency, Database, DbmsConfig, TxnConfig};
use proptest::prelude::*;

fn snap_config(policy: CommitPolicy) -> DbmsConfig {
    let mut cfg = DbmsConfig::in_memory();
    cfg.concurrency = Concurrency::MultiWriter { shards: 0 };
    cfg.transactions = Some(TxnConfig { commit: policy });
    cfg
}

/// A snapshot taken while a writer holds an uncommitted X lock reads the
/// committed pre-state immediately — no lock-table interaction — and
/// stays pinned to it after the writer commits.
#[test]
fn snapshots_read_through_uncommitted_locks() {
    let db = Database::open(snap_config(CommitPolicy::Force)).unwrap();
    let w = db.writer().unwrap();

    let init = w.begin().unwrap();
    w.put(init, b"key", b"committed").unwrap();
    w.commit(init).unwrap();

    // X lock held, page dirtied, nothing committed.
    let txn = w.begin().unwrap();
    w.put(txn, b"key", b"uncommitted").unwrap();

    let mut snap = db.snapshot().unwrap();
    assert_eq!(
        snap.get(b"key").unwrap().as_deref(),
        Some(b"committed".as_slice()),
        "snapshot blocked on or observed an uncommitted write"
    );

    w.commit(txn).unwrap();
    // Still pinned to its timestamp after the commit.
    assert_eq!(
        snap.get(b"key").unwrap().as_deref(),
        Some(b"committed".as_slice())
    );
    // A fresh snapshot observes the newly committed state.
    let mut now = db.snapshot().unwrap();
    assert!(now.ts() > snap.ts());
    assert_eq!(
        now.get(b"key").unwrap().as_deref(),
        Some(b"uncommitted".as_slice())
    );
    assert!(now.contains(b"key").unwrap());
}

/// Aborted transactions never leak into snapshots: a snapshot taken
/// while the doomed transaction's writes sit in the head frame reads the
/// pre-state, and one taken after the rollback does too.
#[test]
fn aborted_writes_stay_invisible_to_snapshots() {
    let db = Database::open(snap_config(CommitPolicy::Force)).unwrap();
    let w = db.writer().unwrap();

    let init = w.begin().unwrap();
    w.put(init, b"k", b"v0").unwrap();
    w.commit(init).unwrap();

    let txn = w.begin().unwrap();
    w.put(txn, b"k", b"doomed").unwrap();
    let mut during = db.snapshot().unwrap();
    assert_eq!(during.get(b"k").unwrap().as_deref(), Some(b"v0".as_slice()));
    w.abort(txn).unwrap();

    assert_eq!(during.get(b"k").unwrap().as_deref(), Some(b"v0".as_slice()));
    let mut after = db.snapshot().unwrap();
    assert_eq!(after.get(b"k").unwrap().as_deref(), Some(b"v0".as_slice()));
}

/// The facade's own transactions (`Database::begin`/`txn_put`/
/// `txn_remove`) run the same tagged-write protocol as `DbWriter`: a
/// snapshot taken while one is open reads the committed pre-state, stays
/// pinned to it after `commit`, and reads the pre-state again after
/// `abort`.
#[test]
fn facade_transactions_stay_invisible_to_snapshots() {
    let mut db = Database::open(snap_config(CommitPolicy::Force)).unwrap();
    let init = db.begin().unwrap();
    db.txn_put(init, b"k", b"committed").unwrap();
    db.txn_put(init, b"gone", b"committed").unwrap();
    db.commit(init).unwrap();
    let pre_state = |snap: &mut fame_dbms::DbSnapshot, when: &str| {
        for key in [b"k".as_slice(), b"gone"] {
            assert_eq!(
                snap.get(key).unwrap().as_deref(),
                Some(b"committed".as_slice()),
                "snapshot {when} observed a facade write"
            );
        }
    };

    let txn = db.begin().unwrap();
    db.txn_put(txn, b"k", b"uncommitted").unwrap();
    assert!(db.txn_remove(txn, b"gone").unwrap());
    let mut during = db.snapshot().unwrap();
    pre_state(&mut during, "of an open transaction");
    db.commit(txn).unwrap();
    pre_state(&mut during, "pinned before the commit");
    let mut now = db.snapshot().unwrap();
    assert_eq!(
        now.get(b"k").unwrap().as_deref(),
        Some(b"uncommitted".as_slice())
    );
    assert!(!now.contains(b"gone").unwrap());

    let txn = db.begin().unwrap();
    db.txn_put(txn, b"k", b"doomed").unwrap();
    db.txn_put(txn, b"gone", b"doomed").unwrap();
    db.abort(txn).unwrap();
    let mut after = db.snapshot().unwrap();
    assert_eq!(
        after.get(b"k").unwrap().as_deref(),
        Some(b"uncommitted".as_slice())
    );
    assert!(!after.contains(b"gone").unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Snapshot-isolation equivalence: writers over disjoint stripes,
    /// each transaction rewriting its *whole* stripe to one value, while
    /// snapshot threads read concurrently. Every snapshot must observe,
    /// per stripe, (a) all keys equal — transactions are atomic units —
    /// and (b) values non-decreasing across successive snapshots — the
    /// observed states form a prefix-consistent chain of the commit
    /// order. The final snapshot must equal the serial oracle.
    #[test]
    fn interleaved_snapshots_observe_prefix_consistent_states(
        writers in 2usize..=3,
        txns in 4u32..16,
        stripe_keys in 2usize..=4,
        group in any::<bool>(),
    ) {
        let policy = if group {
            CommitPolicy::Group { group_size: 3 }
        } else {
            CommitPolicy::Force
        };
        let db = Database::open(snap_config(policy)).unwrap();
        let writer = db.writer().unwrap();

        // Seed every stripe at value 0 so snapshots always find the keys.
        for t in 0..writers {
            let txn = writer.begin().unwrap();
            for k in 0..stripe_keys {
                writer.put(txn, &[t as u8, k as u8], &[0; 8]).unwrap();
            }
            writer.commit(txn).unwrap();
        }

        std::thread::scope(|s| {
            for t in 0..writers {
                let w = writer.clone();
                s.spawn(move || {
                    for v in 1..=txns {
                        let txn = w.begin().unwrap();
                        let committed = w.commit_with_retry(txn, 100, |w, txn| {
                            for k in 0..stripe_keys {
                                w.put(txn, &[t as u8, k as u8], &[v as u8; 8])?;
                            }
                            Ok(())
                        });
                        committed.expect("disjoint stripes never conflict");
                    }
                });
            }
            for _ in 0..2 {
                let mut snap = db.snapshot().unwrap();
                s.spawn(move || {
                    let mut floor = vec![0u8; writers];
                    for _ in 0..40 {
                        snap.refresh();
                        for (t, low) in floor.iter_mut().enumerate() {
                            let first = snap
                                .get(&[t as u8, 0])
                                .unwrap()
                                .expect("seeded key missing in snapshot");
                            for k in 1..stripe_keys {
                                let got = snap.get(&[t as u8, k as u8]).unwrap().unwrap();
                                assert_eq!(
                                    got, first,
                                    "snapshot tore a transaction on stripe {t}"
                                );
                            }
                            assert!(
                                first[0] >= *low,
                                "stripe {t} went backwards: {} < {}",
                                first[0], *low
                            );
                            *low = first[0];
                        }
                    }
                });
            }
        });

        // Serial oracle: each stripe ends at its writer's last value.
        let mut expected: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for t in 0..writers {
            for k in 0..stripe_keys {
                expected.insert(vec![t as u8, k as u8], vec![txns as u8; 8]);
            }
        }
        let mut fin = db.snapshot().unwrap();
        for (key, want) in &expected {
            let got = fin.get(key).unwrap();
            prop_assert_eq!(got.as_deref(), Some(want.as_slice()));
        }
    }
}

/// Eager pruning: a straggler snapshot keeps exactly the version it
/// needs alive across many commits to a hot page (the chain never grows
/// toward the commit count), and dropping the straggler reclaims every
/// chain entry.
#[cfg(feature = "statistics")]
#[test]
fn chains_prune_once_straggler_drops() {
    const COMMITS: u32 = 24;
    let mut db = Database::open(snap_config(CommitPolicy::Force)).unwrap();
    let cap = db.config().snapshot_chain_cap as u64;
    let w = db.writer().unwrap();

    let init = w.begin().unwrap();
    w.put(init, b"hot", &0u32.to_be_bytes()).unwrap();
    w.commit(init).unwrap();

    let mut straggler = db.snapshot().unwrap();
    for v in 1..=COMMITS {
        let txn = w.begin().unwrap();
        w.put(txn, b"hot", &v.to_be_bytes()).unwrap();
        w.commit(txn).unwrap();
    }

    // The straggler still resolves its pinned version...
    let got = straggler.get(b"hot").unwrap().unwrap();
    assert_eq!(u32::from_be_bytes(got.try_into().unwrap()), 0);
    // ...while pruning kept the chain far below the commit count.
    let v = db.stats().unwrap().versions.expect("shared pool");
    assert!(
        v.chain_max <= cap,
        "chain high-water {} > cap {cap}",
        v.chain_max
    );
    assert!(v.pruned > 0, "no versions were ever reclaimed");
    assert_eq!(v.active, 1);
    assert!(
        v.live_entries >= 1,
        "straggler's version was reclaimed early"
    );

    drop(straggler);
    let v = db.stats().unwrap().versions.unwrap();
    assert_eq!(v.active, 0);
    assert_eq!(
        v.live_entries, 0,
        "chain entries survived the last snapshot"
    );

    let tsv = db.stats().unwrap().to_tsv();
    assert!(tsv.contains("snapshot.chain_max\t"), "{tsv}");
    assert!(tsv.contains("snapshot.active\t0"), "{tsv}");
}

/// A chain cap of 1 strands a snapshot held across multiple commits to
/// the same page: its lookups fail with an explicit "too old" error
/// instead of returning a wrong version.
#[test]
fn capped_chain_strands_too_old_snapshot() {
    let mut cfg = snap_config(CommitPolicy::Force);
    cfg.snapshot_chain_cap = 1;
    let db = Database::open(cfg).unwrap();
    let w = db.writer().unwrap();

    let init = w.begin().unwrap();
    w.put(init, b"hot", b"v0").unwrap();
    w.commit(init).unwrap();

    let mut straggler = db.snapshot().unwrap();
    for v in 1..=4u8 {
        let txn = w.begin().unwrap();
        w.put(txn, b"hot", &[v]).unwrap();
        w.commit(txn).unwrap();
    }

    let err = straggler.get(b"hot").unwrap_err();
    assert!(err.to_string().contains("too old"), "{err}");

    // Fresh snapshots are unaffected by the stranding.
    let mut now = db.snapshot().unwrap();
    assert_eq!(now.get(b"hot").unwrap().as_deref(), Some(&[4u8][..]));
}

/// `commit_with_retry` under genuine contention: concurrent
/// read-modify-write increments serialize through retries and the final
/// count is exact. Two snapshot readers run beside the writers: every get
/// finds the counter, successive pins never go backwards, and once the
/// handles drop the version registries are empty.
#[test]
fn commit_with_retry_serializes_contended_rmw() {
    const WRITERS: usize = 4;
    const INCREMENTS: u64 = 48;
    let mut db = Database::open(snap_config(CommitPolicy::Group { group_size: 4 })).unwrap();
    let writer = db.writer().unwrap();
    {
        let txn = writer.begin().unwrap();
        writer.put(txn, b"counter", &0u64.to_be_bytes()).unwrap();
        writer.commit(txn).unwrap();
    }

    // Counts a writer as done even when it panics, so that the readers
    // polling the count end with a failed run instead of spinning on it.
    struct Done<'a>(&'a AtomicUsize);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Release);
        }
    }
    let writers_done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            let (w, done) = (writer.clone(), Done(&writers_done));
            s.spawn(move || {
                let _done = done;
                for _ in 0..INCREMENTS {
                    let txn = w.begin().unwrap();
                    w.commit_with_retry(txn, 1_000, |w, txn| {
                        let cur = w.get(txn, b"counter")?.unwrap();
                        let n = u64::from_be_bytes(cur.try_into().unwrap()) + 1;
                        w.put(txn, b"counter", &n.to_be_bytes())
                    })
                    .expect("increment starved");
                }
            });
        }
        for _ in 0..2 {
            let (mut snap, writers_done) = (db.snapshot().unwrap(), &writers_done);
            s.spawn(move || {
                let mut floor = 0;
                loop {
                    snap.refresh();
                    match snap.get(b"counter") {
                        Ok(got) => {
                            let got = got.expect("snapshot get missed the seeded counter");
                            let n = u64::from_be_bytes(got.try_into().unwrap());
                            assert!(n >= floor, "counter went backwards: {n} < {floor}");
                            floor = n;
                        }
                        // Stranded by the chain cap: re-pin and carry on.
                        Err(e) => assert!(e.to_string().contains("too old"), "{e}"),
                    }
                    if writers_done.load(Ordering::Acquire) == WRITERS {
                        break;
                    }
                }
            });
        }
    });

    let total = (WRITERS as u64 * INCREMENTS).to_be_bytes();
    let mut fin = db.snapshot().unwrap();
    assert_eq!(
        fin.get(b"counter").unwrap().as_deref(),
        Some(&total[..]),
        "lost update through commit_with_retry"
    );

    // Snapshot reads stay out of the lock table: with the counter's X lock
    // held by an open transaction, reading it moves no lock counter.
    #[cfg(feature = "statistics")]
    {
        let lock_counters = |db: &mut Database| {
            let l = db.stats().unwrap().locks.expect("MultiWriter lock stats");
            (l.waits, l.deadlock_aborts, l.timeout_aborts)
        };
        let txn = writer.begin().unwrap();
        writer.put(txn, b"counter", b"uncommitted").unwrap();
        let before = lock_counters(&mut db);
        for _ in 0..64 {
            fin.refresh();
            assert_eq!(fin.get(b"counter").unwrap().as_deref(), Some(&total[..]));
        }
        assert_eq!(lock_counters(&mut db), before, "a snapshot read waited");
        writer.abort(txn).unwrap();

        drop(fin);
        let v = db.stats().unwrap().versions.expect("shared pool");
        let cap = db.config().snapshot_chain_cap as u64;
        assert!(v.chain_max <= cap, "chain {} > cap {cap}", v.chain_max);
        assert_eq!((v.active, v.live_entries), (0, 0), "a registry leaked");
    }
    let report = db.verify_integrity().unwrap();
    assert!(report.is_ok(), "{report}");
}

/// Products without the runtime MultiWriter alternative refuse to hand
/// out snapshots, with an explanation.
#[test]
fn single_product_exposes_no_snapshot() {
    let db = Database::open(DbmsConfig::in_memory()).unwrap();
    let Err(err) = db.snapshot() else {
        panic!("Single product must not hand out snapshots");
    };
    assert!(err.to_string().contains("MultiWriter"), "{err}");

    let mut cfg = snap_config(CommitPolicy::Force);
    cfg.snapshot_chain_cap = 0;
    assert!(
        Database::open(cfg).is_err(),
        "zero chain cap must be rejected at open"
    );
}
