//! Integration: replication across the full stack — log shipping from a
//! live database to replicas, convergence, and interplay with
//! transactions.

use fame_dbms::fame_repl::AckPolicy;
use fame_dbms::{Database, DbmsConfig, TxnConfig};

fn replicated_db(policy: AckPolicy) -> Database {
    let mut cfg = DbmsConfig::in_memory();
    cfg.replication = Some(policy);
    Database::open(cfg).unwrap()
}

#[test]
fn replica_converges_to_primary_digest() {
    let mut db = replicated_db(AckPolicy::Asynchronous);
    let mut replica = db.attach_replica().unwrap();

    for i in 0u32..300 {
        db.put(&i.to_be_bytes(), &[i as u8; 12]).unwrap();
    }
    for i in (0u32..300).step_by(3) {
        db.remove(&i.to_be_bytes()).unwrap();
    }
    db.update(&1u32.to_be_bytes(), b"updated").unwrap();

    replica.poll();
    assert_eq!(replica.state().len(), db.len().unwrap());
    assert_eq!(replica.state().digest(), db.state_digest().unwrap());
    assert_eq!(
        replica.state().get(0, &1u32.to_be_bytes()),
        Some(&b"updated".to_vec())
    );
}

#[test]
fn multiple_replicas_agree() {
    let mut db = replicated_db(AckPolicy::Asynchronous);
    let mut r1 = db.attach_replica().unwrap();
    let mut r2 = db.attach_replica().unwrap();
    let mut r3 = db.attach_replica().unwrap();

    for i in 0u32..100 {
        db.put(&i.to_be_bytes(), b"x").unwrap();
    }
    r1.poll();
    r2.poll();
    r3.poll();
    let d = r1.state().digest();
    assert_eq!(d, r2.state().digest());
    assert_eq!(d, r3.state().digest());
    assert_eq!(d, db.state_digest().unwrap());
}

#[test]
fn lag_is_visible_and_clears() {
    let mut db = replicated_db(AckPolicy::Asynchronous);
    let mut replica = db.attach_replica().unwrap();
    for i in 0u32..50 {
        db.put(&i.to_be_bytes(), b"v").unwrap();
    }
    assert_eq!(db.replication_lag(), Some(50));
    replica.poll();
    assert_eq!(db.replication_lag(), Some(0));
}

#[test]
fn synchronous_policy_with_threaded_replica() {
    let mut db = replicated_db(AckPolicy::Synchronous);
    let replica = db.attach_replica().unwrap();
    let handle = replica.spawn();

    for i in 0u32..100 {
        db.put(&i.to_be_bytes(), &[1u8; 8]).unwrap();
    }
    // Synchronous shipping: zero lag by the time put() returns.
    assert_eq!(db.replication_lag(), Some(0));
    assert_eq!(handle.snapshot().len(), 100);
    drop(db); // closes the channel; the replica loop exits
    let final_state = handle.join();
    assert_eq!(final_state.len(), 100);
}

#[test]
fn only_committed_transactions_replicate() {
    let mut cfg = DbmsConfig::in_memory();
    cfg.replication = Some(AckPolicy::Asynchronous);
    cfg.transactions = Some(TxnConfig {
        commit: fame_dbms::fame_txn::CommitPolicy::Force,
    });
    let mut db = Database::open(cfg).unwrap();
    let mut replica = db.attach_replica().unwrap();

    let t1 = db.begin().unwrap();
    db.txn_put(t1, b"committed", b"1").unwrap();
    db.commit(t1).unwrap();

    let t2 = db.begin().unwrap();
    db.txn_put(t2, b"aborted", b"2").unwrap();
    db.abort(t2).unwrap();

    let t3 = db.begin().unwrap();
    db.txn_put(t3, b"in-flight", b"3").unwrap();
    // neither committed nor aborted

    replica.poll();
    assert_eq!(replica.state().get(0, b"committed"), Some(&b"1".to_vec()));
    assert_eq!(replica.state().get(0, b"aborted"), None);
    assert_eq!(
        replica.state().get(0, b"in-flight"),
        None,
        "effects ship at commit, not at write"
    );
}

/// A committed transaction ships its net effect once per distinct key, in
/// first-write order, read back from the index after the commit; an
/// aborted one ships nothing.
#[test]
fn multi_write_transaction_ships_once_per_key() {
    let mut cfg = DbmsConfig::in_memory();
    cfg.replication = Some(AckPolicy::Asynchronous);
    cfg.transactions = Some(TxnConfig {
        commit: fame_dbms::fame_txn::CommitPolicy::Force,
    });
    let mut db = Database::open(cfg).unwrap();
    let mut replica = db.attach_replica().unwrap();
    db.put(b"gone", b"0").unwrap();
    replica.poll();
    let seq = replica.state().applied_seq;

    let t = db.begin().unwrap();
    db.txn_put(t, b"twice", b"1").unwrap();
    db.txn_put(t, b"twice", b"2").unwrap();
    assert!(db.txn_remove(t, b"gone").unwrap());
    db.txn_put(t, b"brief", b"x").unwrap();
    assert!(db.txn_remove(t, b"brief").unwrap());
    db.commit(t).unwrap();
    assert_eq!(db.replication_lag(), Some(3), "one op per distinct key");
    replica.poll();
    assert_eq!(replica.state().applied_seq, seq + 3);
    assert_eq!(replica.state().digest(), db.state_digest().unwrap());
    assert_eq!(replica.state().get(0, b"twice"), Some(&b"2".to_vec()));
    assert_eq!(replica.state().get(0, b"gone"), None);

    let t = db.begin().unwrap();
    db.txn_put(t, b"twice", b"3").unwrap();
    db.txn_put(t, b"new", b"y").unwrap();
    db.abort(t).unwrap();
    assert_eq!(db.replication_lag(), Some(0), "an abort ships nothing");
    replica.poll();
    assert_eq!(replica.state().applied_seq, seq + 3);
    assert_eq!(replica.state().digest(), db.state_digest().unwrap());
}

#[test]
fn replication_of_interleaved_ops_preserves_order() {
    let mut db = replicated_db(AckPolicy::Asynchronous);
    let mut replica = db.attach_replica().unwrap();
    db.put(b"k", b"v1").unwrap();
    db.put(b"k", b"v2").unwrap();
    db.remove(b"k").unwrap();
    db.put(b"k", b"v3").unwrap();
    replica.poll();
    assert_eq!(replica.state().get(0, b"k"), Some(&b"v3".to_vec()));
    assert_eq!(replica.state().applied_seq, 4);
}
