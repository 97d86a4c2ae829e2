//! The single-writer locking protocol: a caller locks a key no-wait
//! (`lock_read`/`lock_write`), then logs; commit releases, and after an
//! abort the caller releases once its undo is applied.
#![cfg(feature = "commit-force")]

use fame_os::InMemoryDevice;
use fame_txn::{CommitPolicy, LogWriter, TxnError, TxnManager};

fn manager() -> TxnManager {
    let log = LogWriter::new(Box::new(InMemoryDevice::new(128)), 0).unwrap();
    TxnManager::new(log, CommitPolicy::Force)
}

#[test]
fn abort_keeps_locks_until_the_caller_releases() {
    let mut m = manager();
    let t1 = m.begin().unwrap();
    m.lock_write(t1, b"k").unwrap();
    m.log_put(t1, 0, b"k", None, b"v").unwrap();
    let t2 = m.begin().unwrap();
    m.abort(t1).unwrap();
    assert!(
        matches!(m.lock_write(t2, b"k"), Err(TxnError::Conflict(_))),
        "the undo is not applied yet: the lock must still be held"
    );
    m.release_locks(t1);
    m.lock_write(t2, b"k").unwrap();
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "write logged without its exclusive lock")]
fn log_put_without_the_lock_is_caught_in_test_builds() {
    let mut m = manager();
    let t = m.begin().unwrap();
    let _ = m.log_put(t, 0, b"k", None, b"v");
}

#[test]
fn write_set_is_distinct_keys_in_first_write_order() {
    let mut m = manager();
    let t = m.begin().unwrap();
    for (key, old) in [(b"b", None), (b"a", None), (b"b", Some(b"1".to_vec()))] {
        m.lock_write(t, key).unwrap();
        m.log_put(t, 0, key, old, b"2").unwrap();
    }
    m.log_remove(t, 0, b"a", b"2".to_vec()).unwrap();
    assert_eq!(m.write_set(t).unwrap(), vec![b"b".to_vec(), b"a".to_vec()]);
    m.commit(t).unwrap();
    assert!(matches!(m.write_set(t), Err(TxnError::UnknownTxn(_))));
}
