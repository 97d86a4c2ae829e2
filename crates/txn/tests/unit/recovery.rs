//! `recovery::tests`: unit tests of `fame-txn`'s recovery, kept out of
//! `src/` and compiled into the library's test build by a `#[path]`
//! module in `src/recovery.rs` (`cargo test -p fame-txn --lib recovery`).

use super::*;
use crate::log::LogWriter;
use fame_os::InMemoryDevice;
use std::collections::BTreeMap;

/// A model store: one BTreeMap per index.
#[derive(Debug, Default, PartialEq, Eq)]
struct Mem {
    data: BTreeMap<(u8, Vec<u8>), Vec<u8>>,
}

impl RecoveryTarget for Mem {
    fn apply_put(&mut self, index: u8, key: &[u8], value: &[u8]) {
        self.data.insert((index, key.to_vec()), value.to_vec());
    }
    fn apply_remove(&mut self, index: u8, key: &[u8]) {
        self.data.remove(&(index, key.to_vec()));
    }
}

fn writer() -> LogWriter {
    LogWriter::new(Box::new(InMemoryDevice::new(128)), 0).unwrap()
}

#[test]
fn committed_work_is_redone() {
    let mut w = writer();
    w.append(&LogRecord::Begin { txn: 1 }).unwrap();
    w.append(&LogRecord::Put {
        txn: 1,
        index: 0,
        key: b"a".to_vec(),
        old: None,
        new: b"1".to_vec(),
    })
    .unwrap();
    w.append(&LogRecord::Commit { txn: 1 }).unwrap();

    let mut mem = Mem::default();
    let stats = recover(LogReader::new(w.into_device()), &mut mem).unwrap();
    assert_eq!(stats.winners, vec![1]);
    assert!(stats.losers.is_empty());
    assert_eq!(stats.redo_applied, 1);
    assert_eq!(mem.data.get(&(0, b"a".to_vec())), Some(&b"1".to_vec()));
}

#[test]
fn uncommitted_work_is_undone() {
    let mut w = writer();
    w.append(&LogRecord::Begin { txn: 1 }).unwrap();
    w.append(&LogRecord::Put {
        txn: 1,
        index: 0,
        key: b"a".to_vec(),
        old: Some(b"orig".to_vec()),
        new: b"dirty".to_vec(),
    })
    .unwrap();
    w.append(&LogRecord::Put {
        txn: 1,
        index: 0,
        key: b"b".to_vec(),
        old: None,
        new: b"new".to_vec(),
    })
    .unwrap();
    // Crash: no commit. Simulate the dirty state having reached disk.
    let mut mem = Mem::default();
    mem.apply_put(0, b"a", b"dirty");
    mem.apply_put(0, b"b", b"new");

    let stats = recover(LogReader::new(w.into_device()), &mut mem).unwrap();
    assert_eq!(stats.losers, vec![1]);
    assert_eq!(stats.undo_applied, 2);
    assert_eq!(mem.data.get(&(0, b"a".to_vec())), Some(&b"orig".to_vec()));
    assert_eq!(
        mem.data.get(&(0, b"b".to_vec())),
        None,
        "created key removed"
    );
}

#[test]
fn aborted_txn_is_not_undone_again() {
    // Online abort compensated in memory only; a page synced before the
    // abort may still hold the aborted write. Recovery re-applies the
    // compensation once, at the Abort, and does not undo it as a loser.
    let mut w = writer();
    w.append(&LogRecord::Begin { txn: 1 }).unwrap();
    w.append(&LogRecord::Put {
        txn: 1,
        index: 0,
        key: b"a".to_vec(),
        old: Some(b"orig".to_vec()),
        new: b"tmp".to_vec(),
    })
    .unwrap();
    w.append(&LogRecord::Abort { txn: 1 }).unwrap();

    let mut mem = Mem::default();
    mem.apply_put(0, b"a", b"tmp"); // the aborted write reached the store
    let stats = recover(LogReader::new(w.into_device()), &mut mem).unwrap();
    assert!(stats.losers.is_empty());
    assert_eq!(stats.undo_applied, 1);
    assert_eq!(mem.data.get(&(0, b"a".to_vec())), Some(&b"orig".to_vec()));
}

#[test]
fn commit_then_abort_means_aborted() {
    // A failed commit-sync leaves the Commit record in the log while the
    // txn stays active; a subsequent abort appends Abort. The abort is
    // authoritative: no redo, and one compensation, at the Abort.
    let mut w = writer();
    w.append(&LogRecord::Begin { txn: 1 }).unwrap();
    w.append(&LogRecord::Put {
        txn: 1,
        index: 0,
        key: b"a".to_vec(),
        old: Some(b"orig".to_vec()),
        new: b"tmp".to_vec(),
    })
    .unwrap();
    w.append(&LogRecord::Commit { txn: 1 }).unwrap();
    w.append(&LogRecord::Abort { txn: 1 }).unwrap();

    let mut mem = Mem::default();
    mem.apply_put(0, b"a", b"tmp"); // the aborted write reached the store
    let stats = recover(LogReader::new(w.into_device()), &mut mem).unwrap();
    assert!(stats.winners.is_empty(), "late Abort overrides Commit");
    assert!(stats.losers.is_empty());
    assert_eq!(stats.redo_applied, 0);
    assert_eq!(stats.undo_applied, 1);
    assert_eq!(mem.data.get(&(0, b"a".to_vec())), Some(&b"orig".to_vec()));
}

#[test]
fn recover_records_matches_recover() {
    let mut w = writer();
    w.append(&LogRecord::Begin { txn: 7 }).unwrap();
    w.append(&LogRecord::Put {
        txn: 7,
        index: 1,
        key: b"k".to_vec(),
        old: None,
        new: b"v".to_vec(),
    })
    .unwrap();
    w.append(&LogRecord::Commit { txn: 7 }).unwrap();

    let mut reader = LogReader::new(w.into_device());
    let (records, resume) = reader.read_all().unwrap();
    let mut a = Mem::default();
    let sa = recover_records(&records, resume, &mut a);
    let mut b = Mem::default();
    let sb = recover(LogReader::new(reader.into_device()), &mut b).unwrap();
    assert_eq!(sa, sb);
    assert_eq!(a, b);
}

#[test]
fn mixed_winners_and_losers() {
    let mut w = writer();
    for t in 1..=3u64 {
        w.append(&LogRecord::Begin { txn: t }).unwrap();
        w.append(&LogRecord::Put {
            txn: t,
            index: 0,
            key: format!("k{t}").into_bytes(),
            old: None,
            new: format!("v{t}").into_bytes(),
        })
        .unwrap();
    }
    w.append(&LogRecord::Commit { txn: 2 }).unwrap();

    let mut mem = Mem::default();
    // All three writes may have reached the store before the crash.
    for t in 1..=3u64 {
        mem.apply_put(0, format!("k{t}").as_bytes(), format!("v{t}").as_bytes());
    }
    let stats = recover(LogReader::new(w.into_device()), &mut mem).unwrap();
    assert_eq!(stats.winners, vec![2]);
    assert_eq!(stats.losers, vec![1, 3]);
    assert_eq!(mem.data.len(), 1);
    assert!(mem.data.contains_key(&(0, b"k2".to_vec())));
}

#[test]
fn redo_skips_before_checkpoint_but_undo_does_not() {
    let mut w = writer();
    // Winner before the checkpoint: already durable, no redo needed.
    w.append(&LogRecord::Begin { txn: 1 }).unwrap();
    w.append(&LogRecord::Put {
        txn: 1,
        index: 0,
        key: b"old-winner".to_vec(),
        old: None,
        new: b"x".to_vec(),
    })
    .unwrap();
    w.append(&LogRecord::Commit { txn: 1 }).unwrap();
    // Loser straddling the checkpoint.
    w.append(&LogRecord::Begin { txn: 2 }).unwrap();
    w.append(&LogRecord::Put {
        txn: 2,
        index: 0,
        key: b"l".to_vec(),
        old: Some(b"before".to_vec()),
        new: b"during".to_vec(),
    })
    .unwrap();
    w.append(&LogRecord::Checkpoint).unwrap();

    let mut mem = Mem::default();
    mem.apply_put(0, b"old-winner", b"x"); // durable per checkpoint
    mem.apply_put(0, b"l", b"during");
    let stats = recover(LogReader::new(w.into_device()), &mut mem).unwrap();
    assert_eq!(stats.redo_applied, 0, "checkpoint skips old redo");
    assert_eq!(stats.undo_applied, 1, "loser undone across checkpoint");
    assert_eq!(mem.data.get(&(0, b"l".to_vec())), Some(&b"before".to_vec()));
}

#[test]
fn recovery_is_idempotent() {
    let mut w = writer();
    w.append(&LogRecord::Begin { txn: 1 }).unwrap();
    w.append(&LogRecord::Remove {
        txn: 1,
        index: 2,
        key: b"gone".to_vec(),
        old: b"was-here".to_vec(),
    })
    .unwrap();
    w.append(&LogRecord::Commit { txn: 1 }).unwrap();
    let dev = w.into_device();

    let mut mem = Mem::default();
    mem.apply_put(2, b"gone", b"was-here");
    let s1 = recover(LogReader::new(dev), &mut mem).unwrap();
    assert_eq!(mem.data.len(), 0);
    // Second recovery over the same log: same end state.
    // (Rebuild the log bytes by replaying the same records.)
    let mut w2 = writer();
    w2.append(&LogRecord::Begin { txn: 1 }).unwrap();
    w2.append(&LogRecord::Remove {
        txn: 1,
        index: 2,
        key: b"gone".to_vec(),
        old: b"was-here".to_vec(),
    })
    .unwrap();
    w2.append(&LogRecord::Commit { txn: 1 }).unwrap();
    let s2 = recover(LogReader::new(w2.into_device()), &mut mem).unwrap();
    assert_eq!(mem.data.len(), 0);
    assert_eq!(s1.redo_applied, s2.redo_applied);
}
