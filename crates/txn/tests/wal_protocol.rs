//! The buffered-tail protocol, pinned by device counts (no clocks): an
//! append is a copy into the in-memory tail page; the log device sees a
//! page when it fills and the tail once per sync; closing the writer
//! loses nothing.

use fame_os::{BlockDevice, InMemoryDevice, SharedDevice};
use fame_txn::{CommitPolicy, TxnManager};
use fame_txn::{LogReader, LogRecord, LogWriter};

const PAGE: usize = 512;

fn manager(device: impl BlockDevice + 'static, policy: CommitPolicy) -> TxnManager {
    TxnManager::new(LogWriter::new(Box::new(device), 0).unwrap(), policy)
}

/// `begin`, `puts` fresh 4-byte keys with `value`-byte values, `commit`:
/// 17 + puts × (31 + value) + 17 log bytes.
fn commit_one(m: &mut TxnManager, n: u32, puts: u32, value: usize) {
    let t = m.begin().unwrap();
    for j in 0..puts {
        let key = (n * puts + j).to_be_bytes();
        m.log_put(t, 0, &key, None, &vec![j as u8; value]).unwrap();
    }
    m.commit(t).unwrap();
}

#[cfg(feature = "commit-force")]
#[test]
fn force_commits_write_one_page_per_sync_plus_one_per_page_filled() {
    // The benchmark's commit-durable shape: 286 log bytes per commit.
    const N: u64 = 100;
    let mut m = manager(InMemoryDevice::new(PAGE), CommitPolicy::Force);
    for n in 0..N {
        commit_one(&mut m, n as u32, 4, 32);
    }
    assert_eq!(m.log_bytes(), N * 286);
    let stats = m.log_device_stats();
    assert_eq!(stats.syncs, N);
    // No commit of this run ends exactly on a page boundary, so every
    // sync finds a dirty tail (one write) and every page filled along
    // the way cost one more — against 6 tail rewrites per commit when
    // each append wrote.
    assert_eq!(stats.writes, N + m.log_bytes() / PAGE as u64);
}

#[cfg(feature = "commit-group")]
#[test]
fn group_commit_writes_the_tail_once_per_sync() {
    let mut m = manager(
        InMemoryDevice::new(2 * PAGE),
        CommitPolicy::Group { group_size: 4 },
    );
    for n in 0..8 {
        commit_one(&mut m, n, 1, 1); // 66 bytes each: the page never fills
    }
    assert!(m.log_bytes() < 2 * PAGE as u64);
    let stats = m.log_device_stats();
    assert_eq!((stats.syncs, stats.writes), (2, 2));
    // A ninth, acknowledged but unsynced: still in memory only.
    commit_one(&mut m, 8, 1, 1);
    let stats = m.log_device_stats();
    assert_eq!((stats.syncs, stats.writes), (2, 2));
    m.flush().unwrap();
    let stats = m.log_device_stats();
    assert_eq!((stats.syncs, stats.writes), (3, 3));
}

#[cfg(feature = "commit-force")]
#[test]
fn a_flash_log_erases_at_most_twice_per_commit() {
    use fame_os::{FlashConfig, FlashDevice};
    const N: u64 = 60;
    let mut m = manager(
        FlashDevice::new(FlashConfig::default()),
        CommitPolicy::Force,
    );
    for n in 0..N {
        commit_one(&mut m, n as u32, 4, 32);
    }
    let stats = m.log_device_stats();
    // Rewriting a programmed page costs a block erase: the sync rewrites
    // the tail the previous sync programmed, a page that fills mid-commit
    // is rewritten once more. Six rewrites per commit before.
    assert!(
        stats.erases <= 2 * N,
        "{} erases over {N} commits",
        stats.erases
    );
    assert!(stats.erases <= stats.writes);
}

fn records(n: u64) -> Vec<LogRecord> {
    (0..n)
        .map(|i| LogRecord::Put {
            txn: i,
            index: 0,
            key: i.to_be_bytes().to_vec(),
            old: (i % 3 == 0).then(|| vec![1u8; (i % 50) as usize]),
            new: vec![i as u8; (i * 7 % 90) as usize],
        })
        .collect()
}

#[test]
fn into_device_after_unsynced_appends_keeps_every_record() {
    let recs = records(50);
    let mut w = LogWriter::new(Box::new(InMemoryDevice::new(PAGE)), 0).unwrap();
    for r in &recs {
        w.append(r).unwrap();
    }
    assert_eq!(w.unsynced(), 50);
    let tail = w.tail();
    let (read, end) = LogReader::new(w.into_device()).read_all().unwrap();
    assert!(read.iter().map(|(_, r)| r).eq(&recs));
    assert_eq!(end, tail);
}

#[test]
fn a_clean_drop_writes_the_pending_tail() {
    let dev = SharedDevice::new(InMemoryDevice::new(PAGE));
    let mut w = LogWriter::new(Box::new(dev.clone()), 0).unwrap();
    w.append_many(&records(3)).unwrap();
    assert_eq!(dev.stats().writes, 0, "appends stay in memory");
    drop(w);
    assert_eq!(dev.stats().writes, 1);
    let (read, _) = LogReader::new(Box::new(dev)).read_all().unwrap();
    assert_eq!(read.len(), 3);
}

#[test]
fn the_barrier_writes_pending_bytes_without_syncing() {
    let dev = SharedDevice::new(InMemoryDevice::new(PAGE));
    let mut w = LogWriter::new(Box::new(dev.clone()), 0).unwrap();
    let barrier = w.barrier();
    barrier().unwrap();
    assert_eq!(dev.stats().writes, 0, "nothing pending, nothing written");

    w.append(&LogRecord::Begin { txn: 1 }).unwrap();
    barrier().unwrap();
    barrier().unwrap();
    let stats = dev.stats();
    assert_eq!(
        (stats.writes, stats.syncs),
        (1, 0),
        "written once, not synced"
    );
    let (read, _) = LogReader::new(Box::new(dev.clone())).read_all().unwrap();
    assert_eq!(read.len(), 1, "the record is on the device");

    // The writer keeps filling the same page after a barrier wrote it.
    w.append(&LogRecord::Commit { txn: 1 }).unwrap();
    w.sync().unwrap();
    assert_eq!(dev.stats().writes, 2);
    drop(w);
    barrier().unwrap();
    assert_eq!(dev.stats().writes, 2, "a dropped writer has no tail");
    let (read, _) = LogReader::new(Box::new(dev)).read_all().unwrap();
    assert_eq!(read.len(), 2);
}
