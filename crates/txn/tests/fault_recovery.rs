//! Failure injection: the WAL and recovery against devices that fail
//! mid-write, tear pages, and lose power — the scenarios the
//! write-ahead-log discipline exists for.

use fame_os::{BlockDevice, FaultDevice, FaultPlan, InMemoryDevice};
use fame_txn::{recover, LogReader, LogRecord, LogWriter, RecoveryTarget};
#[cfg(feature = "commit-force")]
use fame_txn::{CommitPolicy, TxnError, TxnManager};

use std::collections::BTreeMap;

/// A device handle the test can keep while the writer owns a boxed clone:
/// models pulling the disk out of the crashed machine and reading it in a
/// healthy one.
#[derive(Clone)]
struct SharedDevice(std::sync::Arc<std::sync::Mutex<InMemoryDevice>>);

impl SharedDevice {
    fn new(page_size: usize) -> Self {
        SharedDevice(std::sync::Arc::new(std::sync::Mutex::new(
            InMemoryDevice::new(page_size),
        )))
    }

    /// Copy the current on-disk image into a fresh device.
    fn image(&self) -> InMemoryDevice {
        let inner = self.0.lock().unwrap();
        let ps = inner.page_size();
        let pages = inner.num_pages();
        drop(inner);
        let mut copy = InMemoryDevice::new(ps);
        copy.ensure_pages(pages).unwrap();
        let mut buf = vec![0u8; ps];
        let mut inner = self.0.lock().unwrap();
        for p in 0..pages {
            inner.read_page(p, &mut buf).unwrap();
            copy.write_page(p, &buf).unwrap();
        }
        copy
    }
}

impl BlockDevice for SharedDevice {
    fn page_size(&self) -> usize {
        self.0.lock().unwrap().page_size()
    }
    fn num_pages(&self) -> u32 {
        self.0.lock().unwrap().num_pages()
    }
    fn read_page(&mut self, page: u32, buf: &mut [u8]) -> Result<(), fame_os::OsError> {
        self.0.lock().unwrap().read_page(page, buf)
    }
    fn write_page(&mut self, page: u32, buf: &[u8]) -> Result<(), fame_os::OsError> {
        self.0.lock().unwrap().write_page(page, buf)
    }
    fn ensure_pages(&mut self, pages: u32) -> Result<(), fame_os::OsError> {
        self.0.lock().unwrap().ensure_pages(pages)
    }
    fn sync(&mut self) -> Result<(), fame_os::OsError> {
        self.0.lock().unwrap().sync()
    }
    fn stats(&self) -> fame_os::DeviceStats {
        self.0.lock().unwrap().stats()
    }
}

#[derive(Debug, Default)]
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

fn put_record(txn: u64, key: &[u8], value: &[u8]) -> LogRecord {
    LogRecord::Put {
        txn,
        index: 0,
        key: key.to_vec(),
        old: None,
        new: value.to_vec(),
    }
}

#[test]
fn power_loss_mid_append_preserves_prefix() {
    // Allow exactly N page writes, then the device dies.
    for budget in [1u64, 2, 3, 5, 8] {
        let plan = FaultPlan {
            fail_after_writes: Some(budget),
            ..Default::default()
        };
        let shared = SharedDevice::new(128);
        let dev = FaultDevice::new(shared.clone(), plan);
        let mut w = LogWriter::new(Box::new(dev), 0).unwrap();

        // Each record is synced, so each costs one page write (the
        // buffered tail goes out at the barrier).
        let mut appended = 0u64;
        for i in 0..budget + 3 {
            match w
                .append(&LogRecord::Begin { txn: i })
                .and_then(|_| w.sync())
            {
                Ok(()) => appended = i + 1,
                Err(_) => break, // power loss
            }
        }
        assert!(appended <= budget, "device died within its write budget");

        // "Reboot": read the surviving image. Every fully persisted record
        // must parse and the reader must stop cleanly at the torn tail.
        let (records, _) = LogReader::new(Box::new(shared.image())).read_all().unwrap();
        assert!(records.len() <= appended as usize + 1);
        for (i, (_, r)) in records.iter().enumerate() {
            assert_eq!(*r, LogRecord::Begin { txn: i as u64 });
        }
    }
}

#[test]
fn torn_final_write_is_detected_and_dropped() {
    // Write several records; the final page write tears in half.
    let mut inner = InMemoryDevice::new(128);
    inner.ensure_pages(0).unwrap();
    let mut w = LogWriter::new(Box::new(inner), 0).unwrap();
    for i in 0..6u64 {
        w.append(&put_record(i, format!("key{i}").as_bytes(), &[i as u8; 40]))
            .unwrap();
    }
    let full_count = 6;

    // Re-run the same sequence on a tearing device: the final page write
    // (mid final record) persists only half a page.
    let writes_before_tear = {
        // Count how many page writes the full sequence needs, then tear
        // one before the end.
        let stats_writes = {
            let mut probe = LogWriter::new(Box::new(InMemoryDevice::new(128)), 0).unwrap();
            for i in 0..6u64 {
                probe
                    .append(&put_record(i, format!("key{i}").as_bytes(), &[i as u8; 40]))
                    .unwrap();
            }
            probe.device_stats().writes
        };
        stats_writes - 1
    };
    let plan = FaultPlan {
        fail_after_writes: Some(writes_before_tear),
        tear_final_write: true,
        ..Default::default()
    };
    let shared = SharedDevice::new(128);
    let dev = FaultDevice::new(shared.clone(), plan);
    let mut w = LogWriter::new(Box::new(dev), 0).unwrap();
    let mut completed = 0;
    for i in 0..6u64 {
        match w.append(&put_record(i, format!("key{i}").as_bytes(), &[i as u8; 40])) {
            Ok(_) => completed += 1,
            Err(_) => break,
        }
    }
    assert!(completed < full_count, "the tear interrupted the sequence");

    // "Reboot": read the surviving (torn) image.
    let (records, _) = LogReader::new(Box::new(shared.image())).read_all().unwrap();
    // Every surviving record is intact and in order. The interrupted
    // record may still be readable if all of its bytes reached the device
    // before the tear — that is correct WAL behaviour — but nothing beyond
    // it can exist.
    assert!(records.len() <= completed + 1);
    for (i, (_, r)) in records.iter().enumerate() {
        match r {
            LogRecord::Put { txn, .. } => assert_eq!(*txn, i as u64),
            other => panic!("unexpected record {other:?}"),
        }
    }
}

#[test]
fn recovery_after_partial_log_is_consistent() {
    // A committed transaction whose commit record IS in the log, followed
    // by a transaction cut off by the crash: winners redo, losers undo —
    // regardless of where exactly the log was cut.
    let mut w = LogWriter::new(Box::new(InMemoryDevice::new(128)), 0).unwrap();
    w.append(&LogRecord::Begin { txn: 1 }).unwrap();
    w.append(&put_record(1, b"stable", b"yes")).unwrap();
    w.append(&LogRecord::Commit { txn: 1 }).unwrap();
    w.append(&LogRecord::Begin { txn: 2 }).unwrap();
    w.append(&LogRecord::Put {
        txn: 2,
        index: 0,
        key: b"stable".to_vec(),
        old: Some(b"yes".to_vec()),
        new: b"dirty".to_vec(),
    })
    .unwrap();
    let tail = w.tail();
    let mut dev = w.into_device();

    // Cut the log at every byte position after the commit record and
    // verify recovery never produces an inconsistent state.
    let ps = dev.page_size();
    let pages = dev.num_pages();
    let mut image = vec![0u8; pages as usize * ps];
    for p in 0..pages {
        dev.read_page(p, &mut image[p as usize * ps..(p as usize + 1) * ps])
            .unwrap();
    }

    for cut in (0..=tail as usize).step_by(7) {
        let mut truncated = image.clone();
        for b in &mut truncated[cut..] {
            *b = 0;
        }
        let mut dev = InMemoryDevice::new(ps);
        dev.ensure_pages(pages).unwrap();
        for p in 0..pages {
            dev.write_page(p, &truncated[p as usize * ps..(p as usize + 1) * ps])
                .unwrap();
        }

        let mut mem = Mem::default();
        // Simulate the crash-time store: the dirty value may or may not
        // have reached it; take the worst case (it did).
        mem.apply_put(0, b"stable", b"dirty");
        let stats = recover(LogReader::new(Box::new(dev)), &mut mem).unwrap();

        let value = mem.data.get(&(0u8, b"stable".to_vec()));
        if stats.winners.contains(&1) {
            // Commit record survived the cut: txn 1's effect must stand
            // and txn 2 (if visible at all) must be undone.
            assert_eq!(value, Some(&b"yes".to_vec()), "cut at {cut}");
        } else {
            // The whole prefix was lost; whatever remains must not crash
            // recovery, and txn 2 can never be a winner.
            assert!(!stats.winners.contains(&2), "cut at {cut}");
        }
    }
}

/// An abort whose `Abort` record cannot be appended must leave the
/// transaction exactly as it was — active, undo list intact, lock held —
/// so the abort can be retried once the device is back. Dropping it
/// before the append loses the undo list and leaves the key locked forever.
#[cfg(feature = "commit-force")]
#[test]
fn failed_abort_append_keeps_the_transaction_abortable() {
    let manager = |dev: Box<dyn BlockDevice>| {
        TxnManager::new(LogWriter::new(dev, 0).unwrap(), CommitPolicy::Force)
    };
    // Appends are buffered, so one fails only when it fills the tail page
    // and the page write fails. Size the put so the prefix ends 8 bytes
    // short of the 128-byte page: the 17-byte `Abort` frame straddles it.
    let prefix = |m: &mut TxnManager| {
        let t = m.begin().unwrap();
        m.log_put(t, 0, b"k", None, &[7u8; 75]).unwrap();
        assert_eq!(m.log_bytes(), 120);
        t
    };
    // Dry run on a healthy device: the prefix costs no page write, so the
    // fault lands on the very first one — the `Abort` record's.
    let mut dry = manager(Box::new(InMemoryDevice::new(128)));
    prefix(&mut dry);
    let plan = FaultPlan {
        fail_after_writes: Some(dry.log_device_stats().writes),
        ..Default::default()
    };
    let fault = fame_os::SharedDevice::new(FaultDevice::new(InMemoryDevice::new(128), plan));
    let handle = fault.clone();
    let mut m = manager(Box::new(fault));
    let t = prefix(&mut m);

    assert!(matches!(m.abort(t), Err(TxnError::Os(_))), "append fails");
    assert_eq!(m.active(), vec![t], "the failed abort left t active");
    assert_eq!(m.stats(), (0, 0));

    handle.with(|d| d.heal());
    let t2 = m.begin().unwrap();
    assert!(
        matches!(
            m.log_put(t2, 0, b"k", None, b"x"),
            Err(TxnError::Conflict(_))
        ),
        "t still holds its exclusive lock after the failed abort"
    );
    let undo = m.abort(t).unwrap();
    assert_eq!(undo.len(), 1, "the undo list survived the failed abort");
    assert_eq!(undo[0].key, b"k");
    assert_eq!(undo[0].restore, None);
    assert_eq!(m.stats(), (0, 1));
    m.log_put(t2, 0, b"k", None, b"x").unwrap();
    m.commit(t2).unwrap();

    // The failed append left nothing behind: every record of the history
    // reads back, none hidden behind a half-written frame.
    let (records, _) = LogReader::new(m.into_log().into_device())
        .read_all()
        .unwrap();
    let txns: Vec<_> = records.iter().map(|(_, r)| r.txn()).collect();
    assert_eq!(
        txns,
        [t, t, t2, t, t2, t2].map(Some),
        "begin t, put, begin t2, abort t, put, commit t2"
    );
}
