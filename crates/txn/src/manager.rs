//! The transaction manager: transaction table, WAL integration, commit
//! protocols, and undo generation for aborts.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;
use std::sync::Arc;

use fame_os::OsError;

use crate::lock_table::{LockConflict, LockMode, LockTable};
use crate::log::{LogWriter, Lsn};
use crate::wal::LogRecord;

pub use crate::wal::TxnId;

/// Debug builds panic with this on a write logged before it was locked.
const UNLOCKED: &str = "write logged without its exclusive lock";

/// How commits reach the platter — the paper's "alternative commit
/// protocols" subfeature (§2.3). Each variant exists only when its cargo
/// feature (`commit-force` / `commit-group`) is composed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Sync the log on every commit. Durable immediately; one device sync
    /// per transaction.
    #[cfg(feature = "commit-force")]
    Force,
    /// Sync once per `group_size` commits (or on [`TxnManager::flush`]).
    /// Amortizes syncs; the last group may be lost on a crash.
    #[cfg(feature = "commit-group")]
    Group {
        /// Commits per sync.
        group_size: u32,
    },
}

/// Transaction-layer errors.
#[derive(Debug)]
pub enum TxnError {
    /// The transaction id is unknown (never began, or already finished).
    UnknownTxn(TxnId),
    /// A no-wait lock conflict; the caller should abort and retry.
    Conflict(LockConflict),
    /// Log device failure.
    Os(OsError),
    /// A blocking lock acquisition failed: timeout, or this transaction
    /// was chosen as a deadlock victim. The caller must abort it.
    #[cfg(feature = "multi-writer")]
    Lock(crate::lock_table::LockError),
    /// The group-commit leader's append or sync failed. Every transaction
    /// in the drained batch stays active and retriable; followers see the
    /// leader's error rendered to text (device errors are not cloneable).
    #[cfg(feature = "multi-writer")]
    GroupCommit(String),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::UnknownTxn(t) => write!(f, "unknown transaction {t}"),
            TxnError::Conflict(c) => write!(f, "{c}"),
            TxnError::Os(e) => write!(f, "{e}"),
            #[cfg(feature = "multi-writer")]
            TxnError::Lock(e) => write!(f, "{e}"),
            #[cfg(feature = "multi-writer")]
            TxnError::GroupCommit(e) => write!(f, "group commit failed: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<OsError> for TxnError {
    fn from(e: OsError) -> Self {
        TxnError::Os(e)
    }
}

impl From<LockConflict> for TxnError {
    fn from(e: LockConflict) -> Self {
        TxnError::Conflict(e)
    }
}

#[cfg(feature = "multi-writer")]
impl From<crate::lock_table::LockError> for TxnError {
    fn from(e: crate::lock_table::LockError) -> Self {
        TxnError::Lock(e)
    }
}

/// One compensating action produced by an abort; the storage owner applies
/// it (restore the old value or remove the key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoAction {
    /// Index the original operation targeted.
    pub index: u8,
    /// Key to repair.
    pub key: Vec<u8>,
    /// `Some(old)` = restore this value; `None` = the key did not exist,
    /// remove it.
    pub restore: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct TxnState {
    undo: Vec<UndoAction>,
}

/// One operation of a write batch, in the same logical vocabulary as the
/// WAL records: `old` carries what the key held before (for undo/redo),
/// exactly like [`TxnManager::log_put`] / [`TxnManager::log_remove`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchWrite {
    /// Insert or overwrite `key` in index `index`.
    Put {
        /// Which index of the product the operation targets.
        index: u8,
        /// The key.
        key: Vec<u8>,
        /// Previous value (`None` = key was absent), for undo.
        old: Option<Vec<u8>>,
        /// New value, for redo.
        new: Vec<u8>,
    },
    /// Remove `key` from index `index`.
    Remove {
        /// Which index of the product the operation targets.
        index: u8,
        /// The key.
        key: Vec<u8>,
        /// The removed value, for undo.
        old: Vec<u8>,
    },
}

impl BatchWrite {
    /// The key the operation touches.
    pub fn key(&self) -> &[u8] {
        match self {
            BatchWrite::Put { key, .. } | BatchWrite::Remove { key, .. } => key,
        }
    }
}

/// Statistics feature: timing the transaction layer keeps beyond its
/// always-on `(committed, aborted)` counters.
#[cfg(feature = "obs")]
#[derive(Debug, Default)]
pub struct TxnObs {
    /// Wall time of a commit — append plus whatever the commit protocol
    /// syncs; a group-channel commit waits for its drain as well.
    pub commit_latency: fame_obs::Histogram,
}

/// Transaction table + WAL + locks + commit protocol.
pub struct TxnManager {
    log: LogWriter,
    /// The product's one lock table: no-wait here, blocking in a
    /// [`crate::SharedTxnManager`], which replaces and shares it.
    pub(crate) locks: Arc<LockTable>,
    active: BTreeMap<TxnId, TxnState>,
    next_id: TxnId,
    policy: CommitPolicy,
    commits_since_sync: u32,
    committed: u64,
    aborted: u64,
    #[cfg(feature = "obs")]
    pub(crate) obs: Arc<TxnObs>,
}

impl TxnManager {
    /// Create a manager writing to `log` under the given commit policy.
    pub fn new(log: LogWriter, policy: CommitPolicy) -> Self {
        TxnManager {
            log,
            locks: Arc::new(LockTable::new(std::time::Duration::ZERO)),
            active: BTreeMap::new(),
            next_id: 1,
            policy,
            commits_since_sync: 0,
            committed: 0,
            aborted: 0,
            #[cfg(feature = "obs")]
            obs: Arc::default(),
        }
    }

    /// Hand out ids above `last` from now on — the highest id in a log
    /// that is being reopened. Recovery classifies transactions by id over
    /// the whole log, so an id reused after a restart would inherit its
    /// predecessor's `Commit`.
    pub fn resume_ids_after(&mut self, last: TxnId) {
        self.next_id = self.next_id.max(last + 1);
    }

    /// Ids of active transactions.
    pub fn active(&self) -> Vec<TxnId> {
        self.active.keys().copied().collect()
    }

    /// Has `txn` begun and not yet finished?
    pub(crate) fn is_active(&self, txn: TxnId) -> bool {
        self.active.contains_key(&txn)
    }

    /// `(committed, aborted)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.committed, self.aborted)
    }

    /// Start a transaction.
    pub fn begin(&mut self) -> Result<TxnId, TxnError> {
        let id = self.next_id;
        self.next_id += 1;
        self.log.append(&LogRecord::Begin { txn: id })?;
        self.active.insert(id, TxnState::default());
        Ok(id)
    }

    fn state(&mut self, txn: TxnId) -> Result<&mut TxnState, TxnError> {
        self.active.get_mut(&txn).ok_or(TxnError::UnknownTxn(txn))
    }

    /// Take a read lock on a key, no-wait ([`TxnError::Conflict`]).
    pub fn lock_read(&mut self, txn: TxnId, key: &[u8]) -> Result<(), TxnError> {
        self.state(txn)?;
        self.locks.try_acquire(txn, key, LockMode::Shared)?;
        Ok(())
    }

    /// Take the exclusive lock on a key, no-wait, before reading the
    /// before-image the write will log.
    pub fn lock_write(&mut self, txn: TxnId, key: &[u8]) -> Result<(), TxnError> {
        self.state(txn)?;
        self.locks.try_acquire(txn, key, LockMode::Exclusive)?;
        Ok(())
    }

    /// Release `txn`'s locks once its abort's undo is applied (commit
    /// releases by itself).
    pub fn release_locks(&self, txn: TxnId) {
        self.locks.release_all(txn);
    }

    /// Log a put *before* the caller applies it to storage (WAL rule).
    /// The caller must hold the key's exclusive lock.
    pub fn log_put(
        &mut self,
        txn: TxnId,
        index: u8,
        key: &[u8],
        old: Option<Vec<u8>>,
        new: &[u8],
    ) -> Result<Lsn, TxnError> {
        self.state(txn)?;
        debug_assert!(self.locks.holds_exclusive(txn, key), "{UNLOCKED}");
        let lsn = self.log.append_with(|out| {
            LogRecord::Put {
                txn,
                index,
                key,
                old: old.as_deref(),
                new,
            }
            .encode_into(out)
        })?;
        self.state(txn)?.undo.push(UndoAction {
            index,
            key: key.to_vec(),
            restore: old,
        });
        Ok(lsn)
    }

    /// Log a remove *before* the caller applies it. The caller must hold
    /// the key's exclusive lock.
    pub fn log_remove(
        &mut self,
        txn: TxnId,
        index: u8,
        key: &[u8],
        old: Vec<u8>,
    ) -> Result<Lsn, TxnError> {
        self.state(txn)?;
        debug_assert!(self.locks.holds_exclusive(txn, key), "{UNLOCKED}");
        let lsn = self.log.append_with(|out| {
            LogRecord::Remove {
                txn,
                index,
                key,
                old: &old[..],
            }
            .encode_into(out)
        })?;
        self.state(txn)?.undo.push(UndoAction {
            index,
            key: key.to_vec(),
            restore: Some(old),
        });
        Ok(lsn)
    }

    /// Log a whole batch of writes *before* the caller applies them to
    /// storage (WAL rule), as one append.
    ///
    /// The caller must hold every key's exclusive lock: locking all of
    /// them first is what makes a conflict fail the batch before a single
    /// record reaches the log. Undo actions are recorded per operation, so
    /// an abort after a partial storage apply compensates exactly as for
    /// single writes.
    pub fn log_batch(&mut self, txn: TxnId, ops: &[BatchWrite]) -> Result<Lsn, TxnError> {
        self.state(txn)?;
        let locked = |op: &BatchWrite| self.locks.holds_exclusive(txn, op.key());
        debug_assert!(ops.iter().all(locked), "{UNLOCKED}");
        let lsn = self.log.append_encoded(ops, |op, out| match op {
            BatchWrite::Put {
                index,
                key,
                old,
                new,
            } => LogRecord::<&[u8]>::Put {
                txn,
                index: *index,
                key,
                old: old.as_deref(),
                new,
            }
            .encode_into(out),
            BatchWrite::Remove { index, key, old } => LogRecord::<&[u8]>::Remove {
                txn,
                index: *index,
                key,
                old,
            }
            .encode_into(out),
        })?;
        let state = self.state(txn)?;
        for op in ops {
            state.undo.push(match op {
                BatchWrite::Put {
                    index, key, old, ..
                } => UndoAction {
                    index: *index,
                    key: key.clone(),
                    restore: old.clone(),
                },
                BatchWrite::Remove { index, key, old } => UndoAction {
                    index: *index,
                    key: key.clone(),
                    restore: Some(old.clone()),
                },
            });
        }
        Ok(lsn)
    }

    /// Commit: [`TxnManager::commit_batch`] for a batch of one, then
    /// release the locks. A transaction logged with
    /// [`TxnManager::log_batch`] commits the same way: one commit record
    /// and one protocol step (one sync under `commit-force`, one tick of
    /// the `commit-group` quota) regardless of its size, so batch size
    /// never multiplies syncs.
    ///
    /// The transaction leaves the active table — and drops its locks and
    /// undo information — only after the durability step succeeds. If the
    /// append or sync fails, the transaction stays fully active, so the
    /// caller can retry the commit or abort it.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), TxnError> {
        #[cfg(feature = "obs")]
        let t0 = fame_obs::monotonic_ns();
        self.commit_batch(&[txn])?;
        self.locks.release_all(txn);
        #[cfg(feature = "obs")]
        self.obs
            .commit_latency
            .record_ns(fame_obs::monotonic_ns() - t0);
        Ok(())
    }

    /// The one commit step, for the transaction of [`TxnManager::commit`]
    /// or a group-commit leader's drained queue: append every commit
    /// record, take the protocol's durability step, then let each
    /// transaction leave the active table. The log fails atomically, so on
    /// error no transaction in the batch is committed and all stay active
    /// and retriable. The caller releases the locks.
    ///
    /// The durability step is the one place that decides whether a commit
    /// syncs. A batch counts as a *single* commit toward a `Group` quota,
    /// so cross-transaction grouping amortizes syncs as writers rise
    /// instead of being defeated by them.
    pub(crate) fn commit_batch(&mut self, txns: &[TxnId]) -> Result<(), TxnError> {
        if let Some(&t) = txns.iter().find(|&&t| !self.is_active(t)) {
            return Err(TxnError::UnknownTxn(t));
        }
        let encode =
            |&txn: &TxnId, out: &mut Vec<u8>| LogRecord::<&[u8]>::Commit { txn }.encode_into(out);
        self.log.append_encoded(txns, encode)?;
        match self.policy {
            #[cfg(feature = "commit-force")]
            CommitPolicy::Force => self.log.sync()?,
            #[cfg(feature = "commit-group")]
            CommitPolicy::Group { group_size } => {
                if self.commits_since_sync + 1 >= group_size {
                    self.log.sync()?;
                    self.commits_since_sync = 0;
                } else {
                    self.commits_since_sync += 1;
                }
            }
        }
        for t in txns {
            self.active.remove(t);
        }
        self.committed += txns.len() as u64;
        Ok(())
    }

    /// Abort: append the abort record and hand back the compensating
    /// actions (newest first) for the caller to apply to storage, then
    /// [`TxnManager::release_locks`] — even if the undo failed.
    ///
    /// As in [`TxnManager::commit`], the transaction leaves the active
    /// table only after its record is appended: a failed append keeps the
    /// undo list and the locks, so the abort can be retried.
    pub fn abort(&mut self, txn: TxnId) -> Result<Vec<UndoAction>, TxnError> {
        let Entry::Occupied(entry) = self.active.entry(txn) else {
            return Err(TxnError::UnknownTxn(txn));
        };
        self.log.append(&LogRecord::Abort { txn })?;
        let state = entry.remove();
        self.aborted += 1;
        let mut undo = state.undo;
        undo.reverse();
        Ok(undo)
    }

    /// The distinct keys `txn` has logged, in first-write order.
    pub fn write_set(&self, txn: TxnId) -> Result<Vec<Vec<u8>>, TxnError> {
        let state = self.active.get(&txn).ok_or(TxnError::UnknownTxn(txn))?;
        let mut seen = std::collections::HashSet::new();
        Ok(state
            .undo
            .iter()
            .filter(|a| seen.insert(a.key.as_slice()))
            .map(|a| a.key.clone())
            .collect())
    }

    /// Force any buffered group commit to the device.
    pub fn flush(&mut self) -> Result<(), TxnError> {
        self.log.sync()?;
        self.commits_since_sync = 0;
        Ok(())
    }

    /// Write a checkpoint record (call after flushing data pages).
    pub fn checkpoint(&mut self) -> Result<(), TxnError> {
        self.log.append(&LogRecord::Checkpoint)?;
        self.flush()
    }

    /// Seal a completed recovery. The losers' effects were just compensated
    /// by replay, so give each a terminal `Abort` record (otherwise every
    /// future recovery re-undoes them — undo scans the whole log), then a
    /// `Checkpoint`, and force the batch out. After this, a reopen without
    /// intervening writes replays nothing.
    pub fn seal_recovery(&mut self, losers: &[TxnId]) -> Result<(), TxnError> {
        for &t in losers {
            self.log.append(&LogRecord::Abort { txn: t })?;
        }
        self.checkpoint()
    }

    /// Syncs issued on the log device so far (protocol comparison metric).
    pub fn log_syncs(&self) -> u64 {
        self.log_device_stats().syncs
    }

    /// Total bytes ever appended to the log (frames included) — the log
    /// tail doubles as a volume counter because LSNs are byte offsets.
    pub fn log_bytes(&self) -> u64 {
        self.log.tail()
    }

    /// Statistics feature: the manager's latency observations.
    #[cfg(feature = "obs")]
    pub fn obs(&self) -> &TxnObs {
        &self.obs
    }

    /// Raw device counters of the log device.
    pub fn log_device_stats(&self) -> fame_os::DeviceStats {
        self.log.device_stats()
    }

    /// Reclaim the log device (tests/recovery round trips).
    pub fn into_log(self) -> LogWriter {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fame_os::InMemoryDevice;

    fn manager(policy: CommitPolicy) -> TxnManager {
        let log = LogWriter::new(Box::new(InMemoryDevice::new(128)), 0).unwrap();
        TxnManager::new(log, policy)
    }

    /// Lock, then log — the order every caller follows.
    #[cfg(feature = "commit-force")]
    fn put(m: &mut TxnManager, t: TxnId, key: &[u8], old: Option<&[u8]>, new: &[u8]) {
        m.lock_write(t, key).unwrap();
        m.log_put(t, 0, key, old.map(<[u8]>::to_vec), new).unwrap();
    }

    fn lock_all(m: &mut TxnManager, t: TxnId, ops: &[BatchWrite]) -> Result<(), TxnError> {
        ops.iter().try_for_each(|op| m.lock_write(t, op.key()))
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn begin_commit_lifecycle() {
        let mut m = manager(CommitPolicy::Force);
        let t = m.begin().unwrap();
        assert_eq!(m.active(), vec![t]);
        put(&mut m, t, b"k", None, b"v");
        m.commit(t).unwrap();
        assert!(m.active().is_empty());
        assert_eq!(m.stats(), (1, 0));
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn abort_returns_undo_in_reverse() {
        let mut m = manager(CommitPolicy::Force);
        let t = m.begin().unwrap();
        put(&mut m, t, b"a", None, b"1");
        put(&mut m, t, b"a", Some(b"1"), b"2");
        m.lock_write(t, b"b").unwrap();
        m.log_remove(t, 1, b"b", b"old-b".to_vec()).unwrap();
        let undo = m.abort(t).unwrap();
        assert_eq!(undo.len(), 3);
        assert_eq!(undo[0].key, b"b");
        assert_eq!(undo[0].restore, Some(b"old-b".to_vec()));
        assert_eq!(undo[1].restore, Some(b"1".to_vec()));
        assert_eq!(undo[2].restore, None, "first put created the key");
        assert_eq!(m.stats(), (0, 1));
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn unknown_txn_rejected() {
        let mut m = manager(CommitPolicy::Force);
        assert!(matches!(m.commit(99), Err(TxnError::UnknownTxn(99))));
        assert!(matches!(
            m.lock_write(99, b"k"),
            Err(TxnError::UnknownTxn(99))
        ));
        assert!(matches!(
            m.log_put(99, 0, b"k", None, b"v"),
            Err(TxnError::UnknownTxn(99))
        ));
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn write_conflict_between_transactions() {
        let mut m = manager(CommitPolicy::Force);
        let t1 = m.begin().unwrap();
        let t2 = m.begin().unwrap();
        put(&mut m, t1, b"k", None, b"v1");
        assert!(matches!(m.lock_write(t2, b"k"), Err(TxnError::Conflict(_))));
        // After t1 commits, t2 can proceed.
        m.commit(t1).unwrap();
        put(&mut m, t2, b"k", Some(b"v1"), b"v2");
        m.commit(t2).unwrap();
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn readers_share_then_block_writer() {
        let mut m = manager(CommitPolicy::Force);
        let t1 = m.begin().unwrap();
        let t2 = m.begin().unwrap();
        m.lock_read(t1, b"k").unwrap();
        m.lock_read(t2, b"k").unwrap();
        let t3 = m.begin().unwrap();
        assert!(matches!(m.lock_write(t3, b"k"), Err(TxnError::Conflict(_))));
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn failed_commit_sync_keeps_txn_active_and_retriable() {
        use fame_os::{FaultDevice, FaultPlan, SharedDevice};
        let plan = FaultPlan {
            fail_after_syncs: Some(0),
            ..Default::default()
        };
        let fault = SharedDevice::new(FaultDevice::new(InMemoryDevice::new(128), plan));
        let handle = fault.clone();
        let log = LogWriter::new(Box::new(fault), 0).unwrap();
        let mut m = TxnManager::new(log, CommitPolicy::Force);

        let t = m.begin().unwrap();
        put(&mut m, t, b"k", None, b"v");
        assert!(m.commit(t).is_err(), "sync fails");

        // The transaction must still be fully active: in the table, not
        // counted committed, lock still held.
        assert_eq!(m.active(), vec![t]);
        assert_eq!(m.stats(), (0, 0));

        // Once the device recovers: the lock is still held against other
        // transactions, and the commit can be retried (roll forward).
        handle.with(|d| d.heal());
        let t2 = m.begin().unwrap();
        assert!(
            matches!(m.lock_write(t2, b"k"), Err(TxnError::Conflict(_))),
            "t still holds its exclusive lock after the failed commit"
        );
        m.commit(t).unwrap();
        assert!(!m.active().contains(&t));
        assert_eq!(m.stats(), (1, 0));
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn failed_commit_sync_still_allows_abort() {
        use fame_os::{FaultDevice, FaultPlan, SharedDevice};
        let plan = FaultPlan {
            fail_after_syncs: Some(0),
            ..Default::default()
        };
        let fault = SharedDevice::new(FaultDevice::new(InMemoryDevice::new(128), plan));
        let handle = fault.clone();
        let log = LogWriter::new(Box::new(fault), 0).unwrap();
        let mut m = TxnManager::new(log, CommitPolicy::Force);

        let t = m.begin().unwrap();
        put(&mut m, t, b"k", None, b"v");
        assert!(m.commit(t).is_err());

        handle.with(|d| d.heal());
        let undo = m.abort(t).unwrap();
        assert_eq!(undo.len(), 1, "undo information survived the failed commit");
        assert_eq!(m.stats(), (0, 1));
    }

    #[cfg(all(feature = "commit-force", feature = "obs"))]
    #[test]
    fn commit_latency_recorded_per_successful_commit() {
        let mut m = manager(CommitPolicy::Force);
        for _ in 0..3 {
            let t = m.begin().unwrap();
            put(&mut m, t, b"k", None, b"v");
            m.commit(t).unwrap();
        }
        assert!(matches!(m.commit(99), Err(TxnError::UnknownTxn(99))));
        let snap = m.obs().commit_latency.snapshot();
        assert_eq!(snap.count, 3, "failed commits are not samples");
        assert!(m.log_bytes() > 0);
    }

    fn batch(n: usize) -> Vec<BatchWrite> {
        (0..n)
            .map(|i| BatchWrite::Put {
                index: 0,
                key: format!("bk{i}").into_bytes(),
                old: None,
                new: vec![i as u8; 8],
            })
            .collect()
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn batch_commit_syncs_once_regardless_of_size() {
        for n in [1usize, 8, 64] {
            let mut m = manager(CommitPolicy::Force);
            let t = m.begin().unwrap();
            let ops = batch(n);
            lock_all(&mut m, t, &ops).unwrap();
            m.log_batch(t, &ops).unwrap();
            m.commit(t).unwrap();
            assert_eq!(m.log_device_stats().syncs, 1, "batch of {n}: one sync");
            assert_eq!(m.stats(), (1, 0));
            assert!(m.active().is_empty());
        }
    }

    #[cfg(feature = "commit-group")]
    #[test]
    fn batch_counts_as_one_commit_toward_group_quota() {
        let mut m = manager(CommitPolicy::Group { group_size: 4 });
        for _ in 0..8 {
            let t = m.begin().unwrap();
            let ops = batch(16);
            lock_all(&mut m, t, &ops).unwrap();
            m.log_batch(t, &ops).unwrap();
            m.commit(t).unwrap();
        }
        assert_eq!(
            m.log_device_stats().syncs,
            2,
            "8 batches / group of 4, independent of the 16 ops per batch"
        );
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn batch_conflict_fails_before_logging_anything() {
        let mut m = manager(CommitPolicy::Force);
        let t1 = m.begin().unwrap();
        put(&mut m, t1, b"bk2", None, b"v");
        let t2 = m.begin().unwrap();
        let bytes_before = m.log_bytes();
        // Every key is locked before `log_batch` runs: the conflict on
        // `bk2` stops the batch before it reaches the log.
        assert!(matches!(
            lock_all(&mut m, t2, &batch(4)),
            Err(TxnError::Conflict(_))
        ));
        assert_eq!(
            m.log_bytes(),
            bytes_before,
            "a conflicting batch logs no records"
        );
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn batch_abort_returns_undo_in_reverse() {
        let mut m = manager(CommitPolicy::Force);
        let t = m.begin().unwrap();
        let ops = vec![
            BatchWrite::Put {
                index: 0,
                key: b"a".to_vec(),
                old: None,
                new: b"1".to_vec(),
            },
            BatchWrite::Remove {
                index: 1,
                key: b"b".to_vec(),
                old: b"old-b".to_vec(),
            },
        ];
        lock_all(&mut m, t, &ops).unwrap();
        m.log_batch(t, &ops).unwrap();
        let undo = m.abort(t).unwrap();
        assert_eq!(undo.len(), 2);
        assert_eq!(undo[0].key, b"b");
        assert_eq!(undo[0].restore, Some(b"old-b".to_vec()));
        assert_eq!(undo[1].key, b"a");
        assert_eq!(undo[1].restore, None);
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn batch_log_records_match_per_record_path() {
        use crate::log::LogReader;
        // The coalesced path must leave a byte-identical log behind.
        let ops = batch(5);
        let mut a = manager(CommitPolicy::Force);
        let t = a.begin().unwrap();
        for op in &ops {
            if let BatchWrite::Put {
                index,
                key,
                old,
                new,
            } = op
            {
                a.lock_write(t, key).unwrap();
                a.log_put(t, *index, key, old.clone(), new).unwrap();
            }
        }
        a.commit(t).unwrap();

        let mut b = manager(CommitPolicy::Force);
        let t = b.begin().unwrap();
        lock_all(&mut b, t, &ops).unwrap();
        b.log_batch(t, &ops).unwrap();
        b.commit(t).unwrap();

        let (ra, _) = LogReader::new(a.into_log().into_device())
            .read_all()
            .unwrap();
        let (rb, _) = LogReader::new(b.into_log().into_device())
            .read_all()
            .unwrap();
        assert_eq!(ra, rb);
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn log_contains_full_history() {
        use crate::log::LogReader;
        let mut m = manager(CommitPolicy::Force);
        let t = m.begin().unwrap();
        put(&mut m, t, b"k", None, b"v");
        m.commit(t).unwrap();
        let t2 = m.begin().unwrap();
        m.abort(t2).unwrap();
        m.checkpoint().unwrap();

        let dev = m.into_log().into_device();
        let (records, _) = LogReader::new(dev).read_all().unwrap();
        let kinds: Vec<u8> = records
            .iter()
            .map(|(_, r)| match r {
                LogRecord::Begin { .. } => 1,
                LogRecord::Commit { .. } => 2,
                LogRecord::Abort { .. } => 3,
                LogRecord::Put { .. } => 4,
                LogRecord::Remove { .. } => 5,
                LogRecord::Checkpoint => 6,
            })
            .collect();
        assert_eq!(kinds, [1, 4, 2, 1, 3, 6]);
    }
}
