//! Shareable transaction manager for the `Concurrency → MultiWriter`
//! product: `&self` begin/log/commit over interior mutability, blocking
//! block locks, and *cross-transaction* group commit.
//!
//! # Architecture
//!
//! [`SharedTxnManager`] wraps the single-writer [`TxnManager`] in a mutex
//! and composes two concurrency mechanisms around it:
//!
//! * blocking acquisition on the manager's own [`LockTable`], shared with
//!   the wrapper's lock timeout, **before** any storage or manager mutex,
//!   so conflicting transactions serialize by waiting while disjoint ones
//!   interleave freely;
//! * a leader-based **group commit**: committers enqueue their `TxnId` and
//!   the first one in becomes leader, draining the queue through the
//!   manager's one commit step — one commit-record append plus one
//!   protocol sync (one write of the log tail) per drain — N concurrent
//!   writers cost ~one fsync per drain instead of one each. Followers
//!   park on a condvar until the leader posts their result.
//!
//! # Invariants
//!
//! 1. **Lock order**: `LockTable` → storage mutex → manager mutex → log
//!    tail. The group-state mutex is held only while queueing/collecting,
//!    never across the drain (the leader drops it before touching the
//!    manager). The log tail ([`crate::log`]) is a leaf: an append or sync
//!    holds it under the manager mutex, the write-ahead barrier in front
//!    of the data device holds it under the pool's device latch, and
//!    nothing is ever acquired while it is held.
//! 2. **Release points**: locks go after the drain and version install,
//!    or once the caller applied an abort's undo. A lock granted to an id
//!    the manager does not know is released before [`TxnError::UnknownTxn`]
//!    returns: ids are never reused, so nothing else ever would.
//! 3. **Failed drains leave every transaction active**: if the leader's
//!    append or sync fails, no transaction in the batch is finished,
//!    all locks stay held, and each committer gets an error
//!    ([`TxnError::GroupCommit`] for followers) so it can retry or abort.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::lock_table::{LockMode, LockTable};
use crate::manager::{TxnError, TxnManager, UndoAction};
use crate::wal::TxnId;

/// Version-install callback (Snapshot feature): `(drained batch,
/// commit timestamp)`.
#[cfg(feature = "snapshot")]
pub type InstallHook = Box<dyn Fn(&[TxnId], u64) + Send + Sync>;

#[derive(Debug, Default)]
struct GroupState {
    /// Commit requests awaiting the next drain.
    queue: Vec<TxnId>,
    /// A leader is currently draining.
    leader_active: bool,
    /// Per-transaction drain results (error text: device errors are not
    /// cloneable across the batch).
    done: HashMap<TxnId, Result<(), String>>,
}

/// `&self` transaction manager: blocking locks + cross-writer group commit.
pub struct SharedTxnManager {
    inner: Mutex<TxnManager>,
    /// The wrapped manager's table: waits park outside its mutex.
    locks: Arc<LockTable>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    /// Tracing feature: causal span sink (group-commit edges). Installed
    /// once by the facade; also forwarded into the lock table.
    #[cfg(feature = "trace")]
    sink: std::sync::OnceLock<std::sync::Arc<fame_obs::TraceSink>>,
    /// Snapshot feature: the global commit-timestamp clock. Every
    /// successful drain gets the next timestamp; snapshot reads resolve
    /// page versions against it.
    #[cfg(feature = "snapshot")]
    clock: std::sync::atomic::AtomicU64,
    /// Snapshot feature: version-install hook, called by the leader after
    /// each successful drain with `(batch, commit_ts)` — no manager or
    /// group mutex held, so the hook may take buffer-pool chain locks
    /// freely. Installed once by the facade.
    #[cfg(feature = "snapshot")]
    install: std::sync::OnceLock<InstallHook>,
}

impl SharedTxnManager {
    /// Wrap a manager; block-lock waits give up after `lock_timeout`.
    pub fn new(mut manager: TxnManager, lock_timeout: Duration) -> Self {
        debug_assert!(manager.active().is_empty(), "wrapped under live txns");
        manager.locks = Arc::new(LockTable::new(lock_timeout));
        let locks = Arc::clone(&manager.locks);
        SharedTxnManager {
            inner: Mutex::new(manager),
            locks,
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
            #[cfg(feature = "trace")]
            sink: std::sync::OnceLock::new(),
            #[cfg(feature = "snapshot")]
            clock: std::sync::atomic::AtomicU64::new(0),
            #[cfg(feature = "snapshot")]
            install: std::sync::OnceLock::new(),
        }
    }

    /// Install the version-install hook (Snapshot feature): called once
    /// per successful drain with the batch's transaction ids and its
    /// commit timestamp. First hook wins; later calls are no-ops.
    #[cfg(feature = "snapshot")]
    pub fn set_install_hook(&self, hook: InstallHook) {
        let _ = self.install.set(hook);
    }

    /// Newest commit timestamp handed to a drained batch (Snapshot
    /// feature); 0 before the first commit.
    #[cfg(feature = "snapshot")]
    pub fn commit_ts(&self) -> u64 {
        self.clock.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Install the span sink (Tracing feature) on this manager and its
    /// lock table. First sink wins; later calls are no-ops.
    #[cfg(feature = "trace")]
    pub fn set_trace_sink(&self, sink: std::sync::Arc<fame_obs::TraceSink>) {
        self.locks.set_trace_sink(std::sync::Arc::clone(&sink));
        let _ = self.sink.set(sink);
    }

    #[cfg(feature = "trace")]
    fn emit(&self, kind: fame_obs::SpanKind, txn: TxnId, parent: u64, a: u64, b: u64) {
        if let Some(s) = self.sink.get() {
            s.emit(kind, txn, parent, a, b);
        }
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, TxnManager> {
        self.inner.lock().expect("txn manager poisoned")
    }

    /// The product's block-lock table (diagnostics, lock-wait obs).
    pub fn lock_table(&self) -> &LockTable {
        &self.locks
    }

    /// Start a transaction.
    pub fn begin(&self) -> Result<TxnId, TxnError> {
        let txn = self.inner().begin()?;
        #[cfg(feature = "trace")]
        self.emit(fame_obs::SpanKind::TxnBegin, txn, 0, 0, 0);
        Ok(txn)
    }

    /// Start a transaction that retries aborted transaction `parent`
    /// (deadlock victim, lock timeout). Functionally identical to
    /// [`SharedTxnManager::begin`]; with the Tracing feature the new
    /// transaction's span chain is spliced onto the aborted one's via a
    /// `retry` event, which is what lets a trace reconstruct
    /// `lock-wait → deadlock-victim → retry → txn-commit` across ids.
    pub fn begin_retry(&self, parent: TxnId) -> Result<TxnId, TxnError> {
        let txn = self.inner().begin()?;
        #[cfg(feature = "trace")]
        self.emit(fame_obs::SpanKind::Retry, txn, parent, 0, 0);
        #[cfg(not(feature = "trace"))]
        let _ = parent;
        Ok(txn)
    }

    /// Block until `txn` holds the shared block lock for `key`.
    pub fn lock_read(&self, txn: TxnId, key: &[u8]) -> Result<(), TxnError> {
        self.acquire(txn, key, LockMode::Shared)
    }

    /// Block until `txn` holds the exclusive block lock for `key`. Call
    /// *before* reading the old value under the storage mutex — the block
    /// lock is what makes the read-log-apply sequence atomic.
    pub fn lock_write(&self, txn: TxnId, key: &[u8]) -> Result<(), TxnError> {
        self.acquire(txn, key, LockMode::Exclusive)
    }

    /// One blocking grant, kept only for an active transaction.
    fn acquire(&self, txn: TxnId, key: &[u8], mode: LockMode) -> Result<(), TxnError> {
        self.locks.acquire(txn, key, mode)?;
        if self.inner().is_active(txn) {
            return Ok(());
        }
        self.locks.release_all(txn);
        Err(TxnError::UnknownTxn(txn))
    }

    /// Commit through the group channel. The first committer to arrive
    /// while no drain is running becomes leader and drains everyone
    /// queued — including transactions that enqueue *during* its drain —
    /// then steps down; followers park until their result is posted.
    /// On success the transaction's block locks are released; on failure
    /// it stays active with locks held (retry or abort).
    pub fn commit(&self, txn: TxnId) -> Result<(), TxnError> {
        #[cfg(feature = "obs")]
        let t0 = fame_obs::monotonic_ns();

        let mut group = self.group.lock().expect("group state poisoned");
        group.queue.push(txn);
        #[cfg(feature = "trace")]
        self.emit(
            fame_obs::SpanKind::GroupEnqueue,
            txn,
            0,
            group.queue.len() as u64,
            0,
        );
        let result = loop {
            if let Some(result) = group.done.remove(&txn) {
                break result;
            }
            if group.leader_active {
                // A drain is running; it (or a successor drain by the same
                // leader) will pick our queued txn up and post the result.
                group = self.group_cv.wait(group).expect("group state poisoned");
                continue;
            }
            // Become leader: drain until the queue stays empty, posting
            // each batch's results (including our own) as we go.
            group.leader_active = true;
            while !group.queue.is_empty() {
                let batch = std::mem::take(&mut group.queue);
                drop(group);
                #[cfg(feature = "trace")]
                self.emit(
                    fame_obs::SpanKind::LeaderDrain,
                    txn,
                    0,
                    batch.len() as u64,
                    0,
                );
                let outcome = self.inner().commit_batch(&batch);
                #[cfg(feature = "trace")]
                if outcome.is_ok() {
                    self.emit(fame_obs::SpanKind::GroupSync, txn, 0, batch.len() as u64, 0);
                }
                // Version install (Snapshot feature): the drained batch is
                // durable and finished, so its page versions become the
                // committed images at the next clock tick. Runs with no
                // manager/group mutex held — the hook takes per-page chain
                // locks in the buffer pool.
                #[cfg(feature = "snapshot")]
                if outcome.is_ok() {
                    let ts = self.clock.fetch_add(1, std::sync::atomic::Ordering::AcqRel) + 1;
                    if let Some(hook) = self.install.get() {
                        hook(&batch, ts);
                    }
                }
                group = self.group.lock().expect("group state poisoned");
                match &outcome {
                    Ok(()) => {
                        for &t in &batch {
                            group.done.insert(t, Ok(()));
                        }
                    }
                    Err(e) => {
                        let text = e.to_string();
                        for &t in &batch {
                            group.done.insert(t, Err(text.clone()));
                        }
                    }
                }
                self.group_cv.notify_all();
            }
            group.leader_active = false;
            self.group_cv.notify_all();
            // Loop: our own result is now in `done`.
        };
        drop(group);

        match result {
            Ok(()) => {
                self.locks.release_all(txn);
                #[cfg(feature = "obs")]
                {
                    let latency = fame_obs::monotonic_ns() - t0;
                    self.inner().obs().commit_latency.record_ns(latency);
                    #[cfg(feature = "trace")]
                    self.emit(fame_obs::SpanKind::TxnCommit, txn, 0, latency, 0);
                }
                Ok(())
            }
            Err(text) => Err(TxnError::GroupCommit(text)),
        }
    }

    /// Abort: returns the compensating actions. The caller applies them to
    /// storage (under the storage mutex) and only then calls
    /// [`SharedTxnManager::release_locks`] — releasing the block locks
    /// before the undo is applied would let a waiter read the un-undone
    /// value.
    pub fn abort(&self, txn: TxnId) -> Result<Vec<UndoAction>, TxnError> {
        let undo = self.inner().abort(txn)?;
        #[cfg(feature = "trace")]
        self.emit(fame_obs::SpanKind::TxnAbort, txn, 0, undo.len() as u64, 0);
        Ok(undo)
    }

    /// Drop `txn`'s block locks (after an abort's undo has been applied).
    pub fn release_locks(&self, txn: TxnId) {
        self.locks.release_all(txn);
    }

    /// Run `f` against the wrapped manager: logging a write the caller has
    /// locked, checkpoint, recovery seal, obs snapshots.
    pub fn with_inner<R>(&self, f: impl FnOnce(&mut TxnManager) -> R) -> R {
        f(&mut self.inner())
    }
}

impl std::fmt::Debug for SharedTxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedTxnManager").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogWriter;
    use crate::manager::CommitPolicy;
    use fame_os::InMemoryDevice;
    use std::sync::Arc;

    fn shared(policy: CommitPolicy) -> Arc<SharedTxnManager> {
        let log = LogWriter::new(Box::new(InMemoryDevice::new(512)), 0).unwrap();
        Arc::new(SharedTxnManager::new(
            TxnManager::new(log, policy),
            Duration::from_millis(500),
        ))
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn single_writer_lifecycle() {
        let m = shared(CommitPolicy::Force);
        let t = m.begin().unwrap();
        m.lock_write(t, b"k").unwrap();
        m.with_inner(|i| i.log_put(t, 0, b"k", None, b"v")).unwrap();
        m.commit(t).unwrap();
        assert_eq!(m.with_inner(|i| i.stats()), (1, 0));
        assert!(m.with_inner(|i| i.active()).is_empty());
        assert_eq!(m.lock_table().locked_blocks(), 0, "commit released");
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn concurrent_disjoint_writers_all_commit() {
        let m = shared(CommitPolicy::Force);
        let threads = 4;
        let per = 25;
        std::thread::scope(|s| {
            for w in 0..threads {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..per {
                        let t = m.begin().unwrap();
                        let key = format!("w{w}-{i}").into_bytes();
                        m.lock_write(t, &key).unwrap();
                        m.with_inner(|i| i.log_put(t, 0, &key, None, b"v")).unwrap();
                        m.commit(t).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.with_inner(|i| i.stats()), (threads * per, 0));
        assert_eq!(m.lock_table().locked_blocks(), 0);
    }

    #[cfg(feature = "commit-group")]
    #[test]
    fn group_commit_counts_each_drain_once() {
        // Sequential commits through the group channel: each is its own
        // drain (no concurrency), so Group{4} syncs every 4th commit —
        // identical accounting to the single-writer path.
        let m = shared(CommitPolicy::Group { group_size: 4 });
        for i in 0..8u32 {
            let t = m.begin().unwrap();
            let key = i.to_be_bytes();
            m.lock_write(t, &key).unwrap();
            m.with_inner(|i| i.log_put(t, 0, &key, None, b"v")).unwrap();
            m.commit(t).unwrap();
        }
        assert_eq!(
            m.with_inner(|i| i.log_device_stats()).syncs,
            2,
            "8 drains / group of 4"
        );
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn contended_key_serializes_with_consistent_history() {
        let m = shared(CommitPolicy::Force);
        let threads = 4;
        let per = 10;
        let aborted = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let m = Arc::clone(&m);
                let aborted = &aborted;
                s.spawn(move || {
                    for _ in 0..per {
                        let t = m.begin().unwrap();
                        match m.lock_write(t, b"hot") {
                            Ok(()) => {
                                m.with_inner(|i| i.log_put(t, 0, b"hot", None, b"v"))
                                    .unwrap();
                                m.commit(t).unwrap();
                            }
                            Err(_) => {
                                // Timeout/deadlock: abort and move on.
                                let _ = m.abort(t);
                                m.release_locks(t);
                                aborted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        let (committed, ab) = m.with_inner(|i| i.stats());
        assert_eq!(
            committed + ab,
            threads * per,
            "every txn either committed or aborted"
        );
        assert_eq!(ab, aborted.load(std::sync::atomic::Ordering::Relaxed));
        assert_eq!(m.lock_table().locked_blocks(), 0);
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn failed_drain_leaves_all_txns_active_and_retriable() {
        use fame_os::{FaultDevice, FaultPlan, SharedDevice};
        let plan = FaultPlan {
            fail_after_syncs: Some(0),
            ..Default::default()
        };
        let fault = SharedDevice::new(FaultDevice::new(InMemoryDevice::new(512), plan));
        let handle = fault.clone();
        let log = LogWriter::new(Box::new(fault), 0).unwrap();
        let m = SharedTxnManager::new(
            TxnManager::new(log, CommitPolicy::Force),
            Duration::from_millis(200),
        );

        let t = m.begin().unwrap();
        m.lock_write(t, b"k").unwrap();
        m.with_inner(|i| i.log_put(t, 0, b"k", None, b"v")).unwrap();
        assert!(m.commit(t).is_err(), "sync fails");
        assert_eq!(m.with_inner(|i| i.active()), vec![t]);
        assert_eq!(m.with_inner(|i| i.stats()), (0, 0));
        assert!(
            !m.lock_table().holders(b"k").is_empty(),
            "block lock still held after failed drain"
        );

        handle.with(|d| d.heal());
        m.commit(t).unwrap();
        assert_eq!(m.with_inner(|i| i.stats()), (1, 0));
        assert_eq!(m.lock_table().locked_blocks(), 0);
    }

    #[cfg(all(feature = "snapshot", feature = "commit-force"))]
    #[test]
    fn install_hook_gets_each_drain_at_a_fresh_timestamp() {
        type Installs = Vec<(Vec<TxnId>, u64)>;
        let m = shared(CommitPolicy::Force);
        let seen: Arc<Mutex<Installs>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        m.set_install_hook(Box::new(move |batch, ts| {
            sink.lock().unwrap().push((batch.to_vec(), ts));
        }));
        assert_eq!(m.commit_ts(), 0);
        for i in 0..3u32 {
            let t = m.begin().unwrap();
            let key = i.to_be_bytes();
            m.lock_write(t, &key).unwrap();
            m.with_inner(|i| i.log_put(t, 0, &key, None, b"v")).unwrap();
            m.commit(t).unwrap();
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 3, "one install per drain");
        let ts: Vec<u64> = seen.iter().map(|(_, t)| *t).collect();
        assert_eq!(ts, vec![1, 2, 3], "timestamps are dense and monotonic");
        assert!(seen.iter().all(|(b, _)| b.len() == 1));
        assert_eq!(m.commit_ts(), 3);
    }

    #[cfg(feature = "commit-force")]
    #[test]
    fn deadlock_victim_can_abort_and_release() {
        let m = shared(CommitPolicy::Force);
        let t1 = m.begin().unwrap();
        let t2 = m.begin().unwrap();
        m.lock_write(t1, b"a").unwrap();
        m.lock_write(t2, b"b").unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.lock_write(t2, b"a"));
        std::thread::sleep(Duration::from_millis(30));
        // t1 closes the cycle; t2 (youngest) gets the deadlock error.
        let m1 = Arc::clone(&m);
        let h1 = std::thread::spawn(move || m1.lock_write(t1, b"b"));
        assert!(matches!(h.join().unwrap(), Err(TxnError::Lock(_))));
        let undo = m.abort(t2).unwrap();
        assert!(undo.is_empty());
        m.release_locks(t2);
        h1.join().unwrap().unwrap();
        m.with_inner(|i| i.log_put(t1, 0, b"b", None, b"v"))
            .unwrap();
        m.commit(t1).unwrap();
        assert_eq!(m.with_inner(|i| i.stats()), (1, 1));
    }
}
