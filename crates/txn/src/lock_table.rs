//! The S/X block-level lock table (two-phase locking), with a no-wait
//! and a blocking face over one grant rule (`LockTable::try_grant`).
//!
//! * [`LockTable::try_acquire`] is *no-wait*: a conflicting request fails
//!   immediately with [`LockConflict`]. No waits-for graph can form, so the
//!   single-writer engine needs neither a detector nor timeouts; callers
//!   retry or abort, the standard discipline for control-loop code.
//! * [`LockTable::acquire`] *parks* the requester on a condvar in a FIFO
//!   wait queue until the lock is grantable, a configurable timeout
//!   expires, or deadlock detection picks the requester as victim. It is
//!   the concurrency backbone of the `Concurrency → MultiWriter` product:
//!   independent transactions on disjoint blocks proceed in parallel;
//!   conflicting ones serialize by waiting instead of aborting.
//!
//! A product has one table, owned by its [`crate::TxnManager`] and shared
//! by a MultiWriter product's [`crate::SharedTxnManager`]. Callers lock
//! before they log; locks go after a commit or after an abort's undo.
//!
//! Keys are hashed (FNV-1a) to a 64-bit [`BlockId`] so the table size is
//! bounded by live locks, not key length. A hash collision merges two keys
//! into one lock — strictly conservative: colliding transactions wait for
//! each other where they did not need to, but serializability is never
//! weakened (more blocking, never less).
//!
//! Deadlock policy: detection runs at block time (DFS over the waits-for
//! graph: waiter → current holders and earlier queued waiters of its
//! block). On a cycle the *youngest* transaction (largest `TxnId` — least
//! work lost) is aborted: if that is the requester it gets
//! [`LockError::Deadlock`] immediately; otherwise the victim is flagged and
//! woken, and its own `acquire` returns the error. Victims must abort the
//! transaction (releasing all locks) to break the cycle.
//!
//! Lock-order discipline: the table's internal mutex is *leaf-level* — it
//! is never held while acquiring any other lock (condvar waits release it),
//! and callers acquire table locks **before** the storage mutex, never
//! while holding it.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::wal::TxnId;

/// Requested access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (readers).
    Shared,
    /// Exclusive (writers).
    Exclusive,
}

/// A conflicting no-wait lock request ([`LockTable::try_acquire`]'s only
/// error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockConflict {
    /// The key that could not be locked.
    pub key: Vec<u8>,
    /// The transaction that requested it.
    pub requester: TxnId,
    /// The *other* transactions holding the key's block at request time,
    /// so aborts name the txns they collided with in traces.
    pub holders: Vec<TxnId>,
}

impl std::fmt::Display for LockConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lock conflict on key {:?} for txn {} (held by {:?})",
            self.key, self.requester, self.holders
        )
    }
}

impl std::error::Error for LockConflict {}

/// Hashed block identity a lock protects.
pub type BlockId = u64;

/// Hash a key to its lock block (FNV-1a, 64-bit).
pub fn block_of(key: &[u8]) -> BlockId {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a blocking acquisition failed. Both variants carry the holders the
/// requester was waiting on, so aborts are diagnosable in traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The wait exceeded the configured timeout.
    Timeout {
        /// Block that could not be locked.
        block: BlockId,
        /// The waiting transaction.
        requester: TxnId,
        /// Transactions holding the block when the wait gave up.
        holders: Vec<TxnId>,
    },
    /// Deadlock detection chose the requester as victim (youngest in cycle).
    Deadlock {
        /// Block that could not be locked.
        block: BlockId,
        /// The aborted transaction.
        requester: TxnId,
        /// Transactions holding the block when the cycle was found.
        holders: Vec<TxnId>,
    },
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Timeout {
                block,
                requester,
                holders,
            } => write!(
                f,
                "lock timeout on block {block:#x} for txn {requester} (held by {holders:?})"
            ),
            LockError::Deadlock {
                block,
                requester,
                holders,
            } => write!(
                f,
                "deadlock: txn {requester} aborted waiting on block {block:#x} (held by {holders:?})"
            ),
        }
    }
}

impl std::error::Error for LockError {}

/// Lock-wait observations (Statistics feature).
#[cfg(feature = "obs")]
#[derive(Debug, Default)]
pub struct LockObs {
    /// Acquisitions that had to park (at least one condvar wait).
    pub waits: fame_obs::Counter,
    /// Time spent parked, per blocking acquisition.
    pub wait_time: fame_obs::Histogram,
    /// Transactions aborted as deadlock victims.
    pub deadlock_aborts: fame_obs::Counter,
    /// Acquisitions that gave up on timeout.
    pub timeout_aborts: fame_obs::Counter,
}

#[derive(Debug, Default)]
struct BlockEntry {
    /// Holders in shared mode (or exactly one in exclusive mode).
    holders: Vec<TxnId>,
    exclusive: bool,
    /// FIFO wait queue; grants go to the head first.
    queue: VecDeque<(TxnId, LockMode)>,
}

#[derive(Debug, Default)]
struct TableState {
    table: HashMap<BlockId, BlockEntry>,
    /// Reverse index: blocks held per transaction (O(own) release).
    owned: HashMap<TxnId, Vec<BlockId>>,
    /// Deadlock victims flagged by another waiter's detection pass; each
    /// victim discovers its flag on wakeup and returns `Deadlock`.
    victims: Vec<TxnId>,
}

/// Did [`LockTable::try_grant`] grant, and how? The distinction feeds the
/// Tracing feature (upgrade edges are their own span kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grant {
    Denied,
    Granted,
    Upgraded,
}

/// S/X lock table keyed by hashed block.
#[derive(Debug)]
pub struct LockTable {
    state: Mutex<TableState>,
    /// One table-wide condvar: grants are rare relative to waits being
    /// empty, and `notify_all` keeps FIFO re-checks simple and sound.
    cv: Condvar,
    timeout: Duration,
    #[cfg(feature = "obs")]
    obs: LockObs,
    /// Tracing feature: causal span sink, installed once by the facade
    /// after open (the table is constructed deep inside the manager).
    /// Emissions are lock-free, so holding `state` across them is fine.
    #[cfg(feature = "trace")]
    sink: std::sync::OnceLock<std::sync::Arc<fame_obs::TraceSink>>,
}

impl LockTable {
    /// Create a table whose waits give up after `timeout`.
    pub fn new(timeout: Duration) -> Self {
        LockTable {
            state: Mutex::new(TableState::default()),
            cv: Condvar::new(),
            timeout,
            #[cfg(feature = "obs")]
            obs: LockObs::default(),
            #[cfg(feature = "trace")]
            sink: std::sync::OnceLock::new(),
        }
    }

    /// Install the span sink (Tracing feature). Later calls are no-ops —
    /// the first sink wins, matching `OnceLock` semantics.
    #[cfg(feature = "trace")]
    pub fn set_trace_sink(&self, sink: std::sync::Arc<fame_obs::TraceSink>) {
        let _ = self.sink.set(sink);
    }

    #[cfg(feature = "trace")]
    fn emit(&self, kind: fame_obs::SpanKind, txn: TxnId, parent: u64, a: u64, b: u64) {
        if let Some(s) = self.sink.get() {
            s.emit(kind, txn, parent, a, b);
        }
    }

    /// No-wait acquire (or upgrade): a conflict fails immediately and
    /// leaves no trace in the table. Re-acquisition by the holder is a
    /// no-op; the *sole* shared holder may upgrade to exclusive. A request
    /// never overtakes a parked [`LockTable::acquire`] waiter.
    pub fn try_acquire(&self, txn: TxnId, key: &[u8], mode: LockMode) -> Result<(), LockConflict> {
        let block = block_of(key);
        let mut state = self.state.lock().expect("lock table poisoned");
        match Self::try_grant(&mut state, block, txn, mode, false) {
            Grant::Denied => Err(LockConflict {
                key: key.to_vec(),
                requester: txn,
                holders: state.table.get(&block).map_or_else(Vec::new, |e| {
                    e.holders.iter().copied().filter(|&h| h != txn).collect()
                }),
            }),
            Grant::Granted | Grant::Upgraded => Ok(()),
        }
    }

    /// Block until `txn` holds `key`'s block in `mode`, the timeout
    /// expires, or deadlock detection aborts the requester.
    pub fn acquire(&self, txn: TxnId, key: &[u8], mode: LockMode) -> Result<(), LockError> {
        let block = block_of(key);
        let mut state = self.state.lock().expect("lock table poisoned");
        let mut queued = false;
        let mut deadline: Option<Instant> = None;
        #[cfg(feature = "obs")]
        let mut wait_start: Option<u64> = None;

        // `Ok(how)` = granted; `Err(deadlock)` = gave up, as deadlock
        // victim (`true`) or on timeout (`false`).
        let outcome: Result<Grant, bool> = loop {
            // A prior waiter's detection pass may have flagged us.
            if let Some(pos) = state.victims.iter().position(|&v| v == txn) {
                state.victims.swap_remove(pos);
                break Err(true);
            }

            match Self::try_grant(&mut state, block, txn, mode, queued) {
                Grant::Denied => {}
                granted => break Ok(granted),
            }

            if !queued {
                state
                    .table
                    .entry(block)
                    .or_default()
                    .queue
                    .push_back((txn, mode));
                queued = true;
                deadline = Some(Instant::now() + self.timeout);
                #[cfg(feature = "obs")]
                {
                    self.obs.waits.inc();
                    wait_start = Some(fame_obs::monotonic_ns());
                }
                // The wait-for edge: requester behind the current holders.
                #[cfg(feature = "trace")]
                {
                    let (first_holder, n) = state
                        .table
                        .get(&block)
                        .map(|e| (e.holders.first().copied().unwrap_or(0), e.holders.len()))
                        .unwrap_or((0, 0));
                    self.emit(
                        fame_obs::SpanKind::LockWait,
                        txn,
                        first_holder,
                        block,
                        n as u64,
                    );
                }
                // Detect at block time: adding this edge is the only way a
                // cycle can form.
                if let Some(victim) = Self::find_deadlock_victim(&state, txn, block) {
                    if victim == txn {
                        break Err(true);
                    }
                    state.victims.push(victim);
                    self.cv.notify_all();
                }
            }

            let remaining = deadline
                .expect("queued implies deadline")
                .saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                // Drop any victim flag racing with the timeout so it cannot
                // ambush this transaction's next wait.
                state.victims.retain(|&v| v != txn);
                break Err(false);
            }
            let (guard, _timed_out) = self
                .cv
                .wait_timeout(state, remaining)
                .expect("lock table poisoned");
            state = guard;
        };

        // Every way out of a park records how long it lasted.
        #[cfg(feature = "obs")]
        if let Some(t0) = wait_start {
            let waited = fame_obs::monotonic_ns() - t0;
            self.obs.wait_time.record_ns(waited);
            // Grant-after-park: the wait edge resolves. Fresh uncontended
            // grants (the hot path) emit nothing.
            #[cfg(feature = "trace")]
            if outcome.is_ok() {
                self.emit(fame_obs::SpanKind::LockGrant, txn, 0, waited, block);
            }
        }
        match outcome {
            Ok(granted) => {
                if queued {
                    // The next queued waiter may now be grantable too
                    // (e.g. shared readers draining behind us).
                    self.cv.notify_all();
                }
                #[cfg(feature = "trace")]
                if granted == Grant::Upgraded {
                    self.emit(fame_obs::SpanKind::LockUpgrade, txn, 0, block, 0);
                }
                #[cfg(not(feature = "trace"))]
                let _ = granted;
                Ok(())
            }
            Err(deadlock) => {
                let holders = Self::unqueue(&mut state, block, txn);
                #[cfg(feature = "obs")]
                if deadlock {
                    self.obs.deadlock_aborts.inc();
                } else {
                    self.obs.timeout_aborts.inc();
                }
                #[cfg(feature = "trace")]
                self.emit(
                    if deadlock {
                        fame_obs::SpanKind::DeadlockVictim
                    } else {
                        fame_obs::SpanKind::TimeoutAbort
                    },
                    txn,
                    holders.first().copied().unwrap_or(0),
                    block,
                    holders.len() as u64,
                );
                Err(if deadlock {
                    LockError::Deadlock {
                        block,
                        requester: txn,
                        holders,
                    }
                } else {
                    LockError::Timeout {
                        block,
                        requester: txn,
                        holders,
                    }
                })
            }
        }
    }

    /// Release every block `txn` holds and wake the waiters queued on
    /// them. O(blocks held by `txn`) via the reverse index.
    pub fn release_all(&self, txn: TxnId) {
        let mut state = self.state.lock().expect("lock table poisoned");
        state.victims.retain(|&v| v != txn);
        let Some(blocks) = state.owned.remove(&txn) else {
            return;
        };
        let mut woke = false;
        for block in blocks {
            if let Some(e) = state.table.get_mut(&block) {
                e.holders.retain(|&h| h != txn);
                // A waiter parks only while queued on its block, under the
                // state mutex held here — so no queue means nobody to wake,
                // and the no-wait face never pays the condvar's syscall.
                woke |= !e.queue.is_empty();
                if e.holders.is_empty() && e.queue.is_empty() {
                    state.table.remove(&block);
                } else if e.holders.is_empty() {
                    e.exclusive = false;
                } else {
                    e.exclusive = e.exclusive && e.holders.len() == 1;
                }
            }
        }
        drop(state);
        if woke {
            self.cv.notify_all();
        }
    }

    /// Who currently holds a key's block (tests/diagnostics).
    pub fn holders(&self, key: &[u8]) -> Vec<TxnId> {
        let state = self.state.lock().expect("lock table poisoned");
        state
            .table
            .get(&block_of(key))
            .map(|e| e.holders.clone())
            .unwrap_or_default()
    }

    /// Does `txn` hold `key`'s block exclusively? (A debug check.)
    pub(crate) fn holds_exclusive(&self, txn: TxnId, key: &[u8]) -> bool {
        let state = self.state.lock().expect("lock table poisoned");
        state
            .table
            .get(&block_of(key))
            .is_some_and(|e| e.exclusive && e.holders.contains(&txn))
    }

    /// Number of blocks with live locks or waiters.
    pub fn locked_blocks(&self) -> usize {
        self.state.lock().expect("lock table poisoned").table.len()
    }

    /// Lock-wait observations (Statistics feature).
    #[cfg(feature = "obs")]
    pub fn obs(&self) -> &LockObs {
        &self.obs
    }

    /// Grant check under FIFO fairness. Re-entrant grants and upgrades
    /// bypass the queue (a holder queueing behind its own waiters would
    /// deadlock trivially); fresh grants require being first in line.
    fn try_grant(
        state: &mut TableState,
        block: BlockId,
        txn: TxnId,
        mode: LockMode,
        queued: bool,
    ) -> Grant {
        let Some(entry) = state.table.get_mut(&block) else {
            // No entry at all: fresh uncontended grant.
            let e = state.table.entry(block).or_default();
            e.holders.push(txn);
            e.exclusive = mode == LockMode::Exclusive;
            state.owned.entry(txn).or_default().push(block);
            return Grant::Granted;
        };
        let held_by_me = entry.holders.contains(&txn);

        // Already compatible: re-entrant no-op.
        if held_by_me && (mode == LockMode::Shared || entry.exclusive) {
            if queued {
                entry.queue.retain(|&(t, _)| t != txn);
            }
            return Grant::Granted;
        }
        // Upgrade: sole holder S → X jumps the queue.
        if held_by_me && mode == LockMode::Exclusive {
            if entry.holders.len() == 1 {
                entry.exclusive = true;
                if queued {
                    entry.queue.retain(|&(t, _)| t != txn);
                }
                return Grant::Upgraded;
            }
            return Grant::Denied;
        }
        // Fresh grant: must be compatible AND first in line (or not queued
        // yet with an empty queue).
        let fifo_ok = match entry.queue.front() {
            None => true,
            Some(&(head, _)) => queued && head == txn,
        };
        if !fifo_ok {
            return Grant::Denied;
        }
        let compatible = match mode {
            LockMode::Shared => !entry.exclusive,
            LockMode::Exclusive => entry.holders.is_empty(),
        };
        if !compatible {
            return Grant::Denied;
        }
        entry.holders.push(txn);
        entry.exclusive = mode == LockMode::Exclusive;
        if queued {
            entry.queue.retain(|&(t, _)| t != txn);
        }
        state.owned.entry(txn).or_default().push(block);
        Grant::Granted
    }

    /// Remove `txn` from `block`'s queue, returning the current holders
    /// (for the error) and dropping the entry if it became empty.
    fn unqueue(state: &mut TableState, block: BlockId, txn: TxnId) -> Vec<TxnId> {
        let Some(e) = state.table.get_mut(&block) else {
            return Vec::new();
        };
        e.queue.retain(|&(t, _)| t != txn);
        let holders = e.holders.clone();
        if e.holders.is_empty() && e.queue.is_empty() {
            state.table.remove(&block);
        }
        holders
    }

    /// DFS over the waits-for graph from `start` (just queued on
    /// `start_block`). Edges: waiter → holders of its block and earlier
    /// queued waiters (FIFO: they will be granted first). Returns the
    /// youngest (max `TxnId`) transaction on a cycle through `start`, or
    /// `None` if acyclic. Conservative: a collision-merged block or an
    /// earlier compatible waiter can produce a false cycle — the cost is an
    /// unnecessary abort, never a missed deadlock.
    fn find_deadlock_victim(
        state: &TableState,
        start: TxnId,
        start_block: BlockId,
    ) -> Option<TxnId> {
        // waits_on: txn → block it is queued on (a txn waits on one block
        // at a time: acquire is synchronous).
        let mut waits_on: HashMap<TxnId, BlockId> = HashMap::new();
        for (&block, e) in &state.table {
            for &(t, _) in &e.queue {
                waits_on.insert(t, block);
            }
        }
        waits_on.insert(start, start_block);

        let blocked_by = |t: TxnId| -> Vec<TxnId> {
            let Some(&b) = waits_on.get(&t) else {
                return Vec::new();
            };
            let Some(e) = state.table.get(&b) else {
                return Vec::new();
            };
            let mut out: Vec<TxnId> = e.holders.iter().copied().filter(|&h| h != t).collect();
            for &(q, _) in &e.queue {
                if q == t {
                    break;
                }
                out.push(q);
            }
            out
        };

        // Iterative DFS looking for a cycle back to `start`.
        let mut stack: Vec<TxnId> = blocked_by(start);
        let mut seen: Vec<TxnId> = Vec::new();
        let mut on_cycle: Vec<TxnId> = Vec::new();
        while let Some(t) = stack.pop() {
            if t == start {
                // Found a path start → … → start. Collect everyone
                // reachable from start that also reaches start; the
                // conservative victim set is everything seen on the walk.
                on_cycle = seen.clone();
                on_cycle.push(start);
                break;
            }
            if seen.contains(&t) {
                continue;
            }
            seen.push(t);
            stack.extend(blocked_by(t));
        }
        if on_cycle.is_empty() {
            return None;
        }
        // Victim = youngest waiter on the walk (largest TxnId that is
        // actually waiting — aborting a non-waiting holder cannot unblock
        // anyone through this mechanism).
        on_cycle
            .iter()
            .copied()
            .filter(|t| waits_on.contains_key(t))
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn table() -> Arc<LockTable> {
        Arc::new(LockTable::new(Duration::from_millis(200)))
    }

    /// Entries of the reverse index for `txn` (re-acquires must not
    /// double-index, conflicts must not index at all).
    fn blocks_held_by(lt: &LockTable, txn: TxnId) -> usize {
        let state = lt.state.lock().unwrap();
        state.owned.get(&txn).map_or(0, Vec::len)
    }

    #[test]
    fn shared_locks_coexist() {
        let lt = table();
        lt.acquire(1, b"k", LockMode::Shared).unwrap();
        lt.acquire(2, b"k", LockMode::Shared).unwrap();
        assert_eq!(lt.holders(b"k").len(), 2);
    }

    // ---- the no-wait face ------------------------------------------------

    #[test]
    fn no_wait_shared_locks_coexist() {
        let lt = table();
        assert!(lt.try_acquire(1, b"k", LockMode::Shared).is_ok());
        assert!(lt.try_acquire(2, b"k", LockMode::Shared).is_ok());
        assert_eq!(lt.holders(b"k").len(), 2);
    }

    #[test]
    fn no_wait_exclusive_blocks_everyone() {
        let lt = table();
        assert!(lt.try_acquire(1, b"k", LockMode::Exclusive).is_ok());
        assert!(lt.try_acquire(2, b"k", LockMode::Shared).is_err());
        assert!(lt.try_acquire(2, b"k", LockMode::Exclusive).is_err());
    }

    #[test]
    fn no_wait_shared_blocks_exclusive() {
        let lt = table();
        lt.try_acquire(1, b"k", LockMode::Shared).unwrap();
        lt.try_acquire(2, b"k", LockMode::Shared).unwrap();
        assert!(lt.try_acquire(3, b"k", LockMode::Exclusive).is_err());
    }

    #[test]
    fn no_wait_sole_shared_holder_upgrades() {
        let lt = table();
        lt.try_acquire(1, b"k", LockMode::Shared).unwrap();
        assert!(lt.try_acquire(1, b"k", LockMode::Exclusive).is_ok());
        assert!(lt.try_acquire(2, b"k", LockMode::Shared).is_err());
    }

    #[test]
    fn no_wait_upgrade_with_other_readers_fails() {
        let lt = table();
        lt.try_acquire(1, b"k", LockMode::Shared).unwrap();
        lt.try_acquire(2, b"k", LockMode::Shared).unwrap();
        assert!(lt.try_acquire(1, b"k", LockMode::Exclusive).is_err());
    }

    #[test]
    fn no_wait_reacquire_is_noop() {
        let lt = table();
        lt.try_acquire(1, b"k", LockMode::Exclusive).unwrap();
        assert!(lt.try_acquire(1, b"k", LockMode::Exclusive).is_ok());
        assert!(lt.try_acquire(1, b"k", LockMode::Shared).is_ok());
        assert_eq!(lt.holders(b"k"), vec![1]);
        assert_eq!(
            blocks_held_by(&lt, 1),
            1,
            "re-acquire must not double-index"
        );
    }

    #[test]
    fn no_wait_release_frees_keys() {
        let lt = table();
        lt.try_acquire(1, b"a", LockMode::Exclusive).unwrap();
        lt.try_acquire(1, b"b", LockMode::Shared).unwrap();
        lt.try_acquire(2, b"b", LockMode::Shared).unwrap();
        lt.release_all(1);
        assert_eq!(lt.locked_blocks(), 1, "only b remains (held by 2)");
        assert_eq!(blocks_held_by(&lt, 1), 0);
        assert!(lt.try_acquire(3, b"a", LockMode::Exclusive).is_ok());
    }

    #[test]
    fn no_wait_conflict_names_the_holders() {
        let lt = table();
        lt.try_acquire(1, b"k", LockMode::Shared).unwrap();
        lt.try_acquire(2, b"k", LockMode::Shared).unwrap();
        let err = lt.try_acquire(3, b"k", LockMode::Exclusive).unwrap_err();
        assert_eq!(err.key, b"k");
        assert_eq!(err.requester, 3);
        let mut holders = err.holders.clone();
        holders.sort_unstable();
        assert_eq!(holders, vec![1, 2]);
        // Upgrade conflict: the error must name the *other* reader only.
        let err = lt.try_acquire(1, b"k", LockMode::Exclusive).unwrap_err();
        assert_eq!(err.holders, vec![2]);
    }

    #[test]
    fn no_wait_failed_probe_leaves_no_trace() {
        let lt = table();
        lt.try_acquire(1, b"k", LockMode::Exclusive).unwrap();
        assert!(lt.try_acquire(2, b"k", LockMode::Shared).is_err());
        assert_eq!(blocks_held_by(&lt, 2), 0, "conflict must not index the key");
        lt.release_all(2); // releasing a txn with no locks is a no-op
        assert_eq!(lt.holders(b"k"), vec![1]);
        lt.release_all(1);
        assert_eq!(lt.locked_blocks(), 0, "no empty entry left behind");
    }

    #[test]
    fn no_wait_means_no_deadlock() {
        // The canonical deadlock pattern: T1 holds a wants b, T2 holds b
        // wants a. Under no-wait the second acquisition of each simply
        // fails, so no cycle can ever form.
        let lt = table();
        lt.try_acquire(1, b"a", LockMode::Exclusive).unwrap();
        lt.try_acquire(2, b"b", LockMode::Exclusive).unwrap();
        assert!(lt.try_acquire(1, b"b", LockMode::Exclusive).is_err());
        assert!(lt.try_acquire(2, b"a", LockMode::Exclusive).is_err());
        // One of them aborts (releases) and the other proceeds.
        lt.release_all(2);
        assert!(lt.try_acquire(1, b"b", LockMode::Exclusive).is_ok());
    }

    #[test]
    fn no_wait_request_does_not_overtake_a_parked_waiter() {
        // 1 holds S; 2 parks for X; a no-wait S request from 3 is
        // compatible with the holder but must not jump 2's place in line.
        let lt = table();
        lt.try_acquire(1, b"k", LockMode::Shared).unwrap();
        let lt2 = Arc::clone(&lt);
        let writer = std::thread::spawn(move || lt2.acquire(2, b"k", LockMode::Exclusive));
        while lt.state.lock().unwrap().table[&block_of(b"k")]
            .queue
            .is_empty()
        {
            std::thread::yield_now();
        }
        let err = lt.try_acquire(3, b"k", LockMode::Shared).unwrap_err();
        assert_eq!(err.holders, vec![1]);
        lt.release_all(1);
        writer.join().unwrap().unwrap();
        assert_eq!(lt.holders(b"k"), vec![2]);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lt = table();
        lt.acquire(1, b"k", LockMode::Shared).unwrap();
        lt.acquire(1, b"k", LockMode::Shared).unwrap();
        lt.acquire(1, b"k", LockMode::Exclusive).unwrap(); // sole-holder upgrade
        lt.acquire(1, b"k", LockMode::Shared).unwrap(); // X covers S
        assert_eq!(lt.holders(b"k"), vec![1]);
        lt.release_all(1);
        assert_eq!(lt.locked_blocks(), 0);
    }

    #[test]
    fn conflicting_writer_waits_until_release() {
        let lt = table();
        lt.acquire(1, b"k", LockMode::Exclusive).unwrap();
        let lt2 = Arc::clone(&lt);
        let h = std::thread::spawn(move || lt2.acquire(2, b"k", LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(lt.holders(b"k"), vec![1], "2 must still be parked");
        lt.release_all(1);
        h.join().unwrap().unwrap();
        assert_eq!(lt.holders(b"k"), vec![2]);
    }

    #[test]
    fn timeout_names_holders() {
        let lt = Arc::new(LockTable::new(Duration::from_millis(50)));
        lt.acquire(7, b"k", LockMode::Exclusive).unwrap();
        let err = lt.acquire(9, b"k", LockMode::Shared).unwrap_err();
        match err {
            LockError::Timeout {
                requester, holders, ..
            } => {
                assert_eq!(requester, 9);
                assert_eq!(holders, vec![7]);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        // The failed waiter must leave no queue residue.
        lt.release_all(7);
        assert_eq!(lt.locked_blocks(), 0);
    }

    #[test]
    fn fifo_prevents_writer_starvation() {
        // 1 holds S; 2 queues for X; a later S request (3) must queue
        // behind 2 rather than overtaking it.
        let lt = table();
        lt.acquire(1, b"k", LockMode::Shared).unwrap();
        let lt2 = Arc::clone(&lt);
        let writer = std::thread::spawn(move || lt2.acquire(2, b"k", LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(30));
        let lt3 = Arc::clone(&lt);
        let reader = std::thread::spawn(move || lt3.acquire(3, b"k", LockMode::Shared));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(lt.holders(b"k"), vec![1], "both must be parked");
        lt.release_all(1);
        writer.join().unwrap().unwrap();
        // Writer got it first; reader proceeds only after writer releases.
        lt.release_all(2);
        reader.join().unwrap().unwrap();
        lt.release_all(3);
        assert_eq!(lt.locked_blocks(), 0);
    }

    #[test]
    fn deadlock_aborts_youngest() {
        // T1 holds a, T2 holds b; T2 blocks on a, then T1 blocks on b →
        // cycle {1, 2}; youngest (2) is the victim.
        let lt = Arc::new(LockTable::new(Duration::from_secs(5)));
        lt.acquire(1, b"a", LockMode::Exclusive).unwrap();
        lt.acquire(2, b"b", LockMode::Exclusive).unwrap();
        let lt2 = Arc::clone(&lt);
        let h = std::thread::spawn(move || lt2.acquire(2, b"a", LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(30));
        // T1 closing the cycle detects it; T2 (youngest) is flagged, T1
        // keeps waiting until T2's abort releases b.
        let lt1 = Arc::clone(&lt);
        let h1 = std::thread::spawn(move || lt1.acquire(1, b"b", LockMode::Exclusive));
        let err = h.join().unwrap().unwrap_err();
        assert!(
            matches!(err, LockError::Deadlock { requester: 2, .. }),
            "got {err:?}"
        );
        // Victim aborts: release everything, unblocking T1.
        lt.release_all(2);
        h1.join().unwrap().unwrap();
        lt.release_all(1);
        assert_eq!(lt.locked_blocks(), 0);
    }

    #[test]
    fn deadlock_when_requester_is_youngest() {
        // T2 (youngest) closes the cycle itself → immediate error, no wait.
        let lt = Arc::new(LockTable::new(Duration::from_secs(5)));
        lt.acquire(1, b"a", LockMode::Exclusive).unwrap();
        lt.acquire(2, b"b", LockMode::Exclusive).unwrap();
        let lt1 = Arc::clone(&lt);
        let h = std::thread::spawn(move || lt1.acquire(1, b"b", LockMode::Exclusive));
        std::thread::sleep(Duration::from_millis(30));
        let err = lt.acquire(2, b"a", LockMode::Exclusive).unwrap_err();
        assert!(
            matches!(err, LockError::Deadlock { requester: 2, .. }),
            "got {err:?}"
        );
        lt.release_all(2);
        h.join().unwrap().unwrap();
        lt.release_all(1);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn obs_counts_waits_and_aborts() {
        let lt = Arc::new(LockTable::new(Duration::from_millis(40)));
        lt.acquire(1, b"k", LockMode::Exclusive).unwrap();
        let _ = lt.acquire(2, b"k", LockMode::Exclusive).unwrap_err();
        assert_eq!(lt.obs().waits.get(), 1);
        assert_eq!(lt.obs().timeout_aborts.get(), 1);
        assert_eq!(lt.obs().wait_time.count(), 1);
    }
}
