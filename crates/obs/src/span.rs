//! Span events and the ring that holds them — the one event type, one kind
//! enum and one ring of the *Statistics* feature.
//!
//! The facade's op trace is a single [`SpanRing`] of the most recent
//! operations (`put`, `get`, `txn-commit`, …). The *Tracing* child
//! (`Statistics → Tracing`) fans the same ring out per thread behind a
//! `TraceSink` and records *causal* events into it, where a span event is
//! one edge in a transaction's causal chain:
//!
//! ```text
//! txn-begin → lock-wait (holder txn id) → deadlock-victim → [abort]
//!     retry (parent = victim txn id) → group-enqueue → leader-drain
//!     → group-sync → txn-commit
//! ```
//!
//! Causality is keyed on **transaction ids**, not thread-local context:
//! every probe site already knows the acting transaction (the lock table
//! knows requester *and* holders, the group commit knows the leader and
//! its batch), so events from different threads join into one chain by
//! their `txn` field, and chains broken by an abort are spliced by the
//! `retry` event's `parent` field. That keeps the record path
//! allocation-free — a [`SpanEvent`] is seven words, no strings, no
//! boxing — which is what lets the rings stay lock-free.
//!
//! # The ring
//!
//! Probe sites sit on paths we must not slow down or, worse, block: the
//! lock table emits while holding its table mutex, the pool emits under a
//! shard latch. So recording never takes a lock:
//!
//! * A ring is owned by **at most one writer at a time**: recording claims
//!   the ring's `busy` flag with a single compare-exchange and gives up
//!   (returns `false`) when another thread is mid-record — it never spins.
//! * Within a claimed ring the writer is exclusive, so each slot needs to
//!   defend only against concurrent *readers*. Slots use the audited
//!   seqlock idiom of `fame-buffer`'s frames: store odd ticket, Release
//!   fence, payload stores, publish even ticket with Release; readers
//!   re-validate after an Acquire fence and skip torn slots.
//! * Rings overwrite oldest (slot = ticket % capacity), so memory is
//!   bounded at init like every other fame-obs structure.
//!
//! Draining ([`SpanRing::events`]) is non-destructive: it copies every
//! currently-valid slot, so a post-mortem can dump repeatedly.

use std::fmt;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

/// What happened. Discriminants are stable (they appear in TSV exports);
/// append, never reorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// A transaction started. `txn` = its id.
    TxnBegin = 0,
    /// A transaction committed. `txn` = its id, `a` = commit latency (ns).
    TxnCommit = 1,
    /// A transaction aborted. `txn` = its id.
    TxnAbort = 2,
    /// A new transaction retries an aborted one. `txn` = the new id,
    /// `parent` = the aborted transaction's id — the splice that keeps a
    /// causal chain whole across an abort.
    Retry = 3,
    /// A lock request queued behind a conflicting holder. `txn` =
    /// requester, `parent` = first current holder (the wait-for edge),
    /// `a` = block id, `b` = holder count.
    LockWait = 4,
    /// A queued request was granted. `txn` = requester, `a` = wait (ns),
    /// `b` = block id.
    LockGrant = 5,
    /// A sole-holder S→X upgrade was granted. `txn` = holder, `a` = block.
    LockUpgrade = 6,
    /// Deadlock detection chose this transaction as the victim. `txn` =
    /// victim, `a` = block id it was waiting for.
    DeadlockVictim = 7,
    /// A lock wait hit the timeout backstop. `txn` = requester, `a` = block.
    TimeoutAbort = 8,
    /// A committing transaction joined the group-commit queue. `txn` = it.
    GroupEnqueue = 9,
    /// The queue leader started draining. `txn` = leader, `a` = batch size.
    LeaderDrain = 10,
    /// The leader synced a drained batch. `txn` = leader, `a` = batch size.
    GroupSync = 11,
    /// Buffer-pool miss. `a` = page id, `b` = shard index.
    PoolMiss = 12,
    /// Buffer-pool eviction. `a` = evicted page id, `b` = frame index.
    PoolEviction = 13,
    /// An optimistic page-token validation failed, forcing a descent
    /// restart. `a` = shard index, `b` = frame index.
    TokenRestart = 14,
    /// Recovery replayed the log. `a` = redo count, `b` = undo count.
    Recovery = 15,
    /// Replication shipped a committed operation batch. `a` = op count.
    ReplShip = 16,
    /// A snapshot handle was created. `a` = its commit timestamp,
    /// `b` = active snapshot count after registration.
    SnapshotBegin = 17,
    /// A snapshot read resolved through the version chain instead of the
    /// head frame. `a` = page id, `b` = the chain entry's commit timestamp.
    SnapshotResolve = 18,
    /// Version-chain pruning reclaimed old page images. `a` = page id,
    /// `b` = entries dropped.
    SnapshotPrune = 19,
    // ---- facade operations (the op trace; never sent to a `TraceSink`,
    // where they would evict the causal events above) ---------------------
    /// `Database::put`. `a` = key length, `b` = value length.
    Put = 20,
    /// `Database::get`. `a` = key length, `b` = 1 when the key was found.
    Get = 21,
    /// `Database::remove`. `a` = key length, `b` = 1 when the key existed.
    Remove = 22,
    /// `Database::update`. `a` = key length, `b` = value length.
    Update = 23,
    /// `Database::apply_batch`. `a` = operations submitted.
    Batch = 24,
    /// `Database::sync`.
    Sync = 25,
    /// A checkpoint record was written.
    Checkpoint = 26,
    /// `Database::sql`. `a` = statement length.
    Query = 27,
}

impl SpanKind {
    /// Stable lower-case label (chrome trace event name, TSV column).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::TxnBegin => "txn-begin",
            SpanKind::TxnCommit => "txn-commit",
            SpanKind::TxnAbort => "txn-abort",
            SpanKind::Retry => "retry",
            SpanKind::LockWait => "lock-wait",
            SpanKind::LockGrant => "lock-grant",
            SpanKind::LockUpgrade => "lock-upgrade",
            SpanKind::DeadlockVictim => "deadlock-victim",
            SpanKind::TimeoutAbort => "timeout-abort",
            SpanKind::GroupEnqueue => "group-enqueue",
            SpanKind::LeaderDrain => "leader-drain",
            SpanKind::GroupSync => "group-sync",
            SpanKind::PoolMiss => "pool-miss",
            SpanKind::PoolEviction => "pool-eviction",
            SpanKind::TokenRestart => "token-restart",
            SpanKind::Recovery => "recovery",
            SpanKind::ReplShip => "repl-ship",
            SpanKind::SnapshotBegin => "snapshot-begin",
            SpanKind::SnapshotResolve => "snapshot-resolve",
            SpanKind::SnapshotPrune => "snapshot-prune",
            SpanKind::Put => "put",
            SpanKind::Get => "get",
            SpanKind::Remove => "remove",
            SpanKind::Update => "update",
            SpanKind::Batch => "batch",
            SpanKind::Sync => "sync",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Query => "query",
        }
    }

    /// Inverse of the `repr(u8)` discriminant; `None` for unknown values
    /// (a ring slot torn past recognition never decodes to garbage).
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        Some(match v {
            0 => SpanKind::TxnBegin,
            1 => SpanKind::TxnCommit,
            2 => SpanKind::TxnAbort,
            3 => SpanKind::Retry,
            4 => SpanKind::LockWait,
            5 => SpanKind::LockGrant,
            6 => SpanKind::LockUpgrade,
            7 => SpanKind::DeadlockVictim,
            8 => SpanKind::TimeoutAbort,
            9 => SpanKind::GroupEnqueue,
            10 => SpanKind::LeaderDrain,
            11 => SpanKind::GroupSync,
            12 => SpanKind::PoolMiss,
            13 => SpanKind::PoolEviction,
            14 => SpanKind::TokenRestart,
            15 => SpanKind::Recovery,
            16 => SpanKind::ReplShip,
            17 => SpanKind::SnapshotBegin,
            18 => SpanKind::SnapshotResolve,
            19 => SpanKind::SnapshotPrune,
            20 => SpanKind::Put,
            21 => SpanKind::Get,
            22 => SpanKind::Remove,
            23 => SpanKind::Update,
            24 => SpanKind::Batch,
            25 => SpanKind::Sync,
            26 => SpanKind::Checkpoint,
            27 => SpanKind::Query,
            _ => return None,
        })
    }
}

/// One span event, as drained from a ring. Plain data — copying it is
/// seven `u64` moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Ring-local ticket, monotonically increasing per ring from 0.
    pub seq: u64,
    /// Which ring of a `TraceSink` recorded it (≈ which thread; the chrome
    /// export's `tid`); 0 for a stand-alone ring.
    pub ring: u32,
    /// [`crate::monotonic_ns`] timestamp.
    pub at_ns: u64,
    /// The edge kind.
    pub kind: SpanKind,
    /// Acting transaction id; 0 when no transaction is involved
    /// (pool/recovery events, plain facade operations).
    pub txn: u64,
    /// Causal parent: the aborted predecessor for [`SpanKind::Retry`], the
    /// first conflicting holder for [`SpanKind::LockWait`], else 0.
    pub parent: u64,
    /// Kind-specific payload (see [`SpanKind`] docs).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

impl SpanEvent {
    /// Globally unique span id: ring index in the high bits, ring-local
    /// ticket below. Derived, not stored — the rings stay allocation-free.
    pub fn span_id(&self) -> u64 {
        (u64::from(self.ring) << 48) | (self.seq & ((1 << 48) - 1))
    }
}

/// The one line format of a span event (`sql_shell`'s `.trace`, dumps).
impl fmt::Display for SpanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} +{}ns {} txn={} parent={} a={} b={}",
            self.seq,
            self.at_ns,
            self.kind.label(),
            self.txn,
            self.parent,
            self.a,
            self.b
        )
    }
}

/// One seqlock slot: `seq` holds `2·(ticket+1)` once published,
/// `2·(ticket+1) − 1` while the (single) ring writer is inside the write
/// window, and 0 while never written.
struct SpanSlot {
    seq: AtomicU64,
    at_ns: AtomicU64,
    kind: AtomicU64,
    txn: AtomicU64,
    parent: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl SpanSlot {
    const fn empty() -> Self {
        SpanSlot {
            seq: AtomicU64::new(0),
            at_ns: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            txn: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// A single-writer, multi-reader, overwrite-oldest span ring (see the
/// module docs). Capacity is fixed at construction and the ring never
/// allocates afterwards — exactly what an embedded post-mortem buffer
/// wants.
pub struct SpanRing {
    /// Writer-exclusivity claim; see the module docs.
    busy: AtomicBool,
    /// Next ticket. Only the `busy` owner advances it.
    head: AtomicU64,
    slots: Box<[SpanSlot]>,
}

impl SpanRing {
    /// A ring holding the last `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        SpanRing {
            busy: AtomicBool::new(false),
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| SpanSlot::empty()).collect(),
        }
    }

    /// Record an event, timestamping it now. `false` means another thread
    /// was mid-record and the event was dropped; a ring with one recording
    /// thread (the facade's op trace) never drops.
    pub fn record(&self, kind: SpanKind, txn: u64, parent: u64, a: u64, b: u64) -> bool {
        self.record_at(crate::monotonic_ns(), kind, txn, parent, a, b)
    }

    /// [`SpanRing::record`] at an explicit timestamp.
    pub(crate) fn record_at(
        &self,
        at_ns: u64,
        kind: SpanKind,
        txn: u64,
        parent: u64,
        a: u64,
        b: u64,
    ) -> bool {
        if self
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        // Exclusive from here to the Release store of `busy`.
        let ticket = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Seqlock write window (crossbeam idiom, as in SharedFrame):
        // odd marks the slot torn for readers racing the payload stores.
        slot.seq.store(2 * (ticket + 1) - 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.at_ns.store(at_ns, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.txn.store(txn, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(2 * (ticket + 1), Ordering::Release);
        self.head.store(ticket + 1, Ordering::Relaxed);
        self.busy.store(false, Ordering::Release);
        true
    }

    /// Total events recorded over the ring's lifetime (not the retained
    /// count).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first. Allocates the return vector —
    /// dumps are a post-mortem path, not a hot one.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        self.drain_into(0, &mut out);
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Copy every currently-valid slot into `out`, in slot order, stamped
    /// with ring index `ring`.
    pub(crate) fn drain_into(&self, ring: u32, out: &mut Vec<SpanEvent>) {
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let at_ns = slot.at_ns.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let txn = slot.txn.load(Ordering::Relaxed);
            let parent = slot.parent.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // torn by a concurrent overwrite — skip
            }
            let Some(kind) = u8::try_from(kind).ok().and_then(SpanKind::from_u8) else {
                continue;
            };
            out.push(SpanEvent {
                seq: s1 / 2 - 1,
                ring,
                at_ns,
                kind,
                txn,
                parent,
                a,
                b,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_u8() {
        for v in 0..=u8::MAX {
            if let Some(k) = SpanKind::from_u8(v) {
                assert_eq!(k as u8, v);
                assert!(!k.label().is_empty());
            }
        }
        assert_eq!(SpanKind::from_u8(SpanKind::Query as u8 + 1), None);
    }

    /// Discriminants and labels appear in TSV and chrome exports: the
    /// table only ever grows at the end.
    #[test]
    fn kind_table_is_pinned() {
        const LABELS: &str = "txn-begin txn-commit txn-abort retry lock-wait lock-grant \
            lock-upgrade deadlock-victim timeout-abort group-enqueue leader-drain group-sync \
            pool-miss pool-eviction token-restart recovery repl-ship snapshot-begin \
            snapshot-resolve snapshot-prune put get remove update batch sync checkpoint query";
        let labels: Vec<&str> = (0..=u8::MAX)
            .map_while(|v| SpanKind::from_u8(v).map(SpanKind::label))
            .collect();
        assert_eq!(labels, LABELS.split_whitespace().collect::<Vec<_>>());
    }

    #[test]
    fn span_id_separates_rings() {
        let mut e = SpanEvent {
            seq: 7,
            ring: 0,
            at_ns: 0,
            kind: SpanKind::TxnBegin,
            txn: 1,
            parent: 0,
            a: 0,
            b: 0,
        };
        let id0 = e.span_id();
        e.ring = 1;
        assert_ne!(id0, e.span_id());
    }

    // ---- the ring ------------------------------------------------------

    #[test]
    fn events_come_back_in_order() {
        let ring = SpanRing::new(8);
        assert!(ring.record(SpanKind::Put, 0, 0, 4, 16));
        assert!(ring.record(SpanKind::Get, 0, 0, 4, 0));
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, SpanKind::Put);
        assert_eq!(events[1].kind, SpanKind::Get);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert!(events[1].at_ns >= events[0].at_ns);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let ring = SpanRing::new(4);
        for i in 0..10 {
            ring.record(SpanKind::Put, 0, 0, i, 0);
        }
        let events = ring.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].a, 6);
        assert_eq!(events[3].a, 9);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9], "oldest first across the wrap");
        assert_eq!(ring.recorded(), 10);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ring = SpanRing::new(0);
        ring.record(SpanKind::Sync, 0, 0, 0, 0);
        ring.record(SpanKind::Sync, 0, 0, 1, 0);
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].seq, events[0].a), (1, 1), "the newest survives");
    }

    #[test]
    fn event_display_mentions_kind() {
        let ring = SpanRing::new(2);
        ring.record(SpanKind::TxnCommit, 7, 0, 900, 0);
        let text = ring.events()[0].to_string();
        assert!(text.contains("txn-commit"), "{text}");
        assert!(text.contains("txn=7"), "{text}");
        assert!(text.contains("a=900"), "{text}");
    }
}
