//! The [`TraceSink`] façade: per-thread [`SpanRing`]s for causal events.
//!
//! One [`SpanRing`] admits one writer at a time and drops an event when a
//! second thread is mid-record. Probe sites run on every writer thread, so
//! the sink owns `R` rings: each thread hashes to a *home ring* (a
//! round-robin thread-local hint), and on collision (two threads sharing
//! a home ring, mid-record) the writer simply probes the next ring; after
//! `R` failed probes the event is counted in `dropped` and abandoned —
//! recording never spins and never blocks the probe site.
//!
//! Draining ([`TraceSink::events`]) is non-destructive: it copies every
//! currently-valid slot and merges all rings by timestamp, so a dump can
//! be taken repeatedly.
//!
//! The sink records events only. The quantities some of them carry (lock
//! wait, commit latency, deadlock victims) are aggregated once, by the
//! Statistics base's histograms and counters at the same probe sites.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::span::{SpanEvent, SpanKind, SpanRing};
use crate::Counter;

/// Round-robin home-ring hint for the calling thread. Purely a load
/// balancer: correctness never depends on it (collisions fall through to
/// probing), so a process-wide counter is fine even though sinks are
/// per-database.
fn ring_hint() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HINT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    HINT.with(|h| {
        let mut v = h.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            h.set(v);
        }
        v
    })
}

/// The per-database trace sink: a fixed set of span rings the probing
/// threads share. One instance per `Database`, shared by `Arc` with every
/// probed layer.
pub struct TraceSink {
    rings: Box<[SpanRing]>,
    /// Events abandoned because every ring was mid-record.
    dropped: Counter,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("rings", &self.rings.len())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped.get())
            .finish_non_exhaustive()
    }
}

impl TraceSink {
    /// `rings` / `capacity` are clamped to ≥ 1 / ≥ 8.
    pub fn new(rings: usize, capacity: usize) -> Self {
        let rings = rings.max(1);
        let capacity = capacity.max(8);
        TraceSink {
            rings: (0..rings).map(|_| SpanRing::new(capacity)).collect(),
            dropped: Counter::new(),
        }
    }

    /// Emit one span event with the current clock.
    pub fn emit(&self, kind: SpanKind, txn: u64, parent: u64, a: u64, b: u64) {
        self.emit_at(crate::monotonic_ns(), kind, txn, parent, a, b);
    }

    /// Emit at an explicit timestamp — the deterministic seam golden
    /// tests drive.
    pub fn emit_at(&self, at_ns: u64, kind: SpanKind, txn: u64, parent: u64, a: u64, b: u64) {
        let n = self.rings.len();
        let start = ring_hint() % n;
        for i in 0..n {
            if self.rings[(start + i) % n].record_at(at_ns, kind, txn, parent, a, b) {
                return;
            }
        }
        self.dropped.inc();
    }

    /// Total events ever recorded (sum of ring tickets).
    pub fn recorded(&self) -> u64 {
        self.rings.iter().map(SpanRing::recorded).sum()
    }

    /// Events abandoned because every ring was busy.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Non-destructive drain: every currently-valid slot of every ring,
    /// merged and sorted by `(at_ns, ring, seq)`.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for (i, ring) in self.rings.iter().enumerate() {
            ring.drain_into(i as u32, &mut out);
        }
        out.sort_by_key(|e| (e.at_ns, e.ring, e.seq));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> TraceSink {
        TraceSink::new(2, 8)
    }

    #[test]
    fn emitted_events_come_back_sorted() {
        let s = sink();
        s.emit_at(30, SpanKind::TxnCommit, 2, 0, 10, 0);
        s.emit_at(10, SpanKind::TxnBegin, 1, 0, 0, 0);
        s.emit_at(20, SpanKind::Retry, 2, 1, 0, 0);
        let ev = s.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(
            ev.iter().map(|e| e.kind).collect::<Vec<_>>(),
            [SpanKind::TxnBegin, SpanKind::Retry, SpanKind::TxnCommit]
        );
        assert_eq!(ev[1].parent, 1);
        assert_eq!(s.recorded(), 3);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let s = TraceSink::new(1, 8);
        for i in 0..20u64 {
            s.emit_at(i, SpanKind::PoolMiss, 0, 0, i, 0);
        }
        let ev = s.events();
        assert_eq!(ev.len(), 8);
        assert_eq!(ev.first().unwrap().a, 12); // 20 - 8
        assert_eq!(ev.last().unwrap().a, 19);
        assert_eq!(s.recorded(), 20);
    }

    #[test]
    fn many_threads_never_block_and_rarely_drop() {
        use std::sync::Arc;
        let s = Arc::new(TraceSink::new(4, 64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    s.emit(SpanKind::PoolMiss, t, 0, i, 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.recorded() + s.dropped(), 8_000);
        // Readers racing writers must only ever see well-formed events.
        for e in s.events() {
            assert_eq!(e.kind, SpanKind::PoolMiss);
            assert!(e.txn < 8);
        }
    }
}
