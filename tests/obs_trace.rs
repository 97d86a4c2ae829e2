//! Integration: the `obs-trace` feature (*Statistics → Tracing* in the
//! extended Figure 2 model).
//!
//! Three contracts:
//!
//! * the chrome://tracing JSON export schema is **pinned** — a golden
//!   test builds a deterministic event sequence through the explicit
//!   timestamp seam and compares the exact string, so any schema drift is
//!   a deliberate diff here, not a silent breakage of downstream parsers;
//! * the rotating windowed metrics are coherent — proptests for snapshot
//!   monotonicity under appends and for merge-equals-sum over arbitrary
//!   sample sequences;
//! * end to end, a manufactured rendezvous deadlock through
//!   `Database::writer()` handles leaves a **complete causal chain** in
//!   `Database::dump_trace()` — `lock-wait → deadlock-victim → txn-abort
//!   → retry → txn-commit` with matching transaction ids.

use fame_dbms::fame_obs::{
    chrome_trace_json, SpanKind, TraceSink, WindowedCounter, WindowedHistogram,
};
use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::{Concurrency, Database, DbmsConfig, TxnConfig, TxnHandle};
use proptest::prelude::*;

// ---- golden: chrome-trace JSON schema ----------------------------------

/// The pinned export schema. `emit_at` drives the deterministic seam, a
/// single ring keeps ticket order stable, and the expected string is
/// written out byte for byte. If this test fails, either fix the
/// regression or update the golden below *and* every consumer (the JSON
/// assertions of the deadlock test below, EXPERIMENTS.md E13).
#[test]
fn chrome_trace_json_schema_is_pinned() {
    let sink = TraceSink::new(1, 8, 1_000_000_000);
    sink.emit_at(1_500, SpanKind::LockWait, 7, 3, 42, 2);
    sink.emit_at(2_000, SpanKind::DeadlockVictim, 7, 3, 42, 2);
    sink.emit_at(2_250, SpanKind::TxnAbort, 7, 0, 0, 0);
    sink.emit_at(3_000, SpanKind::Retry, 9, 7, 0, 0);
    sink.emit_at(4_123, SpanKind::TxnCommit, 9, 0, 900, 0);
    let json = chrome_trace_json(&sink.events());

    let expected = concat!(
        "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
        "{\"name\":\"lock-wait\",\"cat\":\"fame\",\"ph\":\"i\",\"s\":\"t\",\"ts\":1.500,\"pid\":1,\"tid\":0,",
        "\"args\":{\"span\":0,\"txn\":7,\"parent\":3,\"a\":42,\"b\":2}},",
        "{\"name\":\"deadlock-victim\",\"cat\":\"fame\",\"ph\":\"i\",\"s\":\"t\",\"ts\":2.000,\"pid\":1,\"tid\":0,",
        "\"args\":{\"span\":1,\"txn\":7,\"parent\":3,\"a\":42,\"b\":2}},",
        "{\"name\":\"txn-abort\",\"cat\":\"fame\",\"ph\":\"i\",\"s\":\"t\",\"ts\":2.250,\"pid\":1,\"tid\":0,",
        "\"args\":{\"span\":2,\"txn\":7,\"parent\":0,\"a\":0,\"b\":0}},",
        "{\"name\":\"retry\",\"cat\":\"fame\",\"ph\":\"i\",\"s\":\"t\",\"ts\":3.000,\"pid\":1,\"tid\":0,",
        "\"args\":{\"span\":3,\"txn\":9,\"parent\":7,\"a\":0,\"b\":0}},",
        "{\"name\":\"txn-commit\",\"cat\":\"fame\",\"ph\":\"i\",\"s\":\"t\",\"ts\":4.123,\"pid\":1,\"tid\":0,",
        "\"args\":{\"span\":4,\"txn\":9,\"parent\":0,\"a\":900,\"b\":0}}",
        "]}",
    );
    assert_eq!(json, expected);
}

/// Span ids must be unique across rings even at equal ring-local tickets
/// (the chrome `args.span` field is how a chain's events are referenced).
#[test]
fn span_ids_unique_in_export() {
    let sink = TraceSink::new(4, 8, 1_000_000_000);
    for i in 0..16 {
        sink.emit_at(i, SpanKind::PoolMiss, 0, 0, i, 0);
    }
    let events = sink.events();
    let mut ids: Vec<u64> = events.iter().map(|e| e.span_id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), events.len(), "span ids collide across rings");
}

// ---- proptests: windowed snapshot coherence ----------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Appending samples never shrinks what a snapshot at a fixed `now`
    /// reports: window count and per-window totals are monotone, and the
    /// merged count equals the number of in-horizon samples.
    #[test]
    fn windowed_histogram_snapshots_are_monotone(
        samples in prop::collection::vec((0u64..4_000, 1u64..1_000_000), 1..64),
    ) {
        const WINDOW: u64 = 1_000;
        const SLOTS: usize = 4;
        let h = WindowedHistogram::new(WINDOW, SLOTS);
        // Single-threaded appends in timestamp order (the concurrent
        // rotation races are bounded by design and tested separately).
        let mut sorted = samples.clone();
        sorted.sort_by_key(|&(at, _)| at);
        let now = sorted.last().unwrap().0;
        let horizon = (now / WINDOW).saturating_sub(SLOTS as u64 - 1);

        let mut prev_count = 0u64;
        let mut retained = 0u64;
        for &(at, v) in &sorted {
            h.record_at(at, v);
            if at / WINDOW >= horizon {
                retained += 1;
            }
            let snap = h.snapshot_at(now);
            let count = snap.merged().count;
            prop_assert!(count >= prev_count, "snapshot count shrank: {count} < {prev_count}");
            prev_count = count;
        }
        let final_snap = h.snapshot_at(now);
        prop_assert_eq!(final_snap.merged().count, retained);
        // Windows come back newest-first with strictly decreasing indices.
        let idx: Vec<u64> = final_snap.windows.iter().map(|w| w.index).collect();
        for pair in idx.windows(2) {
            prop_assert!(pair[0] > pair[1], "windows not newest-first: {:?}", idx);
        }
    }

    /// The merged histogram equals the bucket-wise sum of the per-window
    /// histograms: count, sum, and max all agree.
    #[test]
    fn windowed_merge_equals_sum_of_windows(
        samples in prop::collection::vec((0u64..8_000, 1u64..10_000_000), 1..64),
    ) {
        let h = WindowedHistogram::new(1_000, 8);
        let mut now = 0;
        for &(at, v) in &samples {
            h.record_at(at, v);
            now = now.max(at);
        }
        let snap = h.snapshot_at(now);
        let merged = snap.merged();
        let count: u64 = snap.windows.iter().map(|w| w.hist.count).sum();
        let sum: u64 = snap.windows.iter().map(|w| w.hist.sum_ns).sum();
        let max = snap.windows.iter().map(|w| w.hist.max_ns).max().unwrap_or(0);
        prop_assert_eq!(merged.count, count);
        prop_assert_eq!(merged.sum_ns, sum);
        prop_assert_eq!(merged.max_ns, max);
        // Percentiles of the merge are bounded by the global max bucket.
        prop_assert!(merged.percentile_ns(99) >= merged.percentile_ns(50));
    }

    /// Counter rotation: totals never exceed the number of events, and
    /// events landing inside the retained horizon are all counted.
    #[test]
    fn windowed_counter_total_is_coherent(
        stamps in prop::collection::vec(0u64..6_000, 1..64),
    ) {
        const WINDOW: u64 = 1_000;
        const SLOTS: usize = 4;
        let c = WindowedCounter::new(WINDOW, SLOTS);
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        let now = *sorted.last().unwrap();
        let horizon = (now / WINDOW).saturating_sub(SLOTS as u64 - 1);
        let retained = sorted.iter().filter(|&&at| at / WINDOW >= horizon).count() as u64;
        for &at in &sorted {
            c.inc_at(at);
        }
        let snap = c.snapshot_at(now);
        prop_assert_eq!(snap.total(), retained);
        prop_assert!(snap.latest_rate_per_sec() >= 0.0);
    }
}

// ---- end to end: causal deadlock chain through the facade ---------------

fn trace_config() -> DbmsConfig {
    let mut cfg = DbmsConfig::in_memory();
    cfg.concurrency = Concurrency::MultiWriter { shards: 0 };
    cfg.transactions = Some(TxnConfig {
        commit: CommitPolicy::Group { group_size: 4 },
    });
    cfg.stats.span_rings = 4;
    cfg.stats.span_capacity = 1_024;
    cfg
}

/// Two writers acquire the same two keys in opposite order across a
/// barrier: a deadlock is guaranteed, one transaction is aborted as the
/// victim and retried through `begin_retry`. The dumped trace must carry
/// the complete spliced chain.
#[test]
fn deadlock_chain_is_reconstructable_from_dump() {
    let mut cfg = trace_config();
    cfg.stats.anomaly_deadlocks_per_sec = Some(0.5);
    let mut db = Database::open(cfg).unwrap();
    let writer = db.writer().unwrap();

    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for (first, second) in [(b"kA", b"kB"), (b"kB", b"kA")] {
            let w = writer.clone();
            let barrier = &barrier;
            s.spawn(move || {
                let mut prior: Option<TxnHandle> = None;
                let mut rendezvous = true;
                loop {
                    let txn = match prior {
                        None => w.begin().unwrap(),
                        Some(v) => w.begin_retry(v).unwrap(),
                    };
                    let r = w.put(txn, first, b"v").and_then(|()| {
                        if rendezvous {
                            barrier.wait();
                            rendezvous = false;
                        }
                        w.put(txn, second, b"v")
                    });
                    match r {
                        Ok(()) => {
                            w.commit(txn).unwrap();
                            return;
                        }
                        Err(_) => {
                            w.abort(txn).unwrap();
                            prior = Some(txn);
                        }
                    }
                }
            });
        }
    });
    drop(writer);

    // The victim landed in the newest window: the poll a server embedding
    // would run fires the edge-triggered anomaly here, and only once.
    let anomaly = db.trace_anomaly().expect("the deadlock rate crossed 0.5/s");
    assert_eq!(db.trace_anomaly(), None, "one crossing fired twice");
    let dump = db.flight_recorder().dump(Some(anomaly.reason));
    let reason = dump.anomaly.as_deref().expect("the dump is stamped");
    assert!(reason.contains("deadlocks/s"), "{reason}");
    let events = &dump.events;

    // A victim exists, and its full causal chain survives in the rings.
    let victim = events
        .iter()
        .find(|e| e.kind == SpanKind::DeadlockVictim)
        .expect("rendezvous must produce a deadlock victim");
    let v = victim.txn;
    assert!(
        events
            .iter()
            .any(|e| e.kind == SpanKind::LockWait && e.txn == v),
        "victim txn {v} has no lock-wait edge"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == SpanKind::TxnAbort && e.txn == v),
        "victim txn {v} has no abort event"
    );
    let retry = events
        .iter()
        .find(|e| e.kind == SpanKind::Retry && e.parent == v)
        .expect("victim must be retried with a spliced parent id");
    assert!(
        events
            .iter()
            .any(|e| e.kind == SpanKind::TxnCommit && e.txn == retry.txn),
        "retry txn {} never committed",
        retry.txn
    );
    // The wait-for edge names a real holder: the lock-wait's parent is a
    // transaction that also appears in the trace.
    let wait = events
        .iter()
        .find(|e| e.kind == SpanKind::LockWait && e.txn == v)
        .unwrap();
    assert!(
        wait.parent != v,
        "a transaction cannot wait on itself in the rendezvous"
    );
    // The chrome export carries the chain's ids.
    let json = dump.to_chrome_json();
    assert!(json.contains("\"name\":\"deadlock-victim\""), "{json}");
    assert!(json.contains(&format!("\"parent\":{v}")), "{json}");

    // Windowed metrics observed the storm.
    let w = db.trace_windows();
    assert!(w.deadlocks.total() >= 1);
    assert!(w.recorded >= events.len() as u64);

    // Both keys landed (both transactions eventually committed).
    assert_eq!(db.get(b"kA").unwrap().as_deref(), Some(b"v".as_slice()));
    assert_eq!(db.get(b"kB").unwrap().as_deref(), Some(b"v".as_slice()));
}

/// The facade's single-writer transaction path also emits spans (begin /
/// commit / abort), and `StatsSnapshot` carries the windowed metrics.
#[test]
fn facade_transactions_emit_spans() {
    let mut cfg = DbmsConfig::in_memory();
    cfg.transactions = Some(TxnConfig {
        commit: CommitPolicy::Force,
    });
    let mut db = Database::open(cfg).unwrap();

    let t = db.begin().unwrap();
    db.txn_put(t, b"k", b"v").unwrap();
    db.commit(t).unwrap();
    let t = db.begin().unwrap();
    db.txn_put(t, b"k2", b"v2").unwrap();
    db.abort(t).unwrap();
    assert_eq!(db.get(b"k").unwrap().as_deref(), Some(b"v".as_slice()));

    let dump = db.dump_trace();
    let kinds: Vec<SpanKind> = dump.events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&SpanKind::TxnBegin));
    assert!(kinds.contains(&SpanKind::TxnCommit));
    assert!(kinds.contains(&SpanKind::TxnAbort));
    // Each lifecycle edge once — and the plain `get` only in the op trace:
    // facade operations would evict the causal events from the recorder.
    assert_eq!(kinds.len(), 4, "{kinds:?}");
    assert!(!kinds.contains(&SpanKind::Get));
    let ops: Vec<SpanKind> = db.op_trace().iter().map(|e| e.kind).collect();
    assert_eq!(ops.len(), 5, "{ops:?}");
    assert_eq!(ops.last(), Some(&SpanKind::Get));

    let stats = db.stats().unwrap();
    assert!(stats.windows.recorded >= 3);
    assert!(stats.windows.commit.merged().count >= 1);
}

/// Dumping is non-destructive and repeatable: two dumps see the same
/// events, and `to_tsv` rows agree with the event count.
#[test]
fn dump_is_repeatable_and_tsv_matches() {
    let mut cfg = DbmsConfig::in_memory();
    cfg.transactions = Some(TxnConfig {
        commit: CommitPolicy::Force,
    });
    let mut db = Database::open(cfg).unwrap();
    let t = db.begin().unwrap();
    db.txn_put(t, b"k", b"v").unwrap();
    db.commit(t).unwrap();

    let d1 = db.dump_trace();
    let d2 = db.dump_trace();
    assert_eq!(d1.events, d2.events);
    let tsv = d1.to_tsv();
    assert_eq!(
        tsv.lines().count(),
        d1.events.len() + 1,
        "header + one row per event"
    );
    assert!(tsv.starts_with("at_ns\t"));
}
