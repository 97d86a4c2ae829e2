//! Integration: the `obs-trace` feature (*Statistics → Tracing* in the
//! extended Figure 2 model).
//!
//! Two contracts:
//!
//! * the chrome://tracing JSON export schema is **pinned** — a golden
//!   test builds a deterministic event sequence through the explicit
//!   timestamp seam and compares the exact string, so any schema drift is
//!   a deliberate diff here, not a silent breakage of downstream parsers;
//! * end to end, a manufactured rendezvous deadlock through
//!   `Database::writer()` handles leaves a **complete causal chain** in
//!   `Database::dump_trace()` — `lock-wait → deadlock-victim → txn-abort
//!   → retry → txn-commit` with matching transaction ids.

use fame_dbms::fame_obs::{chrome_trace_json, spans_tsv, SpanKind, TraceSink};
use fame_dbms::fame_txn::CommitPolicy;
use fame_dbms::{Concurrency, Database, DbmsConfig, TxnConfig, TxnHandle};

// ---- golden: chrome-trace JSON schema ----------------------------------

/// The pinned export schema. `emit_at` drives the deterministic seam, a
/// single ring keeps ticket order stable, and the expected string is
/// written out byte for byte. If this test fails, either fix the
/// regression or update the golden below *and* every consumer (the JSON
/// assertions of the deadlock test below, EXPERIMENTS.md E13).
#[test]
fn chrome_trace_json_schema_is_pinned() {
    let sink = TraceSink::new(1, 8);
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
    let sink = TraceSink::new(4, 8);
    for i in 0..16 {
        sink.emit_at(i, SpanKind::PoolMiss, 0, 0, i, 0);
    }
    let events = sink.events();
    let mut ids: Vec<u64> = events.iter().map(|e| e.span_id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), events.len(), "span ids collide across rings");
}

// ---- end to end: causal deadlock chain through the facade ---------------

fn trace_config() -> DbmsConfig {
    let mut cfg = DbmsConfig::in_memory();
    cfg.concurrency = Concurrency::MultiWriter { shards: 0 };
    cfg.transactions = Some(TxnConfig {
        commit: CommitPolicy::Group { group_size: 4 },
    });
    cfg
}

/// Two writers acquire the same two keys in opposite order across a
/// barrier: a deadlock is guaranteed, one transaction is aborted as the
/// victim and retried through `begin_retry`. The dumped trace must carry
/// the complete spliced chain.
#[test]
fn deadlock_chain_is_reconstructable_from_dump() {
    let mut db = Database::open(trace_config()).unwrap();
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

    let events = &db.dump_trace();

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
    let json = chrome_trace_json(events);
    assert!(json.contains("\"name\":\"deadlock-victim\""), "{json}");
    assert!(json.contains(&format!("\"parent\":{v}")), "{json}");

    // The Statistics base aggregated the storm the events describe.
    let stats = db.stats().unwrap();
    let locks = stats
        .locks
        .expect("a MultiWriter product reports its locks");
    assert!(locks.deadlock_aborts >= 1);
    assert!(locks.wait_time.count >= 1);
    assert!(stats.spans.0 >= events.len() as u64);

    // Both keys landed (both transactions eventually committed).
    assert_eq!(db.get(b"kA").unwrap().as_deref(), Some(b"v".as_slice()));
    assert_eq!(db.get(b"kB").unwrap().as_deref(), Some(b"v".as_slice()));
}

/// The facade's single-writer transaction path also emits spans (begin /
/// commit / abort), while `StatsSnapshot` carries the commit latency.
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

    let kinds: Vec<SpanKind> = db.dump_trace().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&SpanKind::TxnBegin));
    assert!(kinds.contains(&SpanKind::TxnCommit));
    assert!(kinds.contains(&SpanKind::TxnAbort));
    // Each lifecycle edge once — and the plain `get` only in the op trace:
    // facade operations would evict the causal events from the span rings.
    assert_eq!(kinds.len(), 4, "{kinds:?}");
    assert!(!kinds.contains(&SpanKind::Get));
    let ops: Vec<SpanKind> = db.op_trace().iter().map(|e| e.kind).collect();
    assert_eq!(ops.len(), 5, "{ops:?}");
    assert_eq!(ops.last(), Some(&SpanKind::Get));

    let stats = db.stats().unwrap();
    assert!(stats.spans.0 >= 3);
    assert!(stats.commit_latency.expect("a transactional product").count >= 1);
}

/// Dumping is non-destructive and repeatable: two dumps see the same
/// events, and `spans_tsv` rows agree with the event count.
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
    assert_eq!(d1, d2);
    let tsv = spans_tsv(&d1);
    assert_eq!(
        tsv.lines().count(),
        d1.len() + 1,
        "header + one row per event"
    );
    assert!(tsv.starts_with("at_ns\t"));
}
