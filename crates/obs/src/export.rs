//! Exporters for the *Tracing* feature: chrome://tracing JSON and TSV.
//!
//! The JSON is hand-built (this crate stays dependency-free). Every span
//! event becomes a chrome *instant* event (`"ph":"i"`, thread scope): the
//! causal chain is carried in `args` (`span`, `txn`, `parent`), which the
//! trace viewer shows on click. The schema is pinned by a golden test in
//! `tests/obs_trace.rs`, whose deadlock test also reads the chain's ids
//! back out of the JSON — change it deliberately or not at all.

use std::fmt::Write as _;

use crate::span::SpanEvent;

/// chrome://tracing JSON array of instant events (load via
/// `about:tracing` or [Perfetto](https://ui.perfetto.dev)). `ts` is
/// microseconds with nanosecond decimals (the viewer's native unit);
/// `tid` is the recording ring.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let us_whole = e.at_ns / 1_000;
        let us_frac = e.at_ns % 1_000;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"fame\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{us_whole}.{us_frac:03},\"pid\":1,\"tid\":{},\
             \"args\":{{\"span\":{},\"txn\":{},\"parent\":{},\"a\":{},\"b\":{}}}}}",
            e.kind.label(),
            e.ring,
            e.span_id(),
            e.txn,
            e.parent,
            e.a,
            e.b,
        );
    }
    out.push_str("]}");
    out
}

/// TSV of span events: one row each, stable column order.
pub fn spans_tsv(events: &[SpanEvent]) -> String {
    let mut out = String::from("at_ns\tring\tseq\tspan\tkind\ttxn\tparent\ta\tb\n");
    for e in events {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            e.at_ns,
            e.ring,
            e.seq,
            e.span_id(),
            e.kind.label(),
            e.txn,
            e.parent,
            e.a,
            e.b,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    fn ev(at_ns: u64, kind: SpanKind, txn: u64, parent: u64) -> SpanEvent {
        SpanEvent {
            seq: 0,
            ring: 0,
            at_ns,
            kind,
            txn,
            parent,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn chrome_json_is_wellformed_enough() {
        let json = chrome_trace_json(&[
            ev(1_500, SpanKind::LockWait, 3, 2),
            ev(2_000, SpanKind::Retry, 4, 3),
        ]);
        assert!(json.starts_with('{') && json.ends_with("]}"));
        assert!(json.contains("\"name\":\"lock-wait\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"parent\":3"));
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2);
    }

    #[test]
    fn tsv_row_per_event() {
        let tsv = spans_tsv(&[ev(7, SpanKind::TxnCommit, 1, 0)]);
        let mut lines = tsv.lines();
        assert!(lines.next().unwrap().starts_with("at_ns\t"));
        assert_eq!(lines.next().unwrap(), "7\t0\t0\t0\ttxn-commit\t1\t0\t0\t0");
        assert!(lines.next().is_none());
    }
}
