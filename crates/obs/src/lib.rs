//! Observability primitives for the optional *Statistics* feature.
//!
//! FAME-DBMS composes its products statically (§2.2 of the paper); a
//! cross-cutting concern like statistics must therefore be a feature that
//! is *present or absent at compile time*, not a runtime flag. This crate
//! holds everything the feature needs at run time:
//!
//! * [`Counter`] — a relaxed atomic event counter, safe to read while
//!   writers increment it (readers may see a value that is an instant
//!   stale, never a torn one);
//! * [`Histogram`] — a fixed-bucket latency histogram with power-of-two
//!   nanosecond buckets, no allocation, no floating point on the record
//!   path;
//! * [`SpanRing`] — a fixed-capacity, lock-free ring of recent
//!   [`SpanEvent`]s (the facade's op trace) for post-mortem dumps,
//!   allocated once at init;
//! * [`monotonic_ns`] — a process-relative monotonic clock.
//!
//! Everything here is `Sync`, embedded-friendly (bounded memory, decided
//! at init) and free of dependencies, so the Statistics feature adds no
//! transitive code to a product beyond this crate itself. Products built
//! *without* the feature do not link this crate at all — `cargo tree`
//! proves the absence, which is the composition-level half of the paper's
//! "no overhead" claim (Fig. 1b).
//!
//! The optional `trace` cargo feature (the model's `Statistics → Tracing`
//! child) adds what only tracing does — causal events — and nothing that
//! re-aggregates what the base already counts:
//!
//! * [`TraceSink`] — *causal* span events keyed on transaction ids (the
//!   same [`SpanEvent`]/[`SpanKind`]), recorded into one [`SpanRing`] per
//!   thread;
//! * [`chrome_trace_json`]/[`spans_tsv`] — exporters for a drained event
//!   list.

mod counter;
#[cfg(feature = "trace")]
mod export;
mod histogram;
#[cfg(feature = "trace")]
mod ring;
mod span;

pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use span::{SpanEvent, SpanKind, SpanRing};

#[cfg(feature = "trace")]
pub use export::{chrome_trace_json, spans_tsv};
#[cfg(feature = "trace")]
pub use ring::TraceSink;

use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic nanoseconds since the first call in this process.
///
/// The epoch is arbitrary; only differences are meaningful. Saturates at
/// `u64::MAX` (≈ 584 years of uptime).
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    let nanos = Instant::now().duration_since(epoch).as_nanos();
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_ns_is_monotonic() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }
}
