//! Fixed-bucket latency histogram with power-of-two nanosecond buckets.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets. Bucket `i` (for `i > 0`) covers durations in
/// `[2^(i-1), 2^i)` nanoseconds; bucket 0 covers `[0, 1)`. The last bucket
/// absorbs everything beyond `2^(BUCKETS-2)` ns (≈ 4.6 minutes), which is
/// longer than any operation this DBMS performs.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Latency histogram: fixed memory, atomic recording, no floating point
/// on the record path.
///
/// Recording is three relaxed atomic adds and one atomic max — cheap
/// enough for per-I/O paths, though call sites pay for reading the clock
/// too, so the engine only records on paths that already touch a device
/// or a lock.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Bucket index for a duration.
    #[inline]
    fn bucket_of(ns: u64) -> usize {
        // 0 → bucket 0; otherwise position of the highest set bit + 1,
        // clamped into the last bucket.
        let idx = (64 - ns.leading_zeros()) as usize;
        idx.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Record one duration in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy the current state. Concurrent recording may leave the copy an
    /// instant stale; each field is itself untorn, but the fields may
    /// disagree by a sample in flight (`count` against the bucket sum).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], cheap to pass around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; see [`HISTOGRAM_BUCKETS`] for the scale.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all recorded durations.
    pub sum_ns: u64,
    /// Largest recorded duration.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Arithmetic mean in nanoseconds; 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (exclusive) of the bucket holding the `p`-th percentile
    /// sample, `p` in `[0, 100]`. Returns 0 when empty. The answer is
    /// quantized to a power of two — that is the deal this histogram
    /// offers in exchange for fixed memory.
    pub fn percentile_ns(&self, p: u8) -> u64 {
        // Rank against the bucket sum, not `count`: a sample recorded while
        // [`Histogram::snapshot`] runs can land in `count` but not in the
        // buckets, and a rank past the last populated bucket would answer
        // with the top bucket's bound (2^39 ns).
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        // Rank of the target sample, 1-based, rounded up.
        let rank = (u128::from(total) * u128::from(p.min(100))).div_ceil(100);
        let rank = (rank.max(1)) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_ns(i);
            }
        }
        bucket_upper_ns(HISTOGRAM_BUCKETS - 1)
    }

    /// Merge another snapshot into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Exclusive upper bound of bucket `i` in nanoseconds.
fn bucket_upper_ns(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={}ns p50<{}ns p99<{}ns max={}ns",
            self.count,
            self.mean_ns(),
            self.percentile_ns(50),
            self.percentile_ns(99),
            self.max_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_power_of_two_ranges() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn record_updates_aggregates() {
        let h = Histogram::new();
        h.record_ns(100);
        h.record_ns(300);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum_ns, 400);
        assert_eq!(s.max_ns, 300);
        assert_eq!(s.mean_ns(), 200);
    }

    #[test]
    fn percentile_finds_enclosing_bucket() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record_ns(100); // bucket [64, 128)
        }
        h.record_ns(1_000_000); // one outlier
        let s = h.snapshot();
        assert_eq!(s.percentile_ns(50), 128);
        assert_eq!(s.percentile_ns(99), 128);
        assert!(s.percentile_ns(100) >= 1_000_000);
    }

    #[test]
    fn torn_snapshot_ranks_within_its_buckets() {
        // `count` one ahead of the bucket sum: a record landed between the
        // snapshot's bucket loads and its `count` load.
        let mut s = HistogramSnapshot::default();
        s.buckets[10] = 1;
        s.count = 2;
        assert_eq!(s.percentile_ns(50), 1024);
        assert_eq!(s.percentile_ns(99), 1024);
        assert_eq!(s.percentile_ns(100), 1024);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_ns(), 0);
        assert_eq!(s.percentile_ns(99), 0);
    }

    #[test]
    fn merge_sums_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_ns(10);
        b.record_ns(10);
        b.record_ns(5000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_ns, 5020);
        assert_eq!(s.max_ns, 5000);
    }

    #[test]
    fn display_is_humane() {
        let h = Histogram::new();
        h.record_ns(90);
        let text = h.snapshot().to_string();
        assert!(text.contains("n=1"), "{text}");
        assert!(text.contains("mean=90ns"), "{text}");
    }
}
