//! Unified pool statistics: one counter type and one snapshot type shared
//! by the exclusive (Single) and sharded (MultiReader) pools, so every
//! product exposes identical fields regardless of the Concurrency feature.
//!
//! When the *Statistics* feature is composed in (cargo feature `obs`),
//! [`Counter`] *is* [`fame_obs::Counter`] — the pools then report through
//! the same primitive as the rest of the engine. Without it, an identical
//! local atomic stands in so the pool counters (which predate the
//! Statistics feature and stay available in every product) do not pull the
//! observability crate into minimal products.

#[cfg(feature = "obs")]
pub use fame_obs::Counter;

#[cfg(not(feature = "obs"))]
mod local {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Relaxed atomic event counter (API-compatible subset of
    /// `fame_obs::Counter`).
    #[derive(Debug, Default)]
    pub struct Counter(AtomicU64);

    impl Counter {
        #[inline]
        pub fn inc(&self) {
            self.add(1);
        }

        #[inline]
        pub fn add(&self, n: u64) {
            self.0.fetch_add(n, Ordering::Relaxed);
        }

        #[inline]
        pub fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }
}

#[cfg(not(feature = "obs"))]
pub use local::Counter;

/// Counters of pool behaviour; the NFP experiments and the replacement
/// ablation bench read these. A plain-data snapshot — see
/// [`AtomicPoolStats`] for the live counters behind it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Accesses served from a resident frame.
    pub hits: u64,
    /// Accesses that had to touch the device.
    pub misses: u64,
    /// Frames whose page was replaced.
    pub evictions: u64,
    /// Dirty pages written back to the device.
    pub writebacks: u64,
    /// Accesses that found their shard latch held and had to wait
    /// (MultiReader products with the Statistics feature; 0 elsewhere —
    /// the Single pool has no latches to wait on).
    pub latch_waits: u64,
}

impl PoolStats {
    /// Hit ratio in `[0, 1]`; `0` when no access happened yet.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The live counters both pool representations report through. All
/// updates are relaxed atomics: a concurrent [`AtomicPoolStats::snapshot`]
/// sees values at most an instant stale, never torn, and — because the
/// counters only grow — never decreasing across repeated snapshots.
#[derive(Debug, Default)]
pub struct AtomicPoolStats {
    pub hits: Counter,
    pub misses: Counter,
    pub evictions: Counter,
    pub writebacks: Counter,
    pub latch_waits: Counter,
}

impl AtomicPoolStats {
    /// Copy the current values.
    pub fn snapshot(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            writebacks: self.writebacks.get(),
            latch_waits: self.latch_waits.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_all_fields() {
        let s = AtomicPoolStats::default();
        s.hits.add(3);
        s.misses.inc();
        s.evictions.add(2);
        s.writebacks.inc();
        s.latch_waits.add(5);
        let snap = s.snapshot();
        assert_eq!(
            snap,
            PoolStats {
                hits: 3,
                misses: 1,
                evictions: 2,
                writebacks: 1,
                latch_waits: 5,
            }
        );
    }

    #[test]
    fn hit_ratio_handles_empty() {
        assert_eq!(PoolStats::default().hit_ratio(), 0.0);
        let s = PoolStats {
            hits: 1,
            misses: 3,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.25).abs() < 1e-9);
    }
}
