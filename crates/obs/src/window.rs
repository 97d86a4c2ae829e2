//! Rotating N-second metric windows for the *Tracing* feature.
//!
//! PR 4's histograms are since-boot aggregates; a server that has run for
//! a week cannot answer "what is the lock-wait p99 *right now*". A
//! [`WindowedHistogram`] keeps `K` fixed slots, each owning a full
//! [`Histogram`] plus an *epoch* word. Sample time `t` belongs to window
//! `w = t / window_ns`, stored in slot `w % K`; the slot's epoch records
//! which window currently owns it (epoch `w + 1`, so 0 means "never
//! used"). Recording into a slot whose epoch is older CASes the epoch
//! forward and resets the histogram — rotation is driven lazily by the
//! samples themselves, there is no timer thread.
//!
//! Rotation race: a sample that lands while another thread is resetting
//! the same slot can be partially erased, and a sample older than the
//! retained horizon is dropped. Both are bounded, metrics-grade losses —
//! the ring events (`crate::TraceSink`) stay exact; only the derived
//! rates are approximate at window boundaries.
//!
//! Merge-on-read: [`WindowedHistogram::snapshot_at`] copies every live
//! slot and [`WindowedHistogramSnapshot::merged`] folds them bucket-wise,
//! so "p99 over the last K windows" costs nothing on the record path.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{Histogram, HistogramSnapshot};

/// Default number of retained windows.
pub const DEFAULT_WINDOWS: usize = 8;

struct WindowSlot {
    /// `window_index + 1` of the owner window; 0 = slot never used.
    epoch: AtomicU64,
    hist: Histogram,
}

/// A histogram that only remembers the last `K` windows of `window_ns`
/// nanoseconds each.
pub struct WindowedHistogram {
    window_ns: u64,
    slots: Box<[WindowSlot]>,
}

impl WindowedHistogram {
    /// `window_ns` is clamped to ≥ 1; `windows` to ≥ 2 (one filling, one
    /// readable).
    pub fn new(window_ns: u64, windows: usize) -> Self {
        let window_ns = window_ns.max(1);
        let windows = windows.max(2);
        WindowedHistogram {
            window_ns,
            slots: (0..windows)
                .map(|_| WindowSlot {
                    epoch: AtomicU64::new(0),
                    hist: Histogram::new(),
                })
                .collect(),
        }
    }

    /// Width of one window in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Record `value_ns` with the current clock.
    pub fn record(&self, value_ns: u64) {
        self.record_at(crate::monotonic_ns(), value_ns);
    }

    /// Record `value_ns` as having happened at `at_ns` — the deterministic
    /// seam the proptests drive. Samples older than the retained horizon
    /// (their slot was re-owned by a newer window) are dropped.
    pub fn record_at(&self, at_ns: u64, value_ns: u64) {
        if let Some(slot) = self.rotate_to(at_ns) {
            slot.hist.record_ns(value_ns);
        }
    }

    /// Find (rotating if needed) the slot owning the window of `at_ns`.
    fn rotate_to(&self, at_ns: u64) -> Option<&WindowSlot> {
        let epoch = at_ns / self.window_ns + 1;
        let slot = &self.slots[(epoch as usize) % self.slots.len()];
        let mut seen = slot.epoch.load(Ordering::Acquire);
        while seen < epoch {
            match slot
                .epoch
                .compare_exchange(seen, epoch, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // We own the rotation: clear the previous window's
                    // samples before anyone records into the new epoch.
                    slot.hist.reset();
                    return Some(slot);
                }
                Err(now) => seen = now,
            }
        }
        // Equal epoch: the slot is current. Greater: a newer window took
        // the slot over — this sample is past the horizon, drop it.
        (seen == epoch).then_some(slot)
    }

    /// Copy every window still retained at `now_ns`, newest first.
    pub fn snapshot_at(&self, now_ns: u64) -> WindowedHistogramSnapshot {
        let current = now_ns / self.window_ns;
        // Windows older than `K` behind now are stale even if their slot
        // was never reused.
        let horizon = current.saturating_sub(self.slots.len() as u64 - 1);
        let mut windows: Vec<WindowSnapshot> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let e = slot.epoch.load(Ordering::Acquire);
                let index = e.checked_sub(1)?;
                (index >= horizon && index <= current).then(|| WindowSnapshot {
                    index,
                    start_ns: index * self.window_ns,
                    hist: slot.hist.snapshot(),
                })
            })
            .collect();
        windows.sort_by_key(|w| std::cmp::Reverse(w.index));
        WindowedHistogramSnapshot {
            window_ns: self.window_ns,
            windows,
        }
    }

    /// Snapshot against the current clock.
    pub fn snapshot(&self) -> WindowedHistogramSnapshot {
        self.snapshot_at(crate::monotonic_ns())
    }
}

/// One retained window's histogram copy.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// Window index (`start_ns / window_ns`).
    pub index: u64,
    /// Window start on the [`crate::monotonic_ns`] axis.
    pub start_ns: u64,
    /// The window's samples.
    pub hist: HistogramSnapshot,
}

/// Point-in-time copy of a [`WindowedHistogram`]: retained windows,
/// newest first.
#[derive(Debug, Clone, Default)]
pub struct WindowedHistogramSnapshot {
    /// Window width (0 only for `Default::default()`).
    pub window_ns: u64,
    /// Retained windows, newest first.
    pub windows: Vec<WindowSnapshot>,
}

impl WindowedHistogramSnapshot {
    /// Bucket-wise merge of every retained window ("last K·N seconds").
    pub fn merged(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for w in &self.windows {
            out.merge(&w.hist);
        }
        out
    }

    /// `p`-th percentile of the newest *non-empty* window; 0 when all
    /// retained windows are empty. The newest window is often mid-fill,
    /// so rates and percentiles prefer the freshest window that has data.
    pub fn latest_percentile_ns(&self, p: u8) -> u64 {
        self.windows
            .iter()
            .find(|w| w.hist.count > 0)
            .map_or(0, |w| w.hist.percentile_ns(p))
    }
}

/// A [`crate::Counter`] with the same rotation scheme: per-window event
/// counts, from which rates derive.
pub struct WindowedCounter {
    window_ns: u64,
    slots: Box<[CounterSlot]>,
}

struct CounterSlot {
    epoch: AtomicU64,
    count: AtomicU64,
}

impl WindowedCounter {
    /// See [`WindowedHistogram::new`] for the clamping rules.
    pub fn new(window_ns: u64, windows: usize) -> Self {
        WindowedCounter {
            window_ns: window_ns.max(1),
            slots: (0..windows.max(2))
                .map(|_| CounterSlot {
                    epoch: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Count one event now.
    pub fn inc(&self) {
        self.inc_at(crate::monotonic_ns());
    }

    /// Count one event at `at_ns` (deterministic seam).
    pub fn inc_at(&self, at_ns: u64) {
        let epoch = at_ns / self.window_ns + 1;
        let slot = &self.slots[(epoch as usize) % self.slots.len()];
        let mut seen = slot.epoch.load(Ordering::Acquire);
        while seen < epoch {
            match slot
                .epoch
                .compare_exchange(seen, epoch, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    slot.count.store(0, Ordering::Relaxed);
                    break;
                }
                Err(now) => seen = now,
            }
        }
        if slot.epoch.load(Ordering::Acquire) == epoch {
            slot.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Retained per-window counts at `now_ns`, newest first.
    pub fn snapshot_at(&self, now_ns: u64) -> WindowedCounterSnapshot {
        let current = now_ns / self.window_ns;
        let horizon = current.saturating_sub(self.slots.len() as u64 - 1);
        let mut windows: Vec<(u64, u64)> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let e = slot.epoch.load(Ordering::Acquire);
                let index = e.checked_sub(1)?;
                (index >= horizon && index <= current)
                    .then(|| (index, slot.count.load(Ordering::Relaxed)))
            })
            .collect();
        windows.sort_by_key(|w| std::cmp::Reverse(w.0));
        WindowedCounterSnapshot {
            window_ns: self.window_ns,
            windows,
        }
    }

    /// Snapshot against the current clock.
    pub fn snapshot(&self) -> WindowedCounterSnapshot {
        self.snapshot_at(crate::monotonic_ns())
    }
}

/// Point-in-time copy of a [`WindowedCounter`]: `(window index, count)`
/// pairs, newest first.
#[derive(Debug, Clone, Default)]
pub struct WindowedCounterSnapshot {
    /// Window width (0 only for `Default::default()`).
    pub window_ns: u64,
    /// `(index, count)` pairs, newest first.
    pub windows: Vec<(u64, u64)>,
}

impl WindowedCounterSnapshot {
    /// Total events across retained windows.
    pub fn total(&self) -> u64 {
        self.windows.iter().map(|&(_, n)| n).sum()
    }

    /// Events/second in the newest non-empty window; 0.0 when idle.
    pub fn latest_rate_per_sec(&self) -> f64 {
        let secs = self.window_ns as f64 / 1e9;
        self.windows
            .iter()
            .find(|&&(_, n)| n > 0)
            .map_or(0.0, |&(_, n)| n as f64 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 1_000; // 1µs windows keep the arithmetic readable

    #[test]
    fn samples_land_in_their_window() {
        let h = WindowedHistogram::new(W, 4);
        h.record_at(100, 10);
        h.record_at(150, 20);
        h.record_at(1_100, 30); // next window
        let s = h.snapshot_at(1_200);
        assert_eq!(s.windows.len(), 2);
        assert_eq!(s.windows[0].index, 1);
        assert_eq!(s.windows[0].hist.count, 1);
        assert_eq!(s.windows[1].index, 0);
        assert_eq!(s.windows[1].hist.count, 2);
        assert_eq!(s.merged().count, 3);
    }

    #[test]
    fn rotation_reclaims_old_slots() {
        let h = WindowedHistogram::new(W, 2);
        h.record_at(0, 1);
        // Window 2 maps onto window 0's slot (2 % 2 == 0) and evicts it.
        h.record_at(2 * W, 2);
        let s = h.snapshot_at(2 * W);
        assert_eq!(s.windows.len(), 1);
        assert_eq!(s.windows[0].index, 2);
        assert_eq!(s.windows[0].hist.count, 1);
    }

    #[test]
    fn late_samples_past_horizon_are_dropped() {
        let h = WindowedHistogram::new(W, 2);
        h.record_at(2 * W, 2);
        h.record_at(0, 1); // its slot now belongs to window 2
        let s = h.snapshot_at(2 * W);
        assert_eq!(s.merged().count, 1);
    }

    #[test]
    fn snapshot_hides_windows_behind_now() {
        let h = WindowedHistogram::new(W, 4);
        h.record_at(0, 1);
        // 10 windows later the sample's slot was never reused, but the
        // window is long over.
        let s = h.snapshot_at(10 * W);
        assert!(s.windows.is_empty());
        assert_eq!(s.latest_percentile_ns(99), 0);
    }

    #[test]
    fn latest_percentile_skips_empty_current_window() {
        let h = WindowedHistogram::new(W, 4);
        for _ in 0..100 {
            h.record_at(100, 128);
        }
        // Now is one window later; window 1 has no samples yet.
        let s = h.snapshot_at(W + 1);
        assert!(s.latest_percentile_ns(99) >= 128);
    }

    #[test]
    fn counter_rates() {
        let c = WindowedCounter::new(1_000_000_000, 4); // 1s windows
        for _ in 0..50 {
            c.inc_at(500);
        }
        let s = c.snapshot_at(1_000);
        assert_eq!(s.total(), 50);
        assert!((s.latest_rate_per_sec() - 50.0).abs() < f64::EPSILON);
    }
}
