//! Replacement policies: the *Replacement* alternative of Figure 2.
//!
//! Each policy observes frame accesses and nominates an eviction victim.
//! The paper's feature diagram offers LRU and LFU.

/// Index of a frame inside the pool.
pub type FrameIdx = usize;

/// Which policy a product composes. Variants exist only when the
/// corresponding cargo feature is enabled, so a product that selects LRU
/// does not even link the LFU code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementKind {
    /// Least-recently-used.
    #[cfg(feature = "lru")]
    Lru,
    /// Least-frequently-used.
    #[cfg(feature = "lfu")]
    Lfu,
}

impl ReplacementKind {
    /// Instantiate the policy for a pool of `frames` frames.
    pub fn build(self, frames: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            #[cfg(feature = "lru")]
            ReplacementKind::Lru => Box::new(lru::Lru::new(frames)),
            #[cfg(feature = "lfu")]
            ReplacementKind::Lfu => Box::new(lfu::Lfu::new(frames)),
        }
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            #[cfg(feature = "lru")]
            ReplacementKind::Lru => "LRU",
            #[cfg(feature = "lfu")]
            ReplacementKind::Lfu => "LFU",
        }
    }
}

/// The LRU and LFU lazy heaps gain an entry per page *access*, and only
/// `victim()` pops: an all-hit workload would grow them without bound.
/// Past this multiple of the frame count a heap sheds its stale entries —
/// `O(frames)` once per `O(frames)` accesses — which are exactly the ones
/// `victim()` would have skipped.
#[cfg(any(feature = "lru", feature = "lfu"))]
const HEAP_SLACK: usize = 4;

/// Interface every replacement policy implements.
pub trait ReplacementPolicy: Send {
    /// A resident frame was read or written.
    fn on_access(&mut self, frame: FrameIdx);
    /// A page was loaded into the (previously empty) frame.
    fn on_insert(&mut self, frame: FrameIdx);
    /// The frame was emptied.
    fn on_remove(&mut self, frame: FrameIdx);
    /// Nominate a victim among the currently occupied frames.
    /// Returns `None` if no frame is occupied.
    fn victim(&mut self) -> Option<FrameIdx>;
    /// Grow internal bookkeeping to `frames` frames (dynamic allocation).
    fn resize(&mut self, frames: usize);
    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(feature = "lru")]
pub mod lru {
    //! Least-recently-used via a logical access clock.
    //!
    //! Victim selection uses a *lazy min-heap*: every access pushes a
    //! `(stamp, frame)` entry; `victim()` pops entries until one matches
    //! the frame's current stamp, and the heap sheds its stale entries
    //! when it outgrows [`HEAP_SLACK`](super::HEAP_SLACK) entries per
    //! frame. Amortized `O(log n)` per operation —
    //! the straightforward "scan all frames" alternative makes every
    //! buffer miss `O(frames)`, which dominates at realistic pool sizes.

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::{FrameIdx, ReplacementPolicy, HEAP_SLACK};

    /// LRU: evicts the occupied frame with the oldest access stamp.
    #[derive(Debug)]
    pub struct Lru {
        clock: u64,
        /// `None` = frame empty; `Some(stamp)` = last access time.
        stamps: Vec<Option<u64>>,
        /// Lazy heap of (stamp, frame); stale entries are skipped on pop.
        heap: BinaryHeap<Reverse<(u64, FrameIdx)>>,
    }

    impl Lru {
        /// Policy for a pool of `frames` frames.
        pub fn new(frames: usize) -> Self {
            Lru {
                clock: 0,
                stamps: vec![None; frames],
                heap: BinaryHeap::new(),
            }
        }

        fn touch(&mut self, frame: FrameIdx) {
            self.clock += 1;
            self.stamps[frame] = Some(self.clock);
            self.heap.push(Reverse((self.clock, frame)));
            if self.heap.len() > HEAP_SLACK * self.stamps.len() {
                self.heap
                    .retain(|&Reverse((stamp, frame))| self.stamps[frame] == Some(stamp));
            }
        }

        #[cfg(test)]
        pub(super) fn heap_len(&self) -> usize {
            self.heap.len()
        }
    }

    impl ReplacementPolicy for Lru {
        fn on_access(&mut self, frame: FrameIdx) {
            self.touch(frame);
        }

        fn on_insert(&mut self, frame: FrameIdx) {
            self.touch(frame);
        }

        fn on_remove(&mut self, frame: FrameIdx) {
            self.stamps[frame] = None;
        }

        fn victim(&mut self) -> Option<FrameIdx> {
            while let Some(&Reverse((stamp, frame))) = self.heap.peek() {
                if self.stamps.get(frame).copied().flatten() == Some(stamp) {
                    return Some(frame);
                }
                self.heap.pop(); // stale: frame re-touched or emptied
            }
            None
        }

        fn resize(&mut self, frames: usize) {
            self.stamps.resize(frames, None);
        }

        fn name(&self) -> &'static str {
            "LRU"
        }
    }
}

#[cfg(feature = "lfu")]
pub mod lfu {
    //! Least-frequently-used with FIFO tie-breaking.
    //!
    //! Uses the same lazy-heap scheme as LRU: `victim()` pops
    //! `(count, inserted_at, frame)` entries until one matches the frame's
    //! current state, with the same bound on the heap. Amortized
    //! `O(log n)` instead of an `O(frames)` scan per buffer miss.

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::{FrameIdx, ReplacementPolicy, HEAP_SLACK};

    /// LFU: evicts the occupied frame with the fewest accesses; ties are
    /// broken by insertion order (older first) so scans don't thrash a
    /// single frame.
    #[derive(Debug)]
    pub struct Lfu {
        /// `None` = empty; `Some((count, inserted_at))`.
        counts: Vec<Option<(u64, u64)>>,
        insert_clock: u64,
        /// Lazy heap of (count, inserted_at, frame).
        heap: BinaryHeap<Reverse<(u64, u64, FrameIdx)>>,
    }

    impl Lfu {
        /// Policy for a pool of `frames` frames.
        pub fn new(frames: usize) -> Self {
            Lfu {
                counts: vec![None; frames],
                insert_clock: 0,
                heap: BinaryHeap::new(),
            }
        }

        fn push(&mut self, count: u64, at: u64, frame: FrameIdx) {
            self.heap.push(Reverse((count, at, frame)));
            if self.heap.len() > HEAP_SLACK * self.counts.len() {
                self.heap
                    .retain(|&Reverse((count, at, frame))| self.counts[frame] == Some((count, at)));
            }
        }

        #[cfg(test)]
        pub(super) fn heap_len(&self) -> usize {
            self.heap.len()
        }
    }

    impl ReplacementPolicy for Lfu {
        fn on_access(&mut self, frame: FrameIdx) {
            if let Some((c, at)) = &mut self.counts[frame] {
                *c += 1;
                let (c, at) = (*c, *at);
                self.push(c, at, frame);
            }
        }

        fn on_insert(&mut self, frame: FrameIdx) {
            self.insert_clock += 1;
            self.counts[frame] = Some((1, self.insert_clock));
            self.push(1, self.insert_clock, frame);
        }

        fn on_remove(&mut self, frame: FrameIdx) {
            self.counts[frame] = None;
        }

        fn victim(&mut self) -> Option<FrameIdx> {
            while let Some(&Reverse((count, at, frame))) = self.heap.peek() {
                if self.counts.get(frame).copied().flatten() == Some((count, at)) {
                    return Some(frame);
                }
                self.heap.pop(); // stale
            }
            None
        }

        fn resize(&mut self, frames: usize) {
            self.counts.resize(frames, None);
        }

        fn name(&self) -> &'static str {
            "LFU"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "lru")]
    mod lru_tests {
        use super::super::lru::Lru;
        use super::super::ReplacementPolicy;

        #[test]
        fn evicts_least_recently_used() {
            let mut p = Lru::new(3);
            p.on_insert(0);
            p.on_insert(1);
            p.on_insert(2);
            p.on_access(0); // 1 is now the oldest
            assert_eq!(p.victim(), Some(1));
        }

        #[test]
        fn removal_excludes_frame() {
            let mut p = Lru::new(2);
            p.on_insert(0);
            p.on_insert(1);
            p.on_remove(0);
            assert_eq!(p.victim(), Some(1));
        }

        #[test]
        fn empty_pool_has_no_victim() {
            let mut p = Lru::new(2);
            assert_eq!(p.victim(), None);
        }

        #[test]
        fn resize_keeps_existing_state() {
            let mut p = Lru::new(1);
            p.on_insert(0);
            p.resize(3);
            p.on_insert(2);
            assert_eq!(p.victim(), Some(0));
        }

        /// An all-hit workload never calls `victim()`; the heap must stay
        /// `O(frames)` anyway and still nominate in true LRU order.
        #[test]
        fn heap_stays_bounded_without_evictions() {
            let mut p = Lru::new(4);
            (0..4).for_each(|f| p.on_insert(f));
            let mut last = [0u64; 4];
            let mut x = 1u64;
            for tick in 1..=1_000_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let frame = (x >> 33) as usize % 4;
                p.on_access(frame);
                last[frame] = tick;
                assert!(p.heap_len() <= 4 * super::super::HEAP_SLACK);
            }
            let mut expected = [0, 1, 2, 3];
            expected.sort_by_key(|&f| last[f]);
            for frame in expected {
                assert_eq!(p.victim(), Some(frame));
                p.on_remove(frame);
            }
            assert_eq!(p.victim(), None);
        }
    }

    #[cfg(feature = "lfu")]
    mod lfu_tests {
        use super::super::lfu::Lfu;
        use super::super::ReplacementPolicy;

        #[test]
        fn evicts_least_frequently_used() {
            let mut p = Lfu::new(3);
            p.on_insert(0);
            p.on_insert(1);
            p.on_insert(2);
            p.on_access(0);
            p.on_access(0);
            p.on_access(2);
            assert_eq!(p.victim(), Some(1));
        }

        #[test]
        fn ties_break_by_insertion_order() {
            let mut p = Lfu::new(2);
            p.on_insert(0);
            p.on_insert(1);
            // Both count 1; frame 0 inserted first -> victim.
            assert_eq!(p.victim(), Some(0));
        }

        #[test]
        fn reinsert_resets_count() {
            let mut p = Lfu::new(2);
            p.on_insert(0);
            p.on_access(0);
            p.on_access(0);
            p.on_insert(1);
            p.on_remove(0);
            p.on_insert(0); // fresh page in frame 0, count back to 1
            assert_eq!(p.victim(), Some(1)); // 1 older at same count
        }

        /// An all-hit workload never calls `victim()`; the heap must stay
        /// `O(frames)` anyway and still nominate in true LFU order.
        #[test]
        fn heap_stays_bounded_without_evictions() {
            let mut p = Lfu::new(4);
            (0..4).for_each(|f| p.on_insert(f));
            let mut count = [1u64; 4];
            let mut x = 1u64;
            for _ in 0..1_000_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Skewed, so the four counts differ.
                let frame = ((x >> 33) as usize % 10).min(3);
                p.on_access(frame);
                count[frame] += 1;
                assert!(p.heap_len() <= 4 * super::super::HEAP_SLACK);
            }
            let mut expected = [0, 1, 2, 3];
            expected.sort_by_key(|&f| count[f]);
            for frame in expected {
                assert_eq!(p.victim(), Some(frame));
                p.on_remove(frame);
            }
            assert_eq!(p.victim(), None);
        }
    }

    // One test per policy: LRU and LFU are distinct members of the
    // feature model's Replacement alternative group, so no single valid
    // configuration enables both (fame-lint Pass B flags `all(..)` gates
    // spanning an alternative group as dead code).
    #[test]
    #[cfg(feature = "lru")]
    fn kind_builds_named_lru() {
        assert_eq!(ReplacementKind::Lru.build(4).name(), "LRU");
        assert_eq!(ReplacementKind::Lru.name(), "LRU");
    }

    #[test]
    #[cfg(feature = "lfu")]
    fn kind_builds_named_lfu() {
        assert_eq!(ReplacementKind::Lfu.build(4).name(), "LFU");
        assert_eq!(ReplacementKind::Lfu.name(), "LFU");
    }
}
