//! Frame-allocation policies: the *Memory Alloc* alternative of Figure 2.
//!
//! Deeply embedded targets have no dynamic allocator — the buffer pool must
//! be a fixed arena sized at build time ([`AllocPolicy::Static`]). Larger
//! targets can grow the pool on demand ([`AllocPolicy::Dynamic`]), possibly
//! up to a cap. The buffer manager consults a [`FrameAllocator`] before
//! creating a frame; the policy decides whether the allocation is allowed
//! (static pools are also pre-faulted eagerly).

use std::fmt;

/// How the buffer pool acquires frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Fixed arena of exactly `frames` frames, allocated up front.
    /// Acquisition beyond the arena fails (the pool must evict).
    Static {
        /// Number of pre-allocated frames.
        frames: usize,
    },
    /// Frames are allocated on demand, up to an optional cap.
    Dynamic {
        /// Upper bound on frames, or `None` for unbounded growth.
        max_frames: Option<usize>,
    },
}

impl AllocPolicy {
    /// Frames to pre-allocate at pool construction.
    pub fn preallocate(&self) -> usize {
        match self {
            AllocPolicy::Static { frames } => *frames,
            AllocPolicy::Dynamic { .. } => 0,
        }
    }

    /// The hard frame limit, if any.
    pub fn limit(&self) -> Option<usize> {
        match self {
            AllocPolicy::Static { frames } => Some(*frames),
            AllocPolicy::Dynamic { max_frames } => *max_frames,
        }
    }
}

impl fmt::Display for AllocPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocPolicy::Static { frames } => write!(f, "static({frames})"),
            AllocPolicy::Dynamic {
                max_frames: Some(m),
            } => write!(f, "dynamic(max {m})"),
            AllocPolicy::Dynamic { max_frames: None } => write!(f, "dynamic"),
        }
    }
}

/// Tracks live frame count against an [`AllocPolicy`].
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    policy: AllocPolicy,
    live: usize,
    peak: usize,
}

impl FrameAllocator {
    /// Create an allocator for a policy.
    pub fn new(policy: AllocPolicy) -> Self {
        FrameAllocator {
            policy,
            live: 0,
            peak: 0,
        }
    }

    /// Request one more frame. Returns `false` when the policy forbids it
    /// (the caller must evict and reuse instead).
    pub fn try_acquire(&mut self) -> bool {
        if let Some(limit) = self.policy.limit() {
            if self.live >= limit {
                return false;
            }
        }
        self.live += 1;
        self.peak = self.peak.max(self.live);
        true
    }

    /// Return a frame to the allocator.
    pub fn release(&mut self) {
        debug_assert!(self.live > 0, "release without acquire");
        self.live = self.live.saturating_sub(1);
    }

    /// Frames currently live.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of live frames (the RAM NFP).
    #[cfg(test)]
    fn peak(&self) -> usize {
        self.peak
    }

    /// The policy in force.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_caps_and_preallocates() {
        let p = AllocPolicy::Static { frames: 2 };
        assert_eq!(p.preallocate(), 2);
        assert_eq!(p.limit(), Some(2));
        let mut a = FrameAllocator::new(p);
        assert!(a.try_acquire());
        assert!(a.try_acquire());
        assert!(!a.try_acquire(), "static arena exhausted");
        a.release();
        assert!(a.try_acquire(), "released frame reusable");
    }

    #[test]
    fn dynamic_unbounded_grows() {
        let mut a = FrameAllocator::new(AllocPolicy::Dynamic { max_frames: None });
        for _ in 0..1000 {
            assert!(a.try_acquire());
        }
        assert_eq!(a.live(), 1000);
        assert_eq!(a.peak(), 1000);
    }

    #[test]
    fn dynamic_capped_stops_at_cap() {
        let mut a = FrameAllocator::new(AllocPolicy::Dynamic {
            max_frames: Some(3),
        });
        assert!(a.try_acquire());
        assert!(a.try_acquire());
        assert!(a.try_acquire());
        assert!(!a.try_acquire());
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut a = FrameAllocator::new(AllocPolicy::Dynamic { max_frames: None });
        a.try_acquire();
        a.try_acquire();
        a.release();
        a.try_acquire();
        assert_eq!(a.live(), 2);
        assert_eq!(a.peak(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(AllocPolicy::Static { frames: 8 }.to_string(), "static(8)");
        assert_eq!(
            AllocPolicy::Dynamic {
                max_frames: Some(4)
            }
            .to_string(),
            "dynamic(max 4)"
        );
        assert_eq!(
            AllocPolicy::Dynamic { max_frames: None }.to_string(),
            "dynamic"
        );
    }
}
