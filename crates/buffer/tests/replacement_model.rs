//! The heap-backed policies against a naive `O(frames)` scan: the victim
//! order is pinned, not promised. Every eviction, every write-back count
//! and every benchmark byte count downstream depends on `victim()`
//! returning exactly the frame a full scan would.

use fame_buffer::{FrameIdx, ReplacementKind, ReplacementPolicy};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Step {
    /// Load a page into the frame if it is empty, otherwise access it.
    Use(FrameIdx),
    /// Empty the frame without asking for a victim first (`discard`).
    Drop(FrameIdx),
    /// Ask for a victim and leave it resident.
    Peek,
    /// Ask for a victim and empty it.
    Evict,
    /// One more frame (dynamic allocation).
    Grow,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..8).prop_map(Step::Use),
        (0usize..8).prop_map(Step::Use),
        (0usize..8).prop_map(Step::Use),
        (0usize..8).prop_map(Step::Drop),
        Just(Step::Peek),
        Just(Step::Evict),
        Just(Step::Evict),
        Just(Step::Grow),
    ]
}

/// The reference: per frame the key the policy orders by, victim = the
/// occupied frame with the smallest key. LRU keys are `(stamp, 0)`, LFU
/// keys `(count, inserted_at)`.
struct Scan {
    lfu: bool,
    clock: u64,
    keys: Vec<Option<(u64, u64)>>,
}

impl Scan {
    fn insert(&mut self, f: FrameIdx) {
        self.clock += 1;
        self.keys[f] = Some(if self.lfu {
            (1, self.clock)
        } else {
            (self.clock, 0)
        });
    }

    fn access(&mut self, f: FrameIdx) {
        let key = self.keys[f].as_mut().expect("access to a resident frame");
        if self.lfu {
            key.0 += 1;
        } else {
            self.clock += 1;
            key.0 = self.clock;
        }
    }

    fn victim(&self) -> Option<FrameIdx> {
        (0..self.keys.len())
            .filter(|&f| self.keys[f].is_some())
            .min_by_key(|&f| self.keys[f])
    }
}

fn check(kind: ReplacementKind, frames: usize, script: &[Step]) -> Result<(), TestCaseError> {
    let mut policy: Box<dyn ReplacementPolicy> = kind.build(frames);
    let mut scan = Scan {
        lfu: kind.name() == "LFU",
        clock: 0,
        keys: vec![None; frames],
    };
    for (n, &s) in script.iter().enumerate() {
        match s {
            Step::Use(f) | Step::Drop(f) if f >= scan.keys.len() => {}
            Step::Use(f) if scan.keys[f].is_none() => {
                policy.on_insert(f);
                scan.insert(f);
            }
            Step::Use(f) => {
                policy.on_access(f);
                scan.access(f);
            }
            Step::Drop(f) => {
                if scan.keys[f].take().is_some() {
                    policy.on_remove(f);
                }
            }
            Step::Peek | Step::Evict => {
                let (v, want) = (policy.victim(), scan.victim());
                prop_assert!(v == want, "step {n} of {script:?}: {v:?}, scan {want:?}");
                if let (Step::Evict, Some(v)) = (s, v) {
                    policy.on_remove(v);
                    scan.keys[v] = None;
                }
            }
            Step::Grow => {
                scan.keys.push(None);
                policy.resize(scan.keys.len());
            }
        }
    }
    // Drain: the whole remaining order must agree, not just a prefix.
    while let Some(v) = scan.victim() {
        let got = policy.victim();
        prop_assert!(got == Some(v), "drain of {script:?}: {got:?}, scan {v}");
        policy.on_remove(v);
        scan.keys[v] = None;
    }
    prop_assert_eq!(policy.victim(), None);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[cfg(feature = "lru")]
    #[test]
    fn lru_nominates_what_a_scan_would(
        frames in 1usize..7,
        script in prop::collection::vec(step(), 0..200),
    ) {
        check(ReplacementKind::Lru, frames, &script)?;
    }

    #[cfg(feature = "lfu")]
    #[test]
    fn lfu_nominates_what_a_scan_would(
        frames in 1usize..7,
        script in prop::collection::vec(step(), 0..200),
    ) {
        check(ReplacementKind::Lfu, frames, &script)?;
    }
}
