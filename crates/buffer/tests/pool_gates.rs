//! Pool gates that hold across rewrites of the hit paths: the eviction
//! order seen through the counters, and the edges of the page-id-indexed
//! page maps and the chunked frame arenas — for the exclusive pool and,
//! with the `shared` feature, the sharded one.

use fame_buffer::{BufferPool, ReplacementKind};
use fame_os::{AllocPolicy, BlockDevice, InMemoryDevice};

fn device(pages: u32) -> Box<InMemoryDevice> {
    let mut dev = InMemoryDevice::new(128);
    dev.ensure_pages(pages).unwrap();
    Box::new(dev)
}

/// One step of the seeded script.
enum Step {
    Discard(u32),
    Write(u32),
    Read(u32),
}

/// A fixed seeded script — skewed reads, writes and the odd discard over
/// 16 pages — fed to `apply` step by step.
fn script(mut apply: impl FnMut(Step)) {
    let mut x = 7u64;
    for _ in 0..4_000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let r = (x >> 33) as u32;
        // Half the accesses go to pages 0..4, the rest to all 16.
        let page = if r & 1 == 0 {
            (r >> 1) % 4
        } else {
            (r >> 1) % 16
        };
        apply(match (r >> 8) % 16 {
            0 => Step::Discard(page),
            1..=4 => Step::Write(page),
            _ => Step::Read(page),
        });
    }
}

/// The script through 4 exclusive frames, and the counters it leaves.
fn scripted_counts(kind: ReplacementKind) -> (u64, u64, u64, u64) {
    let mut p = BufferPool::new(device(16), kind, AllocPolicy::Static { frames: 4 });
    script(|step| match step {
        Step::Discard(page) => p.discard(page),
        Step::Write(page) => p
            .with_page_mut(page, |b| b[0] = b[0].wrapping_add(1))
            .unwrap(),
        Step::Read(page) => p.with_page(page, |_| ()).unwrap(),
    });
    let s = p.stats();
    (s.hits, s.misses, s.evictions, s.writebacks)
}

/// Recorded at the parent of the direct-table/arena/store-only-touch
/// rewrite (commit 700c75b): exact LRU means the same victims, so the
/// same evictions and write-backs.
#[cfg(feature = "lru")]
#[test]
fn lru_counts_are_pinned() {
    assert_eq!(
        scripted_counts(ReplacementKind::Lru),
        (1529, 2228, 2135, 788)
    );
}

#[cfg(feature = "lfu")]
#[test]
fn lfu_counts_are_pinned() {
    assert_eq!(
        scripted_counts(ReplacementKind::Lfu),
        (1538, 2219, 2125, 645)
    );
}

#[cfg(feature = "lru")]
mod edges {
    use super::*;

    fn pool(pages: u32, alloc: AllocPolicy) -> BufferPool {
        BufferPool::new(device(pages), ReplacementKind::Lru, alloc)
    }

    #[test]
    fn device_growth_past_the_table_is_addressable() {
        let mut p = pool(4, AllocPolicy::Static { frames: 2 });
        p.with_page_mut(3, |b| b[0] = 3).unwrap();
        p.ensure_pages(600).unwrap();
        assert!(!p.contains(599));
        p.with_page_mut(599, |b| b[0] = 99).unwrap();
        assert!(p.contains(599) && p.contains(3));
        p.with_page(1, |_| ()).unwrap(); // evicts 3
        p.with_page(2, |_| ()).unwrap(); // evicts 599
        assert_eq!(p.with_page(599, |b| b[0]).unwrap(), 99);
        assert_eq!(p.with_page(3, |b| b[0]).unwrap(), 3);
    }

    #[test]
    fn discarded_page_is_read_again_from_the_device() {
        let mut p = pool(16, AllocPolicy::Static { frames: 2 });
        p.with_page_mut(5, |b| b[0] = 1).unwrap();
        p.flush().unwrap();
        p.with_page_mut(5, |b| b[0] = 2).unwrap();
        p.discard(5);
        p.discard(5); // a page that is not resident: no-op
        assert!(!p.contains(5));
        let misses = p.stats().misses;
        assert_eq!(p.with_page(5, |b| b[0]).unwrap(), 1);
        assert_eq!(p.stats().misses, misses + 1);
        assert!(p.contains(5));
        assert_eq!(p.frame_count(), 2);
    }

    #[test]
    fn page_ids_the_pool_never_saw_are_absent_not_a_panic() {
        let mut p = pool(16, AllocPolicy::Static { frames: 2 });
        for page in [16, 17, 1 << 20, u32::MAX - 1, u32::MAX] {
            assert!(!p.contains(page));
            p.discard(page);
            assert!(p.with_page(page, |_| ()).is_err());
            assert!(!p.contains(page));
        }
        assert_eq!(p.with_page(15, |b| b[0]).unwrap(), 0);
    }

    /// 100 frames: one full 64-frame chunk and a partial one.
    #[test]
    fn dynamic_growth_crosses_a_chunk_boundary_and_stops_at_the_cap() {
        let mut p = pool(
            256,
            AllocPolicy::Dynamic {
                max_frames: Some(100),
            },
        );
        for page in 0..63u32 {
            p.with_page_mut(page, |b| b.fill(page as u8)).unwrap();
        }
        assert_eq!(p.frame_count(), 63);
        for page in 63..256u32 {
            p.with_page_mut(page, |b| b.fill(page as u8)).unwrap();
            assert_eq!(p.frame_count(), (page as usize + 1).min(100));
        }
        for page in (0..256u32).rev() {
            let ok = p.with_page(page, |b| b.iter().all(|&x| x == page as u8));
            assert!(
                ok.unwrap(),
                "page {page} came back with another frame's bytes"
            );
        }
        assert_eq!(p.frame_count(), 100);
    }
}

/// The sharded pool: the same script, victims chosen by the frames' own
/// recency stamps (no policy object), and the page-id-indexed page map
/// with its chunked directory.
#[cfg(feature = "shared")]
mod shared {
    use super::*;
    use fame_buffer::SharedBufferPool;

    fn pool(pages: u32, kind: ReplacementKind, frames: usize, shards: usize) -> SharedBufferPool {
        SharedBufferPool::new(device(pages), kind, AllocPolicy::Static { frames }, shards)
    }

    /// The script through 4 frames split over `shards`.
    fn scripted_counts(kind: ReplacementKind, shards: usize) -> (u64, u64, u64, u64) {
        let p = pool(16, kind, 4, shards);
        script(|step| match step {
            Step::Discard(page) => p.discard(page),
            Step::Write(page) => p
                .with_page_mut(page, |b| b[0] = b[0].wrapping_add(1))
                .unwrap(),
            Step::Read(page) => p.with_page(page, |_| ()).unwrap(),
        });
        let s = p.stats();
        (s.hits, s.misses, s.evictions, s.writebacks)
    }

    /// Recorded at the parent of the page-map rewrite (commit 8043e48),
    /// whose shards kept a hashed hint table beside a `HashMap`: the
    /// victims come from frame stamps, so the counts must not move.
    #[cfg(feature = "lru")]
    #[test]
    fn lru_counts_are_pinned() {
        // One shard makes the same choices as the exclusive pool's LRU.
        assert_eq!(
            scripted_counts(ReplacementKind::Lru, 1),
            (1529, 2228, 2135, 788)
        );
        assert_eq!(
            scripted_counts(ReplacementKind::Lru, 4),
            (1606, 2151, 2053, 772)
        );
    }

    #[cfg(feature = "lfu")]
    #[test]
    fn lfu_counts_are_pinned() {
        assert_eq!(
            scripted_counts(ReplacementKind::Lfu, 1),
            (1561, 2196, 2098, 632)
        );
        // One frame per shard: every policy evicts the only page.
        assert_eq!(
            scripted_counts(ReplacementKind::Lfu, 4),
            (1606, 2151, 2053, 772)
        );
    }

    #[cfg(feature = "lru")]
    mod edges {
        use super::*;

        fn lru(pages: u32, frames: usize, shards: usize) -> SharedBufferPool {
            pool(pages, ReplacementKind::Lru, frames, shards)
        }

        /// Page 5 000 with one shard lies in the second 4 096-entry chunk
        /// of the page map; with four shards the device's last page does.
        #[test]
        fn device_growth_past_a_chunk_is_addressable() {
            for (shards, last) in [(1usize, 5_000u32), (4, 16_400)] {
                let p = lru(4, 2, shards);
                p.with_page_mut(3, |b| b[0] = 3).unwrap();
                p.ensure_pages(last + 1).unwrap();
                assert!(!p.contains(last));
                p.with_page_mut(last, |b| b[0] = 99).unwrap();
                assert!(p.contains(last));
                // Churn both out of their frames (every shard's one or
                // two frames see two other pages), then read them back.
                for page in [0, 1, 2, 4, 5, 6, 7, 8] {
                    p.with_page(page, |_| ()).unwrap();
                }
                assert!(!p.contains(last) && !p.contains(3));
                assert_eq!(p.with_page(last, |b| b[0]).unwrap(), 99);
                assert_eq!(p.with_page(3, |b| b[0]).unwrap(), 3);
            }
        }

        #[test]
        fn discarded_page_is_read_again_from_the_device() {
            let p = lru(16, 2, 1);
            p.with_page_mut(5, |b| b[0] = 1).unwrap();
            p.flush().unwrap();
            p.with_page_mut(5, |b| b[0] = 2).unwrap();
            p.discard(5);
            p.discard(5); // a page that is not resident: no-op
            assert!(!p.contains(5));
            let misses = p.stats().misses;
            assert_eq!(p.with_page(5, |b| b[0]).unwrap(), 1);
            assert_eq!(p.stats().misses, misses + 1);
            assert!(p.contains(5));
            assert_eq!(p.frame_count(), 2);
        }

        #[test]
        fn page_ids_the_pool_never_saw_are_absent_not_a_panic() {
            for shards in [1, 4] {
                let p = lru(16, 2, shards);
                for page in [16, 17, 1 << 20, 1 << 24, u32::MAX - 1, u32::MAX] {
                    assert!(!p.contains(page));
                    p.discard(page);
                    assert!(p.with_page(page, |_| ()).is_err());
                    assert!(p.with_page_mut(page, |_| ()).is_err());
                    assert!(!p.contains(page));
                }
                assert_eq!(p.with_page(15, |b| b[0]).unwrap(), 0);
            }
        }

        /// After every step of a churning script, `contains` answers
        /// exactly for the pages whose bytes a frame holds — checked
        /// against a model of the frame contents.
        #[test]
        fn contains_agrees_with_the_frames_under_eviction_churn() {
            const PAGES: u32 = 40;
            let p = lru(PAGES, 6, 2);
            for page in 0..PAGES {
                p.with_page_mut(page, |b| b.fill(page as u8)).unwrap();
            }
            let mut x = 11u64;
            for _ in 0..3_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let page = ((x >> 33) % u64::from(PAGES)) as u32;
                match (x >> 40) % 8 {
                    0 => p.discard(page),
                    1 => p.with_page_mut(page, |b| b.fill(page as u8)).unwrap(),
                    _ => assert!(p
                        .with_page(page, |b| b.iter().all(|&v| v == page as u8))
                        .unwrap()),
                }
                let resident = (0..PAGES).filter(|&q| p.contains(q)).count();
                assert!(resident <= p.frame_count(), "{resident} pages in 6 frames");
            }
            // A resident page is served without a miss, an absent one
            // with exactly one.
            for page in 0..PAGES {
                let was = p.contains(page);
                let misses = p.stats().misses;
                p.with_page(page, |_| ()).unwrap();
                assert_eq!(p.stats().misses, misses + u64::from(!was), "page {page}");
            }
        }
    }
}
