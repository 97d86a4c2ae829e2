//! Exclusive-pool gates that hold across rewrites of its hit path: the
//! eviction order seen through the counters, and the edges of the
//! page-id-indexed table and the chunked frame arena.

use fame_buffer::{BufferPool, ReplacementKind};
use fame_os::{AllocPolicy, BlockDevice, InMemoryDevice};

fn device(pages: u32) -> Box<InMemoryDevice> {
    let mut dev = InMemoryDevice::new(128);
    dev.ensure_pages(pages).unwrap();
    Box::new(dev)
}

/// A fixed seeded script — skewed reads, writes and the odd discard over
/// 16 pages through 4 frames — and the counters it leaves.
fn scripted_counts(kind: ReplacementKind) -> (u64, u64, u64, u64) {
    let mut p = BufferPool::new(device(16), kind, AllocPolicy::Static { frames: 4 });
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
        match (r >> 8) % 16 {
            0 => p.discard(page),
            1..=4 => p
                .with_page_mut(page, |b| b[0] = b[0].wrapping_add(1))
                .unwrap(),
            _ => p.with_page(page, |_| ()).unwrap(),
        }
    }
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
