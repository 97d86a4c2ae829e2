//! The shared pool's directories at their bounds: the page map and the
//! Snapshot feature's version metas cover page ids below 2^24, past which
//! a page is a typed `OutOfRange` error, and below which nothing caps how
//! many pages may be mapped or versioned; a shard's frame arena caps its
//! frames.
#![cfg(all(feature = "shared", feature = "lru"))]

use fame_buffer::{ReplacementKind, SharedBufferPool};
use fame_os::{AllocPolicy, BlockDevice, DeviceStats, OsError, PageId};

/// The documented bound of both directories.
const BOUND: u32 = 1 << 24;

/// Every `u32` page id, all zeros: reaches the bound without storing
/// anything.
struct Zeros;

impl BlockDevice for Zeros {
    fn page_size(&self) -> usize {
        128
    }
    fn num_pages(&self) -> u32 {
        u32::MAX
    }
    fn read_page(&mut self, _: PageId, buf: &mut [u8]) -> Result<(), OsError> {
        buf.fill(0);
        Ok(())
    }
    fn write_page(&mut self, _: PageId, _: &[u8]) -> Result<(), OsError> {
        Ok(())
    }
    fn ensure_pages(&mut self, _: u32) -> Result<(), OsError> {
        Ok(())
    }
    fn sync(&mut self) -> Result<(), OsError> {
        Ok(())
    }
    fn stats(&self) -> DeviceStats {
        DeviceStats::default()
    }
}

fn past_bound(err: &OsError, page: PageId) -> bool {
    matches!(err, OsError::OutOfRange { page: p, pages: BOUND } if *p == page)
}

#[test]
fn pages_past_the_map_bound_are_out_of_range() {
    for shards in [1, 8] {
        let p = SharedBufferPool::new(
            Box::new(Zeros),
            ReplacementKind::Lru,
            AllocPolicy::Static { frames: 8 },
            shards,
        );
        p.with_page_mut(BOUND - 1, |b| b[0] = 1).unwrap();
        assert!(p.contains(BOUND - 1));
        for page in [BOUND, BOUND + 1, u32::MAX] {
            let err = p.with_page(page, |_| ()).unwrap_err();
            assert!(past_bound(&err, page), "{err:?}");
            assert!(p.with_page_mut(page, |_| ()).is_err());
            assert!(!p.contains(page));
        }
        assert_eq!(p.with_page(BOUND - 1, |b| b[0]).unwrap(), 1);
        assert_eq!(p.stats().misses, 1);
    }
}

/// A shard's arena holds at most 8 192 frames; a static budget past that
/// is clamped (the shard evicts instead), not an index past the arena.
#[test]
fn a_static_budget_past_the_arena_is_clamped() {
    let p = SharedBufferPool::new(
        Box::new(Zeros),
        ReplacementKind::Lru,
        AllocPolicy::Static { frames: 10_000 },
        1,
    );
    assert_eq!(p.frame_count(), 8_192);
    for page in 0..8_200 {
        p.with_page(page, |_| ()).unwrap();
    }
    assert_eq!(p.stats().evictions, 8);
}

#[cfg(feature = "snapshot")]
mod versions {
    use super::*;
    use fame_buffer::TxnWriteScope;
    use fame_os::InMemoryDevice;

    /// A write past the version directory fails before it counts a
    /// pending page or captures an image; the transaction's other pages
    /// install as usual. (A pass-through pool has no page map, so the
    /// version directory is the first to see the page.)
    #[test]
    fn a_write_past_the_version_bound_changes_nothing() {
        let p = SharedBufferPool::unbuffered(Box::new(Zeros));
        {
            let _scope = TxnWriteScope::new(1);
            let err = p.with_page_mut(BOUND, |b| b[0] = 1).unwrap_err();
            assert!(past_bound(&err, BOUND), "{err:?}");
            assert_eq!(p.version_stats().pending_pages, 0);
            p.with_page_mut(BOUND - 1, |b| b[0] = 1).unwrap();
        }
        let s = p.version_stats();
        assert_eq!((s.pending_pages, s.live_entries), (1, 1));
        p.install_commits(&[1], 1);
        assert_eq!(p.version_stats().pending_pages, 0);
    }

    const PAGES: u32 = 70_000;
    /// Pages per transaction. `note_write` dedups a transaction's pages
    /// with a linear scan, so one transaction over every page would be
    /// quadratic.
    const PER_TXN: u32 = 500;

    /// Every page gets one transactional write, installed per
    /// transaction; a snapshot taken before the first and one taken after
    /// the last see the old and the new image of every sampled page.
    #[test]
    fn seventy_thousand_written_pages_keep_both_images() {
        let mut dev = InMemoryDevice::new(128);
        dev.ensure_pages(PAGES).unwrap();
        let p = SharedBufferPool::new(
            Box::new(dev),
            ReplacementKind::Lru,
            AllocPolicy::Static { frames: 64 },
            4,
        );
        let old = p.snapshot_begin();
        for (i, first) in (0..PAGES).step_by(PER_TXN as usize).enumerate() {
            let txn = i as u64 + 1;
            {
                let _scope = TxnWriteScope::new(txn);
                for page in first..(first + PER_TXN).min(PAGES) {
                    p.with_page_mut(page, |b| b[..4].copy_from_slice(&page.to_le_bytes()))
                        .unwrap();
                }
            }
            p.install_commits(&[txn], txn);
        }
        assert_eq!(p.version_stats().pending_pages, 0);
        let new = p.snapshot_begin();
        assert!(new > old);
        for page in (0..PAGES).step_by(997).chain([65_535, 65_536, PAGES - 1]) {
            let at_old = p.with_page_at(page, old, |b| b[..4].to_vec()).unwrap();
            assert_eq!(at_old, [0; 4], "page {page} at the old snapshot");
            let at_new = p.with_page_at(page, new, |b| b[..4].to_vec()).unwrap();
            assert_eq!(
                at_new,
                page.to_le_bytes(),
                "page {page} at the new snapshot"
            );
        }
        p.snapshot_end(old);
        p.snapshot_end(new);
        assert_eq!(p.version_stats().live_entries, 0);
    }
}
