//! The buffer pool: frames, page table, eviction, write-back.
//!
//! A hit costs one page-table load, one policy stamp store and the page:
//! the table is indexed by page id (page ids are dense — the pager
//! allocates them sequentially and `ensure_pages` bounds them), and frame
//! bytes sit in fixed-size chunks indexed by frame number, so there is no
//! hashing and no per-frame pointer to chase. The table costs 4 B per
//! device page: 0.8 % of the data at 512 B pages, 0.1 % at 4 KiB.

use fame_os::{AllocPolicy, BlockDevice, DeviceStats, FrameAllocator, OsError, PageId};

use crate::replacement::{FrameIdx, ReplacementKind, ReplacementPolicy};
use crate::stats::AtomicPoolStats;
pub use crate::stats::PoolStats;

/// Frames per arena chunk. Growing the pool allocates one more chunk and
/// never moves an existing one.
const CHUNK_FRAMES: usize = 64;

/// Page-table entry of a page that is not resident.
const ABSENT: u32 = u32::MAX;

/// What a frame holds; its bytes are in the arena under the same index.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    page: Option<PageId>,
    dirty: bool,
}

/// State of the caching mode: frame arena, page table, eviction machinery.
struct Cached {
    page_size: usize,
    /// Frame bytes: chunk `i` holds frames `CHUNK_FRAMES * i ..`.
    chunks: Vec<Box<[u8]>>,
    /// One entry per allocated frame.
    slots: Vec<Slot>,
    /// Frame of each resident page, indexed by page id; pages past the end
    /// are absent.
    table: Vec<u32>,
    policy: Box<dyn ReplacementPolicy>,
    allocator: FrameAllocator,
    /// Frames currently holding no page (pre-allocated or discarded).
    free: Vec<FrameIdx>,
}

impl Cached {
    fn resident(&self, page: PageId) -> Option<FrameIdx> {
        match self.table.get(page as usize) {
            Some(&idx) if idx != ABSENT => Some(idx as FrameIdx),
            _ => None,
        }
    }

    fn bytes(&self, idx: FrameIdx) -> &[u8] {
        let at = idx % CHUNK_FRAMES * self.page_size;
        &self.chunks[idx / CHUNK_FRAMES][at..at + self.page_size]
    }

    fn bytes_mut(&mut self, idx: FrameIdx) -> &mut [u8] {
        let at = idx % CHUNK_FRAMES * self.page_size;
        &mut self.chunks[idx / CHUNK_FRAMES][at..at + self.page_size]
    }

    /// One more frame, if the allocation policy grants it. The last chunk
    /// of a capped pool is only as long as the cap needs.
    fn grow(&mut self) -> Option<FrameIdx> {
        if !self.allocator.try_acquire() {
            return None;
        }
        let idx = self.slots.len();
        if idx.is_multiple_of(CHUNK_FRAMES) {
            let limit = self.allocator.policy().limit();
            let frames = limit.map_or(CHUNK_FRAMES, |l| (l - idx).min(CHUNK_FRAMES));
            self.chunks
                .push(vec![0u8; frames * self.page_size].into_boxed_slice());
        }
        self.slots.push(Slot::default());
        self.policy.resize(self.slots.len());
        Some(idx)
    }

    /// Empty the frame holding `page`.
    fn unmap(&mut self, page: PageId, idx: FrameIdx) {
        self.table[page as usize] = ABSENT;
        self.slots[idx] = Slot::default();
        self.policy.on_remove(idx);
    }

    /// Locate (or load) the frame holding `page`.
    fn frame_for(
        &mut self,
        device: &mut dyn BlockDevice,
        stats: &AtomicPoolStats,
        page: PageId,
    ) -> Result<FrameIdx, OsError> {
        if let Some(idx) = self.resident(page) {
            // Every line of the node at once, not one miss per search probe.
            fame_os::prefetch(self.bytes(idx));
            stats.hits.inc();
            self.policy.on_access(idx);
            return Ok(idx);
        }
        stats.misses.inc();

        // Find a frame: an empty pre-allocated one, a fresh allocation, or
        // an eviction victim.
        let idx = if let Some(idx) = self.free.pop() {
            idx
        } else if let Some(idx) = self.grow() {
            idx
        } else {
            let victim = self
                .policy
                .victim()
                .ok_or_else(|| OsError::Io("buffer pool has no evictable frame".to_string()))?;
            let slot = self.slots[victim];
            let old = slot.page.expect("victim frame holds a page");
            if slot.dirty {
                device.write_page(old, self.bytes(victim))?;
                stats.writebacks.inc();
            }
            self.unmap(old, victim);
            stats.evictions.inc();
            victim
        };

        if let Err(e) = device.read_page(page, self.bytes_mut(idx)) {
            self.free.push(idx);
            return Err(e);
        }
        // The device served the page, so it is one of its `num_pages()`.
        if self.table.len() <= page as usize {
            let pages = (page as usize + 1).max(device.num_pages() as usize);
            self.table.resize(pages, ABSENT);
        }
        self.table[page as usize] = u32::try_from(idx).expect("frame index fits the page table");
        self.slots[idx].page = Some(page);
        self.policy.on_insert(idx);
        Ok(idx)
    }
}

enum Mode {
    /// No Buffer Manager feature: every access goes to the device through
    /// one scratch buffer.
    Unbuffered { scratch: Box<[u8]> },
    /// Caching pool.
    Cached(Cached),
}

/// Single-threaded pool: exclusive device, no synchronization beyond the
/// (relaxed, uncontended) stat counters shared with the snapshot path.
struct Exclusive {
    device: Box<dyn BlockDevice>,
    mode: Mode,
    stats: AtomicPoolStats,
}

impl Exclusive {
    fn with_page<R>(&mut self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R, OsError> {
        match &mut self.mode {
            Mode::Unbuffered { scratch } => {
                self.stats.misses.inc();
                self.device.read_page(page, scratch)?;
                Ok(f(scratch))
            }
            Mode::Cached(c) => {
                let idx = c.frame_for(&mut *self.device, &self.stats, page)?;
                Ok(f(c.bytes(idx)))
            }
        }
    }

    fn with_page_mut<R>(
        &mut self,
        page: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, OsError> {
        match &mut self.mode {
            Mode::Unbuffered { scratch } => {
                // One access, one miss — the read+write pair is a single
                // logical page touch.
                self.stats.misses.inc();
                self.device.read_page(page, scratch)?;
                let r = f(scratch);
                self.device.write_page(page, scratch)?;
                Ok(r)
            }
            Mode::Cached(c) => {
                let idx = c.frame_for(&mut *self.device, &self.stats, page)?;
                c.slots[idx].dirty = true;
                Ok(f(c.bytes_mut(idx)))
            }
        }
    }

    fn flush(&mut self) -> Result<(), OsError> {
        if let Mode::Cached(c) = &mut self.mode {
            // Write back in page-number order, not frame order: a batch
            // of dirty pages leaves the pool as one sequential pass over
            // the device instead of the random order eviction history
            // happened to leave in the frame table.
            let mut dirty: Vec<(PageId, usize)> = c
                .slots
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.dirty)
                .map(|(idx, slot)| (slot.page.expect("dirty frame holds a page"), idx))
                .collect();
            dirty.sort_unstable();
            for (page, idx) in dirty {
                self.device.write_page(page, c.bytes(idx))?;
                c.slots[idx].dirty = false;
                self.stats.writebacks.inc();
            }
        }
        Ok(())
    }
}

enum Repr {
    Exclusive(Exclusive),
    /// Feature *Concurrency → MultiReader*: sharded latched pool.
    #[cfg(feature = "shared")]
    Shared(crate::shared::SharedBufferPool),
}

/// A page cache in front of a [`BlockDevice`]. See crate docs for the
/// access model.
pub struct BufferPool {
    repr: Repr,
}

impl BufferPool {
    /// Create a caching pool with the given replacement policy and frame
    /// allocation policy. Static allocation pre-faults the whole arena.
    pub fn new(device: Box<dyn BlockDevice>, kind: ReplacementKind, alloc: AllocPolicy) -> Self {
        let prealloc = alloc.preallocate();
        let mut cached = Cached {
            page_size: device.page_size(),
            chunks: Vec::new(),
            slots: Vec::with_capacity(prealloc),
            table: Vec::new(),
            policy: kind.build(0),
            allocator: FrameAllocator::new(alloc),
            free: (0..prealloc).rev().collect(),
        };
        for _ in 0..prealloc {
            let frame = cached.grow();
            debug_assert!(frame.is_some(), "preallocation within static arena");
        }
        BufferPool {
            repr: Repr::Exclusive(Exclusive {
                device,
                mode: Mode::Cached(cached),
                stats: AtomicPoolStats::default(),
            }),
        }
    }

    /// Create a pass-through pool (product without the Buffer Manager
    /// feature).
    pub fn unbuffered(device: Box<dyn BlockDevice>) -> Self {
        let page_size = device.page_size();
        BufferPool {
            repr: Repr::Exclusive(Exclusive {
                device,
                mode: Mode::Unbuffered {
                    scratch: vec![0u8; page_size].into_boxed_slice(),
                },
                stats: AtomicPoolStats::default(),
            }),
        }
    }

    /// Create a sharded caching pool usable from many reader threads; see
    /// [`crate::shared::SharedBufferPool`]. `shards` must be a power of two.
    #[cfg(feature = "shared")]
    pub fn new_shared(
        device: Box<dyn BlockDevice>,
        kind: ReplacementKind,
        alloc: AllocPolicy,
        shards: usize,
    ) -> Self {
        BufferPool {
            repr: Repr::Shared(crate::shared::SharedBufferPool::new(
                device, kind, alloc, shards,
            )),
        }
    }

    /// Create a pass-through pool whose reads may run concurrently.
    #[cfg(feature = "shared")]
    pub fn unbuffered_shared(device: Box<dyn BlockDevice>) -> Self {
        BufferPool {
            repr: Repr::Shared(crate::shared::SharedBufferPool::unbuffered(device)),
        }
    }

    /// A cheap clonable `Send + Sync` handle onto this pool, when it was
    /// built in a shared mode ([`BufferPool::new_shared`] /
    /// [`BufferPool::unbuffered_shared`]); `None` for exclusive pools.
    #[cfg(feature = "shared")]
    pub fn shared_handle(&self) -> Option<crate::shared::SharedBufferPool> {
        match &self.repr {
            Repr::Exclusive(_) => None,
            Repr::Shared(s) => Some(s.clone()),
        }
    }

    /// Page size of the underlying device.
    pub fn page_size(&self) -> usize {
        match &self.repr {
            Repr::Exclusive(x) => x.device.page_size(),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.page_size(),
        }
    }

    /// Number of addressable pages.
    pub fn num_pages(&self) -> u32 {
        match &self.repr {
            Repr::Exclusive(x) => x.device.num_pages(),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.num_pages(),
        }
    }

    /// Grow the device (see [`BlockDevice::ensure_pages`]).
    pub fn ensure_pages(&mut self, pages: u32) -> Result<(), OsError> {
        match &mut self.repr {
            Repr::Exclusive(x) => x.device.ensure_pages(pages),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.ensure_pages(pages),
        }
    }

    /// Run `f` over an immutable view of the page.
    pub fn with_page<R>(&mut self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R, OsError> {
        match &mut self.repr {
            Repr::Exclusive(x) => x.with_page(page, f),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.with_page(page, f),
        }
    }

    /// Run `f` over a mutable view of the page; the page is marked dirty
    /// and written back on eviction, [`BufferPool::flush`], or drop.
    pub fn with_page_mut<R>(
        &mut self,
        page: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, OsError> {
        match &mut self.repr {
            Repr::Exclusive(x) => x.with_page_mut(page, f),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.with_page_mut(page, f),
        }
    }

    /// Write back every dirty frame (without a device sync).
    pub fn flush(&mut self) -> Result<(), OsError> {
        match &mut self.repr {
            Repr::Exclusive(x) => x.flush(),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.flush(),
        }
    }

    /// Flush and issue a durability barrier on the device.
    pub fn sync(&mut self) -> Result<(), OsError> {
        match &mut self.repr {
            Repr::Exclusive(x) => {
                x.flush()?;
                x.device.sync()
            }
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.sync(),
        }
    }

    /// Drop `page` from the cache (without write-back); used by the pager
    /// when a page is freed.
    pub fn discard(&mut self, page: PageId) {
        match &mut self.repr {
            Repr::Exclusive(x) => {
                if let Mode::Cached(c) = &mut x.mode {
                    if let Some(idx) = c.resident(page) {
                        c.unmap(page, idx);
                        c.free.push(idx);
                    }
                }
            }
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.discard(page),
        }
    }

    /// Is the page currently resident?
    pub fn contains(&self, page: PageId) -> bool {
        match &self.repr {
            Repr::Exclusive(x) => match &x.mode {
                Mode::Unbuffered { .. } => false,
                Mode::Cached(c) => c.resident(page).is_some(),
            },
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.contains(page),
        }
    }

    /// Number of frames currently allocated.
    pub fn frame_count(&self) -> usize {
        match &self.repr {
            Repr::Exclusive(x) => match &x.mode {
                Mode::Unbuffered { .. } => 0,
                Mode::Cached(c) => c.slots.len(),
            },
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.frame_count(),
        }
    }

    /// Pool counters.
    pub fn stats(&self) -> PoolStats {
        match &self.repr {
            Repr::Exclusive(x) => x.stats.snapshot(),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.stats(),
        }
    }

    /// Device counters (I/O actually performed).
    pub fn device_stats(&self) -> DeviceStats {
        match &self.repr {
            Repr::Exclusive(x) => x.device.stats(),
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.device_stats(),
        }
    }

    /// Name of the replacement policy, or `"none"` in pass-through mode.
    pub fn policy_name(&self) -> &'static str {
        match &self.repr {
            Repr::Exclusive(x) => match &x.mode {
                Mode::Unbuffered { .. } => "none",
                Mode::Cached(c) => c.policy.name(),
            },
            #[cfg(feature = "shared")]
            Repr::Shared(s) => s.policy_name(),
        }
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // Best-effort write-back; errors cannot be surfaced from drop.
        let _ = self.flush();
    }
}

#[cfg(all(test, feature = "lru"))]
mod tests {
    use super::*;
    use fame_os::InMemoryDevice;

    fn device(pages: u32) -> InMemoryDevice {
        let mut dev = InMemoryDevice::new(128);
        dev.ensure_pages(pages).unwrap();
        dev
    }

    fn pool_of(kind: ReplacementKind, alloc: AllocPolicy) -> BufferPool {
        BufferPool::new(Box::new(device(16)), kind, alloc)
    }

    fn pool(frames: usize) -> BufferPool {
        pool_of(ReplacementKind::Lru, AllocPolicy::Static { frames })
    }

    #[test]
    fn read_your_writes() {
        let mut p = pool(4);
        p.with_page_mut(3, |b| b[0] = 42).unwrap();
        let v = p.with_page(3, |b| b[0]).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn hits_and_misses_counted() {
        let mut p = pool(4);
        p.with_page(0, |_| ()).unwrap();
        p.with_page(0, |_| ()).unwrap();
        p.with_page(1, |_| ()).unwrap();
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert!((s.hit_ratio() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let mut p = pool(2);
        p.with_page_mut(0, |b| b[0] = 10).unwrap();
        p.with_page_mut(1, |b| b[0] = 11).unwrap();
        // Touch two more pages: 0 and 1 get evicted.
        p.with_page(2, |_| ()).unwrap();
        p.with_page(3, |_| ()).unwrap();
        assert!(!p.contains(0));
        let s = p.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.writebacks, 2);
        // Data survived the round trip through the device.
        assert_eq!(p.with_page(0, |b| b[0]).unwrap(), 10);
        assert_eq!(p.with_page(1, |b| b[0]).unwrap(), 11);
    }

    #[test]
    fn lru_evicts_coldest_page() {
        let mut p = pool(2);
        p.with_page(0, |_| ()).unwrap();
        p.with_page(1, |_| ()).unwrap();
        p.with_page(0, |_| ()).unwrap(); // 1 is now coldest
        p.with_page(2, |_| ()).unwrap(); // evicts 1
        assert!(p.contains(0));
        assert!(!p.contains(1));
        assert!(p.contains(2));
    }

    #[test]
    fn static_pool_never_exceeds_arena() {
        let mut p = pool(3);
        for page in 0..10 {
            p.with_page(page, |_| ()).unwrap();
        }
        assert_eq!(p.frame_count(), 3);
    }

    #[test]
    fn dynamic_pool_grows_to_cap() {
        let max_frames = Some(5);
        let mut p = pool_of(ReplacementKind::Lru, AllocPolicy::Dynamic { max_frames });
        assert_eq!(p.frame_count(), 0);
        for page in 0..10 {
            p.with_page(page, |_| ()).unwrap();
        }
        assert_eq!(p.frame_count(), 5);
    }

    /// A failed device read hands its frame back: N failures on an
    /// N-frame pool, empty or full, leave every frame usable.
    #[test]
    fn failed_read_returns_its_frame() {
        let mut p = pool(2);
        for round in 0..2 {
            for _ in 0..2 {
                assert!(p.with_page(99, |_| ()).is_err());
            }
            p.with_page_mut(round, |b| b[0] = 7).unwrap();
            p.with_page(round + 2, |_| ()).unwrap();
        }
        assert_eq!(p.with_page(0, |b| b[0]).unwrap(), 7);
        assert_eq!(p.frame_count(), 2);
    }

    #[test]
    fn flush_clears_dirt_once() {
        let mut p = pool(4);
        p.with_page_mut(0, |b| b[0] = 1).unwrap();
        p.flush().unwrap();
        p.flush().unwrap(); // second flush writes nothing
        assert_eq!(p.stats().writebacks, 1);
    }

    #[test]
    fn flush_writes_dirty_pages_in_page_order() {
        use std::sync::{Arc, Mutex};

        struct OrderRecorder {
            inner: InMemoryDevice,
            order: Arc<Mutex<Vec<PageId>>>,
        }
        impl fame_os::BlockDevice for OrderRecorder {
            fn page_size(&self) -> usize {
                self.inner.page_size()
            }
            fn num_pages(&self) -> u32 {
                self.inner.num_pages()
            }
            fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<(), OsError> {
                self.inner.read_page(page, buf)
            }
            fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<(), OsError> {
                self.order.lock().unwrap().push(page);
                self.inner.write_page(page, buf)
            }
            fn ensure_pages(&mut self, pages: u32) -> Result<(), OsError> {
                self.inner.ensure_pages(pages)
            }
            fn sync(&mut self) -> Result<(), OsError> {
                self.inner.sync()
            }
            fn stats(&self) -> fame_os::DeviceStats {
                self.inner.stats()
            }
        }

        let order = Arc::new(Mutex::new(Vec::new()));
        let mut p = BufferPool::new(
            Box::new(OrderRecorder {
                inner: device(16),
                order: Arc::clone(&order),
            }),
            ReplacementKind::Lru,
            AllocPolicy::Static { frames: 8 },
        );
        // Dirty pages in shuffled order so frame order != page order.
        for page in [11u32, 2, 7, 0, 14, 5] {
            p.with_page_mut(page, |b| b[0] = page as u8).unwrap();
        }
        order.lock().unwrap().clear(); // ignore any loads/evictions so far
        p.flush().unwrap();
        let flushed = order.lock().unwrap().clone();
        assert_eq!(flushed, vec![0, 2, 5, 7, 11, 14], "one sequential pass");
    }

    #[test]
    fn sync_reaches_device() {
        let mut p = pool(2);
        p.with_page_mut(0, |b| b[0] = 9).unwrap();
        p.sync().unwrap();
        assert_eq!(p.device_stats().syncs, 1);
        assert_eq!(p.device_stats().writes, 1);
    }

    #[test]
    fn discard_drops_without_writeback() {
        let mut p = pool(2);
        p.with_page_mut(0, |b| b[0] = 7).unwrap();
        p.discard(0);
        assert!(!p.contains(0));
        p.flush().unwrap();
        assert_eq!(p.stats().writebacks, 0);
        // The write never reached the device.
        assert_eq!(p.with_page(0, |b| b[0]).unwrap(), 0);
    }

    #[test]
    fn unbuffered_mode_passes_through() {
        let mut p = BufferPool::unbuffered(Box::new(device(4)));
        p.with_page_mut(1, |b| b[0] = 5).unwrap();
        assert_eq!(p.with_page(1, |b| b[0]).unwrap(), 5);
        assert_eq!(p.frame_count(), 0);
        assert!(!p.contains(1));
        assert_eq!(p.policy_name(), "none");
        // Every access is a device I/O.
        assert_eq!(p.device_stats().reads, 2);
        assert_eq!(p.device_stats().writes, 1);
    }

    #[test]
    fn unbuffered_mutation_counts_one_access() {
        let mut p = BufferPool::unbuffered(Box::new(device(4)));
        p.with_page_mut(0, |b| b[0] = 1).unwrap();
        p.with_page(0, |_| ()).unwrap();
        // One miss per logical access, even though the mutation issued a
        // device read *and* a device write.
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
    }

    #[test]
    fn drop_flushes_dirty_frames() {
        // We can't reclaim the device after drop, so observe via a reopen
        // pattern: write through pool A, drop it, read through pool B
        // backed by the same file-like device. InMemoryDevice can't be
        // shared, so instead assert that flush happens by counting writes
        // before drop through stats() — covered by flush_clears_dirt_once —
        // and here simply ensure drop does not panic with dirty frames.
        let mut p = pool(2);
        p.with_page_mut(0, |b| b[0] = 1).unwrap();
        drop(p);
    }

    #[cfg(feature = "lfu")]
    #[test]
    fn lfu_pool_keeps_hot_page() {
        let mut p = pool_of(ReplacementKind::Lfu, AllocPolicy::Static { frames: 2 });
        for _ in 0..5 {
            p.with_page(0, |_| ()).unwrap(); // hot
        }
        p.with_page(1, |_| ()).unwrap();
        p.with_page(2, |_| ()).unwrap(); // evicts 1 (cold), not 0
        assert!(p.contains(0));
        assert!(!p.contains(1));
    }
}
