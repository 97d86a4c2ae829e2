//! The pager: page allocation, free list, and named roots.
//!
//! Page 0 is the metadata page:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "FAME"
//! 4       2     format version (currently 1)
//! 6       2     page size (must match the device)
//! 8       4     free-list head page (NO_PAGE = empty)
//! 12      4     number of allocated pages (including meta)
//! 16      4*16  named roots (NO_PAGE = unset)
//! ```
//!
//! Freed pages are reformatted as empty `PageType::Free` pages and chained
//! through the standard page-header next-page field, so a freed page stays
//! identifiable as free on disk (the integrity checker depends on this).
//! Access methods obtain formatted pages via [`Pager::allocate`], return them via
//! [`Pager::free`], and persist their root page numbers in one of the 16
//! named root slots — which is how a database image is reopened.

use fame_buffer::{BufferPool, PageToken};
use fame_os::PageId;

use crate::error::{Result, StorageError};
use crate::page::{PageType, PageView, SlottedPage, NO_PAGE};

pub(crate) const MAGIC: &[u8; 4] = b"FAME";
pub(crate) const VERSION: u16 = 1;
/// Number of named root slots in the meta page.
pub const ROOT_SLOTS: usize = 16;

pub(crate) const OFF_MAGIC: usize = 0;
pub(crate) const OFF_VERSION: usize = 4;
pub(crate) const OFF_PAGE_SIZE: usize = 6;
pub(crate) const OFF_FREE_HEAD: usize = 8;
pub(crate) const OFF_PAGE_COUNT: usize = 12;
pub(crate) const OFF_ROOTS: usize = 16;

/// In-memory copy of the meta-page header, maintained write-through:
/// every mutation lands on page 0 immediately, reads never touch the pool.
/// Safe because the pager is the only writer of these fields.
#[derive(Debug, Clone, Copy)]
struct MetaCache {
    free_head: u32,
    page_count: u32,
    roots: [u32; ROOT_SLOTS],
}

impl MetaCache {
    fn load(buf: &[u8]) -> Self {
        let u32_at =
            |off: usize| u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"));
        let mut roots = [NO_PAGE; ROOT_SLOTS];
        for (i, r) in roots.iter_mut().enumerate() {
            *r = u32_at(OFF_ROOTS + 4 * i);
        }
        MetaCache {
            free_head: u32_at(OFF_FREE_HEAD),
            page_count: u32_at(OFF_PAGE_COUNT),
            roots,
        }
    }
}

/// Statistics feature: logical pager operations (distinct from the pool's
/// hit/miss counters — these count what the access methods *asked for*,
/// not how the cache served it).
#[cfg(feature = "obs")]
#[derive(Debug, Default)]
pub struct PagerOps {
    pub page_reads: fame_obs::Counter,
    pub page_writes: fame_obs::Counter,
    pub allocs: fame_obs::Counter,
    pub frees: fame_obs::Counter,
}

/// A point-in-time copy of [`PagerOps`].
#[cfg(feature = "obs")]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerOpsSnapshot {
    pub page_reads: u64,
    pub page_writes: u64,
    pub allocs: u64,
    pub frees: u64,
}

#[cfg(feature = "obs")]
impl PagerOps {
    fn snapshot(&self) -> PagerOpsSnapshot {
        PagerOpsSnapshot {
            page_reads: self.page_reads.get(),
            page_writes: self.page_writes.get(),
            allocs: self.allocs.get(),
            frees: self.frees.get(),
        }
    }
}

/// Page allocator and root directory over a [`BufferPool`].
pub struct Pager {
    pool: BufferPool,
    meta: MetaCache,
    #[cfg(feature = "obs")]
    ops: PagerOps,
}

impl Pager {
    /// Open a pager over a pool. An empty device, or one holding a single
    /// all-zero page, is formatted; an existing image is verified (magic,
    /// version, page size).
    pub fn open(mut pool: BufferPool) -> Result<Self> {
        // A crash inside the format below can keep the grown page and lose
        // the meta-page write. The format syncs before anything else is
        // written, so one all-zero page never held data: format it again.
        let blank = match pool.num_pages() {
            0 => true,
            1 => pool.with_page(0, |buf| buf.iter().all(|&b| b == 0))?,
            _ => false,
        };
        if blank {
            pool.ensure_pages(1)?;
            let page_size = pool.page_size();
            pool.with_page_mut(0, |buf| {
                buf.fill(0);
                buf[OFF_MAGIC..OFF_MAGIC + 4].copy_from_slice(MAGIC);
                buf[OFF_VERSION..OFF_VERSION + 2].copy_from_slice(&VERSION.to_le_bytes());
                buf[OFF_PAGE_SIZE..OFF_PAGE_SIZE + 2]
                    .copy_from_slice(&(page_size as u16).to_le_bytes());
                buf[OFF_FREE_HEAD..OFF_FREE_HEAD + 4].copy_from_slice(&NO_PAGE.to_le_bytes());
                buf[OFF_PAGE_COUNT..OFF_PAGE_COUNT + 4].copy_from_slice(&1u32.to_le_bytes());
                for i in 0..ROOT_SLOTS {
                    let at = OFF_ROOTS + 4 * i;
                    buf[at..at + 4].copy_from_slice(&NO_PAGE.to_le_bytes());
                }
            })?;
            // The format must survive a crash even if nothing else does:
            // recovery after a crash-before-first-sync needs a valid
            // (empty) image to replay the WAL into.
            pool.sync()?;
            return Ok(Pager {
                pool,
                meta: MetaCache {
                    free_head: NO_PAGE,
                    page_count: 1,
                    roots: [NO_PAGE; ROOT_SLOTS],
                },
                #[cfg(feature = "obs")]
                ops: PagerOps::default(),
            });
        }

        let expected_page_size = pool.page_size();
        let meta = pool.with_page(0, |buf| {
            let ok = &buf[OFF_MAGIC..OFF_MAGIC + 4] == MAGIC
                && u16::from_le_bytes([buf[OFF_VERSION], buf[OFF_VERSION + 1]]) == VERSION
                && u16::from_le_bytes([buf[OFF_PAGE_SIZE], buf[OFF_PAGE_SIZE + 1]]) as usize
                    == expected_page_size;
            ok.then(|| MetaCache::load(buf))
        })?;
        match meta {
            Some(meta) => Ok(Pager {
                pool,
                meta,
                #[cfg(feature = "obs")]
                ops: PagerOps::default(),
            }),
            None => Err(StorageError::NotFormatted),
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.pool.page_size()
    }

    /// Write-through: put `v` at `off` on page 0 (the caller updates the
    /// cache).
    fn write_meta_u32(&mut self, off: usize, v: u32) -> Result<()> {
        Ok(self.pool.with_page_mut(0, |buf| {
            buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
        })?)
    }

    /// Number of pages the pager has handed out (including meta and freed
    /// pages still owned by the free list).
    pub fn allocated_pages(&self) -> Result<u32> {
        Ok(self.meta.page_count)
    }

    /// Head of the free list, `None` when empty.
    #[cfg(test)]
    fn free_head(&self) -> Result<Option<PageId>> {
        let v = self.meta.free_head;
        Ok(if v == NO_PAGE { None } else { Some(v) })
    }

    /// Allocate a page of type `ty`: pop the free list or grow the device,
    /// then format the page with [`SlottedPage::init`] and run `fill` over
    /// it, in one page write. Every page an access method holds was
    /// formatted here.
    pub fn allocate(
        &mut self,
        ty: PageType,
        fill: impl FnOnce(&mut SlottedPage<'_>),
    ) -> Result<PageId> {
        #[cfg(feature = "obs")]
        self.ops.allocs.inc();
        let head = self.meta.free_head;
        let page = if head != NO_PAGE {
            let next = self.pool.with_page(head, |buf| {
                PageView::new(buf).next_page().unwrap_or(NO_PAGE)
            })?;
            self.write_meta_u32(OFF_FREE_HEAD, next)?;
            self.meta.free_head = next;
            head
        } else {
            let count = self.meta.page_count;
            self.pool.ensure_pages(count + 1)?;
            self.write_meta_u32(OFF_PAGE_COUNT, count + 1)?;
            self.meta.page_count = count + 1;
            count
        };
        self.with_page_mut(page, |buf| fill(&mut SlottedPage::init(buf, ty)))?;
        Ok(page)
    }

    /// Return a page to the free list. The page is reformatted as an empty
    /// `PageType::Free` page chained to the previous head through the
    /// standard header next-page field, so the type tag stays intact and
    /// free pages are recognizable (the integrity checker relies on this).
    pub fn free(&mut self, page: PageId) -> Result<()> {
        debug_assert_ne!(page, 0, "meta page cannot be freed");
        #[cfg(feature = "obs")]
        self.ops.frees.inc();
        let head = self.meta.free_head;
        self.pool.with_page_mut(page, |buf| {
            let mut pg = SlottedPage::init(buf, PageType::Free);
            pg.set_next_page(if head == NO_PAGE { None } else { Some(head) });
        })?;
        self.write_meta_u32(OFF_FREE_HEAD, page)?;
        self.meta.free_head = page;
        Ok(())
    }

    /// Read a named root pointer.
    pub fn root(&self, slot: usize) -> Result<Option<PageId>> {
        assert!(slot < ROOT_SLOTS, "root slot out of range");
        let v = self.meta.roots[slot];
        Ok(if v == NO_PAGE { None } else { Some(v) })
    }

    /// Persist a named root pointer.
    pub fn set_root(&mut self, slot: usize, page: Option<PageId>) -> Result<()> {
        assert!(slot < ROOT_SLOTS, "root slot out of range");
        let v = page.unwrap_or(NO_PAGE);
        self.write_meta_u32(OFF_ROOTS + 4 * slot, v)?;
        self.meta.roots[slot] = v;
        Ok(())
    }

    /// Run `f` over an immutable page view.
    pub fn with_page<R>(&mut self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        #[cfg(feature = "obs")]
        self.ops.page_reads.inc();
        Ok(self.pool.with_page(page, f)?)
    }

    /// Run `f` over a mutable page view (marks the page dirty).
    pub fn with_page_mut<R>(&mut self, page: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        #[cfg(feature = "obs")]
        self.ops.page_writes.inc();
        Ok(self.pool.with_page_mut(page, f)?)
    }

    /// Flush dirty frames and issue a device durability barrier.
    pub fn sync(&mut self) -> Result<()> {
        Ok(self.pool.sync()?)
    }

    /// Statistics feature: logical operation counts of this pager.
    #[cfg(feature = "obs")]
    pub fn ops(&self) -> PagerOpsSnapshot {
        self.ops.snapshot()
    }

    /// Access the underlying pool (statistics, tests).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Mutable access to the underlying pool.
    pub fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    /// A read-only view onto the same pool image, when the pool was built
    /// in a shared mode; `None` for exclusive pools. Clones of the view
    /// are cheap and `Send`, so each reader thread carries its own.
    #[cfg(feature = "shared")]
    pub fn shared(&self) -> Option<SharedPager> {
        self.pool.shared_handle().map(|pool| SharedPager { pool })
    }
}

/// Read-only page access, the capability the index *search* paths need.
/// Implemented by the exclusive [`Pager`] and by the cheap-clone
/// [`SharedPager`] view, so one generic `get` serves both the
/// single-threaded product and concurrent readers.
///
/// The `&mut self` receiver matches the pager's exclusive access model;
/// shared implementations take it too (cheaply) so the single-threaded
/// path keeps zero indirection.
pub trait PageRead {
    /// Page size in bytes.
    fn page_size(&self) -> usize;

    /// Run `f` over an immutable page view.
    fn with_page<R>(&mut self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R>;

    /// Run `f` over an immutable page view and return the
    /// [`PageToken`] receipt of the snapshot it ran on. The default
    /// (exclusive pagers: nothing mutates pages while `&mut self` is
    /// borrowed) hands out the always-valid sentinel, so optimistic
    /// lock coupling degrades to the plain descent there.
    fn with_page_token<R>(
        &mut self,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<(R, PageToken)> {
        self.with_page(page, f)
            .map(|r| (r, PageToken::ALWAYS_VALID))
    }

    /// Has nothing invalidated the snapshot `token` came from? The
    /// default is `true` for the same reason `with_page_token` defaults
    /// to the sentinel.
    fn validate_token(&mut self, token: PageToken) -> bool {
        let _ = token;
        true
    }
}

impl PageRead for Pager {
    fn page_size(&self) -> usize {
        Pager::page_size(self)
    }

    fn with_page<R>(&mut self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        Pager::with_page(self, page, f)
    }
}

/// A `Send` read-only pager view over a [`fame_buffer::SharedBufferPool`].
/// Obtained from [`Pager::shared`]; clone one per reader thread.
#[cfg(feature = "shared")]
#[derive(Clone)]
pub struct SharedPager {
    pool: fame_buffer::SharedBufferPool,
}

#[cfg(feature = "shared")]
impl SharedPager {
    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.pool.page_size()
    }

    /// Run `f` over an immutable page view (latch-free on a cache hit;
    /// see the shared pool's seqlock protocol).
    pub fn with_page<R>(&self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        Ok(self.pool.with_page(page, f)?)
    }

    /// Like [`SharedPager::with_page`], also returning the frame-version
    /// receipt the optimistic B-tree descent validates against.
    pub fn with_page_token<R>(
        &self,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<(R, PageToken)> {
        Ok(self.pool.with_page_token(page, f)?)
    }

    /// Is the snapshot `token` came from still current?
    pub fn validate_token(&self, token: PageToken) -> bool {
        self.pool.validate_token(token)
    }

    /// Read a named root pointer from the meta page. Unlike the exclusive
    /// [`Pager`] this goes through the pool: a reader handle must observe
    /// root moves (B+-tree splits) the writer published since the handle
    /// was cloned.
    pub fn root(&self, slot: usize) -> Result<Option<PageId>> {
        assert!(slot < ROOT_SLOTS, "root slot out of range");
        let v = self.with_page(0, |buf| {
            let at = OFF_ROOTS + 4 * slot;
            u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
        })?;
        Ok(if v == NO_PAGE { None } else { Some(v) })
    }

    /// The underlying shared pool (statistics).
    pub fn pool(&self) -> &fame_buffer::SharedBufferPool {
        &self.pool
    }

    /// A pager view pinned to snapshot timestamp `ts` (Snapshot feature).
    /// The caller is responsible for having registered `ts` with the
    /// pool's snapshot registry (the facade's `DbSnapshot` handles this,
    /// including deregistration on drop).
    #[cfg(feature = "snapshot")]
    pub fn snapshot_at(&self, ts: u64) -> SnapshotPager {
        SnapshotPager {
            pool: self.pool.clone(),
            ts,
        }
    }
}

#[cfg(feature = "shared")]
impl PageRead for SharedPager {
    fn page_size(&self) -> usize {
        SharedPager::page_size(self)
    }

    fn with_page<R>(&mut self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        SharedPager::with_page(self, page, f)
    }

    fn with_page_token<R>(
        &mut self,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<(R, PageToken)> {
        SharedPager::with_page_token(self, page, f)
    }

    fn validate_token(&mut self, token: PageToken) -> bool {
        SharedPager::validate_token(self, token)
    }
}

/// A `Send` pager view pinned to a snapshot timestamp (feature
/// `Concurrency → MultiWriter → Snapshot`): every page read resolves to
/// the newest committed version ≤ `ts`, never touching the lock table.
///
/// Implements [`PageRead`] with the *always-valid* token defaults
/// deliberately: the state a snapshot observes is frozen — chain images
/// are immutable once captured, and the pool re-validates head reads
/// internally against the commit timestamp — so the optimistic B-tree
/// descent over this pager needs no token validation at all. All pages at
/// one timestamp form a single prefix-consistent tree; no concurrent
/// split can become visible mid-descent.
#[cfg(feature = "snapshot")]
#[derive(Clone)]
pub struct SnapshotPager {
    pool: fame_buffer::SharedBufferPool,
    ts: u64,
}

#[cfg(feature = "snapshot")]
impl SnapshotPager {
    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.pool.page_size()
    }

    /// The snapshot's commit timestamp.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Re-pin this view to timestamp `ts`. As with
    /// [`SharedPager::snapshot_at`], registration of the new timestamp
    /// (and deregistration of the old) is the caller's job.
    pub fn repin(&mut self, ts: u64) {
        self.ts = ts;
    }

    /// Run `f` over the page image this snapshot observes.
    pub fn with_page<R>(&self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        Ok(self.pool.with_page_at(page, self.ts, f)?)
    }

    /// Read a named root pointer as of this snapshot. Root moves (B+-tree
    /// splits) committed after the snapshot's timestamp stay invisible —
    /// the meta page is versioned like every other page.
    pub fn root(&self, slot: usize) -> Result<Option<PageId>> {
        assert!(slot < ROOT_SLOTS, "root slot out of range");
        let v = self.with_page(0, |buf| {
            let at = OFF_ROOTS + 4 * slot;
            u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
        })?;
        Ok(if v == NO_PAGE { None } else { Some(v) })
    }

    /// The underlying shared pool (statistics).
    pub fn pool(&self) -> &fame_buffer::SharedBufferPool {
        &self.pool
    }
}

#[cfg(feature = "snapshot")]
impl PageRead for SnapshotPager {
    fn page_size(&self) -> usize {
        SnapshotPager::page_size(self)
    }

    fn with_page<R>(&mut self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        SnapshotPager::with_page(self, page, f)
    }

    // with_page_token / validate_token: the defaults (always-valid
    // sentinel) — see the type docs for why immutable versions need none.
}

#[cfg(test)]
mod tests {
    use super::*;
    use fame_os::{AllocPolicy, InMemoryDevice};

    fn pager() -> Pager {
        let dev = InMemoryDevice::new(256);
        let pool = BufferPool::new(
            Box::new(dev),
            fame_buffer::ReplacementKind::Lru,
            AllocPolicy::Dynamic {
                max_frames: Some(8),
            },
        );
        Pager::open(pool).unwrap()
    }

    #[test]
    fn formats_fresh_device() {
        let p = pager();
        assert_eq!(p.allocated_pages().unwrap(), 1);
        assert_eq!(p.root(0).unwrap(), None);
    }

    #[test]
    fn allocate_grows_then_reuses_freed() {
        let mut p = pager();
        let a = p.allocate(PageType::Heap, |_| {}).unwrap();
        let b = p.allocate(PageType::Heap, |_| {}).unwrap();
        assert_eq!((a, b), (1, 2));
        p.free(a).unwrap();
        let c = p.allocate(PageType::Heap, |_| {}).unwrap();
        assert_eq!(c, a, "free list reuse");
        let d = p.allocate(PageType::Heap, |_| {}).unwrap();
        assert_eq!(d, 3, "growth resumes after free list empty");
    }

    #[test]
    fn freed_pages_keep_their_type_tag() {
        let mut p = pager();
        let a = p.allocate(PageType::Heap, |_| {}).unwrap();
        let b = p.allocate(PageType::Heap, |_| {}).unwrap();
        p.free(a).unwrap();
        p.free(b).unwrap();
        assert_eq!(p.free_head().unwrap(), Some(b));
        // Both pages must be recognizable as free on disk, with the chain
        // in the header next field rather than clobbering the tag.
        let (ty_b, next_b) = p
            .with_page(b, |buf| {
                let v = PageView::new(buf);
                (v.page_type(), v.next_page())
            })
            .unwrap();
        assert_eq!(ty_b, Some(PageType::Free));
        assert_eq!(next_b, Some(a));
        let (ty_a, next_a) = p
            .with_page(a, |buf| {
                let v = PageView::new(buf);
                (v.page_type(), v.next_page())
            })
            .unwrap();
        assert_eq!(ty_a, Some(PageType::Free));
        assert_eq!(next_a, None);
    }

    #[test]
    fn free_list_is_lifo_chain() {
        let mut p = pager();
        let pages: Vec<_> = (0..3)
            .map(|_| p.allocate(PageType::Heap, |_| {}).unwrap())
            .collect();
        for &pg in &pages {
            p.free(pg).unwrap();
        }
        // LIFO: last freed comes back first.
        assert_eq!(p.allocate(PageType::Heap, |_| {}).unwrap(), pages[2]);
        assert_eq!(p.allocate(PageType::Heap, |_| {}).unwrap(), pages[1]);
        assert_eq!(p.allocate(PageType::Heap, |_| {}).unwrap(), pages[0]);
    }

    #[test]
    fn roots_persist() {
        let mut p = pager();
        p.set_root(0, Some(5)).unwrap();
        p.set_root(3, Some(9)).unwrap();
        assert_eq!(p.root(0).unwrap(), Some(5));
        assert_eq!(p.root(3).unwrap(), Some(9));
        p.set_root(0, None).unwrap();
        assert_eq!(p.root(0).unwrap(), None);
    }

    #[test]
    fn reopen_keeps_state() {
        // Reopen requires reclaiming the device, so run against a file
        // device.
        let path = std::env::temp_dir().join(format!("fame-pager-{}", std::process::id()));
        {
            let fdev = fame_os::FileDevice::create(&path, 256).unwrap();
            let pool = BufferPool::unbuffered(Box::new(fdev));
            let mut p = Pager::open(pool).unwrap();
            let pg = p.allocate(PageType::Heap, |_| {}).unwrap();
            p.set_root(1, Some(pg)).unwrap();
            p.sync().unwrap();
        }
        {
            let fdev = fame_os::FileDevice::open(&path, 256).unwrap();
            let pool = BufferPool::unbuffered(Box::new(fdev));
            let p = Pager::open(pool).unwrap();
            assert_eq!(p.root(1).unwrap(), Some(1));
            assert_eq!(p.allocated_pages().unwrap(), 2);
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn garbage_device_rejected() {
        use fame_os::BlockDevice;
        let mut dev = InMemoryDevice::new(256);
        dev.ensure_pages(1).unwrap();
        let mut junk = vec![0u8; 256];
        junk[0..4].copy_from_slice(b"JUNK");
        dev.write_page(0, &junk).unwrap();
        let pool = BufferPool::unbuffered(Box::new(dev));
        assert!(matches!(Pager::open(pool), Err(StorageError::NotFormatted)));
    }

    #[test]
    fn one_blank_page_is_formatted() {
        // What a power cut between the format's page grow and its sync
        // leaves on write-back media.
        use fame_os::BlockDevice;
        let mut dev = InMemoryDevice::new(256);
        dev.ensure_pages(1).unwrap();
        let mut p = Pager::open(BufferPool::unbuffered(Box::new(dev))).unwrap();
        assert_eq!(p.allocated_pages().unwrap(), 1);
        assert_eq!(p.allocate(PageType::Heap, |_| {}).unwrap(), 1);
    }

    #[test]
    fn meta_reads_bypass_the_pool() {
        let mut p = pager();
        p.set_root(0, Some(5)).unwrap();
        let before = p.pool().stats();
        for _ in 0..100 {
            let _ = p.allocated_pages().unwrap();
            let _ = p.free_head().unwrap();
            let _ = p.root(0).unwrap();
        }
        assert_eq!(p.pool().stats(), before, "header reads served from cache");
    }

    #[cfg(feature = "shared")]
    #[test]
    fn shared_view_sees_writer_pages() {
        let dev = InMemoryDevice::new(256);
        let pool = BufferPool::new_shared(
            Box::new(dev),
            fame_buffer::ReplacementKind::Lru,
            AllocPolicy::Dynamic {
                max_frames: Some(8),
            },
            2,
        );
        let mut p = Pager::open(pool).unwrap();
        let pg = p.allocate(PageType::Heap, |_| {}).unwrap();
        p.with_page_mut(pg, |buf| buf[10] = 99).unwrap();
        let view = p.shared().expect("pool is shared");
        assert_eq!(view.with_page(pg, |buf| buf[10]).unwrap(), 99);
        assert_eq!(view.page_size(), 256);
        // Exclusive pools expose no shared view.
        let excl = Pager::open(BufferPool::unbuffered(Box::new(InMemoryDevice::new(256))));
        assert!(excl.unwrap().shared().is_none());
    }

    #[test]
    #[should_panic(expected = "root slot out of range")]
    fn root_slot_bounds_checked() {
        let p = pager();
        let _ = p.root(ROOT_SLOTS);
    }

    #[cfg(feature = "snapshot")]
    #[test]
    fn snapshot_pager_pins_roots_and_pages() {
        let pool = BufferPool::new_shared(
            Box::new(InMemoryDevice::new(256)),
            fame_buffer::ReplacementKind::Lru,
            AllocPolicy::Dynamic {
                max_frames: Some(8),
            },
            4,
        );
        let mut p = Pager::open(pool).unwrap();
        let page = p.allocate(PageType::Heap, |_| {}).unwrap();
        p.set_root(0, Some(page)).unwrap();
        p.with_page_mut(page, |buf| buf[0] = 1).unwrap();

        let shared = p.shared().unwrap();
        let spool = shared.pool().clone();
        let ts0 = spool.snapshot_begin();

        // A writer transaction mutates the page and clears the root.
        {
            let _scope = fame_buffer::TxnWriteScope::new(9);
            p.with_page_mut(page, |buf| buf[0] = 2).unwrap();
            p.set_root(0, None).unwrap();
        }
        spool.install_commits(&[9], 1);

        // The old snapshot still sees the pre-commit root and bytes.
        let snap = shared.snapshot_at(ts0);
        assert_eq!(snap.ts(), ts0);
        assert_eq!(snap.root(0).unwrap(), Some(page));
        assert_eq!(snap.with_page(page, |b| b[0]).unwrap(), 1);

        // A fresh snapshot observes the committed state.
        let ts1 = spool.snapshot_begin();
        let now = shared.snapshot_at(ts1);
        assert_eq!(now.root(0).unwrap(), None);
        assert_eq!(now.with_page(page, |b| b[0]).unwrap(), 2);

        spool.snapshot_end(ts0);
        spool.snapshot_end(ts1);
        assert_eq!(spool.version_stats().active, 0);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn ops_count_logical_operations() {
        let mut p = pager();
        let a = p.allocate(PageType::Heap, |_| {}).unwrap();
        p.with_page_mut(a, |buf| buf[20] = 1).unwrap();
        p.with_page(a, |_| ()).unwrap();
        p.with_page(a, |_| ()).unwrap();
        p.free(a).unwrap();
        let ops = p.ops();
        assert_eq!(ops.allocs, 1);
        assert_eq!(ops.frees, 1);
        assert_eq!(ops.page_reads, 2);
        assert_eq!(ops.page_writes, 2, "allocate's format is a page write");
    }
}
