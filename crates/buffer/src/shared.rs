//! Sharded buffer pool with a latch-free optimistic hit path: feature
//! *Buffer Manager → Concurrency → MultiReader* of the (extended)
//! Figure 2 diagram.
//!
//! [`SharedBufferPool`] is a cheap-clone `Send + Sync` handle onto one pool
//! image shared by many threads. Page `p` belongs to shard `p & (N - 1)`
//! of `N` power-of-two shards; each shard keeps
//!
//! * a **page map** with one `AtomicU32` entry (`frame index + 1`, 0 =
//!   absent) per page id the shard owns, read by the hit path without any
//!   latch and written only under the shard write latch — so it is the
//!   one, authoritative map, and a page id past its bound (2^24) is an
//!   `OutOfRange` error rather than an entry;
//! * an append-only **frame arena**, so a frame's address is stable for
//!   the pool's lifetime and readers may hold references without holding
//!   the shard latch (both are a `ChunkDir`: chunks published through
//!   `OnceLock`);
//! * the latched **core** (free list, allocator, arena length) behind a
//!   `parking_lot::RwLock`, used by misses and mutations only.
//!
//! # The seqlock hit protocol
//!
//! Every frame carries an even/odd `AtomicU64` *version*: **odd means a
//! write is in progress**, even means the bytes are stable. A hit takes
//! no latch at all:
//!
//! 1. load the page's map entry, load the frame's version (`Acquire`) —
//!    odd aborts — and check the frame's page *tag* (the entry may have
//!    been re-pointed since it was loaded);
//! 2. copy the page words (plain `Relaxed` atomic loads — racing copies
//!    are well-defined and simply discarded) into a thread-local scratch
//!    page;
//! 3. re-check the version (`Acquire` fence, then `Relaxed` load): if it
//!    still matches, the copy is a point-in-time-consistent snapshot and
//!    the caller's closure runs on it; any mismatch falls back to the
//!    latched path, which reads the map again under the shard latch.
//!
//! Writers — page loads, evictions, [`SharedBufferPool::with_page_mut`],
//! [`SharedBufferPool::discard`] — hold the shard *write* latch (so there
//! is exactly one writer per frame) and bump the version to odd before
//! touching the bytes and back to even after, making every concurrent
//! optimistic copy invalidate itself. Validated snapshots are receipts:
//! [`SharedBufferPool::with_page_token`] returns a [`PageToken`] naming
//! the frame and version, and [`SharedBufferPool::validate_token`]
//! re-checks it later — the primitive optimistic lock coupling in the
//! B-tree descent builds on.
//!
//! Lock order is always shard latch → device latch; no path holds two
//! shard latches. The miss path releases the shard *read* latch before
//! re-acquiring the same latch for *write* (a release-then-reacquire
//! upgrade, recognized as such by fame-lint's edge-aware lock pass).
//!
//! # Recency without a global clock
//!
//! The exclusive pool's heap-based [`crate::ReplacementPolicy`] objects
//! need `&mut self` and cannot run latch-free. The shared pool keeps an
//! `AtomicU64` recency stamp and access count per frame and derives the
//! victim at eviction time: minimum stamp for LRU, minimum
//! `(count, stamp)` for LFU. The tick source is a **per-shard** clock
//! (one cache line per shard, see [`ShardHot`]) rather than one global
//! `fetch_add` every access — the E8 experiment showed the global clock's
//! shared cache line flattening multi-thread scaling. Consecutive hits on
//! the same frame skip the clock bump entirely (the frame is already the
//! shard's most recent); LFU access counts still increment every hit so
//! frequency is exact. Hit counts are per-shard for the same reason and
//! summed into [`SharedBufferPool::stats`] on demand.

use std::cell::RefCell;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64};
use std::sync::Arc;

use fame_os::{AllocPolicy, BlockDevice, DeviceStats, FrameAllocator, OsError, PageId};
use parking_lot::RwLock;

use crate::dir::{past_bound, ChunkDir, MAX_PAGES};
use crate::replacement::ReplacementKind;
#[cfg(feature = "obs")]
use crate::stats::Counter;
use crate::stats::{AtomicPoolStats, PoolStats};
use crate::token::PageToken;

/// Default shard count used when a product enables MultiReader without
/// choosing one.
pub const DEFAULT_SHARDS: usize = 8;

/// Frames per arena chunk. Chunks are allocated whole so frame addresses
/// never move; 16 frames keeps the step size small for tiny embedded
/// budgets.
const CHUNK: usize = 16;

/// Arena chunk slots per shard; caps a shard at `CHUNK * MAX_CHUNKS`
/// frames. A dynamic allocation policy that outgrows the cap simply
/// starts evicting, it never fails.
const MAX_CHUNKS: usize = 512;

/// Page-map entries per chunk: 16 KiB maps 4 096 of a shard's pages.
const MAP_CHUNK: usize = 4096;

/// One page frame. Everything is interior-mutable so frames can live
/// outside the shard latch; the *data-write* invariant is that page words,
/// `tag`, and `dirty` change only while the owning shard's write latch is
/// held **and** `version` is odd.
struct SharedFrame {
    /// Seqlock version: odd = write in progress, even = stable. Bumped
    /// twice per write window.
    version: AtomicU64,
    /// `page + 1` of the resident page, `0` when vacant. Lets optimistic
    /// readers confirm a (possibly stale) page-table entry against the
    /// frame itself.
    tag: AtomicU64,
    /// Page bytes as whole words. Plain atomics make racing optimistic
    /// copies well-defined; torn values are discarded by the version
    /// re-check.
    data: Box<[AtomicU64]>,
    dirty: AtomicBool,
    /// Tick of the most recent access (per-shard clock); LRU victim =
    /// minimum.
    stamp: AtomicU64,
    /// Accesses since load; LFU victim = minimum `(count, stamp)`.
    count: AtomicU64,
}

impl SharedFrame {
    fn new(words: usize) -> Self {
        SharedFrame {
            version: AtomicU64::new(0),
            tag: AtomicU64::new(0),
            data: (0..words).map(|_| AtomicU64::new(0)).collect(),
            dirty: AtomicBool::new(false),
            stamp: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Resident page id, derived from the tag.
    fn page(&self) -> Option<PageId> {
        match self.tag.load(Relaxed) {
            0 => None,
            t => Some((t - 1) as PageId),
        }
    }

    /// Open a write window (caller holds the shard write latch): version
    /// goes odd, and the `Release` fence orders the odd store before the
    /// data stores that follow (the crossbeam seqlock idiom).
    fn begin_write(&self) {
        let prev = self.version.fetch_add(1, Acquire);
        debug_assert!(prev.is_multiple_of(2), "nested write window");
        fence(Release);
    }

    /// Close the write window: version back to even with `Release`, so a
    /// reader that observes the new version also observes the new bytes.
    fn end_write(&self) {
        let v = self.version.load(Relaxed);
        debug_assert!(!v.is_multiple_of(2), "end_write outside a window");
        self.version.store(v.wrapping_add(1), Release);
    }

    /// First half of an optimistic read: the version to validate against.
    fn read_begin(&self) -> u64 {
        self.version.load(Acquire)
    }

    /// Second half: the `Acquire` fence orders the preceding data loads
    /// before the re-check, so `true` proves no write window overlapped
    /// the copy.
    fn read_validate(&self, v1: u64) -> bool {
        fence(Acquire);
        self.version.load(Relaxed) == v1
    }

    /// Copy the page words into `dst` (`dst.len()` = page size). The
    /// exact-chunk loop keeps the hot copy free of per-chunk length
    /// branches; only a trailing partial word (page size not a multiple
    /// of 8) takes the slow tail.
    fn copy_out(&self, dst: &mut [u8]) {
        let mut words = self.data.iter();
        let mut chunks = dst.chunks_exact_mut(8);
        for (chunk, w) in chunks.by_ref().zip(words.by_ref()) {
            chunk.copy_from_slice(&w.load(Relaxed).to_ne_bytes());
        }
        let tail = chunks.into_remainder();
        if let (false, Some(w)) = (tail.is_empty(), words.next()) {
            let bytes = w.load(Relaxed).to_ne_bytes();
            let n = tail.len();
            tail.copy_from_slice(&bytes[..n]);
        }
    }

    /// Overwrite the page words from `src`; caller must be inside a write
    /// window.
    fn fill_from(&self, src: &[u8]) {
        let mut words = self.data.iter();
        let mut chunks = src.chunks_exact(8);
        for (chunk, w) in chunks.by_ref().zip(words.by_ref()) {
            w.store(
                u64::from_ne_bytes(chunk.try_into().expect("8 bytes")),
                Relaxed,
            );
        }
        let tail = chunks.remainder();
        if let (false, Some(w)) = (tail.is_empty(), words.next()) {
            let mut bytes = [0u8; 8];
            bytes[..tail.len()].copy_from_slice(tail);
            w.store(u64::from_ne_bytes(bytes), Relaxed);
        }
    }

    /// Record an access. The stamp bump is skipped when this frame was
    /// already the shard's most recent access (repeat hits on a hot frame
    /// leave the shard clock line alone); LFU counts increment on every
    /// access so frequency stays exact — `lfu_scan_keeps_hot_page`
    /// depends on it. Concurrent unlatched touchers may tie on a tick;
    /// ties only perturb victim choice.
    fn touch(&self, hot: &ShardHot, track_count: bool) {
        if track_count {
            self.count.fetch_add(1, Relaxed);
        }
        let now = hot.clock.load(Relaxed);
        if self.stamp.load(Relaxed) != now {
            let tick = now.wrapping_add(1);
            hot.clock.store(tick, Relaxed);
            self.stamp.store(tick, Relaxed);
        }
    }

    /// Unconditional stamp for a freshly loaded frame: a fresh frame's
    /// stamp 0 may equal the shard clock, which would defeat the
    /// last-toucher skip in [`SharedFrame::touch`] and leave the frame
    /// looking ancient to the victim scan.
    fn stamp_now(&self, hot: &ShardHot) {
        let tick = hot.clock.load(Relaxed).wrapping_add(1);
        hot.clock.store(tick, Relaxed);
        self.stamp.store(tick, Relaxed);
    }
}

/// Per-shard hot line: the recency clock and hit counter every access
/// touches, cache-line aligned so two shards never false-share.
#[repr(align(64))]
struct ShardHot {
    /// Per-shard access tick (the satellite fix for the E8 LFU
    /// regression: the former pool-global clock was one contended cache
    /// line shared by all threads).
    clock: AtomicU64,
    /// Hits served by this shard; summed into [`PoolStats::hits`].
    hits: AtomicU64,
}

impl ShardHot {
    fn new() -> Self {
        ShardHot {
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }
}

/// The latched remainder of a shard: free list, allocator, and the in-use
/// prefix length of the arena.
struct ShardCore {
    free: Vec<usize>,
    allocator: FrameAllocator,
    /// Frames materialized in the arena (`0..len` are valid indices).
    len: usize,
}

/// One shard: latch-free structures beside the latched core.
struct CachedShard {
    core: RwLock<ShardCore>,
    /// `frame index + 1` of each page this shard owns, 0 when absent,
    /// indexed by `page >> shift`; written under the core's write latch.
    map: ChunkDir<AtomicU32, MAP_CHUNK>,
    /// `log2` of the shard count.
    shift: u32,
    arena: ChunkDir<SharedFrame, CHUNK>,
    hot: ShardHot,
}

impl CachedShard {
    /// The frame `page` is mapped to. Without the shard latch this is a
    /// hint to confirm against the frame's tag and version.
    fn mapped(&self, page: PageId) -> Option<usize> {
        let entry = self.map.get((page >> self.shift) as usize)?.load(Acquire);
        entry.checked_sub(1).map(|idx| idx as usize)
    }

    /// `page`'s map entry, materializing its chunk (shard write latch
    /// held); past [`MAX_PAGES`] an `OutOfRange` error.
    fn entry(&self, page: PageId) -> Result<&AtomicU32, OsError> {
        self.map
            .ensure((page >> self.shift) as usize, AtomicU32::default)
            .ok_or_else(|| past_bound(page))
    }

    /// Clear a resident page's entry (shard write latch held).
    fn unmap(&self, page: PageId) {
        if let Some(entry) = self.map.get((page >> self.shift) as usize) {
            entry.store(0, Release);
        }
    }
}

enum SharedMode {
    /// Pass-through: every access touches the device (thread-local scratch).
    Unbuffered,
    /// Sharded cache.
    Cached {
        kind: ReplacementKind,
        shards: Vec<CachedShard>,
        /// `shards.len() - 1`; shard of page `p` is `p & mask`.
        mask: usize,
    },
}

struct PoolInner {
    device: RwLock<Box<dyn BlockDevice>>,
    /// Captured at construction; devices never change their answer.
    shared_read: bool,
    page_size: usize,
    mode: SharedMode,
    stats: AtomicPoolStats,
    /// Statistics feature: latch acquisitions that found the shard latch
    /// held, one counter per shard (index = `page & mask`).
    #[cfg(feature = "obs")]
    latch_waits: Box<[Counter]>,
    /// Tracing feature: causal span sink for the failure-path probes
    /// (miss, eviction, token restart). Installed once by the facade.
    #[cfg(feature = "trace")]
    sink: std::sync::OnceLock<Arc<fame_obs::TraceSink>>,
    /// Snapshot feature: per-page pre-image chains, the stable watermark,
    /// and the active-snapshot registry (see [`crate::versions`]).
    #[cfg(feature = "snapshot")]
    versions: crate::versions::VersionStore,
}

/// The `Send + Sync` sharded pool handle. Cloning is cheap (one `Arc`);
/// all clones address the same frames, page table, and device.
pub struct SharedBufferPool {
    inner: Arc<PoolInner>,
}

impl Clone for SharedBufferPool {
    fn clone(&self) -> Self {
        SharedBufferPool {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// This shard's slice of the pool-wide frame budget, remainder spread over
/// the low shards, at least one frame each so every shard can make progress.
fn shard_share(total: usize, shard: usize, n: usize) -> usize {
    (total / n + usize::from(shard < total % n)).max(1)
}

fn shard_alloc(alloc: AllocPolicy, shard: usize, n: usize) -> AllocPolicy {
    match alloc {
        AllocPolicy::Static { frames } => AllocPolicy::Static {
            frames: shard_share(frames, shard, n),
        },
        AllocPolicy::Dynamic { max_frames } => AllocPolicy::Dynamic {
            max_frames: max_frames.map(|m| shard_share(m, shard, n)),
        },
    }
}

/// Should the access count be tracked for `kind`? Only LFU scores it; the
/// other policies skip the extra read-modify-write on the hit path.
fn track_count(kind: ReplacementKind) -> bool {
    #[cfg(feature = "lfu")]
    {
        matches!(kind, ReplacementKind::Lfu)
    }
    #[cfg(not(feature = "lfu"))]
    {
        let _ = kind;
        false
    }
}

thread_local! {
    /// Scratch page: optimistic copies validate into it, the unbuffered
    /// mode reads into it. Taken out of the cell (not borrowed) around
    /// user closures so a closure that re-enters the pool does not panic.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn take_scratch(page_size: usize) -> Vec<u8> {
    SCRATCH.with(|s| {
        let mut buf = s.take();
        buf.resize(page_size.div_ceil(8) * 8, 0);
        buf
    })
}

fn put_scratch(buf: Vec<u8>) {
    SCRATCH.with(|s| {
        *s.borrow_mut() = buf;
    });
}

impl SharedBufferPool {
    /// Create a sharded caching pool. `shards` must be a power of two
    /// (panics otherwise); the frame budget of `alloc` is split across
    /// shards.
    pub fn new(
        device: Box<dyn BlockDevice>,
        kind: ReplacementKind,
        alloc: AllocPolicy,
        shards: usize,
    ) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count {shards} is not a power of two"
        );
        let page_size = device.page_size();
        let shared_read = device.supports_shared_read();
        let words = page_size.div_ceil(8);
        let shift = shards.trailing_zeros();
        let mut vec = Vec::with_capacity(shards);
        for i in 0..shards {
            let alloc = shard_alloc(alloc, i, shards);
            let arena = ChunkDir::new(CHUNK * MAX_CHUNKS);
            let prealloc = alloc.preallocate().min(arena.capacity());
            let mut allocator = FrameAllocator::new(alloc);
            for idx in 0..prealloc {
                let ok = allocator.try_acquire();
                debug_assert!(ok, "preallocation within static arena");
                arena.ensure(idx, || SharedFrame::new(words));
            }
            vec.push(CachedShard {
                core: RwLock::new(ShardCore {
                    free: (0..prealloc).rev().collect(),
                    allocator,
                    len: prealloc,
                }),
                map: ChunkDir::new((MAX_PAGES as usize).div_ceil(shards)),
                shift,
                arena,
                hot: ShardHot::new(),
            });
        }
        SharedBufferPool {
            inner: Arc::new(PoolInner {
                device: RwLock::new(device),
                shared_read,
                page_size,
                mode: SharedMode::Cached {
                    kind,
                    mask: shards - 1,
                    shards: vec,
                },
                stats: AtomicPoolStats::default(),
                #[cfg(feature = "obs")]
                latch_waits: (0..shards).map(|_| Counter::new()).collect(),
                #[cfg(feature = "trace")]
                sink: std::sync::OnceLock::new(),
                #[cfg(feature = "snapshot")]
                versions: crate::versions::VersionStore::new(),
            }),
        }
    }

    /// Create a pass-through pool whose reads may run concurrently (the
    /// unbuffered configurations of the E8 experiment).
    pub fn unbuffered(device: Box<dyn BlockDevice>) -> Self {
        let page_size = device.page_size();
        let shared_read = device.supports_shared_read();
        SharedBufferPool {
            inner: Arc::new(PoolInner {
                device: RwLock::new(device),
                shared_read,
                page_size,
                mode: SharedMode::Unbuffered,
                stats: AtomicPoolStats::default(),
                #[cfg(feature = "obs")]
                latch_waits: std::iter::once(Counter::new()).collect(),
                #[cfg(feature = "trace")]
                sink: std::sync::OnceLock::new(),
                #[cfg(feature = "snapshot")]
                versions: crate::versions::VersionStore::new(),
            }),
        }
    }

    /// Install the span sink (Tracing feature). First sink wins; later
    /// calls are no-ops.
    #[cfg(feature = "trace")]
    pub fn set_trace_sink(&self, sink: Arc<fame_obs::TraceSink>) {
        let _ = self.inner.sink.set(sink);
    }

    #[cfg(feature = "trace")]
    fn emit(&self, kind: fame_obs::SpanKind, a: u64, b: u64) {
        if let Some(s) = self.inner.sink.get() {
            // Pool events have no transaction context; they join a trace
            // by timestamp and ring, not by txn id.
            s.emit(kind, 0, 0, a, b);
        }
    }

    /// Page size of the underlying device.
    pub fn page_size(&self) -> usize {
        self.inner.page_size
    }

    /// Number of addressable pages.
    pub fn num_pages(&self) -> u32 {
        self.inner.device.read().num_pages()
    }

    /// Grow the device (see [`BlockDevice::ensure_pages`]).
    pub fn ensure_pages(&self, pages: u32) -> Result<(), OsError> {
        self.inner.device.write().ensure_pages(pages)
    }

    /// Take a shard's read latch. With the Statistics feature the
    /// contended case is counted per shard; the fast path (uncontended
    /// `try_read`) costs the same compare-exchange the plain `read` does.
    fn shard_read<'a>(
        &self,
        shard: &'a RwLock<ShardCore>,
        idx: usize,
    ) -> parking_lot::RwLockReadGuard<'a, ShardCore> {
        #[cfg(feature = "obs")]
        {
            if let Some(g) = shard.try_read() {
                return g;
            }
            self.inner.latch_waits[idx].inc();
        }
        #[cfg(not(feature = "obs"))]
        let _ = idx;
        shard.read()
    }

    /// Take a shard's write latch, counting contention like
    /// [`SharedBufferPool::shard_read`].
    fn shard_write<'a>(
        &self,
        shard: &'a RwLock<ShardCore>,
        idx: usize,
    ) -> parking_lot::RwLockWriteGuard<'a, ShardCore> {
        #[cfg(feature = "obs")]
        {
            if let Some(g) = shard.try_write() {
                return g;
            }
            self.inner.latch_waits[idx].inc();
        }
        #[cfg(not(feature = "obs"))]
        let _ = idx;
        shard.write()
    }

    /// Read a page from the device into `buf` — concurrently with other
    /// readers when the device supports it, else under the write latch.
    fn device_read(&self, page: PageId, buf: &mut [u8]) -> Result<(), OsError> {
        if self.inner.shared_read {
            self.inner.device.read().read_page_at(page, buf)
        } else {
            self.inner.device.write().read_page(page, buf)
        }
    }

    /// The latch-free hit path: map entry, copy, validate (see the module
    /// docs). `Some` hands back the validated snapshot (caller runs the
    /// closure and returns the scratch buffer); `None` means "take the
    /// latched path" — cold page, an entry re-pointed under us, or a write
    /// window overlapping the copy.
    fn try_optimistic(
        &self,
        kind: ReplacementKind,
        shard: &CachedShard,
        shard_idx: usize,
        page: PageId,
    ) -> Option<(Vec<u8>, PageToken)> {
        let idx = shard.mapped(page)?;
        let fr = shard.arena.get(idx)?;
        let v1 = fr.read_begin();
        if !v1.is_multiple_of(2) || fr.tag.load(Relaxed) != page as u64 + 1 {
            return None;
        }
        let mut buf = take_scratch(self.inner.page_size);
        fr.copy_out(&mut buf);
        if !fr.read_validate(v1) {
            put_scratch(buf);
            return None;
        }
        // The copy is consistent. Recency/statistics touches race with a
        // possible eviction of this very frame, which at worst perturbs
        // a victim choice.
        fr.touch(&shard.hot, track_count(kind));
        shard.hot.hits.fetch_add(1, Relaxed);
        Some((buf, PageToken::new(shard_idx, idx, v1)))
    }

    /// Shared implementation of [`SharedBufferPool::with_page`] /
    /// [`SharedBufferPool::with_page_token`].
    fn access<R>(
        &self,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<(R, PageToken), OsError> {
        let ps = self.inner.page_size;
        match &self.inner.mode {
            SharedMode::Unbuffered => {
                self.inner.stats.misses.inc();
                let mut buf = take_scratch(ps);
                let res = self.device_read(page, &mut buf);
                let out = res.map(|()| f(&buf[..ps]));
                put_scratch(buf);
                // Pass-through reads have no frame to validate against;
                // the sentinel keeps optimistic callers on the plain
                // descent those products always had.
                out.map(|r| (r, PageToken::ALWAYS_VALID))
            }
            SharedMode::Cached { kind, shards, mask } => {
                let shard_idx = page as usize & mask;
                let shard = &shards[shard_idx];
                if let Some((buf, token)) = self.try_optimistic(*kind, shard, shard_idx, page) {
                    let r = f(&buf[..ps]);
                    put_scratch(buf);
                    return Ok((r, token));
                }
                // Latched fallback: read the map under the read latch,
                // copy, and release before running the closure. The frame
                // cannot change under the read latch (all frame writers
                // hold the write latch), so a plain copy plus the current
                // version make a valid token.
                let s = self.shard_read(&shard.core, shard_idx);
                let staged = shard.mapped(page).map(|idx| {
                    let fr = shard.arena.get(idx).expect("mapped frame exists");
                    fr.touch(&shard.hot, track_count(*kind));
                    shard.hot.hits.fetch_add(1, Relaxed);
                    let token = PageToken::new(shard_idx, idx, fr.version.load(Relaxed));
                    let mut buf = take_scratch(ps);
                    fr.copy_out(&mut buf);
                    (buf, token)
                });
                drop(s);
                if let Some((buf, token)) = staged {
                    let r = f(&buf[..ps]);
                    put_scratch(buf);
                    return Ok((r, token));
                }
                // Miss path: the read latch was RELEASED (dropped above)
                // before the write latch is taken — a release-then-
                // reacquire upgrade, never a nested same-shard hold.
                // `frame_for` reads the map again because another thread
                // may have loaded the page between the two latches.
                let mut s = self.shard_write(&shard.core, shard_idx);
                let idx = self.frame_for(shard, &mut s, page)?;
                let fr = shard
                    .arena
                    .get(idx)
                    .expect("frame_for materialized the frame");
                let token = PageToken::new(shard_idx, idx, fr.version.load(Relaxed));
                let mut buf = take_scratch(ps);
                fr.copy_out(&mut buf);
                drop(s);
                let r = f(&buf[..ps]);
                put_scratch(buf);
                Ok((r, token))
            }
        }
    }

    /// Run `f` over an immutable view of the page. Hits are latch-free
    /// (optimistic copy + version validation); only misses latch.
    pub fn with_page<R>(&self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R, OsError> {
        self.access(page, f).map(|(r, _)| r)
    }

    /// Like [`SharedBufferPool::with_page`], additionally returning the
    /// [`PageToken`] receipt of the snapshot `f` ran on.
    pub fn with_page_token<R>(
        &self,
        page: PageId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<(R, PageToken), OsError> {
        self.access(page, f)
    }

    /// Has nothing invalidated the snapshot `token` came from? `true`
    /// means no write window touched the frame since — every fact read
    /// from that snapshot is still current.
    pub fn validate_token(&self, token: PageToken) -> bool {
        if token.is_always_valid() {
            return true;
        }
        match &self.inner.mode {
            SharedMode::Unbuffered => true,
            SharedMode::Cached { shards, .. } => {
                let ok = shards
                    .get(token.shard())
                    .and_then(|sh| sh.arena.get(token.frame()))
                    .is_some_and(|fr| fr.read_validate(token.version()));
                // A failed validation means the caller restarts its
                // optimistic descent — the contention signal E10 watches.
                #[cfg(feature = "trace")]
                if !ok {
                    self.emit(
                        fame_obs::SpanKind::TokenRestart,
                        token.frame() as u64,
                        token.shard() as u64,
                    );
                }
                ok
            }
        }
    }

    /// Test seam: set every in-use frame's version to `to` (forced even),
    /// so wraparound behaviour of the version counter can be exercised
    /// without 2^63 write windows.
    #[doc(hidden)]
    pub fn wind_frame_versions(&self, to: u64) {
        if let SharedMode::Cached { shards, .. } = &self.inner.mode {
            for (i, shard) in shards.iter().enumerate() {
                let s = self.shard_write(&shard.core, i);
                for (_, fr) in shard.arena.iter().take(s.len) {
                    fr.version.store(to & !1, Release);
                }
            }
        }
    }

    /// Run `f` over a mutable view of the page (shard write latch, with
    /// the frame's seqlock window held across the byte stores). The
    /// engine above stays single-writer; this exists so the one writer can
    /// share the pool image with its readers.
    pub fn with_page_mut<R>(
        &self,
        page: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, OsError> {
        let ps = self.inner.page_size;
        match &self.inner.mode {
            SharedMode::Unbuffered => {
                self.inner.stats.misses.inc();
                // Snapshot capture runs *before* the device write latch is
                // taken, so the pass-through writer never nests chain
                // state under the device latch (snapshot readers resolve
                // chain → device; nesting the other way would cycle).
                #[cfg(feature = "snapshot")]
                if crate::versions::VersionStore::current_txn() != 0 {
                    let mut pre = take_scratch(ps);
                    let res = self
                        .device_read(page, &mut pre[..ps])
                        .and_then(|()| self.inner.versions.note_write(page, &pre[..ps]));
                    put_scratch(pre);
                    let capped = res?;
                    #[cfg(feature = "trace")]
                    if capped > 0 {
                        self.emit(fame_obs::SpanKind::SnapshotPrune, page as u64, capped);
                    }
                    #[cfg(not(feature = "trace"))]
                    let _ = capped;
                }
                let mut buf = take_scratch(ps);
                // Hold the device write latch across read-modify-write
                // so readers never observe a half-applied page.
                let mut dev = self.inner.device.write();
                let res = dev.read_page(page, &mut buf[..ps]);
                let out = res.and_then(|()| {
                    let r = f(&mut buf[..ps]);
                    dev.write_page(page, &buf[..ps]).map(|()| r)
                });
                drop(dev);
                put_scratch(buf);
                out
            }
            SharedMode::Cached { shards, mask, .. } => {
                let shard_idx = page as usize & mask;
                let shard = &shards[shard_idx];
                let mut s = self.shard_write(&shard.core, shard_idx);
                let idx = self.frame_for(shard, &mut s, page)?;
                let fr = shard
                    .arena
                    .get(idx)
                    .expect("frame_for materialized the frame");
                let mut buf = take_scratch(ps);
                fr.copy_out(&mut buf);
                // `buf` still holds the pre-mutation image: a current
                // transaction's first dirty of this page pushes it onto
                // the version chain before the write window opens, so
                // snapshot readers that see no chain state saw committed
                // bytes.
                #[cfg(feature = "snapshot")]
                {
                    let capped = self.inner.versions.note_write(page, &buf[..ps])?;
                    #[cfg(feature = "trace")]
                    if capped > 0 {
                        self.emit(fame_obs::SpanKind::SnapshotPrune, page as u64, capped);
                    }
                    #[cfg(not(feature = "trace"))]
                    let _ = capped;
                }
                let r = f(&mut buf[..ps]);
                fr.begin_write();
                fr.fill_from(&buf[..ps]);
                fr.dirty.store(true, Relaxed);
                fr.end_write();
                put_scratch(buf);
                Ok(r)
            }
        }
    }

    /// Locate (or load) the frame for `page` within its shard, with the
    /// shard write latch held.
    fn frame_for(
        &self,
        shard: &CachedShard,
        s: &mut ShardCore,
        page: PageId,
    ) -> Result<usize, OsError> {
        let SharedMode::Cached { kind, .. } = &self.inner.mode else {
            unreachable!("frame_for only called in cached mode");
        };
        // Re-check under the write latch: another thread may have loaded
        // the page between our read probe and here.
        if let Some(idx) = shard.mapped(page) {
            let fr = shard.arena.get(idx).expect("mapped frame exists");
            fr.touch(&shard.hot, track_count(*kind));
            shard.hot.hits.fetch_add(1, Relaxed);
            return Ok(idx);
        }
        let entry = shard.entry(page)?;
        self.inner.stats.misses.inc();
        #[cfg(feature = "trace")]
        self.emit(fame_obs::SpanKind::PoolMiss, page as u64, 0);
        let ps = self.inner.page_size;

        let idx = if let Some(idx) = s.free.pop() {
            idx
        } else if s.len < shard.arena.capacity() && s.allocator.try_acquire() {
            let idx = s.len;
            shard.arena.ensure(idx, || SharedFrame::new(ps.div_ceil(8)));
            s.len += 1;
            idx
        } else {
            let victim = pick_victim(shard, s, *kind)
                .ok_or_else(|| OsError::Io("buffer shard has no evictable frame".to_string()))?;
            let fr = shard.arena.get(victim).expect("victim frame exists");
            let old = fr.page().expect("victim frame holds a page");
            if fr.dirty.load(Relaxed) {
                // The bytes are stable under our write latch; copy and
                // write back before opening a write window.
                let mut buf = take_scratch(ps);
                fr.copy_out(&mut buf);
                let res = self.inner.device.write().write_page(old, &buf[..ps]);
                put_scratch(buf);
                res?;
                self.inner.stats.writebacks.inc();
            }
            shard.unmap(old);
            fr.begin_write();
            fr.tag.store(0, Relaxed);
            fr.dirty.store(false, Relaxed);
            fr.end_write();
            self.inner.stats.evictions.inc();
            #[cfg(feature = "trace")]
            self.emit(fame_obs::SpanKind::PoolEviction, old as u64, victim as u64);
            victim
        };

        let fr = shard.arena.get(idx).expect("frame index is materialized");
        let mut buf = take_scratch(ps);
        let res = self.device_read(page, &mut buf[..ps]);
        if res.is_ok() {
            fr.begin_write();
            fr.fill_from(&buf[..ps]);
            fr.tag.store(page as u64 + 1, Relaxed);
            fr.dirty.store(false, Relaxed);
            fr.end_write();
        }
        put_scratch(buf);
        if let Err(e) = res {
            s.free.push(idx);
            return Err(e);
        }
        fr.count.store(u64::from(track_count(*kind)), Relaxed);
        fr.stamp_now(&shard.hot);
        entry.store(idx as u32 + 1, Release);
        Ok(idx)
    }

    /// Write back every dirty frame (no device sync), in *global*
    /// page-number order: because the shard of page `p` is `p & mask`,
    /// consecutive pages live in different shards, so a per-shard pass
    /// would interleave page ranges at the device. Instead every shard's
    /// write latch is taken (in shard order — the only code path that ever
    /// holds more than one), the pool-wide dirty set is collected as one
    /// consistent snapshot, and a single ascending pass writes it back.
    /// Holding all latches also serializes concurrent flushes: a second
    /// flusher blocks at shard 0 and then finds clean frames, rather than
    /// interleaving its write-backs with ours (MultiWriter products call
    /// this from several commit paths).
    pub fn flush(&self) -> Result<(), OsError> {
        if let SharedMode::Cached { shards, .. } = &self.inner.mode {
            let ps = self.inner.page_size;
            let mut buf = vec![0u8; ps];
            // The write latches exclude frame writers; flushing only reads
            // bytes and clears dirty flags, no version windows.
            let guards: Vec<_> = shards.iter().map(|sh| sh.core.write()).collect();
            let mut dirty: Vec<(PageId, usize, usize)> = Vec::new();
            for (si, (shard, s)) in shards.iter().zip(&guards).enumerate() {
                for (idx, fr) in shard.arena.iter().take(s.len) {
                    if fr.dirty.load(Relaxed) {
                        dirty.push((fr.page().expect("dirty frame holds a page"), si, idx));
                    }
                }
            }
            dirty.sort_unstable();
            for (page, si, idx) in dirty {
                let fr = shards[si].arena.get(idx).expect("frame scanned above");
                fr.copy_out(&mut buf);
                self.inner.device.write().write_page(page, &buf[..ps])?;
                fr.dirty.store(false, Relaxed);
                self.inner.stats.writebacks.inc();
            }
            drop(guards);
        }
        Ok(())
    }

    /// Flush and issue a durability barrier on the device.
    pub fn sync(&self) -> Result<(), OsError> {
        self.flush()?;
        self.inner.device.write().sync()
    }

    /// Drop `page` from the cache without write-back.
    pub fn discard(&self, page: PageId) {
        if let SharedMode::Cached { shards, mask, .. } = &self.inner.mode {
            let shard = &shards[page as usize & mask];
            let mut s = shard.core.write();
            if let Some(idx) = shard.mapped(page) {
                shard.unmap(page);
                let fr = shard.arena.get(idx).expect("mapped frame exists");
                fr.begin_write();
                fr.tag.store(0, Relaxed);
                fr.dirty.store(false, Relaxed);
                fr.end_write();
                s.free.push(idx);
            }
        }
    }

    /// Is the page currently resident?
    pub fn contains(&self, page: PageId) -> bool {
        match &self.inner.mode {
            SharedMode::Unbuffered => false,
            SharedMode::Cached { shards, mask, .. } => {
                let shard = &shards[page as usize & mask];
                let _s = shard.core.read();
                shard.mapped(page).is_some()
            }
        }
    }

    /// Total frames currently allocated across all shards.
    pub fn frame_count(&self) -> usize {
        match &self.inner.mode {
            SharedMode::Unbuffered => 0,
            SharedMode::Cached { shards, .. } => shards.iter().map(|sh| sh.core.read().len).sum(),
        }
    }

    /// Pool counters (aggregated over all threads and shards).
    pub fn stats(&self) -> PoolStats {
        let mut s = self.inner.stats.snapshot();
        if let SharedMode::Cached { shards, .. } = &self.inner.mode {
            s.hits += shards
                .iter()
                .map(|sh| sh.hot.hits.load(Relaxed))
                .sum::<u64>();
        }
        #[cfg(feature = "obs")]
        {
            s.latch_waits = self.inner.latch_waits.iter().map(|c| c.get()).sum();
        }
        s
    }

    /// Device counters.
    pub fn device_stats(&self) -> DeviceStats {
        self.inner.device.read().stats()
    }

    /// Replacement policy name, or `"none"` in pass-through mode.
    pub fn policy_name(&self) -> &'static str {
        match &self.inner.mode {
            SharedMode::Unbuffered => "none",
            SharedMode::Cached { kind, .. } => kind.name(),
        }
    }
}

#[cfg(feature = "snapshot")]
thread_local! {
    /// Second scratch page for snapshot resolution: `with_page_at` holds
    /// its output buffer across an inner `with_page` (which takes
    /// [`SCRATCH`]), so it needs its own slot to stay allocation-free.
    static SNAP_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

#[cfg(feature = "snapshot")]
fn take_snap_scratch(page_size: usize) -> Vec<u8> {
    SNAP_SCRATCH.with(|s| {
        let mut buf = s.take();
        buf.resize(page_size.div_ceil(8) * 8, 0);
        buf
    })
}

#[cfg(feature = "snapshot")]
fn put_snap_scratch(buf: Vec<u8>) {
    SNAP_SCRATCH.with(|s| {
        *s.borrow_mut() = buf;
    });
}

/// How many head-read rounds [`SharedBufferPool::with_page_at`] attempts
/// before reporting the page unstable. Each failed round requires an
/// eviction/reload write window to overlap the validated copy exactly;
/// consecutive failures need an adversarially aligned eviction storm.
#[cfg(feature = "snapshot")]
const RESOLVE_ATTEMPTS: usize = 64;

/// The Snapshot feature (`Concurrency → MultiWriter → Snapshot`):
/// copy-on-write page versions resolved at a snapshot timestamp. See
/// [`crate::versions`] for the protocol invariants.
#[cfg(feature = "snapshot")]
impl SharedBufferPool {
    /// Register a snapshot at the stable watermark and return its
    /// timestamp. Pair with [`SharedBufferPool::snapshot_end`].
    pub fn snapshot_begin(&self) -> u64 {
        let (ts, active) = self.inner.versions.snapshot_begin();
        #[cfg(feature = "trace")]
        self.emit(fame_obs::SpanKind::SnapshotBegin, ts, active);
        #[cfg(not(feature = "trace"))]
        let _ = active;
        ts
    }

    /// Deregister a snapshot taken at `ts`; chains are swept against the
    /// remaining low-water mark.
    pub fn snapshot_end(&self, ts: u64) {
        let pruned = self.inner.versions.snapshot_end(ts);
        #[cfg(feature = "trace")]
        for (page, dropped) in pruned {
            self.emit(fame_obs::SpanKind::SnapshotPrune, page as u64, dropped);
        }
        #[cfg(not(feature = "trace"))]
        drop(pruned);
    }

    /// Install a drained group-commit batch at commit timestamp `ts`
    /// (called by the facade from the group-commit leader, after the
    /// drain succeeded and outside every transaction-manager lock).
    pub fn install_commits(&self, txns: &[u64], ts: u64) {
        let pruned = self.inner.versions.install(txns, ts);
        #[cfg(feature = "trace")]
        for (page, dropped) in pruned {
            self.emit(fame_obs::SpanKind::SnapshotPrune, page as u64, dropped);
        }
        #[cfg(not(feature = "trace"))]
        drop(pruned);
    }

    /// Release an aborted transaction's version state (undo must already
    /// be applied — the head holds restored bytes).
    pub fn release_aborted_txn(&self, txn: u64) {
        let pruned = self.inner.versions.release_aborted(txn);
        #[cfg(feature = "trace")]
        for (page, dropped) in pruned {
            self.emit(fame_obs::SpanKind::SnapshotPrune, page as u64, dropped);
        }
        #[cfg(not(feature = "trace"))]
        drop(pruned);
    }

    /// Bound version chains at `cap` entries (≥ 1); the oldest images
    /// beyond it are truncated, stranding too-old snapshots.
    pub fn set_version_chain_cap(&self, cap: usize) {
        self.inner.versions.set_cap(cap);
    }

    /// Version-chain / snapshot counters.
    pub fn version_stats(&self) -> crate::versions::VersionStats {
        self.inner.versions.stats()
    }

    /// Run `f` over the page image a snapshot taken at `ts` observes: the
    /// newest committed version ≤ `ts`. Never touches the lock table;
    /// head reads go through the validated latch-free copy protocol and
    /// chain images are immutable (no validation at all).
    pub fn with_page_at<R>(
        &self,
        page: PageId,
        ts: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, OsError> {
        let ps = self.inner.page_size;
        let vs = &self.inner.versions;
        let unbuffered = matches!(&self.inner.mode, SharedMode::Unbuffered);
        let mut f = Some(f);
        for _ in 0..RESOLVE_ATTEMPTS {
            // Latch-free head attempt (cached pools): pre-check, validated
            // copy with its token receipt, post-check. A still-valid token
            // proves no write window overlapped [copy, post-check], so the
            // committed_ts read there belongs to the bytes copied. The
            // post-check resolves the meta again: a first-dirty capture
            // publishes the page's meta and chain state *before* the
            // frame's write window opens, so a copy of bytes written since
            // the pre-check read the `fresh` meta sees that capture.
            let vm = vs.meta(page);
            if !unbuffered && vm.pending.load(Acquire) == 0 {
                let c = vm.committed_ts.load(Acquire);
                if c <= ts {
                    let mut out = take_snap_scratch(ps);
                    match self.with_page_token(page, |b| out[..ps].copy_from_slice(b)) {
                        Err(e) => {
                            put_snap_scratch(out);
                            return Err(e);
                        }
                        Ok(((), token)) => {
                            let vm = vs.meta(page);
                            if vm.pending.load(Acquire) == 0
                                && vm.committed_ts.load(Acquire) == c
                                && self.validate_token(token)
                            {
                                let r = (f.take().expect("resolved once"))(&out[..ps]);
                                put_snap_scratch(out);
                                return Ok(r);
                            }
                            put_snap_scratch(out);
                        }
                    }
                }
            }
            // Chain arm: pending/committed_ts are frozen under the chain
            // lock. Pass-through pools serve the head right here (their
            // device read cannot race a writer: captures precede the
            // device write latch, so no streak can start or be in flight);
            // cached pools bounce back to the token protocol above.
            let mut out = take_snap_scratch(ps);
            let res = vs.resolve_chain(page, ts, &mut out[..ps], |dst| {
                unbuffered.then(|| self.device_read(page, dst))
            });
            match res {
                crate::versions::Resolution::Head => {
                    let r = (f.take().expect("resolved once"))(&out[..ps]);
                    put_snap_scratch(out);
                    return Ok(r);
                }
                crate::versions::Resolution::Image(vts) => {
                    #[cfg(feature = "trace")]
                    self.emit(fame_obs::SpanKind::SnapshotResolve, page as u64, vts);
                    #[cfg(not(feature = "trace"))]
                    let _ = vts;
                    let r = (f.take().expect("resolved once"))(&out[..ps]);
                    put_snap_scratch(out);
                    return Ok(r);
                }
                crate::versions::Resolution::HeadRetry => {
                    put_snap_scratch(out);
                }
                crate::versions::Resolution::TooOld => {
                    put_snap_scratch(out);
                    return Err(OsError::Io(format!(
                        "snapshot at ts {ts} is too old for page {page}: its version was pruned"
                    )));
                }
                crate::versions::Resolution::HeadErr(e) => {
                    put_snap_scratch(out);
                    return Err(e);
                }
            }
        }
        Err(OsError::Io(format!(
            "snapshot read of page {page} did not stabilize after {RESOLVE_ATTEMPTS} rounds"
        )))
    }
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        // Best-effort write-back when the last handle goes away. `&mut
        // self` proves exclusivity, so plain lock calls cannot deadlock.
        if let SharedMode::Cached { shards, .. } = &mut self.mode {
            let dev = self.device.get_mut();
            let ps = self.page_size;
            let mut buf = vec![0u8; ps];
            for shard in shards.iter_mut() {
                let len = shard.core.get_mut().len;
                for (_, fr) in shard.arena.iter().take(len) {
                    if fr.dirty.load(Relaxed) {
                        if let Some(page) = fr.page() {
                            fr.copy_out(&mut buf);
                            let _ = dev.write_page(page, &buf[..ps]);
                            fr.dirty.store(false, Relaxed);
                        }
                    }
                }
            }
        }
    }
}

/// Victim selection by scanning the shard's in-use frames: LRU evicts the
/// minimum stamp, LFU the minimum `(count, stamp)`. Vacant frames (tag 0)
/// are never chosen; in-flight optimistic readers need no pins — their
/// version re-check rejects the copy if this frame is evicted under them.
fn pick_victim(shard: &CachedShard, s: &ShardCore, kind: ReplacementKind) -> Option<usize> {
    let mut best: Option<(u128, usize)> = None;
    for (i, fr) in shard.arena.iter().take(s.len) {
        if fr.tag.load(Relaxed) == 0 {
            continue;
        }
        let stamp = fr.stamp.load(Relaxed) as u128;
        let score = match kind {
            #[cfg(feature = "lru")]
            ReplacementKind::Lru => stamp,
            #[cfg(feature = "lfu")]
            ReplacementKind::Lfu => ((fr.count.load(Relaxed) as u128) << 64) | stamp,
        };
        if best.map(|(b, _)| score < b).unwrap_or(true) {
            best = Some((score, i));
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(all(test, feature = "lru"))]
mod tests {
    use super::*;
    use fame_os::InMemoryDevice;
    use std::thread;

    fn device(pages: u32) -> Box<dyn BlockDevice> {
        let mut dev = InMemoryDevice::new(128);
        dev.ensure_pages(pages).unwrap();
        Box::new(dev)
    }

    fn pool(frames: usize, shards: usize) -> SharedBufferPool {
        SharedBufferPool::new(
            device(64),
            ReplacementKind::Lru,
            AllocPolicy::Static { frames },
            shards,
        )
    }

    #[test]
    fn read_your_writes() {
        let p = pool(8, 4);
        p.with_page_mut(3, |b| b[0] = 42).unwrap();
        assert_eq!(p.with_page(3, |b| b[0]).unwrap(), 42);
    }

    #[test]
    fn clones_share_one_image() {
        let a = pool(8, 2);
        let b = a.clone();
        a.with_page_mut(5, |buf| buf[0] = 9).unwrap();
        assert_eq!(b.with_page(5, |buf| buf[0]).unwrap(), 9);
        // One hit was counted somewhere in the two accesses.
        assert_eq!(b.stats().hits + a.stats().misses, 2);
    }

    #[test]
    fn eviction_writes_back_and_reloads() {
        // 1 shard, 2 frames: third page forces an eviction.
        let p = pool(2, 1);
        p.with_page_mut(0, |b| b[0] = 10).unwrap();
        p.with_page_mut(1, |b| b[0] = 11).unwrap();
        p.with_page(2, |_| ()).unwrap();
        p.with_page(3, |_| ()).unwrap();
        assert!(!p.contains(0));
        let s = p.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.writebacks, 2);
        assert_eq!(p.with_page(0, |b| b[0]).unwrap(), 10);
        assert_eq!(p.with_page(1, |b| b[0]).unwrap(), 11);
    }

    #[test]
    fn lru_scan_evicts_coldest() {
        let p = pool(2, 1);
        p.with_page(0, |_| ()).unwrap();
        p.with_page(1, |_| ()).unwrap();
        p.with_page(0, |_| ()).unwrap(); // 1 is now coldest
        p.with_page(2, |_| ()).unwrap(); // evicts 1
        assert!(p.contains(0));
        assert!(!p.contains(1));
        assert!(p.contains(2));
    }

    #[cfg(feature = "lfu")]
    #[test]
    fn lfu_scan_keeps_hot_page() {
        let p = SharedBufferPool::new(
            device(64),
            ReplacementKind::Lfu,
            AllocPolicy::Static { frames: 2 },
            1,
        );
        for _ in 0..5 {
            p.with_page(0, |_| ()).unwrap();
        }
        p.with_page(1, |_| ()).unwrap();
        p.with_page(2, |_| ()).unwrap(); // evicts 1 (cold), not 0
        assert!(p.contains(0));
        assert!(!p.contains(1));
    }

    #[test]
    fn shards_partition_pages() {
        let p = pool(8, 4);
        for page in 0..16 {
            p.with_page(page, |_| ()).unwrap();
        }
        // Static budget of 8 split over 4 shards = 2 frames per shard.
        assert_eq!(p.frame_count(), 8);
    }

    #[test]
    fn unbuffered_passes_through() {
        let p = SharedBufferPool::unbuffered(device(8));
        p.with_page_mut(1, |b| b[0] = 5).unwrap();
        assert_eq!(p.with_page(1, |b| b[0]).unwrap(), 5);
        assert_eq!(p.frame_count(), 0);
        assert!(!p.contains(1));
        assert_eq!(p.policy_name(), "none");
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (0, 2));
    }

    #[test]
    fn flush_clears_dirt_once() {
        let p = pool(8, 2);
        p.with_page_mut(0, |b| b[0] = 1).unwrap();
        p.flush().unwrap();
        p.flush().unwrap();
        assert_eq!(p.stats().writebacks, 1);
    }

    #[test]
    fn discard_drops_without_writeback() {
        let p = pool(4, 2);
        p.with_page_mut(0, |b| b[0] = 7).unwrap();
        p.discard(0);
        assert!(!p.contains(0));
        p.flush().unwrap();
        assert_eq!(p.stats().writebacks, 0);
        assert_eq!(p.with_page(0, |b| b[0]).unwrap(), 0);
    }

    #[test]
    fn last_handle_flushes_on_drop() {
        let dev = fame_os::SharedDevice::new({
            let mut d = InMemoryDevice::new(128);
            d.ensure_pages(4).unwrap();
            d
        });
        let side = dev.clone();
        let p = SharedBufferPool::new(
            Box::new(dev),
            ReplacementKind::Lru,
            AllocPolicy::Static { frames: 4 },
            2,
        );
        p.with_page_mut(2, |b| b[0] = 77).unwrap();
        drop(p);
        let mut out = vec![0u8; 128];
        side.with(|d| d.read_page(2, &mut out)).unwrap();
        assert_eq!(out[0], 77);
    }

    #[test]
    fn token_survives_quiet_reads_and_dies_on_write() {
        let p = pool(8, 2);
        p.with_page_mut(3, |b| b[0] = 1).unwrap();
        let ((), tok) = p.with_page_token(3, |_| ()).unwrap();
        // More reads do not open a write window.
        p.with_page(3, |_| ()).unwrap();
        assert!(p.validate_token(tok));
        // A mutation does.
        p.with_page_mut(3, |b| b[0] = 2).unwrap();
        assert!(!p.validate_token(tok));
    }

    #[test]
    fn token_dies_on_eviction() {
        let p = pool(2, 1);
        let ((), tok) = p.with_page_token(0, |_| ()).unwrap();
        p.with_page(1, |_| ()).unwrap();
        p.with_page(2, |_| ()).unwrap(); // evicts 0
        assert!(!p.contains(0));
        assert!(!p.validate_token(tok));
    }

    #[test]
    fn unbuffered_tokens_are_sentinels() {
        let p = SharedBufferPool::unbuffered(device(8));
        let ((), tok) = p.with_page_token(1, |_| ()).unwrap();
        assert!(tok.is_always_valid());
        assert!(p.validate_token(tok));
    }

    #[cfg(feature = "snapshot")]
    mod snapshot {
        use super::*;
        use crate::versions::TxnWriteScope;

        /// `install_commits`, with a snapshot read at `ts` of each page it
        /// touches started between its two publication steps. The read
        /// runs on its own thread: it may wait for the chain lock held
        /// there. Returns each read's first byte.
        fn install_with_reads_inside(p: &SharedBufferPool, txn: u64, at: u64, ts: u64) -> Vec<u8> {
            let reads = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let (reader, sink) = (p.clone(), std::sync::Arc::clone(&reads));
            crate::versions::INSTALL_GAP.set(Box::new(move |page| {
                let r = reader.clone();
                let read = thread::spawn(move || r.with_page_at(page, ts, |b| b[0]).unwrap());
                // Long enough for a latch-free read to finish inside the gap.
                thread::sleep(std::time::Duration::from_millis(50));
                sink.lock().unwrap().push(read);
            }));
            p.install_commits(&[txn], at);
            crate::versions::INSTALL_GAP.set(Box::new(drop));
            let reads = std::mem::take(&mut *reads.lock().unwrap());
            reads.into_iter().map(|r| r.join().unwrap()).collect()
        }

        #[test]
        fn snapshot_sees_pre_image_through_commit() {
            let p = pool(8, 2);
            // Non-transactional init: no capture (CURRENT_TXN is 0).
            p.with_page_mut(3, |b| b[0] = 1).unwrap();
            let ts0 = p.snapshot_begin();
            assert_eq!(ts0, 0);
            {
                let _scope = TxnWriteScope::new(7);
                p.with_page_mut(3, |b| b[0] = 2).unwrap();
            }
            // Pending streak: the snapshot resolves from the chain.
            assert_eq!(p.with_page_at(3, ts0, |b| b[0]).unwrap(), 1);
            // Also while the install is between publishing the new
            // timestamp and dropping `pending`.
            assert_eq!(install_with_reads_inside(&p, 7, 1, ts0), [1]);
            // Still the old image after install; a new snapshot sees the
            // committed head.
            assert_eq!(p.with_page_at(3, ts0, |b| b[0]).unwrap(), 1);
            let ts1 = p.snapshot_begin();
            assert_eq!(ts1, 1);
            assert_eq!(p.with_page_at(3, ts1, |b| b[0]).unwrap(), 2);
            assert_eq!(p.version_stats().active, 2);
            p.snapshot_end(ts0);
            p.snapshot_end(ts1);
            assert_eq!(p.version_stats().active, 0);
        }

        #[test]
        fn abort_release_restores_head_coverage() {
            let p = pool(8, 2);
            {
                let _scope = TxnWriteScope::new(1);
                p.with_page_mut(0, |b| b[0] = 9).unwrap();
            }
            p.install_commits(&[1], 1);
            let ts = p.snapshot_begin();
            assert_eq!(ts, 1);
            {
                let _scope = TxnWriteScope::new(2);
                p.with_page_mut(0, |b| b[0] = 5).unwrap();
                // Undo (same scope, same page: no double capture).
                p.with_page_mut(0, |b| b[0] = 9).unwrap();
            }
            p.release_aborted_txn(2);
            assert_eq!(p.with_page_at(0, ts, |b| b[0]).unwrap(), 9);
            assert_eq!(p.version_stats().pending_pages, 0);
            p.snapshot_end(ts);
        }

        #[test]
        fn chains_prune_once_last_straggler_drops() {
            let p = pool(8, 2);
            let ts0 = p.snapshot_begin();
            for ts in 1..=20u64 {
                let txn = 100 + ts;
                {
                    let _scope = TxnWriteScope::new(txn);
                    p.with_page_mut(0, |b| b[0] = ts as u8).unwrap();
                }
                p.install_commits(&[txn], ts);
            }
            let s = p.version_stats();
            // Eager pruning keeps only versions some snapshot (or the
            // stable watermark) can still resolve to.
            assert!(s.chain_max <= crate::versions::DEFAULT_CHAIN_CAP as u64);
            assert!(s.live_entries >= 1, "straggler pins its version");
            assert!(s.pruned > 0, "intermediate versions reclaimed eagerly");
            // The straggler still reads the pre-history image.
            assert_eq!(p.with_page_at(0, ts0, |b| b[0]).unwrap(), 0);
            p.snapshot_end(ts0);
            assert_eq!(
                p.version_stats().live_entries,
                0,
                "dropping the last snapshot reclaims every chain entry"
            );
        }

        #[test]
        fn capped_chain_strands_too_old_snapshot() {
            let p = pool(8, 2);
            p.set_version_chain_cap(1);
            {
                let _scope = TxnWriteScope::new(1);
                p.with_page_mut(0, |b| b[0] = 1).unwrap();
            }
            p.install_commits(&[1], 1);
            let snap = p.snapshot_begin();
            assert_eq!(snap, 1);
            for ts in 2..=6u64 {
                let txn = 100 + ts;
                {
                    let _scope = TxnWriteScope::new(txn);
                    p.with_page_mut(0, |b| b[0] = ts as u8).unwrap();
                }
                p.install_commits(&[txn], ts);
            }
            let err = p.with_page_at(0, snap, |b| b[0]).unwrap_err();
            assert!(
                format!("{err:?}").contains("too old"),
                "stranded snapshot reports too-old, got {err:?}"
            );
            assert!(p.version_stats().chain_max <= 2);
            p.snapshot_end(snap);
        }

        #[test]
        fn unbuffered_pool_serves_versions_too() {
            let p = SharedBufferPool::unbuffered(device(8));
            {
                let _scope = TxnWriteScope::new(1);
                p.with_page_mut(2, |b| b[0] = 3).unwrap();
            }
            p.install_commits(&[1], 1);
            let ts = p.snapshot_begin();
            {
                let _scope = TxnWriteScope::new(2);
                p.with_page_mut(2, |b| b[0] = 4).unwrap();
            }
            // Pending: chain serves the committed image.
            assert_eq!(p.with_page_at(2, ts, |b| b[0]).unwrap(), 3);
            p.install_commits(&[2], 2);
            // Committed past the snapshot: still the old image.
            assert_eq!(p.with_page_at(2, ts, |b| b[0]).unwrap(), 3);
            p.snapshot_end(ts);
        }

        /// Concurrent writers + snapshot readers: every snapshot read of a
        /// page must observe that snapshot's frozen value even while
        /// writers churn the head.
        #[test]
        fn snapshot_reads_are_stable_under_write_churn() {
            const PAGES: u32 = 16;
            let p = pool(8, 2);
            for page in 0..PAGES {
                let _scope = TxnWriteScope::new(1);
                p.with_page_mut(page, |b| b.fill(1)).unwrap();
            }
            p.install_commits(&[1], 1);
            let ts = p.snapshot_begin();
            assert_eq!(ts, 1);
            thread::scope(|scope| {
                let w = p.clone();
                scope.spawn(move || {
                    for round in 2..40u64 {
                        let txn = 1000 + round;
                        {
                            let _scope = TxnWriteScope::new(txn);
                            for page in 0..PAGES {
                                w.with_page_mut(page, |b| b.fill(round as u8)).unwrap();
                            }
                        }
                        w.install_commits(&[txn], round);
                    }
                });
                for t in 0..3usize {
                    let r = p.clone();
                    scope.spawn(move || {
                        let mut x: u64 = 0xDEADBEEF ^ t as u64;
                        for _ in 0..2_000 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let page = (x % PAGES as u64) as u32;
                            let v = r.with_page_at(page, ts, |b| b[0]).unwrap();
                            assert_eq!(v, 1, "snapshot read drifted on page {page}");
                        }
                    });
                }
            });
            p.snapshot_end(ts);
        }
    }

    /// The satellite stress test at pool level: concurrent readers vs a
    /// churn thread, every read must observe the model value.
    #[test]
    fn concurrent_readers_with_eviction_churn() {
        const PAGES: u32 = 48;
        // Small arena so the workload constantly evicts.
        let p = SharedBufferPool::new(
            device(PAGES),
            ReplacementKind::Lru,
            AllocPolicy::Static { frames: 8 },
            4,
        );
        // Each page's bytes are its page id (stable model).
        for page in 0..PAGES {
            p.with_page_mut(page, |b| b.fill(page as u8)).unwrap();
        }

        thread::scope(|scope| {
            for t in 0..4usize {
                let p = p.clone();
                scope.spawn(move || {
                    let mut x: u64 = 0x9E3779B97F4A7C15 ^ t as u64;
                    for _ in 0..2_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let page = (x % PAGES as u64) as u32;
                        let ok = p
                            .with_page(page, |b| b.iter().all(|&v| v == page as u8))
                            .unwrap();
                        assert!(ok, "reader {t} saw torn page {page}");
                    }
                });
            }
            // Churn: rewrite pages to the same model value, forcing dirty
            // evictions and write-backs while readers run.
            let churn = p.clone();
            scope.spawn(move || {
                for round in 0..40 {
                    for page in (round % 2..PAGES).step_by(2) {
                        churn.with_page_mut(page, |b| b.fill(page as u8)).unwrap();
                    }
                }
            });
        });

        let s = p.stats();
        assert!(s.hits > 0, "workload must hit the cache");
        assert!(s.evictions > 0, "workload must churn the cache");
    }
}
