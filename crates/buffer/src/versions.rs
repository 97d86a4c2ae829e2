//! Copy-on-write page versions for the *Snapshot* feature
//! (`Buffer Manager → Concurrency → MultiWriter → Snapshot`).
//!
//! MVCC-lite: the head frame stays the single mutable image (writers apply
//! in place at log time, exactly as in plain MultiWriter), and this module
//! hangs a **pre-image chain** off every page a transaction dirties. The
//! protocol is driven by two counters per page:
//!
//! * `pending` — transactions with uncommitted writes to the page. The
//!   *first* dirtying of a page in a zero-pending state (`pending` 0 → 1)
//!   captures the old head bytes onto the chain, tagged with the page's
//!   current `committed_ts` — the timestamp interval that image covers
//!   starts there.
//! * `committed_ts` — the commit timestamp the head image represents,
//!   valid whenever `pending == 0`. The uniform update rule is: **whenever
//!   `pending` drops to zero — commit *or* abort — `committed_ts` is
//!   advanced** to the current commit clock. (On abort the head bytes
//!   equal an older committed state; tagging them with a newer timestamp
//!   is conservative: the chain entry captured at streak start still
//!   serves the older interval, and no snapshot can exist *inside* the
//!   streak — see `stable` below.)
//!
//! A chain entry `(ts_i, image)` covers `[ts_i, ts_{i+1})`, the last entry
//! covers up to `committed_ts`, and the head covers `[committed_ts, ∞)`
//! while `pending == 0`.
//!
//! # The stable watermark
//!
//! Snapshots are taken at `stable`: the newest commit timestamp observed
//! at an instant when **no page anywhere was pending**. At such an
//! instant every head frame holds committed bytes, so the timestamp names
//! a prefix-consistent committed state; any later first-dirty captures a
//! pre-image tagged `≤ stable`, so the state stays readable. Because
//! `stable` only advances at zero-pending instants, no snapshot timestamp
//! can land inside a pending streak — which is exactly what makes the
//! abort rule above safe. Under sustained overlapping write load `stable`
//! may lag the commit clock; that is the documented MVCC-lite trade
//! (snapshots are slightly old, never torn).
//!
//! # Publication order
//!
//! The latch-free head read trusts a head that shows `pending == 0`
//! (Acquire) and `committed_ts <= ts` around a copy with a valid token:
//!
//! * `install` stores `committed_ts` *before* it drops `pending` to 0
//!   (Release); `pending` cannot move under the chain lock, so it is read
//!   first. The reverse order let a pinned snapshot pair the new head with
//!   the old timestamp, then read the older chain image: a backward read.
//!   `release_aborted` goes through `install`.
//! * `note_write` pushes the capture under the chain lock *before* it
//!   raises `pending`, and the frame's write window opens after that: a
//!   reader seeing `pending > 0` finds the capture under the lock; one
//!   seeing 0 fails its token if the write overlapped its copy.
//! * `stable` and `pending_pages` are `Relaxed`: no read validates bytes
//!   against them. `stable` only picks a snapshot's timestamp, under the
//!   `snaps` lock the prune's keep set uses; a stale value is an older
//!   stable one. A stale 0 from `pending_pages` misses only a streak begun
//!   after the counted install, whose capture is tagged at or below the
//!   clock and which installs above it, so its chain serves `stable`.
//!
//! # Memory bounds
//!
//! Chains are pruned eagerly at a low-water mark computed from the active
//! snapshot set: a closed entry survives only while some registered
//! snapshot (or `stable` itself) falls inside the interval it covers; the
//! open entry of a still-pending streak is always retained (`stable` can
//! yet advance into the interval it will cover). The sweep holds the
//! snapshot registry lock throughout so its keep set cannot go stale
//! against a concurrent registration. A hard cap (`chain_cap`) truncates
//! oldest-first beyond that — a straggler snapshot whose version was
//! capped away gets a "snapshot too old" error instead of unbounded
//! memory.
//!
//! Lock nesting (none classified in the global order): the per-txn
//! `writes` map and the pruning sweep's `snaps → {alloc, chain}` are the
//! only compound holds; everything else takes one of `alloc`, `chain`,
//! `snaps` at a time. Writers reach them under the shard write latch
//! (shard → chain); the snapshot slow path takes chain → device (reads
//! only) — both consistent with the global `shard → device` order.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::OnceLock;

use fame_os::{OsError, PageId};
use parking_lot::Mutex;

use crate::shared::PageTable;

/// Default bound on a page's version-chain length.
pub const DEFAULT_CHAIN_CAP: usize = 8;

/// Metas per directory chunk (chunks are published once, addresses stable).
const VCHUNK: usize = 16;
/// Directory slots; caps distinct versioned pages at `VCHUNK * VCHUNKS`.
const VCHUNKS: usize = 4096;

#[cfg(test)]
thread_local! {
    /// Test hook: `install` runs it on each page between storing
    /// `committed_ts` and dropping `pending`, under the chain lock.
    pub(crate) static INSTALL_GAP: std::cell::RefCell<Box<dyn Fn(PageId)>> =
        std::cell::RefCell::new(Box::new(drop));
}

thread_local! {
    /// Transaction currently applying writes on this thread (0 = none).
    /// Set by the facade around every transactional apply — including
    /// abort undo — so the pool can attribute first-dirty captures.
    static CURRENT_TXN: Cell<u64> = const { Cell::new(0) };
}

/// RAII scope marking this thread's pool writes as belonging to `txn`.
/// Nested scopes restore the previous attribution on drop.
pub struct TxnWriteScope {
    prev: u64,
}

impl TxnWriteScope {
    /// Attribute subsequent pool writes on this thread to `txn`.
    pub fn new(txn: u64) -> Self {
        TxnWriteScope {
            prev: CURRENT_TXN.replace(txn),
        }
    }
}

impl Drop for TxnWriteScope {
    fn drop(&mut self) {
        CURRENT_TXN.set(self.prev);
    }
}

/// One captured pre-image: the committed head bytes as they were when a
/// pending streak began, tagged with the timestamp interval they cover.
struct ChainEntry {
    ts: u64,
    image: Box<[u8]>,
}

/// Per-page version state. Reached latch-free through the lock-free
/// directory; `pending`/`committed_ts` mutate only under `chain`, so the
/// slow path reads them race-free while holding it.
pub(crate) struct VersionMeta {
    /// `page + 1` once assigned (0 = vacant slot), for directory sweeps.
    owner: AtomicU64,
    /// Transactions with uncommitted writes to this page.
    pub(crate) pending: AtomicU64,
    /// Timestamp of the head image, meaningful while `pending == 0`.
    pub(crate) committed_ts: AtomicU64,
    /// Pre-images, ascending by `ts`.
    chain: Mutex<Vec<ChainEntry>>,
}

impl VersionMeta {
    fn new() -> Self {
        VersionMeta {
            owner: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            committed_ts: AtomicU64::new(0),
            chain: Mutex::new(Vec::new()),
        }
    }
}

/// Append-only meta storage, same publication scheme as the frame arena:
/// chunk directory behind `OnceLock`s, stable addresses, lock-free `get`.
struct MetaDir {
    chunks: Box<[OnceLock<Box<[VersionMeta]>>]>,
}

impl MetaDir {
    fn new() -> Self {
        MetaDir {
            chunks: (0..VCHUNKS).map(|_| OnceLock::new()).collect(),
        }
    }

    fn get(&self, idx: usize) -> Option<&VersionMeta> {
        self.chunks
            .get(idx / VCHUNK)?
            .get()
            .map(|c| &c[idx % VCHUNK])
    }

    fn ensure(&self, idx: usize) -> &VersionMeta {
        let chunk = self.chunks[idx / VCHUNK]
            .get_or_init(|| (0..VCHUNK).map(|_| VersionMeta::new()).collect());
        &chunk[idx % VCHUNK]
    }

    fn capacity(&self) -> usize {
        self.chunks.len() * VCHUNK
    }
}

/// Authoritative page → meta directory (behind `alloc`); the lock-free
/// [`PageTable`] in front of it is a hint for the latch-free lookup.
struct VersionAlloc {
    map: HashMap<PageId, usize>,
    len: usize,
}

/// Point-in-time snapshot counters for `StatsSnapshot` / the E14 gates.
#[derive(Debug, Clone, Copy, Default)]
pub struct VersionStats {
    /// High-water mark of any page's chain length (monotonic).
    pub chain_max: u64,
    /// Currently registered snapshot handles.
    pub active: u64,
    /// Chain entries reclaimed so far (prune + cap truncation, monotonic).
    pub pruned: u64,
    /// Chain entries currently live across all pages.
    pub live_entries: u64,
    /// Pages currently carrying uncommitted writes.
    pub pending_pages: u64,
}

/// Pool-wide version state: the commit watermarks, the per-page metas,
/// the per-transaction first-dirty sets, and the snapshot registry.
pub(crate) struct VersionStore {
    /// Lock-free `page -> meta index` hint (mutations under `alloc`).
    lookup: PageTable,
    /// Set when the hint table filled up; lookups then fall back to the
    /// authoritative map so versioned pages are never silently missed.
    saturated: AtomicBool,
    dir: MetaDir,
    alloc: Mutex<VersionAlloc>,
    /// Per-transaction pages already counted into `pending` (first-dirty
    /// dedup). Drained by install/abort release.
    writes: Mutex<HashMap<u64, Vec<PageId>>>,
    /// Pages with `pending > 0`, pool-wide; `stable` advances only when 0.
    pending_pages: AtomicU64,
    /// Newest timestamp naming a readable prefix-consistent state.
    stable: AtomicU64,
    /// Highest installed commit timestamp.
    last_ts: AtomicU64,
    /// Active snapshots: ts -> handle count.
    snaps: Mutex<BTreeMap<u64, u64>>,
    /// Chain-length bound (oldest entries truncated beyond it).
    cap: AtomicUsize,
    chain_max: AtomicU64,
    pruned: AtomicU64,
}

impl VersionStore {
    pub(crate) fn new() -> Self {
        VersionStore {
            lookup: PageTable::new(4096),
            saturated: AtomicBool::new(false),
            dir: MetaDir::new(),
            alloc: Mutex::new(VersionAlloc {
                map: HashMap::new(),
                len: 0,
            }),
            writes: Mutex::new(HashMap::new()),
            pending_pages: AtomicU64::new(0),
            stable: AtomicU64::new(0),
            last_ts: AtomicU64::new(0),
            snaps: Mutex::new(BTreeMap::new()),
            cap: AtomicUsize::new(DEFAULT_CHAIN_CAP),
            chain_max: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
        }
    }

    pub(crate) fn set_cap(&self, cap: usize) {
        self.cap.store(cap.max(1), Relaxed);
    }

    /// Latch-free meta lookup. `None` is authoritative (no transaction
    /// ever dirtied the page) unless the hint table saturated, in which
    /// case the directory mutex answers.
    pub(crate) fn get(&self, page: PageId) -> Option<&VersionMeta> {
        if let Some(idx) = self.lookup.lookup(page) {
            if let Some(vm) = self.dir.get(idx) {
                if vm.owner.load(Acquire) == u64::from(page) + 1 {
                    return Some(vm);
                }
            }
        }
        if self.saturated.load(Acquire) {
            let a = self.alloc.lock();
            return a.map.get(&page).and_then(|&idx| self.dir.get(idx));
        }
        None
    }

    fn ensure(&self, page: PageId) -> &VersionMeta {
        if let Some(vm) = self.get(page) {
            return vm;
        }
        let mut a = self.alloc.lock();
        if let Some(&idx) = a.map.get(&page) {
            return self.dir.get(idx).expect("mapped meta exists");
        }
        let idx = a.len;
        assert!(
            idx < self.dir.capacity(),
            "version meta directory exhausted ({} pages)",
            self.dir.capacity()
        );
        a.len += 1;
        a.map.insert(page, idx);
        let vm = self.dir.ensure(idx);
        vm.owner.store(u64::from(page) + 1, Release);
        self.lookup.insert(page, idx);
        if self.lookup.lookup(page) != Some(idx) {
            // Hint table full: flip to authoritative lookups for good.
            self.saturated.store(true, Release);
        }
        vm
    }

    /// Current transaction attribution of this thread (0 = none).
    pub(crate) fn current_txn() -> u64 {
        CURRENT_TXN.get()
    }

    /// First-write capture hook, called with the shard write latch held
    /// and `pre` = the head bytes *before* the mutation. On a `pending`
    /// 0 → 1 transition the pre-image is pushed onto the chain tagged
    /// with the page's `committed_ts`. Returns chain entries dropped by
    /// the cap (for the prune span) — 0 when nothing was captured.
    pub(crate) fn note_write(&self, page: PageId, pre: &[u8]) -> u64 {
        let txn = CURRENT_TXN.get();
        if txn == 0 {
            return 0;
        }
        {
            let mut w = self.writes.lock();
            let set = w.entry(txn).or_default();
            if set.contains(&page) {
                return 0;
            }
            set.push(page);
        }
        let vm = self.ensure(page);
        let mut chain = vm.chain.lock();
        let mut dropped = 0u64;
        if vm.pending.load(Relaxed) == 0 {
            chain.push(ChainEntry {
                ts: vm.committed_ts.load(Relaxed),
                image: pre.into(),
            });
            self.pending_pages.fetch_add(1, Relaxed);
            let cap = self.cap.load(Relaxed);
            if chain.len() > cap {
                let n = chain.len() - cap;
                chain.drain(..n);
                dropped = n as u64;
                self.pruned.fetch_add(dropped, Relaxed);
            }
            self.chain_max.fetch_max(chain.len() as u64, Relaxed);
        }
        vm.pending.fetch_add(1, Release);
        dropped
    }

    /// Resolve `page` at snapshot timestamp `ts` under the chain lock,
    /// which freezes `pending`/`committed_ts` (streaks start and end
    /// under it). A covering chain entry is copied into `dst` (immutable
    /// once captured — no validation needed). If instead the *head* is
    /// committed and covers `ts`, `head_read` runs on `dst` while the
    /// lock is held — no new streak can begin on the page, so a pool
    /// whose head read cannot race latch-holding writers (the
    /// pass-through device read) serves the head right here; a pool that
    /// cannot promise that (the cached seqlock head needs no chain lock
    /// anyway) returns `None` and retries its own validated protocol,
    /// signalled as [`Resolution::HeadRetry`].
    pub(crate) fn resolve_chain(
        &self,
        vm: &VersionMeta,
        ts: u64,
        dst: &mut [u8],
        head_read: impl FnOnce(&mut [u8]) -> Option<Result<(), OsError>>,
    ) -> Resolution {
        let chain = vm.chain.lock();
        if vm.pending.load(Relaxed) == 0 && vm.committed_ts.load(Relaxed) <= ts {
            return match head_read(dst) {
                Some(Ok(())) => Resolution::Head,
                Some(Err(e)) => Resolution::HeadErr(e),
                None => Resolution::HeadRetry,
            };
        }
        match chain.iter().rev().find(|e| e.ts <= ts) {
            Some(e) => {
                dst[..e.image.len()].copy_from_slice(&e.image);
                Resolution::Image(e.ts)
            }
            None => Resolution::TooOld,
        }
    }

    /// Install a drained commit batch at timestamp `ts`: every page each
    /// transaction dirtied drops one `pending`; pages reaching zero get
    /// `committed_ts = ts`. Advances `stable` when nothing is pending
    /// pool-wide, then prunes the touched chains against the low-water
    /// mark. Returns `(page, entries_dropped)` pairs for span emission.
    pub(crate) fn install(&self, txns: &[u64], ts: u64) -> Vec<(PageId, u64)> {
        self.last_ts.fetch_max(ts, Relaxed);
        let mut touched: Vec<PageId> = Vec::new();
        {
            let mut w = self.writes.lock();
            for t in txns {
                if let Some(pages) = w.remove(t) {
                    touched.extend(pages);
                }
            }
        }
        for &page in &touched {
            let vm = self.ensure(page);
            let _chain = vm.chain.lock();
            // Timestamp first, then `pending` ("Publication order").
            let pending = vm.pending.load(Relaxed);
            debug_assert!(pending > 0, "pending underflow on page {page}");
            if pending == 1 {
                vm.committed_ts.store(ts, Release);
                self.pending_pages.fetch_sub(1, Relaxed);
            }
            #[cfg(test)]
            INSTALL_GAP.with_borrow(|hook| hook(page));
            vm.pending.fetch_sub(1, Release);
        }
        if self.pending_pages.load(Relaxed) == 0 {
            self.stable.fetch_max(self.last_ts.load(Relaxed), Relaxed);
        }
        touched.sort_unstable();
        touched.dedup();
        self.prune_pages(&touched)
    }

    /// Prune `pages` against the low-water mark: every active snapshot
    /// plus the current `stable` (the next snapshot will be taken there).
    ///
    /// The snapshot registry lock is held across the *whole* sweep — the
    /// keep set must never go stale against a concurrent registration. A
    /// registration therefore either lands in this keep set, or waits and
    /// registers at the then-current `stable`, whose state every head
    /// covers. (`stable` itself may still advance mid-sweep, but only to
    /// installed timestamps ≥ any closed entry's upper bound, so it can
    /// never land inside an interval this sweep drops.)
    fn prune_pages(&self, pages: &[PageId]) -> Vec<(PageId, u64)> {
        let snaps = self.snaps.lock();
        let mut keep: Vec<u64> = snaps.keys().copied().collect();
        keep.push(self.stable.load(Relaxed));
        keep.sort_unstable();
        keep.dedup();
        let swept = pages
            .iter()
            .filter_map(|&page| {
                let vm = self.get(page)?;
                let dropped = self.prune_one(vm, &keep);
                (dropped > 0).then_some((page, dropped))
            })
            .collect();
        drop(snaps);
        swept
    }

    /// Drop every chain entry no timestamp in `keep` resolves to. Entry
    /// `i` covers `[ts_i, next_i)` where `next_i` is the following
    /// entry's tag, or `committed_ts` for the last entry of a quiescent
    /// page. While a streak is pending the last entry's interval is still
    /// open — it is retained unconditionally, because `stable` can still
    /// advance into it (to any timestamp below the streak's eventual
    /// install) and a snapshot registered there would need it.
    fn prune_one(&self, vm: &VersionMeta, keep: &[u64]) -> u64 {
        let mut chain = vm.chain.lock();
        if chain.is_empty() {
            return 0;
        }
        let upper = if vm.pending.load(Relaxed) == 0 {
            Some(vm.committed_ts.load(Relaxed))
        } else {
            None
        };
        let before = chain.len();
        let bounds: Vec<(u64, Option<u64>)> = chain
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let next = chain.get(i + 1).map(|n| n.ts).or(upper);
                (e.ts, next)
            })
            .collect();
        let mut i = 0;
        chain.retain(|_| {
            let (lo, hi) = bounds[i];
            i += 1;
            match hi {
                None => true,
                Some(h) => keep.iter().any(|&t| t >= lo && t < h),
            }
        });
        let dropped = (before - chain.len()) as u64;
        if dropped > 0 {
            self.pruned.fetch_add(dropped, Relaxed);
        }
        dropped
    }

    /// Abort-side release for one transaction (undo already applied, so
    /// the head holds restored bytes). Same pending/committed rule as
    /// commit, tagged with the newest installed timestamp.
    pub(crate) fn release_aborted(&self, txn: u64) -> Vec<(PageId, u64)> {
        let ts = self.last_ts.load(Relaxed);
        let pages_present = self.writes.lock().contains_key(&txn);
        if !pages_present {
            return Vec::new();
        }
        self.install(&[txn], ts)
    }

    /// Register a snapshot at the stable watermark; returns `(ts, active)`.
    pub(crate) fn snapshot_begin(&self) -> (u64, u64) {
        let mut s = self.snaps.lock();
        let ts = self.stable.load(Acquire);
        *s.entry(ts).or_insert(0) += 1;
        let active: u64 = s.values().sum();
        (ts, active)
    }

    /// Deregister a snapshot and sweep-prune every chain against the new
    /// low-water mark. Returns `(page, entries_dropped)` pairs.
    pub(crate) fn snapshot_end(&self, ts: u64) -> Vec<(PageId, u64)> {
        {
            let mut s = self.snaps.lock();
            if let Some(n) = s.get_mut(&ts) {
                *n -= 1;
                if *n == 0 {
                    s.remove(&ts);
                }
            }
        }
        let pages: Vec<PageId> = self.alloc.lock().map.keys().copied().collect();
        self.prune_pages(&pages)
    }

    pub(crate) fn stats(&self) -> VersionStats {
        let live_entries = {
            let a = self.alloc.lock();
            a.map
                .values()
                .filter_map(|&i| self.dir.get(i))
                .map(|vm| vm.chain.lock().len() as u64)
                .sum()
        };
        VersionStats {
            chain_max: self.chain_max.load(Relaxed),
            active: self.snaps.lock().values().sum(),
            pruned: self.pruned.load(Relaxed),
            live_entries,
            pending_pages: self.pending_pages.load(Relaxed),
        }
    }
}

/// Outcome of a chain resolution attempt (see
/// [`VersionStore::resolve_chain`]).
pub(crate) enum Resolution {
    /// `dst` holds the head image, read under the chain lock.
    Head,
    /// `dst` holds a chain image; payload = its version timestamp.
    Image(u64),
    /// Head is committed and covers the timestamp, but the caller serves
    /// heads through its own validated latch-free protocol: retry there.
    HeadRetry,
    /// The covering version was pruned or capped away.
    TooOld,
    /// The under-lock head read failed at the device.
    HeadErr(OsError),
}
