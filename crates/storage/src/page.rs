//! Slotted pages: the universal on-device page format.
//!
//! ```text
//! offset  size  field
//! 0       1     page type (PageType)
//! 1       1     flags (unused, reserved)
//! 2       2     number of slots (LE)
//! 4       2     free_end: lowest byte offset used by cell data
//! 6       4     next page in a chain (NO_PAGE = none)
//! 10      4     aux: per-type extra pointer (e.g. leftmost child)
//! 14      2     reserved
//! 16      4*n   slot directory: (cell offset u16, cell length u16)
//! ...           free space
//! ...           cells, growing downward from the page end
//! ```
//!
//! Two usage disciplines share the format — a page must stick to one:
//!
//! * **stable slots** ([`SlottedPage::insert`]/[`SlottedPage::delete`]):
//!   slot ids survive other insertions/deletions (deleted slots become
//!   tombstones and are reused). The list and hash chains use these.
//! * **ordered cells** ([`SlottedPage::insert_at`]/[`SlottedPage::remove_at`]):
//!   the slot directory is treated as a dense sorted array (B+-tree nodes).
//!
//! Both disciplines store key/value cells in one encoding,
//! `[klen:u16][key][value]` (`cell`, `cell_key`, `cell_value`); a B+-tree
//! separator is the same cell with a 4-byte child id as its value.

/// Size of the fixed page header in bytes.
pub const PAGE_HEADER_SIZE: usize = 16;

/// Sentinel for "no page" in chain links.
pub const NO_PAGE: u32 = u32::MAX;

/// Sentinel offset marking a tombstoned slot.
const TOMBSTONE: u16 = u16::MAX;

/// What a page holds. Stored in byte 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageType {
    /// Unallocated / on the free list.
    Free = 0,
    /// The pager's metadata page (page 0).
    Meta = 1,
    /// B+-tree leaf.
    BTreeLeaf = 2,
    /// B+-tree internal node.
    BTreeInternal = 3,
    /// Heap/list data page.
    Heap = 4,
    /// Hash-index bucket page.
    HashBucket = 5,
    /// Hash-index directory page.
    HashDir = 6,
    /// Queue data page.
    Queue = 7,
    /// Queue directory page.
    QueueDir = 8,
}

impl PageType {
    /// Parse the type byte.
    pub fn from_u8(b: u8) -> Option<PageType> {
        Some(match b {
            0 => PageType::Free,
            1 => PageType::Meta,
            2 => PageType::BTreeLeaf,
            3 => PageType::BTreeInternal,
            4 => PageType::Heap,
            5 => PageType::HashBucket,
            6 => PageType::HashDir,
            7 => PageType::Queue,
            8 => PageType::QueueDir,
            _ => return None,
        })
    }
}

#[inline]
pub(crate) fn get_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

#[inline]
fn put_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[inline]
pub(crate) fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

#[inline]
fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Encode a `[klen:u16][key][value]` cell.
#[cfg(any(feature = "btree", feature = "list", feature = "hash"))]
pub(crate) fn cell(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut c = Vec::with_capacity(2 + key.len() + value.len());
    c.extend_from_slice(&(key.len() as u16).to_le_bytes());
    c.extend_from_slice(key);
    c.extend_from_slice(value);
    c
}

/// The key of a cell written by [`cell`].
#[cfg(any(feature = "btree", feature = "list", feature = "hash"))]
#[inline]
pub(crate) fn cell_key(c: &[u8]) -> &[u8] {
    &c[2..2 + get_u16(c, 0) as usize]
}

/// The value of a cell written by [`cell`].
#[cfg(any(feature = "btree", feature = "list", feature = "hash"))]
#[inline]
pub(crate) fn cell_value(c: &[u8]) -> &[u8] {
    &c[2 + get_u16(c, 0) as usize..]
}

/// Read-only view of a slotted page (usable inside `with_page` closures).
#[derive(Clone, Copy)]
pub struct PageView<'a> {
    buf: &'a [u8],
}

impl<'a> PageView<'a> {
    /// Wrap a raw page buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        debug_assert!(buf.len() >= PAGE_HEADER_SIZE + 4);
        debug_assert!(
            buf.len() <= 32 * 1024,
            "page sizes above 32 KiB unsupported"
        );
        PageView { buf }
    }

    /// The page's type byte, if valid.
    pub fn page_type(&self) -> Option<PageType> {
        PageType::from_u8(self.buf[0])
    }

    /// Number of slots (including tombstones).
    pub fn slot_count(&self) -> usize {
        get_u16(self.buf, 2) as usize
    }

    /// Number of live (non-tombstoned) slots.
    pub fn live_count(&self) -> usize {
        (0..self.slot_count())
            .filter(|&i| get_u16(self.buf, PAGE_HEADER_SIZE + 4 * i) != TOMBSTONE)
            .count()
    }

    /// Chain link to the next page, if any.
    pub fn next_page(&self) -> Option<u32> {
        match get_u32(self.buf, 6) {
            NO_PAGE => None,
            p => Some(p),
        }
    }

    /// The per-type auxiliary pointer, if set.
    pub fn aux(&self) -> Option<u32> {
        match get_u32(self.buf, 10) {
            NO_PAGE => None,
            p => Some(p),
        }
    }

    /// Cell bytes of a slot; `None` for tombstones or out-of-range ids.
    pub fn get(&self, slot: u16) -> Option<&'a [u8]> {
        if slot as usize >= self.slot_count() {
            return None;
        }
        let at = PAGE_HEADER_SIZE + 4 * slot as usize;
        let off = get_u16(self.buf, at);
        if off == TOMBSTONE {
            return None;
        }
        let len = get_u16(self.buf, at + 2) as usize;
        Some(&self.buf[off as usize..off as usize + len])
    }

    /// Cell at a dense index (ordered discipline). Panics on tombstones,
    /// which never occur in ordered pages.
    pub fn cell_at(&self, idx: usize) -> &'a [u8] {
        self.get(idx as u16)
            .expect("ordered pages have no tombstones")
    }

    /// Contiguous free bytes (between slot directory and cell area).
    #[cfg(test)]
    fn free_space(&self) -> usize {
        let free_end = get_u16(self.buf, 4) as usize;
        let dir_end = PAGE_HEADER_SIZE + 4 * self.slot_count();
        free_end.saturating_sub(dir_end)
    }

    /// Free bytes recoverable by compaction (contiguous + garbage).
    pub fn total_free(&self) -> usize {
        let live: usize = (0..self.slot_count() as u16)
            .filter_map(|i| self.get(i).map(|c| c.len() + 4))
            .sum();
        // Tombstoned slots still occupy directory entries until reused.
        let tombstones = self.slot_count() - self.live_count();
        self.buf.len() - PAGE_HEADER_SIZE - live - 4 * tombstones
    }

    /// Iterate `(slot, cell)` over live slots.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        let n = self.slot_count() as u16;
        (0..n).filter_map(move |i| self.get(i).map(|c| (i, c)))
    }
}

/// Mutable slotted page over a raw buffer.
pub struct SlottedPage<'a> {
    buf: &'a mut [u8],
}

impl<'a> SlottedPage<'a> {
    /// Wrap an existing, already-initialized page buffer.
    pub fn new(buf: &'a mut [u8]) -> Self {
        debug_assert!(buf.len() >= PAGE_HEADER_SIZE + 4);
        debug_assert!(
            buf.len() <= 32 * 1024,
            "page sizes above 32 KiB unsupported"
        );
        SlottedPage { buf }
    }

    /// Format a fresh page of the given type.
    pub fn init(buf: &'a mut [u8], ty: PageType) -> Self {
        buf[..PAGE_HEADER_SIZE].fill(0);
        buf[0] = ty as u8;
        let len = buf.len();
        put_u16(buf, 4, len as u16); // free_end = page size
        put_u32(buf, 6, NO_PAGE);
        put_u32(buf, 10, NO_PAGE);
        SlottedPage { buf }
    }

    /// The raw page, for types that keep fields past the header (queue
    /// directories).
    #[cfg(feature = "queue")]
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        self.buf
    }

    /// Read-only view of this page.
    pub fn view(&self) -> PageView<'_> {
        PageView { buf: self.buf }
    }

    /// See [`PageView::page_type`].
    pub fn page_type(&self) -> Option<PageType> {
        self.view().page_type()
    }

    /// See [`PageView::slot_count`].
    pub fn slot_count(&self) -> usize {
        self.view().slot_count()
    }

    /// See [`PageView::live_count`].
    pub fn live_count(&self) -> usize {
        self.view().live_count()
    }

    /// See [`PageView::total_free`].
    pub fn total_free(&self) -> usize {
        self.view().total_free()
    }

    /// See [`PageView::next_page`].
    pub fn next_page(&self) -> Option<u32> {
        self.view().next_page()
    }

    /// Set the chain link.
    pub fn set_next_page(&mut self, next: Option<u32>) {
        put_u32(self.buf, 6, next.unwrap_or(NO_PAGE));
    }

    /// See [`PageView::aux`].
    pub fn aux(&self) -> Option<u32> {
        self.view().aux()
    }

    /// Set the per-type auxiliary pointer.
    pub fn set_aux(&mut self, aux: Option<u32>) {
        put_u32(self.buf, 10, aux.unwrap_or(NO_PAGE));
    }

    /// See [`PageView::get`].
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        self.view().get(slot)
    }

    /// See [`PageView::cell_at`].
    pub fn cell_at(&self, idx: usize) -> &[u8] {
        self.view().cell_at(idx)
    }

    fn set_slot(&mut self, slot: usize, off: u16, len: u16) {
        let at = PAGE_HEADER_SIZE + 4 * slot;
        put_u16(self.buf, at, off);
        put_u16(self.buf, at + 2, len);
    }

    fn slot(&self, slot: usize) -> (u16, u16) {
        let at = PAGE_HEADER_SIZE + 4 * slot;
        (get_u16(self.buf, at), get_u16(self.buf, at + 2))
    }

    fn set_slot_count(&mut self, n: usize) {
        put_u16(self.buf, 2, n as u16);
    }

    fn free_end(&self) -> usize {
        get_u16(self.buf, 4) as usize
    }

    fn set_free_end(&mut self, v: usize) {
        put_u16(self.buf, 4, v as u16);
    }

    /// Reserve cell space of `len` bytes, compacting if fragmentation
    /// requires it. Returns the cell offset, or `None` if the page is
    /// genuinely full. `extra_dir` is the number of *new* directory entries
    /// the caller is about to add (0 or 1).
    fn reserve_cell(&mut self, len: usize, extra_dir: usize) -> Option<usize> {
        let need_dir = PAGE_HEADER_SIZE + 4 * (self.slot_count() + extra_dir);
        if self.free_end() < need_dir + len {
            self.compact();
            if self.free_end() < need_dir + len {
                return None;
            }
        }
        let off = self.free_end() - len;
        self.set_free_end(off);
        Some(off)
    }

    /// Rewrite all live cells tightly against the page end, eliminating
    /// garbage from deletions and updates. Slot ids are preserved.
    pub fn compact(&mut self) {
        let n = self.slot_count();
        // Collect live cells (slot, bytes).
        let mut cells: Vec<(usize, Vec<u8>)> = Vec::with_capacity(n);
        for i in 0..n {
            let (off, len) = self.slot(i);
            if off != TOMBSTONE {
                let off = off as usize;
                cells.push((i, self.buf[off..off + len as usize].to_vec()));
            }
        }
        let mut free_end = self.buf.len();
        for (slot, bytes) in cells {
            free_end -= bytes.len();
            self.buf[free_end..free_end + bytes.len()].copy_from_slice(&bytes);
            self.set_slot(slot, free_end as u16, bytes.len() as u16);
        }
        self.set_free_end(free_end);
    }

    // ---- stable-slot discipline ------------------------------------------

    /// Insert a cell, reusing a tombstoned slot if available.
    /// Returns the slot id, or `None` if the page is full.
    pub fn insert(&mut self, data: &[u8]) -> Option<u16> {
        let tomb = (0..self.slot_count()).find(|&i| self.slot(i).0 == TOMBSTONE);
        let extra_dir = usize::from(tomb.is_none());
        let off = self.reserve_cell(data.len(), extra_dir)?;
        self.buf[off..off + data.len()].copy_from_slice(data);
        let slot = match tomb {
            Some(i) => i,
            None => {
                let i = self.slot_count();
                self.set_slot_count(i + 1);
                i
            }
        };
        self.set_slot(slot, off as u16, data.len() as u16);
        Some(slot as u16)
    }

    /// Tombstone a slot. Returns whether the slot was live.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot as usize >= self.slot_count() || self.slot(slot as usize).0 == TOMBSTONE {
            return false;
        }
        self.set_slot(slot as usize, TOMBSTONE, 0);
        true
    }

    /// Replace a live slot's cell. Shrinking updates in place; growth
    /// re-reserves space (compacting if needed). Returns `false` when the
    /// slot is dead or the page cannot hold the new cell. In the second
    /// case the slot is left tombstoned and the old cell is gone (growth
    /// tombstones it so compaction can reclaim its bytes): the caller
    /// re-inserts the new cell elsewhere, as the chain's upsert does.
    pub fn update(&mut self, slot: u16, data: &[u8]) -> bool {
        if slot as usize >= self.slot_count() {
            return false;
        }
        let (off, len) = self.slot(slot as usize);
        if off == TOMBSTONE {
            return false;
        }
        if data.len() <= len as usize {
            let off = off as usize;
            self.buf[off..off + data.len()].copy_from_slice(data);
            self.set_slot(slot as usize, off as u16, data.len() as u16);
            return true;
        }
        // Grow: tombstone first so compaction can reclaim the old cell.
        self.set_slot(slot as usize, TOMBSTONE, 0);
        match self.reserve_cell(data.len(), 0) {
            Some(noff) => {
                self.buf[noff..noff + data.len()].copy_from_slice(data);
                self.set_slot(slot as usize, noff as u16, data.len() as u16);
                true
            }
            None => false,
        }
    }

    // ---- ordered-cell discipline -------------------------------------------

    /// Insert a cell at dense index `idx`, shifting later entries right.
    /// Returns `false` if the page is full.
    pub fn insert_at(&mut self, idx: usize, data: &[u8]) -> bool {
        let n = self.slot_count();
        debug_assert!(idx <= n);
        let off = match self.reserve_cell(data.len(), 1) {
            Some(o) => o,
            None => return false,
        };
        self.buf[off..off + data.len()].copy_from_slice(data);
        // Shift directory entries [idx, n) one slot right.
        for i in (idx..n).rev() {
            let (o, l) = self.slot(i);
            self.set_slot(i + 1, o, l);
        }
        self.set_slot_count(n + 1);
        self.set_slot(idx, off as u16, data.len() as u16);
        true
    }

    /// Remove the cell at dense index `idx`, shifting later entries left.
    pub fn remove_at(&mut self, idx: usize) {
        let n = self.slot_count();
        debug_assert!(idx < n);
        for i in idx + 1..n {
            let (o, l) = self.slot(i);
            self.set_slot(i - 1, o, l);
        }
        self.set_slot_count(n - 1);
    }

    /// Replace the cell at dense index `idx`. Returns `false` when the
    /// page cannot hold the new cell.
    pub fn update_at(&mut self, idx: usize, data: &[u8]) -> bool {
        let (off, len) = self.slot(idx);
        debug_assert_ne!(off, TOMBSTONE);
        if data.len() <= len as usize {
            let off = off as usize;
            self.buf[off..off + data.len()].copy_from_slice(data);
            self.set_slot(idx, off as u16, data.len() as u16);
            return true;
        }
        // Drop the entry so compaction reclaims the old cell. When the
        // page is genuinely full the entry stays removed: callers treat
        // `false` as "redo via split + insert", which B+-tree update does.
        self.remove_at(idx);
        self.insert_at(idx, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: usize) -> Vec<u8> {
        vec![0u8; n]
    }

    #[test]
    fn init_sets_header() {
        let mut buf = page(256);
        let p = SlottedPage::init(&mut buf, PageType::Heap);
        assert_eq!(p.page_type(), Some(PageType::Heap));
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.next_page(), None);
        assert_eq!(p.aux(), None);
        assert_eq!(p.view().free_space(), 256 - PAGE_HEADER_SIZE);
    }

    #[test]
    fn insert_get_round_trip() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf, PageType::Heap);
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"beta").unwrap();
        assert_eq!(p.get(a), Some(&b"alpha"[..]));
        assert_eq!(p.get(b), Some(&b"beta"[..]));
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn delete_tombstones_and_reuses_slot() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf, PageType::Heap);
        let a = p.insert(b"one").unwrap();
        let b = p.insert(b"two").unwrap();
        assert!(p.delete(a));
        assert!(!p.delete(a), "double delete is a no-op");
        assert_eq!(p.get(a), None);
        assert_eq!(p.get(b), Some(&b"two"[..]));
        let c = p.insert(b"three").unwrap();
        assert_eq!(c, a, "tombstoned slot is reused");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn page_fills_up_and_insert_fails() {
        let mut buf = page(128);
        let mut p = SlottedPage::init(&mut buf, PageType::Heap);
        let mut inserted = 0;
        while p.insert(&[0xAB; 10]).is_some() {
            inserted += 1;
        }
        assert!(inserted >= 7, "128-byte page should hold several cells");
        assert!(p.insert(&[0xAB; 10]).is_none());
        // A smaller record can still fit if there is room.
        let _ = p.insert(b"x");
    }

    #[test]
    fn compaction_reclaims_deleted_space() {
        let mut buf = page(128);
        let mut p = SlottedPage::init(&mut buf, PageType::Heap);
        let mut slots = Vec::new();
        while let Some(s) = p.insert(&[1u8; 16]) {
            slots.push(s);
        }
        // Delete every other cell, then insert something bigger than any
        // single hole but smaller than the sum.
        for &s in slots.iter().step_by(2) {
            p.delete(s);
        }
        let big = vec![7u8; 30];
        let s = p.insert(&big).expect("compaction makes room");
        assert_eq!(p.get(s), Some(&big[..]));
        // Survivors intact.
        for &s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.get(s), Some(&[1u8; 16][..]));
        }
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf, PageType::Heap);
        let s = p.insert(b"0123456789").unwrap();
        assert!(p.update(s, b"abc"), "shrink in place");
        assert_eq!(p.get(s), Some(&b"abc"[..]));
        assert!(p.update(s, b"a-much-longer-record"), "grow");
        assert_eq!(p.get(s), Some(&b"a-much-longer-record"[..]));
    }

    #[test]
    fn update_dead_slot_fails() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf, PageType::Heap);
        let s = p.insert(b"x").unwrap();
        p.delete(s);
        assert!(!p.update(s, b"y"));
    }

    #[test]
    fn ordered_insert_preserves_order() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf, PageType::BTreeLeaf);
        assert!(p.insert_at(0, b"b"));
        assert!(p.insert_at(0, b"a"));
        assert!(p.insert_at(2, b"d"));
        assert!(p.insert_at(2, b"c"));
        let cells: Vec<&[u8]> = (0..4).map(|i| p.cell_at(i)).collect();
        assert_eq!(cells, [b"a", b"b", b"c", b"d"]);
    }

    #[test]
    fn ordered_remove_shifts() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf, PageType::BTreeLeaf);
        for (i, c) in [b"a", b"b", b"c"].iter().enumerate() {
            assert!(p.insert_at(i, *c));
        }
        p.remove_at(1);
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.cell_at(0), b"a");
        assert_eq!(p.cell_at(1), b"c");
    }

    #[test]
    fn ordered_update_at() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf, PageType::BTreeLeaf);
        assert!(p.insert_at(0, b"aaaa"));
        assert!(p.insert_at(1, b"bbbb"));
        assert!(p.update_at(0, b"xx"), "shrink");
        assert!(p.update_at(0, b"a-longer-cell-value"), "grow");
        assert_eq!(p.cell_at(0), b"a-longer-cell-value");
        assert_eq!(p.cell_at(1), b"bbbb");
    }

    #[test]
    fn chain_links_round_trip() {
        let mut buf = page(128);
        let mut p = SlottedPage::init(&mut buf, PageType::Heap);
        p.set_next_page(Some(42));
        p.set_aux(Some(7));
        assert_eq!(p.next_page(), Some(42));
        assert_eq!(p.aux(), Some(7));
        p.set_next_page(None);
        assert_eq!(p.next_page(), None);
    }

    #[test]
    fn view_matches_mut_page() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf, PageType::Heap);
        p.insert(b"hello").unwrap();
        let v = PageView::new(&buf);
        assert_eq!(v.page_type(), Some(PageType::Heap));
        assert_eq!(v.get(0), Some(&b"hello"[..]));
        assert_eq!(v.iter().count(), 1);
    }

    #[test]
    fn total_free_accounts_for_garbage() {
        let mut buf = page(256);
        let mut p = SlottedPage::init(&mut buf, PageType::Heap);
        let s = p.insert(&[0u8; 50]).unwrap();
        let before = p.view().free_space();
        p.delete(s);
        assert_eq!(p.view().free_space(), before, "contiguous space unchanged");
        assert!(p.total_free() > before, "garbage counted as reclaimable");
    }

    #[test]
    fn page_type_round_trip() {
        for b in 0..=8u8 {
            let t = PageType::from_u8(b).unwrap();
            assert_eq!(t as u8, b);
        }
        assert_eq!(PageType::from_u8(99), None);
    }
}
