//! B+-tree index: feature *Storage → Index → B+-Tree* of Figure 2.
//!
//! The paper stresses that core functionality like the B-tree must be
//! decomposed with *fine* granularity (search is mandatory, update and
//! remove are optional subfeatures). In this reproduction the subfeature
//! boundary is the method surface: products that do not compose
//! `btree-update`/`btree-remove` never reference [`BTree::insert`] /
//! [`BTree::remove`], and LTO removes the corresponding code paths from the
//! binary (measured by the Fig. 1a harness).
//!
//! Design:
//! * variable-length byte-string keys and values, unique keys, upsert
//!   semantics for [`BTree::insert`];
//! * leaves hold `[klen:u16][key][value]` cells in key order and are
//!   chained left-to-right for range scans;
//! * internal nodes hold `[klen:u16][key][child:u32]` cells; the leftmost
//!   child lives in the page header's aux field. A separator key `k` points
//!   to the subtree with keys `>= k`;
//! * splits redistribute by bytes (variable-length cells), deletions merge
//!   adjacent same-parent nodes when the result fits in one page, and the
//!   root collapses when it loses its last separator.

use fame_os::PageId;

use crate::error::{Result, StorageError};
use crate::page::{PageType, PageView, SlottedPage, PAGE_HEADER_SIZE};
use crate::pager::{PageRead, Pager};

/// Fraction of the page below which a node is considered under-full.
const UNDERFLOW_DIVISOR: usize = 4;

// ---- cell encodings -------------------------------------------------------

fn leaf_cell(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut c = Vec::with_capacity(2 + key.len() + value.len());
    c.extend_from_slice(&(key.len() as u16).to_le_bytes());
    c.extend_from_slice(key);
    c.extend_from_slice(value);
    c
}

fn cell_key(cell: &[u8]) -> &[u8] {
    let klen = u16::from_le_bytes([cell[0], cell[1]]) as usize;
    &cell[2..2 + klen]
}

fn leaf_value(cell: &[u8]) -> &[u8] {
    let klen = u16::from_le_bytes([cell[0], cell[1]]) as usize;
    &cell[2 + klen..]
}

fn int_cell(key: &[u8], child: PageId) -> Vec<u8> {
    let mut c = Vec::with_capacity(2 + key.len() + 4);
    c.extend_from_slice(&(key.len() as u16).to_le_bytes());
    c.extend_from_slice(key);
    c.extend_from_slice(&child.to_le_bytes());
    c
}

fn int_child(cell: &[u8]) -> PageId {
    let klen = u16::from_le_bytes([cell[0], cell[1]]) as usize;
    u32::from_le_bytes(cell[2 + klen..2 + klen + 4].try_into().expect("4 bytes"))
}

/// Binary search over the ordered cells of a node.
/// `Ok(i)` = key equals cell `i`'s key; `Err(i)` = insertion point.
fn search(view: &PageView<'_>, key: &[u8]) -> std::result::Result<usize, usize> {
    let mut lo = 0usize;
    let mut hi = view.slot_count();
    while lo < hi {
        let mid = (lo + hi) / 2;
        match cell_key(view.cell_at(mid)).cmp(key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Which child of an internal node covers `key`.
/// Returns `(child_page, cell_index_or_none_for_leftmost)`.
fn descend_child(view: &PageView<'_>, key: &[u8]) -> (PageId, Option<usize>) {
    let idx = match search(view, key) {
        Ok(i) => Some(i),
        Err(0) => None,
        Err(i) => Some(i - 1),
    };
    match idx {
        None => (view.aux().expect("internal node has leftmost child"), None),
        Some(i) => (int_child(view.cell_at(i)), Some(i)),
    }
}

// ---- the tree --------------------------------------------------------------

/// A B+-tree rooted at a page, persisted via a named root slot.
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    root: PageId,
    root_slot: usize,
}

/// Result of inserting into a subtree: either it fit, or the child split
/// and `(separator, right_page)` must be added to the parent.
enum Ins {
    Fit,
    Split(Vec<u8>, PageId),
}

impl BTree {
    /// The access method's name in reports (`StatsSnapshot::index`).
    pub const NAME: &'static str = "B+-Tree";

    /// Create an empty tree and persist its root in `root_slot`.
    pub fn create(pager: &mut Pager, root_slot: usize) -> Result<BTree> {
        let root = pager.allocate()?;
        pager.with_page_mut(root, |buf| {
            SlottedPage::init(buf, PageType::BTreeLeaf);
        })?;
        pager.set_root(root_slot, Some(root))?;
        Ok(BTree { root, root_slot })
    }

    /// Open the tree persisted in `root_slot`.
    pub fn open(pager: &mut Pager, root_slot: usize) -> Result<BTree> {
        let root = pager.root(root_slot)?.ok_or(StorageError::NotFound)?;
        Ok(BTree { root, root_slot })
    }

    /// Reconstruct a handle from a known root page. The shared read path
    /// uses this: a reader resolves `root_slot` through its own pager view
    /// on every lookup, so a root moved by the writer (split, collapse) is
    /// picked up without reopening.
    fn at_root(root: PageId, root_slot: usize) -> BTree {
        BTree { root, root_slot }
    }

    /// The current root page.
    #[cfg(test)]
    fn root_page(&self) -> PageId {
        self.root
    }

    /// Largest cell this tree accepts for the pager's page size: four
    /// cells must fit a page so splits always terminate.
    pub fn max_cell(pager: &Pager) -> usize {
        (pager.page_size() - PAGE_HEADER_SIZE - 4 * 4) / 4
    }

    fn set_root(&mut self, pager: &mut Pager, root: PageId) -> Result<()> {
        self.root = root;
        pager.set_root(self.root_slot, Some(root))
    }

    // ---- search (mandatory subfeature) ------------------------------------

    /// Look up a key; returns its value if present. Works against any
    /// [`PageRead`] source: the exclusive pager or a shared reader view.
    pub fn get<P: PageRead>(&self, pager: &mut P, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(pager, key, |v| v.to_vec())
    }

    /// Allocation-free lookup: run `f` over the value bytes in place (no
    /// `Vec` clone). Returns `None` without calling `f` when the key is
    /// absent.
    pub fn get_with<P: PageRead, R>(
        &self,
        pager: &mut P,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>> {
        // The descent visits exactly one leaf, so `f` runs at most once;
        // `Option` carries it into the access closure.
        let mut f = Some(f);
        let mut page = self.root;
        loop {
            enum Step<R> {
                Descend(PageId),
                Found(R),
                Missing,
            }
            let step = pager.with_page(page, |buf| {
                let view = PageView::new(buf);
                match view.page_type() {
                    Some(PageType::BTreeInternal) => Step::Descend(descend_child(&view, key).0),
                    Some(PageType::BTreeLeaf) => match search(&view, key) {
                        Ok(i) => {
                            let f = f.take().expect("descent reaches one leaf");
                            Step::Found(f(leaf_value(view.cell_at(i))))
                        }
                        Err(_) => Step::Missing,
                    },
                    other => panic!("page {page} has unexpected type {other:?}"),
                }
            })?;
            match step {
                Step::Descend(child) => page = child,
                Step::Found(v) => return Ok(Some(v)),
                Step::Missing => return Ok(None),
            }
        }
    }

    /// Optimistic lock coupling descent (the shared read path). Resolves
    /// `root_slot` from the meta page and walks parent→child on
    /// page-version checks instead of holding latches level to level:
    /// every visited page yields a [`fame_buffer::PageToken`], and after
    /// a child is read the *parent's* token is re-validated — if a
    /// concurrent split or collapse moved the pointer that was just
    /// chased, the whole descent restarts from the root. Sources without
    /// versioned frames (the exclusive pager, pass-through pools) hand
    /// out always-valid tokens, degrading this to the plain descent of
    /// [`BTree::get_with`].
    pub fn get_olc<P: PageRead, R>(
        pager: &mut P,
        root_slot: usize,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>> {
        use crate::page::NO_PAGE;
        use crate::pager::{OFF_ROOTS, ROOT_SLOTS};
        assert!(root_slot < ROOT_SLOTS, "root slot out of range");

        // Livelock insurance against pathological write churn, not a
        // correctness requirement: past this many restarts the lookup
        // falls back to the latched descent.
        const MAX_RESTARTS: u32 = 64;

        // The descent commits exactly one leaf, so `f` runs at most
        // once; `Option` carries it through restarts into the closure.
        let mut f = Some(f);
        let mut restarts = 0u32;
        loop {
            let at = OFF_ROOTS + 4 * root_slot;
            let (raw, meta_token) = pager.with_page_token(0, |buf| {
                u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
            })?;
            if raw == NO_PAGE {
                return Err(StorageError::NotFound);
            }
            let root: PageId = raw;

            enum Step<R> {
                Descend(PageId),
                Found(R),
                Missing,
                Garbage,
            }
            let mut page = root;
            let mut parent = meta_token;
            loop {
                let (step, token) = pager.with_page_token(page, |buf| {
                    let view = PageView::new(buf);
                    match view.page_type() {
                        Some(PageType::BTreeInternal) => Step::Descend(descend_child(&view, key).0),
                        Some(PageType::BTreeLeaf) => match search(&view, key) {
                            Ok(i) => {
                                let f = f.take().expect("descent commits one leaf");
                                Step::Found(f(leaf_value(view.cell_at(i))))
                            }
                            Err(_) => Step::Missing,
                        },
                        _ => Step::Garbage,
                    }
                })?;
                match step {
                    // The snapshot `f` ran over was validated by the
                    // token protocol, so a hit is a committed value of
                    // this page; no parent re-check can retract it (and
                    // `f`, being `FnOnce`, is already consumed).
                    Step::Found(v) => return Ok(Some(v)),
                    Step::Descend(child) => {
                        // Re-validate the pointer that was just chased:
                        // if the parent changed underneath us, `child`
                        // may name the wrong subtree.
                        if !pager.validate_token(parent) {
                            break;
                        }
                        parent = token;
                        page = child;
                    }
                    Step::Missing => {
                        // "Absent" is only trustworthy if the pointer
                        // that led here was still current.
                        if pager.validate_token(parent) {
                            return Ok(None);
                        }
                        break;
                    }
                    Step::Garbage => {
                        // A stale pointer can legitimately land on a
                        // freed or reused page mid-split; only a stable
                        // parent makes a bad page type real corruption.
                        if pager.validate_token(parent) {
                            panic!("page {page} has unexpected type during descent");
                        }
                        break;
                    }
                }
            }

            restarts += 1;
            if restarts.is_multiple_of(16) {
                std::thread::yield_now();
            }
            if restarts >= MAX_RESTARTS {
                // Give up on optimism: the latched descent below makes
                // progress regardless of writer churn (the pool serves
                // `with_page` under the shard latch when validation
                // keeps failing).
                let f = f.take().expect("fallback runs before any commit");
                return BTree::at_root(root, root_slot).get_with(pager, key, f);
            }
        }
    }

    /// Does the key exist?
    pub fn contains<P: PageRead>(&self, pager: &mut P, key: &[u8]) -> Result<bool> {
        Ok(self.get_with(pager, key, |_| ())?.is_some())
    }

    /// Number of entries (walks every leaf).
    pub fn len<P: PageRead>(&self, pager: &mut P) -> Result<usize> {
        let mut page = self.leftmost_leaf(pager)?;
        let mut n = 0;
        loop {
            let (count, next) = pager.with_page(page, |buf| {
                let v = PageView::new(buf);
                (v.slot_count(), v.next_page())
            })?;
            n += count;
            match next {
                Some(p) => page = p,
                None => return Ok(n),
            }
        }
    }

    /// `true` when the tree holds no entries.
    pub fn is_empty<P: PageRead>(&self, pager: &mut P) -> Result<bool> {
        Ok(self.len(pager)? == 0)
    }

    fn leftmost_leaf<P: PageRead>(&self, pager: &mut P) -> Result<PageId> {
        let mut page = self.root;
        loop {
            let next = pager.with_page(page, |buf| {
                let view = PageView::new(buf);
                match view.page_type() {
                    Some(PageType::BTreeInternal) => Some(view.aux().expect("leftmost child")),
                    _ => None,
                }
            })?;
            match next {
                Some(p) => page = p,
                None => return Ok(page),
            }
        }
    }

    // ---- insert/update (subfeatures BTreeUpdate) ----------------------------

    /// Insert or overwrite (`put` semantics). Returns `true` when the key
    /// was new.
    pub fn insert(&mut self, pager: &mut Pager, key: &[u8], value: &[u8]) -> Result<bool> {
        self.put(pager, key, value, true)
    }

    /// Insert a key that is absent. A present key is refused: `false`, and
    /// no page is written — one descent where `contains` + `insert` take two.
    pub fn insert_new(&mut self, pager: &mut Pager, key: &[u8], value: &[u8]) -> Result<bool> {
        self.put(pager, key, value, false)
    }

    fn put(
        &mut self,
        pager: &mut Pager,
        key: &[u8],
        value: &[u8],
        overwrite: bool,
    ) -> Result<bool> {
        let cell = leaf_cell(key, value);
        if cell.len() > Self::max_cell(pager) {
            return Err(StorageError::RecordTooLarge {
                size: cell.len(),
                max: Self::max_cell(pager),
            });
        }
        let (ins, was_new) = self.insert_rec(pager, self.root, key, value, overwrite)?;
        if let Ins::Split(sep, right) = ins {
            // Grow the tree: new internal root.
            let new_root = pager.allocate()?;
            let old_root = self.root;
            pager.with_page_mut(new_root, |buf| {
                let mut p = SlottedPage::init(buf, PageType::BTreeInternal);
                p.set_aux(Some(old_root));
                let ok = p.insert_at(0, &int_cell(&sep, right));
                debug_assert!(ok, "fresh root holds one separator");
            })?;
            self.set_root(pager, new_root)?;
        }
        Ok(was_new)
    }

    fn insert_rec(
        &mut self,
        pager: &mut Pager,
        page: PageId,
        key: &[u8],
        value: &[u8],
        overwrite: bool,
    ) -> Result<(Ins, bool)> {
        let (is_leaf, refused) = pager.with_page(page, |buf| {
            let view = PageView::new(buf);
            let leaf = view.page_type() == Some(PageType::BTreeLeaf);
            (leaf, leaf && !overwrite && search(&view, key).is_ok())
        })?;

        if refused {
            return Ok((Ins::Fit, false));
        }
        if is_leaf {
            return self.leaf_insert(pager, page, key, value);
        }

        let (child, _) = pager.with_page(page, |buf| descend_child(&PageView::new(buf), key))?;
        let (ins, was_new) = self.insert_rec(pager, child, key, value, overwrite)?;
        let Ins::Split(sep, right) = ins else {
            return Ok((Ins::Fit, was_new));
        };

        // Add the separator to this internal node.
        let cell = int_cell(&sep, right);
        let fit = pager.with_page_mut(page, |buf| {
            let mut p = SlottedPage::new(buf);
            let idx = match search(&p.view(), &sep) {
                Ok(i) => i, // cannot happen with unique separators
                Err(i) => i,
            };
            p.insert_at(idx, &cell)
        })?;
        if fit {
            return Ok((Ins::Fit, was_new));
        }
        let split = self.split_internal(pager, page, &sep, right)?;
        Ok((split, was_new))
    }

    fn leaf_insert(
        &mut self,
        pager: &mut Pager,
        page: PageId,
        key: &[u8],
        value: &[u8],
    ) -> Result<(Ins, bool)> {
        let cell = leaf_cell(key, value);
        enum Outcome {
            Fit(bool),
            NeedsSplit(bool),
        }
        let outcome = pager.with_page_mut(page, |buf| {
            let mut p = SlottedPage::new(buf);
            match search(&p.view(), key) {
                Ok(i) => {
                    // Overwrite. update_at reclaims the old cell on growth;
                    // if even that fails the leaf must split.
                    if p.update_at(i, &cell) {
                        Outcome::Fit(false)
                    } else {
                        Outcome::NeedsSplit(false)
                    }
                }
                Err(i) => {
                    if p.insert_at(i, &cell) {
                        Outcome::Fit(true)
                    } else {
                        Outcome::NeedsSplit(true)
                    }
                }
            }
        })?;

        match outcome {
            Outcome::Fit(was_new) => Ok((Ins::Fit, was_new)),
            Outcome::NeedsSplit(was_new) => {
                let split = self.split_leaf(pager, page, key, value)?;
                Ok((split, was_new))
            }
        }
    }

    /// Split a full leaf while inserting `(key, value)`.
    fn split_leaf(
        &mut self,
        pager: &mut Pager,
        page: PageId,
        key: &[u8],
        value: &[u8],
    ) -> Result<Ins> {
        // Materialize all cells plus the new one, in order. The failed
        // update/insert left the key absent (update_at removes on failure),
        // so a plain sorted insert is correct for both paths.
        let (mut cells, next) = pager.with_page(page, |buf| {
            let v = PageView::new(buf);
            let cells: Vec<Vec<u8>> = (0..v.slot_count()).map(|i| v.cell_at(i).to_vec()).collect();
            (cells, v.next_page())
        })?;
        let pos = cells
            .binary_search_by(|c| cell_key(c).cmp(key))
            .unwrap_or_else(|e| e);
        debug_assert!(
            cells.get(pos).map(|c| cell_key(c) != key).unwrap_or(true),
            "key must be absent before split-insert"
        );
        cells.insert(pos, leaf_cell(key, value));

        let split_at = split_point(&cells);
        let right_cells = cells.split_off(split_at);
        let sep = cell_key(&right_cells[0]).to_vec();

        let right = pager.allocate()?;
        pager.with_page_mut(right, |buf| {
            let mut p = SlottedPage::init(buf, PageType::BTreeLeaf);
            write_cells(&mut p, &right_cells);
            p.set_next_page(next);
        })?;
        pager.with_page_mut(page, |buf| {
            let mut p = SlottedPage::init(buf, PageType::BTreeLeaf);
            write_cells(&mut p, &cells);
            p.set_next_page(Some(right));
        })?;
        Ok(Ins::Split(sep, right))
    }

    /// Split a full internal node while adding `(sep_new, right_new)`.
    fn split_internal(
        &mut self,
        pager: &mut Pager,
        page: PageId,
        sep_new: &[u8],
        right_new: PageId,
    ) -> Result<Ins> {
        let (mut cells, leftmost) = pager.with_page(page, |buf| {
            let v = PageView::new(buf);
            let cells: Vec<Vec<u8>> = (0..v.slot_count()).map(|i| v.cell_at(i).to_vec()).collect();
            (cells, v.aux())
        })?;
        let pos = cells
            .binary_search_by(|c| cell_key(c).cmp(sep_new))
            .unwrap_or_else(|e| e);
        cells.insert(pos, int_cell(sep_new, right_new));

        let mid = split_point(&cells).clamp(1, cells.len() - 1);
        let mut right_cells = cells.split_off(mid);
        let promoted = right_cells.remove(0);
        let promoted_key = cell_key(&promoted).to_vec();
        let right_leftmost = int_child(&promoted);

        let right = pager.allocate()?;
        pager.with_page_mut(right, |buf| {
            let mut p = SlottedPage::init(buf, PageType::BTreeInternal);
            p.set_aux(Some(right_leftmost));
            write_cells(&mut p, &right_cells);
        })?;
        pager.with_page_mut(page, |buf| {
            let mut p = SlottedPage::init(buf, PageType::BTreeInternal);
            p.set_aux(leftmost);
            write_cells(&mut p, &cells);
        })?;
        Ok(Ins::Split(promoted_key, right))
    }

    // ---- batched writes (subfeature Batch) ----------------------------------

    /// Apply a batch of writes (`Some(value)` = put, `None` = remove) as
    /// one sorted run. Ops are stably sorted by key and deduplicated
    /// last-wins, then applied in ascending order with a right-edge
    /// descent cursor: the root-to-leaf path (with each subtree's upper
    /// separator bound) is cached, and the next key re-descends only from
    /// the deepest cached node still covering it instead of from the
    /// root. Every page mutation goes through the same primitives as
    /// [`BTree::insert`] / [`BTree::remove`], so the resulting tree is
    /// byte-identical to applying the sorted run one at a time.
    ///
    /// Returns the number of keys that were newly created.
    pub fn apply_sorted(
        &mut self,
        pager: &mut Pager,
        mut ops: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    ) -> Result<usize> {
        // Validate sizes up front so the batch fails before any mutation.
        let max = Self::max_cell(pager);
        for (key, value) in &ops {
            if let Some(value) = value {
                let size = 2 + key.len() + value.len();
                if size > max {
                    return Err(StorageError::RecordTooLarge { size, max });
                }
            }
        }
        ops.sort_by(|a, b| a.0.cmp(&b.0)); // stable: last op per key stays last
        ops.dedup_by(|next, prev| {
            if next.0 == prev.0 {
                // `dedup_by` drops `next` (the later element) — keep its
                // op by moving it into the surviving earlier slot.
                prev.1 = next.1.take();
                true
            } else {
                false
            }
        });

        /// One level of the cached descent: a page and the upper
        /// separator bound of its subtree (`None` = unbounded right edge).
        struct PathEntry {
            page: PageId,
            upper: Option<Vec<u8>>,
        }

        let mut path: Vec<PathEntry> = Vec::new();
        let mut new_keys = 0usize;
        for (key, op) in ops {
            let Some(value) = op else {
                // Removes can merge and collapse nodes; the cached path
                // cannot survive that, so take the plain descent.
                path.clear();
                self.remove(pager, &key)?;
                continue;
            };

            // Pop levels whose subtree ends at or before `key`; what
            // remains still covers it (keys ascend, so we never need to
            // move left).
            while path
                .last()
                .is_some_and(|e| e.upper.as_deref().is_some_and(|u| key.as_slice() >= u))
            {
                path.pop();
            }
            if path.is_empty() {
                path.push(PathEntry {
                    page: self.root,
                    upper: None,
                });
            }

            // Descend from the deepest still-valid node to the leaf.
            loop {
                let top = path.last().expect("path holds at least the root");
                let page = top.page;
                let inherited = top.upper.clone();
                let step = pager.with_page(page, |buf| {
                    let view = PageView::new(buf);
                    if view.page_type() != Some(PageType::BTreeInternal) {
                        return None;
                    }
                    let (child, idx) = descend_child(&view, &key);
                    // The child's upper bound is the next separator; the
                    // last child inherits this node's bound.
                    let upper = match idx {
                        None if view.slot_count() > 0 => Some(cell_key(view.cell_at(0)).to_vec()),
                        Some(i) if i + 1 < view.slot_count() => {
                            Some(cell_key(view.cell_at(i + 1)).to_vec())
                        }
                        _ => None,
                    };
                    Some((child, upper))
                })?;
                match step {
                    Some((child, upper)) => path.push(PathEntry {
                        page: child,
                        upper: upper.or(inherited),
                    }),
                    None => break,
                }
            }

            let leaf = path.last().expect("descent ends at a leaf").page;
            let (mut ins, was_new) = self.leaf_insert(pager, leaf, &key, &value)?;
            if was_new {
                new_keys += 1;
            }

            // Propagate splits up the cached path — the same unwinding
            // `insert_rec` performs, acting on the identical ancestors.
            let had_split = matches!(ins, Ins::Split(..));
            let mut level = path.len() - 1;
            while let Ins::Split(sep, right) = ins {
                if level == 0 {
                    // Split reached the root: grow the tree.
                    let new_root = pager.allocate()?;
                    let old_root = self.root;
                    pager.with_page_mut(new_root, |buf| {
                        let mut p = SlottedPage::init(buf, PageType::BTreeInternal);
                        p.set_aux(Some(old_root));
                        let ok = p.insert_at(0, &int_cell(&sep, right));
                        debug_assert!(ok, "fresh root holds one separator");
                    })?;
                    self.set_root(pager, new_root)?;
                    ins = Ins::Fit;
                    break;
                }
                level -= 1;
                let parent = path[level].page;
                let cell = int_cell(&sep, right);
                let fit = pager.with_page_mut(parent, |buf| {
                    let mut p = SlottedPage::new(buf);
                    let idx = match search(&p.view(), &sep) {
                        Ok(i) => i, // cannot happen with unique separators
                        Err(i) => i,
                    };
                    p.insert_at(idx, &cell)
                })?;
                ins = if fit {
                    Ins::Fit
                } else {
                    self.split_internal(pager, parent, &sep, right)?
                };
            }
            let _ = ins;
            if had_split {
                // Splits restructured nodes and bounds along the descent;
                // rebuild the path from the root for the next key.
                path.clear();
            }
        }
        Ok(new_keys)
    }

    // ---- remove (subfeature BTreeRemove) ------------------------------------

    /// Remove a key. Returns `true` if it existed.
    pub fn remove(&mut self, pager: &mut Pager, key: &[u8]) -> Result<bool> {
        let removed = self.remove_rec(pager, self.root, key)?;
        // Root collapse: an internal root with no separators has exactly
        // one child, which becomes the new root.
        let collapse = pager.with_page(self.root, |buf| {
            let v = PageView::new(buf);
            if v.page_type() == Some(PageType::BTreeInternal) && v.slot_count() == 0 {
                Some(v.aux().expect("leftmost child"))
            } else {
                None
            }
        })?;
        if let Some(child) = collapse {
            let old = self.root;
            self.set_root(pager, child)?;
            pager.free(old)?;
        }
        Ok(removed)
    }

    fn remove_rec(&mut self, pager: &mut Pager, page: PageId, key: &[u8]) -> Result<bool> {
        let is_leaf = pager.with_page(page, |buf| {
            PageView::new(buf).page_type() == Some(PageType::BTreeLeaf)
        })?;
        if is_leaf {
            return pager.with_page_mut(page, |buf| {
                let mut p = SlottedPage::new(buf);
                match search(&p.view(), key) {
                    Ok(i) => {
                        p.remove_at(i);
                        true
                    }
                    Err(_) => false,
                }
            });
        }

        let (child, child_cell) =
            pager.with_page(page, |buf| descend_child(&PageView::new(buf), key))?;
        let removed = self.remove_rec(pager, child, key)?;
        if removed {
            self.maybe_merge_child(pager, page, child, child_cell)?;
        }
        Ok(removed)
    }

    /// If `child` is under-full, merge it with a same-parent neighbor when
    /// the combined cells fit in one page.
    fn maybe_merge_child(
        &mut self,
        pager: &mut Pager,
        parent: PageId,
        child: PageId,
        child_cell: Option<usize>,
    ) -> Result<()> {
        let page_size = pager.page_size();
        let (child_used, child_is_leaf) = pager.with_page(child, |buf| {
            let v = PageView::new(buf);
            (
                page_size - v.total_free() - PAGE_HEADER_SIZE,
                v.page_type() == Some(PageType::BTreeLeaf),
            )
        })?;
        if child_used >= page_size / UNDERFLOW_DIVISOR {
            return Ok(());
        }

        // Locate the neighbor to the right within the same parent; if the
        // child is the parent's last child, use the left neighbor instead.
        let n_cells = pager.with_page(parent, |buf| PageView::new(buf).slot_count())?;
        let right_cell_idx = match child_cell {
            None => 0, // leftmost child: right neighbor = cell 0
            Some(i) if i + 1 < n_cells => i + 1,
            Some(i) if i > 0 || n_cells > 0 => i, // child is last: merge left neighbor into it
            _ => return Ok(()),                   // only child; nothing to merge with
        };
        if n_cells == 0 {
            return Ok(());
        }

        // Normalize to (left, right, separator cell index) where both are
        // adjacent children of `parent` and `right` is referenced by
        // parent cell `right_cell_idx`.
        let (left, right) = {
            let right_child = pager.with_page(parent, |buf| {
                int_child(PageView::new(buf).cell_at(right_cell_idx))
            })?;
            if right_child == child {
                // Merging the left neighbor into `child`.
                let left_page = pager.with_page(parent, |buf| {
                    let v = PageView::new(buf);
                    if right_cell_idx == 0 {
                        v.aux().expect("leftmost child")
                    } else {
                        int_child(v.cell_at(right_cell_idx - 1))
                    }
                })?;
                (left_page, child)
            } else {
                (child, right_child)
            }
        };

        // Check fit.
        let left_used = pager.with_page(left, |buf| {
            let v = PageView::new(buf);
            page_size - v.total_free() - PAGE_HEADER_SIZE
        })?;
        let right_used = pager.with_page(right, |buf| {
            let v = PageView::new(buf);
            page_size - v.total_free() - PAGE_HEADER_SIZE
        })?;
        let sep_cell_len = pager.with_page(parent, |buf| {
            PageView::new(buf).cell_at(right_cell_idx).len() + 4
        })?;
        let budget = page_size - PAGE_HEADER_SIZE;
        let needed = if child_is_leaf {
            left_used + right_used
        } else {
            left_used + right_used + sep_cell_len
        };
        if needed > budget {
            return Ok(());
        }

        // Perform the merge into `left`.
        let (right_cells, right_next, right_leftmost) = pager.with_page(right, |buf| {
            let v = PageView::new(buf);
            let cells: Vec<Vec<u8>> = (0..v.slot_count()).map(|i| v.cell_at(i).to_vec()).collect();
            (cells, v.next_page(), v.aux())
        })?;
        let sep_key = pager.with_page(parent, |buf| {
            cell_key(PageView::new(buf).cell_at(right_cell_idx)).to_vec()
        })?;

        pager.with_page_mut(left, |buf| {
            let mut p = SlottedPage::new(buf);
            let mut idx = p.slot_count();
            if !child_is_leaf {
                // Pull the separator down, pointing at right's leftmost.
                let ok = p.insert_at(
                    idx,
                    &int_cell(&sep_key, right_leftmost.expect("internal leftmost")),
                );
                debug_assert!(ok, "fit checked above");
                idx += 1;
            }
            for c in &right_cells {
                let ok = p.insert_at(idx, c);
                debug_assert!(ok, "fit checked above");
                idx += 1;
            }
            if child_is_leaf {
                p.set_next_page(right_next);
            }
        })?;
        pager.with_page_mut(parent, |buf| {
            SlottedPage::new(buf).remove_at(right_cell_idx);
        })?;
        pager.free(right)?;
        Ok(())
    }

    // ---- range scans ---------------------------------------------------------

    /// Open a cursor at the first key `>= start` (or the smallest key when
    /// `start` is `None`).
    pub fn cursor<P: PageRead>(&self, pager: &mut P, start: Option<&[u8]>) -> Result<Cursor> {
        let mut page = self.root;
        loop {
            let step = pager.with_page(page, |buf| {
                let view = PageView::new(buf);
                match view.page_type() {
                    Some(PageType::BTreeInternal) => match start {
                        Some(k) => Err(descend_child(&view, k).0),
                        None => Err(view.aux().expect("leftmost child")),
                    },
                    _ => Ok(match start {
                        Some(k) => match search(&view, k) {
                            Ok(i) => i,
                            Err(i) => i,
                        },
                        None => 0,
                    }),
                }
            })?;
            match step {
                Err(child) => page = child,
                Ok(idx) => return Ok(Cursor { page, idx }),
            }
        }
    }

    /// Collect all `(key, value)` pairs with `start <= key < end` (open
    /// bounds when `None`).
    pub fn scan<P: PageRead>(
        &self,
        pager: &mut P,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan_with(pager, start, end, |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            Ok::<_, StorageError>(())
        })?;
        Ok(out)
    }

    /// Visit every `(key, value)` with `start <= key < end` (open bounds
    /// when `None`) in key order, by reference: one page access per leaf,
    /// nothing copied. The first error `f` returns ends the walk and is
    /// returned.
    pub fn scan_with<P: PageRead, E: From<StorageError>>(
        &self,
        pager: &mut P,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
        mut f: impl FnMut(&[u8], &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let Cursor { mut page, mut idx } = self.cursor(pager, start)?;
        loop {
            let next = pager.with_page(page, |buf| -> std::result::Result<_, E> {
                let v = PageView::new(buf);
                for i in idx..v.slot_count() {
                    let cell = v.cell_at(i);
                    let key = cell_key(cell);
                    if end.is_some_and(|e| key >= e) {
                        return Ok(None);
                    }
                    f(key, leaf_value(cell))?;
                }
                Ok(v.next_page())
            })??;
            match next {
                Some(p) => (page, idx) = (p, 0),
                None => return Ok(()),
            }
        }
    }
}

/// A resumable position in the leaf chain. The cursor does not borrow the
/// pager; pass it to [`Cursor::next`] on every step.
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    page: PageId,
    idx: usize,
}

impl Cursor {
    /// Advance: returns the next `(key, value)` or `None` at the end.
    ///
    /// The cursor is stable under concurrent *reads*; interleaved writes to
    /// the same tree invalidate it (single-writer engine).
    pub fn next<P: PageRead>(&mut self, pager: &mut P) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        loop {
            let (item, next_page) = pager.with_page(self.page, |buf| {
                let v = PageView::new(buf);
                if self.idx < v.slot_count() {
                    let cell = v.cell_at(self.idx);
                    (
                        Some((cell_key(cell).to_vec(), leaf_value(cell).to_vec())),
                        None,
                    )
                } else {
                    (None, v.next_page())
                }
            })?;
            match item {
                Some(kv) => {
                    self.idx += 1;
                    return Ok(Some(kv));
                }
                None => match next_page {
                    Some(p) => {
                        self.page = p;
                        self.idx = 0;
                    }
                    None => return Ok(None),
                },
            }
        }
    }
}

/// Index at which to split a cell list so both halves are roughly equal in
/// bytes. Guarantees both halves are non-empty for lists of length >= 2.
fn split_point(cells: &[Vec<u8>]) -> usize {
    let total: usize = cells.iter().map(|c| c.len() + 4).sum();
    let mut acc = 0;
    for (i, c) in cells.iter().enumerate() {
        acc += c.len() + 4;
        if acc >= total / 2 {
            return (i + 1).clamp(1, cells.len() - 1);
        }
    }
    cells.len() / 2
}

fn write_cells(p: &mut SlottedPage<'_>, cells: &[Vec<u8>]) {
    for (i, c) in cells.iter().enumerate() {
        let ok = p.insert_at(i, c);
        debug_assert!(ok, "redistributed cells must fit");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fame_buffer::{BufferPool, ReplacementKind};
    use fame_os::{AllocPolicy, InMemoryDevice};

    fn pager(page_size: usize) -> Pager {
        let dev = InMemoryDevice::new(page_size);
        let pool = BufferPool::new(
            Box::new(dev),
            ReplacementKind::Lru,
            AllocPolicy::Dynamic {
                max_frames: Some(64),
            },
        );
        Pager::open(pool).unwrap()
    }

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key{i:08}").into_bytes(),
            format!("value-{i}").into_bytes(),
        )
    }

    #[test]
    fn empty_tree_lookups() {
        let mut pg = pager(256);
        let t = BTree::create(&mut pg, 0).unwrap();
        assert_eq!(t.get(&mut pg, b"nope").unwrap(), None);
        assert!(t.is_empty(&mut pg).unwrap());
    }

    #[test]
    fn insert_new_refuses_a_present_key_without_writing() {
        let mut pg = pager(256);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        for i in 0..200 {
            let (k, v) = kv(i);
            assert!(t.insert_new(&mut pg, &k, &v).unwrap(), "{i} is new");
        }
        pg.sync().unwrap();
        let writes = pg.pool().device_stats().writes;
        for i in (0..200).step_by(7) {
            let (k, _) = kv(i);
            assert!(
                !t.insert_new(&mut pg, &k, b"other").unwrap(),
                "{i} is present"
            );
        }
        pg.sync().unwrap();
        assert_eq!(
            pg.pool().device_stats().writes,
            writes,
            "a refusal writes no page"
        );
        for i in 0..200 {
            let (k, v) = kv(i);
            assert_eq!(t.get(&mut pg, &k).unwrap(), Some(v));
        }
    }

    #[test]
    fn insert_get_single_page() {
        let mut pg = pager(512);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        assert!(t.insert(&mut pg, b"b", b"2").unwrap());
        assert!(t.insert(&mut pg, b"a", b"1").unwrap());
        assert!(t.insert(&mut pg, b"c", b"3").unwrap());
        assert_eq!(t.get(&mut pg, b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(&mut pg, b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(t.get(&mut pg, b"c").unwrap(), Some(b"3".to_vec()));
        assert_eq!(t.len(&mut pg).unwrap(), 3);
    }

    #[test]
    fn upsert_overwrites() {
        let mut pg = pager(512);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        assert!(t.insert(&mut pg, b"k", b"old").unwrap());
        assert!(!t.insert(&mut pg, b"k", b"new-longer-value").unwrap());
        assert_eq!(
            t.get(&mut pg, b"k").unwrap(),
            Some(b"new-longer-value".to_vec())
        );
        assert_eq!(t.len(&mut pg).unwrap(), 1);
    }

    #[test]
    fn splits_preserve_all_keys() {
        let mut pg = pager(256);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        let n = 500;
        for i in 0..n {
            let (k, v) = kv(i);
            t.insert(&mut pg, &k, &v).unwrap();
        }
        assert_eq!(t.len(&mut pg).unwrap(), n as usize);
        for i in 0..n {
            let (k, v) = kv(i);
            assert_eq!(t.get(&mut pg, &k).unwrap(), Some(v), "key {i}");
        }
        assert_eq!(crate::check_pager(&mut pg).unwrap().violations, []);
        // The tree grew beyond the root.
        assert_ne!(t.root_page(), 1);
    }

    #[test]
    fn reverse_insertion_order() {
        let mut pg = pager(256);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        for i in (0..300).rev() {
            let (k, v) = kv(i);
            t.insert(&mut pg, &k, &v).unwrap();
        }
        assert_eq!(crate::check_pager(&mut pg).unwrap().violations, []);
        let all = t.scan(&mut pg, None, None).unwrap();
        assert_eq!(all.len(), 300);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted scan");
    }

    #[test]
    fn remove_from_single_leaf() {
        let mut pg = pager(512);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        t.insert(&mut pg, b"a", b"1").unwrap();
        t.insert(&mut pg, b"b", b"2").unwrap();
        assert!(t.remove(&mut pg, b"a").unwrap());
        assert!(!t.remove(&mut pg, b"a").unwrap(), "double remove");
        assert_eq!(t.get(&mut pg, b"a").unwrap(), None);
        assert_eq!(t.get(&mut pg, b"b").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn remove_everything_collapses_tree() {
        let mut pg = pager(256);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        let n = 400;
        for i in 0..n {
            let (k, v) = kv(i);
            t.insert(&mut pg, &k, &v).unwrap();
        }
        for i in 0..n {
            let (k, _) = kv(i);
            assert!(t.remove(&mut pg, &k).unwrap(), "remove {i}");
            if i % 37 == 0 {
                assert_eq!(crate::check_pager(&mut pg).unwrap().violations, []);
            }
        }
        assert!(t.is_empty(&mut pg).unwrap());
        assert_eq!(crate::check_pager(&mut pg).unwrap().violations, []);
    }

    #[test]
    fn interleaved_insert_remove() {
        let mut pg = pager(256);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        use std::collections::BTreeMap;
        let mut model = BTreeMap::new();
        // Deterministic pseudo-random workload.
        let mut x: u64 = 0x2545F4914F6CDD1D;
        for step in 0..3000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = format!("k{:04}", x % 500).into_bytes();
            if x.is_multiple_of(3) {
                let removed = t.remove(&mut pg, &key).unwrap();
                assert_eq!(removed, model.remove(&key).is_some(), "step {step}");
            } else {
                let val = format!("v{step}").into_bytes();
                let was_new = t.insert(&mut pg, &key, &val).unwrap();
                assert_eq!(was_new, model.insert(key, val).is_none(), "step {step}");
            }
        }
        assert_eq!(t.len(&mut pg).unwrap(), model.len());
        for (k, v) in &model {
            assert_eq!(t.get(&mut pg, k).unwrap().as_ref(), Some(v));
        }
        assert_eq!(crate::check_pager(&mut pg).unwrap().violations, []);
    }

    #[test]
    fn scan_ranges() {
        let mut pg = pager(256);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        for i in 0..100 {
            let (k, v) = kv(i);
            t.insert(&mut pg, &k, &v).unwrap();
        }
        let (k10, _) = kv(10);
        let (k20, _) = kv(20);
        let range = t.scan(&mut pg, Some(&k10), Some(&k20)).unwrap();
        assert_eq!(range.len(), 10);
        assert_eq!(range[0].0, k10);
        let from = t.scan(&mut pg, Some(&kv(95).0), None).unwrap();
        assert_eq!(from.len(), 5);
        let upto = t.scan(&mut pg, None, Some(&kv(5).0)).unwrap();
        assert_eq!(upto.len(), 5);
    }

    #[test]
    fn scan_with_matches_the_cursor_and_stops_on_error() {
        let mut pg = pager(256);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        for i in 0..300 {
            let (k, v) = kv(i);
            t.insert(&mut pg, &k, &v).unwrap();
        }
        let mut cur = t.cursor(&mut pg, Some(&kv(7).0)).unwrap();
        let mut want = Vec::new();
        while let Some(item) = cur.next(&mut pg).unwrap() {
            want.push(item);
        }
        assert_eq!(t.scan(&mut pg, Some(&kv(7).0), None).unwrap(), want);

        // The walk crosses leaves; an error from the visitor ends it there.
        let mut seen = 0;
        let err = t
            .scan_with(&mut pg, None, None, |_, _| {
                seen += 1;
                if seen == 150 {
                    return Err(StorageError::NotFound);
                }
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::NotFound));
        assert_eq!(seen, 150);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut pg = pager(256);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        let big = vec![0u8; 300];
        assert!(matches!(
            t.insert(&mut pg, b"k", &big),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn reopen_from_root_slot() {
        let mut pg = pager(256);
        let mut t = BTree::create(&mut pg, 2).unwrap();
        for i in 0..200 {
            let (k, v) = kv(i);
            t.insert(&mut pg, &k, &v).unwrap();
        }
        // Note: after splits the root slot tracks the current root.
        let t2 = BTree::open(&mut pg, 2).unwrap();
        assert_eq!(t2.root_page(), t.root_page());
        assert_eq!(t2.get(&mut pg, &kv(123).0).unwrap(), Some(kv(123).1));
    }

    #[test]
    fn values_of_varying_sizes() {
        let mut pg = pager(512);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        for i in 0..100u32 {
            let k = i.to_be_bytes();
            let v = vec![i as u8; (i as usize * 7) % 90];
            t.insert(&mut pg, &k, &v).unwrap();
        }
        for i in 0..100u32 {
            let k = i.to_be_bytes();
            let v = vec![i as u8; (i as usize * 7) % 90];
            assert_eq!(t.get(&mut pg, &k).unwrap(), Some(v));
        }
        assert_eq!(crate::check_pager(&mut pg).unwrap().violations, []);
    }

    #[test]
    fn cursor_streams_incrementally() {
        let mut pg = pager(256);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        for i in 0..50u32 {
            t.insert(&mut pg, &i.to_be_bytes(), &[i as u8]).unwrap();
        }
        // A cursor can be advanced one step at a time, interleaved with
        // unrelated reads, without materializing the whole result.
        let mut cur = t.cursor(&mut pg, Some(&10u32.to_be_bytes())).unwrap();
        let mut seen = Vec::new();
        while let Some((k, _)) = cur.next(&mut pg).unwrap() {
            let id = u32::from_be_bytes(k[..4].try_into().unwrap());
            seen.push(id);
            // Interleaved read through the same pager.
            let _ = t.get(&mut pg, &0u32.to_be_bytes()).unwrap();
            if seen.len() == 5 {
                break;
            }
        }
        assert_eq!(seen, [10, 11, 12, 13, 14]);
        // The cursor can resume after the break.
        assert_eq!(
            cur.next(&mut pg).unwrap().map(|(k, _)| k),
            Some(15u32.to_be_bytes().to_vec())
        );
    }

    #[test]
    fn cursor_on_empty_tree() {
        let mut pg = pager(256);
        let t = BTree::create(&mut pg, 0).unwrap();
        let mut cur = t.cursor(&mut pg, None).unwrap();
        assert_eq!(cur.next(&mut pg).unwrap(), None);
        assert_eq!(cur.next(&mut pg).unwrap(), None, "stays exhausted");
    }

    #[test]
    fn binary_keys_sort_bytewise() {
        let mut pg = pager(512);
        let mut t = BTree::create(&mut pg, 0).unwrap();
        // u32 big-endian keys sort numerically.
        for i in [5u32, 1, 9, 3, 7] {
            t.insert(&mut pg, &i.to_be_bytes(), b"x").unwrap();
        }
        let all = t.scan(&mut pg, None, None).unwrap();
        let keys: Vec<u32> = all
            .iter()
            .map(|(k, _)| u32::from_be_bytes(k[..4].try_into().unwrap()))
            .collect();
        assert_eq!(keys, [1, 3, 5, 7, 9]);
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::*;
    use fame_buffer::{BufferPool, ReplacementKind};
    use fame_os::{AllocPolicy, InMemoryDevice};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn pager() -> Pager {
        let dev = InMemoryDevice::new(256);
        let pool = BufferPool::new(
            Box::new(dev),
            ReplacementKind::Lru,
            AllocPolicy::Dynamic {
                max_frames: Some(32),
            },
        );
        Pager::open(pool).unwrap()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>, Vec<u8>),
        Remove(Vec<u8>),
        Get(Vec<u8>),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let key = prop::collection::vec(any::<u8>(), 1..12);
        let val = prop::collection::vec(any::<u8>(), 0..24);
        prop_oneof![
            (key.clone(), val).prop_map(|(k, v)| Op::Insert(k, v)),
            key.clone().prop_map(Op::Remove),
            key.prop_map(Op::Get),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The B+-tree behaves exactly like `BTreeMap<Vec<u8>, Vec<u8>>`.
        #[test]
        fn behaves_like_btreemap(ops in prop::collection::vec(op_strategy(), 1..200)) {
            let mut pg = pager();
            let mut tree = BTree::create(&mut pg, 0).unwrap();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        let was_new = tree.insert(&mut pg, &k, &v).unwrap();
                        prop_assert_eq!(was_new, model.insert(k, v).is_none());
                    }
                    Op::Remove(k) => {
                        let removed = tree.remove(&mut pg, &k).unwrap();
                        prop_assert_eq!(removed, model.remove(&k).is_some());
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(tree.get(&mut pg, &k).unwrap(), model.get(&k).cloned());
                    }
                }
            }
            // Full-scan equivalence and structural invariants at the end.
            let scanned = tree.scan(&mut pg, None, None).unwrap();
            let expected: Vec<(Vec<u8>, Vec<u8>)> =
                model.into_iter().collect();
            prop_assert_eq!(scanned, expected);
            assert_eq!(crate::check_pager(&mut pg).unwrap().violations, []);
        }

        /// `apply_sorted` over a random op sequence produces a tree that
        /// is byte-identical (page for page) to applying the same sorted,
        /// deduplicated run one at a time, and whose contents match
        /// last-wins semantics over the original sequence.
        #[test]
        fn apply_sorted_is_byte_identical_to_loop(
            ops in prop::collection::vec(batch_op_strategy(), 1..150)
        ) {
            let mut pg_batch = pager();
            let mut t_batch = BTree::create(&mut pg_batch, 0).unwrap();
            t_batch.apply_sorted(&mut pg_batch, ops.clone()).unwrap();

            let mut pg_loop = pager();
            let mut t_loop = BTree::create(&mut pg_loop, 0).unwrap();
            for (k, op) in sort_dedup(ops.clone()) {
                match op {
                    Some(v) => { t_loop.insert(&mut pg_loop, &k, &v).unwrap(); }
                    None => { t_loop.remove(&mut pg_loop, &k).unwrap(); }
                }
            }

            prop_assert_eq!(t_batch.root_page(), t_loop.root_page());
            let pages = pg_batch.allocated_pages().unwrap();
            prop_assert_eq!(pages, pg_loop.allocated_pages().unwrap());
            for p in 0..pages {
                let a = pg_batch.with_page(p, |b| b.to_vec()).unwrap();
                let b = pg_loop.with_page(p, |b| b.to_vec()).unwrap();
                prop_assert!(a == b, "page {} differs", p);
            }
            assert_eq!(crate::check_pager(&mut pg_batch).unwrap().violations, []);

            // Last-wins semantics over the original order.
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for (k, op) in ops {
                match op {
                    Some(v) => { model.insert(k, v); }
                    None => { model.remove(&k); }
                }
            }
            let scanned = t_batch.scan(&mut pg_batch, None, None).unwrap();
            prop_assert_eq!(scanned, model.into_iter().collect::<Vec<_>>());
        }
    }

    /// Op shape shared by the batch-equivalence tests: puts and removes
    /// over a small key space so updates, splits and merges all occur.
    pub(crate) fn batch_op_strategy() -> impl Strategy<Value = (Vec<u8>, Option<Vec<u8>>)> {
        let key = prop::collection::vec(any::<u8>(), 1..10);
        let val = prop::option::of(prop::collection::vec(any::<u8>(), 0..24));
        (key, val)
    }

    /// The exact normalization `apply_sorted` performs:
    /// stable sort by key, deduplicate last-wins.
    pub(crate) fn sort_dedup(
        mut ops: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    ) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        ops.sort_by(|a, b| a.0.cmp(&b.0));
        ops.dedup_by(|next, prev| {
            if next.0 == prev.0 {
                prev.1 = next.1.take();
                true
            } else {
                false
            }
        });
        ops
    }
}
