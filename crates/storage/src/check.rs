//! Storage integrity checker: structural invariants of a database image.
//!
//! The crash-torture harness (ISSUE: E7) reopens a database after every
//! simulated crash and needs a judgement stronger than "the reads we tried
//! worked": the *whole* image must be structurally sound. This module walks
//! the physical layout — independently of which access-method features are
//! composed in, since it parses the raw page formats — and reports every
//! violated invariant instead of stopping at the first:
//!
//! * **meta page** — magic, version, recorded page size vs the device,
//!   plausible page count, root pointers inside the allocated range;
//! * **free list** — terminates without a cycle, every node carries the
//!   `PageType::Free` tag (the pager reformats pages on [`Pager::free`]),
//!   no free page is also reachable from a root;
//! * **B+-tree** — keys strictly ascending within nodes and bounded by the
//!   separators above them, uniform leaf depth, child pointers in range,
//!   slot directories inside the page, and the leaf chain linking the
//!   leaves in exactly key order;
//! * **list / hash / queue** — chains terminate without cycles, cells
//!   parse, directory pointers stay in range.
//!
//! Pages that are allocated but neither reachable nor free are counted as
//! *leaked* — reported, but not a violation (a crash between allocate and
//! root update legitimately strands a page; it wastes space but corrupts
//! nothing).

use fame_os::PageId;

use crate::page::{get_u16, get_u32, PageType, PageView, NO_PAGE, PAGE_HEADER_SIZE};
use crate::pager::{self, Pager, ROOT_SLOTS};
use crate::Result;

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Page the problem was found on, if attributable to one.
    pub page: Option<PageId>,
    /// Human-readable description.
    pub what: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.page {
            Some(p) => write!(f, "page {p}: {}", self.what),
            None => write!(f, "{}", self.what),
        }
    }
}

/// Outcome of an integrity walk.
#[derive(Debug, Clone, Default)]
pub struct IntegrityReport {
    /// Pages the meta page claims are allocated (including page 0).
    pub allocated_pages: u32,
    /// Pages reachable from the named roots.
    pub reachable_pages: u32,
    /// Pages on the free list.
    pub free_pages: u32,
    /// Allocated pages that are neither reachable nor free. Wasted space,
    /// not corruption — see the module docs.
    pub leaked_pages: u32,
    /// Depth of the primary B+-tree, when one is rooted.
    pub btree_depth: Option<usize>,
    /// Every invariant found violated.
    pub violations: Vec<Violation>,
}

impl IntegrityReport {
    /// `true` when no invariant is violated.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for IntegrityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} allocated, {} reachable, {} free, {} leaked",
            self.allocated_pages, self.reachable_pages, self.free_pages, self.leaked_pages
        )?;
        if let Some(d) = self.btree_depth {
            write!(f, ", btree depth {d}")?;
        }
        if self.is_ok() {
            write!(f, "; OK")
        } else {
            write!(f, "; {} violation(s):", self.violations.len())?;
            for v in &self.violations {
                write!(f, "\n  {v}")?;
            }
            Ok(())
        }
    }
}

struct Checker {
    page_count: u32,
    page_size: usize,
    report: IntegrityReport,
    /// Pages reached from roots (meta page 0 is implicit, not included).
    reachable: std::collections::BTreeSet<PageId>,
    /// Depths at which B+-tree leaves were found.
    leaf_depths: std::collections::BTreeSet<usize>,
}

impl Checker {
    fn flag(&mut self, page: impl Into<Option<PageId>>, what: impl Into<String>) {
        self.report.violations.push(Violation {
            page: page.into(),
            what: what.into(),
        });
    }

    /// Validate a page id and mark it reachable. Returns `false` when the
    /// page is out of range or was already visited (cycle / double-use) —
    /// callers must not descend into it then.
    fn enter(&mut self, page: PageId, from: &str) -> bool {
        if page == 0 || page >= self.page_count {
            self.flag(
                Some(page),
                format!("{from}: page id out of allocated range"),
            );
            return false;
        }
        if !self.reachable.insert(page) {
            self.flag(
                Some(page),
                format!("{from}: page reached twice (cycle or shared page)"),
            );
            return false;
        }
        true
    }
}

/// Validate the slot directory of a slotted page *before* trusting any
/// accessor over it: every live cell must lie between the end of the slot
/// directory and the end of the page. Returns the live `(offset, len)`
/// pairs in slot order, or `None` when the directory itself is broken.
fn checked_slots(ck: &mut Checker, page: PageId, buf: &[u8]) -> Option<Vec<(usize, usize)>> {
    const TOMBSTONE: u16 = u16::MAX;
    let slots = PageView::new(buf).slot_count();
    let dir_end = PAGE_HEADER_SIZE + 4 * slots;
    if dir_end > ck.page_size {
        ck.flag(
            Some(page),
            format!("slot directory overflows the page ({slots} slots)"),
        );
        return None;
    }
    let mut out = Vec::with_capacity(slots);
    for i in 0..slots {
        let at = PAGE_HEADER_SIZE + 4 * i;
        let off = get_u16(buf, at);
        let len = get_u16(buf, at + 2) as usize;
        if off == TOMBSTONE {
            continue;
        }
        let off = off as usize;
        if off < dir_end || off + len > ck.page_size {
            ck.flag(
                Some(page),
                format!("slot {i} points outside the cell area (off {off}, len {len})"),
            );
            return None;
        }
        out.push((off, len));
    }
    Some(out)
}

/// Parse the `[klen:u16][key]...` prefix shared by every cell encoding.
fn cell_key(cell: &[u8]) -> Option<&[u8]> {
    if cell.len() < 2 {
        return None;
    }
    let klen = get_u16(cell, 0) as usize;
    cell.get(2..2 + klen)
}

/// Key-range bound: `lo` inclusive, `hi` exclusive, `None` = unbounded.
type Bound<'a> = Option<&'a [u8]>;

fn in_bounds(key: &[u8], lo: Bound<'_>, hi: Bound<'_>) -> bool {
    lo.is_none_or(|l| key >= l) && hi.is_none_or(|h| key < h)
}

/// Recursive B+-tree walk. Collects `(leaf page, next pointer)` in key
/// order so the caller can verify the leaf chain afterwards.
fn check_btree(
    pager: &mut Pager,
    ck: &mut Checker,
    page: PageId,
    lo: Bound<'_>,
    hi: Bound<'_>,
    depth: usize,
    leaves: &mut Vec<(PageId, Option<PageId>)>,
) -> Result<()> {
    let buf = pager.with_page(page, |b| b.to_vec())?;
    let view = PageView::new(&buf);
    let Some(slots) = checked_slots(ck, page, &buf) else {
        return Ok(());
    };

    // Keys must be strictly ascending and inside the separator bounds.
    let mut keys: Vec<&[u8]> = Vec::with_capacity(slots.len());
    for (i, &(off, len)) in slots.iter().enumerate() {
        match cell_key(&buf[off..off + len]) {
            Some(k) => keys.push(k),
            None => {
                ck.flag(Some(page), format!("cell {i} too short for its key length"));
                return Ok(());
            }
        }
    }
    for w in keys.windows(2) {
        if w[0] >= w[1] {
            ck.flag(Some(page), "keys not strictly ascending".to_string());
        }
    }
    for k in &keys {
        if !in_bounds(k, lo, hi) {
            ck.flag(
                Some(page),
                "key outside the bounds set by parent separators".to_string(),
            );
        }
    }

    match view.page_type() {
        Some(PageType::BTreeLeaf) => {
            ck.leaf_depths.insert(depth);
            leaves.push((page, view.next_page()));
        }
        Some(PageType::BTreeInternal) => {
            // Leftmost child in aux, then one child per separator cell.
            let Some(leftmost) = view.aux() else {
                ck.flag(
                    Some(page),
                    "internal node without a leftmost child".to_string(),
                );
                return Ok(());
            };
            if ck.enter(leftmost, "btree child") {
                check_btree(
                    pager,
                    ck,
                    leftmost,
                    lo,
                    keys.first().copied(),
                    depth + 1,
                    leaves,
                )?;
            }
            for (i, &(off, len)) in slots.iter().enumerate() {
                let cell = &buf[off..off + len];
                let klen = get_u16(cell, 0) as usize;
                if cell.len() < 2 + klen + 4 {
                    ck.flag(
                        Some(page),
                        format!("separator cell {i} lacks a child pointer"),
                    );
                    continue;
                }
                let child = get_u32(cell, 2 + klen);
                let child_lo = keys[i];
                let child_hi = keys.get(i + 1).copied().or(hi);
                if ck.enter(child, "btree child") {
                    check_btree(
                        pager,
                        ck,
                        child,
                        Some(child_lo),
                        child_hi,
                        depth + 1,
                        leaves,
                    )?;
                }
            }
        }
        other => {
            ck.flag(
                Some(page),
                format!("expected a B+-tree node, found type {other:?}"),
            );
        }
    }
    Ok(())
}

/// Walk a `next_page` chain of `expect`-typed pages, checking that each
/// cell parses. Used for list heaps and hash buckets.
fn check_chain(
    pager: &mut Pager,
    ck: &mut Checker,
    head: PageId,
    expect: PageType,
    from: &str,
) -> Result<()> {
    let mut page = Some(head);
    while let Some(p) = page {
        let buf = pager.with_page(p, |b| b.to_vec())?;
        let view = PageView::new(&buf);
        if view.page_type() != Some(expect) {
            ck.flag(
                Some(p),
                format!("{from}: expected {expect:?}, found type byte {}", buf[0]),
            );
            return Ok(());
        }
        if let Some(slots) = checked_slots(ck, p, &buf) {
            for (i, &(off, len)) in slots.iter().enumerate() {
                if cell_key(&buf[off..off + len]).is_none() {
                    ck.flag(
                        Some(p),
                        format!("{from}: cell {i} too short for its key length"),
                    );
                }
            }
        }
        page = match view.next_page() {
            Some(n) if ck.enter(n, from) => Some(n),
            _ => None,
        };
    }
    Ok(())
}

/// Hash index: directory of bucket heads, each an overflow chain.
fn check_hash(pager: &mut Pager, ck: &mut Checker, dir: PageId) -> Result<()> {
    let buf = pager.with_page(dir, |b| b.to_vec())?;
    let Some(buckets) = PageView::new(&buf).aux() else {
        ck.flag(
            Some(dir),
            "hash directory without a bucket count".to_string(),
        );
        return Ok(());
    };
    let max = ((ck.page_size - PAGE_HEADER_SIZE) / 4) as u32;
    if buckets == 0 || buckets > max {
        ck.flag(Some(dir), format!("implausible bucket count {buckets}"));
        return Ok(());
    }
    for i in 0..buckets as usize {
        let head = get_u32(&buf, PAGE_HEADER_SIZE + 4 * i);
        if ck.enter(head, "hash bucket head") {
            check_chain(pager, ck, head, PageType::HashBucket, "hash bucket")?;
        }
    }
    Ok(())
}

/// Queue: directory page with a ring of data-page slots.
fn check_queue(pager: &mut Pager, ck: &mut Checker, dir: PageId) -> Result<()> {
    let buf = pager.with_page(dir, |b| b.to_vec())?;
    let record_len = get_u32(&buf, PAGE_HEADER_SIZE) as usize;
    if record_len == 0 || record_len > ck.page_size - PAGE_HEADER_SIZE {
        ck.flag(
            Some(dir),
            format!("implausible queue record length {record_len}"),
        );
        return Ok(());
    }
    let ring_at = PAGE_HEADER_SIZE + 20;
    let ring_slots = (ck.page_size - ring_at) / 4;
    for i in 0..ring_slots {
        let data = get_u32(&buf, ring_at + 4 * i);
        if data == NO_PAGE {
            continue;
        }
        if ck.enter(data, "queue ring slot") {
            let ty = pager.with_page(data, |b| b[0])?;
            if PageType::from_u8(ty) != Some(PageType::Queue) {
                ck.flag(Some(data), format!("queue data page has type byte {ty}"));
            }
        }
    }
    Ok(())
}

/// Walk the whole image and report every violated invariant.
///
/// Prefer the façade method `Database::verify_integrity()` in `fame-dbms`;
/// this entry point exists for tools that hold a bare [`Pager`].
pub fn check_pager(pager: &mut Pager) -> Result<IntegrityReport> {
    let device_pages = pager.pool().num_pages();
    let page_size = pager.page_size();
    let meta = pager.with_page(0, |b| b.to_vec())?;

    let mut ck = Checker {
        page_count: get_u32(&meta, pager::OFF_PAGE_COUNT),
        page_size,
        report: IntegrityReport::default(),
        reachable: std::collections::BTreeSet::new(),
        leaf_depths: std::collections::BTreeSet::new(),
    };

    // -- meta page sanity ---------------------------------------------------
    if &meta[pager::OFF_MAGIC..pager::OFF_MAGIC + 4] != pager::MAGIC {
        ck.flag(Some(0), "bad magic".to_string());
        // Nothing below can be trusted.
        ck.report.allocated_pages = ck.page_count;
        return Ok(ck.report);
    }
    let version = get_u16(&meta, pager::OFF_VERSION);
    if version != pager::VERSION {
        ck.flag(Some(0), format!("unsupported format version {version}"));
    }
    let recorded_ps = get_u16(&meta, pager::OFF_PAGE_SIZE) as usize;
    if recorded_ps != page_size {
        ck.flag(
            Some(0),
            format!("recorded page size {recorded_ps} != device page size {page_size}"),
        );
    }
    if ck.page_count == 0 || ck.page_count > device_pages {
        ck.flag(
            Some(0),
            format!(
                "page count {} outside device size {device_pages}",
                ck.page_count
            ),
        );
        ck.report.allocated_pages = ck.page_count;
        return Ok(ck.report);
    }
    ck.report.allocated_pages = ck.page_count;
    // (Page 0 is not a slotted page: the magic itself is its type tag.)

    // -- roots --------------------------------------------------------------
    for slot in 0..ROOT_SLOTS {
        let root = get_u32(&meta, pager::OFF_ROOTS + 4 * slot);
        if root == NO_PAGE {
            continue;
        }
        if !ck.enter(root, "root slot") {
            continue;
        }
        let ty = pager.with_page(root, |b| PageView::new(b).page_type())?;
        match ty {
            Some(PageType::BTreeLeaf) | Some(PageType::BTreeInternal) => {
                let mut leaves = Vec::new();
                check_btree(pager, &mut ck, root, None, None, 0, &mut leaves)?;
                // Uniform depth: every leaf the same distance from the root.
                if ck.leaf_depths.len() > 1 {
                    ck.flag(
                        Some(root),
                        format!("leaves at multiple depths {:?}", ck.leaf_depths),
                    );
                }
                ck.report.btree_depth = ck.leaf_depths.iter().next().copied();
                ck.leaf_depths.clear();
                // The leaf chain must link the leaves in exactly key order.
                for w in leaves.windows(2) {
                    if w[0].1 != Some(w[1].0) {
                        ck.flag(
                            Some(w[0].0),
                            format!("leaf chain skips its key-order successor {}", w[1].0),
                        );
                    }
                }
                if let Some(last) = leaves.last() {
                    if last.1.is_some() {
                        ck.flag(
                            Some(last.0),
                            "last leaf has a dangling next pointer".to_string(),
                        );
                    }
                }
            }
            Some(PageType::Heap) => check_chain(pager, &mut ck, root, PageType::Heap, "list")?,
            Some(PageType::HashDir) => check_hash(pager, &mut ck, root)?,
            Some(PageType::QueueDir) => check_queue(pager, &mut ck, root)?,
            Some(PageType::Free) => {
                ck.flag(
                    Some(root),
                    format!("root slot {slot} points at a free page"),
                );
            }
            other => {
                ck.flag(
                    Some(root),
                    format!("root slot {slot} points at unexpected type {other:?}"),
                );
            }
        }
    }
    ck.report.reachable_pages = ck.reachable.len() as u32;

    // -- free list ----------------------------------------------------------
    let mut free = std::collections::BTreeSet::new();
    let mut cursor = {
        let head = get_u32(&meta, pager::OFF_FREE_HEAD);
        (head != NO_PAGE).then_some(head)
    };
    while let Some(p) = cursor {
        if p == 0 || p >= ck.page_count {
            ck.flag(Some(p), "free-list node out of allocated range".to_string());
            break;
        }
        if !free.insert(p) {
            ck.flag(Some(p), "free list cycles".to_string());
            break;
        }
        let (ty, next) = pager.with_page(p, |b| (b[0], PageView::new(b).next_page()))?;
        if PageType::from_u8(ty) != Some(PageType::Free) {
            ck.flag(Some(p), format!("free-list node carries type byte {ty}"));
        }
        if ck.reachable.contains(&p) {
            ck.flag(
                Some(p),
                "page is both free and reachable from a root".to_string(),
            );
        }
        cursor = next;
    }
    ck.report.free_pages = free.len() as u32;

    // -- leaks (informational) ---------------------------------------------
    ck.report.leaked_pages = (1..ck.page_count)
        .filter(|p| !ck.reachable.contains(p) && !free.contains(p))
        .count() as u32;

    Ok(ck.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;
    use fame_buffer::BufferPool;
    use fame_os::InMemoryDevice;

    fn pager() -> Pager {
        Pager::open(BufferPool::unbuffered(Box::new(InMemoryDevice::new(256)))).unwrap()
    }

    #[test]
    fn fresh_image_is_clean() {
        let mut p = pager();
        let r = check_pager(&mut p).unwrap();
        assert!(r.is_ok(), "{r}");
        assert_eq!(r.allocated_pages, 1);
        assert_eq!(r.reachable_pages, 0);
    }

    #[test]
    fn free_list_is_walked() {
        let mut p = pager();
        let a = p.allocate(PageType::Heap, |_| {}).unwrap();
        let b = p.allocate(PageType::Heap, |_| {}).unwrap();
        p.free(a).unwrap();
        p.free(b).unwrap();
        let r = check_pager(&mut p).unwrap();
        assert!(r.is_ok(), "{r}");
        assert_eq!(r.free_pages, 2);
        assert_eq!(r.leaked_pages, 0);
    }

    #[cfg(feature = "btree")]
    #[test]
    fn btree_image_is_clean_and_depth_reported() {
        let mut p = pager();
        let mut t = crate::BTree::create(&mut p, 0).unwrap();
        for i in 0u32..200 {
            t.insert(&mut p, &i.to_be_bytes(), &[7u8; 16]).unwrap();
        }
        let r = check_pager(&mut p).unwrap();
        assert!(r.is_ok(), "{r}");
        assert!(r.btree_depth.unwrap_or(0) >= 1, "multi-level tree expected");
        assert!(r.reachable_pages > 1);
    }

    #[cfg(feature = "btree")]
    #[test]
    fn unordered_keys_are_flagged() {
        let mut p = pager();
        let mut t = crate::BTree::create(&mut p, 0).unwrap();
        t.insert(&mut p, b"aaa", b"1").unwrap();
        t.insert(&mut p, b"bbb", b"2").unwrap();
        let root = p.root(0).unwrap().unwrap();
        // Corrupt: swap the two cells' key bytes via raw page access.
        p.with_page_mut(root, |buf| {
            let pos = buf.iter().position(|&c| c == b'a').unwrap();
            buf[pos..pos + 3].copy_from_slice(b"zzz");
        })
        .unwrap();
        let r = check_pager(&mut p).unwrap();
        assert!(!r.is_ok());
        assert!(
            r.violations.iter().any(|v| v.what.contains("ascending")),
            "{r}"
        );
    }

    #[test]
    fn free_page_reached_from_root_is_flagged() {
        let mut p = pager();
        let a = p.allocate(PageType::Heap, |_| {}).unwrap();
        p.free(a).unwrap();
        p.set_root(3, Some(a)).unwrap();
        let r = check_pager(&mut p).unwrap();
        assert!(!r.is_ok());
        assert!(
            r.violations.iter().any(|v| v.what.contains("free page")),
            "{r}"
        );
    }

    #[test]
    fn leaked_page_is_counted_not_flagged() {
        let mut p = pager();
        let _orphan = p.allocate(PageType::Heap, |_| {}).unwrap();
        let r = check_pager(&mut p).unwrap();
        assert!(r.is_ok(), "leak is informational: {r}");
        assert_eq!(r.leaked_pages, 1);
    }

    #[test]
    fn free_list_cycle_is_detected() {
        let mut p = pager();
        let a = p.allocate(PageType::Heap, |_| {}).unwrap();
        let b = p.allocate(PageType::Heap, |_| {}).unwrap();
        p.free(a).unwrap();
        p.free(b).unwrap();
        // Point a's next back at b (head) to close a loop: b -> a -> b.
        p.with_page_mut(a, |buf| {
            buf[6..10].copy_from_slice(&b.to_le_bytes());
        })
        .unwrap();
        let r = check_pager(&mut p).unwrap();
        assert!(r.violations.iter().any(|v| v.what.contains("cycle")), "{r}");
    }

    #[cfg(feature = "hash")]
    #[test]
    fn hash_image_is_clean() {
        let mut p = pager();
        let mut h = crate::HashIndex::create(&mut p, 0, 8).unwrap();
        for i in 0u32..100 {
            h.insert(&mut p, &i.to_le_bytes(), &[3u8; 8]).unwrap();
        }
        let r = check_pager(&mut p).unwrap();
        assert!(r.is_ok(), "{r}");
    }

    #[cfg(feature = "list")]
    #[test]
    fn list_image_is_clean() {
        let mut p = pager();
        let mut l = crate::ListIndex::create(&mut p, 0).unwrap();
        for i in 0u32..100 {
            l.insert(&mut p, &i.to_le_bytes(), &[5u8; 8]).unwrap();
        }
        let r = check_pager(&mut p).unwrap();
        assert!(r.is_ok(), "{r}");
    }

    #[cfg(feature = "queue")]
    #[test]
    fn queue_image_is_clean() {
        let mut p = pager();
        let mut q = crate::Queue::create(&mut p, 1, 16).unwrap();
        for i in 0u8..20 {
            q.push(&mut p, &[i; 16]).unwrap();
        }
        let r = check_pager(&mut p).unwrap();
        assert!(r.is_ok(), "{r}");
    }
}
