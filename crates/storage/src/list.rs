//! List storage: feature *Storage → Index → List* of Figure 2.
//!
//! The minimal-footprint alternative to the B+-tree (configuration 8 of
//! Figure 1 uses it): key/value cells in an unordered chain of heap pages,
//! linear search. For the tiny datasets of deeply embedded systems this is
//! both smaller in code and competitive in speed; the Fig. 1 experiments
//! show exactly that trade-off.

use fame_os::PageId;

use crate::error::{Result, StorageError};
use crate::page::{PageType, PageView, SlottedPage};
use crate::pager::{PageRead, Pager};

fn cell(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut c = Vec::with_capacity(2 + key.len() + value.len());
    c.extend_from_slice(&(key.len() as u16).to_le_bytes());
    c.extend_from_slice(key);
    c.extend_from_slice(value);
    c
}

fn cell_key(c: &[u8]) -> &[u8] {
    let klen = u16::from_le_bytes([c[0], c[1]]) as usize;
    &c[2..2 + klen]
}

fn cell_value(c: &[u8]) -> &[u8] {
    let klen = u16::from_le_bytes([c[0], c[1]]) as usize;
    &c[2 + klen..]
}

/// Unordered key/value list over chained heap pages. Unique keys, upsert
/// semantics, linear scans.
#[derive(Debug, Clone, Copy)]
pub struct ListIndex {
    head: PageId,
    root_slot: usize,
}

impl ListIndex {
    /// The access method's name in reports (`StatsSnapshot::index`).
    pub const NAME: &'static str = "List";

    /// Create an empty list persisted in `root_slot`.
    pub fn create(pager: &mut Pager, root_slot: usize) -> Result<ListIndex> {
        let head = pager.allocate()?;
        pager.with_page_mut(head, |buf| {
            SlottedPage::init(buf, PageType::Heap);
        })?;
        pager.set_root(root_slot, Some(head))?;
        Ok(ListIndex { head, root_slot })
    }

    /// Open the list persisted in `root_slot`.
    pub fn open(pager: &mut Pager, root_slot: usize) -> Result<ListIndex> {
        let head = pager.root(root_slot)?.ok_or(StorageError::NotFound)?;
        Ok(ListIndex { head, root_slot })
    }

    /// Root slot this list persists to.
    pub fn root_slot(&self) -> usize {
        self.root_slot
    }

    /// Largest cell accepted for the pager's page size.
    pub fn max_cell(pager: &Pager) -> usize {
        pager.page_size() - crate::page::PAGE_HEADER_SIZE - 8
    }

    /// Find `(page, slot)` of a key.
    fn locate<P: PageRead>(&self, pager: &mut P, key: &[u8]) -> Result<Option<(PageId, u16)>> {
        let mut page = self.head;
        loop {
            let (hit, next) = pager.with_page(page, |buf| {
                let v = PageView::new(buf);
                let hit = v
                    .iter()
                    .find(|(_, c)| cell_key(c) == key)
                    .map(|(slot, _)| slot);
                (hit, v.next_page())
            })?;
            if let Some(slot) = hit {
                return Ok(Some((page, slot)));
            }
            match next {
                Some(p) => page = p,
                None => return Ok(None),
            }
        }
    }

    /// Insert or overwrite. Returns `true` when the key was new.
    pub fn insert(&mut self, pager: &mut Pager, key: &[u8], value: &[u8]) -> Result<bool> {
        let c = cell(key, value);
        if c.len() > Self::max_cell(pager) {
            return Err(StorageError::RecordTooLarge {
                size: c.len(),
                max: Self::max_cell(pager),
            });
        }

        if let Some((page, slot)) = self.locate(pager, key)? {
            let updated =
                pager.with_page_mut(page, |buf| SlottedPage::new(buf).update(slot, &c))?;
            if updated {
                return Ok(false);
            }
            // No room to grow in place: drop and reinsert elsewhere.
            pager.with_page_mut(page, |buf| {
                SlottedPage::new(buf).delete(slot);
            })?;
            self.append(pager, &c)?;
            return Ok(false);
        }
        self.append(pager, &c)?;
        Ok(true)
    }

    /// Append a cell into the first page with room, growing the chain.
    fn append(&mut self, pager: &mut Pager, c: &[u8]) -> Result<()> {
        let mut page = self.head;
        loop {
            let (inserted, next) = pager.with_page_mut(page, |buf| {
                let mut p = SlottedPage::new(buf);
                (p.insert(c).is_some(), p.next_page())
            })?;
            if inserted {
                return Ok(());
            }
            match next {
                Some(p) => page = p,
                None => {
                    let fresh = pager.allocate()?;
                    pager.with_page_mut(fresh, |buf| {
                        SlottedPage::init(buf, PageType::Heap);
                    })?;
                    pager.with_page_mut(page, |buf| {
                        SlottedPage::new(buf).set_next_page(Some(fresh));
                    })?;
                    page = fresh;
                }
            }
        }
    }

    /// Look up a key.
    pub fn get<P: PageRead>(&self, pager: &mut P, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_with(pager, key, |v| v.to_vec())
    }

    /// Allocation-free lookup: run `f` over the value bytes in place.
    pub fn get_with<P: PageRead, R>(
        &self,
        pager: &mut P,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>> {
        match self.locate(pager, key)? {
            None => Ok(None),
            Some((page, slot)) => Ok(pager.with_page(page, |buf| {
                PageView::new(buf).get(slot).map(|c| f(cell_value(c)))
            })?),
        }
    }

    /// Remove a key. Returns `true` if it existed.
    pub fn remove(&mut self, pager: &mut Pager, key: &[u8]) -> Result<bool> {
        match self.locate(pager, key)? {
            None => Ok(false),
            Some((page, slot)) => {
                pager.with_page_mut(page, |buf| {
                    SlottedPage::new(buf).delete(slot);
                })?;
                Ok(true)
            }
        }
    }

    /// Number of entries (linear walk).
    pub fn len(&self, pager: &mut Pager) -> Result<usize> {
        let mut page = self.head;
        let mut n = 0;
        loop {
            let (live, next) = pager.with_page(page, |buf| {
                let v = PageView::new(buf);
                (v.live_count(), v.next_page())
            })?;
            n += live;
            match next {
                Some(p) => page = p,
                None => return Ok(n),
            }
        }
    }

    /// `true` when no entries exist.
    pub fn is_empty(&self, pager: &mut Pager) -> Result<bool> {
        Ok(self.len(pager)? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fame_buffer::{BufferPool, ReplacementKind};
    use fame_os::{AllocPolicy, InMemoryDevice};

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

    #[test]
    fn insert_get_remove() {
        let mut pg = pager();
        let mut l = ListIndex::create(&mut pg, 0).unwrap();
        assert!(l.insert(&mut pg, b"a", b"1").unwrap());
        assert!(l.insert(&mut pg, b"b", b"2").unwrap());
        assert_eq!(l.get(&mut pg, b"a").unwrap(), Some(b"1".to_vec()));
        assert!(l.remove(&mut pg, b"a").unwrap());
        assert!(!l.remove(&mut pg, b"a").unwrap());
        assert_eq!(l.get(&mut pg, b"a").unwrap(), None);
        assert_eq!(l.len(&mut pg).unwrap(), 1);
    }

    #[test]
    fn upsert_semantics() {
        let mut pg = pager();
        let mut l = ListIndex::create(&mut pg, 0).unwrap();
        assert!(l.insert(&mut pg, b"k", b"v1").unwrap());
        assert!(!l.insert(&mut pg, b"k", b"v2-longer-than-before").unwrap());
        assert_eq!(
            l.get(&mut pg, b"k").unwrap(),
            Some(b"v2-longer-than-before".to_vec())
        );
        assert_eq!(l.len(&mut pg).unwrap(), 1);
    }

    #[test]
    fn chains_across_pages() {
        let mut pg = pager();
        let mut l = ListIndex::create(&mut pg, 0).unwrap();
        for i in 0..100u32 {
            l.insert(&mut pg, &i.to_be_bytes(), &[i as u8; 16]).unwrap();
        }
        assert_eq!(l.len(&mut pg).unwrap(), 100);
        for i in 0..100u32 {
            assert_eq!(
                l.get(&mut pg, &i.to_be_bytes()).unwrap(),
                Some(vec![i as u8; 16])
            );
        }
    }

    #[test]
    fn reopen() {
        let mut pg = pager();
        let mut l = ListIndex::create(&mut pg, 1).unwrap();
        l.insert(&mut pg, b"x", b"y").unwrap();
        let l2 = ListIndex::open(&mut pg, 1).unwrap();
        assert_eq!(l2.get(&mut pg, b"x").unwrap(), Some(b"y".to_vec()));
    }

    #[test]
    fn oversized_rejected() {
        let mut pg = pager();
        let mut l = ListIndex::create(&mut pg, 0).unwrap();
        assert!(matches!(
            l.insert(&mut pg, b"k", &vec![0u8; 400]),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }
}
