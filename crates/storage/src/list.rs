//! List storage: feature *Storage → Index → List* of Figure 2.
//!
//! The minimal-footprint alternative to the B+-tree (configuration 8 of
//! Figure 1 uses it): key/value cells in an unordered chain of heap pages,
//! linear search. For the tiny datasets of deeply embedded systems this is
//! both smaller in code and competitive in speed; the Fig. 1 experiments
//! show exactly that trade-off.

use crate::chain::Chain;
use crate::error::{Result, StorageError};
use crate::page::PageType;
use crate::pager::{PageRead, Pager};

/// Unordered key/value list over chained heap pages. Unique keys, upsert
/// semantics, linear scans.
#[derive(Debug, Clone, Copy)]
pub struct ListIndex {
    chain: Chain,
    root_slot: usize,
}

impl ListIndex {
    /// The access method's name in reports (`StatsSnapshot::index`).
    pub const NAME: &'static str = "List";

    /// Create an empty list persisted in `root_slot`.
    pub fn create(pager: &mut Pager, root_slot: usize) -> Result<ListIndex> {
        let chain = Chain::create(pager, PageType::Heap)?;
        pager.set_root(root_slot, Some(chain.head))?;
        Ok(ListIndex { chain, root_slot })
    }

    /// Open the list persisted in `root_slot`.
    pub fn open(pager: &mut Pager, root_slot: usize) -> Result<ListIndex> {
        let head = pager.root(root_slot)?.ok_or(StorageError::NotFound)?;
        let chain = Chain {
            head,
            ty: PageType::Heap,
        };
        Ok(ListIndex { chain, root_slot })
    }

    /// Root slot this list persists to.
    pub fn root_slot(&self) -> usize {
        self.root_slot
    }

    /// Largest cell accepted for the pager's page size.
    pub fn max_cell(pager: &Pager) -> usize {
        Chain::max_cell(pager)
    }

    /// Insert or overwrite. Returns `true` when the key was new.
    pub fn insert(&mut self, pager: &mut Pager, key: &[u8], value: &[u8]) -> Result<bool> {
        self.chain.upsert(pager, key, value)
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
        self.chain.get_with(pager, key, f)
    }

    /// Remove a key. Returns `true` if it existed.
    pub fn remove(&mut self, pager: &mut Pager, key: &[u8]) -> Result<bool> {
        self.chain.remove(pager, key)
    }

    /// Number of entries (linear walk).
    pub fn len(&self, pager: &mut Pager) -> Result<usize> {
        self.chain.len(pager)
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
