//! Chains of slotted pages: the one page layer under List and Hash.
//!
//! A chain is a `next_page`-linked run of slotted pages of one
//! [`PageType`] holding unique-key `[klen][key][value]` cells in no order
//! (the stable-slot discipline of [`crate::page`]). Lookups walk it
//! linearly. `ListIndex` is one chain of `Heap` pages; `HashIndex` is a
//! directory page plus one chain of `HashBucket` pages per bucket.

use fame_os::PageId;

use crate::error::{Result, StorageError};
use crate::page::{cell, cell_key, cell_value, PageType, PageView, SlottedPage, PAGE_HEADER_SIZE};
use crate::pager::{PageRead, Pager};

/// A chain of `ty` pages starting at `head`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain {
    pub(crate) head: PageId,
    pub(crate) ty: PageType,
}

impl Chain {
    /// Allocate the head page of an empty chain.
    pub(crate) fn create(pager: &mut Pager, ty: PageType) -> Result<Chain> {
        let head = pager.allocate(ty, |_| {})?;
        Ok(Chain { head, ty })
    }

    /// Largest cell accepted for the pager's page size.
    pub(crate) fn max_cell(pager: &Pager) -> usize {
        pager.page_size() - PAGE_HEADER_SIZE - 8
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

    /// Allocation-free lookup: run `f` over the value bytes in place.
    pub(crate) fn get_with<P: PageRead, R>(
        &self,
        pager: &mut P,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>> {
        match self.locate(pager, key)? {
            None => Ok(None),
            Some((page, slot)) => pager.with_page(page, |buf| {
                PageView::new(buf).get(slot).map(|c| f(cell_value(c)))
            }),
        }
    }

    /// Insert or overwrite. Returns `true` when the key was new.
    pub(crate) fn upsert(&self, pager: &mut Pager, key: &[u8], value: &[u8]) -> Result<bool> {
        let c = cell(key, value);
        let max = Self::max_cell(pager);
        if c.len() > max {
            return Err(StorageError::RecordTooLarge { size: c.len(), max });
        }
        let found = self.locate(pager, key)?;
        if let Some((page, slot)) = found {
            let updated =
                pager.with_page_mut(page, |buf| SlottedPage::new(buf).update(slot, &c))?;
            if updated {
                return Ok(false);
            }
            // No room to grow in place: the failed update left the slot
            // tombstoned, so the cell moves to the first page with room.
        }
        self.append(pager, &c)?;
        Ok(found.is_none())
    }

    /// Append a cell into the first page with room, growing the chain.
    fn append(&self, pager: &mut Pager, c: &[u8]) -> Result<()> {
        let mut page = self.head;
        loop {
            let (inserted, next) = pager.with_page_mut(page, |buf| {
                let mut p = SlottedPage::new(buf);
                (p.insert(c).is_some(), p.next_page())
            })?;
            if inserted {
                return Ok(());
            }
            page = match next {
                Some(p) => p,
                None => {
                    let fresh = pager.allocate(self.ty, |_| {})?;
                    pager.with_page_mut(page, |buf| {
                        SlottedPage::new(buf).set_next_page(Some(fresh));
                    })?;
                    fresh
                }
            };
        }
    }

    /// Remove a key. Returns `true` if it existed.
    pub(crate) fn remove(&self, pager: &mut Pager, key: &[u8]) -> Result<bool> {
        let Some((page, slot)) = self.locate(pager, key)? else {
            return Ok(false);
        };
        pager.with_page_mut(page, |buf| SlottedPage::new(buf).delete(slot))
    }

    /// Number of entries (walks the chain).
    pub(crate) fn len(&self, pager: &mut Pager) -> Result<usize> {
        let (mut page, mut n) = (self.head, 0);
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
}

#[cfg(test)]
mod proptests {
    use crate::pager::Pager;
    use crate::Result;
    use fame_buffer::{BufferPool, ReplacementKind};
    use fame_os::{AllocPolicy, InMemoryDevice};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The surface both chain indexes share.
    trait Kv {
        fn insert(&mut self, pager: &mut Pager, key: &[u8], value: &[u8]) -> Result<bool>;
        fn remove(&mut self, pager: &mut Pager, key: &[u8]) -> Result<bool>;
        fn get(&self, pager: &mut Pager, key: &[u8]) -> Result<Option<Vec<u8>>>;
        fn len(&self, pager: &mut Pager) -> Result<usize>;
    }

    macro_rules! kv {
        ($t:ty) => {
            impl Kv for $t {
                fn insert(&mut self, pager: &mut Pager, key: &[u8], value: &[u8]) -> Result<bool> {
                    <$t>::insert(self, pager, key, value)
                }
                fn remove(&mut self, pager: &mut Pager, key: &[u8]) -> Result<bool> {
                    <$t>::remove(self, pager, key)
                }
                fn get(&self, pager: &mut Pager, key: &[u8]) -> Result<Option<Vec<u8>>> {
                    <$t>::get(self, pager, key)
                }
                fn len(&self, pager: &mut Pager) -> Result<usize> {
                    <$t>::len(self, pager)
                }
            }
        };
    }
    #[cfg(feature = "list")]
    kv!(crate::ListIndex);
    #[cfg(feature = "hash")]
    kv!(crate::HashIndex);

    fn pager() -> Pager {
        let pool = BufferPool::new(
            Box::new(InMemoryDevice::new(256)),
            ReplacementKind::Lru,
            AllocPolicy::Dynamic {
                max_frames: Some(64),
            },
        );
        Pager::open(pool).unwrap()
    }

    type Ops = Vec<(Vec<u8>, Option<Vec<u8>>)>;

    /// Replay `ops` on `index` and on a `HashMap`; they must agree.
    fn agrees_with_hashmap(
        index: &mut dyn Kv,
        pg: &mut Pager,
        ops: &Ops,
    ) -> std::result::Result<(), TestCaseError> {
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for (key, maybe_val) in ops {
            match maybe_val {
                Some(v) => {
                    let was_new = index.insert(pg, key, v).unwrap();
                    prop_assert_eq!(was_new, model.insert(key.clone(), v.clone()).is_none());
                }
                None => {
                    let removed = index.remove(pg, key).unwrap();
                    prop_assert_eq!(removed, model.remove(key).is_some());
                }
            }
        }
        prop_assert_eq!(index.len(pg).unwrap(), model.len());
        for (k, v) in &model {
            let got = index.get(pg, k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The list and the hash index behave like
        /// `HashMap<Vec<u8>, Vec<u8>>`. Values up to 120 bytes on 256-byte
        /// pages make a growing overwrite fail in place and relocate.
        #[test]
        fn behaves_like_hashmap(
            ops in prop::collection::vec(
                (prop::collection::vec(any::<u8>(), 1..8),
                 prop::option::of(prop_oneof![
                     prop::collection::vec(any::<u8>(), 0..16),
                     prop::collection::vec(any::<u8>(), 40..120),
                 ])),
                1..150,
            ),
            buckets in 1u32..16,
        ) {
            #[cfg(feature = "list")]
            {
                let mut pg = pager();
                let mut list = crate::ListIndex::create(&mut pg, 0).unwrap();
                agrees_with_hashmap(&mut list, &mut pg, &ops)?;
            }
            #[cfg(feature = "hash")]
            {
                let mut pg = pager();
                let mut hash = crate::HashIndex::create(&mut pg, 0, buckets).unwrap();
                agrees_with_hashmap(&mut hash, &mut pg, &ops)?;
            }
            let _ = buckets; // unused without `hash`
        }
    }
}
