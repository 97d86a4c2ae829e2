//! Hash index: Berkeley DB's HASH access method (configuration 3 of
//! Figure 1 removes it).
//!
//! A directory page holds `2^k` bucket head pointers; each bucket is a
//! chain of slotted pages holding `[klen:u16][key][value]` cells. Lookups
//! hash the key (FNV-1a, implemented here — no external crates), pick the
//! bucket, and walk its chain. The bucket count is fixed at creation;
//! overflow pages absorb skew, which matches the static-hash designs used
//! on small devices.

use fame_os::PageId;

use crate::error::{Result, StorageError};
use crate::page::{PageType, PageView, SlottedPage, PAGE_HEADER_SIZE};
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

/// FNV-1a 64-bit hash (from scratch; stable across platforms).
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Static-directory hash index with overflow chains.
#[derive(Debug, Clone, Copy)]
pub struct HashIndex {
    dir: PageId,
    buckets: u32,
    root_slot: usize,
}

impl HashIndex {
    /// The access method's name in reports (`StatsSnapshot::index`).
    pub const NAME: &'static str = "Hash";

    /// Buckets that fit one directory page at the given page size.
    fn max_buckets(pager: &Pager) -> u32 {
        ((pager.page_size() - PAGE_HEADER_SIZE) / 4) as u32
    }

    /// Create an index with `buckets` bucket chains (capped to what fits
    /// the directory page) and persist it in `root_slot`.
    pub fn create(pager: &mut Pager, root_slot: usize, buckets: u32) -> Result<HashIndex> {
        let buckets = buckets.clamp(1, Self::max_buckets(pager));
        let dir = pager.allocate()?;

        // Allocate bucket heads first, then write the directory.
        let mut heads = Vec::with_capacity(buckets as usize);
        for _ in 0..buckets {
            let b = pager.allocate()?;
            pager.with_page_mut(b, |buf| {
                SlottedPage::init(buf, PageType::HashBucket);
            })?;
            heads.push(b);
        }
        pager.with_page_mut(dir, |buf| {
            SlottedPage::init(buf, PageType::HashDir).set_aux(Some(buckets));
            for (i, &h) in heads.iter().enumerate() {
                let at = PAGE_HEADER_SIZE + 4 * i;
                buf[at..at + 4].copy_from_slice(&h.to_le_bytes());
            }
        })?;
        pager.set_root(root_slot, Some(dir))?;
        Ok(HashIndex {
            dir,
            buckets,
            root_slot,
        })
    }

    /// Open the index persisted in `root_slot`.
    pub fn open(pager: &mut Pager, root_slot: usize) -> Result<HashIndex> {
        let dir = pager.root(root_slot)?.ok_or(StorageError::NotFound)?;
        let (page_type, buckets) = pager.with_page(dir, |buf| {
            let v = PageView::new(buf);
            (v.page_type(), v.aux().unwrap_or(0))
        })?;
        // A torn or zeroed directory must not reach `bucket_head`: a count
        // of 0 divides by zero there, a too-large one indexes past the page.
        if page_type != Some(PageType::HashDir)
            || buckets == 0
            || buckets > Self::max_buckets(pager)
        {
            return Err(StorageError::Corrupt {
                page: dir,
                reason: format!("hash directory {page_type:?} with bucket count {buckets}"),
            });
        }
        Ok(HashIndex {
            dir,
            buckets,
            root_slot,
        })
    }

    /// The number of bucket chains.
    pub fn buckets(&self) -> u32 {
        self.buckets
    }

    /// Root slot this index persists to.
    pub fn root_slot(&self) -> usize {
        self.root_slot
    }

    /// Largest cell accepted.
    pub fn max_cell(pager: &Pager) -> usize {
        pager.page_size() - PAGE_HEADER_SIZE - 8
    }

    fn bucket_head<P: PageRead>(&self, pager: &mut P, key: &[u8]) -> Result<PageId> {
        let b = (fnv1a(key) % u64::from(self.buckets)) as usize;
        pager.with_page(self.dir, |buf| {
            let at = PAGE_HEADER_SIZE + 4 * b;
            u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
        })
    }

    fn locate<P: PageRead>(&self, pager: &mut P, key: &[u8]) -> Result<Option<(PageId, u16)>> {
        let mut page = self.bucket_head(pager, key)?;
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
            if !updated {
                pager.with_page_mut(page, |buf| {
                    SlottedPage::new(buf).delete(slot);
                })?;
                let head = self.bucket_head(pager, key)?;
                self.append_to_chain(pager, head, &c)?;
            }
            return Ok(false);
        }
        let head = self.bucket_head(pager, key)?;
        self.append_to_chain(pager, head, &c)?;
        Ok(true)
    }

    fn append_to_chain(&self, pager: &mut Pager, mut page: PageId, c: &[u8]) -> Result<()> {
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
                        SlottedPage::init(buf, PageType::HashBucket);
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

    /// Number of entries (walks every bucket chain).
    pub fn len(&self, pager: &mut Pager) -> Result<usize> {
        let mut total = 0;
        for b in 0..self.buckets {
            let mut page = pager.with_page(self.dir, |buf| {
                let at = PAGE_HEADER_SIZE + 4 * b as usize;
                u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
            })?;
            loop {
                let (live, next) = pager.with_page(page, |buf| {
                    let v = PageView::new(buf);
                    (v.live_count(), v.next_page())
                })?;
                total += live;
                match next {
                    Some(p) => page = p,
                    None => break,
                }
            }
        }
        Ok(total)
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
                max_frames: Some(64),
            },
        );
        Pager::open(pool).unwrap()
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn insert_get_remove() {
        let mut pg = pager();
        let mut h = HashIndex::create(&mut pg, 0, 8).unwrap();
        assert!(h.insert(&mut pg, b"k1", b"v1").unwrap());
        assert!(h.insert(&mut pg, b"k2", b"v2").unwrap());
        assert_eq!(h.get(&mut pg, b"k1").unwrap(), Some(b"v1".to_vec()));
        assert_eq!(h.get(&mut pg, b"nope").unwrap(), None);
        assert!(h.remove(&mut pg, b"k1").unwrap());
        assert!(!h.remove(&mut pg, b"k1").unwrap());
        assert_eq!(h.len(&mut pg).unwrap(), 1);
    }

    #[test]
    fn upsert() {
        let mut pg = pager();
        let mut h = HashIndex::create(&mut pg, 0, 4).unwrap();
        assert!(h.insert(&mut pg, b"k", b"short").unwrap());
        assert!(!h
            .insert(&mut pg, b"k", b"a-considerably-longer-value")
            .unwrap());
        assert_eq!(
            h.get(&mut pg, b"k").unwrap(),
            Some(b"a-considerably-longer-value".to_vec())
        );
        assert_eq!(h.len(&mut pg).unwrap(), 1);
    }

    #[test]
    fn overflow_chains_absorb_many_keys() {
        let mut pg = pager();
        // One bucket forces chaining.
        let mut h = HashIndex::create(&mut pg, 0, 1).unwrap();
        for i in 0..200u32 {
            h.insert(&mut pg, &i.to_be_bytes(), &[i as u8; 8]).unwrap();
        }
        assert_eq!(h.len(&mut pg).unwrap(), 200);
        for i in 0..200u32 {
            assert_eq!(
                h.get(&mut pg, &i.to_be_bytes()).unwrap(),
                Some(vec![i as u8; 8]),
                "key {i}"
            );
        }
    }

    #[test]
    fn many_buckets_distribute() {
        let mut pg = pager();
        let mut h = HashIndex::create(&mut pg, 0, 16).unwrap();
        for i in 0..500u32 {
            h.insert(&mut pg, &i.to_le_bytes(), b"x").unwrap();
        }
        assert_eq!(h.len(&mut pg).unwrap(), 500);
    }

    #[test]
    fn reopen_restores_bucket_count() {
        let mut pg = pager();
        let mut h = HashIndex::create(&mut pg, 2, 8).unwrap();
        h.insert(&mut pg, b"a", b"1").unwrap();
        let h2 = HashIndex::open(&mut pg, 2).unwrap();
        assert_eq!(h2.buckets(), 8);
        assert_eq!(h2.get(&mut pg, b"a").unwrap(), Some(b"1".to_vec()));
    }

    /// A zeroed directory page, a bucket count of 0, one past what the
    /// page holds, or a page of another type: `open` returns the typed
    /// error instead of handing out an index whose first `get` panics.
    #[test]
    fn open_rejects_a_torn_directory() {
        let rejected = |tear: &dyn Fn(&mut [u8])| {
            let mut pg = pager();
            let dir = HashIndex::create(&mut pg, 2, 8).unwrap().dir;
            pg.with_page_mut(dir, tear).unwrap();
            let err = HashIndex::open(&mut pg, 2).unwrap_err();
            matches!(err, StorageError::Corrupt { page, .. } if page == dir)
        };
        let over = HashIndex::max_buckets(&pager()) + 1;
        assert!(rejected(&|buf| buf.fill(0)));
        assert!(rejected(&|buf| SlottedPage::new(buf).set_aux(Some(0))));
        assert!(rejected(&|buf| SlottedPage::new(buf).set_aux(Some(over))));
        assert!(rejected(&|buf| buf[0] = PageType::HashBucket as u8));
    }

    #[test]
    fn bucket_count_is_capped() {
        let mut pg = pager();
        let h = HashIndex::create(&mut pg, 0, 1_000_000).unwrap();
        assert!(h.buckets() <= HashIndex::max_buckets(&pg));
        assert!(h.buckets() >= 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fame_buffer::{BufferPool, ReplacementKind};
    use fame_os::{AllocPolicy, InMemoryDevice};
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The hash index behaves like `HashMap<Vec<u8>, Vec<u8>>`.
        #[test]
        fn behaves_like_hashmap(
            ops in prop::collection::vec(
                (prop::collection::vec(any::<u8>(), 1..8),
                 prop::option::of(prop::collection::vec(any::<u8>(), 0..16))),
                1..150,
            ),
            buckets in 1u32..16,
        ) {
            let dev = InMemoryDevice::new(256);
            let pool = BufferPool::new(
                Box::new(dev),
                ReplacementKind::Lru,
                AllocPolicy::Dynamic { max_frames: Some(64) },
            );
            let mut pg = Pager::open(pool).unwrap();
            let mut h = HashIndex::create(&mut pg, 0, buckets).unwrap();
            let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
            for (key, maybe_val) in ops {
                match maybe_val {
                    Some(v) => {
                        let was_new = h.insert(&mut pg, &key, &v).unwrap();
                        prop_assert_eq!(was_new, model.insert(key, v).is_none());
                    }
                    None => {
                        let removed = h.remove(&mut pg, &key).unwrap();
                        prop_assert_eq!(removed, model.remove(&key).is_some());
                    }
                }
            }
            prop_assert_eq!(h.len(&mut pg).unwrap(), model.len());
            for (k, v) in &model {
                let got = h.get(&mut pg, k).unwrap();
                prop_assert_eq!(got.as_ref(), Some(v));
            }
        }
    }
}
