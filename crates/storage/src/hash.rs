//! Hash index: Berkeley DB's HASH access method (configuration 3 of
//! Figure 1 removes it).
//!
//! A directory page holds the bucket head pointers; each bucket is a
//! `chain` of slotted pages holding `[klen:u16][key][value]` cells.
//! Lookups hash the key (FNV-1a, implemented here — no external crates),
//! pick the bucket, and walk its chain. The bucket count is fixed at
//! creation; overflow pages absorb skew, which matches the static-hash
//! designs used on small devices.

use fame_os::PageId;

use crate::chain::Chain;
use crate::error::{Result, StorageError};
use crate::page::{get_u32, PageType, PageView, PAGE_HEADER_SIZE};
use crate::pager::{PageRead, Pager};

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
        let dir = pager.allocate(PageType::HashDir, |p| p.set_aux(Some(buckets)))?;
        // The bucket heads follow the directory, then the directory
        // records them.
        let heads = (0..buckets)
            .map(|_| Ok(Chain::create(pager, PageType::HashBucket)?.head))
            .collect::<Result<Vec<_>>>()?;
        pager.with_page_mut(dir, |buf| {
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
        // A torn or zeroed directory must not reach `bucket`: a count of
        // 0 divides by zero there, a too-large one indexes past the page.
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
        Chain::max_cell(pager)
    }

    /// The chain of bucket `b`, read from the directory.
    fn bucket<P: PageRead>(&self, pager: &mut P, b: u32) -> Result<Chain> {
        let head = pager.with_page(self.dir, |buf| {
            get_u32(buf, PAGE_HEADER_SIZE + 4 * b as usize)
        })?;
        Ok(Chain {
            head,
            ty: PageType::HashBucket,
        })
    }

    /// The chain `key` hashes to.
    fn chain_of<P: PageRead>(&self, pager: &mut P, key: &[u8]) -> Result<Chain> {
        self.bucket(pager, (fnv1a(key) % u64::from(self.buckets)) as u32)
    }

    /// Insert or overwrite. Returns `true` when the key was new.
    pub fn insert(&mut self, pager: &mut Pager, key: &[u8], value: &[u8]) -> Result<bool> {
        self.chain_of(pager, key)?.upsert(pager, key, value)
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
        self.chain_of(pager, key)?.get_with(pager, key, f)
    }

    /// Remove a key. Returns `true` if it existed.
    pub fn remove(&mut self, pager: &mut Pager, key: &[u8]) -> Result<bool> {
        self.chain_of(pager, key)?.remove(pager, key)
    }

    /// Number of entries (walks every bucket chain).
    pub fn len(&self, pager: &mut Pager) -> Result<usize> {
        let mut total = 0;
        for b in 0..self.buckets {
            total += self.bucket(pager, b)?.len(pager)?;
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
    use crate::page::SlottedPage;
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
