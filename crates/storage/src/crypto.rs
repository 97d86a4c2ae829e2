//! Encrypted block device: the CRYPTO feature (§2.2, configuration 2 of
//! Figure 1).
//!
//! [`CryptoDevice`] wraps any [`BlockDevice`] and transparently encrypts
//! pages on write / decrypts on read with a per-page tweaked cipher
//! ([`fame_crypto::PageCipher`]). Layering at the device boundary means the
//! whole engine above (pager, buffer pool, every access method) is
//! oblivious to encryption — the defining property of a cleanly
//! modularized crosscutting feature.
//!
//! Convention: an all-zero stored page is treated as "never written" and
//! reads back as zeroes (fresh pages on every backend read as zeroes).
//! CBC encryption of real pages produces an all-zero ciphertext only with
//! negligible probability, which is acceptable for this reproduction.

pub use fame_crypto::PageCipher;

use fame_os::{BlockDevice, DeviceStats, OsError, PageId};

/// A [`BlockDevice`] that encrypts at rest.
pub struct CryptoDevice<D: BlockDevice> {
    inner: D,
    cipher: PageCipher,
}

impl<D: BlockDevice> CryptoDevice<D> {
    /// Wrap `inner`, encrypting with the given 128-bit key.
    pub fn new(inner: D, key: &[u8; 16]) -> Self {
        CryptoDevice {
            inner,
            cipher: PageCipher::new(key),
        }
    }

    /// Access the wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: BlockDevice> BlockDevice for CryptoDevice<D> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<(), OsError> {
        self.inner.read_page(page, buf)?;
        if buf.iter().any(|&b| b != 0) {
            self.cipher.decrypt_page(page, buf);
        }
        Ok(())
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<(), OsError> {
        let mut ct = buf.to_vec();
        self.cipher.encrypt_page(page, &mut ct);
        self.inner.write_page(page, &ct)
    }

    fn ensure_pages(&mut self, pages: u32) -> Result<(), OsError> {
        self.inner.ensure_pages(pages)
    }

    fn sync(&mut self) -> Result<(), OsError> {
        self.inner.sync()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fame_os::InMemoryDevice;

    const KEY: &[u8; 16] = b"fame-dbms-key-16";

    #[test]
    fn round_trip_through_encryption() {
        let mut d = CryptoDevice::new(InMemoryDevice::new(128), KEY);
        d.ensure_pages(2).unwrap();
        let data = vec![0x42u8; 128];
        d.write_page(1, &data).unwrap();
        let mut out = vec![0; 128];
        d.read_page(1, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn at_rest_bytes_are_ciphertext() {
        let mut inner = InMemoryDevice::new(128);
        inner.ensure_pages(1).unwrap();
        let mut d = CryptoDevice::new(inner, KEY);
        let data = vec![0x42u8; 128];
        d.write_page(0, &data).unwrap();
        let mut raw = vec![0; 128];
        d.inner().stats(); // keep inner alive
                           // Read the raw stored bytes via the inner device.
        let inner = d.into_inner();
        let mut inner = inner;
        inner.read_page(0, &mut raw).unwrap();
        assert_ne!(raw, data, "plaintext must not be stored");
    }

    #[test]
    fn fresh_pages_read_zero() {
        let mut d = CryptoDevice::new(InMemoryDevice::new(128), KEY);
        d.ensure_pages(1).unwrap();
        let mut out = vec![9u8; 128];
        d.read_page(0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn wrong_key_garbles() {
        let mut inner = InMemoryDevice::new(128);
        inner.ensure_pages(1).unwrap();
        let mut d = CryptoDevice::new(inner, KEY);
        let data = vec![7u8; 128];
        d.write_page(0, &data).unwrap();
        let mut other = CryptoDevice::new(d.into_inner(), b"a-different-key!");
        let mut out = vec![0; 128];
        other.read_page(0, &mut out).unwrap();
        assert_ne!(out, data);
    }

    #[test]
    fn full_pager_stack_works_encrypted() {
        use crate::pager::Pager;
        use fame_buffer::{BufferPool, ReplacementKind};
        use fame_os::AllocPolicy;

        let dev = CryptoDevice::new(InMemoryDevice::new(256), KEY);
        let pool = BufferPool::new(
            Box::new(dev),
            ReplacementKind::Lru,
            AllocPolicy::Dynamic {
                max_frames: Some(8),
            },
        );
        let mut pager = Pager::open(pool).unwrap();
        let pg = pager.allocate(crate::PageType::Heap, |_| {}).unwrap();
        pager
            .with_page_mut(pg, |buf| buf[0..4].copy_from_slice(b"data"))
            .unwrap();
        pager.sync().unwrap();
        let read = pager.with_page(pg, |buf| buf[0..4].to_vec()).unwrap();
        assert_eq!(&read, b"data");
    }

    #[cfg(feature = "btree")]
    #[test]
    fn btree_over_encrypted_device() {
        use crate::btree::BTree;
        use crate::pager::Pager;
        use fame_buffer::{BufferPool, ReplacementKind};
        use fame_os::AllocPolicy;

        let dev = CryptoDevice::new(InMemoryDevice::new(256), KEY);
        // A tiny pool forces evictions, exercising decrypt-on-refetch.
        let pool = BufferPool::new(
            Box::new(dev),
            ReplacementKind::Lru,
            AllocPolicy::Static { frames: 2 },
        );
        let mut pager = Pager::open(pool).unwrap();
        let mut t = BTree::create(&mut pager, 0).unwrap();
        for i in 0..200u32 {
            t.insert(&mut pager, &i.to_be_bytes(), &[i as u8; 8])
                .unwrap();
        }
        for i in 0..200u32 {
            assert_eq!(
                t.get(&mut pager, &i.to_be_bytes()).unwrap(),
                Some(vec![i as u8; 8])
            );
        }
    }
}
