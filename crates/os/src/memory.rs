//! RAM-backed block device: the default target for tests and benchmarks.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::device::{check_buf, check_range, BlockDevice, DeviceStats, OsError, PageId, Result};

/// A growable in-memory device. `capacity_pages` optionally caps growth to
/// model a fixed-size embedded medium.
#[derive(Debug)]
pub struct InMemoryDevice {
    page_size: usize,
    pages: Vec<Box<[u8]>>,
    capacity_pages: Option<u32>,
    stats: DeviceStats,
    // Reads through `&self` can race each other, so they count separately.
    shared_reads: AtomicU64,
}

impl InMemoryDevice {
    /// Create an empty device with the given page size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= 64, "page size must be at least 64 bytes");
        InMemoryDevice {
            page_size,
            pages: Vec::new(),
            capacity_pages: None,
            stats: DeviceStats::default(),
            shared_reads: AtomicU64::new(0),
        }
    }

    /// Create a device that refuses to grow beyond `capacity_pages`.
    pub fn with_capacity(page_size: usize, capacity_pages: u32) -> Self {
        let mut d = Self::new(page_size);
        d.capacity_pages = Some(capacity_pages);
        d
    }

    /// Bytes currently held (pages * page size) — the RAM-footprint metric
    /// used by NFP reports.
    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        self.pages.len() * self.page_size
    }
}

impl BlockDevice for InMemoryDevice {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        check_buf(self.page_size, buf.len())?;
        check_range(page, self.num_pages())?;
        buf.copy_from_slice(&self.pages[page as usize]);
        self.stats.reads += 1;
        Ok(())
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        check_buf(self.page_size, buf.len())?;
        check_range(page, self.num_pages())?;
        self.pages[page as usize].copy_from_slice(buf);
        self.stats.writes += 1;
        Ok(())
    }

    fn ensure_pages(&mut self, pages: u32) -> Result<()> {
        if let Some(cap) = self.capacity_pages {
            if pages > cap {
                return Err(OsError::DeviceFull {
                    capacity_pages: cap,
                });
            }
        }
        while self.pages.len() < pages as usize {
            self.pages
                .push(vec![0u8; self.page_size].into_boxed_slice());
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.stats.syncs += 1;
        Ok(())
    }

    fn supports_shared_read(&self) -> bool {
        true
    }

    fn read_page_at(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        check_buf(self.page_size, buf.len())?;
        check_range(page, self.num_pages())?;
        buf.copy_from_slice(&self.pages[page as usize]);
        self.shared_reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        let mut s = self.stats;
        s.reads += self.shared_reads.load(Ordering::Relaxed);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut d = InMemoryDevice::new(128);
        d.ensure_pages(2).unwrap();
        let data = vec![0xAB; 128];
        d.write_page(1, &data).unwrap();
        let mut out = vec![0; 128];
        d.read_page(1, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn fresh_pages_are_zeroed() {
        let mut d = InMemoryDevice::new(128);
        d.ensure_pages(1).unwrap();
        let mut out = vec![7; 128];
        d.read_page(0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = InMemoryDevice::new(128);
        let mut buf = vec![0; 128];
        assert!(matches!(
            d.read_page(0, &mut buf),
            Err(OsError::OutOfRange { .. })
        ));
    }

    #[test]
    fn wrong_buffer_size_rejected() {
        let mut d = InMemoryDevice::new(128);
        d.ensure_pages(1).unwrap();
        let mut small = vec![0; 64];
        assert!(matches!(
            d.read_page(0, &mut small),
            Err(OsError::BadBufferSize { .. })
        ));
    }

    #[test]
    fn capacity_cap_enforced() {
        let mut d = InMemoryDevice::with_capacity(128, 4);
        assert!(d.ensure_pages(4).is_ok());
        assert!(matches!(
            d.ensure_pages(5),
            Err(OsError::DeviceFull { capacity_pages: 4 })
        ));
    }

    #[test]
    fn ensure_pages_is_monotone_noop() {
        let mut d = InMemoryDevice::new(128);
        d.ensure_pages(3).unwrap();
        d.ensure_pages(1).unwrap(); // no shrink
        assert_eq!(d.num_pages(), 3);
    }

    #[test]
    fn stats_count_operations() {
        let mut d = InMemoryDevice::new(128);
        d.ensure_pages(1).unwrap();
        let buf = vec![0; 128];
        let mut out = vec![0; 128];
        d.write_page(0, &buf).unwrap();
        d.read_page(0, &mut out).unwrap();
        d.read_page(0, &mut out).unwrap();
        d.sync().unwrap();
        let s = d.stats();
        assert_eq!((s.reads, s.writes, s.syncs, s.erases), (2, 1, 1, 0));
    }

    #[test]
    fn shared_reads_match_exclusive_reads() {
        let mut d = InMemoryDevice::new(128);
        d.ensure_pages(2).unwrap();
        d.write_page(1, &[0x42; 128]).unwrap();
        assert!(d.supports_shared_read());
        let mut out = vec![0; 128];
        d.read_page_at(1, &mut out).unwrap();
        assert_eq!(out, vec![0x42; 128]);
        assert!(matches!(
            d.read_page_at(7, &mut out),
            Err(OsError::OutOfRange { .. })
        ));
        assert_eq!(d.stats().reads, 1, "shared reads fold into the counter");
    }

    #[test]
    fn resident_bytes_tracks_growth() {
        let mut d = InMemoryDevice::new(256);
        assert_eq!(d.resident_bytes(), 0);
        d.ensure_pages(4).unwrap();
        assert_eq!(d.resident_bytes(), 1024);
    }
}
