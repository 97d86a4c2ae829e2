//! `std::fs` block device — the Linux/Win32 port of the OS abstraction.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::device::{check_buf, check_range, BlockDevice, DeviceStats, PageId, Result};

/// A block device stored in a single file. Pages are laid out contiguously;
/// the file length is always `num_pages * page_size`.
#[derive(Debug)]
pub struct FileDevice {
    file: File,
    page_size: usize,
    num_pages: u32,
    stats: DeviceStats,
    // pread-style reads go through `&self`; counted separately.
    shared_reads: AtomicU64,
}

impl FileDevice {
    /// Create (truncate) a device file.
    pub fn create(path: impl AsRef<Path>, page_size: usize) -> Result<Self> {
        assert!(page_size >= 64, "page size must be at least 64 bytes");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileDevice {
            file,
            page_size,
            num_pages: 0,
            stats: DeviceStats::default(),
            shared_reads: AtomicU64::new(0),
        })
    }

    /// Open an existing device file; its length must be a whole number of
    /// pages of the given size.
    pub fn open(path: impl AsRef<Path>, page_size: usize) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        assert_eq!(
            len % page_size as u64,
            0,
            "file length {len} is not a multiple of page size {page_size}"
        );
        Ok(FileDevice {
            file,
            page_size,
            num_pages: (len / page_size as u64) as u32,
            stats: DeviceStats::default(),
            shared_reads: AtomicU64::new(0),
        })
    }

    fn offset(&self, page: PageId) -> u64 {
        page as u64 * self.page_size as u64
    }

    /// Positional read: one `pread` on unix, seek + read elsewhere.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        return std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset);
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = &self.file;
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)
        }
    }

    /// Positional write: one `pwrite` on unix, seek + write elsewhere.
    fn write_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        return std::os::unix::fs::FileExt::write_all_at(&self.file, buf, offset);
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut file = &self.file;
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(buf)
        }
    }
}

impl BlockDevice for FileDevice {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        check_buf(self.page_size, buf.len())?;
        check_range(page, self.num_pages)?;
        self.read_at(buf, self.offset(page))?;
        self.stats.reads += 1;
        Ok(())
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        check_buf(self.page_size, buf.len())?;
        check_range(page, self.num_pages)?;
        self.write_at(buf, self.offset(page))?;
        self.stats.writes += 1;
        Ok(())
    }

    fn ensure_pages(&mut self, pages: u32) -> Result<()> {
        if pages > self.num_pages {
            self.file.set_len(pages as u64 * self.page_size as u64)?;
            self.num_pages = pages;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.stats.syncs += 1;
        Ok(())
    }

    fn supports_shared_read(&self) -> bool {
        cfg!(unix)
    }

    #[cfg(unix)]
    fn read_page_at(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        check_buf(self.page_size, buf.len())?;
        check_range(page, self.num_pages)?;
        self.read_at(buf, self.offset(page))?;
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

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fame-os-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn create_write_read() {
        let path = tmp("cwr");
        let mut d = FileDevice::create(&path, 128).unwrap();
        d.ensure_pages(3).unwrap();
        let data = vec![0x5A; 128];
        d.write_page(2, &data).unwrap();
        let mut out = vec![0; 128];
        d.read_page(2, &mut out).unwrap();
        assert_eq!(out, data);
        d.sync().unwrap();
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn reopen_persists() {
        let path = tmp("reopen");
        {
            let mut d = FileDevice::create(&path, 128).unwrap();
            d.ensure_pages(2).unwrap();
            d.write_page(1, &[9u8; 128]).unwrap();
            d.sync().unwrap();
        }
        {
            let mut d = FileDevice::open(&path, 128).unwrap();
            assert_eq!(d.num_pages(), 2);
            let mut out = vec![0; 128];
            d.read_page(1, &mut out).unwrap();
            assert_eq!(out, vec![9u8; 128]);
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn grown_pages_read_as_zero() {
        let path = tmp("zero");
        let mut d = FileDevice::create(&path, 128).unwrap();
        d.ensure_pages(2).unwrap();
        let mut out = vec![1u8; 128];
        d.read_page(1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        std::fs::remove_file(path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn positional_read_sees_exclusive_writes() {
        let path = tmp("pread");
        let mut d = FileDevice::create(&path, 128).unwrap();
        d.ensure_pages(3).unwrap();
        d.write_page(2, &[0x77; 128]).unwrap();
        assert!(d.supports_shared_read());
        let mut out = vec![0; 128];
        d.read_page_at(2, &mut out).unwrap();
        assert_eq!(out, vec![0x77; 128]);
        // Shared and exclusive reads see the same bytes.
        let mut out2 = vec![0; 128];
        d.read_page(2, &mut out2).unwrap();
        assert_eq!(out2, vec![0x77; 128]);
        assert_eq!(d.stats().reads, 2);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn out_of_range_rejected() {
        let path = tmp("oor");
        let mut d = FileDevice::create(&path, 128).unwrap();
        let mut out = vec![0; 128];
        assert!(d.read_page(0, &mut out).is_err());
        std::fs::remove_file(path).unwrap();
    }
}
