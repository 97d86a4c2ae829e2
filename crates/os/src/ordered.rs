//! Ordered-write device decorator: the write-ahead rule at the device
//! boundary.
//!
//! A log that buffers its tail in memory no longer reaches its device on
//! every append, so *something* must make sure a log record is on the log
//! device before the data page it describes is on the data device.
//! [`OrderedDevice`] is that something: it runs a caller-supplied barrier
//! before every `write_page` and refuses the write if the barrier fails.
//! Sitting at the device, it covers every way a page can leave memory —
//! eviction by a writer, eviction by a reader thread's miss, the
//! unbuffered pager, a flush, a pool destructor — without the layers
//! above knowing it exists.

use crate::device::{BlockDevice, DeviceStats, PageId, Result};

/// A [`BlockDevice`] decorator that calls `before_write` ahead of every
/// page write. Reads, growth and syncs pass straight through.
pub struct OrderedDevice<D, F> {
    inner: D,
    before_write: F,
}

impl<D: BlockDevice, F: Fn() -> Result<()> + Send + Sync> OrderedDevice<D, F> {
    /// Wrap `inner`; no page reaches it unless `before_write` returned
    /// `Ok` first.
    pub fn new(inner: D, before_write: F) -> Self {
        OrderedDevice {
            inner,
            before_write,
        }
    }
}

impl<D: BlockDevice, F: Fn() -> Result<()> + Send + Sync> BlockDevice for OrderedDevice<D, F> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        self.inner.read_page(page, buf)
    }

    fn supports_shared_read(&self) -> bool {
        self.inner.supports_shared_read()
    }

    fn read_page_at(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        self.inner.read_page_at(page, buf)
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        (self.before_write)()?;
        self.inner.write_page(page, buf)
    }

    fn ensure_pages(&mut self, pages: u32) -> Result<()> {
        self.inner.ensure_pages(pages)
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

#[cfg(all(test, feature = "inmem"))]
mod tests {
    use super::*;
    use crate::device::OsError;
    use crate::memory::InMemoryDevice;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn barrier_runs_before_every_write_and_only_writes() {
        let calls = AtomicU64::new(0);
        let boxed: Box<dyn BlockDevice> = Box::new(InMemoryDevice::new(64));
        let mut dev = OrderedDevice::new(boxed, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        dev.ensure_pages(2).unwrap();
        let mut buf = vec![7u8; 64];
        dev.write_page(0, &buf).unwrap();
        dev.write_page(1, &buf).unwrap();
        dev.read_page(1, &mut buf).unwrap();
        assert!(dev.supports_shared_read());
        dev.read_page_at(0, &mut buf).unwrap();
        dev.sync().unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(dev.stats().writes, 2);
        assert_eq!((dev.page_size(), dev.num_pages()), (64, 2));
    }

    #[test]
    fn a_failed_barrier_keeps_the_page_off_the_device() {
        let down = AtomicBool::new(true);
        let mut dev = OrderedDevice::new(InMemoryDevice::new(64), || {
            if down.load(Ordering::Relaxed) {
                Err(OsError::Io("log device offline".into()))
            } else {
                Ok(())
            }
        });
        dev.ensure_pages(1).unwrap();
        assert!(dev.write_page(0, &[1u8; 64]).is_err());
        assert_eq!(dev.stats().writes, 0, "the data write never happened");
        down.store(false, Ordering::Relaxed);
        dev.write_page(0, &[1u8; 64]).unwrap();
        assert_eq!(dev.stats().writes, 1);
    }
}
