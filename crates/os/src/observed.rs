//! Latency-observing device wrapper (feature *Statistics*).
//!
//! [`ObservedDevice`] decorates any [`BlockDevice`] and records the wall
//! time of every read, write and sync into shared [`IoTiming`]
//! histograms. The wrapper exists only in products composed with the
//! `obs` feature; other products call the inner device directly, so the
//! unobserved path is byte-identical with or without this module.

use std::sync::Arc;

use fame_obs::{monotonic_ns, Histogram, HistogramSnapshot};

use crate::device::{BlockDevice, DeviceStats, PageId, Result};

/// Histograms of device-operation latency, shared between the wrapper
/// (writer) and whoever reports statistics (reader).
#[derive(Debug, Default)]
pub struct IoTiming {
    /// Page-read latency (both exclusive and shared reads).
    pub read: Histogram,
    /// Page-write latency.
    pub write: Histogram,
    /// Durability-barrier latency.
    pub sync: Histogram,
}

/// A point-in-time copy of [`IoTiming`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTimingSnapshot {
    pub read: HistogramSnapshot,
    pub write: HistogramSnapshot,
    pub sync: HistogramSnapshot,
}

impl IoTiming {
    pub fn snapshot(&self) -> IoTimingSnapshot {
        IoTimingSnapshot {
            read: self.read.snapshot(),
            write: self.write.snapshot(),
            sync: self.sync.snapshot(),
        }
    }
}

/// A [`BlockDevice`] decorator that times every operation.
pub struct ObservedDevice {
    inner: Box<dyn BlockDevice>,
    timing: Arc<IoTiming>,
}

impl ObservedDevice {
    /// Wrap `inner`, recording into a fresh [`IoTiming`].
    pub fn new(inner: Box<dyn BlockDevice>) -> Self {
        Self::with_timing(inner, Arc::new(IoTiming::default()))
    }

    /// Wrap `inner`, recording into an existing [`IoTiming`] (so several
    /// devices — data, log — can share one set of histograms or keep
    /// separate ones, caller's choice).
    fn with_timing(inner: Box<dyn BlockDevice>, timing: Arc<IoTiming>) -> Self {
        ObservedDevice { inner, timing }
    }

    /// Handle onto the histograms this wrapper records into.
    pub fn timing(&self) -> Arc<IoTiming> {
        Arc::clone(&self.timing)
    }
}

impl BlockDevice for ObservedDevice {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        let t0 = monotonic_ns();
        let r = self.inner.read_page(page, buf);
        self.timing.read.record_ns(monotonic_ns() - t0);
        r
    }

    fn supports_shared_read(&self) -> bool {
        self.inner.supports_shared_read()
    }

    fn read_page_at(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        let t0 = monotonic_ns();
        let r = self.inner.read_page_at(page, buf);
        self.timing.read.record_ns(monotonic_ns() - t0);
        r
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        let t0 = monotonic_ns();
        let r = self.inner.write_page(page, buf);
        self.timing.write.record_ns(monotonic_ns() - t0);
        r
    }

    fn ensure_pages(&mut self, pages: u32) -> Result<()> {
        self.inner.ensure_pages(pages)
    }

    fn sync(&mut self) -> Result<()> {
        let t0 = monotonic_ns();
        let r = self.inner.sync();
        self.timing.sync.record_ns(monotonic_ns() - t0);
        r
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

#[cfg(all(test, feature = "inmem"))]
mod tests {
    use super::*;
    use crate::memory::InMemoryDevice;

    fn observed(pages: u32) -> ObservedDevice {
        let mut dev = InMemoryDevice::new(64);
        dev.ensure_pages(pages).unwrap();
        ObservedDevice::new(Box::new(dev))
    }

    #[test]
    fn records_one_sample_per_operation() {
        let mut dev = observed(4);
        let mut buf = vec![0u8; 64];
        dev.write_page(0, &buf).unwrap();
        dev.read_page(0, &mut buf).unwrap();
        dev.read_page(1, &mut buf).unwrap();
        dev.sync().unwrap();
        let t = dev.timing();
        assert_eq!(t.read.count(), 2);
        assert_eq!(t.write.count(), 1);
        assert_eq!(t.sync.count(), 1);
    }

    #[test]
    fn failed_operations_are_still_timed() {
        let mut dev = observed(1);
        let mut buf = vec![0u8; 64];
        assert!(dev.read_page(9, &mut buf).is_err());
        assert_eq!(dev.timing().read.count(), 1);
    }

    #[test]
    fn passes_device_behaviour_through() {
        let mut dev = observed(2);
        let buf = vec![7u8; 64];
        dev.write_page(1, &buf).unwrap();
        let mut back = vec![0u8; 64];
        dev.read_page(1, &mut back).unwrap();
        assert_eq!(back, buf);
        assert_eq!(dev.page_size(), 64);
        assert_eq!(dev.num_pages(), 2);
        assert_eq!(dev.stats().writes, 1);
        assert!(dev.supports_shared_read());
        dev.read_page_at(1, &mut back).unwrap();
        assert_eq!(dev.timing().read.count(), 2);
    }
}
