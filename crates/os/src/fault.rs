//! Fault injection: wrap any [`BlockDevice`] and make it fail on demand.
//!
//! Crash-recovery code is only trustworthy if it is tested against actual
//! failures. [`FaultDevice`] injects the classic storage failure modes:
//!
//! * hard I/O errors after a countdown of writes ([`FaultPlan::fail_after_writes`])
//!   or syncs ([`FaultPlan::fail_after_syncs`]);
//! * *torn writes* — a crash mid-page persists only a prefix of the new
//!   bytes, at an arbitrary offset ([`FaultPlan::tear_offset`]);
//! * bad sectors that fail reads ([`FaultPlan::bad_page`]).
//!
//! Two durability models are supported:
//!
//! * **write-through** ([`FaultDevice::new`]): every accepted write reaches
//!   the inner device immediately. This models media with no volatile cache
//!   and is what most unit tests want.
//! * **write-back** ([`FaultDevice::write_back`]): accepted writes are
//!   staged in a volatile cache and reach the inner device only on a
//!   successful `sync()`. A crash (trip) drops everything staged since the
//!   last barrier — exactly the model under which write-ahead-logging
//!   ordering bugs become observable.
//!
//! For multi-crash experiments a queue of follow-up plans can be installed
//! (`push_plan`, so far used only by this module's tests); each
//! [`FaultDevice::heal`] arms the next one, so a schedule like "crash during
//! recovery from the first crash" survives the heal that separates the two
//! crashes.

use std::collections::{BTreeMap, VecDeque};

use crate::device::{BlockDevice, DeviceStats, OsError, PageId, Result};

/// What to inject and when. Counters tick on successful operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Fail every operation after this many successful writes.
    pub fail_after_writes: Option<u64>,
    /// On the failing write, persist a torn page (a prefix of the new
    /// bytes over the old durable content) instead of failing cleanly.
    pub tear_final_write: bool,
    /// How many bytes of the new page make it to the media on a torn
    /// write. Defaults to half a page when only `tear_final_write` is set;
    /// setting it implies tearing.
    pub tear_offset: Option<usize>,
    /// Fail every operation after this many successful syncs (the
    /// `Some(0)` form makes the very next sync fail: "fail on sync").
    pub fail_after_syncs: Option<u64>,
    /// On a failing sync in write-back mode, persist only the first N
    /// staged pages (in page-id order) before going down — a partial
    /// barrier, as when power dies mid cache flush.
    pub sync_keep: Option<usize>,
    /// Fail reads of this page with an I/O error (bad sector).
    pub bad_page: Option<PageId>,
}

impl FaultPlan {
    fn tears(&self) -> bool {
        self.tear_final_write || self.tear_offset.is_some()
    }
}

/// A [`BlockDevice`] wrapper that injects failures per a [`FaultPlan`].
pub struct FaultDevice<D: BlockDevice> {
    inner: D,
    plan: FaultPlan,
    /// Plans armed by subsequent [`FaultDevice::heal`] calls, in order.
    schedule: VecDeque<FaultPlan>,
    writes_done: u64,
    syncs_done: u64,
    /// Once tripped, every subsequent operation fails (the device is
    /// "powered off") until [`FaultDevice::heal`] is called.
    tripped: bool,
    /// Write-back mode: accepted writes stay here until a successful sync.
    write_back: bool,
    staged: BTreeMap<PageId, Vec<u8>>,
    stats: DeviceStats,
}

impl<D: BlockDevice> FaultDevice<D> {
    /// Wrap a device with a fault plan (write-through durability model).
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        FaultDevice {
            inner,
            plan,
            schedule: VecDeque::new(),
            writes_done: 0,
            syncs_done: 0,
            tripped: false,
            write_back: false,
            staged: BTreeMap::new(),
            stats: DeviceStats::default(),
        }
    }

    /// Wrap a device with a fault plan, staging writes in a volatile cache
    /// that only a successful `sync()` flushes to the inner device. A crash
    /// loses everything staged since the last barrier.
    pub fn write_back(inner: D, plan: FaultPlan) -> Self {
        let mut d = FaultDevice::new(inner, plan);
        d.write_back = true;
        d
    }

    /// Whether the failure has been triggered.
    #[cfg(test)]
    fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// Successful writes accepted so far (crash-point sweeps size their
    /// schedules from a fault-free recording run via this counter).
    pub fn writes_done(&self) -> u64 {
        self.writes_done
    }

    /// Successful durability barriers so far.
    pub fn syncs_done(&self) -> u64 {
        self.syncs_done
    }

    /// The currently armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Replace the currently armed plan without touching counters.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Queue a plan to be armed by a future [`FaultDevice::heal`]. Plans
    /// arm in FIFO order; once the queue is empty, heal installs the
    /// benign default plan.
    #[cfg(test)]
    fn push_plan(&mut self, plan: FaultPlan) {
        self.schedule.push_back(plan);
    }

    /// Pull the plug right now: trip the device and drop the volatile
    /// cache, regardless of plan counters. Used by harnesses to make sure
    /// nothing (e.g. a buffer-pool destructor) can write after the
    /// simulated power loss.
    pub fn trip_now(&mut self) {
        self.tripped = true;
        self.staged.clear();
    }

    /// Clear the failure state and arm the next scheduled plan (or the
    /// benign default): simulates the system coming back up after the
    /// crash, with the data as the *durable* media last saw it. The
    /// volatile cache and the operation counters reset.
    pub fn heal(&mut self) {
        self.tripped = false;
        self.staged.clear();
        self.writes_done = 0;
        self.syncs_done = 0;
        self.plan = self.schedule.pop_front().unwrap_or_default();
    }

    /// Access the wrapped device (e.g. to inspect flash wear).
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwrap the device.
    pub fn into_inner(self) -> D {
        self.inner
    }

    fn check_tripped(&self) -> Result<()> {
        if self.tripped {
            Err(OsError::Io("injected fault: device offline".into()))
        } else {
            Ok(())
        }
    }

    /// Persist a torn prefix of `buf` over the old durable content.
    fn tear_into_inner(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        let ps = self.inner.page_size();
        let off = self
            .plan
            .tear_offset
            .unwrap_or(ps / 2)
            .min(ps)
            .min(buf.len());
        let mut torn = vec![0u8; ps];
        self.inner.read_page(page, &mut torn)?;
        torn[..off].copy_from_slice(&buf[..off]);
        self.inner.write_page(page, &torn)
    }
}

impl<D: BlockDevice> BlockDevice for FaultDevice<D> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        self.check_tripped()?;
        if self.plan.bad_page == Some(page) {
            return Err(OsError::Io(format!("injected fault: bad sector {page}")));
        }
        if self.write_back {
            if let Some(staged) = self.staged.get(&page) {
                if buf.len() != staged.len() {
                    return Err(OsError::BadBufferSize {
                        expected: staged.len(),
                        got: buf.len(),
                    });
                }
                buf.copy_from_slice(staged);
                self.stats.reads += 1;
                return Ok(());
            }
        }
        self.inner.read_page(page, buf)?;
        self.stats.reads += 1;
        Ok(())
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        self.check_tripped()?;
        if let Some(limit) = self.plan.fail_after_writes {
            if self.writes_done >= limit {
                self.tripped = true;
                if self.plan.tears() {
                    self.tear_into_inner(page, buf)?;
                }
                self.staged.clear();
                return Err(OsError::Io("injected fault: power loss on write".into()));
            }
        }
        if self.write_back {
            // Validate against the real device before accepting into the
            // cache, so errors surface at the same point as write-through.
            if buf.len() != self.inner.page_size() {
                return Err(OsError::BadBufferSize {
                    expected: self.inner.page_size(),
                    got: buf.len(),
                });
            }
            if page >= self.inner.num_pages() {
                return Err(OsError::OutOfRange {
                    page,
                    pages: self.inner.num_pages(),
                });
            }
            self.staged.insert(page, buf.to_vec());
        } else {
            self.inner.write_page(page, buf)?;
        }
        self.writes_done += 1;
        self.stats.writes += 1;
        Ok(())
    }

    fn ensure_pages(&mut self, pages: u32) -> Result<()> {
        self.check_tripped()?;
        self.inner.ensure_pages(pages)
    }

    fn sync(&mut self) -> Result<()> {
        self.check_tripped()?;
        if let Some(limit) = self.plan.fail_after_syncs {
            if self.syncs_done >= limit {
                self.tripped = true;
                if let Some(keep) = self.plan.sync_keep {
                    // Partial barrier: the first `keep` staged pages (in
                    // page-id order) reach the media before power dies.
                    let staged = std::mem::take(&mut self.staged);
                    for (page, buf) in staged.into_iter().take(keep) {
                        self.inner.write_page(page, &buf)?;
                    }
                } else {
                    self.staged.clear();
                }
                return Err(OsError::Io("injected fault: power loss on sync".into()));
            }
        }
        let staged = std::mem::take(&mut self.staged);
        for (page, buf) in staged {
            self.inner.write_page(page, &buf)?;
        }
        self.inner.sync()?;
        self.syncs_done += 1;
        self.stats.syncs += 1;
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        // Logical view: reads/writes/syncs the engine performed against
        // this device (staged writes included), erases from the media.
        DeviceStats {
            reads: self.stats.reads,
            writes: self.stats.writes,
            syncs: self.stats.syncs,
            erases: self.inner.stats().erases,
        }
    }
}

#[cfg(all(test, feature = "inmem"))]
mod tests {
    use super::*;
    use crate::memory::InMemoryDevice;

    #[test]
    fn passes_through_without_plan() {
        let mut d = FaultDevice::new(InMemoryDevice::new(128), FaultPlan::default());
        d.ensure_pages(1).unwrap();
        d.write_page(0, &[1u8; 128]).unwrap();
        let mut out = vec![0; 128];
        d.read_page(0, &mut out).unwrap();
        assert_eq!(out, vec![1u8; 128]);
        assert!(!d.is_tripped());
        assert_eq!(d.writes_done(), 1);
    }

    #[test]
    fn fails_after_n_writes_and_stays_down() {
        let plan = FaultPlan {
            fail_after_writes: Some(2),
            ..Default::default()
        };
        let mut d = FaultDevice::new(InMemoryDevice::new(128), plan);
        d.ensure_pages(4).unwrap();
        let buf = vec![1u8; 128];
        d.write_page(0, &buf).unwrap();
        d.write_page(1, &buf).unwrap();
        assert!(d.write_page(2, &buf).is_err());
        assert!(d.is_tripped());
        // Everything fails now, including reads and sync.
        let mut out = vec![0; 128];
        assert!(d.read_page(0, &mut out).is_err());
        assert!(d.sync().is_err());
    }

    #[test]
    fn heal_brings_device_back_with_old_data() {
        let plan = FaultPlan {
            fail_after_writes: Some(1),
            ..Default::default()
        };
        let mut d = FaultDevice::new(InMemoryDevice::new(128), plan);
        d.ensure_pages(2).unwrap();
        d.write_page(0, &[7u8; 128]).unwrap();
        assert!(d.write_page(1, &[8u8; 128]).is_err());
        d.heal();
        let mut out = vec![0; 128];
        d.read_page(0, &mut out).unwrap();
        assert_eq!(out, vec![7u8; 128]); // survived
        d.read_page(1, &mut out).unwrap();
        assert_eq!(out, vec![0u8; 128]); // never written
    }

    #[test]
    fn torn_write_leaves_half_page() {
        let plan = FaultPlan {
            fail_after_writes: Some(0),
            tear_final_write: true,
            ..Default::default()
        };
        let mut inner = InMemoryDevice::new(128);
        inner.ensure_pages(1).unwrap();
        inner.write_page(0, &[0xAAu8; 128]).unwrap();
        let mut d = FaultDevice::new(inner, plan);
        assert!(d.write_page(0, &[0xBBu8; 128]).is_err());
        d.heal();
        let mut out = vec![0; 128];
        d.read_page(0, &mut out).unwrap();
        assert!(out[..64].iter().all(|&b| b == 0xBB), "new first half");
        assert!(out[64..].iter().all(|&b| b == 0xAA), "old second half");
    }

    #[test]
    fn torn_write_at_arbitrary_offset() {
        for off in [1usize, 7, 100, 127, 128] {
            let plan = FaultPlan {
                fail_after_writes: Some(0),
                tear_offset: Some(off),
                ..Default::default()
            };
            let mut inner = InMemoryDevice::new(128);
            inner.ensure_pages(1).unwrap();
            inner.write_page(0, &[0xAAu8; 128]).unwrap();
            let mut d = FaultDevice::new(inner, plan);
            assert!(d.write_page(0, &[0xBBu8; 128]).is_err());
            d.heal();
            let mut out = vec![0; 128];
            d.read_page(0, &mut out).unwrap();
            assert!(out[..off].iter().all(|&b| b == 0xBB), "new prefix {off}");
            assert!(out[off..].iter().all(|&b| b == 0xAA), "old suffix {off}");
        }
    }

    #[test]
    fn bad_sector_fails_reads_only() {
        let plan = FaultPlan {
            bad_page: Some(1),
            ..Default::default()
        };
        let mut d = FaultDevice::new(InMemoryDevice::new(128), plan);
        d.ensure_pages(2).unwrap();
        let buf = vec![1u8; 128];
        d.write_page(1, &buf).unwrap(); // writes still work
        let mut out = vec![0; 128];
        assert!(d.read_page(1, &mut out).is_err());
        assert!(d.read_page(0, &mut out).is_ok());
    }

    #[test]
    fn fail_on_sync_trips_device() {
        let plan = FaultPlan {
            fail_after_syncs: Some(0),
            ..Default::default()
        };
        let mut d = FaultDevice::new(InMemoryDevice::new(128), plan);
        d.ensure_pages(1).unwrap();
        d.write_page(0, &[3u8; 128]).unwrap();
        assert!(d.sync().is_err());
        assert!(d.is_tripped());
        assert_eq!(d.syncs_done(), 0);
    }

    #[test]
    fn fail_after_syncs_counts_successful_barriers() {
        let plan = FaultPlan {
            fail_after_syncs: Some(2),
            ..Default::default()
        };
        let mut d = FaultDevice::new(InMemoryDevice::new(128), plan);
        d.ensure_pages(1).unwrap();
        d.sync().unwrap();
        d.sync().unwrap();
        assert_eq!(d.syncs_done(), 2);
        assert!(d.sync().is_err());
    }

    #[test]
    fn write_back_loses_unsynced_writes_on_trip() {
        let mut d = FaultDevice::write_back(InMemoryDevice::new(128), FaultPlan::default());
        d.ensure_pages(2).unwrap();
        d.write_page(0, &[1u8; 128]).unwrap();
        d.sync().unwrap(); // page 0 durable
        d.write_page(1, &[2u8; 128]).unwrap();
        // Cache serves the staged page before the crash...
        let mut out = vec![0; 128];
        d.read_page(1, &mut out).unwrap();
        assert_eq!(out, vec![2u8; 128]);
        // ...but power loss drops it.
        d.trip_now();
        d.heal();
        d.read_page(0, &mut out).unwrap();
        assert_eq!(out, vec![1u8; 128], "synced page survives");
        d.read_page(1, &mut out).unwrap();
        assert_eq!(out, vec![0u8; 128], "unsynced page lost");
    }

    #[test]
    fn write_back_partial_sync_keeps_prefix() {
        let plan = FaultPlan {
            fail_after_syncs: Some(0),
            sync_keep: Some(1),
            ..Default::default()
        };
        let mut d = FaultDevice::write_back(InMemoryDevice::new(128), plan);
        d.ensure_pages(3).unwrap();
        d.write_page(2, &[9u8; 128]).unwrap();
        d.write_page(0, &[5u8; 128]).unwrap();
        assert!(d.sync().is_err());
        d.heal();
        let mut out = vec![0; 128];
        d.read_page(0, &mut out).unwrap();
        assert_eq!(out, vec![5u8; 128], "lowest page id flushed before loss");
        d.read_page(2, &mut out).unwrap();
        assert_eq!(out, vec![0u8; 128], "rest of the cache lost");
    }

    #[test]
    fn heal_arms_scheduled_plans_in_order() {
        let mut d = FaultDevice::new(
            InMemoryDevice::new(128),
            FaultPlan {
                fail_after_writes: Some(0),
                ..Default::default()
            },
        );
        d.push_plan(FaultPlan {
            fail_after_writes: Some(1),
            ..Default::default()
        });
        d.ensure_pages(2).unwrap();
        let buf = vec![1u8; 128];
        assert!(
            d.write_page(0, &buf).is_err(),
            "first plan: crash at write 0"
        );
        d.heal();
        d.write_page(0, &buf).unwrap();
        assert!(
            d.write_page(1, &buf).is_err(),
            "second plan: crash at write 1"
        );
        d.heal();
        // Schedule exhausted: benign from here on.
        d.write_page(0, &buf).unwrap();
        d.write_page(1, &buf).unwrap();
        d.sync().unwrap();
    }

    #[test]
    fn heal_resets_counters() {
        let mut d = FaultDevice::new(InMemoryDevice::new(128), FaultPlan::default());
        d.ensure_pages(1).unwrap();
        d.write_page(0, &[1u8; 128]).unwrap();
        d.sync().unwrap();
        assert_eq!((d.writes_done(), d.syncs_done()), (1, 1));
        d.heal();
        assert_eq!((d.writes_done(), d.syncs_done()), (0, 0));
    }
}
