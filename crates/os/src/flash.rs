//! Simulated NAND-flash device: the NutOS target of the paper's Figure 2.
//!
//! Real deeply embedded hardware was not available for this reproduction,
//! so we simulate the properties that make flash interesting for a storage
//! manager:
//!
//! * pages belong to *erase blocks*; a page cannot be overwritten in place —
//!   the block must be erased first;
//! * erases are counted per block (wear), and an optional endurance limit
//!   turns worn-out blocks into I/O errors;
//! * the device has a fixed capacity (no growth past `capacity_pages`).
//!
//! The device transparently performs a read-modify-erase-program cycle when
//! the engine overwrites a page, exactly like a trivial flash translation
//! layer. Upper layers therefore run unmodified, while wear statistics make
//! the cost of write-heavy configurations visible to the NFP experiments.

use crate::device::{check_buf, check_range, BlockDevice, DeviceStats, OsError, PageId, Result};

/// Geometry and endurance of a simulated flash part.
#[derive(Debug, Clone, Copy)]
pub struct FlashConfig {
    /// Bytes per page. Typical small NAND: 512.
    pub page_size: usize,
    /// Pages per erase block. Typical: 16–64.
    pub pages_per_block: u32,
    /// Total capacity in pages (fixed; flash does not grow).
    pub capacity_pages: u32,
    /// Maximum erases per block before the block fails, or `None` for
    /// unlimited endurance.
    pub erase_endurance: Option<u32>,
}

impl Default for FlashConfig {
    fn default() -> Self {
        FlashConfig {
            page_size: 512,
            pages_per_block: 16,
            capacity_pages: 4096,
            erase_endurance: None,
        }
    }
}

const ERASED: u8 = 0xFF;

/// Simulated NAND flash. See module docs.
#[derive(Debug)]
pub struct FlashDevice {
    cfg: FlashConfig,
    /// Raw cells; erased cells read `0xFF`.
    cells: Vec<u8>,
    /// Which pages have been programmed since their block's last erase.
    programmed: Vec<bool>,
    /// Per-block erase counters (wear).
    erase_counts: Vec<u32>,
    /// Logical number of pages the engine asked for.
    visible_pages: u32,
    stats: DeviceStats,
}

impl FlashDevice {
    /// Create a device with the given geometry, fully erased.
    pub fn new(cfg: FlashConfig) -> Self {
        assert!(cfg.page_size >= 64, "page size must be at least 64 bytes");
        assert!(cfg.pages_per_block > 0);
        assert_eq!(
            cfg.capacity_pages % cfg.pages_per_block,
            0,
            "capacity must be a whole number of erase blocks"
        );
        let blocks = (cfg.capacity_pages / cfg.pages_per_block) as usize;
        FlashDevice {
            cells: vec![ERASED; cfg.capacity_pages as usize * cfg.page_size],
            programmed: vec![false; cfg.capacity_pages as usize],
            erase_counts: vec![0; blocks],
            visible_pages: 0,
            stats: DeviceStats::default(),
            cfg,
        }
    }

    /// The block a page belongs to.
    fn block_of(&self, page: PageId) -> usize {
        (page / self.cfg.pages_per_block) as usize
    }

    /// Per-block erase counters; index = block number.
    pub fn wear(&self) -> &[u32] {
        &self.erase_counts
    }

    /// Highest erase count over all blocks (simple wear metric).
    #[cfg(test)]
    fn max_wear(&self) -> u32 {
        self.erase_counts.iter().copied().max().unwrap_or(0)
    }

    /// The device geometry.
    pub fn config(&self) -> FlashConfig {
        self.cfg
    }

    fn cell_range(&self, page: PageId) -> std::ops::Range<usize> {
        let start = page as usize * self.cfg.page_size;
        start..start + self.cfg.page_size
    }

    /// Erase the block containing `page`, preserving the contents of all
    /// *other* programmed pages in the block (read-modify-erase-program).
    fn erase_block_preserving(&mut self, page: PageId) -> Result<()> {
        let block = self.block_of(page);
        if let Some(limit) = self.cfg.erase_endurance {
            if self.erase_counts[block] >= limit {
                return Err(OsError::Io(format!(
                    "flash block {block} worn out ({} erases)",
                    self.erase_counts[block]
                )));
            }
        }

        let first = block as u32 * self.cfg.pages_per_block;
        let last = first + self.cfg.pages_per_block;

        // Save programmed siblings.
        let mut saved: Vec<(PageId, Vec<u8>)> = Vec::new();
        for p in first..last {
            if p != page && self.programmed[p as usize] {
                saved.push((p, self.cells[self.cell_range(p)].to_vec()));
            }
        }

        // Erase.
        for p in first..last {
            let r = self.cell_range(p);
            self.cells[r].fill(ERASED);
            self.programmed[p as usize] = false;
        }
        self.erase_counts[block] += 1;
        self.stats.erases += 1;

        // Program the siblings back.
        for (p, data) in saved {
            let r = self.cell_range(p);
            self.cells[r].copy_from_slice(&data);
            self.programmed[p as usize] = true;
        }
        Ok(())
    }
}

impl BlockDevice for FlashDevice {
    fn page_size(&self) -> usize {
        self.cfg.page_size
    }

    fn num_pages(&self) -> u32 {
        self.visible_pages
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        check_buf(self.cfg.page_size, buf.len())?;
        check_range(page, self.visible_pages)?;
        // Erased pages read as zeroes at the engine level: the simulated
        // FTL inverts the "fresh page" convention so upper layers see the
        // same zero-initialized pages as on every other backend.
        if self.programmed[page as usize] {
            let r = self.cell_range(page);
            buf.copy_from_slice(&self.cells[r]);
        } else {
            buf.fill(0);
        }
        self.stats.reads += 1;
        Ok(())
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        check_buf(self.cfg.page_size, buf.len())?;
        check_range(page, self.visible_pages)?;
        if self.programmed[page as usize] {
            // Overwrite requires an erase cycle of the whole block.
            self.erase_block_preserving(page)?;
        }
        let r = self.cell_range(page);
        self.cells[r].copy_from_slice(buf);
        self.programmed[page as usize] = true;
        self.stats.writes += 1;
        Ok(())
    }

    fn ensure_pages(&mut self, pages: u32) -> Result<()> {
        if pages > self.cfg.capacity_pages {
            return Err(OsError::DeviceFull {
                capacity_pages: self.cfg.capacity_pages,
            });
        }
        if pages > self.visible_pages {
            self.visible_pages = pages;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.stats.syncs += 1;
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FlashDevice {
        FlashDevice::new(FlashConfig {
            page_size: 128,
            pages_per_block: 4,
            capacity_pages: 16,
            erase_endurance: None,
        })
    }

    #[test]
    fn fresh_pages_read_zero() {
        let mut d = small();
        d.ensure_pages(4).unwrap();
        let mut out = vec![1u8; 128];
        d.read_page(0, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn first_write_needs_no_erase() {
        let mut d = small();
        d.ensure_pages(4).unwrap();
        d.write_page(0, &[1u8; 128]).unwrap();
        assert_eq!(d.stats().erases, 0);
    }

    #[test]
    fn overwrite_triggers_erase_and_preserves_siblings() {
        let mut d = small();
        d.ensure_pages(4).unwrap();
        d.write_page(0, &[1u8; 128]).unwrap();
        d.write_page(1, &[2u8; 128]).unwrap();
        // Overwrite page 0: block erased once, page 1 must survive.
        d.write_page(0, &[3u8; 128]).unwrap();
        assert_eq!(d.stats().erases, 1);
        assert_eq!(d.max_wear(), 1);
        let mut out = vec![0; 128];
        d.read_page(1, &mut out).unwrap();
        assert_eq!(out, vec![2u8; 128]);
        d.read_page(0, &mut out).unwrap();
        assert_eq!(out, vec![3u8; 128]);
    }

    #[test]
    fn wear_accumulates_per_block() {
        let mut d = small();
        d.ensure_pages(8).unwrap();
        for i in 0..5 {
            d.write_page(0, &[i as u8; 128]).unwrap();
        }
        // 5 writes to the same page: first programs, the other 4 erase.
        assert_eq!(d.wear()[0], 4);
        assert_eq!(d.wear()[1], 0);
    }

    #[test]
    fn endurance_limit_fails_block() {
        let mut d = FlashDevice::new(FlashConfig {
            page_size: 128,
            pages_per_block: 4,
            capacity_pages: 8,
            erase_endurance: Some(2),
        });
        d.ensure_pages(4).unwrap();
        d.write_page(0, &[0u8; 128]).unwrap();
        d.write_page(0, &[1u8; 128]).unwrap(); // erase 1
        d.write_page(0, &[2u8; 128]).unwrap(); // erase 2
        let err = d.write_page(0, &[3u8; 128]).unwrap_err(); // would be erase 3
        assert!(err.to_string().contains("worn out"));
    }

    #[test]
    fn capacity_is_fixed() {
        let mut d = small();
        assert!(d.ensure_pages(16).is_ok());
        assert!(matches!(
            d.ensure_pages(17),
            Err(OsError::DeviceFull { capacity_pages: 16 })
        ));
    }

    #[test]
    fn capacity_must_align_to_blocks() {
        let r = std::panic::catch_unwind(|| {
            FlashDevice::new(FlashConfig {
                page_size: 128,
                pages_per_block: 4,
                capacity_pages: 10, // not a multiple of 4
                erase_endurance: None,
            })
        });
        assert!(r.is_err());
    }
}
