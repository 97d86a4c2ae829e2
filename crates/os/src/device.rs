//! The [`BlockDevice`] trait: page-granular storage as seen by the engine.

use std::fmt;

/// Identifier of a page on a device. Pages are `page_size()` bytes and
/// addressed densely from `0`.
pub type PageId = u32;

/// Errors surfaced by the OS abstraction layer.
#[derive(Debug)]
pub enum OsError {
    /// Access beyond the end of the device.
    OutOfRange { page: PageId, pages: u32 },
    /// The buffer passed to a read/write did not match the page size.
    BadBufferSize { expected: usize, got: usize },
    /// The device (or an injected fault) failed the operation.
    Io(String),
    /// Wrapped `std::io` error from the file backend.
    Std(std::io::Error),
    /// The device is full and cannot grow (fixed-capacity embedded media).
    DeviceFull { capacity_pages: u32 },
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::OutOfRange { page, pages } => {
                write!(f, "page {page} out of range (device has {pages} pages)")
            }
            OsError::BadBufferSize { expected, got } => {
                write!(f, "buffer size {got} does not match page size {expected}")
            }
            OsError::Io(msg) => write!(f, "I/O error: {msg}"),
            OsError::Std(e) => write!(f, "I/O error: {e}"),
            OsError::DeviceFull { capacity_pages } => {
                write!(f, "device full ({capacity_pages} pages)")
            }
        }
    }
}

impl std::error::Error for OsError {}

impl From<std::io::Error> for OsError {
    fn from(e: std::io::Error) -> Self {
        OsError::Std(e)
    }
}

/// Convenient result alias for device operations.
pub type Result<T> = std::result::Result<T, OsError>;

/// Counters every device maintains; the NFP experiments read these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Pages read.
    pub reads: u64,
    /// Pages written.
    pub writes: u64,
    /// Explicit durability barriers.
    pub syncs: u64,
    /// Erase operations (flash only; 0 elsewhere).
    pub erases: u64,
}

/// A page-granular storage device.
///
/// All engine I/O goes through this trait, which is the whole point of the
/// *OS-Abstraction* feature: swapping the target platform never touches the
/// layers above.
pub trait BlockDevice: Send + Sync {
    /// Size of one page in bytes (constant for the device's lifetime).
    fn page_size(&self) -> usize;

    /// Current number of addressable pages.
    fn num_pages(&self) -> u32;

    /// Read page `page` into `buf` (`buf.len() == page_size()`).
    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()>;

    /// `true` when [`BlockDevice::read_page_at`] works: the device can
    /// serve page reads through `&self`, so multiple threads may read at
    /// once (the MultiReader buffer pool exploits this on cache misses).
    fn supports_shared_read(&self) -> bool {
        false
    }

    /// Positional read through a shared reference, pread-style: the same
    /// contract as [`BlockDevice::read_page`] but callable concurrently
    /// with other readers. Only meaningful when
    /// [`BlockDevice::supports_shared_read`] is `true`; the default
    /// implementation always fails so exclusive-only devices (flash FTL,
    /// fault injection) keep their sequential semantics.
    fn read_page_at(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        let _ = buf;
        Err(OsError::Io(format!(
            "device does not support shared reads (page {page})"
        )))
    }

    /// Write `buf` to page `page` (`buf.len() == page_size()`).
    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()>;

    /// Grow the device so that `pages` pages are addressable. Shrinking is
    /// not supported; a no-op if already large enough. Fixed-capacity
    /// devices return [`OsError::DeviceFull`].
    fn ensure_pages(&mut self, pages: u32) -> Result<()>;

    /// Durability barrier: all previously written pages survive a crash.
    fn sync(&mut self) -> Result<()>;

    /// I/O counters.
    fn stats(&self) -> DeviceStats;
}

/// A boxed device is a device: decorators generic over `D: BlockDevice`
/// (the crypto wrapper, the fault injector) stack over trait objects too.
impl<D: BlockDevice + ?Sized> BlockDevice for Box<D> {
    fn page_size(&self) -> usize {
        (**self).page_size()
    }

    fn num_pages(&self) -> u32 {
        (**self).num_pages()
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        (**self).read_page(page, buf)
    }

    fn supports_shared_read(&self) -> bool {
        (**self).supports_shared_read()
    }

    fn read_page_at(&self, page: PageId, buf: &mut [u8]) -> Result<()> {
        (**self).read_page_at(page, buf)
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        (**self).write_page(page, buf)
    }

    fn ensure_pages(&mut self, pages: u32) -> Result<()> {
        (**self).ensure_pages(pages)
    }

    fn sync(&mut self) -> Result<()> {
        (**self).sync()
    }

    fn stats(&self) -> DeviceStats {
        (**self).stats()
    }
}

/// Validate a caller-provided buffer length against the device page size.
pub(crate) fn check_buf(page_size: usize, buf_len: usize) -> Result<()> {
    if buf_len != page_size {
        return Err(OsError::BadBufferSize {
            expected: page_size,
            got: buf_len,
        });
    }
    Ok(())
}

/// Validate a page id against the device size.
pub(crate) fn check_range(page: PageId, pages: u32) -> Result<()> {
    if page >= pages {
        return Err(OsError::OutOfRange { page, pages });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = OsError::OutOfRange { page: 9, pages: 4 };
        assert_eq!(e.to_string(), "page 9 out of range (device has 4 pages)");
        let e = OsError::BadBufferSize {
            expected: 512,
            got: 100,
        };
        assert!(e.to_string().contains("512"));
        let e = OsError::DeviceFull { capacity_pages: 64 };
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn check_helpers() {
        assert!(check_buf(512, 512).is_ok());
        assert!(check_buf(512, 511).is_err());
        assert!(check_range(3, 4).is_ok());
        assert!(check_range(4, 4).is_err());
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let os: OsError = io.into();
        assert!(os.to_string().contains("boom"));
    }
}
