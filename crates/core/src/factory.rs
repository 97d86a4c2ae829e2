//! Device and pool construction: what [`crate::Database::open`] builds
//! from a [`DbmsConfig`] before the engine exists — the data device (with
//! the crypto wrapper when configured), the log device, the buffer pool.

use fame_buffer::BufferPool;
use fame_os::BlockDevice;

use crate::config::{DbmsConfig, OsTarget};
use crate::error::Result;

pub(crate) fn make_device(config: &DbmsConfig) -> Result<Box<dyn BlockDevice>> {
    let dev: Box<dyn BlockDevice> = match &config.os {
        #[cfg(feature = "os-inmem")]
        OsTarget::InMemory { capacity_pages } => Box::new(match capacity_pages {
            Some(cap) => fame_os::InMemoryDevice::with_capacity(config.page_size, *cap),
            None => fame_os::InMemoryDevice::new(config.page_size),
        }),
        #[cfg(feature = "os-std")]
        OsTarget::File { path } => Box::new(open_or_create(path, config.page_size)?),
        #[cfg(feature = "os-flash")]
        OsTarget::Flash(fc) => Box::new(fame_os::FlashDevice::new(*fc)),
    };

    #[cfg(feature = "crypto")]
    if let Some(key) = &config.crypto_key {
        return Ok(Box::new(fame_storage::CryptoDevice::new(dev, key)));
    }
    Ok(dev)
}

#[cfg(feature = "os-std")]
fn open_or_create(path: &std::path::Path, page_size: usize) -> Result<fame_os::FileDevice> {
    Ok(if path.exists() {
        fame_os::FileDevice::open(path, page_size)?
    } else {
        fame_os::FileDevice::create(path, page_size)?
    })
}

/// The log lives next to the data: `<path>.log` for file targets, a fresh
/// in-memory device otherwise.
#[cfg(feature = "transactions")]
pub(crate) fn make_log_device(config: &DbmsConfig) -> Result<Box<dyn BlockDevice>> {
    Ok(match &config.os {
        #[cfg(feature = "os-std")]
        OsTarget::File { path } => {
            let mut log_path = path.clone();
            let mut name = log_path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "fame".to_string());
            name.push_str(".log");
            log_path.set_file_name(name);
            Box::new(open_or_create(&log_path, config.page_size)?)
        }
        #[allow(unreachable_patterns)]
        _ => Box::new(new_inmem_log(config.page_size)),
    })
}

#[cfg(feature = "transactions")]
fn new_inmem_log(page_size: usize) -> impl BlockDevice {
    // Volatile log: commit protocols still run (and are measured), but a
    // process restart starts from a clean log. In-memory products are
    // volatile as a whole, so this is consistent.
    #[cfg(feature = "os-inmem")]
    {
        fame_os::InMemoryDevice::new(page_size)
    }
    #[cfg(not(feature = "os-inmem"))]
    {
        // Fall back to a flash-simulated log on flash-only builds.
        fame_os::FlashDevice::new(fame_os::FlashConfig {
            page_size,
            pages_per_block: 16,
            capacity_pages: 16 * 256,
            erase_endurance: None,
        })
    }
}

pub(crate) fn make_pool(config: &DbmsConfig, device: Box<dyn BlockDevice>) -> BufferPool {
    #[cfg(feature = "buffer")]
    {
        // MultiReader and MultiWriter run on the sharded pool; the writer
        // coordination lives above it (block locks, group commit).
        #[cfg(feature = "concurrency-multi")]
        if let Some(shards) = config.concurrency.shards() {
            return match &config.buffer {
                Some(b) => BufferPool::new_shared(device, b.replacement, b.policy(), shards),
                None => BufferPool::unbuffered_shared(device),
            };
        }
        match &config.buffer {
            Some(b) => BufferPool::new(device, b.replacement, b.policy()),
            None => BufferPool::unbuffered(device),
        }
    }
    #[cfg(not(feature = "buffer"))]
    {
        let _ = config;
        BufferPool::unbuffered(device)
    }
}
