//! Runtime configuration of a product.
//!
//! Cargo features decide what *can* be in the binary; [`DbmsConfig`]
//! decides what this *instance* uses. Every enum below only offers the
//! variants that were composed in — an invalid runtime configuration is
//! unrepresentable. The monolithic baseline build (`--features monolithic`)
//! compiles all variants and selects purely at runtime, mimicking the C
//! Berkeley DB baseline of Figure 1.

#[cfg(feature = "os-std")]
use std::path::PathBuf;

#[cfg(feature = "os-flash")]
use fame_os::FlashConfig;

/// Which OS backend (Fig. 2: *OS-Abstraction*, alternative group).
#[derive(Debug, Clone)]
pub enum OsTarget {
    /// RAM-backed device (tests, benchmarks, caches).
    #[cfg(feature = "os-inmem")]
    InMemory {
        /// Optional fixed capacity in pages.
        capacity_pages: Option<u32>,
    },
    /// File on a conventional OS (the paper's Linux/Win32 ports).
    #[cfg(feature = "os-std")]
    File {
        /// Path of the database image; the WAL appends `.log`.
        path: PathBuf,
    },
    /// Simulated NutOS-class flash (see `fame-os::flash`).
    #[cfg(feature = "os-flash")]
    Flash(FlashConfig),
}

/// Which primary index (Fig. 2: *Storage → Index*, or-group, plus the
/// Berkeley DB HASH method).
#[derive(Debug, Clone)]
pub enum IndexKind {
    /// B+-tree: ordered keys, range scans.
    #[cfg(feature = "index-btree")]
    BTree,
    /// Unordered list: minimal footprint, linear search.
    #[cfg(feature = "index-list")]
    List,
    /// Static hash with overflow chains.
    #[cfg(feature = "index-hash")]
    Hash {
        /// Number of bucket chains.
        buckets: u32,
    },
}

/// Buffer-manager settings (Fig. 2: *Buffer Manager*).
#[derive(Debug, Clone, Copy)]
#[cfg(feature = "buffer")]
pub struct BufferConfig {
    /// Number of frames.
    pub frames: usize,
    /// Replacement policy (alternative group: LRU | LFU).
    pub replacement: fame_buffer::ReplacementKind,
    /// `true` = static arena (Fig. 2 *Memory Alloc → Static*),
    /// `false` = grow on demand up to `frames`.
    pub static_alloc: bool,
}

#[cfg(feature = "buffer")]
impl BufferConfig {
    /// The allocation policy this config describes.
    pub fn policy(&self) -> fame_os::AllocPolicy {
        if self.static_alloc {
            fame_os::AllocPolicy::Static {
                frames: self.frames,
            }
        } else {
            fame_os::AllocPolicy::Dynamic {
                max_frames: Some(self.frames),
            }
        }
    }
}

/// Buffer placeholder for products without the Buffer Manager feature.
#[cfg(not(feature = "buffer"))]
#[derive(Debug, Clone, Copy)]
pub struct BufferConfig;

/// Transaction settings (Fig. 2: *Transaction*).
#[cfg(feature = "transactions")]
#[derive(Debug, Clone, Copy)]
pub struct TxnConfig {
    /// The commit protocol (alternative group).
    pub commit: fame_txn::CommitPolicy,
}

/// Complete runtime configuration of one product instance.
#[derive(Debug, Clone)]
pub struct DbmsConfig {
    /// OS backend.
    pub os: OsTarget,
    /// Page size in bytes (64..=32768; flash targets ignore this and use
    /// the flash geometry's page size).
    pub page_size: usize,
    /// Primary index.
    pub index: IndexKind,
    /// Buffer manager; `None` composes it out at runtime (pass-through).
    #[cfg(feature = "buffer")]
    pub buffer: Option<BufferConfig>,
    /// Concurrency discipline of the pool (*Buffer Manager → Concurrency*,
    /// alternative group: Single | MultiReader). `MultiReader` exists only
    /// when the `concurrency-multi` feature is composed; `Single` products
    /// compile to the exclusive pool with no latches.
    #[cfg(feature = "buffer")]
    pub concurrency: fame_buffer::Concurrency,
    /// Transactions.
    #[cfg(feature = "transactions")]
    pub transactions: Option<TxnConfig>,
    /// Block-lock wait budget of MultiWriter transactions (milliseconds):
    /// a waiter that cannot be granted within this window gives up with
    /// `LockError::Timeout`. Deadlock detection usually fires first; the
    /// timeout is the liveness backstop.
    #[cfg(feature = "concurrency-multi-writer")]
    pub lock_timeout_ms: u64,
    /// Version-chain length cap of the Snapshot feature: how many
    /// committed page versions a page retains for stragglers before the
    /// oldest is reclaimed (a snapshot older than every surviving version
    /// errors with "too old"). Bounds version memory at
    /// `cap × page_size` per write-hot page.
    #[cfg(feature = "concurrency-snapshot")]
    pub snapshot_chain_cap: usize,
    /// Page encryption key.
    #[cfg(feature = "crypto")]
    pub crypto_key: Option<[u8; 16]>,
    /// Replication acknowledgement policy.
    #[cfg(feature = "replication")]
    pub replication: Option<fame_repl::AckPolicy>,
}

impl DbmsConfig {
    /// Smallest sensible default for the compiled feature set: in-memory
    /// (or first available) backend, 512-byte pages, first available
    /// index, buffer of 64 frames with LRU when composed.
    pub fn default_for_build() -> DbmsConfig {
        DbmsConfig {
            os: default_os(),
            page_size: 512,
            index: default_index(),
            #[cfg(feature = "buffer")]
            buffer: Some(BufferConfig {
                frames: 64,
                replacement: default_replacement(),
                static_alloc: cfg!(feature = "alloc-static") && !cfg!(feature = "alloc-dynamic"),
            }),
            #[cfg(feature = "buffer")]
            concurrency: fame_buffer::Concurrency::default(),
            #[cfg(feature = "transactions")]
            transactions: None,
            #[cfg(feature = "concurrency-multi-writer")]
            lock_timeout_ms: 1_000,
            #[cfg(feature = "concurrency-snapshot")]
            snapshot_chain_cap: fame_buffer::DEFAULT_CHAIN_CAP,
            #[cfg(feature = "crypto")]
            crypto_key: None,
            #[cfg(feature = "replication")]
            replication: None,
        }
    }

    /// An in-memory database (requires the `os-inmem` feature).
    #[cfg(feature = "os-inmem")]
    pub fn in_memory() -> DbmsConfig {
        DbmsConfig {
            os: OsTarget::InMemory {
                capacity_pages: None,
            },
            ..DbmsConfig::default_for_build()
        }
    }

    /// A file-backed database (requires the `os-std` feature).
    #[cfg(feature = "os-std")]
    pub fn on_file(path: impl Into<PathBuf>) -> DbmsConfig {
        DbmsConfig {
            os: OsTarget::File { path: path.into() },
            ..DbmsConfig::default_for_build()
        }
    }

    /// A simulated-flash database (requires the `os-flash` feature). Its
    /// buffer, when composed, is a static arena: the deeply embedded
    /// target has no dynamic allocator.
    #[cfg(feature = "os-flash")]
    pub fn on_flash(flash: FlashConfig) -> DbmsConfig {
        let base = DbmsConfig::default_for_build();
        DbmsConfig {
            os: OsTarget::Flash(flash),
            page_size: flash.page_size,
            #[cfg(feature = "buffer")]
            buffer: base.buffer.map(|b| BufferConfig {
                static_alloc: true,
                ..b
            }),
            ..base
        }
    }

    /// Basic sanity checks of the runtime values.
    pub fn check(&self) -> Result<(), String> {
        if !(64..=32 * 1024).contains(&self.page_size) {
            return Err(format!(
                "page size {} out of range 64..=32768",
                self.page_size
            ));
        }
        #[cfg(feature = "os-flash")]
        #[allow(irrefutable_let_patterns)]
        if let OsTarget::Flash(f) = &self.os {
            if f.page_size != self.page_size {
                return Err(format!(
                    "flash page size {} != configured page size {}",
                    f.page_size, self.page_size
                ));
            }
        }
        #[cfg(feature = "buffer")]
        if let Some(b) = &self.buffer {
            if b.frames == 0 {
                return Err("buffer needs at least one frame".into());
            }
        }
        #[cfg(all(feature = "os-flash", feature = "buffer"))]
        if matches!(self.os, OsTarget::Flash(_)) && self.buffer.is_some_and(|b| !b.static_alloc) {
            // Mirrors the model constraint `(NutOS & BufferManager) ->
            // Static`: the deeply embedded target has no dynamic allocator.
            return Err("a flash target's buffer needs a static arena".into());
        }
        // The page-to-shard map is a mask.
        #[cfg(feature = "buffer")]
        if let Some(shards) = self.concurrency.shards() {
            if !shards.is_power_of_two() {
                return Err(format!(
                    "shard count {shards} must be 0 (default) or a power of two"
                ));
            }
        }
        #[cfg(feature = "concurrency-multi-writer")]
        if matches!(
            self.concurrency,
            fame_buffer::Concurrency::MultiWriter { .. }
        ) {
            if self.transactions.is_none() {
                // Mirrors the model constraint `MultiWriter requires
                // Transaction`: concurrent writers only make sense with
                // block locks and a WAL to coordinate them.
                return Err("Concurrency::MultiWriter requires transactions".into());
            }
            if self.lock_timeout_ms == 0 {
                return Err("lock_timeout_ms must be non-zero".into());
            }
            #[cfg(feature = "concurrency-snapshot")]
            if self.snapshot_chain_cap == 0 {
                return Err("snapshot_chain_cap must be non-zero".into());
            }
            #[cfg(feature = "replication")]
            if self.replication.is_some() {
                // The primary ships ops in facade order; with concurrent
                // writer handles there is no such single order yet.
                return Err("replication is not supported with Concurrency::MultiWriter".into());
            }
        }
        #[cfg(all(feature = "transactions", feature = "buffer"))]
        if self.transactions.is_some() && self.buffer.is_none() {
            // Mirrors the model constraint `Transaction requires
            // BufferManager`.
            return Err("transactions require the buffer manager".into());
        }
        Ok(())
    }
}

fn default_os() -> OsTarget {
    #[cfg(feature = "os-inmem")]
    return OsTarget::InMemory {
        capacity_pages: None,
    };
    #[cfg(all(not(feature = "os-inmem"), feature = "os-std"))]
    return OsTarget::File {
        path: std::env::temp_dir().join("fame-dbms.db"),
    };
    #[cfg(all(
        not(feature = "os-inmem"),
        not(feature = "os-std"),
        feature = "os-flash"
    ))]
    return OsTarget::Flash(FlashConfig::default());
}

fn default_index() -> IndexKind {
    #[cfg(feature = "index-btree")]
    return IndexKind::BTree;
    #[cfg(all(not(feature = "index-btree"), feature = "index-list"))]
    return IndexKind::List;
    #[cfg(all(
        not(feature = "index-btree"),
        not(feature = "index-list"),
        feature = "index-hash"
    ))]
    return IndexKind::Hash { buckets: 64 };
}

#[cfg(feature = "buffer")]
fn default_replacement() -> fame_buffer::ReplacementKind {
    #[cfg(feature = "replace-lru")]
    return fame_buffer::ReplacementKind::Lru;
    #[cfg(all(not(feature = "replace-lru"), feature = "replace-lfu"))]
    return fame_buffer::ReplacementKind::Lfu;
    #[cfg(all(not(feature = "replace-lru"), not(feature = "replace-lfu")))]
    compile_error!("feature `buffer` needs `replace-lru` or `replace-lfu`")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_checks_out() {
        let c = DbmsConfig::default_for_build();
        assert!(c.check().is_ok(), "{:?}", c.check());
    }

    #[test]
    fn page_size_bounds() {
        let mut c = DbmsConfig::default_for_build();
        c.page_size = 32;
        assert!(c.check().is_err());
        c.page_size = 64 * 1024;
        assert!(c.check().is_err());
        c.page_size = 4096;
        assert!(c.check().is_ok());
    }

    #[cfg(feature = "buffer")]
    #[test]
    fn zero_frames_rejected() {
        let mut c = DbmsConfig::default_for_build();
        if let Some(b) = &mut c.buffer {
            b.frames = 0;
        }
        assert!(c.check().is_err());
    }

    #[cfg(all(feature = "transactions", feature = "buffer"))]
    #[test]
    fn transactions_require_buffer() {
        let mut c = DbmsConfig::default_for_build();
        c.transactions = Some(TxnConfig {
            commit: default_commit(),
        });
        c.buffer = None;
        assert!(c.check().is_err());
    }

    #[cfg(feature = "transactions")]
    fn default_commit() -> fame_txn::CommitPolicy {
        #[cfg(feature = "commit-force")]
        {
            fame_txn::CommitPolicy::Force
        }
        #[cfg(all(not(feature = "commit-force"), feature = "commit-group"))]
        {
            fame_txn::CommitPolicy::Group { group_size: 8 }
        }
    }

    #[cfg(feature = "os-flash")]
    #[test]
    fn flash_page_size_must_match() {
        let mut c = DbmsConfig::on_flash(FlashConfig::default());
        assert!(c.check().is_ok());
        c.page_size = 1024;
        assert!(c.check().is_err());
    }
}
