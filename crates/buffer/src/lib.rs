//! Buffer manager of FAME-DBMS (feature *Buffer Manager* in Figure 2).
//!
//! The pool caches device pages in RAM frames. Two axes of variability from
//! the paper's feature diagram:
//!
//! * **Replacement** — [`lru::Lru`] vs [`lfu::Lfu`] (cargo features `lru`,
//!   `lfu`), selected via [`ReplacementKind`];
//! * **Memory Alloc** — `Static` vs `Dynamic` frame allocation, reusing
//!   [`fame_os::AllocPolicy`].
//!
//! The pool can also run in *pass-through* mode ([`BufferPool::unbuffered`]),
//! which is what a product without the Buffer Manager feature composes:
//! every access goes straight to the device, no frames are allocated.
//!
//! # Access model
//!
//! Pages are accessed through short closures ([`BufferPool::with_page`] /
//! [`BufferPool::with_page_mut`]) rather than long-lived guards: embedded
//! engines deserialize a node, work on it, and write it back, so frames are
//! never held across operations and no pin accounting is needed.

#[cfg(feature = "shared")]
mod dir;
pub mod pool;
pub mod replacement;
#[cfg(feature = "shared")]
pub mod shared;
pub mod stats;
pub mod token;
#[cfg(feature = "snapshot")]
pub mod versions;

#[cfg(feature = "lfu")]
pub use replacement::lfu;
#[cfg(feature = "lru")]
pub use replacement::lru;

pub use pool::BufferPool;
pub use replacement::{FrameIdx, ReplacementKind, ReplacementPolicy};
#[cfg(feature = "shared")]
pub use shared::{SharedBufferPool, DEFAULT_SHARDS};
pub use stats::{AtomicPoolStats, PoolStats};
pub use token::PageToken;
#[cfg(feature = "snapshot")]
pub use versions::{TxnWriteScope, VersionStats, DEFAULT_CHAIN_CAP};

/// Feature *Buffer Manager → Concurrency* (this reproduction's extension
/// to Figure 2): how many threads may work against one pool image.
///
/// The type exists in every product so configs can name it, but the
/// [`Concurrency::MultiReader`] alternative only compiles with the `shared`
/// cargo feature — Single products carry today's exclusive pool with zero
/// new indirection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Concurrency {
    /// One thread owns the engine (`&mut` everywhere). The seed behaviour.
    #[default]
    Single,
    /// Sharded latch-based pool; point reads scale across threads. See
    /// [`shared::SharedBufferPool`].
    #[cfg(feature = "shared")]
    MultiReader {
        /// Page-table shards (power of two); 0 means
        /// [`shared::DEFAULT_SHARDS`].
        shards: usize,
    },
    /// Everything MultiReader has, plus concurrent *writer* transactions:
    /// the facade hands out clone-cheap `DbWriter` handles whose
    /// transactions serialize through a blocking block-lock table and a
    /// cross-transaction group commit (`fame-txn`'s `multi-writer`
    /// feature). Same shared pool underneath.
    #[cfg(feature = "multi-writer")]
    MultiWriter {
        /// Page-table shards (power of two); 0 means
        /// [`shared::DEFAULT_SHARDS`].
        shards: usize,
    },
}

impl Concurrency {
    /// Page-table shards of the shared pool the alternative runs on, 0
    /// resolved to [`DEFAULT_SHARDS`]; `None` for `Single`'s exclusive pool.
    pub fn shards(self) -> Option<usize> {
        #[cfg(feature = "shared")]
        let resolve = |shards| Some(if shards == 0 { DEFAULT_SHARDS } else { shards });
        match self {
            Concurrency::Single => None,
            #[cfg(feature = "shared")]
            Concurrency::MultiReader { shards } => resolve(shards),
            #[cfg(feature = "multi-writer")]
            Concurrency::MultiWriter { shards } => resolve(shards),
        }
    }
}
