//! Storage manager of FAME-DBMS (feature *Storage* in Figure 2).
//!
//! The crate provides the access methods of the product line. Each access
//! method lives behind its own cargo feature so that composing it out of a
//! product removes its code from the binary — the mechanism behind the
//! Fig. 1a size experiment:
//!
//! | cargo feature | paper feature | module |
//! |---------------|---------------|--------|
//! | `btree`       | Storage → Index → B+-Tree | [`btree`] |
//! | `list`        | Storage → Index → List    | [`list`] (one `chain`) |
//! | `hash`        | Berkeley DB HASH (§2.2)   | [`hash`] (a directory of `chain`s) |
//! | `queue`       | Berkeley DB QUEUE (§2.2)  | [`queue`] |
//! | `data-types`  | Storage → Data Types      | [`types`] |
//! | `crypto`      | Berkeley DB CRYPTO (§2.2) | [`crypto`] |
//!
//! Below the access methods sits one page layer: [`page`] (slotted pages
//! and the `[klen][key][value]` cell codec every index shares), [`pager`]
//! (page allocation, which formats every page it hands out; free list;
//! named roots) and, for `list` or `hash`, `chain` (a linked run of
//! slotted pages: List is one chain, Hash a directory of chains). All I/O
//! flows through a [`fame_buffer::BufferPool`], so every access method
//! automatically benefits from (or runs without) the Buffer Manager
//! feature. [`check`] walks the raw image independently of all of them.

pub mod check;
pub mod error;
pub mod page;
pub mod pager;

#[cfg(feature = "btree")]
pub mod btree;
#[cfg(any(feature = "list", feature = "hash"))]
mod chain;
#[cfg(feature = "crypto")]
pub mod crypto;
#[cfg(feature = "hash")]
pub mod hash;
#[cfg(feature = "list")]
pub mod list;
#[cfg(feature = "queue")]
pub mod queue;
#[cfg(feature = "data-types")]
pub mod types;

#[cfg(feature = "btree")]
pub use btree::{BTree, Cursor};
pub use check::{check_pager, IntegrityReport, Violation};
#[cfg(feature = "crypto")]
pub use crypto::CryptoDevice;
pub use error::{Result, StorageError};
pub use fame_buffer::PageToken;
#[cfg(feature = "hash")]
pub use hash::HashIndex;
#[cfg(feature = "list")]
pub use list::ListIndex;
pub use page::{PageType, SlottedPage, PAGE_HEADER_SIZE};
#[cfg(feature = "shared")]
pub use pager::SharedPager;
#[cfg(feature = "snapshot")]
pub use pager::SnapshotPager;
pub use pager::{PageRead, Pager};
#[cfg(feature = "obs")]
pub use pager::{PagerOps, PagerOpsSnapshot};
#[cfg(feature = "queue")]
pub use queue::Queue;
#[cfg(feature = "data-types")]
pub use types::{DataType, Schema, Value};
