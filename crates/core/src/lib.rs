//! # FAME-DBMS
//!
//! A tailor-made embedded DBMS **product line**, reproducing
//! *FAME-DBMS: Tailor-made Data Management Solutions for Embedded Systems*
//! (Rosenmüller et al., EDBT 2008).
//!
//! Every feature of the paper's Figure 2 diagram — plus the Berkeley DB
//! features of its §2.2 case study — maps to a cargo feature of this crate
//! (see `DESIGN.md` §5). Selecting cargo features *statically composes* a
//! concrete DBMS: code of unselected features is not compiled, so minimal
//! products are genuinely smaller and never pay for functionality they do
//! not use. That is the paper's central claim, and the `fame-bench`
//! harness measures it (Figure 1a/1b).
//!
//! ## Quick start
//!
//! ```
//! use fame_dbms::{Database, DbmsConfig};
//!
//! let mut db = Database::open(DbmsConfig::in_memory()).unwrap();
//! db.put(b"sensor:1", b"22.5C").unwrap();
//! assert_eq!(db.get(b"sensor:1").unwrap().as_deref(), Some(&b"22.5C"[..]));
//! db.remove(b"sensor:1").unwrap();
//! ```
//!
//! ## Layers (one crate per subsystem)
//!
//! * [`fame_os`] — OS abstraction: std-file / in-memory / simulated flash
//! * [`fame_buffer`] — buffer manager: LRU/LFU replacement, static/dynamic
//!   allocation
//! * [`fame_storage`] — slotted pages, pager, B+-tree / list / hash / queue
//! * `fame-txn` — WAL, recovery, locks, commit protocols (feature
//!   `transactions`)
//! * `fame-repl` — log-shipping replication (feature `replication`)
//! * `fame-query` — SQL engine and optimizer (features `sql`, `optimizer`)
//! * [`fame_feature_model`] — the executable Figure 2 feature model; every
//!   [`DbmsConfig`] can be checked against it

// A product needs at least one API operation (`api-batch` implies
// `api-put`), one index and one OS backend; fail composition loudly.
#[cfg(not(any(
    feature = "api-put",
    feature = "api-get",
    feature = "api-remove",
    feature = "api-update"
)))]
compile_error!("FAME-DBMS needs an API feature: api-put, api-get, api-remove, or api-update");
#[cfg(not(any(
    feature = "index-btree",
    feature = "index-list",
    feature = "index-hash"
)))]
compile_error!("FAME-DBMS needs an index feature: index-btree, index-list, or index-hash");
#[cfg(not(any(feature = "os-std", feature = "os-inmem", feature = "os-flash")))]
compile_error!("FAME-DBMS needs at least one OS backend: os-std, os-inmem, or os-flash");
// Commit is a mandatory alternative group below Transaction (Fig. 2 +
// §2.3): a transactional product must compose a commit protocol.
#[cfg(all(
    feature = "transactions",
    not(any(feature = "commit-force", feature = "commit-group"))
))]
compile_error!("feature `transactions` needs a commit protocol: commit-force or commit-group");

pub mod config;
pub mod db;
pub mod error;
mod factory;
pub mod features;

#[cfg(feature = "transactions")]
pub use config::TxnConfig;
pub use config::{BufferConfig, DbmsConfig, IndexKind, OsTarget};
// The facade and the handle types of every composed refinement, gated
// once in `db`.
pub use db::*;
pub use error::DbmsError;
pub use features::{active_features, model_configuration};

#[cfg(feature = "buffer")]
pub use fame_buffer::Concurrency;

// Re-export the substrate crates so applications need only one dependency.
pub use fame_buffer;
pub use fame_feature_model;
pub use fame_os;
pub use fame_storage;

#[cfg(feature = "statistics")]
pub use fame_obs;
#[cfg(feature = "sql")]
pub use fame_query::{self, QueryOutput};
#[cfg(feature = "replication")]
pub use fame_repl;
#[cfg(feature = "transactions")]
pub use fame_txn;
