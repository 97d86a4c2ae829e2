//! Transaction manager of FAME-DBMS (feature *Transaction* in Figure 2).
//!
//! The paper deliberately keeps this feature *coarse-grained* (§2.3):
//! transactions are either in the product or not, and the only subfeature
//! axis is the commit protocol — [`CommitPolicy::Force`] (sync the log on
//! every commit; smallest code, worst throughput) vs
//! [`CommitPolicy::Group`] (batch commits and sync once per group; the
//! cargo features `commit-force` / `commit-group` gate them).
//!
//! Architecture:
//!
//! * [`wal`] — logical log records (`Begin`/`Put`/`Remove`/`Commit`/...)
//!   with per-record checksums;
//! * [`log`] — an append-only log over any [`fame_os::BlockDevice`], read
//!   back as one image cut at the torn tail;
//! * [`manager`] — [`manager::TxnManager`]: transaction table, undo
//!   tracking, and the one commit step (append the commit records, the
//!   one sync step, finish) that a single commit and a group-commit drain
//!   both run;
//! * [`lock_table`] — the product's one S/X block-lock table: *no-wait*
//!   for the single-writer engine (deadlock *avoidance*, the embedded
//!   choice), *blocking* with timeout and deadlock detection for
//!   `Concurrency → MultiWriter`;
//! * [`shared`] (feature `multi-writer`) — [`shared::SharedTxnManager`]:
//!   `&self` API blocking on the manager's table, plus leader-based
//!   cross-transaction group commit;
//! * [`recovery`] — redo winners / undo losers against a
//!   [`recovery::RecoveryTarget`] (implemented by the database facade in
//!   `fame-dbms`), so this crate stays independent of the storage layer.

// The commit protocol is a mandatory alternative: at least one variant
// must be composed in.
#[cfg(not(any(feature = "commit-force", feature = "commit-group")))]
compile_error!("fame-txn needs a commit protocol feature: commit-force or commit-group");

pub mod lock_table;
pub mod log;
pub mod manager;
pub mod recovery;
#[cfg(feature = "multi-writer")]
pub mod shared;
pub mod wal;

#[cfg(all(feature = "multi-writer", feature = "obs"))]
pub use lock_table::LockObs;
pub use lock_table::{block_of, BlockId, LockConflict, LockError, LockMode, LockTable};
pub use log::{LogImage, LogReader, LogWriter, Lsn};
#[cfg(feature = "obs")]
pub use manager::TxnObs;
pub use manager::{BatchWrite, CommitPolicy, TxnError, TxnId, TxnManager, UndoAction};
pub use recovery::{recover, recover_image, recover_records, RecoveryStats, RecoveryTarget};
#[cfg(feature = "multi-writer")]
pub use shared::SharedTxnManager;
pub use wal::LogRecord;
