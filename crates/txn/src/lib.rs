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
//! * [`log`] — an append-only log over any [`fame_os::BlockDevice`], with
//!   torn-tail detection on read-back;
//! * [`manager`] — [`manager::TxnManager`]: transaction table, undo
//!   tracking, and the commit protocol as three phases (append the commit
//!   records, the one sync step, release) that a single commit and a
//!   group-commit drain both run;
//! * [`lock_table`] — the one S/X block-lock table, with two faces over
//!   one grant rule. *No-wait* (`try_acquire`): a conflicting request
//!   fails immediately — the classic deadlock-*avoidance* choice for
//!   embedded engines, where blocking an interrupt-driven task is worse
//!   than retrying; the manager locks every key it logs this way.
//!   *Blocking* (`acquire`), behind the `Concurrency → MultiWriter`
//!   alternative: FIFO condvar parking, lock timeout, waits-for deadlock
//!   detection aborting the youngest txn;
//! * [`shared`] (feature `multi-writer`) — [`shared::SharedTxnManager`]:
//!   `&self` transaction API over interior mutability, a blocking table
//!   in front of the manager's no-wait one, plus leader-based
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
pub use log::{LogReader, LogWriter, Lsn};
#[cfg(feature = "obs")]
pub use manager::TxnObs;
pub use manager::{BatchWrite, CommitPolicy, TxnError, TxnId, TxnManager, UndoAction};
pub use recovery::{recover, recover_records, RecoveryStats, RecoveryTarget};
#[cfg(feature = "multi-writer")]
pub use shared::SharedTxnManager;
pub use wal::LogRecord;
