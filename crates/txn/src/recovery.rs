//! Crash recovery: redo winners, undo losers.
//!
//! One forward pass over the log decides each transaction's fate by its
//! **last terminal record**: a final `Commit` makes a winner, a final
//! `Abort` an aborted transaction, and no terminal at all makes a
//! loser. Last-record-wins matters because a commit whose durability sync
//! fails leaves a `Commit` record in the buffered log while the transaction
//! stays active; if the application then aborts it, the log legitimately
//! contains `Commit` followed by `Abort` for the same id, and the abort is
//! authoritative. The same pass links each transaction's data records,
//! newest first, in one vector. Then:
//!
//! 1. **Redo** — winners' `Put`/`Remove` operations are re-applied in log
//!    order, and an aborted transaction's online compensation (never
//!    logged; a page synced mid-transaction still holds its writes) at its
//!    final `Abort`. Logical operations are idempotent (`put` overwrites,
//!    `remove` of a missing key is a no-op): recovery after recovery is safe.
//! 2. **Undo** — losers' operations are compensated in reverse log order
//!    using the before-images, following the losers' links only.
//!
//! A `Checkpoint` record asserts all earlier effects are durable in the
//! data store; the fate pass still starts at the beginning (logs are small
//! on embedded devices) but redo starts at the last checkpoint.
//!
//! Records are read in place from a [`LogImage`] ([`recover`],
//! [`recover_image`]: the facade at open) or viewed from an owned list
//! ([`recover_records`]: a log read earlier, as the benchmark ladder
//! replays one); both run one core over borrowed records. The storage side
//! is abstracted as [`RecoveryTarget`], implemented by the database facade
//! in `fame-dbms`.

use std::collections::{BinaryHeap, HashMap};

use fame_os::OsError;

use crate::log::{LogImage, LogReader, Lsn};
use crate::wal::{LogRecord, TxnId};

/// Where recovery applies its effects.
pub trait RecoveryTarget {
    /// Idempotently (re-)apply a put.
    fn apply_put(&mut self, index: u8, key: &[u8], value: &[u8]);
    /// Idempotently (re-)apply a remove.
    fn apply_remove(&mut self, index: u8, key: &[u8]);
}

/// What recovery did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Transactions with a Commit record.
    pub winners: Vec<TxnId>,
    /// Transactions without one (crashed mid-flight).
    pub losers: Vec<TxnId>,
    /// Redo operations applied.
    pub redo_applied: usize,
    /// Undo operations applied.
    pub undo_applied: usize,
    /// LSN where an appending writer should resume.
    pub resume_lsn: u64,
}

/// Run recovery over a log against a target store.
pub fn recover<T: RecoveryTarget>(
    mut reader: LogReader,
    target: &mut T,
) -> Result<RecoveryStats, OsError> {
    Ok(recover_image(&reader.image()?, target))
}

/// Recovery over a log image, its records borrowed in place.
pub fn recover_image<T: RecoveryTarget>(image: &LogImage, target: &mut T) -> RecoveryStats {
    replay(|at| image.records_from(at), image.resume_lsn(), target)
}

/// Recovery over an already-materialised record list, for a log read
/// without a device round trip.
pub fn recover_records<T: RecoveryTarget>(
    records: &[(Lsn, LogRecord)],
    resume_lsn: u64,
    target: &mut T,
) -> RecoveryStats {
    let from = |i: Lsn| {
        (i..)
            .zip(&records[i as usize..])
            .map(|(i, (_, r))| (i, r.as_ref()))
    };
    replay(from, resume_lsn, target)
}

/// A transaction's fate, by its last terminal record.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    Winner,
    /// Compensated online, unlogged: re-compensated at its final `Abort`.
    Aborted,
    Loser,
}

/// The one recovery core. `from(at)` walks the records in log order from
/// the one at position `at` on, each with its position.
fn replay<'a, I, T>(from: impl Fn(Lsn) -> I, resume_lsn: u64, target: &mut T) -> RecoveryStats
where
    I: Iterator<Item = (Lsn, LogRecord<&'a [u8]>)>,
    T: RecoveryTarget,
{
    // Per transaction: its fate, its last terminal record's position and
    // its newest data record's link (a position and the previous link).
    let mut fates: HashMap<TxnId, (Fate, Lsn, Option<usize>)> = HashMap::new();
    let mut links: Vec<(Lsn, Option<usize>)> = Vec::new();
    let mut checkpoint = 0;
    for (at, record) in from(0) {
        let Some(txn) = record.txn() else {
            checkpoint = at;
            continue;
        };
        let (fate, end, newest) = fates.entry(txn).or_insert((Fate::Loser, 0, None));
        match record {
            LogRecord::Commit { .. } => (*fate, *end) = (Fate::Winner, at),
            LogRecord::Abort { .. } => (*fate, *end) = (Fate::Aborted, at),
            LogRecord::Put { .. } | LogRecord::Remove { .. } => {
                links.push((at, newest.replace(links.len())));
            }
            LogRecord::Begin { .. } | LogRecord::Checkpoint => {}
        }
    }
    let with_fate = |want: Fate| {
        let mut txns: Vec<TxnId> = fates
            .iter()
            .filter_map(|(&txn, &(fate, ..))| (fate == want).then_some(txn))
            .collect();
        txns.sort_unstable();
        txns
    };
    let mut stats = RecoveryStats {
        winners: with_fate(Fate::Winner),
        losers: with_fate(Fate::Loser),
        resume_lsn,
        ..RecoveryStats::default()
    };
    // Restore one data record's before-image; the link of its
    // transaction's previous record comes back.
    let undo = |link: usize, target: &mut T| {
        let (at, prev) = links[link];
        match from(at).next().map(|(_, record)| record) {
            Some(
                LogRecord::Put {
                    index,
                    key,
                    old: Some(old),
                    ..
                }
                | LogRecord::Remove {
                    index, key, old, ..
                },
            ) => target.apply_put(index, key, old),
            Some(LogRecord::Put {
                index,
                key,
                old: None,
                ..
            }) => target.apply_remove(index, key),
            _ => unreachable!("a link names a data record"),
        }
        prev
    };

    // Redo winners from the last checkpoint on; re-compensate an aborted
    // transaction at its final `Abort` (its links reach past the checkpoint).
    // It held its keys until then, so later winners are redone over it.
    for (at, record) in from(checkpoint) {
        let fate = record.txn().and_then(|txn| fates.get(&txn));
        let winner = matches!(fate, Some((Fate::Winner, ..)));
        match record {
            LogRecord::Put {
                index, key, new, ..
            } if winner => target.apply_put(index, key, new),
            LogRecord::Remove { index, key, .. } if winner => target.apply_remove(index, key),
            LogRecord::Abort { .. } => {
                if let Some(&(Fate::Aborted, _, mut link)) = fate.filter(|f| f.1 == at) {
                    while let Some(l) = link {
                        link = undo(l, target);
                        stats.undo_applied += 1;
                    }
                }
                continue;
            }
            _ => continue,
        }
        stats.redo_applied += 1;
    }

    // Undo the losers' records, newest first across all of them (the whole
    // log: a loser may have started before the checkpoint).
    let mut heads: BinaryHeap<usize> = fates
        .values()
        .filter_map(|&(fate, _, newest)| newest.filter(|_| fate == Fate::Loser))
        .collect();
    while let Some(link) = heads.pop() {
        heads.extend(undo(link, target));
        stats.undo_applied += 1;
    }
    stats
}

#[cfg(test)]
#[path = "../tests/unit/recovery.rs"]
mod tests;
