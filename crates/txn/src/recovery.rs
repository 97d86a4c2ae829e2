//! Crash recovery: redo winners, undo losers.
//!
//! One forward pass over the log decides each transaction's fate by its
//! **last terminal record**: a final `Commit` makes a winner, a final
//! `Abort` marks it compensated online, and no terminal at all makes a
//! loser. Last-record-wins matters because a commit whose durability sync
//! fails leaves a `Commit` record in the buffered log while the transaction
//! stays active; if the application then aborts it, the log legitimately
//! contains `Commit` followed by `Abort` for the same id, and the abort is
//! authoritative. The same pass links each transaction's data records,
//! newest first, in one vector. Then:
//!
//! 1. **Redo** — winners' `Put`/`Remove` operations are re-applied in log
//!    order. Logical operations are idempotent (`put` overwrites, `remove`
//!    of a missing key is a no-op), so recovery after recovery is safe.
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
    /// Compensated online: neither redone nor undone.
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
    // Each transaction's fate and its newest data record's link; a link is
    // a record's position and the link of its transaction's previous one.
    let mut fates: HashMap<TxnId, (Fate, Option<usize>)> = HashMap::new();
    let mut links: Vec<(Lsn, Option<usize>)> = Vec::new();
    let mut checkpoint = 0;
    for (at, record) in from(0) {
        let Some(txn) = record.txn() else {
            checkpoint = at;
            continue;
        };
        let (fate, newest) = fates.entry(txn).or_insert((Fate::Loser, None));
        match record {
            LogRecord::Commit { .. } => *fate = Fate::Winner,
            LogRecord::Abort { .. } => *fate = Fate::Aborted,
            LogRecord::Put { .. } | LogRecord::Remove { .. } => {
                links.push((at, newest.replace(links.len())));
            }
            LogRecord::Begin { .. } | LogRecord::Checkpoint => {}
        }
    }
    let with_fate = |want: Fate| {
        let mut txns: Vec<TxnId> = fates
            .iter()
            .filter_map(|(&txn, &(fate, _))| (fate == want).then_some(txn))
            .collect();
        txns.sort_unstable();
        txns
    };
    let mut stats = RecoveryStats {
        winners: with_fate(Fate::Winner),
        losers: with_fate(Fate::Loser),
        redo_applied: 0,
        undo_applied: 0,
        resume_lsn,
    };

    // Redo winners from the last checkpoint on.
    let winner = |txn| fates.get(&txn).map(|f| f.0) == Some(Fate::Winner);
    for (_, record) in from(checkpoint) {
        match record {
            LogRecord::Put {
                txn,
                index,
                key,
                new,
                ..
            } if winner(txn) => target.apply_put(index, key, new),
            LogRecord::Remove {
                txn, index, key, ..
            } if winner(txn) => target.apply_remove(index, key),
            _ => continue,
        }
        stats.redo_applied += 1;
    }

    // Undo the losers' records, newest first across all of them (the whole
    // log: a loser may have started before the checkpoint).
    let mut heads: BinaryHeap<usize> = fates
        .values()
        .filter_map(|&(fate, newest)| newest.filter(|_| fate == Fate::Loser))
        .collect();
    while let Some(link) = heads.pop() {
        let (at, prev) = links[link];
        heads.extend(prev);
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
        stats.undo_applied += 1;
    }
    stats
}

#[cfg(test)]
#[path = "../tests/unit/recovery.rs"]
mod tests;
