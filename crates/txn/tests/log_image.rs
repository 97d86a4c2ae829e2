//! The log read back as one image: the frame checksum against a
//! per-word-modulo Fletcher-32 kept here as the reference, where the
//! in-place walk stops on a damaged log, and recovery over the image
//! against recovery over an owned record list and a model store.
//!
//! The engine's checksum is crate-private; these tests read it off the
//! frames a `LogWriter` leaves on its device (`[len:u32][sum:u32][payload]`).

use std::collections::{BTreeMap, BTreeSet};

use fame_os::{BlockDevice, InMemoryDevice};
use fame_txn::{recover, recover_records, LogReader, LogRecord, LogWriter, RecoveryTarget};
use proptest::prelude::*;

/// Fletcher-32 as this log first computed it: sums from `0xFFFF`, one
/// little-endian 16-bit word at a time (an odd last byte is a word of its
/// own), each sum reduced after every word.
fn fletcher32_reference(data: &[u8]) -> u32 {
    let (mut s1, mut s2) = (0xFFFFu32, 0xFFFFu32);
    for w in data.chunks(2) {
        let word = u32::from(w[0]) | w.get(1).map_or(0, |&b| u32::from(b) << 8);
        s1 = (s1 + word) % 65535;
        s2 = (s2 + s1) % 65535;
    }
    (s2 << 16) | s1
}

/// Every page of `device`, back to back.
fn device_bytes(device: &mut dyn BlockDevice) -> Vec<u8> {
    let ps = device.page_size();
    let mut bytes = vec![0u8; ps * device.num_pages() as usize];
    for (page, buf) in bytes.chunks_exact_mut(ps).enumerate() {
        device.read_page(page as u32, buf).unwrap();
    }
    bytes
}

/// A device holding `bytes` in pages of `page_size`.
fn device_of(page_size: usize, bytes: &[u8]) -> Box<dyn BlockDevice> {
    let mut device = InMemoryDevice::new(page_size);
    device
        .ensure_pages((bytes.len() / page_size) as u32)
        .unwrap();
    for (page, buf) in bytes.chunks_exact(page_size).enumerate() {
        device.write_page(page as u32, buf).unwrap();
    }
    Box::new(device)
}

/// `(stored checksum, payload)` of each frame before byte `tail`.
fn frames(bytes: &[u8], tail: usize) -> Vec<(u32, &[u8])> {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut out = Vec::new();
    let mut at = 0;
    while at < tail {
        let len = word(at) as usize;
        out.push((word(at + 4), &bytes[at + 8..at + 8 + len]));
        at += 8 + len;
    }
    out
}

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..max)
}

/// Any record, its byte strings shorter than `max`.
fn record(max: usize) -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (0u64..8).prop_map(|txn| LogRecord::Begin { txn }),
        (0u64..8).prop_map(|txn| LogRecord::Commit { txn }),
        (0u64..8).prop_map(|txn| LogRecord::Abort { txn }),
        (
            0u64..8,
            0u8..3,
            bytes(16),
            prop::option::of(bytes(max)),
            bytes(max)
        )
            .prop_map(|(txn, index, key, old, new)| LogRecord::Put {
                txn,
                index,
                key,
                old,
                new,
            }),
        (0u64..8, 0u8..3, bytes(16), bytes(max)).prop_map(|(txn, index, key, old)| {
            LogRecord::Remove {
                txn,
                index,
                key,
                old,
            }
        }),
        Just(LogRecord::Checkpoint),
    ]
}

#[test]
fn the_reference_is_the_published_fletcher_32() {
    assert_eq!(fletcher32_reference(b"abcde"), 0xF04F_C729);
    assert_eq!(fletcher32_reference(b"abcdef"), 0x5650_2D2A);
    assert_eq!(fletcher32_reference(b"abcdefgh"), 0xEBE1_9591);
    assert_eq!(fletcher32_reference(b""), 0xFFFF_FFFF);
}

/// Both sums can reduce to 0, which the per-word modulo writes as 0 (not
/// 65535): a payload whose last two words are chosen to zero both sums
/// must carry checksum 0, at every block boundary the engine reduces on.
#[test]
fn sums_that_reduce_to_zero_are_written_as_zero() {
    for filler in [1usize, 713, 715, 717, 719, 1433, 1435, 1437, 4095] {
        for byte in [0x5Au8, 0xFF] {
            // 19 header bytes + filler + the two words: an even payload.
            let mut new = vec![byte; filler + 4];
            let record = |new: &[u8]| LogRecord::Put {
                txn: 7,
                index: 0,
                key: Vec::new(),
                old: None,
                new: new.to_vec(),
            };
            let payload = record(&new).encode();
            let r = fletcher32_reference(&payload[..payload.len() - 4]);
            let (a, b) = (r & 0xFFFF, r >> 16);
            let first = (2 * 65535 - a - b) % 65535;
            new[filler..filler + 2].copy_from_slice(&(first as u16).to_le_bytes());
            new[filler + 2..].copy_from_slice(&(b as u16).to_le_bytes());

            let mut w = LogWriter::new(Box::new(InMemoryDevice::new(512)), 0).unwrap();
            w.append(&record(&new)).unwrap();
            let tail = w.tail() as usize;
            let bytes = device_bytes(&mut *w.into_device());
            let frames = frames(&bytes, tail);
            assert_eq!(frames[0].1, &record(&new).encode()[..]);
            assert_eq!(fletcher32_reference(frames[0].1), 0, "filler {filler}");
            assert_eq!(frames[0].0, 0, "filler {filler} of {byte:#x}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Payloads from 1 byte to past 4 KiB, random or all `0xFF` (the
    /// largest words, where a late reduction would overflow first).
    #[test]
    fn every_frame_carries_the_reference_checksum(
        values in prop::collection::vec(
            prop_oneof![bytes(4096), (0usize..4096).prop_map(|n| vec![0xFF; n])],
            1..6,
        ),
        key in bytes(16),
    ) {
        let mut w = LogWriter::new(Box::new(InMemoryDevice::new(512)), 0).unwrap();
        let mut records = vec![LogRecord::Checkpoint, LogRecord::Begin { txn: u64::MAX }];
        records.extend(values.into_iter().map(|new| LogRecord::Put {
            txn: 1,
            index: 0,
            key: key.clone(),
            old: None,
            new,
        }));
        w.append_many(&records).unwrap();
        let tail = w.tail() as usize;
        let bytes = device_bytes(&mut *w.into_device());
        let frames = frames(&bytes, tail);
        prop_assert_eq!(frames.len(), records.len());
        for ((sum, payload), record) in frames.into_iter().zip(&records) {
            prop_assert_eq!(payload, &record.encode()[..]);
            prop_assert_eq!(sum, fletcher32_reference(payload));
        }
    }

    /// A log cut at a byte (everything after it lost) or with one byte
    /// flipped reads back as exactly the records whose frames end before
    /// the first changed byte, and appends resume where the first damaged
    /// frame began.
    #[test]
    fn the_walk_stops_at_the_first_damaged_frame(
        page in prop::sample::select(&[128usize, 512]),
        records in prop::collection::vec(record(300), 1..40),
        at in any::<prop::sample::Index>(),
        flip in any::<bool>(),
        mask in 1u8..=255,
    ) {
        let mut w = LogWriter::new(Box::new(InMemoryDevice::new(page)), 0).unwrap();
        let mut lsns: Vec<u64> = records.iter().map(|r| w.append(r).unwrap()).collect();
        lsns.push(w.tail());
        let clean = device_bytes(&mut *w.into_device());
        let mut torn = clean.clone();
        let at = at.index(torn.len());
        if flip {
            torn[at] ^= mask;
        } else {
            torn[at..].fill(0);
        }
        let damage = clean.iter().zip(&torn).position(|(a, b)| a != b);
        let damage = damage.map_or(u64::MAX, |d| d as u64);
        let kept = lsns[1..].iter().take_while(|&&end| end <= damage).count();

        let (read, resume) = LogReader::new(device_of(page, &torn)).read_all().unwrap();
        prop_assert_eq!(resume, lsns[kept]);
        prop_assert_eq!(read.len(), kept);
        for ((lsn, record), (want_lsn, want)) in read.iter().zip(lsns.iter().zip(&records)) {
            prop_assert_eq!(lsn, want_lsn);
            prop_assert_eq!(record, want);
        }
    }
}

/// The model store recovery writes into: one map over `(index, key)`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Mem(BTreeMap<Slot, Vec<u8>>);

impl RecoveryTarget for Mem {
    fn apply_put(&mut self, index: u8, key: &[u8], value: &[u8]) {
        self.0.insert((index, key.to_vec()), value.to_vec());
    }
    fn apply_remove(&mut self, index: u8, key: &[u8]) {
        self.0.remove(&(index, key.to_vec()));
    }
}

/// One step of a script over four transaction slots; a slot with no open
/// transaction begins one at its next write.
#[derive(Debug, Clone)]
enum Step {
    Put {
        slot: usize,
        index: u8,
        key: u8,
    },
    Remove {
        slot: usize,
        index: u8,
        key: u8,
    },
    Commit(usize),
    Abort(usize),
    /// A commit whose sync failed, then the abort that compensated it:
    /// `Commit` and `Abort` for one transaction, the abort authoritative.
    CommitThenAbort(usize),
    Checkpoint,
}

fn step() -> impl Strategy<Value = Step> {
    let slot = || 0usize..4;
    // Puts twice as often as anything else.
    prop_oneof![
        (slot(), 0u8..2, 0u8..6).prop_map(|(slot, index, key)| Step::Put { slot, index, key }),
        (slot(), 0u8..2, 0u8..6).prop_map(|(slot, index, key)| Step::Remove { slot, index, key }),
        (slot(), 0u8..2, 0u8..6).prop_map(|(slot, index, key)| Step::Put { slot, index, key }),
        slot().prop_map(Step::Commit),
        slot().prop_map(Step::Abort),
        slot().prop_map(Step::CommitThenAbort),
        Just(Step::Checkpoint),
    ]
}

/// An `(index, key)` of the store.
type Slot = (u8, Vec<u8>);
/// Per transaction, its writes in order: where, the value (`None` =
/// absent), and the LSN of the write's record.
type Writes = BTreeMap<u64, Vec<(Slot, Option<Vec<u8>>, u64)>>;

/// A script run the way the transaction manager runs it: a write logs its
/// before-image, then applies; keys stay locked to their writer until it
/// ends; an abort undoes online; a crash leaves every applied write in the
/// store and the open transactions as losers.
struct Run {
    log: LogWriter,
    /// The store at the crash.
    store: Mem,
    /// The media at the crash, had every page reached it before the aborts
    /// compensated: the store at the last checkpoint plus every write since,
    /// no compensation applied.
    media: Mem,
    /// Winners' writes alone, replayed in log order: what recovery must
    /// leave.
    expected: Mem,
    winners: BTreeSet<u64>,
    /// LSNs of the winners' writes, and of the last checkpoint (0: none).
    won: Vec<u64>,
    checkpoint: u64,
    /// Per aborted transaction, the LSN of its `Abort` and its writes.
    aborted: Vec<(u64, usize)>,
    open: [Option<u64>; 4],
    /// Each open transaction's undo (before-images), oldest first.
    undo: Writes,
    /// Each open transaction's writes, for the model if it commits.
    redo: Writes,
    locks: BTreeMap<Slot, u64>,
    next_txn: u64,
    /// Writes so far: every value written is a fresh one.
    writes: u64,
}

impl Run {
    fn new() -> Self {
        Run {
            log: LogWriter::new(Box::new(InMemoryDevice::new(128)), 0).unwrap(),
            store: Mem::default(),
            media: Mem::default(),
            expected: Mem::default(),
            winners: BTreeSet::new(),
            won: Vec::new(),
            checkpoint: 0,
            aborted: Vec::new(),
            open: [None; 4],
            undo: BTreeMap::new(),
            redo: BTreeMap::new(),
            locks: BTreeMap::new(),
            next_txn: 1,
            writes: 0,
        }
    }

    fn write(&mut self, slot: usize, index: u8, key: u8, put: bool) {
        let txn = match self.open[slot] {
            Some(txn) => txn,
            None => {
                let txn = self.next_txn;
                self.next_txn += 1;
                self.log.append(&LogRecord::Begin { txn }).unwrap();
                self.open[slot] = Some(txn);
                txn
            }
        };
        let at = (index, vec![key]);
        if *self.locks.entry(at.clone()).or_insert(txn) != txn {
            return; // another open transaction holds the key
        }
        let old = self.store.0.get(&at).cloned();
        self.writes += 1;
        let new = put.then(|| self.writes.to_le_bytes().to_vec());
        let record = match (&old, &new) {
            (_, Some(new)) => LogRecord::Put {
                txn,
                index,
                key: at.1.clone(),
                old: old.clone(),
                new: new.clone(),
            },
            (Some(old), None) => LogRecord::Remove {
                txn,
                index,
                key: at.1.clone(),
                old: old.clone(),
            },
            (None, None) => return, // the manager logs no remove of an absent key
        };
        let lsn = self.log.append(&record).unwrap();
        set(&mut self.store, &at, new.as_deref());
        set(&mut self.media, &at, new.as_deref());
        self.undo
            .entry(txn)
            .or_default()
            .push((at.clone(), old, lsn));
        self.redo.entry(txn).or_default().push((at, new, lsn));
    }

    /// End the transaction in `slot`, if one is open.
    fn end(&mut self, slot: usize, commit: bool, abort: bool) {
        let Some(txn) = self.open[slot].take() else {
            return;
        };
        if commit {
            self.log.append(&LogRecord::Commit { txn }).unwrap();
        }
        if abort {
            let undo = self.undo.remove(&txn).unwrap_or_default();
            let lsn = self.log.append(&LogRecord::Abort { txn }).unwrap();
            self.aborted.push((lsn, undo.len()));
            for (at, old, _) in undo.into_iter().rev() {
                set(&mut self.store, &at, old.as_deref());
            }
        } else {
            self.winners.insert(txn);
            for (at, new, lsn) in self.redo.remove(&txn).unwrap_or_default() {
                set(&mut self.expected, &at, new.as_deref());
                self.won.push(lsn);
            }
        }
        self.locks.retain(|_, owner| *owner != txn);
    }
}

fn set(mem: &mut Mem, at: &Slot, value: Option<&[u8]>) {
    match value {
        Some(v) => mem.apply_put(at.0, &at.1, v),
        None => mem.apply_remove(at.0, &at.1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Recovery from the image (`recover`) and from `read_all`'s owned
    /// records (`recover_records`) agree on every count and leave the same
    /// store, which holds the winners' writes and nothing else — also from
    /// media that never saw an abort's compensation, which recovery
    /// re-applies at each `Abort` after the last checkpoint.
    #[test]
    fn recovery_over_the_image_equals_recovery_over_records(
        steps in prop::collection::vec(step(), 0..60),
    ) {
        let mut run = Run::new();
        for step in steps {
            match step {
                Step::Put { slot, index, key } => run.write(slot, index, key, true),
                Step::Remove { slot, index, key } => run.write(slot, index, key, false),
                Step::Commit(slot) => run.end(slot, true, false),
                Step::Abort(slot) => run.end(slot, false, true),
                Step::CommitThenAbort(slot) => run.end(slot, true, true),
                Step::Checkpoint => {
                    run.checkpoint = run.log.append(&LogRecord::Checkpoint).unwrap();
                    run.media = run.store.clone();
                }
            }
        }
        let losers: BTreeSet<u64> = run.open.iter().flatten().copied().collect();
        let loser_writes: usize = losers.iter().map(|t| run.undo.get(t).map_or(0, Vec::len)).sum();
        let redone = run.won.iter().filter(|&&lsn| lsn > run.checkpoint).count();
        let compensated: usize = run
            .aborted
            .iter()
            .filter_map(|&(lsn, writes)| (lsn > run.checkpoint).then_some(writes))
            .sum();

        let mut reader = LogReader::new(run.log.into_device());
        let (records, resume) = reader.read_all().unwrap();
        let mut from_records = run.store.clone();
        let by_records = recover_records(&records, resume, &mut from_records);
        let mut from_image = run.store.clone();
        let by_image = recover(LogReader::new(reader.into_device()), &mut from_image).unwrap();
        let mut from_media = run.media.clone();
        let by_media = recover_records(&records, resume, &mut from_media);

        prop_assert_eq!(&by_image, &by_records);
        prop_assert_eq!(&from_image, &from_records);
        prop_assert_eq!(&from_image, &run.expected);
        prop_assert_eq!(&by_media, &by_image);
        prop_assert_eq!(&from_media, &run.expected);
        prop_assert_eq!(by_image.winners, run.winners.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(by_image.losers, losers.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(by_image.redo_applied, redone);
        prop_assert_eq!(by_image.undo_applied, loser_writes + compensated);
        prop_assert_eq!(by_image.resume_lsn, resume);
    }
}
