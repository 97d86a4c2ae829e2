//! Logical write-ahead-log records and their wire encoding.
//!
//! Records are *logical* (key-level) rather than physical (page-level):
//! `Put` carries the key, the old value (for undo) and the new value (for
//! redo); `Remove` carries the removed value. Logical logging keeps the
//! transaction feature decoupled from the storage layer — exactly the
//! modularity boundary the FAME-DBMS feature diagram draws.
//!
//! Wire format per record: `[len:u32][checksum:u32][payload]`, where the
//! checksum is Fletcher-32 over the payload. A mismatching checksum or an
//! implausible length marks the torn tail of the log after a crash.

/// Transaction identifier.
pub type TxnId = u64;

/// A logical WAL record. `B` holds its byte strings: owned (`Vec<u8>`, the
/// default) where a record is built or kept, borrowed (`&[u8]`) where it is
/// read in place from a frame of a [`crate::LogImage`] or viewed from an
/// owned record — what recovery and the commit path's encoder take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord<B = Vec<u8>> {
    /// Transaction started.
    Begin {
        /// The transaction.
        txn: TxnId,
    },
    /// Transaction committed (durable once this record is synced).
    Commit {
        /// The transaction.
        txn: TxnId,
    },
    /// Transaction aborted (undo already applied by the manager).
    Abort {
        /// The transaction.
        txn: TxnId,
    },
    /// A key was inserted or overwritten in index `index`.
    Put {
        /// The transaction.
        txn: TxnId,
        /// Which index of the product the operation targeted.
        index: u8,
        /// The key.
        key: B,
        /// Previous value (`None` = key was absent), for undo.
        old: Option<B>,
        /// New value, for redo.
        new: B,
    },
    /// A key was removed from index `index`.
    Remove {
        /// The transaction.
        txn: TxnId,
        /// Which index of the product the operation targeted.
        index: u8,
        /// The key.
        key: B,
        /// The removed value, for undo.
        old: B,
    },
    /// Clean checkpoint: all data pages were flushed; recovery may start
    /// scanning here.
    Checkpoint,
}

impl<B: AsRef<[u8]>> LogRecord<B> {
    /// The record's transaction, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::Put { txn, .. }
            | LogRecord::Remove { txn, .. } => Some(*txn),
            LogRecord::Checkpoint => None,
        }
    }

    /// The same record over borrowed bytes.
    pub(crate) fn as_ref(&self) -> LogRecord<&[u8]> {
        self.map(|b| b.as_ref())
    }

    /// The same record with each byte string passed through `f`.
    fn map<'a, C>(&'a self, f: impl Fn(&'a B) -> C) -> LogRecord<C> {
        match self {
            LogRecord::Begin { txn } => LogRecord::Begin { txn: *txn },
            LogRecord::Commit { txn } => LogRecord::Commit { txn: *txn },
            LogRecord::Abort { txn } => LogRecord::Abort { txn: *txn },
            LogRecord::Put {
                txn,
                index,
                key,
                old,
                new,
            } => LogRecord::Put {
                txn: *txn,
                index: *index,
                key: f(key),
                old: old.as_ref().map(&f),
                new: f(new),
            },
            LogRecord::Remove {
                txn,
                index,
                key,
                old,
            } => LogRecord::Remove {
                txn: *txn,
                index: *index,
                key: f(key),
                old: f(old),
            },
            LogRecord::Checkpoint => LogRecord::Checkpoint,
        }
    }

    /// Serialize the payload (without the length/checksum frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Serialize the payload by appending to `out`, reusing its existing
    /// allocation. This is the hot-path entry: [`crate::LogWriter`] keeps
    /// one persistent frame buffer and encodes every record into it — the
    /// commit path a borrowed one, built from the caller's slices — so a
    /// steady-state append performs no heap allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self {
            LogRecord::Begin { .. } => 1,
            LogRecord::Commit { .. } => 2,
            LogRecord::Abort { .. } => 3,
            LogRecord::Put { .. } => 4,
            LogRecord::Remove { .. } => 5,
            LogRecord::Checkpoint => 6,
        });
        if let Some(txn) = self.txn() {
            out.extend_from_slice(&txn.to_le_bytes());
        }
        match self {
            LogRecord::Put {
                index,
                key,
                old,
                new,
                ..
            } => {
                out.push(*index);
                put_bytes(out, key.as_ref());
                match old {
                    None => out.push(0),
                    Some(o) => {
                        out.push(1);
                        put_bytes(out, o.as_ref());
                    }
                }
                put_bytes(out, new.as_ref());
            }
            LogRecord::Remove {
                index, key, old, ..
            } => {
                out.push(*index);
                put_bytes(out, key.as_ref());
                put_bytes(out, old.as_ref());
            }
            _ => {}
        }
    }
}

impl<'a> LogRecord<&'a [u8]> {
    /// Parse a payload produced by [`LogRecord::encode`] in place: the
    /// record's byte strings borrow from `data`.
    pub(crate) fn parse(data: &'a [u8]) -> Option<Self> {
        fn get_u64(data: &[u8], at: usize) -> Option<u64> {
            data.get(at..at + 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        }
        fn get_bytes(data: &[u8], at: usize) -> Option<(&[u8], usize)> {
            let len =
                u32::from_le_bytes(data.get(at..at + 4)?.try_into().expect("4 bytes")) as usize;
            let start = at + 4;
            Some((data.get(start..start + len)?, start + len))
        }

        let (&tag, _) = data.split_first()?;
        Some(match tag {
            1 => LogRecord::Begin {
                txn: get_u64(data, 1)?,
            },
            2 => LogRecord::Commit {
                txn: get_u64(data, 1)?,
            },
            3 => LogRecord::Abort {
                txn: get_u64(data, 1)?,
            },
            4 => {
                let txn = get_u64(data, 1)?;
                let index = *data.get(9)?;
                let (key, at) = get_bytes(data, 10)?;
                let (old, at) = match *data.get(at)? {
                    0 => (None, at + 1),
                    1 => {
                        let (o, at) = get_bytes(data, at + 1)?;
                        (Some(o), at)
                    }
                    _ => return None,
                };
                let (new, _) = get_bytes(data, at)?;
                LogRecord::Put {
                    txn,
                    index,
                    key,
                    old,
                    new,
                }
            }
            5 => {
                let txn = get_u64(data, 1)?;
                let index = *data.get(9)?;
                let (key, at) = get_bytes(data, 10)?;
                let (old, _) = get_bytes(data, at)?;
                LogRecord::Remove {
                    txn,
                    index,
                    key,
                    old,
                }
            }
            6 => LogRecord::Checkpoint,
            _ => return None,
        })
    }

    /// The record with its byte strings copied out.
    pub(crate) fn to_owned(&self) -> LogRecord {
        self.map(|b| b.to_vec())
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Fletcher-32 over the record payload. Kept local so the transaction
/// feature does not depend on the (optional) crypto feature. Each sum stays
/// below 2^32 for 359 words from a reduced start, so it is reduced once per
/// block of that many — the same residues as a modulo per word, and
/// `0xFFFF_FFFF` for no word at all.
pub(crate) fn checksum(data: &[u8]) -> u32 {
    let (mut s1, mut s2) = (0xFFFFu32, 0xFFFFu32);
    for block in data.chunks(2 * 359) {
        let mut words = block.chunks_exact(2);
        for w in &mut words {
            s1 += u32::from(u16::from_le_bytes([w[0], w[1]]));
            s2 += s1;
        }
        if let [b] = words.remainder() {
            s1 += u32::from(*b);
            s2 += s1;
        }
        (s1, s2) = (s1 % 65535, s2 % 65535);
    }
    (s2 << 16) | s1
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn record_strategy() -> impl Strategy<Value = LogRecord> {
        let bytes = || prop::collection::vec(any::<u8>(), 0..64);
        prop_oneof![
            any::<u64>().prop_map(|txn| LogRecord::Begin { txn }),
            any::<u64>().prop_map(|txn| LogRecord::Commit { txn }),
            any::<u64>().prop_map(|txn| LogRecord::Abort { txn }),
            (
                any::<u64>(),
                any::<u8>(),
                bytes(),
                prop::option::of(bytes()),
                bytes()
            )
                .prop_map(|(txn, index, key, old, new)| LogRecord::Put {
                    txn,
                    index,
                    key,
                    old,
                    new,
                }),
            (any::<u64>(), any::<u8>(), bytes(), bytes()).prop_map(|(txn, index, key, old)| {
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

    proptest! {
        #[test]
        fn any_record_round_trips(r in record_strategy()) {
            let enc = r.encode();
            prop_assert_eq!(LogRecord::parse(&enc), Some(r.as_ref()));
        }

        /// Truncated payloads never decode to a *different* valid record
        /// of the same encoded length (decode must not read past what the
        /// length header promises).
        #[test]
        fn truncation_never_panics(r in record_strategy(), cut in 0usize..64) {
            let enc = r.encode();
            let cut = cut.min(enc.len());
            let _ = LogRecord::parse(&enc[..cut]); // must not panic
        }

        #[test]
        fn checksum_differs_on_mutation(r in record_strategy(), at in any::<prop::sample::Index>()) {
            let enc = r.encode();
            prop_assume!(!enc.is_empty());
            let i = at.index(enc.len());
            let mut mutated = enc.clone();
            mutated[i] ^= 0x5A;
            prop_assume!(mutated != enc);
            prop_assert_ne!(checksum(&mutated), checksum(&enc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::Commit { txn: u64::MAX },
            LogRecord::Abort { txn: 0 },
            LogRecord::Put {
                txn: 7,
                index: 2,
                key: b"k".to_vec(),
                old: None,
                new: b"v".to_vec(),
            },
            LogRecord::Put {
                txn: 7,
                index: 0,
                key: vec![],
                old: Some(b"before".to_vec()),
                new: vec![0xFF; 100],
            },
            LogRecord::Remove {
                txn: 9,
                index: 255,
                key: b"gone".to_vec(),
                old: b"old-value".to_vec(),
            },
            LogRecord::Checkpoint,
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for r in samples() {
            let enc = r.encode();
            assert_eq!(LogRecord::parse(&enc), Some(r.as_ref()));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(LogRecord::parse(&[]), None);
        assert_eq!(LogRecord::parse(&[42]), None);
        assert_eq!(LogRecord::parse(&[1, 0, 0]), None); // truncated txn id
        assert_eq!(LogRecord::parse(&[4, 0, 0, 0, 0, 0, 0, 0, 0]), None);
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::<Vec<u8>>::Begin { txn: 3 }.txn(), Some(3));
        assert_eq!(LogRecord::<Vec<u8>>::Checkpoint.txn(), None);
    }

    #[test]
    fn checksum_is_fletcher_32() {
        // Published vectors, and the unreduced start for no word at all.
        assert_eq!(checksum(b"abcde"), 0xF04F_C729);
        assert_eq!(checksum(b"abcdef"), 0x5650_2D2A);
        assert_eq!(checksum(b"abcdefgh"), 0xEBE1_9591);
        assert_eq!(checksum(b""), 0xFFFF_FFFF);
    }

    #[test]
    fn checksum_detects_change() {
        let a = checksum(b"hello world");
        let mut data = b"hello world".to_vec();
        data[3] ^= 1;
        assert_ne!(checksum(&data), a);
        assert_eq!(checksum(b"hello world"), a);
    }
}
