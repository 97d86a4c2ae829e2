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

/// A logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
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
        key: Vec<u8>,
        /// Previous value (`None` = key was absent), for undo.
        old: Option<Vec<u8>>,
        /// New value, for redo.
        new: Vec<u8>,
    },
    /// A key was removed from index `index`.
    Remove {
        /// The transaction.
        txn: TxnId,
        /// Which index of the product the operation targeted.
        index: u8,
        /// The key.
        key: Vec<u8>,
        /// The removed value, for undo.
        old: Vec<u8>,
    },
    /// Clean checkpoint: all data pages were flushed; recovery may start
    /// scanning here.
    Checkpoint,
}

impl LogRecord {
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

    /// Serialize the payload (without the length/checksum frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Serialize the payload by appending to `out`, reusing its existing
    /// allocation. This is the hot-path entry: [`crate::LogWriter`] keeps
    /// one persistent frame buffer and encodes every record into it, so a
    /// steady-state append performs no heap allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Begin { txn } => {
                out.push(1);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::Commit { txn } => {
                out.push(2);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::Abort { txn } => {
                out.push(3);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            LogRecord::Put {
                txn,
                index,
                key,
                old,
                new,
            } => encode_put(out, *txn, *index, key, old.as_deref(), new),
            LogRecord::Remove {
                txn,
                index,
                key,
                old,
            } => encode_remove(out, *txn, *index, key, old),
            LogRecord::Checkpoint => out.push(6),
        }
    }

    /// Deserialize a payload produced by [`LogRecord::encode`].
    pub fn decode(data: &[u8]) -> Option<LogRecord> {
        fn get_u64(data: &[u8], at: usize) -> Option<u64> {
            data.get(at..at + 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        }
        fn get_bytes(data: &[u8], at: usize) -> Option<(Vec<u8>, usize)> {
            let len =
                u32::from_le_bytes(data.get(at..at + 4)?.try_into().expect("4 bytes")) as usize;
            let start = at + 4;
            Some((data.get(start..start + len)?.to_vec(), start + len))
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
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// The payload of a [`LogRecord::Put`], from borrowed parts: the commit
/// path encodes the caller's slices straight into the frame buffer
/// instead of copying them into a throw-away record first.
pub(crate) fn encode_put(
    out: &mut Vec<u8>,
    txn: TxnId,
    index: u8,
    key: &[u8],
    old: Option<&[u8]>,
    new: &[u8],
) {
    out.push(4);
    out.extend_from_slice(&txn.to_le_bytes());
    out.push(index);
    put_bytes(out, key);
    match old {
        None => out.push(0),
        Some(o) => {
            out.push(1);
            put_bytes(out, o);
        }
    }
    put_bytes(out, new);
}

/// The payload of a [`LogRecord::Remove`], from borrowed parts.
pub(crate) fn encode_remove(out: &mut Vec<u8>, txn: TxnId, index: u8, key: &[u8], old: &[u8]) {
    out.push(5);
    out.extend_from_slice(&txn.to_le_bytes());
    out.push(index);
    put_bytes(out, key);
    put_bytes(out, old);
}

/// Fletcher-32 over the record payload. Kept local so the transaction
/// feature does not depend on the (optional) crypto feature.
pub(crate) fn checksum(data: &[u8]) -> u32 {
    let mut s1: u32 = 0xFFFF;
    let mut s2: u32 = 0xFFFF;
    let mut iter = data.chunks_exact(2);
    for w in &mut iter {
        s1 = (s1 + u32::from(u16::from_le_bytes([w[0], w[1]]))) % 65535;
        s2 = (s2 + s1) % 65535;
    }
    if let [b] = iter.remainder() {
        s1 = (s1 + u32::from(*b)) % 65535;
        s2 = (s2 + s1) % 65535;
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
            prop_assert_eq!(LogRecord::decode(&r.encode()), Some(r));
        }

        /// Truncated payloads never decode to a *different* valid record
        /// of the same encoded length (decode must not read past what the
        /// length header promises).
        #[test]
        fn truncation_never_panics(r in record_strategy(), cut in 0usize..64) {
            let enc = r.encode();
            let cut = cut.min(enc.len());
            let _ = LogRecord::decode(&enc[..cut]); // must not panic
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
            assert_eq!(LogRecord::decode(&enc), Some(r));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(LogRecord::decode(&[]), None);
        assert_eq!(LogRecord::decode(&[42]), None);
        assert_eq!(LogRecord::decode(&[1, 0, 0]), None); // truncated txn id
        assert_eq!(LogRecord::decode(&[4, 0, 0, 0, 0, 0, 0, 0, 0]), None);
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::Begin { txn: 3 }.txn(), Some(3));
        assert_eq!(LogRecord::Checkpoint.txn(), None);
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
