//! The replica: applies shipped operations and acknowledges progress.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use crate::message::{ReplMsg, ShipOp};

/// The replica's materialized state: `(index, key) -> value`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaState {
    data: BTreeMap<(u8, Vec<u8>), Vec<u8>>,
    /// Highest applied sequence number.
    pub applied_seq: u64,
}

impl ReplicaState {
    /// Look up a key in an index.
    pub fn get(&self, index: u8, key: &[u8]) -> Option<&Vec<u8>> {
        self.data.get(&(index, key.to_vec()))
    }

    /// Number of live keys across all indexes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the replica holds no data.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn apply(&mut self, seq: u64, op: &ShipOp) {
        debug_assert_eq!(seq, self.applied_seq + 1, "gapless application");
        match op {
            ShipOp::Put { index, key, value } => {
                self.data.insert((*index, key.clone()), value.clone());
            }
            ShipOp::Remove { index, key } => {
                self.data.remove(&(*index, key.clone()));
            }
        }
        self.applied_seq = seq;
    }

    /// Order-independent digest of the state (FNV-1a over sorted entries);
    /// primaries compare digests to verify convergence.
    pub fn digest(&self) -> u64 {
        digest_of(
            self.data
                .iter()
                .map(|((idx, k), v)| (*idx, k.as_slice(), v.as_slice())),
        )
    }
}

/// Compute the digest of an arbitrary `(index, key, value)` iterator with
/// the same algorithm as [`ReplicaState::digest`] — used by the primary to
/// compare its own state against replicas.
pub fn digest_of<'a>(entries: impl Iterator<Item = (u8, &'a [u8], &'a [u8])>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for (idx, k, v) in entries {
        mix(idx);
        for &b in k {
            mix(b);
        }
        mix(0xFE);
        for &b in v {
            mix(b);
        }
        mix(0xFF);
    }
    h
}

/// A replica endpoint. Pump manually with [`Replica::poll`] or run on a
/// thread with [`Replica::spawn`].
pub struct Replica {
    id: usize,
    rx: Receiver<ReplMsg>,
    ack_tx: Sender<u64>,
    state: ReplicaState,
}

impl Replica {
    pub(crate) fn new(id: usize, rx: Receiver<ReplMsg>, ack_tx: Sender<u64>) -> Self {
        Replica {
            id,
            rx,
            ack_tx,
            state: ReplicaState::default(),
        }
    }

    /// The replica's id (assignment order on the primary).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current materialized state.
    pub fn state(&self) -> &ReplicaState {
        &self.state
    }

    /// Apply every pending message; returns how many operations were
    /// applied. Deterministic (no threads) — the test-friendly mode.
    pub fn poll(&mut self) -> usize {
        let mut applied = 0;
        while let Ok(msg) = self.rx.try_recv() {
            match msg {
                ReplMsg::Op { seq, op } => {
                    self.state.apply(seq, &op);
                    let _ = self.ack_tx.send(seq);
                    applied += 1;
                }
                ReplMsg::Heartbeat => {
                    let _ = self.ack_tx.send(self.state.applied_seq);
                }
                ReplMsg::Shutdown => break,
            }
        }
        applied
    }

    /// Run the apply loop on a thread until `Shutdown` (or the primary
    /// drops the channel). Returns a handle yielding the final state.
    pub fn spawn(self) -> ReplicaHandle {
        let shared: Arc<Mutex<ReplicaState>> = Arc::new(Mutex::new(self.state));
        let shared2 = Arc::clone(&shared);
        let rx = self.rx;
        let ack_tx = self.ack_tx;
        let join = std::thread::spawn(move || {
            while let Ok(msg) = rx.recv() {
                match msg {
                    ReplMsg::Op { seq, op } => {
                        shared2.lock().apply(seq, &op);
                        let _ = ack_tx.send(seq);
                    }
                    ReplMsg::Heartbeat => {
                        let _ = ack_tx.send(shared2.lock().applied_seq);
                    }
                    ReplMsg::Shutdown => break,
                }
            }
        });
        ReplicaHandle { shared, join }
    }
}

/// Handle to a threaded replica.
pub struct ReplicaHandle {
    shared: Arc<Mutex<ReplicaState>>,
    join: JoinHandle<()>,
}

impl ReplicaHandle {
    /// Snapshot of the replica state (cheap clone of small states).
    pub fn snapshot(&self) -> ReplicaState {
        self.shared.lock().clone()
    }

    /// Wait for the loop to finish and return the final state.
    pub fn join(self) -> ReplicaState {
        self.join.join().expect("replica thread panicked");
        Arc::try_unwrap(self.shared)
            .map(|m| m.into_inner())
            .unwrap_or_else(|arc| arc.lock().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primary::{AckPolicy, Primary};

    #[test]
    fn digest_matches_between_identical_states() {
        let mut p = Primary::new(AckPolicy::Asynchronous);
        let mut r1 = p.add_replica();
        let mut r2 = p.add_replica();
        for i in 0..20u32 {
            p.ship(ShipOp::Put {
                index: 0,
                key: i.to_be_bytes().to_vec(),
                value: vec![i as u8; 4],
            })
            .unwrap();
        }
        r1.poll();
        r2.poll();
        assert_eq!(r1.state().digest(), r2.state().digest());
        assert_eq!(r1.state(), r2.state());
    }

    #[test]
    fn digest_differs_when_states_diverge() {
        let mut p = Primary::new(AckPolicy::Asynchronous);
        let mut r1 = p.add_replica();
        let r2 = p.add_replica();
        p.ship(ShipOp::Put {
            index: 0,
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        })
        .unwrap();
        r1.poll();
        // r2 not polled: lagging state has a different digest.
        assert_ne!(r1.state().digest(), r2.state().digest());
    }

    #[test]
    fn digest_of_matches_replica_digest() {
        let mut p = Primary::new(AckPolicy::Asynchronous);
        let mut r = p.add_replica();
        p.ship(ShipOp::Put {
            index: 3,
            key: b"alpha".to_vec(),
            value: b"1".to_vec(),
        })
        .unwrap();
        p.ship(ShipOp::Put {
            index: 1,
            key: b"beta".to_vec(),
            value: b"2".to_vec(),
        })
        .unwrap();
        r.poll();
        // Entries in sorted (index, key) order, as BTreeMap iterates.
        let entries: Vec<(u8, Vec<u8>, Vec<u8>)> = vec![
            (1, b"beta".to_vec(), b"2".to_vec()),
            (3, b"alpha".to_vec(), b"1".to_vec()),
        ];
        let d = digest_of(
            entries
                .iter()
                .map(|(i, k, v)| (*i, k.as_slice(), v.as_slice())),
        );
        assert_eq!(d, r.state().digest());
    }

    #[test]
    fn heartbeat_reports_progress() {
        use crossbeam::channel::unbounded;
        let (tx, rx) = unbounded();
        let (ack_tx, ack_rx) = unbounded();
        let mut r = Replica::new(0, rx, ack_tx);
        tx.send(ReplMsg::Op {
            seq: 1,
            op: ShipOp::Put {
                index: 0,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
        })
        .unwrap();
        tx.send(ReplMsg::Heartbeat).unwrap();
        r.poll();
        let acks: Vec<u64> = ack_rx.try_iter().collect();
        assert_eq!(acks, vec![1, 1], "op ack then heartbeat ack");
    }

    #[test]
    fn threaded_replica_snapshot_converges() {
        let mut p = Primary::new(AckPolicy::Synchronous);
        let r = p.add_replica();
        let h = r.spawn();
        p.ship(ShipOp::Put {
            index: 0,
            key: b"x".to_vec(),
            value: b"y".to_vec(),
        })
        .unwrap();
        // Synchronous: the op is applied by now.
        assert_eq!(h.snapshot().get(0, b"x"), Some(&b"y".to_vec()));
        p.shutdown();
        h.join();
    }
}
