//! The primary: assigns sequence numbers and ships operations.

use std::fmt;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::message::{ReplMsg, ShipOp};
use crate::replica::Replica;

/// When does shipping "count as done".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPolicy {
    /// Fire and forget.
    Asynchronous,
    /// Wait for every replica to acknowledge the shipped sequence number.
    Synchronous,
}

/// Replication failures.
#[derive(Debug)]
pub enum ReplicationError {
    /// A replica's channel is gone (crashed replica).
    ReplicaDown(usize),
    /// A synchronous ack did not arrive in time.
    AckTimeout {
        /// Index of the silent replica.
        replica: usize,
        /// The sequence number awaited.
        seq: u64,
    },
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::ReplicaDown(i) => write!(f, "replica {i} is down"),
            ReplicationError::AckTimeout { replica, seq } => {
                write!(f, "replica {replica} did not ack seq {seq}")
            }
        }
    }
}

impl std::error::Error for ReplicationError {}

struct Link {
    tx: Sender<ReplMsg>,
    ack_rx: Receiver<u64>,
    /// Highest ack received so far.
    acked: u64,
}

/// The shipping side of replication, owned by the primary database.
pub struct Primary {
    links: Vec<Link>,
    policy: AckPolicy,
    seq: u64,
    ack_timeout: Duration,
    /// Tracing feature: one `repl-ship` span per shipped operation.
    #[cfg(feature = "trace")]
    sink: std::sync::OnceLock<std::sync::Arc<fame_obs::TraceSink>>,
}

impl Primary {
    /// Create a primary with the given acknowledgement policy.
    pub fn new(policy: AckPolicy) -> Self {
        Primary {
            links: Vec::new(),
            policy,
            seq: 0,
            ack_timeout: Duration::from_secs(5),
            #[cfg(feature = "trace")]
            sink: std::sync::OnceLock::new(),
        }
    }

    /// Install the span sink (Tracing feature); the first install wins.
    #[cfg(feature = "trace")]
    pub fn set_trace_sink(&self, sink: std::sync::Arc<fame_obs::TraceSink>) {
        let _ = self.sink.set(sink);
    }

    /// Ack timeout for the synchronous policy (default 5 s).
    #[cfg(test)]
    fn set_ack_timeout(&mut self, t: Duration) {
        self.ack_timeout = t;
    }

    /// Attach a new replica; returns it (pump with [`Replica::poll`] or
    /// run it with [`Replica::spawn`]).
    pub fn add_replica(&mut self) -> Replica {
        let (tx, rx) = unbounded();
        let (ack_tx, ack_rx) = unbounded();
        let id = self.links.len();
        self.links.push(Link {
            tx,
            ack_rx,
            acked: 0,
        });
        Replica::new(id, rx, ack_tx)
    }

    /// Last shipped sequence number.
    pub fn last_seq(&self) -> u64 {
        self.seq
    }

    /// Ship one committed operation to every replica, honouring the ack
    /// policy.
    pub fn ship(&mut self, op: ShipOp) -> Result<u64, ReplicationError> {
        self.seq += 1;
        let seq = self.seq;
        for (i, link) in self.links.iter().enumerate() {
            link.tx
                .send(ReplMsg::Op {
                    seq,
                    op: op.clone(),
                })
                .map_err(|_| ReplicationError::ReplicaDown(i))?;
        }
        if self.policy == AckPolicy::Synchronous {
            self.wait_for(seq)?;
        }
        #[cfg(feature = "trace")]
        if let Some(s) = self.sink.get() {
            s.emit(
                fame_obs::SpanKind::ReplShip,
                0,
                0,
                seq,
                self.links.len() as u64,
            );
        }
        Ok(seq)
    }

    /// Block until every replica acknowledged `seq`.
    fn wait_for(&mut self, seq: u64) -> Result<(), ReplicationError> {
        for (i, link) in self.links.iter_mut().enumerate() {
            while link.acked < seq {
                match link.ack_rx.recv_timeout(self.ack_timeout) {
                    Ok(a) => link.acked = link.acked.max(a),
                    Err(_) => return Err(ReplicationError::AckTimeout { replica: i, seq }),
                }
            }
        }
        Ok(())
    }

    /// Lowest acknowledged sequence across replicas (replication lag =
    /// `last_seq - commit_horizon`).
    pub fn commit_horizon(&mut self) -> u64 {
        for link in &mut self.links {
            while let Ok(a) = link.ack_rx.try_recv() {
                link.acked = link.acked.max(a);
            }
        }
        self.links.iter().map(|l| l.acked).min().unwrap_or(self.seq)
    }

    /// Send an orderly shutdown to all replicas.
    pub fn shutdown(&mut self) {
        for link in &self.links {
            let _ = link.tx.send(ReplMsg::Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_ship_converges_on_poll() {
        let mut p = Primary::new(AckPolicy::Asynchronous);
        let mut r = p.add_replica();
        p.ship(ShipOp::Put {
            index: 0,
            key: b"a".to_vec(),
            value: b"1".to_vec(),
        })
        .unwrap();
        p.ship(ShipOp::Remove {
            index: 0,
            key: b"a".to_vec(),
        })
        .unwrap();
        assert_eq!(r.poll(), 2);
        assert_eq!(r.state().applied_seq, 2);
        assert!(r.state().get(0, b"a").is_none());
    }

    #[test]
    fn sync_policy_waits_for_threaded_replica() {
        let mut p = Primary::new(AckPolicy::Synchronous);
        let r = p.add_replica();
        let handle = r.spawn();
        for i in 0..50u32 {
            p.ship(ShipOp::Put {
                index: 1,
                key: i.to_be_bytes().to_vec(),
                value: vec![i as u8],
            })
            .unwrap();
        }
        // Synchronous shipping means everything is already applied.
        assert_eq!(p.commit_horizon(), 50);
        p.shutdown();
        let state = handle.join();
        assert_eq!(state.len(), 50);
    }

    #[test]
    fn sync_ack_timeout_detected() {
        let mut p = Primary::new(AckPolicy::Synchronous);
        let _r = p.add_replica(); // never polled -> never acks
        p.set_ack_timeout(Duration::from_millis(20));
        let err = p
            .ship(ShipOp::Put {
                index: 0,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            })
            .unwrap_err();
        assert!(matches!(err, ReplicationError::AckTimeout { seq: 1, .. }));
    }

    #[test]
    fn dropped_replica_reported() {
        let mut p = Primary::new(AckPolicy::Asynchronous);
        let r = p.add_replica();
        drop(r);
        let err = p
            .ship(ShipOp::Put {
                index: 0,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            })
            .unwrap_err();
        assert!(matches!(err, ReplicationError::ReplicaDown(0)));
    }

    #[test]
    fn lag_visible_under_async() {
        let mut p = Primary::new(AckPolicy::Asynchronous);
        let mut r = p.add_replica();
        for _ in 0..10 {
            p.ship(ShipOp::Put {
                index: 0,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            })
            .unwrap();
        }
        assert_eq!(p.last_seq(), 10);
        assert_eq!(p.commit_horizon(), 0, "nothing applied yet");
        r.poll();
        assert_eq!(p.commit_horizon(), 10);
    }
}
