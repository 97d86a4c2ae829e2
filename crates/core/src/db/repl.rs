//! Replication (Berkeley DB REPLICATION, §2.2): replicas, their lag, the
//! convergence digest, and the shipping the after-write step does.

use super::*;

impl Database {
    /// Attach a replica; pump it with `poll()` or run it with `spawn()`
    /// (feature `replication`).
    pub fn attach_replica(&mut self) -> Result<fame_repl::Replica> {
        let r = self
            .replication
            .as_mut()
            .ok_or_else(|| DbmsError::Config("replication not enabled in config".into()))?;
        Ok(r.add_replica())
    }

    /// Replication lag: shipped minus acknowledged sequence numbers.
    pub fn replication_lag(&mut self) -> Option<u64> {
        self.replication
            .as_mut()
            .map(|p| p.last_seq() - p.commit_horizon())
    }

    /// Digest of the primary's KV state; compare with
    /// [`fame_repl::ReplicaState::digest`] to verify convergence
    /// (B+-tree index only — the digest needs a deterministic order).
    #[cfg(feature = "index-btree")]
    pub fn state_digest(&mut self) -> Result<u64> {
        let mut core = self.engine.core();
        let core = &mut *core;
        let tree = core
            .kv
            .btree()
            .ok_or_else(|| DbmsError::Config("state digest needs the B+-tree".into()))?;
        let entries = tree.scan(&mut core.pager, None, None)?;
        Ok(fame_repl::digest_of(
            entries
                .iter()
                .map(|(k, v)| (0u8, k.as_slice(), v.as_slice())),
        ))
    }

    /// Ship each written key to the replicas as the index holds it now — a
    /// put of its value, or a remove — after a write, a batch or a commit:
    /// the facade holds `&mut self`, so nothing interleaves. Nothing is
    /// read unless replication is configured.
    pub(super) fn ship_keys<K: AsRef<[u8]>>(
        &mut self,
        keys: impl IntoIterator<Item = K>,
    ) -> Result<()> {
        let Some(primary) = &mut self.replication else {
            return Ok(());
        };
        for key in keys {
            let key = key.as_ref().to_vec();
            primary.ship(match self.engine.core().kv_get(&key)? {
                Some(value) => fame_repl::ShipOp::Put {
                    index: 0,
                    key,
                    value,
                },
                None => fame_repl::ShipOp::Remove { index: 0, key },
            })?;
        }
        Ok(())
    }
}
