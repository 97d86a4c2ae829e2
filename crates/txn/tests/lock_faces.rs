//! The lock table's two faces share one grant rule: driven by the same
//! single-threaded script, no-wait `try_acquire` and blocking `acquire`
//! with a zero timeout must agree at every step.

use std::time::Duration;

use fame_txn::{LockMode, LockTable};
use proptest::prelude::*;

const KEYS: [&[u8]; 4] = [b"a", b"b", b"c", b"d"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each step is `(txn, key, op)`: op 0 = shared, 1 = exclusive,
    /// 2 = release everything `txn` holds. A blocking request that cannot
    /// be granted at once queues, finds no cycle (nobody else waits), times
    /// out and unqueues — so it must deny exactly where no-wait denies, and
    /// leave the same holders behind.
    #[test]
    fn no_wait_and_zero_timeout_blocking_agree(
        script in prop::collection::vec((1u64..5, 0usize..4, 0u8..3), 1..80),
    ) {
        let no_wait = LockTable::new(Duration::ZERO);
        let blocking = LockTable::new(Duration::ZERO);
        for (step, &(txn, key, op)) in script.iter().enumerate() {
            if op == 2 {
                no_wait.release_all(txn);
                blocking.release_all(txn);
            } else {
                let mode = if op == 0 { LockMode::Shared } else { LockMode::Exclusive };
                let a = no_wait.try_acquire(txn, KEYS[key], mode);
                let b = blocking.acquire(txn, KEYS[key], mode);
                prop_assert!(a.is_ok() == b.is_ok(), "step {step}: {a:?} vs {b:?}");
                if let Err(conflict) = a {
                    // The conflict names the *other* holders, never the requester.
                    prop_assert!(!conflict.holders.is_empty());
                    prop_assert!(!conflict.holders.contains(&txn));
                }
            }
            for k in KEYS {
                prop_assert_eq!(no_wait.holders(k), blocking.holders(k));
            }
            prop_assert_eq!(no_wait.locked_blocks(), blocking.locked_blocks());
        }
    }
}
