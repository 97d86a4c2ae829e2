//! Deadlock handling of the blocking lock table, driven by deterministic
//! scripts. Each blocking request runs on its own thread and the script
//! moves on once the table counts it as parked — never after a sleep. The
//! lock timeout is far longer than any script, so a `Timeout` where a
//! `Deadlock` is due can only mean a cycle the detector missed.

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use fame_txn::{block_of, LockError, LockMode, LockTable, TxnId};

use LockMode::{Exclusive as X, Shared as S};

fn table() -> Arc<LockTable> {
    Arc::new(LockTable::new(Duration::from_secs(30)))
}

/// Run `txn`'s blocking request on a new thread; return once the table
/// has `parked` requests parked.
fn park(
    lt: &Arc<LockTable>,
    txn: TxnId,
    key: &'static [u8],
    mode: LockMode,
    parked: usize,
) -> JoinHandle<Result<bool, LockError>> {
    let table = Arc::clone(lt);
    let h = thread::spawn(move || table.acquire(txn, key, mode));
    while lt.parked() < parked {
        thread::yield_now();
    }
    h
}

fn is_victim(r: Result<bool, LockError>, txn: TxnId) -> bool {
    matches!(r, Err(LockError::Deadlock { requester, .. }) if requester == txn)
}

#[test]
fn deadlock_aborts_youngest() {
    // T1 holds a, T2 holds b; T2 blocks on a, then T1 blocks on b →
    // cycle {1, 2}; the youngest (2) is flagged, T1 keeps waiting.
    let lt = table();
    lt.acquire(1, b"a", X).unwrap();
    lt.acquire(2, b"b", X).unwrap();
    let t2 = park(&lt, 2, b"a", X, 1);
    let t1 = thread::spawn({
        let lt = Arc::clone(&lt);
        move || lt.acquire(1, b"b", X)
    });
    assert!(is_victim(t2.join().unwrap(), 2));
    // The victim aborts: releasing everything unblocks T1.
    lt.release_all(2);
    t1.join().unwrap().unwrap();
    lt.release_all(1);
    assert_eq!(lt.locked_blocks(), 0);
}

#[test]
fn deadlock_when_requester_is_youngest() {
    // T2 (youngest) closes the cycle itself → immediate error, no wait.
    let lt = table();
    lt.acquire(1, b"a", X).unwrap();
    lt.acquire(2, b"b", X).unwrap();
    let t1 = park(&lt, 1, b"b", X, 1);
    assert!(is_victim(lt.acquire(2, b"a", X), 2));
    lt.release_all(2);
    t1.join().unwrap().unwrap();
    lt.release_all(1);
}

/// T1 and T2 share `k`; T1 asks for X and waits for T2, T5 queues for S
/// behind T1, then T2 asks for X. The cycle is T1 ⇄ T2; T5 waits behind
/// it but is not on it, so aborting T5 would break nothing and leave T1
/// and T2 waiting on each other until the timeout.
#[test]
fn the_victim_is_on_the_cycle() {
    let lt = table();
    lt.acquire(1, b"k", S).unwrap();
    lt.acquire(2, b"k", S).unwrap();
    let t1 = park(&lt, 1, b"k", X, 1);
    let t5 = park(&lt, 5, b"k", S, 2);
    let r2 = lt.acquire(2, b"k", X);
    assert!(is_victim(r2.clone(), 2), "T2 closes the cycle: {r2:?}");
    lt.release_all(2);
    t1.join().unwrap().expect("T1 upgrades once T2 is gone");
    lt.release_all(1);
    t5.join().unwrap().expect("T5 was never on the cycle");
    lt.release_all(5);
    assert_eq!(lt.locked_blocks(), 0);
}

/// One request can close two cycles at once: T1 holds `a` and `b`, T2 and
/// T3 share `c` and wait for `a` and `b`, then T1 asks for X on `c`. Each
/// cycle loses its youngest member, so both T2 and T3 are flagged — one
/// victim alone would leave the other cycle standing.
#[test]
fn every_cycle_through_the_requester_loses_a_victim() {
    let lt = table();
    lt.acquire(1, b"a", X).unwrap();
    lt.acquire(1, b"b", X).unwrap();
    lt.acquire(2, b"c", S).unwrap();
    lt.acquire(3, b"c", S).unwrap();
    let t2 = park(&lt, 2, b"a", X, 1);
    let t3 = park(&lt, 3, b"b", X, 2);
    let t1 = thread::spawn({
        let lt = Arc::clone(&lt);
        move || lt.acquire(1, b"c", X)
    });
    assert!(is_victim(t2.join().unwrap(), 2));
    assert!(is_victim(t3.join().unwrap(), 3));
    lt.release_all(2);
    lt.release_all(3);
    t1.join().unwrap().unwrap();
    lt.release_all(1);
    assert_eq!(lt.locked_blocks(), 0);
}

/// A victim that parks in `wait_released` comes back only once the winner
/// its error names has released the block it lost.
#[test]
fn a_victim_parks_until_its_winner_releases() {
    let lt = table();
    lt.acquire(1, b"a", X).unwrap();
    lt.acquire(2, b"b", X).unwrap();
    let t1 = park(&lt, 1, b"b", X, 1);
    let Err(LockError::Deadlock { block, holders, .. }) = lt.acquire(2, b"a", X) else {
        panic!("T2 closes the cycle and is its youngest member");
    };
    assert_eq!((block, holders.as_slice()), (block_of(b"a"), &[1][..]));
    lt.release_all(2);
    t1.join().unwrap().unwrap();

    let released = Arc::new(AtomicBool::new(false));
    let victim = thread::spawn({
        let (lt, released) = (Arc::clone(&lt), Arc::clone(&released));
        move || {
            lt.wait_released(block, &holders);
            released.load(SeqCst)
        }
    });
    while lt.parked() < 1 {
        thread::yield_now();
    }
    released.store(true, SeqCst);
    lt.release_all(1);
    assert!(
        victim.join().unwrap(),
        "the park returned before T1 released"
    );
    assert_eq!(lt.parked(), 0);
    // Nothing left to wait for: the park returns at once.
    lt.wait_released(block, &[1]);
}
