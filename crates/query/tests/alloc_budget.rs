//! Allocation budget of the SQL front end: a count gate, not a clock.
//!
//! A counting global allocator tallies the heap allocations the test
//! thread makes while a warm engine runs one statement. The point SELECT
//! of the `sql-scan` workload (`SELECT v FROM t WHERE id = <n>` over
//! `(id U32, v U32, pad TEXT)`) must stay within [`POINT_SELECT_BUDGET`];
//! the 100-row range statement and a two-row INSERT are printed so that a
//! change that moves them shows in the test output
//! (`cargo test -p fame-query --test alloc_budget -- --nocapture`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fame_buffer::{BufferPool, ReplacementKind};
use fame_os::{AllocPolicy, InMemoryDevice};
use fame_query::{QueryOutput, SqlEngine};
use fame_storage::{Pager, Value};

/// Allocations one warm point SELECT may make: the token buffer, the
/// identifiers the AST owns, the key bytes, the bound residual, and the
/// result set.
const POINT_SELECT_BUDGET: u64 = 16;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also serves threads being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: both calls are forwarded unchanged to the system allocator; the
// thread-local counter neither allocates nor touches the memory handed out.
// The provided `alloc_zeroed` and `realloc` go through `alloc`, so a
// growing `Vec` counts once per reallocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from `alloc` above, which hands
        // out the system allocator's blocks unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (reallocations included) the current thread makes
/// in `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const ROWS: u32 = 2_000;
const PAD: &str = "fame-dbms-benchmark-row-";

fn v_of(id: u32) -> u32 {
    id.wrapping_mul(2_654_435_761) % 1_000
}

/// The workload's table, loaded a hundred rows per INSERT, in a pool
/// that holds every page.
fn loaded() -> (Pager, SqlEngine) {
    let pool = BufferPool::new(
        Box::new(InMemoryDevice::new(512)),
        ReplacementKind::Lru,
        AllocPolicy::Dynamic {
            max_frames: Some(1_024),
        },
    );
    let mut pager = Pager::open(pool).unwrap();
    let mut e = SqlEngine::open_default(&mut pager).unwrap();
    e.execute(&mut pager, "CREATE TABLE t (id U32, v U32, pad TEXT)")
        .unwrap();
    for chunk in (0..ROWS).collect::<Vec<_>>().chunks(100) {
        let values: Vec<String> = chunk
            .iter()
            .map(|&id| format!("({id}, {}, '{PAD}')", v_of(id)))
            .collect();
        e.execute(
            &mut pager,
            &format!("INSERT INTO t VALUES {}", values.join(", ")),
        )
        .unwrap();
    }
    (pager, e)
}

#[test]
fn warm_statements_stay_within_their_allocation_budget() {
    let (mut pg, mut e) = loaded();
    let point = |id: u32| format!("SELECT v FROM t WHERE id = {id}");
    let range = |a: u32| {
        format!(
            "SELECT id, v FROM t WHERE id >= {a} AND id <= {} AND v > 500",
            a + 99
        )
    };
    // Warm: every page the statements touch is resident, and the table
    // has been resolved once.
    for id in (0..ROWS).step_by(7) {
        e.execute(&mut pg, &point(id)).unwrap();
    }

    let mut worst = 0;
    for id in [0, 1, 42, 999, 1_000, ROWS - 1] {
        let text = point(id);
        let (n, out) = allocations(|| e.execute(&mut pg, &text).unwrap());
        assert_eq!(
            out,
            QueryOutput::Rows {
                columns: vec!["v".to_string()],
                rows: vec![vec![Value::U32(v_of(id))]],
            }
        );
        worst = worst.max(n);
    }
    let text = range(1_234);
    let (range_allocs, out) = allocations(|| e.execute(&mut pg, &text).unwrap());
    let want = (1_234..1_334).filter(|&id| v_of(id) > 500).count();
    assert_eq!(out.rows().unwrap().len(), want);
    let text = format!(
        "INSERT INTO t VALUES ({ROWS}, 1, '{PAD}'), ({}, 2, 'x')",
        ROWS + 1
    );
    let (insert_allocs, out) = allocations(|| e.execute(&mut pg, &text).unwrap());
    assert_eq!(out, QueryOutput::Inserted(2));

    println!("point SELECT: {worst} allocations (budget {POINT_SELECT_BUDGET})");
    println!("100-row range SELECT ({want} rows returned): {range_allocs} allocations");
    println!("two-row INSERT: {insert_allocs} allocations");
    assert!(
        worst <= POINT_SELECT_BUDGET,
        "a warm point SELECT made {worst} allocations, budget {POINT_SELECT_BUDGET}"
    );
}
