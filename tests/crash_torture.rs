//! Integration: named crash-point sweeps over the composed engine.
//!
//! Each test sweeps one cell of the crash matrix — commit policy × batched
//! × crash mode × writers — at stride 1 through the repository's one crash
//! harness, [`fame_bench::torture`], on the rows of `default_specs()` that
//! cover it. The harness's own gate sweeps every row in every mode; these
//! tests name the cells, so a failure says which protocol broke.

use fame_bench::torture::{default_specs, torture_modes, TortureSpec};

/// Sweep `modes` of each named row at stride 1: every crash point recovers
/// a committed prefix with no violation (on a sequential row, an armed
/// fault that never fires is one).
fn sweep_cell(rows: &[&str], modes: &[&str]) {
    for name in rows {
        let spec = default_specs()
            .into_iter()
            .find(|s| s.name == *name)
            .unwrap_or_else(|| panic!("no torture row {name}"));
        let result = torture_modes(&TortureSpec { stride: 1, ..spec }, modes);
        assert!(
            result.crash_points() > 0,
            "{name} {modes:?}: no crash point"
        );
        let failures: Vec<_> = result
            .rows
            .iter()
            .filter(|r| !r.violations.is_empty())
            .collect();
        assert!(failures.is_empty(), "{name} {modes:?}: {failures:#?}");
    }
}

#[test]
fn crash_sweep_force_clean() {
    sweep_cell(
        &["btree/buffered/force", "list/buffered/force"],
        &["log-clean"],
    );
}

#[test]
fn crash_sweep_force_torn() {
    sweep_cell(
        &["btree/buffered/force", "list/buffered/force"],
        &["log-torn"],
    );
}

#[test]
fn crash_sweep_group_clean_and_sync_fail() {
    sweep_cell(
        &["btree/buffered/group3", "hash/buffered/group2"],
        &["log-clean", "log-sync-fail"],
    );
}

#[test]
fn batch_crash_sweep_force_clean() {
    sweep_cell(&["btree/batched/force"], &["log-clean"]);
}

#[test]
fn batch_crash_sweep_force_torn() {
    sweep_cell(&["btree/batched/force"], &["log-torn"]);
}

#[test]
fn batch_crash_sweep_group_clean_and_sync_fail() {
    sweep_cell(&["hash/batched/group3"], &["log-clean", "log-sync-fail"]);
}

/// Two `DbWriter` clones that commit together, so the crash lands inside
/// a group-commit leader's drain.
mod multi_writer {
    use super::sweep_cell;

    #[test]
    fn mt_crash_sweep_force_clean() {
        sweep_cell(&["btree/mt2/force"], &["log-clean"]);
    }

    #[test]
    fn mt_crash_sweep_force_torn() {
        sweep_cell(&["btree/mt2/force"], &["log-torn"]);
    }

    #[test]
    fn mt_crash_sweep_group_clean_and_sync_fail() {
        sweep_cell(&["btree/mt2/group2"], &["log-clean", "log-sync-fail"]);
    }
}
