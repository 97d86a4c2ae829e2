#!/usr/bin/env bash
# Repository CI gate: formatting, lints on the static-analysis crate,
# release build, the full test suite, and the §3.1 derivability
# reproduction. Run from the repo root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== clippy (fame-derivation, warnings are errors)"
cargo clippy -p fame-derivation --all-targets -- -D warnings

echo "== clippy (fame-obs, warnings are errors)"
cargo clippy -p fame-obs --all-features --all-targets -- -D warnings

echo "== clippy (write-path crates, warnings are errors)"
cargo clippy -p fame-txn -p fame-storage -p fame-buffer --all-targets -- -D warnings
cargo clippy -p fame-dbms --features full --all-targets -- -D warnings
cargo clippy -p fame-dbms --features full,obs-trace --all-targets -- -D warnings
cargo clippy -p fame-bench --all-targets -- -D warnings

echo "== clippy (snapshot feature, warnings are errors)"
cargo clippy -p fame-txn --features snapshot --all-targets -- -D warnings
cargo clippy -p fame-buffer --features snapshot --all-targets -- -D warnings
cargo clippy -p fame-storage --features snapshot --all-targets -- -D warnings
cargo clippy -p fame-dbms --features full,concurrency-snapshot --all-targets -- -D warnings

echo "== clippy (remaining workspace crates, warnings are errors)"
# fame-dbms (crates/core) is covered above with --features full.
cargo clippy -p fame-os -p fame-query -p fame-repl \
    -p fame-crypto -p fame-feature-model --all-targets -- -D warnings
cargo clippy -p fame-lint --all-targets -- -D warnings

echo "== build --release"
cargo build --release --workspace

echo "== test"
cargo test -q --workspace

echo "== fame-txn alone (single-writer manager, no multi-writer: workspace feature unification never builds it this way)"
cargo test -q -p fame-txn

echo "== fame-txn alone in its MultiWriter build (the blocking lock table's deadlock scripts and the shared manager)"
cargo test -q -p fame-txn --features multi-writer,obs

echo "== replacement alternatives alone (each member of the group builds and passes without the other, in both pools)"
cargo test -q -p fame-buffer --no-default-features --features lru
cargo test -q -p fame-buffer --no-default-features --features lfu
for replacement in lru lfu; do
    cargo clippy -p fame-buffer --no-default-features --features shared,$replacement --all-targets -- -D warnings
    cargo test -q -p fame-buffer --no-default-features --features shared,$replacement
done

echo "== facade refinements in their own products (each db/ file under the gate that selects it, warnings are errors)"
# The workspace build unifies fame-dbms to `full`, where a refinement
# gated wrong still compiles; these products select one refinement each.
# product-min is the benchmark's minimal product (benchmark/Cargo.toml).
for features in \
        api-put,api-get,index-btree,btree-update,buffer,replace-lru,alloc-dynamic,os-inmem \
        api-put,index-hash,os-inmem \
        standard \
        standard,transactions,commit-force \
        standard,replication \
        standard,statistics \
        standard,api-batch \
        standard,sql \
        standard,index-queue \
        standard,concurrency-multi \
        standard,concurrency-multi-writer,commit-group \
        standard,concurrency-snapshot,commit-force \
        standard,obs-trace; do
    echo "   --features $features"
    cargo clippy -q -p fame-dbms --no-default-features --features "$features" -- -D warnings
done
# The MultiReader product with its tests: without replace-lfu the
# readers suite composes one replacement policy.
cargo clippy -q -p fame-dbms --no-default-features --features standard,concurrency-multi --all-targets -- -D warnings

echo "== SQL engine without the Optimizer (every statement a full scan through the streaming executor)"
# The workspace build always composes the Optimizer in, so code on the
# far side of its gate is only linted here.
cargo clippy -p fame-query --no-default-features --features sql --all-targets -- -D warnings
cargo clippy -p fame-query --no-default-features --features sql,obs --all-targets -- -D warnings
cargo test -q -p fame-query --no-default-features --features sql

echo "== fame-lint self-run + E11 seeded-defect corpus (gate: violations fail, warnings pass)"
# A faster variant for local iteration skips only the corpus, never the
# self-run:  cargo run --release -p fame-lint --bin lint_report -- --quick
cargo run --release -p fame-lint --bin lint_report -- --deny violations | tail -n 12

echo "== fig3_derivation (§3.1 reproduction)"
cargo run --release -p fame-bench --bin fig3_derivation | tail -n 20

echo "== crash torture (E7, bounded sweep over write-back and write-through rows; exits non-zero on any violation)"
cargo run --release -p fame-bench --bin crash_torture -- --quick | tail -n 10

echo "== concurrent readers stress (E8 correctness + E9 snapshot coherence)"
cargo test -q -p fame-dbms --features concurrency-multi,replace-lfu,statistics --test concurrent_readers

echo "== concurrent writers stress (E12 serializability + lock-stats surfacing + batch lock-before-read)"
cargo test -q -p fame-dbms --features concurrency-multi-writer,commit-force,commit-group,statistics,api-batch --test concurrent_writers

echo "== obs trace suite (E13 golden schema + causal chain)"
cargo test -q -p fame-dbms --features concurrency-multi-writer,commit-force,commit-group,obs-trace --test obs_trace

echo "== obs-trace-off composition (E13 zero-cost gate)"
# A statistics-only product must not have the trace feature active, and
# composing Tracing in must add no crates — fame-obs is already linked
# under Statistics, the child only turns feature flags on.
if cargo tree -p fame-dbms --no-default-features --features standard,statistics \
        -f "{p} [{f}]" -e normal | grep -q "trace"; then
    echo "FAIL: trace is active in a product that did not select obs-trace" >&2
    exit 1
fi
if ! diff <(cargo tree -p fame-dbms --no-default-features --features standard,statistics -e normal) \
          <(cargo tree -p fame-dbms --no-default-features --features standard,statistics,obs-trace -e normal); then
    echo "FAIL: composing obs-trace in changed the crate dependency graph" >&2
    exit 1
fi

echo "== nfp_probe smoke (E9 NFP feedback loop; asserts Measured round-trip)"
cargo run --release -p fame-bench --bin nfp_probe -- --quick | tail -n 4

echo "== statistics-off composition (E9 zero-cost gate: no fame-obs in the graph)"
if cargo tree -p fame-dbms --no-default-features --features standard -e normal | grep -q fame-obs; then
    echo "FAIL: fame-obs is linked into a product without the statistics feature" >&2
    exit 1
fi

echo "== api-batch-off composition (E10 zero-cost gate: seed graph unchanged)"
if cargo tree -p fame-dbms --no-default-features --features standard -f "{p} [{f}]" -e normal | grep -q "api-batch"; then
    echo "FAIL: api-batch is active in a product that did not select it" >&2
    exit 1
fi
if ! diff <(cargo tree -p fame-dbms --no-default-features --features standard -e normal) \
          <(cargo tree -p fame-dbms --no-default-features --features standard,api-batch -e normal); then
    echo "FAIL: composing api-batch in changed the crate dependency graph" >&2
    exit 1
fi

echo "== multi-writer-off composition (E12 zero-cost gate)"
# A MultiReader + transactions product must not have the multi-writer
# feature active, and composing MultiWriter in must add no crates — only
# feature flags on crates the product already links.
if cargo tree -p fame-dbms --no-default-features \
        --features standard,transactions,commit-force,concurrency-multi \
        -f "{p} [{f}]" -e normal | grep -q "multi-writer"; then
    echo "FAIL: multi-writer is active in a product that did not select it" >&2
    exit 1
fi
if ! diff <(cargo tree -p fame-dbms --no-default-features \
                --features standard,transactions,commit-force,concurrency-multi -e normal) \
          <(cargo tree -p fame-dbms --no-default-features \
                --features standard,transactions,commit-force,concurrency-multi-writer -e normal); then
    echo "FAIL: composing concurrency-multi-writer in changed the crate dependency graph" >&2
    exit 1
fi

echo "== bench-results (every file is written by a binary that still exists)"
# Wall-clock numbers come from benchmark/ only (its output is git-ignored);
# this directory holds the paper reproductions, the torture sweep and the
# lint run. A file outside this list is a retired harness's TSV come back.
results=" feature_map.tsv fig1a.tsv fig1b.tsv fig2.dot fig3_derivation.tsv fig3_derivation_run.tsv lint_run.tsv nfp_csp.tsv nfp_probe.tsv torture_run.tsv variants.tsv "
for f in bench-results/*; do
    if [[ "$results" != *" ${f#bench-results/} "* ]]; then
        echo "FAIL: $f is written by no remaining binary" >&2
        exit 1
    fi
done

echo "== unsafe code (exactly one block in the crates: the cache hint in fame_os::prefetch)"
# Every other line of the engine is safe Rust; a second unsafe block, fn,
# impl or trait anywhere under crates/*/src fails here.
unsafe_sites=$(grep -rnE '\bunsafe[[:space:]]*(\{|fn\b|impl\b|trait\b|extern\b)' crates/*/src || true)
echo "$unsafe_sites" | sed 's/^/   /'
if [ "$(grep -c . <<<"$unsafe_sites")" -ne 1 ] || [[ "$unsafe_sites" != crates/os/src/hint.rs:* ]]; then
    echo "FAIL: crates/*/src must hold exactly one unsafe block, in crates/os/src/hint.rs" >&2
    exit 1
fi

echo "== code budgets (facade cfg gates and lines, engine and storage lines, page writes; lower the ceilings, never raise them)"
# One engine behind the facade (DESIGN.md §13): a second copy of a
# protocol or a read path shows up here first. The facade ceilings count
# crates/core; the engine ceiling counts the four crates the engine is
# made of — one lock table, one commit step, one op ring, two pools (the
# pools share an outline and no code; ROADMAP records why they stay). The
# storage ceilings count crates/storage/src — one page layer: one chain
# under List and Hash, one cell codec — and the `with_page_mut` call sites
# outside pager.rs (tests included), the places a page changes that a
# logged structure change will have to cover. A PR that deletes code
# lowers a ceiling; none is ever raised.
FACADE_CFG_CEILING=297
FACADE_LINES_CEILING=3698
ENGINE_LINES_CEILING=11960
STORAGE_LINES_CEILING=5705
STORAGE_PAGE_WRITES_CEILING=19
# Counted recursively, so splitting a file into a module directory moves
# no line out of the count.
facade_cfg=$(find crates/core/src -name '*.rs' -exec cat {} + | grep -c 'cfg(')
facade_lines=$(find crates/core/src -name '*.rs' -exec cat {} + | wc -l)
engine_lines=$(find crates/{buffer,txn,core,obs}/src -name '*.rs' -exec cat {} + | wc -l)
storage_lines=$(find crates/storage/src -name '*.rs' -exec cat {} + | wc -l)
storage_page_writes=$(find crates/storage/src -name '*.rs' ! -name pager.rs -exec cat {} + | grep -c 'with_page_mut')
echo "   crates/core/src/**/*.rs: $facade_cfg cfg gates (<= $FACADE_CFG_CEILING), $facade_lines lines (<= $FACADE_LINES_CEILING)"
echo "   crates/{buffer,txn,core,obs}/src/**/*.rs: $engine_lines lines (<= $ENGINE_LINES_CEILING)"
echo "   crates/storage/src/**/*.rs: $storage_lines lines (<= $STORAGE_LINES_CEILING), $storage_page_writes with_page_mut sites outside pager.rs (<= $STORAGE_PAGE_WRITES_CEILING)"
if [ "$facade_cfg" -gt "$FACADE_CFG_CEILING" ] || [ "$facade_lines" -gt "$FACADE_LINES_CEILING" ] \
        || [ "$engine_lines" -gt "$ENGINE_LINES_CEILING" ] || [ "$storage_lines" -gt "$STORAGE_LINES_CEILING" ] \
        || [ "$storage_page_writes" -gt "$STORAGE_PAGE_WRITES_CEILING" ]; then
    echo "FAIL: the engine outgrew its code budget" >&2
    exit 1
fi

echo "== snapshot suite (E14 isolation + refresh + cap stranding + serial-prefix proptest)"
cargo test -q -p fame-dbms --features standard,transactions,commit-force,commit-group,concurrency-snapshot,statistics --test snapshot
cargo test -q -p fame-buffer --features snapshot

echo "== snapshot-off composition (E14 zero-cost gate)"
# A plain MultiWriter product must not have the snapshot feature active,
# and composing Snapshot in must add no crates — only feature flags on
# crates the product already links.
if cargo tree -p fame-dbms --no-default-features \
        --features standard,transactions,commit-force,concurrency-multi-writer \
        -f "{p} [{f}]" -e normal | grep -q "snapshot"; then
    echo "FAIL: snapshot is active in a product that did not select it" >&2
    exit 1
fi
if ! diff <(cargo tree -p fame-dbms --no-default-features \
                --features standard,transactions,commit-force,concurrency-multi-writer -e normal) \
          <(cargo tree -p fame-dbms --no-default-features \
                --features standard,transactions,commit-force,concurrency-snapshot -e normal); then
    echo "FAIL: composing concurrency-snapshot in changed the crate dependency graph" >&2
    exit 1
fi

echo "== CI OK"
