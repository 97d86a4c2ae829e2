#!/usr/bin/env bash
# The benchmark's one command: build both products from source (a no-op
# when they are fresh), then run one workload on the product it belongs to.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The last line of standard output is the result object; everything else
# (cargo, diagnostics) goes to standard error.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

# One target directory per product: the two feature sets would otherwise
# evict each other's artefacts on every run.
mkdir -p "$here/out"
for product in min full; do
    log="$here/out/build-$product.log"
    if ! cargo build --quiet --release --offline --locked \
        --manifest-path "$here/Cargo.toml" \
        --features "product-$product" \
        --target-dir "$target/$product" >"$log" 2>&1; then
        cat "$log" >&2
        exit 1
    fi
done

workload=""
prev=""
for arg in "$@"; do
    if [ "$prev" = "--workload" ]; then
        workload="$arg"
    fi
    prev="$arg"
done
case "$workload" in
    get-hot | get-cold) product=min ;;
    *) product=full ;;
esac

export FAME_BENCH_OUT="$here/out"
export FAME_BENCH_FULL_BIN="$target/full/release/fame-benchmark"
export FAME_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export FAME_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo none)"
exec "$target/$product/release/fame-benchmark" "$@"
