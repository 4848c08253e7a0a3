#!/usr/bin/env bash
# Builds the shipped daemons and the benchmark from source, then runs one
# benchmark invocation:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from anywhere; it works from the repository root it lives in. Build
# output goes to $CARGO_TARGET_DIR (default .bench_build), run files to
# $CARGO_TARGET_DIR/perfbench-work. The last line of standard output is the
# result object.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$root/$CARGO_TARGET_DIR" ;;
esac

cargo build --offline --release --quiet -p pte-serve --bin pte-serve --bin pte-route >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2

# Provenance: the checkout may not be a git repository, so a digest of the
# sources and manifests stands beside the commit.
export PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo none)"
export PERFBENCH_RUSTC="$(rustc --version)"
export PERFBENCH_SOURCE_DIGEST="$(find Cargo.toml Cargo.lock .cargo crates shims src perfbench/Cargo.toml perfbench/src \
  -type f \( -name '*.rs' -o -name '*.toml' -o -name 'Cargo.lock' \) 2>/dev/null | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
export PERFBENCH_BIN_DIR="$target/release"
export PERFBENCH_WORK_DIR="$target/perfbench-work"

exec "$target/release/pte-perfbench" "$@"
