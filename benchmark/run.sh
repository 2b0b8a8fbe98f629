#!/usr/bin/env bash
# Builds the dmdc CLI and the benchmark, then runs the benchmark with the
# given arguments. Run from the repository root, e.g.
#
#   bash benchmark/run.sh --workload paper-smoke --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh run --seed 1
#
# `--trace 1` runs the traced per-layer binary (which links the simulator)
# instead of the end-to-end one (which drives only the dmdc executable).
# Both binaries are built on every call, so the first call pays for both;
# an end-to-end run survives a traced binary that no longer compiles.
# Everything builds into $CARGO_TARGET_DIR (default: target), and the
# benchmark's scratch files go under it too; `.bench_build` is ignored by
# git as well, for a build kept apart from the repository's own.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

bin=dmdc-benchmark
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
  if [[ "${args[i]}" == --trace && "${args[i + 1]}" == 1 ]]; then
    bin=dmdc-benchmark-trace
  fi
done

cargo build --offline --quiet --release --bin dmdc
cargo build --offline --quiet --release --manifest-path benchmark/Cargo.toml --bin dmdc-benchmark
if ! cargo build --offline --quiet --release --manifest-path benchmark/Cargo.toml \
  --features trace --bin dmdc-benchmark-trace; then
  [[ "$bin" == dmdc-benchmark ]] || exit 1
  echo "run.sh: the traced binary does not build; running the end-to-end benchmark only" >&2
fi
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
