#!/usr/bin/env bash
# Build the benchmark offline in release mode and run it.
#
#   benchmark/run.sh                       every workload, untraced then traced;
#                                          prints `workload name value unit` lines
#                                          and writes benchmark/out/results.json
#   benchmark/run.sh --workload W          the same for one workload
#   benchmark/run.sh --smoke               the same at smoke scale
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; the last line of standard
#                                          output is its result object
#   benchmark/run.sh compare A.json B.json apply each metric's bound to two results
#
# Run it from anywhere; it works from the repository root so that the
# output directory (benchmark/out) and a relative CARGO_TARGET_DIR resolve
# inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/nova-benchmark" "$@"
