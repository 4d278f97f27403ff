#!/usr/bin/env bash
# Tier-1 verification: everything a PR must keep green.
#
#   scripts/tier1.sh          build + full test suite, plus a compile
#                             check of the frozen benchmark/ package
#                             against the product API
#   scripts/tier1.sh --lint   also run rustfmt --check, clippy with
#                             warnings denied, and scripts/lint-guards.sh
#                             (no environment reads, no unlisted
#                             #[doc(hidden)] shim; mirrors CI's lint job)
#   scripts/tier1.sh --smoke  also run every `bench` writer scenario at
#                             its small fixed scale in release mode:
#                             exits non-zero on a violated scenario
#                             invariant, a failing baseline-free row of
#                             the gate's rule table (zero mismatches,
#                             absolute rate and speedup floors), or
#                             modeled drift of a smoke point from its row
#                             in the checked-in BENCH_*.json (seconds)
#
# Flags combine. The floors and their reasons live in one place, the rule
# table in crates/bench/src/gate.rs; `bench <writer>` without --smoke
# regenerates BENCH_<writer>.json, `bench gate` diffs two of them.
#
# The test suite runs in the default (debug) profile, where
# benchmark-sized ILP solves are marked #[ignore]; the release build is
# still exercised so optimized-path regressions are caught at compile
# time, and CI's release job runs the heavy solves for real.

set -euo pipefail
cd "$(dirname "$0")/.."

run_lint=0
run_smoke=0
for arg in "$@"; do
    case "$arg" in
        --lint)  run_lint=1 ;;
        --smoke) run_smoke=1 ;;
        *)
            echo "unknown flag: $arg" >&2
            echo "usage: scripts/tier1.sh [--lint] [--smoke]" >&2
            exit 2
            ;;
    esac
done

echo "== cargo build --release =="
cargo build --release

# benchmark/ is its own frozen workspace with path deps on crates/*: an
# API deletion that breaks it must fail here, not only in the CI step
# that runs its tests.
echo "== cargo check --manifest-path benchmark/Cargo.toml =="
cargo check --manifest-path benchmark/Cargo.toml

# --workspace: the root manifest is both a package and a workspace, so a
# bare `cargo test` runs only the umbrella package's integration tests
# and silently skips every member crate's own test binaries.
echo "== cargo test -q --workspace =="
cargo test -q --workspace

if [[ "$run_lint" == 1 ]]; then
    echo "== cargo fmt --check =="
    cargo fmt --check
    echo "== cargo clippy (warnings denied) =="
    cargo clippy --workspace --all-targets -- -D warnings
    scripts/lint-guards.sh
fi

if [[ "$run_smoke" == 1 ]]; then
    for scenario in solver throughput phases traffic service reload rollout; do
        echo "== bench $scenario --smoke (release) =="
        cargo run --release -q -p bench -- "$scenario" --smoke
    done
fi

echo "tier-1 OK"
