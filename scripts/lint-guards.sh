#!/usr/bin/env bash
# Source-level guards that rustfmt and clippy cannot express. Called by
# `scripts/tier1.sh --lint` and by the lint job in .github/workflows/ci.yml,
# so each rule is written down once.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== no env::var under a product crate's src/ =="
if grep -rn "env::var" crates/{ilp,ixp-machine,ixp-sim,nova,nova-backend,nova-cps,nova-frontend,nova-obs,nova-server,workloads}/src; then
    exit 1
fi

# The inert shims the frozen benchmark/ package still names (ROADMAP item
# 3a), as "<file> <item>". A new shim cannot appear, and an old one cannot
# outlive the benchmark thaw, without this list changing in the same diff.
echo "== #[doc(hidden)] sites under crates/*/src are exactly the pinned shims =="
pinned="crates/ixp-sim/src/chip.rs host_threads
crates/nova-backend/src/alloc/mod.rs values
crates/nova/src/lib.rs solver_threads"
# ChipConfig::host_threads, SolvedAllocation::values,
# CompileConfigBuilder::solver_threads.
found=$(find crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    /#\[doc\(hidden\)\]/ { hidden = 1; next }
    hidden && /^[[:space:]]*pub / {
        sub(/^[[:space:]]*pub (fn )?/, "")
        sub(/[^A-Za-z0-9_].*/, "")
        print FILENAME " " $0
        hidden = 0
    }')
if [[ "$found" != "$pinned" ]]; then
    diff <(echo "$pinned") <(echo "$found") || true
    exit 1
fi
