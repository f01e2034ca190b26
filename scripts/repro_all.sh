#!/usr/bin/env bash
# Full reproduction: every table and figure of the paper, one binary each.
#
# Builds the experiment binaries once, then runs table1, fig1, fig2, fig3,
# fig4_5, fig6, fig7, fig10, fig11, fig12 and fig14 in turn and prints the
# total wall time. The pool binaries (fig6, fig7, fig10-12, fig14) share
# one checkpoint, so each benchmark's random-assignment pool is measured
# once: every pool of a benchmark is a prefix of one seeded draw sequence
# journaled as one campaign, so a later binary replays the draws an
# earlier one measured and measures only the rest (DESIGN.md §8). The
# checkpoint is $OPTASSIGN_CHECKPOINT, or a fresh temporary directory
# (removed on exit) when that is unset.
#
# Usage: scripts/repro_all.sh [--scale F] [--workers N] [...]
#   The arguments go to the pool binaries (the flags of BenchArgs); the
#   other five take none. stdout is the text EXPERIMENTS.md records:
#   `scripts/repro_all.sh > results_repro_all.txt` regenerates it.

set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p optassign-bench --bins
if [[ -z "${OPTASSIGN_CHECKPOINT:-}" ]]; then
    OPTASSIGN_CHECKPOINT="$(mktemp -d)"
    trap 'rm -rf "${OPTASSIGN_CHECKPOINT}"' EXIT
fi
export OPTASSIGN_CHECKPOINT

SECONDS=0
FAILED=()
run() {
    local bin="$1"
    shift
    printf '==== %s ====\n\n' "${bin}"
    "target/release/${bin}" "$@" || FAILED+=("${bin}")
    echo
}
for bin in table1 fig1 fig2 fig3 fig4_5; do
    run "${bin}"
done
for bin in fig6 fig7 fig10 fig11 fig12 fig14; do
    run "${bin}" "$@"
done
echo "Total reproduction wall time: ${SECONDS} s"
if [[ ${#FAILED[@]} -gt 0 ]]; then
    echo "repro_all: failed: ${FAILED[*]}" >&2
    exit 1
fi
