#!/usr/bin/env bash
# Regenerates reports/memsys_sil3.golden.json — the safety report the
# metrics_gate ctest diffs every build against.  Run this (and commit the result)
# only after an INTENTIONAL metrics change; the whole point of the gate is
# that λ/DC/SFF and the SIL verdict never drift silently.
#
# Every step fails loudly: the build dir is re-configured and the flow and
# gate binaries rebuilt from the current sources before the flow runs, so a
# stale binary can never silently bless a stale golden, and the freshly
# written golden is gate-checked against its own source report before the
# script reports success.
#
# Usage: scripts/update_golden.sh [build-dir]   (default: build-golden)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build-golden}

die() { echo "update_golden: ERROR: $*" >&2; exit 1; }

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release \
    || die "cmake configure of '$BUILD' failed"
cmake --build "$BUILD" -j --target memsys_sil3_flow --target report_gate \
    || die "build of memsys_sil3_flow / report_gate failed"

FLOW="$BUILD/examples/memsys_sil3_flow"
GATE="$BUILD/tools/report_gate"
[ -x "$FLOW" ] || die "flow binary '$FLOW' missing after build"
[ -x "$GATE" ] || die "gate binary '$GATE' missing after build"

"$FLOW" --json "$BUILD/memsys_sil3.json" >/dev/null \
    || die "flow run failed (non-SIL3 verdict or I/O error) — golden NOT updated"
[ -s "$BUILD/memsys_sil3.json" ] \
    || die "flow produced an empty report — golden NOT updated"

# The golden is a subset spec: drop the machine/timing-dependent telemetry
# section (which also carries the faultsim.bitsliced.* engine counters) and
# the campaign "execution" sections (cycles simulated and washout drops —
# legitimately different between the serial and bit-sliced engines), keep
# every deterministic metric (zone table, lambda/DC/SFF, verdicts, campaign
# outcome tallies).
mkdir -p reports
"$GATE" strip "$BUILD/memsys_sil3.json" \
    reports/memsys_sil3.golden.json telemetry execution \
    || die "report_gate strip failed — golden NOT updated"

# Self-check: the new golden must pass the same gate CI runs against it.
"$GATE" check reports/memsys_sil3.golden.json "$BUILD/memsys_sil3.json" 1e-9 \
    || die "freshly written golden does not gate-pass its own source report"

echo "updated reports/memsys_sil3.golden.json"
