#!/usr/bin/env bash
# Builds the harness and measures the same code as two sides, A and B, whose
# runs alternate (A1 B1 A2 B2 A3 B3: every workload untraced each time, and
# traced the first time), then fails unless the sides agree: the medians of
# every end-to-end metric within its own bound, every exact metric (usage,
# SLA, counts) equal, checkpoint_mb within 1 %. One run is one draw from a
# machine whose speed drifts by the minute, hence medians of alternating
# runs. Takes about twenty minutes.
#
#   benchmark/selfcheck.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-0}"
bench() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
cargo build --release --manifest-path benchmark/Cargo.toml
reports=()
for i in 1 2 3; do
    for side in a b; do
        out="benchmark/out/selfcheck-$side$i.json"
        if [ "$i" = 1 ]; then
            bench run --seed "$seed" --trace --out "$out"
        else
            bench run --seed "$seed" --out "$out"
        fi
        reports+=("$out")
    done
done
bench compare "${reports[@]}"
