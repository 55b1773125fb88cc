#!/usr/bin/env bash
# Regenerates the five seeded record streams with their documented commands
# and diffs each against the checked-in copy in results/, after masking the
# host-timed fields (`wall_s`, `ips`). Every other field is a pure function
# of the seed, so any difference is a behaviour change.
#
# Run from the repository root:
#
#     bash results/reproduce.sh
#
# Exits non-zero and prints the first differing lines when a stream drifts.
set -euo pipefail

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

bench() {
    local bin=$1
    shift
    cargo run --quiet --release -p ssle-bench --bin "$bin" -- "$@" > /dev/null
}

bench table1 --trials 10 --max-n-ciw 32 --max-n-oss 64 --max-n-sub 32 \
    --threads auto --json-out "$out/table1.jsonl"
bench h_sweep --trials 10 --n 64 --max-h 4 --threads auto --json-out "$out/h_sweep.jsonl"
bench recovery_scaling --trials 10 --seed 1 --threads auto --json-out "$out/recovery.jsonl"
bench scheduler_robustness --trials 10 --seed 1 --json-out "$out/robustness.jsonl"
bench churn_resilience --trials 6 --seed 1 --json-out "$out/churn.jsonl"

mask() { sed -E 's/"(wall_s|ips)":[^,}]*//g' "$1"; }

status=0
for stream in table1 h_sweep recovery robustness churn; do
    if diff <(mask "results/$stream.jsonl") <(mask "$out/$stream.jsonl") > "$out/$stream.diff"; then
        echo "$stream.jsonl reproduces"
    else
        echo "$stream.jsonl differs from the checked-in stream:"
        head -n 20 "$out/$stream.diff"
        status=1
    fi
done
exit $status
