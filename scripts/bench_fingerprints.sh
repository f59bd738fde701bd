#!/bin/sh
# Runs every workload of the benchmark untraced at the seeds pinned in
# tests/fixtures/bench_fingerprints.txt and fails unless each run prints
# its pinned ledger fingerprint over the first 16 operations. Outputs that
# stay bit-identical keep every line; run from the repository root:
#
#     sh scripts/bench_fingerprints.sh
#
# scale-100k gets a longer window: it needs 10-12 s for 16 operations on
# a 2-vCPU host. The others fit in 2 s.
set -eu

fixture=tests/fixtures/bench_fingerprints.txt
bench=benchmark/target/release/benchmark

cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml

status=0
while read -r workload seed want; do
    case "$workload" in '' | '#'*) continue ;; esac
    seconds=2
    if [ "$workload" = scale-100k ]; then seconds=24; fi
    if ! out=$("$bench" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 </dev/null); then
        echo "FAIL $workload $seed: the run reported a failed check"
        status=1
        continue
    fi
    got=$(printf '%s\n' "$out" | grep '^# ledger fingerprint' || true)
    if [ "$got" = "# ledger fingerprint $want over the first 16 operations" ]; then
        echo "ok   $workload $seed $want"
    else
        echo "FAIL $workload $seed: want $want over the first 16 operations, got: $got"
        status=1
    fi
done <"$fixture"
exit $status
