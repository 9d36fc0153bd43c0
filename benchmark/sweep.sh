#!/usr/bin/env bash
# Runs every workload untraced once per seed and appends one line per run to
# OUT: {"workload": ..., "seed": ..., "result": <the run's last line>}.
# Two such files are what `run.sh -compare a.jsonl b.jsonl` reads.
#
#   bash benchmark/sweep.sh a.jsonl 1 2 3 4 5 6 7 8 9 10
set -euo pipefail
cd "$(dirname "$0")/.."
out=$1
shift
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
for seed in "$@"; do
	for w in $workloads; do
		line=$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
		printf '{"workload":"%s","seed":%s,"result":%s}\n' "$w" "$seed" "$line" >>"$out"
	done
done
