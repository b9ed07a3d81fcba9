#!/usr/bin/env bash
# Runs every workload untraced, then traced, and prints all their metrics:
# the end-to-end metrics of BENCHMARK.json, each workload's own metrics
# (fig7's simulated overheads beside the paper's, kv's request rate and
# latencies, crash's image rate, the error rate) and the per-layer split.
# Run it from the repository root; extra arguments (e.g. --seed 1009) pass on.
set -euo pipefail
for trace in 0 1; do
	for w in fig7 kv crash; do
		bash "$(dirname "$0")/run.sh" --workload "$w" --seconds 20 --trace "$trace" "$@"
	done
done
