#!/usr/bin/env bash
# Deterministic-counter gate: runs the benchmark (examples/bench) on
# corpus-place and closure-starved, once untraced and once traced, and
# compares every metric whose unit is `count`, `um` or `ratio` (CNF
# sizes, conflicts, rounds, HPWL, routed wirelength, closure and router
# counters, schedule and DRC-clean shares) against the committed
# baseline scripts/counters.json. Any difference exits 1.
#
#   scripts/counters.sh            compare against the baseline
#   scripts/counters.sh --update   rewrite the baseline instead (commit
#                                  the result and say why it changed)
#
# Every solve in these workloads runs on one thread under fixed conflict
# budgets, so the counters repeat exactly on any machine; wall-clock
# metrics are not compared. Both workloads take about 25 s together.
set -euo pipefail
cd "$(dirname "$0")/.."

UPDATE="${1:-}"
BASELINE=scripts/counters.json
WORKLOADS="corpus-place closure-starved"

cargo build --release --quiet --offline --manifest-path examples/bench/Cargo.toml
BIN="${CARGO_TARGET_DIR:-examples/bench/target}/release/bench"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

for workload in $WORKLOADS; do
    for trace in 0 1; do
        echo "==> $workload (trace $trace)"
        # The last line of standard output is the run's result as JSON.
        "$BIN" --workload "$workload" --seconds 1 --trace "$trace" \
            | tail -n 1 >"$TMP/$workload-$trace.json"
    done
done

python3 - "$TMP" "$BASELINE" "$UPDATE" $WORKLOADS <<'EOF'
import json
import pathlib
import sys

tmp, baseline, update = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2]), sys.argv[3]
workloads = sys.argv[4:]
UNITS = {"count", "um", "ratio"}

observed = {}
for workload in workloads:
    for trace in ("0", "1"):
        run = json.loads((tmp / f"{workload}-{trace}.json").read_text())
        if not run["correct"]:
            sys.exit(f"{workload} (trace {trace}) failed its correctness checks")
        observed[f"{workload}/trace{trace}"] = {
            name: m["value"]
            for name, m in sorted(run["metrics"].items())
            if m["unit"] in UNITS
        }

if update == "--update" or not baseline.exists():
    with baseline.open("w") as f:
        json.dump(observed, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {baseline}")
    sys.exit(0)

golden = json.loads(baseline.read_text())
diffs = []
for run in sorted(set(golden) | set(observed)):
    want, got = golden.get(run, {}), observed.get(run, {})
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            diffs.append(f"{run} {name}: baseline {want.get(name)} != observed {got.get(name)}")
for line in diffs:
    print(line, file=sys.stderr)
if diffs:
    sys.exit(f"{len(diffs)} counter(s) differ from {baseline}")
print(f"every counter matches {baseline}")
EOF
