#!/usr/bin/env bash
# Same-host A/B comparison of two checkouts on the perfbench workloads.
#
# Builds perfbench in each checkout (perfbench/run.py, each into its own
# .bench_build/), then runs N pairs per workload.  The two runs of a pair
# go back to back, and the order alternates from pair to pair (base first in
# odd pairs, change first in even ones), so a drift in host speed lands on
# both sides alike.  For every end-to-end metric in BENCHMARK.json it prints
# each side's median and quartiles, the change of the median, the pairs the
# change won, and whether the median moved by more than the base side's
# interquartile range; then the wave-stream digests each side printed.  A
# claimed gain should win at least 9 of 10 pairs and clear that IQR.
#
# Usage: scripts/perfbench_ab.sh [-n PAIRS] [-s SECONDS] [-S SEED] [-t TRACE]
#                                [-w WORKLOAD]... [-o OUT_DIR] BASE_DIR CHANGE_DIR
#   -n PAIRS     pairs per workload (default 10)
#   -s SECONDS   --seconds of each run (default 20)
#   -S SEED      --seed of every run (default 7)
#   -t TRACE     --trace of every run, 0 or 1 (default 0)
#   -w WORKLOAD  a workload to run; repeatable (default: every workload in
#                CHANGE_DIR/BENCHMARK.json)
#   -o OUT_DIR   keep each run's result and detail lines here (default: a
#                temporary directory, removed at exit)
#
# Example: scripts/perfbench_ab.sh -n 10 -w rushd-dense ../parent .

set -euo pipefail

pairs=10
seconds=20
seed=7
trace=0
workloads=()
out_dir=""
while getopts "n:s:S:t:w:o:h" opt; do
  case "$opt" in
    n) pairs="$OPTARG" ;;
    s) seconds="$OPTARG" ;;
    S) seed="$OPTARG" ;;
    t) trace="$OPTARG" ;;
    w) workloads+=("$OPTARG") ;;
    o) out_dir="$OPTARG" ;;
    *) sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
[[ $# -eq 2 ]] || { echo "perfbench_ab: need BASE_DIR and CHANGE_DIR (-h for help)" >&2; exit 2; }
base="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
for dir in "$base" "$change"; do
  [[ -f "$dir/perfbench/run.py" ]] || { echo "perfbench_ab: no perfbench/run.py in $dir" >&2; exit 2; }
done

if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$change/BENCHMARK.json")
fi
if [[ -z "$out_dir" ]]; then
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
fi
mkdir -p "$out_dir"

# One run: the last two stdout lines are the detail object and the result.
run_one() {  # side dir workload pair
  local side="$1" dir="$2" workload="$3" pair="$4"
  local file="$out_dir/$workload.$side.$pair.json"
  (cd "$dir" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" 2>>"$out_dir/build.$side.log") | tail -n 2 >"$file"
}

echo "perfbench_ab: building both checkouts (log in $out_dir/build.*.log)" >&2
for side in base change; do
  dir="$base"; [[ "$side" == change ]] && dir="$change"
  # A one-second churn run builds the benchmark and checks that it runs.
  (cd "$dir" && python3 perfbench/run.py --workload rushd-churn --seed 1 --seconds 1 \
      --trace 0 >/dev/null 2>>"$out_dir/build.$side.log") ||
    { echo "perfbench_ab: $side build or smoke run failed" >&2; exit 1; }
done

for workload in "${workloads[@]}"; do
  for ((pair = 1; pair <= pairs; ++pair)); do
    echo "perfbench_ab: $workload pair $pair/$pairs" >&2
    if ((pair % 2 == 1)); then
      run_one base "$base" "$workload" "$pair"
      run_one change "$change" "$workload" "$pair"
    else
      run_one change "$change" "$workload" "$pair"
      run_one base "$base" "$workload" "$pair"
    fi
  done
done

python3 - "$out_dir" "$pairs" "$change/BENCHMARK.json" "${workloads[@]}" <<'PY'
import json, statistics, sys

out_dir, pairs, bench_path, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
declared = json.load(open(bench_path))["end_to_end"]


def load(workload, side, pair):
    lines = open(f"{out_dir}/{workload}.{side}.{pair}.json").read().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return detail, result


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]


for workload in workloads:
    runs = {side: [load(workload, side, p) for p in range(1, pairs + 1)]
            for side in ("base", "change")}
    print(f"\n== {workload}: {pairs} alternating pairs")
    print(f"{'metric':<16} {'base median [Q1, Q3]':>34} {'change median [Q1, Q3]':>34}"
          f" {'delta':>8} {'wins':>6}  beyond base IQR")
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"].get(name, {}).get("value") for _, r in runs[side]]
                  for side in runs}
        if any(v is None for side in values for v in values[side]):
            continue
        b, c = values["base"], values["change"]
        b1, bm, b3 = quartiles(b)
        c1, cm, c3 = quartiles(c)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        delta = (cm - bm) / bm * 100.0 if bm else float("nan")
        gain = (cm - bm) if higher else (bm - cm)
        print(f"{name:<16} {bm:>12.6g} [{b1:.6g}, {b3:.6g}]".ljust(51) +
              f" {cm:>12.6g} [{c1:.6g}, {c3:.6g}]".ljust(35) +
              f" {delta:>+7.2f}% {wins:>3}/{pairs}  {'yes' if gain > b3 - b1 else 'no'}")
    for side in ("base", "change"):
        digests = sorted({d.get("info", {}).get("digest", "?") for d, _ in runs[side]})
        failed = sum(r.get("failed", 0) for _, r in runs[side])
        correct = all(r.get("correct", False) for _, r in runs[side])
        print(f"{side} digest {', '.join(digests)}; correct {correct}; failed events {failed}")
PY
