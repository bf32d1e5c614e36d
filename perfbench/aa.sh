#!/usr/bin/env bash
# A/A check: two alternating sets of runs of one commit, as the driver
# takes them. For every workload, seeds 1..RUNS are run twice (set A and
# set B, interleaved A1 B1 A2 B2 ...). For every end-to-end metric it
# prints each set's median and quartiles, the spread (Q3 - Q1) / median
# and the disagreement of the two medians, and exits non-zero when a
# spread (setup_s excepted) or a disagreement exceeds the metric's bound
# in BENCHMARK.json.
#
#   perfbench/aa.sh [RUNS=10] [SECONDS=run_seconds] [WORKLOAD ...]
#
# Run from the root of the checkout. Every run's full output is kept in
# perfbench/out/aa-<workload>-<set><seed>.log, the result lines in
# perfbench/out/aa-<workload>.jsonl.
set -euo pipefail

runs=${1:-10}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
shift $(( $# < 2 ? $# : 2 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
mapfile -t command < <(python3 -c 'import json; [print(c) for c in json.load(open("BENCHMARK.json"))["command"]]')

mkdir -p perfbench/out
for workload in "${workloads[@]}"; do
    out=perfbench/out/aa-$workload.jsonl
    : > "$out"
    for seed in $(seq 1 "$runs"); do
        for set in A B; do
            log=perfbench/out/aa-$workload-$set$seed.log
            "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$log"
            line=$(tail -n 1 "$log")
            echo "{\"set\": \"$set\", \"seed\": $seed, \"result\": $line}" >> "$out"
            echo "$workload set $set seed $seed done" >&2
        done
    done
done

python3 - "${workloads[@]}" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
breaches = 0
for workload in sys.argv[1:]:
    rows = [json.loads(l) for l in open(f"perfbench/out/aa-{workload}.jsonl")]
    bad = [r for r in rows if not r["result"]["correct"] or r["result"]["failed"]]
    print(f"\n{workload}: {len(rows)} runs, {len(bad)} incorrect")
    breaches += len(bad)
    print(f"  {'metric':<24}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'A vs B':>9}{'bound':>7}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = {}
        for s in "AB":
            v = [r["result"]["metrics"][name]["value"] for r in rows if r["set"] == s]
            q1, _, q3 = statistics.quantiles(v, n=4)
            medians[s] = med = statistics.median(v)
            spread = (q3 - q1) / med
            worse = ""
            if s == "B":
                d = medians["B"] / medians["A"] - 1
                d = -d if metric["better"] == "higher" else d
                worse = f"{d:>+9.3f}"
                if d > bound:
                    breaches += 1
                    worse += " BREACH"
            flag = ""
            if spread > bound and name != "setup_s":
                breaches += 1
                flag = " BREACH"
            elif spread > bound / 3:
                flag = " (over a third of the bound)"
            print(f"  {name:<24}{s:>4}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}{worse:>9}{bound:>7}{flag}")
print(f"\n{breaches} breaches")
sys.exit(1 if breaches else 0)
EOF
