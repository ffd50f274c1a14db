#!/bin/sh
# A/B driver: the repo benchmark at a parent revision against this checkout.
#
#   scripts/ab.sh <parent-rev> [workload...]      # default: all six workloads
#
# 1. Exports <parent-rev> with `git archive` into $AB_DIR/parent (the
#    repository's own .git is left as it is) and builds both sides'
#    `mltc-benchmark` offline, each into a target dir of its own; the
#    change side is this checkout's working tree.
# 2. Runs ten interleaved pairs per workload, alternating which side runs
#    first, every run at the benchmark's own seed and run length.
# 3. Writes $AB_DIR/parent.json and $AB_DIR/change.json in the shape of
#    `mltc-benchmark report`, prints `mltc-benchmark compare`'s rows for the
#    workloads run, then per workload and end-to-end metric each side's
#    median and quartiles and how many pairs the change won.
# 4. Ends with scripts/kernel_identity.sh on the two binaries.
#
# Environment: AB_DIR (work dir, default a fresh `mktemp -d`; reuse one to
# skip the builds' unchanged parts).
#
# Exit status: 0 when no compared row fails (a simulated statistic
# DIFFERENT, a metric regressed, a failed operation) and every parent
# wide-loop kernel is identical in the change; 1 otherwise; 2 on usage
# errors.
set -eu

if [ "$#" -lt 1 ]; then
    echo "usage: $0 <parent-rev> [workload...]" >&2
    exit 2
fi
rev=$1
shift
repo=$(cd "$(dirname "$0")/.." && pwd)
git -C "$repo" rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "$0: not a revision: $rev" >&2
    exit 2
}
[ "$#" -gt 0 ] || set -- village_ml_hot city_miss_path stream_sweep service_2c observed_timed suite_sweeps
dir=${AB_DIR:-$(mktemp -d)}
pairs=10
mkdir -p "$dir/runs"
rm -f "$dir"/runs/*.json

rm -rf "$dir/parent"
mkdir -p "$dir/parent"
git -C "$repo" archive "$rev" | tar -x -C "$dir/parent"
for side in parent change; do
    src=$repo
    [ "$side" = change ] || src=$dir/parent
    echo "building $side ($src)" >&2
    cargo build --release --offline --quiet --manifest-path "$src/benchmark/Cargo.toml" \
        --target-dir "$dir/$side-target"
done

run() { # side workload pair
    "$dir/$1-target/release/mltc-benchmark" --workload "$2" --trace 0 |
        tail -n 1 >"$dir/runs/$1-$2-$3.json" || true
}
for w in "$@"; do
    i=0
    while [ "$i" -lt "$pairs" ]; do
        echo "$w: pair $((i + 1))/$pairs" >&2
        if [ $((i % 2)) -eq 0 ]; then
            run parent "$w" "$i"
            run change "$w" "$i"
        else
            run change "$w" "$i"
            run parent "$w" "$i"
        fi
        i=$((i + 1))
    done
done

python3 - "$repo/BENCHMARK.json" "$dir" "$pairs" "$@" <<'EOF'
import json
import sys

manifest, out, pairs = sys.argv[1:4]
workloads, pairs = sys.argv[4:], int(pairs)
defs = json.load(open(manifest))["end_to_end"]


def quartiles(values):
    # `benchmark/src/stats.rs`'s interpolation, so the figures match.
    v = sorted(values)
    if len(v) < 2:
        return (v[0],) * 3 if v else (0.0,) * 3
    m = len(v) + 1

    def q(i):
        j = min(max(i * m // 4, 1), len(v) - 1)
        delta = i * m - j * 4
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4

    return q(1), q(2), q(3)


def headline(d, runs):
    # `report`'s headline: the median set-up, the highest memory peak, the
    # best timed figure (a simulated statistic is the same in every run).
    if d["name"] == "setup_s":
        return quartiles(runs)[1]
    if d["name"] == "peak_rss_mb":
        return max(runs)
    return min(runs) if d["better"] == "lower" else max(runs)


def load(side, w, i):
    try:
        with open(f"{out}/runs/{side}-{w}-{i}.json") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None  # no result line: a failed run


sides = {}
for side in ("parent", "change"):
    per_workload = {}
    for w in workloads:
        results = [load(side, w, i) for i in range(pairs)]
        attempted = sum(r["attempted"] if r else 1 for r in results)
        failed = sum(r["failed"] + (not r["correct"]) if r else 1 for r in results)
        e2e = {}
        for d in defs:
            runs = [r["metrics"][d["name"]]["value"] if r else None for r in results]
            got = [x for x in runs if x is not None]
            if not got:
                continue
            p25, med, p75 = quartiles(got)
            e2e[d["name"]] = {
                "unit": d["unit"], "better": d["better"], "value": headline(d, got),
                "n": len(got), "median": med, "p25": p25, "p75": p75, "runs": got,
                "by_pair": runs,
            }
        per_workload[w] = {
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted if attempted else 0.0,
            "end_to_end": e2e, "per_layer": {},
        }
    sides[side] = per_workload
    # The benchmark's DEFAULT_SEED (0x5eed) and RUN_SECONDS, which every run used.
    doc = {"schema": 1, "seed": 24301, "passes": pairs, "run_seconds": 12.0,
           "threads": 2, "workloads": {
               w: dict(v, end_to_end={
                   m: {k: x for k, x in e.items() if k != "by_pair"}
                   for m, e in v["end_to_end"].items()})
               for w, v in per_workload.items()}}
    with open(f"{out}/{side}.json", "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)

print(f"{'workload':<16} {'metric':<22} {'parent median (q1-q3)':>34} "
      f"{'change median (q1-q3)':>34} {'change/parent':>13} {'change wins':>11}")
for w in workloads:
    for d in defs:
        a = sides["parent"][w]["end_to_end"].get(d["name"])
        b = sides["change"][w]["end_to_end"].get(d["name"])
        if not a or not b:
            continue
        wins = sum(
            1 for x, y in zip(a["by_pair"], b["by_pair"])
            if x is not None and y is not None
            and (y < x if d["better"] == "lower" else y > x)
        )
        fmt = lambda m: f"{m['median']:.6g} ({m['p25']:.6g}-{m['p75']:.6g})"
        ratio = b["median"] / a["median"] if a["median"] else float("nan")
        print(f"{w:<16} {d['name']:<22} {fmt(a):>34} {fmt(b):>34} "
              f"{ratio:>13.4f} {wins:>8}/{pairs}")
EOF

echo
status=0
# `compare` judges every workload of the benchmark; keep the rows of those
# that ran, and fail on theirs alone.
"$dir/change-target/release/mltc-benchmark" compare "$dir/parent.json" "$dir/change.json" \
    >"$dir/compare.txt" 2>&1 || true
pattern=$(printf '%s\n' "$@" | sed 's/^/^/; s/$/ /' | paste -sd'|' -)
head -n 1 "$dir/compare.txt"
grep -E "$pattern" "$dir/compare.txt" | tee "$dir/compare-run.txt"
if grep -qE 'DIFFERENT|regressed|failed operations|missing from one report' "$dir/compare-run.txt"; then
    echo "compare: rows fail" >&2
    status=1
fi

echo
"$repo/scripts/kernel_identity.sh" "$dir/parent-target/release/mltc-benchmark" \
    "$dir/change-target/release/mltc-benchmark" || status=1
echo "reports: $dir/parent.json $dir/change.json" >&2
exit "$status"
