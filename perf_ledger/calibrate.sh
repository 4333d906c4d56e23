#!/usr/bin/env bash
# Measures how well the benchmark repeats on this box: SETS sets of RUNS
# back-to-back full runs of every workload on the current commit, each run
# with its own seed, interleaving the workloads so that a slow spell hits
# them all. Prints one campaign's section of CALIBRATION.md.
#
#   perf_ledger/calibrate.sh [SETS=2] [RUNS=5] >> perf_ledger/CALIBRATION.md
set -euo pipefail
cd "$(dirname "$0")/.."
sets="${1:-2}"
runs="${2:-5}"

cargo build --release --offline --manifest-path perf_ledger/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-perf_ledger/target}/release/perf_ledger"

python3 - "$bin" "$sets" "$runs" <<'PY'
import json, statistics, subprocess, sys, time
binary, sets, runs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
rows = {w: [] for w in workloads}  # (set, seed, wall_s, p50_over_floor, metrics)
for s in range(sets):
    for r in range(runs):
        seed = 100 * (s + 1) + r
        for w in workloads:
            t0 = time.time()
            out = subprocess.run([binary, "--workload", w, "--seed", str(seed),
                                  "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                                 capture_output=True, text=True, check=True).stdout.splitlines()
            wall = time.time() - t0
            result = json.loads(out[-1])
            assert result["correct"], (w, seed)
            health = next(float(l.split()[1]) for l in out if "bench.p50_over_floor" in l)
            rows[w].append((s, seed, wall, health, {k: v["value"] for k, v in result["metrics"].items()}))
            print(f"set {s} run {r} {w}: {wall:.1f}s", file=sys.stderr)

def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)

print(f"Generated by `perf_ledger/calibrate.sh {sets} {runs}`: {sets} sets of {runs} runs per workload, "
      f"`--seconds {spec['run_seconds']}`, one seed per run.\n")
print("Spread is the distance between the first and third quartile of all runs' values "
      "(`statistics.quantiles(values, n=4)`) as a share of their median; "
      "drift is the last set's median against the first set's.\n")
for w in workloads:
    print(f"## {w}\n")
    print("| metric | bound | min | median | max | spread | spread / bound | drift |")
    print("|---|---|---|---|---|---|---|---|")
    for name, bound in bounds.items():
        xs = [row[4][name] for row in rows[w]]
        first = statistics.median(row[4][name] for row in rows[w] if row[0] == 0)
        last = statistics.median(row[4][name] for row in rows[w] if row[0] == sets - 1)
        sp = spread(xs)
        print(f"| `{name}` | {bound:.0%} | {min(xs):.6g} | {statistics.median(xs):.6g} | {max(xs):.6g} "
              f"| {sp:.2%} | {sp / bound:.2f} | {(last - first) / first:+.2%} |")
    hs = [row[3] for row in rows[w]]
    print(f"\n`bench.p50_over_floor`: min {min(hs):.3f}, median {statistics.median(hs):.3f}, max {max(hs):.3f}.\n")
    print("Every run:\n")
    print("| set | seed | wall s | p50/floor | " + " | ".join(f"`{n}`" for n in bounds) + " |")
    print("|---|---|---|---|" + "---|" * len(bounds))
    for s, seed, wall, health, metrics in rows[w]:
        print(f"| {s} | {seed} | {wall:.1f} | {health:.3f} | " + " | ".join(f"{metrics[n]:.6g}" for n in bounds) + " |")
    print()
PY
