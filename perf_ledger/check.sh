#!/usr/bin/env bash
# Smoke-checks the benchmark: builds it, runs every workload briefly (plus
# one traced run per workload), and checks that what it prints is exactly
# what BENCHMARK.json promises. Run from anywhere; this is the hook CI calls.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path perf_ledger/Cargo.toml
bin="${CARGO_TARGET_DIR:-perf_ledger/target}/release/perf_ledger"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for w in $workloads; do
    for trace in 0 1; do
        "$bin" --workload "$w" --trace "$trace" --quick | tail -n 1 > "$out/$w.$trace.json"
    done
done

python3 - "$out" <<'PY'
import json, re, sys
out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
for w in spec["workloads"]:
    assert name_ok.match(w["name"]), w["name"]
    for trace, metrics in declared.items():
        result = json.load(open(f"{out}/{w['name']}.{trace}.json"))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        want = {m["name"]: m["unit"] for m in metrics}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (w["name"], trace, set(got) ^ set(want))
        assert all(name_ok.match(n) for n in got)
        if trace == 0:
            zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
            assert not zero, (w["name"], "end-to-end metrics must never read 0", zero)
    trace = json.load(open(f"perf_ledger/out/trace-{w['name']}.json"))
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans, "a traced run must leave spans"
    ids = {e["args"]["id"] for e in spans}
    assert all(e["args"]["parent"] is None or e["args"]["parent"] in ids for e in spans)
print(f"perf_ledger check: {len(spec['workloads'])} workloads, "
      f"{len(spec['end_to_end'])} end-to-end and {len(spec['per_layer'])} per-layer metrics match BENCHMARK.json")
PY
