"""Smoke test of the benchmark itself, at tiny sizes (well under a minute).

    python3 perfbench/selftest.py

For every workload it checks that an untraced run reports every end-to-end
metric and a traced run every per-layer metric, each with the unit that
BENCHMARK.json names; that both pass their correctness checks; and that a
run with one deliberately corrupted output reports failed_frac above 0, so
the correctness gate is not vacuous.  It also checks that layer_map.json
maps exactly the per-layer metrics.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import ROOT, run_benchmark  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    mapped = [m for layer in json.loads((HERE / "layer_map.json").read_text()).values() for m in layer["metrics"]]
    if sorted(mapped) != sorted(m["name"] for m in spec["per_layer"]):
        problems.append("layer_map.json and the per_layer metrics of BENCHMARK.json differ")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads and workloads.WORKLOADS differ")
    for name in WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, _ = run_benchmark(name, seed=7, seconds=0.5, trace=trace, tiny=True)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in wanted}
            if units != expected:
                problems.append(f"{name} trace={trace}: metrics {units} != {expected}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: failed {result['failed']} of {result['attempted']}")
        _, record = run_benchmark(name, seed=7, seconds=0.5, trace=False, tiny=True, corrupt=True)
        if not record["failed_frac"] > 0:
            problems.append(f"{name}: a corrupted output left failed_frac at {record['failed_frac']}")
        print(f"{name}: corrupted run failed_frac {record['failed_frac']:.3g}")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
