"""Benchmark for rotavg: end-to-end timings, or per-layer spans with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the same checkout and driven in one
process, single-threaded.  Set-up (a fresh import of rotavg plus seeded input
generation) runs several times and reports its median.  Then rounds of the
workload's fixed work repeat for ``--seconds``; every round starts from
fresh caches, and the last one may leave out items that would overrun.
Outputs are checked after timing stops.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.  The line
before it is a JSON record of the run (machine, versions, seed, samples).

Metric definitions (a round's "items" are its CLI calls, or the whole query
stream on highrank; its "ops" are CLI calls, or evaluate calls on highrank):
  wall_s      sum over items of the item's median time across rounds
  op_p50_ms   percentiles across ops of each op's median time across rounds
  op_p90_ms
  setup_s     median over set-ups of import plus input generation
  peak_rss_mb peak resident set size of the process after timing
With --trace 1 the first half of the run is untraced and the second half
runs whole rounds with the tracer installed.  Per-layer times and counts are
per traced round; trace.overhead_s is traced minus untraced wall_s.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_rotavg():
    """Import rotavg afresh from src/, dropping any earlier copy of the package."""
    for name in [m for m in sys.modules if m == "rotavg" or m.startswith("rotavg.")]:
        del sys.modules[name]
    rv = importlib.import_module("rotavg")
    importlib.import_module("rotavg.cli")
    if Path(rv.__file__).resolve().parent != ROOT / "src" / "rotavg":
        raise ImportError(f"rotavg imported from {rv.__file__}, not from this checkout")
    return rv


def _percentile(values, pct):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_rounds(workload, budget, rounds, whole):
    """Append timed rounds to `rounds` for about `budget` seconds.

    The first round is always whole.  With `whole`, a further round starts
    only if at most half of it is expected past the budget; otherwise
    rounds continue until the budget is spent, leaving out the items that
    would overrun it by more than half their usual time.
    """
    start = time.perf_counter()
    durations = []
    while not durations or time.perf_counter() - start + (statistics.median(durations) / 2 if whole else 0) < budget:
        gc.collect()
        t0 = time.perf_counter()
        deadline = None if whole or not durations else start + budget
        rounds.append(workload.run_round(deadline))
        durations.append(time.perf_counter() - t0)
        if not rounds[-1][0]:
            rounds.pop()
            break


def _summarise(rounds):
    """Per-item medians, and per-op medians, of the samples across rounds."""

    def median(part, key):
        return statistics.median(t for r in rounds for t in r[part].get(key, ()))

    return {key: median(0, key) for key in rounds[0][0]}, [median(1, key) for key in rounds[0][1]]


def _layer_metrics(tracer, rounds, traced_wall, untraced_wall):
    """Per-round layer metrics from the traced rounds."""
    n = len(rounds)
    spans, counts = tracer.span_totals, tracer.counts

    def per_round(value):
        return value // n if isinstance(value, int) and value % n == 0 else value / n

    canon_calls, canon_total, canon_self = spans("power_matrix.canonical")
    hits, misses = counts["evaluator.cache_hits"], counts["evaluator.cache_misses"]
    component_calls = spans("tensors.average_component")[0]
    format_calls, _, format_self = spans("rationals.format")
    parse_calls, _, parse_self = spans("rationals.parse")
    values = {
        "power_matrix.canonical_calls": (canon_calls, "count"),
        "power_matrix.canonical_self_s": (canon_self, "s"),
        "evaluator.evaluate_calls": (spans("evaluator.evaluate")[0], "count"),
        "evaluator.evaluate_self_s": (spans("evaluator.evaluate")[2], "s"),
        "evaluator.closed_form_calls": (spans("evaluator.closed_form")[0], "count"),
        "evaluator.closed_form_self_s": (spans("evaluator.closed_form")[2], "s"),
        "evaluator.closed_form_terms": (counts["evaluator.closed_form_terms"], "count"),
        "evaluator.beta_path_self_s": (spans("evaluator.beta_path")[2], "s"),
        "evaluator.cache_hits": (hits, "count"),
        "evaluator.cache_misses": (misses, "count"),
        "evaluator.cache_refused": (counts["evaluator.cache_refused"], "count"),
        "evaluator.cache_entries": (counts["evaluator.cache_entries"], "count"),
        "tensors.average_component_calls": (component_calls, "count"),
        "tensors.pairs_grouped": (counts["tensors.pairs_grouped"], "count"),
        "tensors.groups": (counts["tensors.groups"], "count"),
        "tensors.lab_skipped": (counts["tensors.lab_space"] - component_calls, "count"),
        "tensors.self_s": (
            spans("tensors.average_tensor", "tensors.average_component", "tensors.from_json", "tensors.to_json")[2],
            "s",
        ),
        "oracle.quadrature_calls": (spans("oracle.quadrature")[0], "count"),
        "oracle.quadrature_points": (counts["oracle.quadrature_points"], "count"),
        "oracle.quadrature_self_s": (spans("oracle.quadrature")[2], "s"),
        "oracle.mc_samples": (counts["oracle.mc_samples"], "count"),
        "oracle.mc_self_s": (spans("oracle.mc")[2], "s"),
        "propositions.matrices_scanned": (counts["propositions.matrices_scanned"], "count"),
        "propositions.rank_table_self_s": (spans("propositions.rank_table")[2], "s"),
        "propositions.sweep_self_s": (spans("propositions.sweep")[2], "s"),
        "propositions.representatives_self_s": (spans("propositions.representatives")[2], "s"),
        "cli.self_s": (spans("cli.main")[2], "s"),
        "cli.bytes_out": (sum(r[3] for r in rounds), "B"),
        "rationals.format_calls": (format_calls, "count"),
        "rationals.format_self_s": (format_self, "s"),
        "rationals.parse_calls": (parse_calls, "count"),
        "rationals.parse_self_s": (parse_self, "s"),
    }
    metrics = {name: {"value": per_round(v), "unit": unit} for name, (v, unit) in values.items()}
    # averages and ratios need no per-round division; the hit ratio's base is ValueCache.get calls
    metrics["power_matrix.canonical_us"] = {
        "value": 1e6 * canon_total / canon_calls if canon_calls else 0.0,
        "unit": "us",
    }
    metrics["evaluator.cache_hit_ratio"] = {"value": hits / (hits + misses) if hits + misses else 0.0, "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced_wall / untraced_wall - 1.0, "unit": "ratio"}
    return metrics


def run_benchmark(workload_name, seed, seconds, trace, tiny=False, corrupt=False):
    """Run one benchmark pass and return (result, record) as dictionaries."""
    import tracing
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_times = []
        for _ in range(2 if tiny else SETUPS):
            gc.collect()
            t0 = time.perf_counter()
            rv = _import_rotavg()
            workload = WORKLOADS[workload_name](rv, seed, tiny, workdir)
            workload.generate()
            setup_times.append(time.perf_counter() - t0)

        untraced, traced = [], []
        _run_rounds(workload, seconds / 2 if trace else seconds, untraced, whole=False)
        item_medians, op_medians = _summarise(untraced)
        wall = sum(item_medians.values())
        if trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, rv)
            # per-layer counts are reported per round, so traced rounds are whole
            _run_rounds(workload, seconds / 2, traced, whole=True)
            traced_wall = sum(_summarise(traced)[0].values())
            metrics = _layer_metrics(tracer, traced, traced_wall, wall)
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "op_p50_ms": {"value": 1e3 * _percentile(op_medians, 50), "unit": "ms"},
                "op_p90_ms": {"value": 1e3 * _percentile(op_medians, 90), "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            }
        attempted, failed = workload.check(untraced + traced, corrupt=corrupt)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "commit": _commit(),
        "item_medians_s": {str(key): value for key, value in item_medians.items()},
        "rounds_untraced": len(untraced),
        "rounds_traced": len(traced),
        "ops_per_round": len(op_medians),
        "failed_frac": failed / attempted,
        "setup_samples_s": setup_times,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rotavg benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rotavg" / "__init__.py").is_file():
        return _fail(f"no rotavg package under {ROOT / 'src'}; run from a full checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
