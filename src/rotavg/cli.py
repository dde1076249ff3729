"""Command-line front end: compute, average, enumerate, verify.

Exit codes are stable: 0 success, 1 verification violation, 2 parse error,
3 limit exceeded, 141 (128 + SIGPIPE) when the reader of stdout closes
it early.  Exact rationals render as "p/q"; floats are shortest
round-trip.  The optional ROTAVG_CACHE_LIMIT environment variable caps the
number of cached orbit values.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .evaluator import ValueCache, beta_path, evaluate
from .oracle import default_mc_battery, monte_carlo_average, quadrature_average
from .power_matrix import (
    MultiIndex,
    PowerMatrix,
    canonicalize,
    determinant,
    from_multi_index,
    selection_rule,
)
from .propositions import (
    RANK8_EXCEPTION,
    RANK9_EXCEPTION,
    canonical_representatives,
    prop_converse_witnesses,
    rank_table,
    verify_even_rule,
    verify_odd_rule,
    verify_prime_nonvanishing,
    _is_odd_prime,
)
from .rationals import format_rational
from .tensors import DEFAULT_MAX_RANK, DenseTensor, RankLimitError, average_tensor

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_LIMIT = 3
EXIT_BROKEN_PIPE = 141

DEFAULT_ENUMERATE_LIMIT = 13
# the top of the rank range the benchmark times closed_form on
DEFAULT_COMPUTE_LIMIT = 120

# even/odd ranks where the simple vanishing rules are known to hold outright
EVEN_RULE_RANKS = {0, 2, 4, 6, 10, 12}
ODD_RULE_RANKS = {1, 3, 5, 7, 11, 13}


def _cache_from_env() -> ValueCache:
    raw = os.environ.get("ROTAVG_CACHE_LIMIT")
    if raw is None:
        return ValueCache()
    try:
        return ValueCache(limit=int(raw))
    except ValueError as exc:
        raise ValueError(f"bad ROTAVG_CACHE_LIMIT: {raw!r}") from exc


def _parse_chi(text: str) -> PowerMatrix:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"chi is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError("chi must be a JSON array of 3 arrays of 3 integers")
    return PowerMatrix.from_rows(data)


def _parse_indices(text: str) -> PowerMatrix:
    """Lab/molecular digit pairs like "11,23,32"; whitespace ignored."""
    stripped = "".join(text.split())
    labs: list[int] = []
    mols: list[int] = []
    if stripped:
        for token in stripped.split(","):
            if len(token) != 2 or not token.isdigit():
                raise ValueError(f"bad index pair {token!r}; expected two digits like '23'")
            labs.append(int(token[0]))
            mols.append(int(token[1]))
    return from_multi_index(MultiIndex(tuple(labs), tuple(mols)))


def _output_record(chi: PowerMatrix, cache: ValueCache) -> dict:
    value = evaluate(chi, cache)
    canon = canonicalize(chi)
    reason = None
    if value == 0:
        if not selection_rule(chi):
            reason = "selection rule"
        elif canon.sign == 0:
            reason = "odd symmetry"
    return {
        "chi": chi.to_lists(),
        "rank": chi.rank,
        "value": format_rational(value),
        "value_float": float(value),
        "selection_rule": selection_rule(chi),
        "det": determinant(chi),
        "canonical": canon.representative.to_lists(),
        "canonical_sign": canon.sign,
        "zero_reason": reason,
    }


def _cmd_compute(args) -> int:
    try:
        if args.chi is not None:
            chi = _parse_chi(args.chi)
        else:
            chi = _parse_indices(args.indices)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if chi.rank > args.max_rank:
        print(
            f"error: rank {chi.rank} exceeds the configured maximum {args.max_rank}",
            file=sys.stderr,
        )
        return EXIT_LIMIT
    print(json.dumps(_output_record(chi, _cache_from_env())))
    return EXIT_OK


def _cmd_average(args) -> int:
    try:
        with open(args.tensor_file, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
        tensor = DenseTensor.from_json_obj(obj)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        averaged = average_tensor(tensor, max_rank=args.max_rank, cache=_cache_from_env())
    except RankLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    payload = json.dumps(averaged.to_json_obj(nonzero_only=args.nonzero_only), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.rank < 0 or args.rank > args.max_rank:
        print(
            f"error: rank {args.rank} outside the configured limit {args.max_rank}",
            file=sys.stderr,
        )
        return EXIT_LIMIT
    rows = rank_table(
        args.rank, cache=_cache_from_env(), nonzero=args.nonzero, canonical_only=args.canonical
    )
    # Each row is its matrix followed by a tail that depends only on the
    # value; the tail is rendered once per value object by the same json/csv
    # code that would render the whole row, so the bytes match it.  Rows
    # share a few value objects, and keying by id() skips Fraction.__hash__;
    # each entry keeps its object alive, so an id is never reused meanwhile.
    tails: dict = {}
    if args.format == "csv":
        head = "%d,%d,%d,%d,%d,%d,%d,%d,%d,"
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["Q", "R", "S", "T", "U", "V", "W", "X", "Y", "rank", "value", "value_float"])
        sys.stdout.write(sink.getvalue())

        def render_tail(value):
            sink.seek(0)
            sink.truncate()
            writer.writerow([args.rank, format_rational(value), repr(float(value))])
            return sink.getvalue()
    else:
        head = '{"chi": [[%d, %d, %d], [%d, %d, %d], [%d, %d, %d]], '

        def render_tail(value):
            record = {"rank": args.rank, "value": format_rational(value), "value_float": float(value)}
            return json.dumps(record)[1:] + "\n"

    write = sys.stdout.write
    for chi, value in rows:
        entry = tails.get(id(value))
        if entry is None:
            entry = tails[id(value)] = (value, render_tail(value))
        write(head % chi.flat + entry[1])
    return EXIT_OK


def _parse_rank_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        start, stop = int(lo), int(hi)
    else:
        start = stop = int(text)
    if start < 0 or stop < start:
        raise ValueError(f"bad rank range {text!r}")
    return list(range(start, stop + 1))


def _suite_oracle(ranks, cache) -> dict:
    worst = 0.0
    worst_chi = None
    checked = 0
    for n in ranks:
        for chi in canonical_representatives(n):
            delta = abs(quadrature_average(chi) - float(evaluate(chi, cache)))
            checked += 1
            if delta > worst:
                worst, worst_chi = delta, chi
    passed = worst <= 1e-10
    return {
        "checked": checked,
        "max_abs_delta": worst,
        "worst_chi": worst_chi.to_lists() if worst_chi else None,
        "tolerance": 1e-10,
        "pass": passed,
    }


def _suite_beta(ranks, cache) -> dict:
    checked = 0
    failures = []
    for n in ranks:
        for chi in canonical_representatives(n):
            checked += 1
            result = beta_path(chi)
            expected = evaluate(chi, cache)
            if result.pi_power != 0 or result.coefficient != expected:
                failures.append(chi.to_lists())
    return {"checked": checked, "failures": failures, "pass": not failures}


def _suite_props(ranks, cache) -> dict:
    per_rank = []
    ok = True
    for n in ranks:
        if n % 2 == 0:
            report = verify_even_rule(n, cache)
            if n in EVEN_RULE_RANKS:
                expected = []
            elif n == 8:
                expected = [canonicalize(RANK8_EXCEPTION).representative]
            else:
                expected = None  # no claim at this rank
        else:
            report = verify_odd_rule(n, cache)
            if n in ODD_RULE_RANKS:
                expected = []
            elif n == 9:
                expected = [canonicalize(RANK9_EXCEPTION).representative]
            else:
                expected = None
        entry = report.to_json_obj()
        if expected is None:
            entry["expected_violations"] = None
            entry["pass"] = True  # informational only
        else:
            entry["expected_violations"] = [chi.to_lists() for chi in expected]
            entry["pass"] = report.violations == expected
        if n % 2 and _is_odd_prime(n):
            prime_report = verify_prime_nonvanishing(n, cache)
            entry["prime_nonvanishing"] = prime_report.to_json_obj()
            entry["prime_nonvanishing"]["pass"] = prime_report.verdict == "holds"
            entry["pass"] = entry["pass"] and prime_report.verdict == "holds"
            entry["converse_witnesses"] = [
                chi.to_lists() for chi in prop_converse_witnesses(n, cache)
            ]
        ok = ok and entry["pass"]
        per_rank.append(entry)
    return {"ranks": per_rank, "pass": ok}


def _suite_mc(args, cache) -> dict:
    battery = default_mc_battery()
    results = []
    covered = 0
    for i, chi in enumerate(battery):
        mean, stderr = monte_carlo_average(chi, args.mc_samples, args.seed + i)
        exact = float(evaluate(chi, cache))
        ok = abs(mean - exact) <= 5.0 * stderr
        covered += ok
        results.append(
            {
                "chi": chi.to_lists(),
                "exact": exact,
                "mean": mean,
                "stderr": stderr,
                "within_5_stderr": ok,
            }
        )
    return {
        "battery_size": len(battery),
        "samples": args.mc_samples,
        "seed": args.seed,
        "covered": covered,
        "results": results,
        "pass": covered >= len(battery) - 1,
    }


def _cmd_verify(args) -> int:
    try:
        ranks = _parse_rank_range(args.ranks)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if ranks[-1] > DEFAULT_ENUMERATE_LIMIT:
        # every suite walks all binom(n+8, 8) flats of each rank
        print(
            f"error: rank {ranks[-1]} exceeds the verify ceiling {DEFAULT_ENUMERATE_LIMIT}",
            file=sys.stderr,
        )
        return EXIT_LIMIT
    cache = _cache_from_env()
    suites = ["oracle", "beta", "props", "mc"] if args.suite == "all" else [args.suite]
    report = {"ranks": args.ranks, "suites": {}}
    ok = True
    for suite in suites:
        if suite == "oracle":
            outcome = _suite_oracle(ranks, cache)
        elif suite == "beta":
            outcome = _suite_beta(ranks, cache)
        elif suite == "props":
            outcome = _suite_props(ranks, cache)
        else:
            outcome = _suite_mc(args, cache)
        report["suites"][suite] = outcome
        ok = ok and outcome["pass"]
    report["pass"] = ok
    print(json.dumps(report, indent=2))
    return EXIT_OK if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotavg",
        description="Exact uniform rotational averages of direction-cosine products and tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one exponent matrix")
    src = p_compute.add_mutually_exclusive_group(required=True)
    src.add_argument("--chi", help='3x3 JSON matrix, e.g. "[[1,0,0],[0,1,0],[0,0,1]]"')
    src.add_argument("--indices", help='lab/molecular digit pairs, e.g. "11,22,33"')
    p_compute.add_argument(
        "--max-rank", type=int, default=DEFAULT_COMPUTE_LIMIT,
        help=f"rank ceiling (default {DEFAULT_COMPUTE_LIMIT})",
    )
    p_compute.set_defaults(func=_cmd_compute)

    p_average = sub.add_parser("average", help="rotationally average a tensor file")
    p_average.add_argument("tensor_file", help="input tensor JSON")
    p_average.add_argument("--out", help="output path (default: stdout)")
    p_average.add_argument("--nonzero-only", action="store_true", help="emit only nonzero components")
    p_average.add_argument(
        "--max-rank", type=int, default=DEFAULT_MAX_RANK,
        help=f"rank ceiling (default {DEFAULT_MAX_RANK})",
    )
    p_average.set_defaults(func=_cmd_average)

    p_enum = sub.add_parser("enumerate", help="list all matrices of one rank with values")
    p_enum.add_argument("-n", "--rank", type=int, required=True)
    p_enum.add_argument("--nonzero", action="store_true", help="only matrices with nonzero average")
    p_enum.add_argument("--canonical", action="store_true", help="one representative per orbit")
    p_enum.add_argument("--format", choices=("json", "csv"), default="json")
    p_enum.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p_enum.add_argument("--max-rank", type=int, default=DEFAULT_ENUMERATE_LIMIT)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run cross-check suites")
    p_verify.add_argument(
        "--suite", choices=("oracle", "beta", "props", "mc", "all"), default="all"
    )
    p_verify.add_argument("-n", "--ranks", default="0..6", help='rank range like "0..6" or "8"')
    p_verify.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p_verify.add_argument("--mc-samples", type=int, default=1_000_000)
    p_verify.add_argument("--seed", type=int, default=20240801)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe then raises here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:
            # the interpreter flushes stdout again at exit; send that to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
