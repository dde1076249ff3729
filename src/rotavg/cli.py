"""Command-line front end: compute, average, enumerate, verify.

Exit codes are stable: 0 success, 1 verification violation, 2 parse error,
3 limit exceeded, 141 (128 + SIGPIPE) when the reader of stdout closes
it early.  Commands raise; main alone maps a RankLimitError to 3 and any
other ValueError or OSError to 2, with one "error:" line on stderr.
Integer inputs are ASCII digits with an optional minus sign.  Exact
rationals render as "p/q"; floats are shortest round-trip.  The optional
ROTAVG_CACHE_LIMIT environment variable caps the number of cached orbit
values.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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
from .propositions import RANK8_EXCEPTION, RANK9_EXCEPTION, _rank_checks, rank_table
from .rationals import format_rational
from .tensors import DEFAULT_MAX_RANK, DenseTensor, RankLimitError, _check_ceiling, average_tensor

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_LIMIT = 3
EXIT_BROKEN_PIPE = 141

DEFAULT_ENUMERATE_LIMIT = 13
# the top of the rank range the benchmark times closed_form on
DEFAULT_COMPUTE_LIMIT = 120
# Monte Carlo draws per battery matrix: 100 times verify's default
DEFAULT_MC_SAMPLES_LIMIT = 10**8

# int() alone also reads "+3", " 3", "1_0" and the digits of other scripts
_INTEGER = re.compile(r"-?[0-9]+")


def integer(text: str) -> int:
    """An integer written in ASCII digits with an optional minus sign, nothing else."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"bad integer {text!r}; expected ASCII digits")
    return int(text)


def ceiling(text: str) -> int:
    """A --max-rank value: an integer of at least 0, so a negative one is malformed, not a limit."""
    value = integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a rank ceiling must be at least 0, not {value}")
    return value


def _cache_from_env() -> ValueCache:
    raw = os.environ.get("ROTAVG_CACHE_LIMIT")
    if raw is None:
        return ValueCache()
    if not _INTEGER.fullmatch(raw):
        raise ValueError(f"bad ROTAVG_CACHE_LIMIT: {raw!r}")
    return ValueCache(limit=int(raw))


def _unique_keys(pairs: list) -> dict:
    """One decoded JSON object; json.loads alone keeps the last of a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


def _load_json(text: str, what: str):
    """Decoded JSON text; malformed or too deeply nested text is a ValueError naming what.

    An object that repeats a key is a ValueError too.
    """
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None


def _parse_chi(text: str) -> PowerMatrix:
    data = _load_json(text, "chi")
    if not isinstance(data, list):
        raise ValueError("chi must be a JSON array of 3 arrays of 3 integers")
    return PowerMatrix.from_rows(data)


def _parse_indices(text: str) -> PowerMatrix:
    """Lab/molecular digit pairs like "11,23,32"; whitespace ignored."""
    stripped = "".join(text.split())
    tokens = stripped.split(",") if stripped else []
    for token in tokens:
        if not re.fullmatch(r"[0-9]{2}", token):
            raise ValueError(f"bad index pair {token!r}; expected two digits like '23'")
    labs, mols = (tuple(int(token[k]) for token in tokens) for k in (0, 1))
    return from_multi_index(MultiIndex(labs, mols))


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
    chi = _parse_chi(args.chi) if args.chi is not None else _parse_indices(args.indices)
    _check_ceiling(chi.rank, args.max_rank)
    print(json.dumps(_output_record(chi, _cache_from_env())))
    return EXIT_OK


def _cmd_average(args) -> int:
    with open(args.tensor_file, "r", encoding="utf-8") as handle:
        tensor = DenseTensor.from_json_obj(_load_json(handle.read(), "tensor file"))
    averaged = average_tensor(tensor, max_rank=args.max_rank, cache=_cache_from_env())
    payload = averaged.to_json_text(args.nonzero_only)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)
    return EXIT_OK


# Each format's header, row head (the matrix) and row tail (rank, value,
# value_float).  Every field is an int, an ASCII -?[0-9]+(/[0-9]+)? string or
# a finite float; json.dumps and csv.writer (QUOTE_MINIMAL) neither quote nor
# escape any of these, so the templates give the bytes those writers would.
_ENUMERATE_TEMPLATES = {
    "json": (
        "",
        '{"chi": [[%d, %d, %d], [%d, %d, %d], [%d, %d, %d]], ',
        '"rank": %d, "value": "%s", "value_float": %r}\n',
    ),
    "csv": ("Q,R,S,T,U,V,W,X,Y,rank,value,value_float\n", "%d,%d,%d,%d,%d,%d,%d,%d,%d,", "%d,%s,%r\n"),
}


def _cmd_enumerate(args) -> int:
    if args.rank < 0:  # before the csv header goes out
        raise ValueError(f"rank must be nonnegative, got {args.rank}")
    _check_ceiling(args.rank, args.max_rank)
    rows = rank_table(
        args.rank, cache=_cache_from_env(), nonzero=args.nonzero, canonical_only=args.canonical
    )
    header, head, tail = _ENUMERATE_TEMPLATES[args.format]
    # Each row is its matrix followed by a tail that depends only on the
    # value; the tail is rendered once per value object.  Rows share a few
    # value objects, and keying by id() skips Fraction.__hash__; each entry
    # keeps its object alive, so an id is never reused meanwhile.
    tails: dict = {}
    write = sys.stdout.write
    write(header)
    for chi, value in rows:
        entry = tails.get(id(value))
        if entry is None:
            entry = tails[id(value)] = (value, tail % (args.rank, format_rational(value), float(value)))
        write(head % chi.flat + entry[1])
    return EXIT_OK


def _parse_rank_range(text: str) -> range:
    """Ranks "N" or "N..M" with N <= M, written in ASCII digits and nothing else."""
    match = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", text)
    if match:
        start, stop = int(match[1]), int(match[2] or match[1])
        if start <= stop:
            return range(start, stop + 1)
    raise ValueError(f"bad rank range {text!r}; expected N or N..M")


def _suite_oracle(rows, args, cache) -> dict:
    worst = 0.0
    worst_chi = None
    checked = 0
    for rank_rows in rows.values():
        for chi, value in rank_rows:
            delta = abs(quadrature_average(chi) - float(value))
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


def _suite_beta(rows, args, cache) -> dict:
    checked = 0
    failures = []
    for rank_rows in rows.values():
        for chi, value in rank_rows:
            checked += 1
            result = beta_path(chi)
            if result.pi_power != 0 or result.coefficient != value:
                failures.append(chi.to_lists())
    return {"checked": checked, "failures": failures, "pass": not failures}


def _suite_props(rows, args, cache) -> dict:
    # read at call time, so a patched exception is the one enforced
    exceptions = {8: RANK8_EXCEPTION, 9: RANK9_EXCEPTION}
    per_rank = []
    for n, rank_rows in rows.items():
        report, prime_report, converse = _rank_checks(n, rank_rows)
        # the simple rules hold outright at every rank verify accepts but 8 and 9
        expected = [canonicalize(exceptions[n]).representative] if n in exceptions else []
        entry = report.to_json_obj()
        entry["expected_violations"] = [chi.to_lists() for chi in expected]
        entry["pass"] = report.violations == expected
        if prime_report is not None:
            entry["prime_nonvanishing"] = prime_report.to_json_obj()
            entry["prime_nonvanishing"]["pass"] = prime_report.verdict == "holds"
            entry["pass"] = entry["pass"] and prime_report.verdict == "holds"
            entry["converse_witnesses"] = [chi.to_lists() for chi in converse]
        per_rank.append(entry)
    return {"ranks": per_rank, "pass": all(entry["pass"] for entry in per_rank)}


def _suite_mc(rows, args, cache) -> dict:
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


# every suite by name, in the order `--suite all` runs and reports them; each
# takes the walked rows, the parsed arguments and the cache, reading what it needs
SUITES = {"oracle": _suite_oracle, "beta": _suite_beta, "props": _suite_props, "mc": _suite_mc}


def _cmd_verify(args) -> int:
    ranks = _parse_rank_range(args.ranks)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    if "mc" in suites and args.mc_samples < 2:
        raise ValueError(f"--mc-samples needs at least two samples, got {args.mc_samples}")
    if "mc" in suites and args.mc_samples > DEFAULT_MC_SAMPLES_LIMIT:
        raise RankLimitError(
            f"--mc-samples {args.mc_samples} exceeds the sample ceiling {DEFAULT_MC_SAMPLES_LIMIT}"
        )
    if "mc" in suites and args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    # one walk per rank, shared by the oracle, beta and props suites; the
    # walk of each rank visits all binom(n+8, 8) flats
    walked = [] if suites == ["mc"] else ranks
    if walked:
        _check_ceiling(walked[-1], DEFAULT_ENUMERATE_LIMIT)
    cache = _cache_from_env()
    rows = {n: list(rank_table(n, cache, canonical_only=True)) for n in walked}
    outcomes = {suite: SUITES[suite](rows, args, cache) for suite in suites}
    ok = all(outcome["pass"] for outcome in outcomes.values())
    print(json.dumps({"ranks": args.ranks, "suites": outcomes, "pass": ok}, indent=2))
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
        "--max-rank", type=ceiling, default=DEFAULT_COMPUTE_LIMIT,
        help=f"rank ceiling (default {DEFAULT_COMPUTE_LIMIT})",
    )
    p_compute.set_defaults(func=_cmd_compute)

    p_average = sub.add_parser("average", help="rotationally average a tensor file")
    p_average.add_argument("tensor_file", help="input tensor JSON")
    p_average.add_argument("--out", help="output path (default: stdout)")
    p_average.add_argument("--nonzero-only", action="store_true", help="emit only nonzero components")
    p_average.add_argument(
        "--max-rank", type=ceiling, default=DEFAULT_MAX_RANK,
        help=f"rank ceiling (default {DEFAULT_MAX_RANK})",
    )
    p_average.set_defaults(func=_cmd_average)

    p_enum = sub.add_parser("enumerate", help="list all matrices of one rank with values")
    p_enum.add_argument("-n", "--rank", type=integer, required=True)
    p_enum.add_argument("--nonzero", action="store_true", help="only matrices with nonzero average")
    p_enum.add_argument("--canonical", action="store_true", help="one representative per orbit")
    p_enum.add_argument("--format", choices=("json", "csv"), default="json")
    p_enum.add_argument("--threads", type=integer, default=1, help="accepted and ignored")
    p_enum.add_argument("--max-rank", type=ceiling, default=DEFAULT_ENUMERATE_LIMIT)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run cross-check suites")
    p_verify.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p_verify.add_argument("-n", "--ranks", default="0..6", help='rank range like "0..6" or "8"')
    p_verify.add_argument("--threads", type=integer, default=1, help="accepted and ignored")
    p_verify.add_argument(
        "--mc-samples", type=integer, default=1_000_000,
        help=f"Monte Carlo draws per battery matrix, 2 to {DEFAULT_MC_SAMPLES_LIMIT}",
    )
    p_verify.add_argument("--seed", type=integer, default=20240801)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe then raises here, not at exit
        return code
    except BrokenPipeError:  # an OSError, so it goes first
        if sys.stdout is sys.__stdout__:
            # the interpreter flushes stdout again at exit; send that to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:  # RankLimitError and UnicodeDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT if isinstance(exc, RankLimitError) else EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
