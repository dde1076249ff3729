#!/usr/bin/env python3
"""Export exact average tables, one JSONL file per rank.

Each file holds the output of ``rotavg enumerate -n K``: per matrix its rank
and exact value as "p/q", a lookup table for response-tensor calculations.
Exit codes are rotavg's: 0 success, 2 bad --ranks or an --outdir that
cannot be written, 3 a top rank above enumerate's ceiling (13) or a rank
with more digits than the interpreter's int-string limit, checked before
--outdir is made; a rank that fails leaves no file behind.

Usage:
    python scripts/export_rank_tables.py --ranks 0..6 --outdir tables [--nonzero]
"""

import argparse
import contextlib
import sys
import time
from pathlib import Path

from rotavg.cli import DEFAULT_ENUMERATE_LIMIT, _parse_rank_range, failure, main as rotavg
from rotavg.tensors import _check_ceiling


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", default="0..6", help='range like "0..6" or a single rank')
    parser.add_argument("--outdir", default="tables")
    parser.add_argument("--nonzero", action="store_true", help="skip vanishing components")
    parser.add_argument("--canonical", action="store_true", help="one row per orbit")
    args = parser.parse_args()

    try:
        ranks = _parse_rank_range(args.ranks)
        _check_ceiling(ranks[-1], DEFAULT_ENUMERATE_LIMIT)
    except ValueError as exc:  # RankLimitError is one
        return failure(exc)
    flags = ["--nonzero"] * args.nonzero + ["--canonical"] * args.canonical

    outdir = Path(args.outdir)
    for n in ranks:
        t0 = time.perf_counter()
        path = outdir / f"rank{n:02d}.jsonl"
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            handle = path.open("w", encoding="utf-8")
        except OSError as exc:  # a file in the way, or no permission
            return failure(exc)
        with handle, contextlib.redirect_stdout(handle):
            code = rotavg(["enumerate", "-n", str(n), *flags])
        if code:
            path.unlink()
            return code
        print(f"rank {n}: -> {path} ({time.perf_counter()-t0:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
