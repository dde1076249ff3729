#!/usr/bin/env python3
"""Run the full cross-check battery and write one JSON report.

Runs ``rotavg verify --suite all -n 0..M``, then ``--suite props -n M+1..P``
when P > M.  The report is {"pass": bool, "runs": [<rotavg verify report>,
...]}; the exit code is the highest of the runs: 0 pass, 1 a check failed,
2 a bad rank range, 3 a rank above verify's ceiling (13) or an
--mc-samples above its sample ceiling (10^8).  An integer flag
takes ASCII digits with an optional minus sign, as rotavg's own do; any
other value, or an --out that cannot be opened for writing, exits 2
before any run, with no report, and a flag with more digits than the
interpreter's int-string limit exits 3 the same way.

Usage:
    python scripts/run_verification.py [--max-rank 8] [--props-max-rank 13]
        [--mc-samples N] [--seed S] [--out report.json]
"""

import argparse
import contextlib
import io
import json
import sys

from rotavg.cli import EXIT_LIMIT, EXIT_PARSE, _check_digit_limits, failure, integer, main as rotavg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rank", type=integer, default=8,
                        help="top rank for every suite (default 8)")
    parser.add_argument("--props-max-rank", type=integer, default=13,
                        help="top rank for the vanishing-rule sweeps (default 13)")
    parser.add_argument("--mc-samples", type=integer, help="default: rotavg verify's")
    parser.add_argument("--seed", type=integer, help="default: rotavg verify's")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    args = parser.parse_args()
    try:  # before the battery runs, not after
        _check_digit_limits(args)
        out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    except (ValueError, OSError) as exc:  # a flag past the int-string limit, or an --out that cannot be written
        return failure(exc)

    mc = [f"--{name}={value}" for name, value in
          (("mc-samples", args.mc_samples), ("seed", args.seed)) if value is not None]
    commands = [["verify", "--suite", "all", "-n", f"0..{args.max_rank}", *mc]]
    if args.props_max_rank > args.max_rank:
        props = f"{args.max_rank + 1}..{args.props_max_rank}"
        commands.append(["verify", "--suite", "props", "-n", props])

    with out as handle:
        runs, worst = [], 0
        for argv in commands:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                code = rotavg(argv)
            worst = max(worst, code)
            if code in (EXIT_PARSE, EXIT_LIMIT):
                break
            runs.append(json.loads(sink.getvalue()))
        report = {"pass": worst == 0, "runs": runs}
        print(json.dumps(report, indent=2), file=handle)
    if args.out:
        print(f"wrote {args.out} (pass={report['pass']})")
    return worst


if __name__ == "__main__":
    sys.exit(main())
