#!/usr/bin/env python3
"""Run the full cross-check battery and write one JSON report.

Runs ``rotavg verify --suite all -n 0..M``, then ``--suite props -n M+1..P``
when P > M.  The report is {"pass": bool, "runs": [<rotavg verify report>,
...]}; the exit code is the highest of the runs: 0 pass, 1 a check failed,
2 a bad rank range, 3 a rank above verify's ceiling (13).

Usage:
    python scripts/run_verification.py [--max-rank 8] [--props-max-rank 13]
        [--mc-samples N] [--seed S] [--out report.json]
"""

import argparse
import contextlib
import io
import json
import sys

from rotavg.cli import EXIT_LIMIT, EXIT_PARSE, main as rotavg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rank", type=int, default=8,
                        help="top rank for every suite (default 8)")
    parser.add_argument("--props-max-rank", type=int, default=13,
                        help="top rank for the vanishing-rule sweeps (default 13)")
    parser.add_argument("--mc-samples", type=int, help="default: rotavg verify's")
    parser.add_argument("--seed", type=int, help="default: rotavg verify's")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    args = parser.parse_args()

    mc = [f"--{name}={value}" for name, value in
          (("mc-samples", args.mc_samples), ("seed", args.seed)) if value is not None]
    commands = [["verify", "--suite", "all", "-n", f"0..{args.max_rank}", *mc]]
    if args.props_max_rank > args.max_rank:
        props = f"{args.max_rank + 1}..{args.props_max_rank}"
        commands.append(["verify", "--suite", "props", "-n", props])

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

    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out} (pass={report['pass']})")
    else:
        print(payload)
    return worst


if __name__ == "__main__":
    sys.exit(main())
