"""Write enumerate_sha256.json: SHA-256 of `rotavg enumerate` stdout per rank.

Run from the root of a checkout whose output is known to be right:

    python3 perfbench/capture_references.py

The digests gate the enumerate workload, so regenerate them only when a
change is meant to alter enumerate's stdout.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import _import_rotavg  # noqa: E402
from workloads import run_cli  # noqa: E402

TOP = 12


def main() -> int:
    rv = _import_rotavg()
    digests = {}
    for k in range(TOP + 1):
        for key, extra in ((f"json-{k}", []), (f"csv-{k}", ["--canonical", "--format", "csv"])):
            _, code, sink = run_cli(rv, ["enumerate", "-n", str(k), "--threads", "1"] + extra)
            if code != 0:
                raise SystemExit(f"enumerate failed for {key}")
            digests[key] = sink.digest()
    path = HERE / "enumerate_sha256.json"
    path.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
