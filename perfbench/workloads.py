"""The four benchmark workloads: input generation, one timed round, output checks.

Every workload drives rotavg through its public entry points only:
``rotavg.cli.main([...])`` with stdout sent to a hashing sink, or
``rotavg.evaluate`` as a library call.  A round is the workload's fixed work
and starts from fresh caches, so every round does the same work.  A round
returns, per item, its wall time; per operation (op), its wall time and
output; each is a list, as a round may repeat an item.  Checks run after
timing has stopped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from tracing import closed_form_term_count

HERE = Path(__file__).resolve().parent


class HashSink(io.TextIOBase):
    """Write-only text stream that hashes and counts what it receives."""

    def __init__(self, keep: bool = False):
        self._hash = hashlib.sha256()
        self._kept = [] if keep else None
        self.bytes_out = 0

    def writable(self):
        return True

    def write(self, text):
        data = text.encode("utf-8")
        self._hash.update(data)
        self.bytes_out += len(data)
        if self._kept is not None:
            self._kept.append(text)
        return len(text)

    def digest(self) -> str:
        return self._hash.hexdigest()

    def text(self) -> str:
        return "".join(self._kept)


def run_cli(rv, argv, keep=False):
    """Call rotavg's CLI in-process; return (seconds, exit code, sink)."""
    sink = HashSink(keep)
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = rv.cli.main(argv)
    return time.perf_counter() - start, code, sink


class Workload:
    """Interface: generate() is set-up, run_round() is timed, check() is not."""

    name = ""

    def __init__(self, rv, seed: int, tiny: bool, workdir: Path):
        self.rv = rv
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.rng = random.Random(seed)

    def generate(self) -> None:
        raise NotImplementedError

    def run_round(self, deadline=None):
        """Return (item_seconds, op_seconds, op_outputs, bytes_out); values are lists.

        With a deadline (a time.perf_counter() value) a round may leave out
        items that would run more than half their usual time past it.
        """
        raise NotImplementedError

    def check(self, rounds, corrupt: bool = False) -> tuple[int, int]:
        """Return (ops attempted, ops failed) over all rounds' outputs."""
        raise NotImplementedError


class CliWorkload(Workload):
    """Workloads whose items and ops are CLI calls.

    generate() sets ``plan``, a list of (key, argv, repeats); a round makes
    each call `repeats` times, in seeded order.  Outputs are kept as digests,
    and as stdout text in the first `text_rounds` rounds (all if None) for
    checks that parse it.
    """

    text_rounds = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.rounds_run = 0
        self._usual = {}  # key -> seconds its calls took in their last round

    def run_round(self, deadline=None):
        plan = list(self.plan)
        self.rng.shuffle(plan)
        keep = self.text_rounds is None or self.rounds_run < self.text_rounds
        self.rounds_run += 1
        seconds, outputs, bytes_out = {}, {}, 0
        for key, argv, repeats in plan:
            if deadline is not None and time.perf_counter() + self._usual.get(key, 0.0) / 2 > deadline:
                continue
            seconds[key], outputs[key] = [], []
            for _ in range(repeats):
                elapsed, code, sink = run_cli(self.rv, argv, keep=keep)
                seconds[key].append(elapsed)
                outputs[key].append((code, sink.digest(), sink.text() if keep else None))
                bytes_out += sink.bytes_out
            self._usual[key] = sum(seconds[key])
        return seconds, seconds, outputs, bytes_out


class Enumerate(CliWorkload):
    """`rotavg enumerate` at every rank 0..12 in JSON, then rank 11 canonical CSV."""

    name = "enumerate"

    def generate(self):
        top = 5 if self.tiny else 12
        calls = [(f"json-{k}", k, []) for k in range(top + 1)]
        calls.append((f"csv-{top - 1}", top - 1, ["--canonical", "--format", "csv"]))
        # calls below rank 8 take well under a second; repeating them gives
        # their medians enough samples without adding much time
        self.plan = [
            (key, ["enumerate", "-n", str(k), "--threads", "1"] + extra, min(16, 2 ** max(0, 8 - k)))
            for key, k, extra in calls
        ]
        with open(HERE / "enumerate_sha256.json", encoding="utf-8") as handle:
            self.reference = json.load(handle)

    def check(self, rounds, corrupt=False):
        attempted = failed = 0
        for _, _, outputs, _ in rounds:
            for key, results in outputs.items():
                for code, digest, _ in results:
                    if corrupt and attempted == 0:
                        digest = "0" * 64
                    attempted += 1
                    failed += code != 0 or digest != self.reference.get(key)
        return attempted, failed


def _exact_literal(rng) -> str:
    return f"{rng.choice([-1, 1]) * rng.randint(1, 9)}/{rng.randint(1, 9)}"


class Tensor(CliWorkload):
    """`rotavg average` on seeded dense exact, dense float and sparse exact tensors."""

    name = "tensor"
    text_rounds = 1
    SAMPLE_LABS = 4

    def generate(self):
        ranks = (3, 3, 4) if self.tiny else (6, 7, 8)
        sparse_size = 6 if self.tiny else 36
        rng = self.rng
        specs = {
            "dense-exact": (ranks[0], "exact", None),
            "dense-float": (ranks[1], "float", None),
            "sparse-exact": (ranks[2], "exact", sparse_size),
        }
        self.inputs, self.plan = {}, []
        for key, (rank, mode, size) in specs.items():
            if size is None:
                indices = list(itertools.product((1, 2, 3), repeat=rank))
            else:
                # only molecular tuples whose axis counts share the rank's
                # parity can pair to a nonzero average, so a fixed third of
                # them keeps the work the same for every seed
                want = {True: size // 3, False: size - size // 3}
                picked = set()
                while len(picked) < size:
                    idx = tuple(rng.randint(1, 3) for _ in range(rank))
                    kind = all(idx.count(axis) % 2 == rank % 2 for axis in (1, 2, 3))
                    if idx not in picked and want[kind]:
                        want[kind] -= 1
                        picked.add(idx)
                indices = sorted(picked)
            components = [
                {"idx": list(idx), "value": _exact_literal(rng) if mode == "exact" else rng.uniform(-1.0, 1.0)}
                for idx in indices
            ]
            obj = {"rank": rank, "mode": mode, "components": components}
            path = self.workdir / f"{key}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            self.inputs[key] = obj
            self.plan.append((key, ["average", str(path)], 1))

    def _independent(self, obj, lab):
        """One lab component by the closed form on every (lab, mol) matrix; no evaluate."""
        rv = self.rv
        exact = obj["mode"] == "exact"
        weights = {}
        total = Fraction(0) if exact else 0.0
        for record in obj["components"]:
            flat = [0] * 9
            for i, m in zip(lab, record["idx"]):
                flat[3 * (i - 1) + (m - 1)] += 1
            flat = tuple(flat)
            if flat not in weights:
                chi = rv.PowerMatrix.from_flat(flat)
                weights[flat] = rv.closed_form(chi) if rv.selection_rule(chi) else Fraction(0)
            if exact:
                total += weights[flat] * Fraction(record["value"])
            else:
                total += float(weights[flat]) * record["value"]
        return total

    def _sample_labs(self, key, rank, labs):
        """Seeded lab tuples: most pass the parity rule (nonzero possible), one fails it."""
        rng = random.Random(f"{self.seed}-{key}")
        passing, failing = [], []
        for lab in labs:
            parity_ok = all(lab.count(i) % 2 == rank % 2 for i in (1, 2, 3))
            (passing if parity_ok else failing).append(lab)
        picked = rng.sample(passing, min(self.SAMPLE_LABS - 1, len(passing)))
        return picked + rng.sample(failing, min(1, len(failing)))

    def _component_ok(self, obj, out_values, lab, corrupt):
        got = out_values.get(lab)
        if got is None:
            return False
        expected = self._independent(obj, lab)
        if obj["mode"] == "exact":
            got = self.rv.parse_rational(got)
            if corrupt:
                got += 1
            return got == expected
        if corrupt:
            got += 1.0
        scale = sum(abs(r["value"]) for r in obj["components"])
        return math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12 * scale)

    def check(self, rounds, corrupt=False):
        attempted = failed = 0
        first = rounds[0][2]
        for key, obj in self.inputs.items():
            code, digest, text = first[key][0]
            try:
                values = {tuple(r["idx"]): r["value"] for r in json.loads(text)["components"]}
            except (ValueError, KeyError, TypeError):
                values = None
            good = code == 0 and values is not None
            if good:
                labs = self._sample_labs(key, obj["rank"], sorted(values))
                for n, lab in enumerate(labs):
                    if not self._component_ok(obj, values, lab, corrupt and key == "dense-exact" and n == 0):
                        good = False
            for _, _, outputs, _ in rounds:
                for result in outputs.get(key, []):
                    attempted += 1
                    failed += not good or result[1] != digest
        return attempted, failed


class HighRank(Workload):
    """`evaluate` on a seeded stream of rank 40-120 orbits, each queried cold then as images."""

    name = "highrank"
    IMAGES = 3  # one cold query and three cache hits per orbit per round
    BETA_SAMPLE = 3

    CANDIDATES = 12  # valid random matrices drawn per slot; the one nearest the target work is kept

    @staticmethod
    def target_terms(n: int) -> float:
        # typical closed-form summand count of a random selection-passing
        # rank-n orbit representative; picking each slot's matrix nearest it
        # keeps the work per slot, and so the round time, nearly independent
        # of the seed, and a fixed number of draws does the same for set-up
        return max(4.0, 0.3 * (n / 9) ** 4)

    def generate(self):
        rv, rng = self.rv, self.rng
        slots, lo, hi = (6, 12, 20) if self.tiny else (64, 40, 120)
        canonical = rv.power_matrix.canonical_flat
        self.orbits = []  # (PowerMatrix, rank)
        for i in range(slots):
            n = lo + (hi - lo) * i // (slots - 1)
            target = self.target_terms(n)
            best, found = None, 0
            while found < self.CANDIDATES:
                cells = rng.choices(range(9), k=n)
                chi = rv.PowerMatrix.from_flat([cells.count(j) for j in range(9)])
                if not rv.selection_rule(chi):
                    continue
                rep, sign = canonical(chi.flat)
                if sign == 0:
                    continue
                found += 1
                gap = abs(closed_form_term_count(rep) - target)
                if best is None or gap < best[0]:
                    best = (gap, chi)
            self.orbits.append((best[1], n))
        self.queries = []  # (orbit index, matrix, value sign relative to the orbit's matrix)
        for k, (chi, n) in enumerate(self.orbits):
            self.queries.append((k, chi, 1))
            for op in rng.sample(rv.ALL_OPS, self.IMAGES):
                self.queries.append((k, rv.apply_symmetry(chi, op), op.sign if n % 2 else 1))
        rng.shuffle(self.queries)

    def run_round(self, deadline=None):
        evaluate = self.rv.evaluate
        cache = self.rv.ValueCache()
        seconds, outputs = {}, {}
        clock = time.perf_counter
        start = clock()
        for q, (_, chi, _) in enumerate(self.queries):
            t0 = clock()
            outputs[q] = [evaluate(chi, cache)]
            seconds[q] = [clock() - t0]
        return {"stream": [clock() - start]}, seconds, outputs, 0

    def check(self, rounds, corrupt=False):
        first = rounds[0][2]
        # the query that carries each orbit's own matrix (not an image)
        base = {k: first[q][0] for q, (k, chi, _) in enumerate(self.queries) if chi is self.orbits[k][0]}
        bad_orbits = set()
        rng = random.Random(f"{self.seed}-beta")
        for k in rng.sample(range(len(self.orbits)), min(self.BETA_SAMPLE, len(self.orbits))):
            result = self.rv.beta_path(self.orbits[k][0])
            value = base[k] + (1 if corrupt and not bad_orbits else 0)
            if result.pi_power != 0 or result.coefficient != value:
                bad_orbits.add(k)
        attempted = failed = 0
        for _, _, outputs, _ in rounds:
            for q, (k, _, rel) in enumerate(self.queries):
                attempted += 1
                failed += k in bad_orbits or outputs[q][0] != rel * base[k]
        return attempted, failed


class Verify(CliWorkload):
    """`rotavg verify --suite all -n 0..8` with the run seed driving Monte Carlo."""

    name = "verify"
    text_rounds = None

    def generate(self):
        argv = ["verify", "--suite", "all", "--threads", "1", "--seed", str(self.seed)]
        # the full run keeps the CLI's default of one million Monte Carlo samples
        argv += ["-n", "0..3", "--mc-samples", "2000"] if self.tiny else ["-n", "0..8"]
        self.plan = [("verify", argv, 1)]

    def check(self, rounds, corrupt=False):
        attempted = failed = 0
        for _, _, outputs, _ in rounds:
            for code, _, text in outputs.get("verify", []):
                try:
                    passed = json.loads(text)["pass"] is True
                except (ValueError, KeyError, TypeError):
                    passed = False
                if corrupt and attempted == 0:
                    passed = False
                attempted += 1
                failed += code != 0 or not passed
        return attempted, failed


WORKLOADS = {cls.name: cls for cls in (Enumerate, Tensor, HighRank, Verify)}
