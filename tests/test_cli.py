import csv
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rotavg
from rotavg import PowerMatrix, ValueCache, canonicalize, determinant, parse_rational, rank_table
from rotavg.cli import (
    DEFAULT_ENUMERATE_LIMIT,
    EXIT_BROKEN_PIPE,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
    main,
)
from rotavg.propositions import canonical_representatives


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    return json.loads(out)


class TestCompute:
    def test_identity_permutation(self, capsys):
        record = run_json(capsys, "compute", "--chi", "[[1,0,0],[0,1,0],[0,0,1]]")
        assert record["value"] == "1/6"
        assert record["rank"] == 3
        assert record["det"] == 1
        assert record["selection_rule"] is True

    def test_indices_form_matches_chi_form(self, capsys):
        by_chi = run_json(capsys, "compute", "--chi", "[[1,0,0],[0,1,0],[0,0,1]]")
        by_idx = run_json(capsys, "compute", "--indices", "11,22,33")
        assert by_idx == by_chi

    def test_indices_tolerate_whitespace(self, capsys):
        record = run_json(capsys, "compute", "--indices", " 11 , 2 2,33 ")
        assert record["value"] == "1/6"

    def test_selection_rule_zero_reports_reason(self, capsys):
        record = run_json(capsys, "compute", "--chi", "[[1,1,0],[0,0,0],[0,0,0]]")
        assert record["value"] == "0"
        assert record["zero_reason"] == "selection rule"

    def test_malformed_chi(self, capsys):
        code, _ = run_cli(capsys, "compute", "--chi", "[[1,0")
        assert code == EXIT_PARSE

    def test_negative_entries_rejected(self, capsys):
        code, _ = run_cli(capsys, "compute", "--chi", "[[-1,0,0],[0,1,0],[0,0,1]]")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "chi", ["[[1.7,0,0],[0,true,0],[0,0,1]]", '[[1,0,0],[0,"1",0],[0,0,1]]', "[1,0,0]"]
    )
    def test_non_integer_entries_rejected(self, capsys, chi):
        # 1.7 and true once read as the identity matrix
        code, out = run_cli(capsys, "compute", "--chi", chi)
        assert code == EXIT_PARSE
        assert out == ""

    def test_index_digits_validated(self, capsys):
        code, _ = run_cli(capsys, "compute", "--indices", "14,22,33")
        assert code == EXIT_PARSE

    def test_cache_limit_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("ROTAVG_CACHE_LIMIT", "0")
        record = run_json(capsys, "compute", "--chi", "[[0,0,0],[0,0,2],[0,2,0]]")
        assert record["value"] == "2/15"
        monkeypatch.setenv("ROTAVG_CACHE_LIMIT", "bogus")
        code, _ = run_cli(capsys, "compute", "--chi", "[[0,0,0],[0,0,2],[0,2,0]]")
        assert code == EXIT_PARSE

    def test_rank_limit(self, capsys):
        # rank 162 once went to the closed form: compute had no ceiling
        code, out = run_cli(capsys, "compute", "--chi", "[[40,40,0],[40,40,0],[0,0,2]]")
        assert code == EXIT_LIMIT
        assert out == ""
        code, _ = run_cli(capsys, "compute", "--indices", "11,22,33", "--max-rank", "2")
        assert code == EXIT_LIMIT
        record = run_json(capsys, "compute", "--chi", "[[0,0,0],[0,0,0],[0,0,120]]")
        assert record["value"] == "1/121"


class TestEnumerate:
    def test_rank0_single_record(self, capsys):
        code, out = run_cli(capsys, "enumerate", "-n", "0")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 1
        assert records[0]["value"] == "1"

    def test_rank2_nonzero_table(self, capsys):
        code, out = run_cli(capsys, "enumerate", "-n", "2", "--nonzero")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 9
        assert {r["value"] for r in records} == {"1/3"}

    def test_rank3_canonical_table_follows_determinant(self, capsys):
        code, out = run_cli(capsys, "enumerate", "-n", "3", "--canonical")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == len(canonical_representatives(3))
        for record in records:
            chi = PowerMatrix.from_rows(record["chi"])
            assert canonicalize(chi).representative == chi
            assert parse_rational(record["value"]) == Fraction(determinant(chi), 6)

    def test_csv_and_json_carry_identical_data(self, capsys):
        _, json_out = run_cli(capsys, "enumerate", "-n", "2")
        _, csv_out = run_cli(capsys, "enumerate", "-n", "2", "--format", "csv")
        json_rows = [
            (
                tuple(e for row in r["chi"] for e in row),
                r["rank"],
                r["value"],
                repr(r["value_float"]),
            )
            for r in map(json.loads, json_out.splitlines())
        ]
        csv_rows = [
            (tuple(int(x) for x in row[:9]), int(row[9]), row[10], row[11])
            for row in list(csv.reader(io.StringIO(csv_out)))[1:]
        ]
        assert json_rows == csv_rows

    def test_round_trip_through_compute(self, capsys):
        _, out = run_cli(capsys, "enumerate", "-n", "3")
        for line in out.splitlines():
            record = json.loads(line)
            back = run_json(capsys, "compute", "--chi", json.dumps(record["chi"]))
            assert back["value"] == record["value"]

    def test_thread_count_is_invisible_in_output(self, capsys):
        _, single = run_cli(capsys, "enumerate", "-n", "4", "--threads", "1")
        _, pooled = run_cli(capsys, "enumerate", "-n", "4", "--threads", "4")
        assert single == pooled

    def test_rank_over_limit(self, capsys):
        code, _ = run_cli(capsys, "enumerate", "-n", "9", "--max-rank", "8")
        assert code == EXIT_LIMIT

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("canonical", [False, True])
    @pytest.mark.parametrize("nonzero", [False, True])
    def test_output_matches_row_by_row_rendering(self, capsys, fmt, canonical, nonzero):
        flags = ["--canonical"] * canonical + ["--nonzero"] * nonzero
        for n in range(10):
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            if fmt == "csv":
                writer.writerow(["Q", "R", "S", "T", "U", "V", "W", "X", "Y", "rank", "value", "value_float"])
            for chi, value in rank_table(n, ValueCache(), nonzero=nonzero, canonical_only=canonical):
                if fmt == "csv":
                    writer.writerow(list(chi.flat) + [n, str(value), repr(float(value))])
                else:
                    record = {"chi": chi.to_lists(), "rank": n, "value": str(value), "value_float": float(value)}
                    expected.write(json.dumps(record) + "\n")
            code, out = run_cli(capsys, "enumerate", "-n", str(n), "--format", fmt, *flags)
            assert code == EXIT_OK
            assert out == expected.getvalue()


def write_tensor(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestAverage:
    def test_rank2_identity_returns_itself(self, capsys, tmp_path):
        path = write_tensor(
            tmp_path,
            "id.json",
            {
                "rank": 2,
                "mode": "exact",
                "components": [
                    {"idx": [1, 1], "value": "1"},
                    {"idx": [2, 2], "value": "1"},
                    {"idx": [3, 3], "value": "1"},
                ],
            },
        )
        out = run_json(capsys, "average", path, "--nonzero-only")
        assert out["components"] == [
            {"idx": [1, 1], "value": "1"},
            {"idx": [2, 2], "value": "1"},
            {"idx": [3, 3], "value": "1"},
        ]

    def test_rank1_vector_averages_to_zero(self, capsys, tmp_path):
        path = write_tensor(
            tmp_path,
            "vec.json",
            {
                "rank": 1,
                "mode": "exact",
                "components": [{"idx": [1], "value": "5"}, {"idx": [3], "value": "-1/2"}],
            },
        )
        out = run_json(capsys, "average", path)
        assert {r["value"] for r in out["components"]} == {"0"}
        assert len(out["components"]) == 3

    def test_rank3_levi_civita_float(self, capsys, tmp_path):
        eps = []
        for idx, sign in [
            ([1, 2, 3], 1), ([2, 3, 1], 1), ([3, 1, 2], 1),
            ([1, 3, 2], -1), ([2, 1, 3], -1), ([3, 2, 1], -1),
        ]:
            eps.append({"idx": idx, "value": float(sign)})
        path = write_tensor(
            tmp_path, "eps.json", {"rank": 3, "mode": "float", "components": eps}
        )
        out = run_json(capsys, "average", path, "--nonzero-only")
        got = {tuple(r["idx"]): r["value"] for r in out["components"]}
        expected = {tuple(r["idx"]): r["value"] for r in eps}
        assert set(got) == set(expected)
        for idx, value in expected.items():
            assert got[idx] == pytest.approx(value, abs=1e-12)

    def test_output_file(self, capsys, tmp_path):
        path = write_tensor(
            tmp_path,
            "s.json",
            {"rank": 0, "mode": "exact", "components": [{"idx": [], "value": "3/4"}]},
        )
        dest = tmp_path / "out.json"
        code, _ = run_cli(capsys, "average", path, "--out", str(dest))
        assert code == EXIT_OK
        assert json.loads(dest.read_text())["components"] == [{"idx": [], "value": "3/4"}]

    def test_duplicate_component_is_a_parse_error(self, capsys, tmp_path):
        path = write_tensor(
            tmp_path,
            "dup.json",
            {
                "rank": 1,
                "mode": "exact",
                "components": [{"idx": [1], "value": "1"}, {"idx": [1], "value": "2"}],
            },
        )
        code, _ = run_cli(capsys, "average", path)
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "obj",
        [
            # a fractional rank was once read as rank 2
            {"rank": 2.9, "mode": "exact", "components": [{"idx": [1, 1], "value": "1"}]},
            {"rank": True, "mode": "exact", "components": [{"idx": [1], "value": "1"}]},
            # ["1", 1.5] once became (1, 1) and overwrote the real (1, 1) entry
            {
                "rank": 2,
                "mode": "exact",
                "components": [{"idx": [1, 1], "value": "1"}, {"idx": ["1", 1.5], "value": "5"}],
            },
            {"rank": 1, "mode": "exact", "components": [{"idx": 1, "value": "1"}]},
        ],
    )
    def test_non_integer_rank_or_index_is_a_parse_error(self, capsys, tmp_path, obj):
        code, out = run_cli(capsys, "average", write_tensor(tmp_path, "bad.json", obj))
        assert code == EXIT_PARSE
        assert out == ""

    def test_unreadable_file_is_a_parse_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "average", str(tmp_path / "missing.json"))
        assert code == EXIT_PARSE

    def test_rank_limit_exit_code(self, capsys, tmp_path):
        path = write_tensor(
            tmp_path,
            "r3.json",
            {"rank": 3, "mode": "exact", "components": [{"idx": [1, 2, 3], "value": "1"}]},
        )
        code, _ = run_cli(capsys, "average", path, "--max-rank", "2")
        assert code == EXIT_LIMIT

    def test_default_rank_ceiling_is_the_library_default(self):
        parser = build_parser()
        assert parser.parse_args(["average", "t.json"]).max_rank == rotavg.tensors.DEFAULT_MAX_RANK


def seeded_dense_tensor(rank, mode, seed):
    rng = random.Random(seed)
    components = []
    for idx in itertools.product((1, 2, 3), repeat=rank):
        if mode == "exact":
            value = f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
        else:
            value = rng.uniform(-1.0, 1.0)
        components.append({"idx": list(idx), "value": value})
    return {"rank": rank, "mode": mode, "components": components}


# SHA-256 of `rotavg average` stdout, captured before the pair-code kernel
# replaced the per-lab loop; the kernel must reproduce it byte for byte
AVERAGE_STDOUT_SHA256 = {
    (6, "exact", False): "bea20a39199a06a57fa67c081bf292bc6e58e60e8d5383feb2de03e67af45a71",
    (6, "exact", True): "f328946cbeea8658199322a97fcebc0d647cafd074ab66e214b677d8af984e6b",
    (7, "float", False): "4f4b32e2a9a1f6d151dbf54687c6a794979dfdc178c8f3e65df2dbd59124b108",
    (7, "float", True): "d34845b642b538c36dd9be42b7ea5631815cbcd5e2476e80df5b1458b17557b6",
}


class TestAverageGolden:
    @pytest.mark.parametrize("rank,mode,nonzero_only", sorted(AVERAGE_STDOUT_SHA256))
    def test_stdout_digest(self, capsys, tmp_path, rank, mode, nonzero_only):
        path = write_tensor(tmp_path, "t.json", seeded_dense_tensor(rank, mode, seed=rank))
        code, out = run_cli(capsys, "average", path, *(["--nonzero-only"] if nonzero_only else []))
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == AVERAGE_STDOUT_SHA256[rank, mode, nonzero_only]


class TestVerify:
    def test_beta_suite_passes(self, capsys):
        report = run_json(capsys, "verify", "--suite", "beta", "-n", "0..4")
        assert report["pass"] is True
        assert report["suites"]["beta"]["checked"] > 0

    def test_oracle_suite_passes(self, capsys):
        report = run_json(capsys, "verify", "--suite", "oracle", "-n", "0..4")
        assert report["pass"] is True
        assert report["suites"]["oracle"]["max_abs_delta"] <= 1e-10

    def test_props_suite_reports_rank8_exception_as_expected(self, capsys):
        report = run_json(capsys, "verify", "--suite", "props", "-n", "8")
        entry = report["suites"]["props"]["ranks"][0]
        assert report["pass"] is True
        assert entry["violations"] == entry["expected_violations"]
        assert entry["violations"] == [[[0, 0, 0], [1, 1, 2], [1, 1, 2]]]

    def test_mc_suite_passes_with_small_samples(self, capsys):
        report = run_json(
            capsys, "verify", "--suite", "mc", "-n", "0..2", "--mc-samples", "50000"
        )
        assert report["suites"]["mc"]["battery_size"] == 20
        assert report["pass"] is True

    def test_bad_rank_range(self, capsys):
        code, _ = run_cli(capsys, "verify", "--suite", "beta", "-n", "oops")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("ranks", [str(DEFAULT_ENUMERATE_LIMIT + 1), "0..40"])
    def test_rank_ceiling(self, capsys, ranks):
        # every suite walks all binom(n+8, 8) flats per rank; rank 40 alone has 3.8e8
        code = main(["verify", "-n", ranks])
        captured = capsys.readouterr()
        assert code == EXIT_LIMIT
        assert captured.out == ""
        assert "ceiling" in captured.err

    def test_props_suite_runs_at_the_ceiling(self, capsys):
        report = run_json(capsys, "verify", "--suite", "props", "-n", str(DEFAULT_ENUMERATE_LIMIT))
        assert report["pass"] is True

    def test_one_mc_sample_is_a_parse_error(self, capsys):
        # one sample has no standard error; it once read as a violation (exit 1)
        code = main(["verify", "--suite", "mc", "-n", "2", "--mc-samples", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert "two samples" in captured.err


class ClosedPipe(io.TextIOBase):
    def writable(self):
        return True

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    def test_in_process(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["enumerate", "-n", "3"]) == EXIT_BROKEN_PIPE
        monkeypatch.undo()
        assert capsys.readouterr().err == ""

    def test_reader_closes_the_pipe(self, tmp_path):
        # like `rotavg enumerate -n 12 | head -1`, which once ended in a traceback
        src = str(Path(rotavg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        with open(tmp_path / "stderr", "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "rotavg", "enumerate", "-n", "12"],
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=env,
            )
            assert proc.stdout.readline().startswith(b'{"chi"')
            proc.stdout.close()
            assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert (tmp_path / "stderr").read_bytes() == b""
