import collections
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rotavg
from rotavg import DenseTensor, PowerMatrix, ValueCache, canonicalize, determinant, parse_rational, rank_table
from rotavg.cli import (
    DEFAULT_ENUMERATE_LIMIT,
    DEFAULT_MC_SAMPLES_LIMIT,
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
        # JSON nested this deep once ended in a RecursionError traceback and exit 1
        code, out = run_cli(capsys, "compute", "--chi", "[" * 2000 + "]" * 2000)
        assert code == EXIT_PARSE
        assert out == ""

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

    def test_rank_limit(self, capsys):
        # rank 162 once went to the closed form: compute had no ceiling
        code, out = run_cli(capsys, "compute", "--chi", "[[40,40,0],[40,40,0],[0,0,2]]")
        assert code == EXIT_LIMIT
        assert out == ""
        code, _ = run_cli(capsys, "compute", "--indices", "11,22,33", "--max-rank", "2")
        assert code == EXIT_LIMIT
        record = run_json(capsys, "compute", "--chi", "[[0,0,0],[0,0,0],[0,0,120]]")
        assert record["value"] == "1/121"

    def test_a_rank_past_the_int_string_limit_is_a_limit(self, capsys, digit_limit):
        # each entry reads, but the rank has one digit more; the ceiling's
        # message once failed to render it and the command exited 2
        big = "9" * digit_limit
        code = main(["compute", "--chi", f"[[{big},0,0],[0,{big},0],[0,0,0]]"])
        captured = capsys.readouterr()
        assert code == EXIT_LIMIT
        assert captured.out == ""
        assert captured.err == (
            "error: the rank, above the ceiling 120, exceeds the interpreter's limit of 4300 digits "
            "for integer string conversion\n"
        )

    def test_a_json_integer_past_the_int_string_limit_is_a_limit(self, capsys, digit_limit):
        # json.loads once raised the interpreter's own ValueError: exit 2
        code = main(["compute", "--chi", f"[[{'1' * 5000},0,0],[0,0,0],[0,0,0]]"])
        captured = capsys.readouterr()
        assert code == EXIT_LIMIT
        assert captured.out == ""
        assert captured.err == (
            "error: an integer of 5000 digits exceeds the interpreter's limit of 4300 digits "
            "for integer string conversion\n"
        )


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

    def test_main_builds_its_parser_once(self, capsys):
        for rank in ("0", "1"):
            assert run_cli(capsys, "enumerate", "-n", rank)[0] == EXIT_OK
        assert rotavg.cli._shared_parser.cache_info().misses == 1
        assert build_parser() is not build_parser()

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


def seeded_sparse_tensor(rank, size, seed):
    """size distinct exact components at seeded index tuples."""
    rng = random.Random(seed)
    indices = sorted(rng.sample(list(itertools.product((1, 2, 3), repeat=rank)), size))
    components = [{"idx": list(idx), "value": f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"} for idx in indices]
    return {"rank": rank, "mode": "exact", "components": components}


def seeded_wide_float_tensor(rank, size, seed):
    """size distinct float components at seeded index tuples, valued near both ends of the float range."""
    rng = random.Random(seed)
    pool = [1e300, -1e300, 3.7e299, 5e-324, -5e-324, 2.5e-310, 0.1, -7.25]
    indices = rng.sample(list(itertools.product((1, 2, 3), repeat=rank)), size)
    components = [{"idx": list(idx), "value": rng.choice(pool)} for idx in indices]
    return {"rank": rank, "mode": "float", "components": components}


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

    @pytest.mark.parametrize("nonzero_only", [False, True])
    @pytest.mark.parametrize("obj", [seeded_sparse_tensor(5, 60, seed=3), seeded_dense_tensor(4, "float", seed=4)])
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, obj, nonzero_only):
        path = write_tensor(tmp_path, "t.json", obj)
        flags = ["--nonzero-only"] if nonzero_only else []
        code, out = run_cli(capsys, "average", path, *flags)
        assert code == EXIT_OK
        dest = tmp_path / "out.json"
        assert run_cli(capsys, "average", path, "--out", str(dest), *flags) == (EXIT_OK, "")
        assert dest.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize(
        "text",
        [
            # the second rank once won: this averaged a rank-3 tensor
            '{"rank": 2, "mode": "exact", "rank": 3, "components": [{"idx": [1, 2, 3], "value": "1"}]}',
            '{"rank": 1, "mode": "exact", "components": [{"idx": [1], "value": "1", "value": "2"}]}',
        ],
        ids=["top-level", "in-record"],
    )
    def test_duplicate_json_key_is_a_parse_error(self, capsys, tmp_path, text):
        path = tmp_path / "dup.json"
        path.write_text(text, encoding="utf-8")
        code, err = run_failing(capsys, ["average", str(path)])
        assert code == EXIT_PARSE
        assert err.startswith("error: duplicate key")
        assert len(err.splitlines()) == 1

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

    def test_deeply_nested_json_is_a_parse_error(self, capsys, tmp_path):
        # this once ended in a RecursionError traceback and exit 1
        path = tmp_path / "deep.json"
        path.write_text(
            '{"rank": 1, "mode": "exact", "components": %s}' % ("[" * 3000 + "]" * 3000),
            encoding="utf-8",
        )
        code = main(["average", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "value", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "null"],
        ids=["NaN", "Infinity", "-Infinity", "1e400", "int-1e400", "null"],
    )
    def test_non_finite_float_value_is_a_parse_error(self, capsys, tmp_path, value):
        # NaN once exited 0 and printed "value": NaN, which is not JSON; a
        # 400-digit int and null once ended in a traceback
        path = tmp_path / "nan.json"
        path.write_text(
            '{"rank": 2, "mode": "float", "components": [{"idx": [1, 1], "value": %s}]}' % value,
            encoding="utf-8",
        )
        code = main(["average", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_float_overflow_is_a_parse_error(self, capsys, tmp_path):
        # each component is finite but their sums overflow: numpy once printed a
        # RuntimeWarning and the error blamed the input for the inf it made
        components = [{"idx": list(idx), "value": 1.7e308} for idx in itertools.product((1, 2, 3), repeat=4)]
        path = write_tensor(tmp_path, "big.json", {"rank": 4, "mode": "float", "components": components})
        code = main(["average", path])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err == "error: float overflow in the average at lab index [1, 1, 1, 1]\n"

    def test_an_average_past_the_int_string_limit_is_a_limit(self, capsys, tmp_path, digit_limit):
        # both literals read, but the average's denominator has about 8000
        # digits; it once exited 2 with the interpreter's advice, as if the
        # file were malformed
        components = [{"idx": [1, 1], "value": f"1/{10**4000 + 1}"}, {"idx": [2, 2], "value": f"1/{3 * 10**4000 + 7}"}]
        path = write_tensor(tmp_path, "long.json", {"rank": 2, "mode": "exact", "components": components})
        out = tmp_path / "out.json"
        for argv in (["average", path], ["average", path, "--nonzero-only", "--out", str(out)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == EXIT_LIMIT
            assert captured.out == ""
            assert captured.err == (
                "error: the value at index [1, 1] exceeds the interpreter's limit of 4300 digits "
                "for integer string conversion\n"
            )
        assert not out.exists()

    def test_a_literal_past_the_int_string_limit_is_a_limit(self, capsys, tmp_path, digit_limit):
        # it once exited 2 with the interpreter's advice and named no record
        components = [{"idx": [1], "value": "1/2"}, {"idx": [3], "value": "1" * 5000}]
        path = write_tensor(tmp_path, "long.json", {"rank": 1, "mode": "exact", "components": components})
        code = main(["average", path])
        captured = capsys.readouterr()
        assert code == EXIT_LIMIT
        assert captured.out == ""
        assert captured.err == (
            "error: the value at index [3] exceeds the interpreter's limit of 4300 digits for integer string conversion\n"
        )

    def test_a_json_integer_past_the_int_string_limit_is_a_limit(self, capsys, tmp_path, digit_limit):
        # json.loads once raised the interpreter's own ValueError before any
        # check ran: exit 2 with the interpreter's advice
        path = tmp_path / "long.json"
        path.write_text(
            '{"rank": 1, "mode": "exact", "components": [{"idx": [1], "value": -%s}]}' % ("1" * 5000),
            encoding="utf-8",
        )
        code = main(["average", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_LIMIT
        assert captured.out == ""
        assert captured.err == (
            "error: an integer of 5000 digits exceeds the interpreter's limit of 4300 digits "
            "for integer string conversion\n"
        )

    def test_the_first_of_a_repeated_key_and_a_long_integer_decides(self, capsys, tmp_path, digit_limit):
        # a decoded object's keys are checked when the object closes, after its values
        long_value = '{"idx": [1], "value": %s}' % ("1" * 5000)
        cases = [
            ('{"rank": 1, "mode": "exact", "components": [%s], "rank": 1}' % long_value, EXIT_LIMIT),
            ('{"rank": 1, "rank": 1, "mode": "exact", "components": [%s]}' % long_value, EXIT_LIMIT),
            ('{"rank": 1, "mode": "exact", "components": [{"idx": [1], "idx": [1]}, %s]}' % long_value, EXIT_PARSE),
        ]
        path = tmp_path / "t.json"
        for text, expected in cases:
            path.write_text(text, encoding="utf-8")
            code = main(["average", str(path)])
            captured = capsys.readouterr()
            assert code == expected
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("rank", range(7))
    def test_averaging_an_exact_average_changes_no_byte(self, capsys, tmp_path, rank):
        # the average is isotropic, so it is its own average (float sums are not bit-idempotent)
        path = write_tensor(tmp_path, "t.json", seeded_dense_tensor(rank, "exact", seed=100 + rank))
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        assert main(["average", path, "--out", str(once)]) == EXIT_OK
        assert main(["average", str(once), "--out", str(twice)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert twice.read_bytes() == once.read_bytes()

    def test_largest_floats_average_when_no_sum_overflows(self, capsys, tmp_path):
        components = [{"idx": [i, i], "value": 1.7e308} for i in (1, 2, 3)]
        path = write_tensor(tmp_path, "diag.json", {"rank": 2, "mode": "float", "components": components})
        record = run_json(capsys, "average", path, "--nonzero-only")
        assert [c["idx"] for c in record["components"]] == [[1, 1], [2, 2], [3, 3]]
        assert all(math.isfinite(c["value"]) for c in record["components"])

    def test_unreadable_file_is_a_parse_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "average", str(tmp_path / "missing.json"))
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("dest", ["no/such/dir/out.json", "."])
    def test_unwritable_output_is_a_parse_error(self, capsys, tmp_path, dest):
        # a missing directory once ended in a traceback with exit 1, the violation code
        path = write_tensor(
            tmp_path,
            "s.json",
            {"rank": 0, "mode": "exact", "components": [{"idx": [], "value": "3/4"}]},
        )
        code = main(["average", path, "--out", str(tmp_path / dest)])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

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


# SHA-256 of `rotavg average` stdout.  The rank-6 exact and rank-7 float
# digests were captured before the pair-code kernel replaced the per-lab
# loop, the rank-8 float ones before the kernel summed whole blocks of lab
# tuples at once, the others before the exact mode evaluated one lab tuple
# per axis-relabeling orbit; every change must reproduce them byte for byte
AVERAGE_STDOUT_SHA256 = {
    (5, "exact", False): "3201faff2f67a5fcad52a72f4179c650cadc0abf36b58288abeef02f881dab88",
    (5, "exact", True): "d6bff784b292745021584c18074f3a01770f4e4a64f63445d732b3deb70d5ab5",
    (6, "exact", False): "bea20a39199a06a57fa67c081bf292bc6e58e60e8d5383feb2de03e67af45a71",
    (6, "exact", True): "f328946cbeea8658199322a97fcebc0d647cafd074ab66e214b677d8af984e6b",
    (7, "exact", False): "072dc4f1af1ddd7ec13329d042715e3873bd31a57ef119294e1dafd013e9963f",
    (7, "exact", True): "a06debdf9c6c0b3eef920203c3f7c58f468d5f0e06f7305cdf0693417b433b9f",
    (7, "float", False): "4f4b32e2a9a1f6d151dbf54687c6a794979dfdc178c8f3e65df2dbd59124b108",
    (7, "float", True): "d34845b642b538c36dd9be42b7ea5631815cbcd5e2476e80df5b1458b17557b6",
    (8, "float", False): "8e0e690da90da85f1d0b8f3b22415514cc8295d842d12ba89243f0479f731652",
    (8, "float", True): "effacf9c2c3ee3a113a641145d7cb18114fc85f78d3854d54d28de1b73098765",
}

# the same for seeded_sparse_tensor(8, 36, seed=8), keyed by nonzero_only
SPARSE_AVERAGE_STDOUT_SHA256 = {
    False: "79c28990b9d900b7dd861c7d57392e3feb9108744d5cc01fce1de96d2a1ec025",
    True: "e7e932d1db3763bc77066440d300da6d8f5de6d3a1f8a3f35ccb06305aaf67db",
}


# the same for seeded_wide_float_tensor(8, 600, seed=8), keyed by nonzero_only
WIDE_FLOAT_AVERAGE_STDOUT_SHA256 = {
    False: "8eb11f21b2871b71ee0a5c99e44e08185cb774e6695af4bc1173636e1f6b6802",
    True: "8c03524a69969e850466a8e42548508220985602cd2cdbf8632ba2ace461b60e",
}


class TestAverageGolden:
    @pytest.mark.parametrize("rank,mode,nonzero_only", sorted(AVERAGE_STDOUT_SHA256))
    def test_stdout_digest(self, capsys, tmp_path, rank, mode, nonzero_only):
        path = write_tensor(tmp_path, "t.json", seeded_dense_tensor(rank, mode, seed=rank))
        code, out = run_cli(capsys, "average", path, *(["--nonzero-only"] if nonzero_only else []))
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == AVERAGE_STDOUT_SHA256[rank, mode, nonzero_only]

    @pytest.mark.parametrize("nonzero_only", sorted(SPARSE_AVERAGE_STDOUT_SHA256))
    def test_sparse_stdout_digest(self, capsys, tmp_path, nonzero_only):
        path = write_tensor(tmp_path, "t.json", seeded_sparse_tensor(8, 36, seed=8))
        code, out = run_cli(capsys, "average", path, *(["--nonzero-only"] if nonzero_only else []))
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == SPARSE_AVERAGE_STDOUT_SHA256[nonzero_only]

    @pytest.mark.parametrize("nonzero_only", sorted(WIDE_FLOAT_AVERAGE_STDOUT_SHA256))
    def test_wide_float_stdout_digest(self, capsys, tmp_path, nonzero_only):
        # values near 1e300 and subnormals: the float sums keep their order to the last bit
        path = write_tensor(tmp_path, "t.json", seeded_wide_float_tensor(8, 600, seed=8))
        code, out = run_cli(capsys, "average", path, *(["--nonzero-only"] if nonzero_only else []))
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == WIDE_FLOAT_AVERAGE_STDOUT_SHA256[nonzero_only]


def rendered_tensors(rank, mode):
    """An empty tensor, then a sparse and a dense one holding extreme values, seeded."""
    rng = random.Random(f"{rank}-{mode}")
    if mode == "exact":
        pool = [Fraction(-3, 7), Fraction(5), Fraction(-(10**399 + 7), 3), Fraction(1, 10**399 + 9)]
    else:
        pool = [1e308, -1e308, 5e-324, -0.1, 2.5, 1.0]
    yield DenseTensor(rank=rank, mode=mode)
    for density in (0.3, 1.0):
        components = {
            idx: rng.choice(pool) for idx in itertools.product((1, 2, 3), repeat=rank) if rng.random() < density
        }
        yield DenseTensor(rank=rank, mode=mode, components=components)


class TestAverageRender:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("rank", range(7))
    def test_equals_json_dumps_of_to_json_obj(self, rank, mode):
        for tensor in rendered_tensors(rank, mode):
            for nonzero_only in (False, True):
                expected = json.dumps(tensor.to_json_obj(nonzero_only), indent=2)
                assert tensor.to_json_text(nonzero_only) == expected


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

    @pytest.mark.parametrize(
        "ranks", ["0..1_0", "+3", " 3", "3 ", "3\n", "\u0663", "1..\u0663", "1..", "..3", "", "3..1"]
    )
    def test_rank_range_is_ascii_n_or_n_to_m(self, capsys, ranks):
        # "0..1_0" once ran ranks 0..10, and "+3", " 3" and an Arabic-Indic 3 ran rank 3
        code = main(["verify", "--suite", "beta", "-n", ranks])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == ""
        assert "bad rank range" in captured.err

    def test_each_rank_is_walked_once(self, capsys, monkeypatch):
        # the oracle, beta and props suites share one walk of each rank's orbit minima
        walks = collections.Counter()
        walk = rotavg.cli.rank_table

        def counted(n, *args, **kwargs):
            walks[n] += 1
            return walk(n, *args, **kwargs)

        monkeypatch.setattr(rotavg.cli, "rank_table", counted)
        run_json(capsys, "verify", "--suite", "all", "-n", "0..7", "--mc-samples", "2000")
        assert walks == {n: 1 for n in range(8)}

    def test_suite_all_is_the_four_suites_in_table_order(self, capsys):
        # both sides run in this process, so the oracle and mc floats compare bit for bit
        argv = ["-n", "0..4", "--mc-samples", "2000", "--seed", "5"]
        report = run_json(capsys, "verify", "--suite", "all", *argv)
        assert list(report["suites"]) == ["oracle", "beta", "props", "mc"]
        for suite, outcome in report["suites"].items():
            assert outcome == run_json(capsys, "verify", "--suite", suite, *argv)["suites"][suite]
        assert report["pass"] is all(outcome["pass"] for outcome in report["suites"].values())

    @pytest.mark.parametrize("ranks", [str(DEFAULT_ENUMERATE_LIMIT + 1), "0..40", "0..100000000000000"])
    def test_rank_ceiling(self, capsys, ranks):
        # every suite walks all binom(n+8, 8) flats per rank; rank 40 alone has 3.8e8,
        # and the last range once died building its list of ranks (MemoryError)
        code = main(["verify", "-n", ranks])
        captured = capsys.readouterr()
        assert code == EXIT_LIMIT
        assert captured.out == ""
        assert "ceiling" in captured.err

    @pytest.mark.parametrize("suite", ["all", "props"])
    def test_rank_ceiling_binds_every_walking_suite(self, capsys, suite):
        code = main(["verify", "--suite", suite, "-n", str(DEFAULT_ENUMERATE_LIMIT + 1)])
        captured = capsys.readouterr()
        assert code == EXIT_LIMIT
        assert captured.out == ""

    def test_mc_suite_ignores_the_rank_ceiling(self, capsys):
        # the mc suite walks no rank; rank 14 once exited 3 all the same
        above = str(DEFAULT_ENUMERATE_LIMIT + 1)
        high = run_json(capsys, "verify", "--suite", "mc", "-n", above, "--mc-samples", "2000")
        low = run_json(capsys, "verify", "--suite", "mc", "-n", "0", "--mc-samples", "2000")
        assert high["suites"]["mc"] == low["suites"]["mc"]

    def test_mc_suite_takes_a_huge_rank_range(self, capsys):
        # the range was once built as a list first, a MemoryError traceback
        report = run_json(capsys, "verify", "--suite", "mc", "-n", "0..100000000000000", "--mc-samples", "2000")
        assert report["ranks"] == "0..100000000000000"
        assert report["pass"] is True

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


# SHA-256 of `rotavg verify` stdout for the suites whose reports hold only exact
# data (the oracle and mc reports carry platform-dependent float bits),
# captured before the suites shared one walk per rank
VERIFY_STDOUT_SHA256 = {
    ("props", "0..13"): "76267c93aafc5162ccd05a3be07a77a4267f42a0e5818a392052c737089e2815",
    ("beta", "0..10"): "ddd232afc581582168d005f7407256fa31c1a979e7929e8f59427bd4b1e9b841",
}


class TestVerifyGolden:
    @pytest.mark.parametrize("suite,ranks", sorted(VERIFY_STDOUT_SHA256))
    def test_stdout_digest(self, capsys, suite, ranks):
        code, out = run_cli(capsys, "verify", "--suite", suite, "-n", ranks)
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == VERIFY_STDOUT_SHA256[suite, ranks]


ENUMERATE_SHA256 = Path(__file__).resolve().parents[1] / "perfbench" / "enumerate_sha256.json"
ENUMERATE_FLAGS = {"json": [], "csv": ["--canonical", "--format", "csv"]}


# the json digests above cover no filter, so a filter that drops or keeps the
# wrong rows shows only here: rank -> (--nonzero, --canonical --nonzero)
ENUMERATE_NONZERO_SHA256 = {
    0: (
        "fc4cfb9732c218889f00d5a38cbe645ea59a06b4edfebe9d1b8ea2d097b4391f",
        "fc4cfb9732c218889f00d5a38cbe645ea59a06b4edfebe9d1b8ea2d097b4391f",
    ),
    1: (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    2: (
        "430f8d834368beb18e19cc201002364108d2c2ec6b8ff64a56020b8b2118de8a",
        "b35181a1846226c605435a5140366d52860ccafba3fd47bec937dbb06b7c3e21",
    ),
    3: (
        "8834832a521a6689075e6d273b76eaa585eade33cdcacef6b2711a3b43635a5c",
        "b4dff41af63570ff3a4586879fe1f5837582dfe8e097f0bb746618ce22656aec",
    ),
    4: (
        "897a5587fc1dd7eb7b4175ed1f980ca0ac85d5b7ea96b8d108f508e8e0fc3ed8",
        "05871540c26d2f257d8163d17b718a40896115a8fb5a0d1ff16e9b00375e6115",
    ),
    5: (
        "3a166b60f3f4f55a949fb026cb6058d00f3fe37feb078e83b3680a301db15409",
        "8d900fb43131b32c5a73116b3f70883a6ef07a3301252affd4569444ca1d67c8",
    ),
    6: (
        "43d662d1ff1a06490a6b2d98559784fac2fbdee09d1bca319531efbe5ad3bb84",
        "c9771477e1082d2a5b17ff9f7f45e36d4112bbcfd35393c46a57122c355603dc",
    ),
    7: (
        "0ee40ec99eb027a7e1f21b099295523fc4a0e3e6714c7465a2c2629199219d42",
        "0deafe9e360cf11a2e4c05cfe3b8b575b327e30f34d5c1f1075503cc912391fa",
    ),
    8: (
        "15ee0b3fc80effc8c63d831bf1ea1341376158771214ffb1d740547df5e7f021",
        "d19ad1f950a92f6ac16aeca3e9409a6f3840bbc78e0a6ffc1b6099186118ac67",
    ),
    9: (
        "b63719129cc9c44b9c5145cc1c552b3218fd346ac060a25960869347f549b947",
        "812ff5d0656b1ffd69d361adb15d7eac9228f2e9bc36bfc2379c94e5e41a7b9a",
    ),
    10: (
        "64d7e598beb4334945907d2701d378c77573168febd2094b5498066ecb1d3916",
        "9600a4b50b103b8a59373242b4b093bb85745130b38c53380b14dbecf8b484dc",
    ),
    11: (
        "1b16bd4399097bfcbeb5c7847dda8874c9d4a039bd3f131e4076e8eeca6a8f0c",
        "2d5a821aa6000a763cedf4baeccf5f34c5b7312404b76fc90265a808b9a9dadb",
    ),
    12: (
        "2b3882c6cf62a1ba539a9ded109201defcbf8e03cf626ba586d0c5dbeebe4db3",
        "837687d50c4f1f5345944b48106a28c2afc74a0b37f9c98f4ba2bd57bf797207",
    ),
}


# the benchmark's forms are json and canonical csv; the other two unfiltered
# forms, captured before enumerate rendered in prefix blocks: rank ->
# (--format csv, --canonical)
ENUMERATE_OTHER_SHA256 = {
    0: (
        "b0b0fcccfd996e92712af568a8381b630232492a9b8cd6e18b987bcf197752be",
        "fc4cfb9732c218889f00d5a38cbe645ea59a06b4edfebe9d1b8ea2d097b4391f",
    ),
    1: (
        "6b85050444b7fa7f0bc25049109ac7c6f07eda418988df58357c934d50f08d2c",
        "af450d5a020450a4d12a51efeb9bc712968ce4703799ca040ad0313278f31f29",
    ),
    2: (
        "d28b689d27032e5eae1e22495268032e3e066d79feaa32b4254b48fb5386514e",
        "981ec77f43a83ed5e87b90ea6fed3f0a2b8a96c8cd3dde8c43d01ba83d502224",
    ),
    3: (
        "dd0a5f9e0f69e44e4fe5db372b39dfbef568cced94e958302fba75102f3c1c53",
        "fcdaae65e26a7798aa4af32a2f289f23e5bb3322775e59dbe3cbb8fcdc06de14",
    ),
    4: (
        "2181ed9a81df9d6ac7347ecb97d81d66598ccfb6aa33ab89f1d28052e68c46da",
        "2bc42231292dfe5ca911b795bf908bdf0b8f5c78a36d95239a57db517376762f",
    ),
    5: (
        "8c5873e2be91e360f95fc7ffaf8297ffb97242dd23fbed17ccc14a6ef3eb5c31",
        "2f60c7607008c8082db494976cf954441466c0571e9c705e408234f93cdff647",
    ),
    6: (
        "640ce4b10cd06f23ba0bdea7f292627dbc9316e6593823c1143ed46981d6c79d",
        "996304ac929a1a74501c80584bc7eb9f605e7376b11fff95ca9e11877976a4a6",
    ),
    7: (
        "9afdc42778a66eb2a289b8036cd8363706a5f8a180fcc9b129c60f59c7c137fe",
        "b9919b3028a135ba99e46121e97ef4b921b3c4f593dd1921b78e94ab446f6adb",
    ),
    8: (
        "b3dbd3467e103ab1e2ed7a76809a4b9ad0b5fdd05743f5be19bfdf3c8f29e99f",
        "b833ae46a2afd09c1d380b970527e228aeb6e94695df12950424c19d599a93c8",
    ),
    9: (
        "eaf294b45bd69119611ae5096d87d6c829113cd7ce658a7eb3e5a66dfbfcf2ef",
        "d957720765e10a25fe49b6fb3294c9ca9e4d7ca2e3a84dc7c325c0b910bc54e7",
    ),
    10: (
        "342d1afd324c741d764673d72d1ac54fb359dd4da547050a96440a9c55bfb013",
        "d33342743a7a5261caa6e5aa30be1ca353d7ddc1065d7386c0cd3293681aa054",
    ),
    11: (
        "e74bdc366c969aeaff2540263b1a548f2105fd5f13332edb0c23e7a4e25eb417",
        "b6d101c52c172dc455b59d902587683507527272db90d5a208aa78bf4689bfde",
    ),
    12: (
        "4abc753e5f6a98544f93e2ba2ae6de2e122cd8e3c136ee0ea17a6fb325d1a40d",
        "f5bf39f6dd9eb2039eabf558dddcc540daab16c6236a7acd5cc2e43be93c66d1",
    ),
}


class TestEnumerateGolden:
    """The benchmark's enumerate digests, read and never written here."""

    @pytest.fixture(scope="class")
    def reference(self):
        return json.loads(ENUMERATE_SHA256.read_text(encoding="utf-8"))

    def test_reference_covers_every_rank_and_format(self, reference):
        assert set(reference) == {f"{fmt}-{k}" for fmt in ENUMERATE_FLAGS for k in range(13)}

    @pytest.mark.parametrize("fmt", sorted(ENUMERATE_FLAGS))
    @pytest.mark.parametrize("rank", range(13))
    def test_stdout_digest(self, capsys, reference, fmt, rank):
        code, out = run_cli(capsys, "enumerate", "-n", str(rank), *ENUMERATE_FLAGS[fmt])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == reference[f"{fmt}-{rank}"]

    @pytest.mark.parametrize("canonical", [False, True])
    @pytest.mark.parametrize("rank", range(13))
    def test_nonzero_stdout_digest(self, capsys, canonical, rank):
        flags = ["--canonical"] * canonical + ["--nonzero"]
        code, out = run_cli(capsys, "enumerate", "-n", str(rank), *flags)
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == ENUMERATE_NONZERO_SHA256[rank][canonical]

    @pytest.mark.parametrize("form", [0, 1], ids=["csv", "canonical-json"])
    @pytest.mark.parametrize("rank", range(13))
    def test_other_stdout_digest(self, capsys, form, rank):
        flags = [["--format", "csv"], ["--canonical"]][form]
        code, out = run_cli(capsys, "enumerate", "-n", str(rank), *flags)
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == ENUMERATE_OTHER_SHA256[rank][form]


def run_failing(capsys, argv):
    """Run a command that must fail; return (exit code, stderr), checking stdout stays empty."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value itself
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


class TestExitCodes:
    """main maps every failure to its exit code and one `error:` line on stderr."""

    @pytest.mark.parametrize("text", ["1_0", " 3", "+3", "\u0663"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "-n", "{}"],
            ["enumerate", "-n", "3", "--max-rank", "{}"],
            ["enumerate", "-n", "3", "--threads", "{}"],
            ["compute", "--indices", "11", "--max-rank", "{}"],
            ["average", "{path}", "--max-rank", "{}"],
            ["verify", "--suite", "mc", "--mc-samples", "{}"],
            ["verify", "--suite", "mc", "--seed", "{}"],
            ["verify", "--suite", "beta", "--threads", "{}"],
        ],
    )
    def test_integer_flags_take_ascii_digits_only(self, capsys, tmp_path, argv, text):
        # int() reads all four, so "-n 1_2 --max-rank 1_3" once ran rank 12
        path = write_tensor(tmp_path, "s.json", {"rank": 0, "mode": "exact", "components": []})
        code, _ = run_failing(capsys, [arg.format(text, path=path) for arg in argv])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["enumerate", "-n", "{}"], "--rank"),
            (["enumerate", "-n", "-{}"], "--rank"),
            (["enumerate", "-n", "3", "--max-rank", "{}"], "--max-rank"),
            (["enumerate", "-n", "3", "--threads", "{}"], "--threads"),
            (["compute", "--indices", "11", "--max-rank", "{}"], "--max-rank"),
            (["average", "{path}", "--max-rank", "{}"], "--max-rank"),
            (["verify", "--suite", "mc", "--mc-samples", "{}"], "--mc-samples"),
            (["verify", "--suite", "mc", "--seed", "{}"], "--seed"),
            (["verify", "--suite", "beta", "--threads", "{}"], "--threads"),
        ],
    )
    def test_an_integer_flag_past_the_int_string_limit_is_a_limit(self, capsys, tmp_path, digit_limit, argv, flag):
        # int() raised inside argparse, which printed its usage text and
        # the 5000 digits and exited 2, while "-n 99999" exits 3
        path = write_tensor(tmp_path, "s.json", {"rank": 0, "mode": "exact", "components": []})
        code, err = run_failing(capsys, [arg.format("9" * 5000, path=path) for arg in argv])
        assert code == EXIT_LIMIT
        assert err == (
            f"error: the {flag} value of 5000 digits exceeds the interpreter's limit of {digit_limit} digits "
            "for integer string conversion\n"
        )

    @pytest.mark.parametrize("ranks", ["{}", "0..{}"])
    def test_a_verify_rank_past_the_int_string_limit_is_a_limit(self, capsys, digit_limit, ranks):
        code, err = run_failing(capsys, ["verify", "--suite", "mc", "-n", ranks.format("9" * 5000)])
        assert code == EXIT_LIMIT
        assert err == (
            f"error: the --ranks value's rank of 5000 digits exceeds the interpreter's limit of {digit_limit} digits "
            "for integer string conversion\n"
        )

    @pytest.mark.parametrize("indices", ["1\u0663", "\u0661\u0661"])
    def test_index_digits_are_ascii(self, capsys, indices):
        code, _ = run_failing(capsys, ["compute", "--indices", indices])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_negative_enumerate_rank_is_a_parse_error(self, capsys, fmt):
        # it once exited 3, as if a ceiling had been hit
        code, err = run_failing(capsys, ["enumerate", "-n", "-1", "--format", fmt])
        assert code == EXIT_PARSE
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--indices", "11,22,33", "--max-rank", "-1"],
            ["enumerate", "-n", "0", "--max-rank", "-1", "--format", "csv"],
            ["average", "{path}", "--max-rank", "-1"],
        ],
    )
    def test_negative_max_rank_is_a_parse_error(self, capsys, tmp_path, argv):
        # compute and enumerate once exited 3 ("exceeds the ceiling -1"), average 2
        path = write_tensor(tmp_path, "s.json", {"rank": 0, "mode": "exact", "components": []})
        code, err = run_failing(capsys, [arg.format(path=path) for arg in argv])
        assert code == EXIT_PARSE
        assert "--max-rank" in err and "at least 0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--chi", "[[0,0,0],[0,0,0],[0,0,121]]"],
            ["enumerate", "-n", str(DEFAULT_ENUMERATE_LIMIT + 1)],
            ["verify", "--suite", "beta", "-n", str(DEFAULT_ENUMERATE_LIMIT + 1)],
            ["average", "{r3}", "--max-rank", "2"],
            # the pair-code ceiling, hit only when --max-rank lets it through
            ["average", "{r128}", "--max-rank", "200"],
            ["verify", "--suite", "mc", "--mc-samples", str(DEFAULT_MC_SAMPLES_LIMIT + 1)],
        ],
    )
    def test_every_ceiling_exits_3_with_one_error_line(self, capsys, tmp_path, argv):
        paths = {
            "r3": write_tensor(
                tmp_path, "r3.json", {"rank": 3, "mode": "exact", "components": [{"idx": [1, 2, 3], "value": "1"}]}
            ),
            "r128": write_tensor(
                tmp_path, "r128.json", {"rank": 128, "mode": "exact", "components": [{"idx": [1] * 128, "value": "1"}]}
            ),
        }
        code, err = run_failing(capsys, [arg.format(**paths) for arg in argv])
        assert code == EXIT_LIMIT
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert "ceiling" in err

    @pytest.mark.parametrize("suite", ["all", "mc"])
    @pytest.mark.parametrize("flags", [["--mc-samples", "1"], ["--seed", "-1"]])
    def test_mc_arguments_are_checked_before_the_walk(self, capsys, monkeypatch, suite, flags):
        # both once failed only after every rank of -n had been walked
        def no_walk(*args, **kwargs):
            raise AssertionError("verify walked a rank before checking its arguments")

        monkeypatch.setattr(rotavg.cli, "rank_table", no_walk)
        code, err = run_failing(capsys, ["verify", "--suite", suite, "-n", "0..11", *flags])
        assert code == EXIT_PARSE
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("suite", ["all", "mc"])
    def test_mc_sample_ceiling_is_checked_before_any_work(self, capsys, monkeypatch, suite):
        # --mc-samples 1000000000000 once ran without bound
        def no_work(*args, **kwargs):
            raise AssertionError("verify started work above the sample ceiling")

        monkeypatch.setattr(rotavg.cli, "rank_table", no_work)
        monkeypatch.setattr(rotavg.cli, "monte_carlo_average", no_work)
        argv = ["verify", "--suite", suite, "-n", "0..11", "--mc-samples", "1000000000000"]
        code, err = run_failing(capsys, argv)
        assert code == EXIT_LIMIT
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert f"sample ceiling {DEFAULT_MC_SAMPLES_LIMIT}" in err

    def test_mc_sample_ceiling_binds_only_the_mc_suite(self, capsys):
        argv = ["-n", "0..2", "--mc-samples", str(DEFAULT_MC_SAMPLES_LIMIT + 1)]
        assert run_json(capsys, "verify", "--suite", "beta", *argv)["pass"] is True


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
