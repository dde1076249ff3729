import csv
import io
import json
from fractions import Fraction

import pytest

from rotavg import PowerMatrix, ValueCache, canonicalize, determinant, parse_rational, rank_table
from rotavg.cli import EXIT_LIMIT, EXIT_OK, EXIT_PARSE, main
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
