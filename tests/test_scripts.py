"""The scripts in scripts/ run in-process through their main(): they must add
nothing to, and lose nothing from, the rotavg subcommands they wrap."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rotavg import PowerMatrix, canonicalize
from rotavg.cli import (
    DEFAULT_ENUMERATE_LIMIT,
    DEFAULT_MC_SAMPLES_LIMIT,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VIOLATION,
    build_parser,
)
from rotavg.cli import main as rotavg
from rotavg.propositions import RANK8_EXCEPTION, RANK9_EXCEPTION

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    return module.main()


def canonical_lists(chi):
    return [canonicalize(chi).representative.to_lists()]


class TestExportRankTables:
    @pytest.mark.parametrize(
        "flags", [[], ["--nonzero"], ["--canonical"], ["--nonzero", "--canonical"]]
    )
    def test_files_are_enumerate_stdout(self, monkeypatch, capsys, tmp_path, flags):
        code = run_script(
            monkeypatch, "export_rank_tables", "--ranks", "0..6", "--outdir", str(tmp_path), *flags
        )
        assert code == EXIT_OK
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [f"rank{n:02d}.jsonl" for n in range(7)]
        capsys.readouterr()
        for n in range(7):
            assert rotavg(["enumerate", "-n", str(n), *flags]) == EXIT_OK
            expected = capsys.readouterr().out.encode("utf-8")
            assert (tmp_path / f"rank{n:02d}.jsonl").read_bytes() == expected

    @pytest.mark.parametrize("ranks", ["0..1_0", "+3", " 3", "\u0663"])
    def test_rank_range_is_ascii_n_or_n_to_m(self, monkeypatch, capsys, tmp_path, ranks):
        # each was once read as a rank range through int()
        outdir = tmp_path / "tables"
        argv = ["--ranks", ranks, "--outdir", str(outdir)]
        assert run_script(monkeypatch, "export_rank_tables", *argv) == EXIT_PARSE
        assert not outdir.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("ranks", ["5..3", "-1", "1.5"])
    def test_bad_ranks_are_parse_errors(self, monkeypatch, tmp_path, ranks):
        # 5..3 once exited 0 having written nothing, -1 and 1.5 raised tracebacks
        outdir = tmp_path / "tables"
        argv = ["--ranks", ranks, "--outdir", str(outdir)]
        assert run_script(monkeypatch, "export_rank_tables", *argv) == EXIT_PARSE
        assert not outdir.exists()

    def test_rank_over_enumerate_ceiling_leaves_no_file(self, monkeypatch, tmp_path):
        ranks = str(DEFAULT_ENUMERATE_LIMIT + 1)
        argv = ["--ranks", ranks, "--outdir", str(tmp_path)]
        assert run_script(monkeypatch, "export_rank_tables", *argv) == EXIT_LIMIT
        assert list(tmp_path.iterdir()) == []

    def test_rank_past_the_int_string_limit_exits_3(self, monkeypatch, capsys, tmp_path, digit_limit):
        # the RankLimitError was caught as a ValueError and exited 2
        outdir = tmp_path / "tables"
        argv = ["--ranks", "0.." + "9" * 5000, "--outdir", str(outdir)]
        assert run_script(monkeypatch, "export_rank_tables", *argv) == EXIT_LIMIT
        assert not outdir.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the --ranks value's rank of 5000 digits exceeds the interpreter's limit of {digit_limit} digits "
            "for integer string conversion\n"
        )

    def test_top_rank_over_the_ceiling_writes_nothing(self, monkeypatch, capsys, tmp_path):
        # ranks below the ceiling were written, and left, before the top one failed
        def no_run(argv):
            raise AssertionError(f"rotavg ran {argv}")

        monkeypatch.setattr("rotavg.cli.main", no_run)
        outdir = tmp_path / "tables"
        argv = ["--ranks", f"9..{DEFAULT_ENUMERATE_LIMIT + 1}", "--outdir", str(outdir)]
        assert run_script(monkeypatch, "export_rank_tables", *argv) == EXIT_LIMIT
        assert not outdir.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: rank {DEFAULT_ENUMERATE_LIMIT + 1} exceeds the ceiling {DEFAULT_ENUMERATE_LIMIT}\n"

    @pytest.mark.parametrize("outdir", ["taken", "taken/tables"])
    def test_unwritable_outdir_is_a_parse_error(self, monkeypatch, capsys, tmp_path, outdir):
        # a file at or above --outdir once ended in a FileExistsError or
        # NotADirectoryError traceback
        (tmp_path / "taken").write_text("keep", encoding="utf-8")
        argv = ["--ranks", "0..2", "--outdir", str(tmp_path / outdir)]
        assert run_script(monkeypatch, "export_rank_tables", *argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "taken"]
        assert (tmp_path / "taken").read_text(encoding="utf-8") == "keep"


class TestRunVerification:
    def test_report_enforces_exceptions_and_prime_ranks(self, monkeypatch, tmp_path):
        out = tmp_path / "report.json"
        code = run_script(
            monkeypatch, "run_verification", "--max-rank", "4", "--props-max-rank", "9",
            "--mc-samples", "2000", "--out", str(out),
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["pass"] is True
        battery, sweep = report["runs"]
        assert battery["ranks"] == "0..4"
        assert set(battery["suites"]) == {"oracle", "beta", "props", "mc"}
        assert sweep["ranks"] == "5..9"
        assert list(sweep["suites"]) == ["props"]
        # only the given Monte Carlo flag is forwarded; the seed default is the CLI's
        assert battery["suites"]["mc"]["samples"] == 2000
        assert battery["suites"]["mc"]["seed"] == build_parser().parse_args(["verify"]).seed

        entries = {
            e["rank"]: e for run in report["runs"] for e in run["suites"]["props"]["ranks"]
        }
        assert sorted(entries) == list(range(10))
        assert entries[8]["expected_violations"] == canonical_lists(RANK8_EXCEPTION)
        assert entries[9]["expected_violations"] == canonical_lists(RANK9_EXCEPTION)
        for n in (3, 5, 7):
            assert entries[n]["prime_nonvanishing"]["pass"] is True

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        # the rank-8 exception set is enforced, not informational
        not_the_exception = PowerMatrix(((2, 0, 0), (0, 2, 0), (0, 0, 4)))
        monkeypatch.setattr("rotavg.cli.RANK8_EXCEPTION", not_the_exception)
        code = run_script(
            monkeypatch, "run_verification", "--max-rank", "0", "--props-max-rank", "8",
            "--mc-samples", "2000",
        )
        assert code == EXIT_VIOLATION
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert [run["pass"] for run in report["runs"]] == [True, False]

    def test_rank_over_verify_ceiling_exits_3(self, monkeypatch, capsys):
        code = run_script(
            monkeypatch, "run_verification", "--max-rank", "0",
            "--props-max-rank", str(DEFAULT_ENUMERATE_LIMIT + 1), "--mc-samples", "2000",
        )
        assert code == EXIT_LIMIT
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert [run["ranks"] for run in report["runs"]] == ["0..0"]

    def test_mc_samples_over_the_ceiling_exits_3(self, monkeypatch, capsys):
        code = run_script(
            monkeypatch, "run_verification", "--max-rank", "0",
            "--mc-samples", str(DEFAULT_MC_SAMPLES_LIMIT + 1),
        )
        assert code == EXIT_LIMIT
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"pass": False, "runs": []}
        assert "sample ceiling" in captured.err

    @pytest.mark.parametrize("text", ["1_0", "+3", " 3", "\u0663"])
    @pytest.mark.parametrize("flag", ["--max-rank", "--props-max-rank", "--mc-samples", "--seed"])
    def test_integer_flags_take_ascii_digits_only(self, monkeypatch, capsys, flag, text):
        # int() reads all four, so "--props-max-rank 1_0" once ran props ranks 1..10
        def no_run(argv):
            raise AssertionError(f"rotavg ran {argv} with {flag} {text!r}")

        monkeypatch.setattr("rotavg.cli.main", no_run)
        with pytest.raises(SystemExit) as exc:
            run_script(monkeypatch, "run_verification", flag, text)
        assert exc.value.code == EXIT_PARSE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--max-rank", "--props-max-rank", "--mc-samples", "--seed"])
    def test_integer_flag_past_the_int_string_limit_exits_3(self, monkeypatch, capsys, digit_limit, flag):
        # a long --max-rank once ended in a TypeError traceback comparing it with an int
        def no_run(argv):
            raise AssertionError(f"rotavg ran {argv}")

        monkeypatch.setattr("rotavg.cli.main", no_run)
        assert run_script(monkeypatch, "run_verification", flag, "9" * 5000) == EXIT_LIMIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the {flag} value of 5000 digits exceeds the interpreter's limit of {digit_limit} digits "
            "for integer string conversion\n"
        )

    def test_negative_max_rank_is_a_parse_error(self, monkeypatch, capsys):
        # once reported "ok": true after checking nothing
        code = run_script(monkeypatch, "run_verification", "--max-rank", "-1")
        assert code == EXIT_PARSE
        assert json.loads(capsys.readouterr().out) == {"pass": False, "runs": []}

    def test_unwritable_out_is_a_parse_error_before_any_run(self, monkeypatch, capsys, tmp_path):
        # a missing directory once ended in a FileNotFoundError traceback after the whole battery
        def no_run(argv):
            raise AssertionError(f"rotavg ran {argv}")

        monkeypatch.setattr("rotavg.cli.main", no_run)
        out = tmp_path / "missing" / "report.json"
        assert run_script(monkeypatch, "run_verification", "--out", str(out)) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.parent.exists()
