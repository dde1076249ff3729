"""One table of input errors: per input path, a malformed value, one past the
interpreter's int-string limit and one over a ceiling, each with its exit
code and its exact error line.

A path is a rotavg subcommand, run through cli.main, or a script in scripts/,
run in-process through its main().  The error line is stderr's last line:
the one "error:" line of cli.failure, or argparse's usage error for a flag
value that argparse rejects itself.  Stdout holds nothing, except the empty
report that run_verification.py writes when a run it started fails.
"""

import json

import pytest

from rotavg.cli import DEFAULT_MC_SAMPLES_LIMIT, EXIT_LIMIT, EXIT_PARSE, main
from test_scripts import SCRIPTS, run_script

NINES = "9" * 5000
LIMIT = "exceeds the interpreter's limit of 4300 digits for integer string conversion"
EMPTY_REPORT = json.dumps({"pass": False, "runs": []}, indent=2) + "\n"


def row(path, example, argv, code, line, *, tensor=None, out="", limit=False):
    """One table row; limit sets the int-string limit to its default for the run."""
    return pytest.param(path, argv, tensor, out, code, line, limit, id=f"{path}-{example}")


def negative_ceiling(command, argv):
    # a negative ceiling is malformed at any length; one past the int-string limit once exited 3
    line = f"rotavg {command}: error: argument --max-rank: a rank ceiling must be at least 0, not -{NINES}"
    return row(command, "negative-ceiling", [*argv, "--max-rank", f"-{NINES}"], EXIT_PARSE, line, limit=True)


ROWS = [
    row("compute", "malformed", ["--chi", "[[1,0"], EXIT_PARSE,
        "error: chi is not valid JSON: Expecting ',' delimiter: line 1 column 6 (char 5)"),
    # json.loads once raised the interpreter's own ValueError: exit 2 with its advice
    row("compute", "past-limit-entry", ["--chi", "[[%s,0,0],[0,0,0],[0,0,0]]" % ("1" * 5000)], EXIT_LIMIT,
        f"error: an integer of 5000 digits {LIMIT}", limit=True),
    # each entry reads, but the rank has one digit more; the ceiling's
    # message once failed to render it and the command exited 2
    row("compute", "past-limit-rank", ["--chi", "[[{0},0,0],[0,{0},0],[0,0,0]]".format("9" * 4300)], EXIT_LIMIT,
        f"error: the rank, above the ceiling 120, {LIMIT}", limit=True),
    # the closed form's value has more digits than the limit; it once exited 2 with the interpreter's advice
    row("compute", "past-limit-value", ["--chi", "[[12000,0,0],[0,12000,0],[0,0,0]]", "--max-rank", "24000"],
        EXIT_LIMIT, f"error: the value {LIMIT}", limit=True),
    row("compute", "over-ceiling", ["--chi", "[[0,0,0],[0,0,0],[0,0,121]]"], EXIT_LIMIT,
        "error: rank 121 exceeds the ceiling 120"),
    negative_ceiling("compute", ["--indices", "11,22,33"]),
    row("average", "malformed", ["{tensor}"], EXIT_PARSE,
        "error: tensor file is not valid JSON: Expecting ':' delimiter: line 1 column 9 (char 8)",
        tensor='{"rank" 1}'),
    # it once exited 2 with the interpreter's advice and named no record
    row("average", "past-limit-literal", ["{tensor}"], EXIT_LIMIT, f"error: the value at index [3] {LIMIT}",
        tensor=json.dumps({"rank": 1, "mode": "exact", "components": [
            {"idx": [1], "value": "1/2"}, {"idx": [3], "value": "1" * 5000}]}), limit=True),
    # json.loads once raised the interpreter's own ValueError before any check ran
    row("average", "past-limit-integer", ["{tensor}"], EXIT_LIMIT, f"error: an integer of 5000 digits {LIMIT}",
        tensor='{"rank": 1, "mode": "exact", "components": [{"idx": [1], "value": -%s}]}' % ("1" * 5000), limit=True),
    row("average", "over-ceiling", ["{tensor}", "--max-rank", "2"], EXIT_LIMIT, "error: rank 3 exceeds the ceiling 2",
        tensor=json.dumps({"rank": 3, "mode": "exact", "components": [{"idx": [1, 2, 3], "value": "1"}]})),
    negative_ceiling("average", ["{tensor}"]),
    row("enumerate", "malformed", ["-n", "1_0"], EXIT_PARSE,
        "rotavg enumerate: error: argument -n/--rank: invalid integer value: '1_0'"),
    row("enumerate", "past-limit", ["-n", NINES], EXIT_LIMIT, f"error: the --rank value of 5000 digits {LIMIT}",
        limit=True),
    row("enumerate", "over-ceiling", ["-n", "14"], EXIT_LIMIT, "error: rank 14 exceeds the ceiling 13"),
    negative_ceiling("enumerate", ["-n", "0"]),
    row("verify", "malformed", ["-n", "5..3"], EXIT_PARSE, "error: bad rank range '5..3'; expected N or N..M"),
    # each end is read in turn, so the first one past the limit is named
    row("verify", "past-limit", ["-n", f"{NINES}..{NINES}9"], EXIT_LIMIT,
        f"error: the --ranks value's rank of 5000 digits {LIMIT}", limit=True),
    row("verify", "over-ceiling", ["--suite", "beta", "-n", "14"], EXIT_LIMIT, "error: rank 14 exceeds the ceiling 13"),
    row("verify", "over-sample-ceiling", ["--suite", "mc", "--mc-samples", str(DEFAULT_MC_SAMPLES_LIMIT + 1)],
        EXIT_LIMIT, f"error: --mc-samples {DEFAULT_MC_SAMPLES_LIMIT + 1} exceeds the sample ceiling {DEFAULT_MC_SAMPLES_LIMIT}"),
    row("export_rank_tables", "malformed", ["--ranks", "5..3"], EXIT_PARSE,
        "error: bad rank range '5..3'; expected N or N..M"),
    row("export_rank_tables", "past-limit", ["--ranks", f"0..{NINES}"], EXIT_LIMIT,
        f"error: the --ranks value's rank of 5000 digits {LIMIT}", limit=True),
    row("export_rank_tables", "over-ceiling", ["--ranks", "12..14"], EXIT_LIMIT, "error: rank 14 exceeds the ceiling 13"),
    row("run_verification", "malformed", ["--max-rank", "1_0"], EXIT_PARSE,
        "run_verification.py: error: argument --max-rank: invalid integer value: '1_0'"),
    row("run_verification", "past-limit", ["--max-rank", NINES], EXIT_LIMIT,
        f"error: the --max-rank value of 5000 digits {LIMIT}", limit=True),
    row("run_verification", "over-ceiling", ["--max-rank", "0", "--mc-samples", str(DEFAULT_MC_SAMPLES_LIMIT + 1)],
        EXIT_LIMIT, f"error: --mc-samples {DEFAULT_MC_SAMPLES_LIMIT + 1} exceeds the sample ceiling {DEFAULT_MC_SAMPLES_LIMIT}",
        out=EMPTY_REPORT),
]


def run(monkeypatch, path, argv) -> int:
    try:
        if (SCRIPTS / f"{path}.py").exists():
            return run_script(monkeypatch, path, *argv)
        return main([path, *argv])
    except SystemExit as exc:  # argparse rejects a flag value itself
        return exc.code


@pytest.mark.parametrize("path,argv,tensor,out,code,line,limit", ROWS)
def test_input_error(request, monkeypatch, capsys, tmp_path, path, argv, tensor, out, code, line, limit):
    if limit:
        request.getfixturevalue("digit_limit")
    if tensor is not None:
        (tmp_path / "tensor.json").write_text(tensor, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # export_rank_tables.py writes under ./tables by default
    argv = [arg.replace("{tensor}", str(tmp_path / "tensor.json")) for arg in argv]
    assert run(monkeypatch, path, argv) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err.splitlines()[-1] == line
    if line.startswith("error: "):  # cli.failure's one line and nothing else
        assert captured.err == line + "\n"
    assert not (tmp_path / "tables").exists()
