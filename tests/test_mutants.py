"""Known-wrong forms of the code, each with the checks that must catch it.

Each row monkeypatches one module attribute into a wrong form and asserts
that each of its checks passes on the real code and fails under the mutant.
A row that fails means a check no longer guards what it is meant to guard.
"""

import hashlib
import json

import pytest

import rotavg
import test_evaluator
import test_oracle
import test_power_matrix
import test_propositions
from rotavg.cli import main
from rotavg.evaluator import closed_form
from rotavg.power_matrix import orbit_signs
from rotavg.tensors import _RELABELINGS, _image_order
from test_cli import (
    AVERAGE_STDOUT_SHA256,
    ENUMERATE_NONZERO_SHA256,
    ENUMERATE_SHA256,
    VERIFY_STDOUT_SHA256,
    seeded_dense_tensor,
    write_tensor,
)


def stdout_digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def average_digests(*keys):
    """The TestAverageGolden digests of the dense (rank, mode) tensors in keys."""

    def check(capsys, tmp_path):
        for rank, mode in keys:
            path = write_tensor(tmp_path, "t.json", seeded_dense_tensor(rank, mode, seed=rank))
            assert stdout_digest(capsys, ["average", path]) == AVERAGE_STDOUT_SHA256[rank, mode, False]

    return check


def nonzero_enumerate_digest(rank):
    """The TestEnumerateGolden digest of `enumerate -n rank --nonzero`."""

    def check(capsys, tmp_path):
        assert stdout_digest(capsys, ["enumerate", "-n", str(rank), "--nonzero"]) == ENUMERATE_NONZERO_SHA256[rank][0]

    return check


def canonical_csv_digest(rank):
    """The TestEnumerateGolden digest of `enumerate -n rank --canonical --format csv`."""

    def check(capsys, tmp_path):
        reference = json.loads(ENUMERATE_SHA256.read_text(encoding="utf-8"))
        argv = ["enumerate", "-n", str(rank), "--canonical", "--format", "csv"]
        assert stdout_digest(capsys, argv) == reference[f"csv-{rank}"]

    return check


def verify_digest(suite, ranks):
    """The TestVerifyGolden digest of `verify --suite suite -n ranks`."""

    def check(capsys, tmp_path):
        assert stdout_digest(capsys, ["verify", "--suite", suite, "-n", ranks]) == VERIFY_STDOUT_SHA256[suite, ranks]

    return check


def walk_matches_closed_form(capsys, tmp_path):
    test_propositions.TestOrbitScan().test_matches_canonical_flat_through_rank_11()


def representatives_are_fixed_points(capsys, tmp_path):
    test_propositions.TestOrbitScan().test_representatives_are_the_canonical_fixed_points(3)


def canonical_table_filter(capsys, tmp_path):
    test_propositions.TestRankTable().test_canonical_filter()


def mc_report(capsys, tmp_path):
    test_oracle.TestCliMonteCarloReport().test_mc_report_matches_the_reference(capsys, 1)


def selection_shortcut(capsys, tmp_path):
    test_evaluator.TestEvaluate().test_selection_rule_shortcut()


def special_form_needs_selection(capsys, tmp_path):
    test_evaluator.TestSpecialNoUpperBlock().test_requires_selection_rule_at_even_rank()


def four_checks_match_six(capsys, tmp_path):
    test_power_matrix.TestSelectionRule().test_four_checks_match_the_six_check_definition()


def unsigned_relabelings():
    # every relabeling keeps the value's sign, so odd ranks lose the odd ones' negation
    return tuple((relabel, 1) for relabel, _ in _RELABELINGS)


def lab_order(digits, relabel):
    # every image adds its products in the order of the orbit's first lab
    return _image_order(digits, _RELABELINGS[0][0])


def unsigned_orbit_signs(flat):
    # the cache gives every image of an orbit its key's value, negative images included
    return dict.fromkeys(orbit_signs(flat), 1)


def odd_sign_flipped(chi):
    value = closed_form(chi)
    return -value if chi.rank % 2 else value


def columns_only(f):
    # the selection rule without its row checks
    n_par = sum(f) & 1
    return (f[0] + f[3] + f[6]) & 1 == n_par and (f[1] + f[4] + f[7]) & 1 == n_par


# (id, module, attribute, mutant factory, checks that must each catch it)
MUTANTS = [
    (
        "odd-rank-negation-dropped", rotavg.tensors, "_RELABELINGS", unsigned_relabelings,
        [average_digests((5, "exact"), (7, "exact"))],
    ),
    ("float-images-in-lab-order", rotavg.tensors, "_image_order", lambda: lab_order, [average_digests((7, "float"))]),
    (
        "look-ahead-signs-plus-one", rotavg.evaluator, "orbit_signs", lambda: unsigned_orbit_signs,
        [average_digests((5, "exact"), (7, "exact")), nonzero_enumerate_digest(5), walk_matches_closed_form],
    ),
    (
        "closed-form-sign-flipped-at-odd-rank", rotavg.evaluator, "closed_form", lambda: odd_sign_flipped,
        [verify_digest("beta", "0..10")],
    ),
    (
        "every-flat-an-orbit-minimum", rotavg.propositions, "is_orbit_minimum", lambda: lambda flat: True,
        [representatives_are_fixed_points, canonical_csv_digest(6), canonical_table_filter],
    ),
    ("mc-chunk-halved", rotavg.oracle, "_MC_CHUNK", lambda: 1 << 15, [mc_report]),
    (
        "selection-rule-without-rows", rotavg.power_matrix, "_selection_flat", lambda: columns_only,
        [selection_shortcut, special_form_needs_selection, four_checks_match_six],
    ),
]


@pytest.mark.parametrize("name,module,attribute,mutant,checks", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_check_catches_mutant(capsys, tmp_path, monkeypatch, name, module, attribute, mutant, checks):
    # every check that passes no cache gets a throwaway one, so no value outlives its run
    for check in checks:
        check(capsys, tmp_path)
    monkeypatch.setattr(module, attribute, mutant())
    for check in checks:
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            check(capsys, tmp_path)
