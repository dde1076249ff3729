"""Known-wrong forms of the code, each with the checks that must catch it.

Each row monkeypatches one module attribute into a wrong form and asserts
that each of its checks passes on the real code and fails under the mutant.
A row that fails means a check no longer guards what it is meant to guard.
"""

import hashlib
import json

import pytest

import rotavg
import test_cli
import test_evaluator
import test_oracle
import test_power_matrix
import test_propositions
import test_rationals
import test_tensors
from rotavg.cli import main
from fractions import Fraction

from rotavg.evaluator import _orbit_value, closed_form, special_q1
from rotavg.power_matrix import _ARRANGEMENTS, _OP_BY_SOURCE, SymmetryOp, _source_map, orbit_signs
from rotavg.propositions import _PARITY_BITS
from rotavg.rationals import _RATIONAL_RE
from rotavg.tensors import _RELABELINGS, _bulk_components, _image_order
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


def canonical_layer_matches_brute_force(capsys, tmp_path):
    test_power_matrix.TestCanonicalLayer().test_every_flat_through_rank_9(5)


def representative_counts(capsys, tmp_path):
    test_propositions.TestEnumeration().test_representative_counts_match_burnside()


def mc_report(capsys, tmp_path):
    test_oracle.TestCliMonteCarloReport().test_mc_report_matches_the_reference(capsys, 1)


def direct_path_matches_the_cache(capsys, tmp_path):
    test_evaluator.TestEvaluate().test_direct_path_matches_the_cache()


def compute_identity(capsys, tmp_path):
    test_cli.TestCompute().test_identity_permutation(capsys)


def selection_shortcut(capsys, tmp_path):
    test_evaluator.TestEvaluate().test_selection_rule_shortcut()


def special_form_needs_selection(capsys, tmp_path):
    test_evaluator.TestSpecialNoUpperBlock().test_requires_selection_rule_at_even_rank()


def four_checks_match_six(capsys, tmp_path):
    test_power_matrix.TestSelectionRule().test_four_checks_match_the_six_check_definition()


def then_matches_two_applications(capsys, tmp_path):
    test_power_matrix.TestSymmetryGroup().test_then_matches_two_applications_for_every_pair()


def then_rejects_outside_ops(capsys, tmp_path):
    test_power_matrix.TestSymmetryGroup().test_then_rejects_an_op_outside_the_72(SymmetryOp((0, 0, 1), (0, 1, 2)))


def q1_through_rank_20(capsys, tmp_path):
    test_evaluator.TestSpecialQ1().test_every_q1_matrix_of_ranks_11_to_20()


def parse_matches_fraction(capsys, tmp_path):
    test_rationals.test_parse_matches_fraction_on_the_whole_grammar(1)


def bulk_matches_record_loop(capsys, tmp_path):
    test_tensors.TestBulkReader().test_bulk_matches_the_record_loop_on_many_literals(1)


def block_signatures(capsys, tmp_path):
    test_propositions.TestBlockWalk().test_signatures_decide_the_selection_rule(4)


def then_reversed(self, other):
    # the composite applies other first, then self
    first, second = _source_map(other), _source_map(self)
    return _OP_BY_SOURCE[tuple(first[k] for k in second)]


def then_by_perms(self, other):
    # the hand-written transpose algebra, which composes any three-entry perms
    def compose(p1, p2):
        return (p1[p2[0]], p1[p2[1]], p1[p2[2]])

    rows, cols = (other.row_perm, other.col_perm) if not self.transpose else (other.col_perm, other.row_perm)
    return SymmetryOp(compose(self.row_perm, rows), compose(self.col_perm, cols), self.transpose != other.transpose)


def q1_without_even_factor(chi):
    value = special_q1(chi)
    return value if chi.rank % 2 else value / 2


def q1_last_factorial_n(chi):
    # n! rather than (n + 1)! at even rank
    value = special_q1(chi)
    return value if chi.rank % 2 else value * (chi.rank + 1)


def parse_without_sign(text):
    literal = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if literal is None:
        raise ValueError(f"not an exact rational literal: {text!r}")
    return Fraction(abs(int(literal[1])), int(literal[2] or 1))


def bulk_through_floats(records, rank, mode):
    # each distinct value read as the nearest float
    components = _bulk_components(records, rank, mode)
    return components and {idx: Fraction(float(value)) for idx, value in components.items()}


def unsigned_relabelings():
    # every relabeling keeps the value's sign, so odd ranks lose the odd ones' negation
    return tuple((relabel, 1) for relabel, _ in _RELABELINGS)


def lab_order(digits, relabel):
    # every image adds its products in the order of the orbit's first lab
    return _image_order(digits, _RELABELINGS[0][0])


def unsigned_orbit_signs(flat):
    # the cache gives every image of an orbit its key's value, negative images included
    return dict.fromkeys(orbit_signs(flat), 1)


def nonzero_orbits_at_sign_plus_one(flat):
    # the cache ignores this sign; only uncached evaluate reads it
    rep, sign, value = _orbit_value(flat)
    return rep, 1 if value else sign, value


def odd_sign_flipped(chi):
    value = closed_form(chi)
    return -value if chi.rank % 2 else value


def sorted_rows(flat, src):
    # the arrangement src of flat with its rows sorted
    rows = sorted((flat[src[i]], flat[src[i + 1]], flat[src[i + 2]]) for i in (0, 3, 6))
    return rows[0] + rows[1] + rows[2]


def unsigned_row_swaps(flat):
    # canonical_flat as if sorting an arrangement's rows flipped no sign
    signs = {}
    for src, sign in _ARRANGEMENTS:
        image = sorted_rows(flat, src)
        if image[0:3] == image[3:6] or image[3:6] == image[6:9]:
            sign = 0
        signs[image] = sign if signs.setdefault(image, sign) == sign else 0
    best = min(signs)
    return best, signs[best] if sum(flat) & 1 else 1


def untransposed_minimum(flat):
    # is_orbit_minimum without the six arrangements of the transpose
    untransposed = [src for src, _ in _ARRANGEMENTS if max(src[0:3]) < 3]  # the first row stays a row
    return flat[0:3] <= flat[3:6] <= flat[6:9] and all(sorted_rows(flat, src) >= flat for src in untransposed)


def columns_only(f):
    # the selection rule without its row checks
    n_par = sum(f) & 1
    return (f[0] + f[3] + f[6]) & 1 == n_par and (f[1] + f[4] + f[7]) & 1 == n_par


# (id, module or modules, attribute, mutant factory, checks that must each catch it); a
# function imported by name into a second module is patched in both
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
        "uncached-evaluate-drops-its-sign", rotavg.evaluator, "_orbit_value",
        lambda: nonzero_orbits_at_sign_plus_one, [direct_path_matches_the_cache, compute_identity],
    ),
    (
        "closed-form-sign-flipped-at-odd-rank", rotavg.evaluator, "closed_form", lambda: odd_sign_flipped,
        [verify_digest("beta", "0..10")],
    ),
    (
        "every-flat-an-orbit-minimum", rotavg.propositions, "is_orbit_minimum", lambda: lambda flat: True,
        [representatives_are_fixed_points, canonical_csv_digest(6), canonical_table_filter],
    ),
    (
        "canonical-sign-ignores-row-swaps", (rotavg.power_matrix, rotavg.evaluator), "canonical_flat",
        lambda: unsigned_row_swaps, [canonical_layer_matches_brute_force, nonzero_enumerate_digest(5)],
    ),
    (
        "orbit-minimum-without-the-transpose", rotavg.propositions, "is_orbit_minimum",
        lambda: untransposed_minimum, [representative_counts, canonical_csv_digest(6), canonical_csv_digest(7)],
    ),
    ("mc-chunk-halved", rotavg.oracle, "_MC_CHUNK", lambda: 1 << 15, [mc_report]),
    ("then-composes-in-reverse", SymmetryOp, "then", lambda: then_reversed, [then_matches_two_applications]),
    ("then-accepts-an-op-outside-the-72", SymmetryOp, "then", lambda: then_by_perms, [then_rejects_outside_ops]),
    (
        "special-q1-without-the-even-factor", rotavg.evaluator, "special_q1", lambda: q1_without_even_factor,
        [q1_through_rank_20],
    ),
    (
        "special-q1-with-n-factorial-at-even-rank", rotavg.evaluator, "special_q1", lambda: q1_last_factorial_n,
        [q1_through_rank_20],
    ),
    (
        "parse-rational-drops-the-sign", rotavg.rationals, "parse_rational", lambda: parse_without_sign,
        [parse_matches_fraction],
    ),
    (
        "bulk-reads-values-through-floats", rotavg.tensors, "_bulk_components", lambda: bulk_through_floats,
        [bulk_matches_record_loop],
    ),
    (
        "parity-bits-miss-position-7", rotavg.propositions, "_PARITY_BITS",
        lambda: _PARITY_BITS[:7] + (0,) + _PARITY_BITS[8:], [block_signatures, nonzero_enumerate_digest(5)],
    ),
    (
        "selection-rule-without-rows", rotavg.power_matrix, "_selection_flat", lambda: columns_only,
        [selection_shortcut, special_form_needs_selection, four_checks_match_six],
    ),
]


@pytest.mark.parametrize("name,module,attribute,mutant,checks", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_check_catches_mutant(capsys, tmp_path, monkeypatch, name, module, attribute, mutant, checks):
    # no check shares a cache: uncached evaluate keeps none, and each walk or
    # tensor kernel that needs one makes its own, so no value outlives its run
    for check in checks:
        check(capsys, tmp_path)
    replacement = mutant()
    for patched in module if isinstance(module, tuple) else (module,):
        monkeypatch.setattr(patched, attribute, replacement)
    for check in checks:
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            check(capsys, tmp_path)
