import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import power_matrices, symmetry_ops
from rotavg import (
    ALL_OPS,
    IDENTITY_OP,
    MultiIndex,
    PowerMatrix,
    SymmetryOp,
    apply_symmetry,
    canonicalize,
    determinant,
    enumerate_power_matrices,
    from_multi_index,
    orbit,
    selection_rule,
)
from rotavg import power_matrix
from rotavg.power_matrix import _FLAT_OPS
from rotavg.propositions import _compositions

IDENT3 = PowerMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def brute_force_canonical(flat):
    """The least of flat's 72 images, and the sign of the operations reaching it.

    The sign is 0 where opposite-signed operations reach the minimum, and +1
    throughout at even rank.  Shares nothing with canonical_flat but the
    operations' source maps.
    """
    images = [(tuple(flat[k] for k in src), sign) for src, sign in _FLAT_OPS]
    least = min(image for image, _ in images)
    signs = {sign for image, sign in images if image == least}
    if not sum(flat) & 1:
        return least, 1
    return least, signs.pop() if len(signs) == 1 else 0


class TestPowerMatrix:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            PowerMatrix(((1, -1, 0), (0, 0, 0), (0, 0, 0)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            PowerMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            PowerMatrix.from_flat((1, 2, 3))
        with pytest.raises(ValueError):
            PowerMatrix([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError):
            PowerMatrix([[1, 0, 0], [0, 1], [0, 0, 1]])
        # a non-iterable once raised TypeError from from_rows and from_flat
        with pytest.raises(ValueError):
            PowerMatrix(5)
        with pytest.raises(ValueError):
            PowerMatrix.from_rows(5)
        with pytest.raises(ValueError):
            PowerMatrix.from_flat(5)

    @pytest.mark.parametrize("entry", [1.0, 1.7, True, "1", None])
    def test_rejects_non_integer_entries(self, entry):
        with pytest.raises(ValueError):
            PowerMatrix(((entry, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_str(self):
        assert str(IDENT3) == "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"

    def test_flat_and_rank(self):
        chi = PowerMatrix(((1, 2, 3), (4, 5, 6), (7, 8, 9)))
        assert chi.flat == (1, 2, 3, 4, 5, 6, 7, 8, 9)
        assert chi.rank == 45

    def test_trusted_matches_validated(self):
        flat = (1, 2, 3, 4, 5, 6, 7, 8, 9)
        validated, trusted = PowerMatrix.from_flat(flat), PowerMatrix._trusted(flat)
        assert validated == trusted
        assert hash(validated) == hash(trusted)
        assert validated.rows == trusted.rows == ((1, 2, 3), (4, 5, 6), (7, 8, 9))
        assert PowerMatrix(rows=trusted.rows) == trusted

    def test_json_round_trip(self):
        chi = PowerMatrix(((0, 0, 0), (1, 1, 2), (1, 1, 2)))
        assert PowerMatrix.from_rows(json.loads(json.dumps(chi.to_lists()))) == chi


class TestMultiIndex:
    def test_single_factor(self):
        assert from_multi_index(MultiIndex((1,), (1,))).rows == ((1, 0, 0), (0, 0, 0), (0, 0, 0))

    def test_empty_product(self):
        chi = from_multi_index(MultiIndex((), ()))
        assert chi.rank == 0

    def test_tally(self):
        chi = from_multi_index(MultiIndex((2, 3, 2), (3, 2, 3)))
        assert chi.rows == ((0, 0, 0), (0, 0, 2), (0, 1, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            MultiIndex((1, 2), (1,))

    def test_index_range(self):
        with pytest.raises(ValueError):
            MultiIndex((4,), (1,))
        # axis lists that are not sequences once raised TypeError
        for lab, mol in [(5, (1,)), (None, None), ((1,), 1)]:
            with pytest.raises(ValueError):
                MultiIndex(lab, mol)

    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=12))
    def test_rank_matches_length(self, pairs):
        labs = tuple(p[0] for p in pairs)
        mols = tuple(p[1] for p in pairs)
        assert from_multi_index(MultiIndex(labs, mols)).rank == len(pairs)


class TestSelectionRule:
    def test_permutation_matrix_passes(self):
        assert selection_rule(IDENT3)

    def test_odd_columns_fail_at_even_rank(self):
        assert not selection_rule(PowerMatrix(((1, 1, 0), (0, 0, 0), (0, 0, 0))))

    def test_rank8_exception_still_passes(self):
        assert selection_rule(PowerMatrix(((0, 0, 0), (1, 1, 2), (1, 1, 2))))

    @given(power_matrices(), symmetry_ops)
    def test_invariant_under_symmetries(self, chi, op):
        assert selection_rule(apply_symmetry(chi, op)) == selection_rule(chi)

    def test_four_checks_match_the_six_check_definition(self):
        # the rule skips the third row and column, whose parity follows
        for n in range(11):
            for chi in enumerate_power_matrices(n):
                f = chi.flat
                lines = (f[0:3], f[3:6], f[6:9], f[0::3], f[1::3], f[2::3])
                assert selection_rule(chi) == all(sum(line) & 1 == n & 1 for line in lines), f


class TestDeterminant:
    def test_identity(self):
        assert determinant(IDENT3) == 1

    def test_rank9_exception_is_singular(self):
        assert determinant(PowerMatrix(((1, 1, 1), (1, 2, 0), (1, 0, 2)))) == 0

    def test_diagonal(self):
        assert determinant(PowerMatrix(((3, 0, 0), (0, 1, 0), (0, 0, 1)))) == 3

    @given(power_matrices())
    def test_row_swap_flips_sign(self, chi):
        swapped = apply_symmetry(chi, SymmetryOp((1, 0, 2), (0, 1, 2)))
        assert determinant(swapped) == -determinant(chi)

    @given(power_matrices())
    def test_transpose_invariant(self, chi):
        transposed = apply_symmetry(chi, SymmetryOp((0, 1, 2), (0, 1, 2), transpose=True))
        assert determinant(transposed) == determinant(chi)


class TestSymmetryGroup:
    def test_identity_op(self):
        chi = PowerMatrix(((1, 2, 0), (0, 0, 3), (0, 1, 0)))
        assert apply_symmetry(chi, IDENTITY_OP) == chi

    def test_rejects_non_permutation_op(self):
        with pytest.raises(ValueError):
            apply_symmetry(IDENT3, SymmetryOp((0, 0, 1), (0, 1, 2)))

    def test_transpose(self):
        chi = PowerMatrix(((0, 1, 0), (0, 0, 0), (0, 0, 0)))
        out = apply_symmetry(chi, SymmetryOp((0, 1, 2), (0, 1, 2), transpose=True))
        assert out.rows == ((0, 0, 0), (1, 0, 0), (0, 0, 0))

    def test_row_swap(self):
        out = apply_symmetry(IDENT3, SymmetryOp((1, 0, 2), (0, 1, 2)))
        assert out.rows == ((0, 1, 0), (1, 0, 0), (0, 0, 1))

    def test_group_is_closed_with_order_72(self):
        assert len(set(ALL_OPS)) == 72
        composites = {a.then(b) for a in ALL_OPS for b in ALL_OPS}
        assert composites == set(ALL_OPS)

    def test_then_matches_two_applications_for_every_pair(self):
        # nine distinct entries, so an image names the op that made it
        chi = PowerMatrix.from_flat(range(9))
        for a in ALL_OPS:
            once = apply_symmetry(chi, a)
            for b in ALL_OPS:
                assert apply_symmetry(once, b) == apply_symmetry(chi, a.then(b)), (a, b)

    @pytest.mark.parametrize("bad", [SymmetryOp((0, 0, 1), (0, 1, 2)), SymmetryOp([1, 0, 2], [0, 1, 2])])
    def test_then_rejects_an_op_outside_the_72(self, bad):
        # the hand-written composition once returned an op for both; list perms
        # made apply_symmetry raise a TypeError, since they do not hash
        with pytest.raises(ValueError):
            bad.then(IDENTITY_OP)
        with pytest.raises(ValueError):
            IDENTITY_OP.then(bad)
        with pytest.raises(ValueError):
            apply_symmetry(IDENT3, bad)

    @given(symmetry_ops, symmetry_ops)
    def test_sign_is_multiplicative(self, a, b):
        assert a.then(b).sign == a.sign * b.sign

    @given(power_matrices(), symmetry_ops, symmetry_ops)
    def test_composition_matches_sequential_application(self, chi, a, b):
        assert apply_symmetry(apply_symmetry(chi, a), b) == apply_symmetry(chi, a.then(b))


class TestCanonicalize:
    def test_row_swapped_identity_shares_representative(self):
        swapped = PowerMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
        assert canonicalize(swapped).representative == canonicalize(IDENT3).representative

    def test_representative_is_orbit_minimum(self):
        chi = PowerMatrix(((0, 0, 0), (1, 1, 2), (1, 1, 2)))
        form = canonicalize(chi)
        assert form.representative == min(orbit(chi), key=lambda m: m.flat)

    def test_already_minimal_keeps_positive_sign(self):
        chi = PowerMatrix(((0, 0, 1), (0, 1, 0), (1, 0, 0)))
        form = canonicalize(chi)
        assert form.representative == chi
        assert form.sign == 1

    def test_equal_rows_at_odd_rank_give_sign_zero(self):
        chi = PowerMatrix(((1, 1, 1), (1, 1, 1), (1, 0, 2)))
        assert canonicalize(chi).sign == 0

    def test_even_rank_sign_is_one(self):
        chi = PowerMatrix(((2, 0, 0), (0, 0, 0), (0, 0, 0)))
        assert canonicalize(chi).sign == 1

    @given(power_matrices(), symmetry_ops)
    def test_representative_is_orbit_invariant(self, chi, op):
        moved = apply_symmetry(chi, op)
        assert canonicalize(moved).representative == canonicalize(chi).representative

    @given(power_matrices(max_rank=4))
    def test_orbit_size_divides_group_order(self, chi):
        assert 72 % len(orbit(chi)) == 0


class TestCanonicalLayer:
    """canonical_flat and is_orbit_minimum against the 72-image brute force.

    Both are called through the module, so a test that patches them there
    reaches these checks.
    """

    @pytest.mark.parametrize("n", range(10))
    def test_every_flat_through_rank_9(self, n):
        # is_orbit_minimum sees every flat too, also those whose first entry
        # is not their least, which the canonical walk never asks about
        first_not_least = 0
        for flat in _compositions(n, 9):
            expected = brute_force_canonical(flat)
            assert power_matrix.canonical_flat(flat) == expected, flat
            assert power_matrix.is_orbit_minimum(flat) == (expected[0] == flat), flat
            first_not_least += flat[0] > min(flat)
        assert first_not_least or n == 0

    def test_a_seeded_sample_at_ranks_20_to_60(self):
        # random flats, some with two equal rows or columns or made symmetric,
        # so ties at the minimum and signs of 0 come up too
        rng = random.Random(2060)
        signs = set()
        checked = 0
        while checked < 400:
            flat = [rng.randint(0, 7) for _ in range(9)]
            shape = rng.randrange(4)
            if shape == 1:
                flat[3:6] = flat[0:3]
            elif shape == 2:
                flat[2::3] = flat[1::3]
            elif shape == 3:
                flat = [flat[3 * (k % 3) + k // 3] if k % 3 < k // 3 else flat[k] for k in range(9)]
            flat = tuple(flat)
            if not 20 <= sum(flat) <= 60:
                continue
            expected = brute_force_canonical(flat)
            assert power_matrix.canonical_flat(flat) == expected, flat
            assert power_matrix.is_orbit_minimum(flat) == (expected[0] == flat), flat
            assert power_matrix.is_orbit_minimum(expected[0]), flat
            signs.add(expected[1] if sum(flat) & 1 else None)
            checked += 1
        assert signs == {-1, 0, 1, None}
