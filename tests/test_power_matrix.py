import json

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

IDENT3 = PowerMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


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
