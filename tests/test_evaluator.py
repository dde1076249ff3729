from fractions import Fraction

import pytest
from hypothesis import given, settings

import itertools

from conftest import power_matrices, selection_passing, selection_passing_past_rank8, symmetry_ops
from rotavg import (
    ALL_OPS,
    PiCancellationError,
    PiRational,
    PowerMatrix,
    ValueCache,
    apply_symmetry,
    beta_half_args,
    beta_path,
    canonicalize,
    closed_form,
    determinant,
    double_factorial,
    evaluate,
    quadrature_average,
    selection_rule,
    special_no_upper_block,
    special_q1,
    threej000_squared,
    trig_powers,
)

IDENT3 = PowerMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
ZERO = PowerMatrix(((0, 0, 0), (0, 0, 0), (0, 0, 0)))
RANK8_ZERO = PowerMatrix(((0, 0, 0), (1, 1, 2), (1, 1, 2)))
RANK9_NONZERO = PowerMatrix(((1, 1, 1), (1, 2, 0), (1, 0, 2)))

# value of RANK9_NONZERO; the quadrature oracle puts the average at
# 0.001587301587... (see test_oracle), which pins this rational to 1/630
RANK9_VALUE = Fraction(1, 630)


class TestDoubleFactorial:
    @pytest.mark.parametrize("k,expected", [(-1, 1), (0, 1), (1, 1), (5, 15), (8, 384)])
    def test_values(self, k, expected):
        assert double_factorial(k) == expected

    def test_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            double_factorial(-2)


class TestTrigPowers:
    @given(power_matrices(max_rank=5))
    def test_nonnegative_on_the_summand_range(self, chi):
        Q, R, _, T, U, *_ = chi.flat
        for q, r, t, u in itertools.product(
            range(Q + 1), range(R + 1), range(T + 1), range(U + 1)
        ):
            p = trig_powers(chi, q, r, t, u)
            assert min(p) >= 0
            assert p.c_beta + p.s_beta == chi.rank + 1 - (q + r + t + u)

    @given(selection_passing)
    def test_sin_beta_power_is_odd_under_selection_rule(self, chi):
        assert trig_powers(chi, 0, 0, 0, 0).s_beta % 2 == 1


class TestClosedForm:
    def test_empty_product_averages_to_one(self):
        assert closed_form(ZERO) == 1

    def test_identity_permutation(self):
        assert closed_form(IDENT3) == Fraction(1, 6)

    def test_rank5_diagonal(self):
        assert closed_form(PowerMatrix(((3, 0, 0), (0, 1, 0), (0, 0, 1)))) == Fraction(1, 10)

    def test_squared_cosine(self):
        assert closed_form(PowerMatrix(((2, 0, 0), (0, 0, 0), (0, 0, 0)))) == Fraction(1, 3)

    def test_rank8_exception_vanishes(self):
        assert selection_rule(RANK8_ZERO)
        assert closed_form(RANK8_ZERO) == 0

    def test_rank9_exception_survives_zero_determinant(self):
        assert determinant(RANK9_NONZERO) == 0
        assert closed_form(RANK9_NONZERO) == RANK9_VALUE

    def test_requires_selection_rule(self):
        with pytest.raises(ValueError):
            closed_form(PowerMatrix(((1, 1, 0), (0, 0, 0), (0, 0, 0))))


class TestPiRational:
    def test_zero_normalizes_pi_power(self):
        assert PiRational(Fraction(0), 5).pi_power == 0

    def test_addition_needs_matching_pi_powers(self):
        with pytest.raises(ValueError):
            PiRational(Fraction(1), 1) + PiRational(Fraction(1), 0)

    def test_zero_is_neutral(self):
        x = PiRational(Fraction(2, 3), 2)
        assert PiRational(Fraction(0)) + x == x

    def test_as_fraction_raises_on_residual_pi(self):
        with pytest.raises(PiCancellationError):
            PiRational(Fraction(1), 1).as_fraction()

    @pytest.mark.parametrize(
        "a,b,coeff,power",
        [
            (0, 0, Fraction(1), 1),      # B(1/2, 1/2) = pi
            (1, 1, Fraction(1), 0),      # B(1, 1) = 1
            (2, 0, Fraction(1, 2), 1),   # B(3/2, 1/2) = pi/2
            (1, 2, Fraction(2, 3), 0),   # B(1, 3/2) = 2/3
        ],
    )
    def test_beta_values(self, a, b, coeff, power):
        assert beta_half_args(a, b) == PiRational(coeff, power)

    @pytest.mark.parametrize("a,b", [(-1, 0), (0, -1), (1.5, 0), (True, 0), (0, "1")])
    def test_beta_rejects_bad_arguments(self, a, b):
        # 1.5 once raised a TypeError from a list index, and True read as 1
        with pytest.raises(ValueError):
            beta_half_args(a, b)


class TestBetaPath:
    def test_all_summands_vanish_without_selection_rule(self):
        result = beta_path(PowerMatrix(((1, 1, 0), (0, 0, 0), (0, 0, 0))))
        assert result.coefficient == 0 and result.pi_power == 0

    def test_empty_product(self):
        assert beta_path(ZERO).as_fraction() == 1

    def test_identity_permutation(self):
        assert beta_path(IDENT3).as_fraction() == Fraction(1, 6)

    @given(selection_passing)
    @settings(deadline=None)
    def test_agrees_with_closed_form(self, chi):
        result = beta_path(chi)
        assert result.pi_power == 0
        assert result.coefficient == closed_form(chi)

    @given(power_matrices(max_rank=5))
    @settings(deadline=None)
    def test_vanishes_whenever_selection_rule_fails(self, chi):
        if not selection_rule(chi):
            assert beta_path(chi).coefficient == 0


class TestPastRank8:
    """closed_form against the independent routes at ranks 9-16, past the exhaustive sweeps."""

    @given(selection_passing_past_rank8())
    @settings(deadline=None, max_examples=100)
    def test_beta_path_agrees(self, chi):
        assert 9 <= chi.rank <= 16 and selection_rule(chi)
        result = beta_path(chi)
        assert result.pi_power == 0
        assert result.coefficient == closed_form(chi)

    @given(selection_passing_past_rank8())
    @settings(deadline=None, max_examples=100)
    def test_quadrature_agrees(self, chi):
        assert abs(quadrature_average(chi) - float(closed_form(chi))) <= 1e-10

    @given(selection_passing_past_rank8(upper=(0, 0, 0, 0)))
    @settings(deadline=None, max_examples=100)
    def test_special_no_upper_block_agrees(self, chi):
        assert special_no_upper_block(chi) == closed_form(chi)

    @given(selection_passing_past_rank8(upper=(1, 0, 0, 0)))
    @settings(deadline=None, max_examples=100)
    def test_special_q1_agrees(self, chi):
        assert special_q1(chi) == closed_form(chi)


class TestSpecialNoUpperBlock:
    def test_squared_l33(self):
        chi = PowerMatrix(((0, 0, 0), (0, 0, 0), (0, 0, 2)))
        assert special_no_upper_block(chi) == Fraction(1, 3)

    def test_v2_x2_anchor(self):
        chi = PowerMatrix(((0, 0, 0), (0, 0, 2), (0, 2, 0)))
        assert special_no_upper_block(chi) == Fraction(2, 15)
        assert special_no_upper_block(chi) == threej000_squared(1, 1, 2)

    def test_odd_rank_is_zero(self):
        chi = PowerMatrix(((0, 0, 0), (0, 0, 1), (0, 1, 1)))
        assert special_no_upper_block(chi) == 0
        assert evaluate(chi) == 0

    def test_requires_zero_upper_block(self):
        with pytest.raises(ValueError):
            special_no_upper_block(IDENT3)

    def test_requires_selection_rule_at_even_rank(self):
        with pytest.raises(ValueError):
            special_no_upper_block(PowerMatrix(((0, 0, 1), (0, 0, 1), (0, 0, 0))))


class TestSpecialQ1:
    def test_rank3_matches_determinant_rule(self):
        chi = PowerMatrix(((1, 0, 0), (0, 0, 1), (0, 1, 0)))
        assert special_q1(chi) == closed_form(chi) == Fraction(determinant(chi), 6)

    def test_rank4_matches_closed_form(self):
        chi = PowerMatrix(((1, 0, 1), (0, 0, 0), (1, 0, 1)))
        assert special_q1(chi) == closed_form(chi)

    def test_rank5_matches_determinant_rule(self):
        chi = PowerMatrix(((1, 0, 0), (0, 0, 1), (0, 3, 0)))
        assert special_q1(chi) == Fraction(determinant(chi), 30) == closed_form(chi)

    def test_requires_q1_pattern(self):
        with pytest.raises(ValueError):
            special_q1(PowerMatrix(((2, 0, 0), (0, 0, 0), (0, 0, 0))))


class TestThreeJ:
    def test_all_zero(self):
        assert threej000_squared(0, 0, 0) == 1

    def test_one_one_two(self):
        assert threej000_squared(1, 1, 2) == Fraction(2, 15)

    def test_odd_total_vanishes(self):
        assert threej000_squared(1, 1, 1) == 0

    def test_triangle_violation_vanishes(self):
        assert threej000_squared(1, 1, 3) == 0

    def test_half_odd_arguments_vanish(self):
        assert threej000_squared(Fraction(1, 2), Fraction(1, 2), 1) == 0

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            threej000_squared(0.3, 1, 1)
        # both once returned 1/3
        with pytest.raises(ValueError):
            threej000_squared(True, True, 0)
        with pytest.raises(ValueError):
            threej000_squared("1", "1", "0")

    def test_accepts_exact_half_integer_floats(self):
        assert threej000_squared(1.0, 1.0, 2.0) == Fraction(2, 15)
        assert threej000_squared(0.5, 0.5, 1.0) == 0

    @pytest.mark.parametrize("v", [0, 2, 4])
    @pytest.mark.parametrize("x", [0, 2, 4])
    def test_matches_two_column_averages(self, v, x):
        chi = PowerMatrix(((0, 0, 0), (0, 0, v), (0, x, 0)))
        assert evaluate(chi) == threej000_squared(v // 2, x // 2, (v + x) // 2)


class TestEvaluate:
    def test_selection_rule_shortcut(self):
        assert evaluate(PowerMatrix(((1, 1, 0), (0, 0, 0), (0, 0, 0)))) == 0
        # two odd row sums at even rank, every column sum even
        assert evaluate(PowerMatrix(((2, 1, 0), (0, 0, 0), (0, 1, 0)))) == 0

    def test_row_swap_flips_rank3_sign(self):
        assert evaluate(PowerMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 1)))) == Fraction(-1, 6)

    def test_orbit_members_share_one_cache_entry(self):
        cache = ValueCache()
        a = PowerMatrix(((0, 0, 0), (1, 1, 2), (1, 1, 2)))
        b = PowerMatrix(((2, 1, 1), (0, 0, 0), (2, 1, 1)))
        assert canonicalize(a).representative == canonicalize(b).representative
        evaluate(a, cache)
        evaluate(b, cache)
        assert len(cache) == 1

    @pytest.mark.parametrize(
        "rows,values",
        [
            (((0, 0, 0), (0, 0, 2), (0, 2, 0)), {Fraction(2, 15)}),
            (((0, 1, 0), (1, 0, 0), (0, 0, 1)), {Fraction(1, 6), Fraction(-1, 6)}),
            # two equal rows at odd rank: an odd-signed symmetry fixes the matrix
            (((1, 1, 1), (1, 1, 1), (1, 1, 1)), {0}),
        ],
        ids=["even", "odd-signed", "odd-sign-zero"],
    )
    def test_one_evaluate_caches_every_image(self, rows, values):
        cache = ValueCache()
        evaluate(PowerMatrix(rows), cache)
        assert len(cache) == 1
        images = [apply_symmetry(PowerMatrix(rows), op) for op in ALL_OPS]
        assert all(cache.get(image.flat) == closed_form(image) for image in images)
        assert {cache.get(image.flat) for image in images} == values

    def test_put_keeps_a_cached_orbit(self):
        cache = ValueCache()
        evaluate(IDENT3, cache)
        cache.put((0, 1, 0, 1, 0, 0, 0, 0, 1), Fraction(5))
        assert cache.get((0, 1, 0, 1, 0, 0, 0, 0, 1)) == Fraction(-1, 6)
        assert len(cache) == 1

    def test_returns_exact_rationals(self):
        assert isinstance(evaluate(PowerMatrix(((0, 0, 0), (0, 0, 2), (0, 2, 0)))), Fraction)

    @given(selection_passing, symmetry_ops)
    @settings(deadline=None)
    def test_symmetry_action(self, chi, op):
        moved = apply_symmetry(chi, op)
        expected = evaluate(chi) if chi.rank % 2 == 0 else op.sign * evaluate(chi)
        assert evaluate(moved) == expected

    @given(power_matrices(max_rank=3))
    def test_rank3_determinant_rule_everywhere(self, chi):
        if chi.rank == 3:
            assert evaluate(chi) == Fraction(determinant(chi), 6)
