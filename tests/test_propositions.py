from fractions import Fraction
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import SELECTION_PASSING_6
from rotavg import (
    RANK8_EXCEPTION,
    RANK9_EXCEPTION,
    PowerMatrix,
    ValueCache,
    canonicalize,
    closed_form_terms,
    counterexample_family,
    determinant,
    enumerate_power_matrices,
    enumeration_count,
    evaluate,
    first_order_term,
    orbit,
    prop_converse_witnesses,
    rank_table,
    selection_rule,
    verify_even_rule,
    verify_odd_rule,
    verify_prime_nonvanishing,
)
from rotavg.power_matrix import _FLAT_OPS, _selection_flat, canonical_flat
from rotavg import evaluator
from rotavg.propositions import canonical_representatives


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 9), (4, 495)])
    def test_counts(self, n, count):
        assert enumeration_count(n) == count
        assert sum(1 for _ in enumerate_power_matrices(n)) == count

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            enumeration_count(-1)
        with pytest.raises(ValueError):
            list(enumerate_power_matrices(-1))

    @pytest.mark.parametrize("n", [True, 1.0, 2.5, "1"])
    def test_rejects_non_integer_rank(self, n):
        # True once counted and walked rank 1
        with pytest.raises(ValueError):
            enumeration_count(n)
        with pytest.raises(ValueError):
            list(enumerate_power_matrices(n))
        with pytest.raises(ValueError):
            list(rank_table(n))
        with pytest.raises(ValueError):
            canonical_representatives(n)

    def test_lexicographic_order_and_uniqueness(self):
        flats = [chi.flat for chi in enumerate_power_matrices(3)]
        assert flats == sorted(flats)
        assert len(set(flats)) == len(flats)
        assert flats[0] == (0, 0, 0, 0, 0, 0, 0, 0, 3)
        assert flats[-1] == (3, 0, 0, 0, 0, 0, 0, 0, 0)

    @given(st.integers(0, 7))
    @settings(deadline=None, max_examples=8)
    def test_count_formula(self, n):
        assert sum(1 for _ in enumerate_power_matrices(n)) == comb(n + 8, 8)

    def test_count_formula_at_rank_14(self):
        assert sum(1 for _ in enumerate_power_matrices(14)) == comb(22, 8)

    def test_representative_counts_match_burnside(self):
        # Burnside: orbits = (1/72) sum over ops g of the flats g fixes.  A
        # flat is fixed iff it is constant on each cycle of g's source map,
        # so fix_n(g) counts the ways to write n as a sum of cycle lengths
        # times nonnegative counts: coin change, without is_orbit_minimum
        top = 14
        total = [0] * (top + 1)
        for src, _ in _FLAT_OPS:
            lengths, seen = [], set()
            for start in range(9):
                k, length = start, 0
                while k not in seen:
                    seen.add(k)
                    k, length = src[k], length + 1
                if length:
                    lengths.append(length)
            ways = [1] + [0] * top
            for length in lengths:
                for m in range(length, top + 1):
                    ways[m] += ways[m - length]
            total = [t + w for t, w in zip(total, ways)]
        assert len(_FLAT_OPS) == 72 and all(t % 72 == 0 for t in total)
        burnside = [t // 72 for t in total]
        assert burnside == [1, 1, 3, 7, 16, 32, 68, 126, 238, 422, 730, 1214, 1984, 3128, 4848]
        assert [len(canonical_representatives(n)) for n in range(top + 1)] == burnside

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_orbit_sizes_partition_the_rank(self, n):
        total = sum(len(orbit(chi)) for chi in canonical_representatives(n))
        assert total == enumeration_count(n)


class TestOrbitScan:
    def test_matches_canonical_flat_through_rank_11(self):
        # rank_table's look-ahead walk gives every flat its orbit's signed value
        cache = ValueCache()
        sign_zero_at_odd_rank = 0
        for n in range(12):
            flats = []
            for chi, value in rank_table(n, cache):
                flats.append(chi.flat)
                assert value == evaluate(chi, cache)
                if _selection_flat(chi.flat) and canonical_flat(chi.flat)[1] == 0:
                    assert value == 0
                    sign_zero_at_odd_rank += n % 2
            assert flats == sorted(set(flats))
            assert len(flats) == enumeration_count(n)
        assert sign_zero_at_odd_rank > 0

    @pytest.mark.parametrize("n", [3, 8, 9])
    def test_representatives_are_the_canonical_fixed_points(self, n):
        expected = [chi for chi in enumerate_power_matrices(n) if canonical_flat(chi.flat)[0] == chi.flat]
        assert canonical_representatives(n) == expected


class TestEvenRule:
    def test_rank4_holds(self, cache):
        report = verify_even_rule(4, cache)
        assert report.verdict == "holds"
        assert report.checked == 495
        assert report.violations == []

    def test_rank0_holds(self, cache):
        assert verify_even_rule(0, cache).verdict == "holds"

    def test_rank8_fails_on_exactly_one_orbit(self, cache):
        report = verify_even_rule(8, cache)
        assert report.verdict == "fails-with-witnesses"
        assert report.violations == [canonicalize(RANK8_EXCEPTION).representative]

    def test_rejects_odd_rank(self):
        with pytest.raises(ValueError):
            verify_even_rule(3)

    def test_rank8_matches_independent_rescan(self, cache):
        # same verdict from a reversed-order scan straight through evaluate()
        expected = set()
        for chi in reversed(list(enumerate_power_matrices(8))):
            if selection_rule(chi) and evaluate(chi, cache) == 0:
                expected.add(canonicalize(chi).representative)
        assert set(verify_even_rule(8, cache).violations) == expected


class TestOddRule:
    def test_rank3_holds_and_values_follow_determinant(self, cache):
        report = verify_odd_rule(3, cache)
        assert report.verdict == "holds"
        for chi in enumerate_power_matrices(3):
            if selection_rule(chi):
                assert evaluate(chi, cache) == Fraction(determinant(chi), 6)

    def test_rank9_fails_on_exactly_one_orbit(self, cache):
        report = verify_odd_rule(9, cache)
        assert report.violations == [canonicalize(RANK9_EXCEPTION).representative]

    def test_rejects_even_rank(self):
        with pytest.raises(ValueError):
            verify_odd_rule(4)

    def test_rejects_bool_rank(self):
        # True once walked rank 1 and reported "rank": true
        with pytest.raises(ValueError):
            verify_odd_rule(True)

    @pytest.mark.parametrize(
        "sweep,n",
        [
            (verify_even_rule, "2"),
            (verify_odd_rule, "1"),
            (verify_prime_nonvanishing, "7"),
            (prop_converse_witnesses, "7"),
        ],
    )
    def test_sweeps_reject_string_ranks(self, sweep, n):
        # each once raised TypeError from n % 2 or n < 3 before the rank was checked
        with pytest.raises(ValueError, match=f"^rank must be an integer, not '{n}'$"):
            sweep(n)

    def test_prime_rank7_nonvanishing(self, cache):
        report = verify_prime_nonvanishing(7, cache)
        assert report.verdict == "holds"

    @pytest.mark.parametrize("n", [3, 5])
    def test_sweeps_check_the_closed_form_at_determinant_ranks(self, n, monkeypatch):
        # the determinant laws at ranks 3 and 5 are facts about the closed
        # form; evaluate and the sweeps must reach it, or comparing their
        # values with the determinant proves nothing
        real = evaluator.closed_form
        calls = []

        def counted(chi):
            calls.append(chi.flat)
            return real(chi)

        def flipped(chi):
            return Fraction(0) if real(chi) else Fraction(1)

        def law(chi):
            return Fraction(determinant(chi), 6 if n == 3 else 30)

        passing = [chi for chi in enumerate_power_matrices(n) if selection_rule(chi)]
        monkeypatch.setattr(evaluator, "closed_form", counted)
        for sweep in (verify_odd_rule, verify_prime_nonvanishing, prop_converse_witnesses):
            calls.clear()
            sweep(n, ValueCache())
            assert calls, sweep.__name__
        calls.clear()
        cache = ValueCache()
        assert all(evaluate(chi, cache) == law(chi) for chi in passing)
        assert calls
        monkeypatch.setattr(evaluator, "closed_form", flipped)
        assert verify_odd_rule(n, ValueCache()).verdict == "fails-with-witnesses"
        assert verify_prime_nonvanishing(n, ValueCache()).verdict == "fails-with-witnesses"
        # a flipped closed form shows on every matrix no odd symmetry zeroes
        cache = ValueCache()
        reached = [chi for chi in passing if canonical_flat(chi.flat)[1] != 0]
        assert reached
        assert all(evaluate(chi, cache) != law(chi) for chi in reached)

    def test_prime_check_rejects_composites(self):
        with pytest.raises(ValueError):
            verify_prime_nonvanishing(9)

    @pytest.mark.parametrize("n", [3, 5])
    def test_no_converse_witnesses_at_tiny_primes(self, n, cache):
        assert prop_converse_witnesses(n, cache) == []


class TestCounterexampleFamily:
    def test_smallest_member_is_the_rank8_exception(self):
        assert counterexample_family(2, 2, 1) == RANK8_EXCEPTION

    def test_rank_formula(self):
        assert counterexample_family(2, 4, 3).rank == 14
        assert counterexample_family(4, 4, 7).rank == 24

    @pytest.mark.parametrize(
        "v,y,w", [(1, 2, 1), (2, 3, 1), (2, 2, 2), (2, 2, 3), (2, 2, -1)]
    )
    def test_parameter_validation(self, v, y, w):
        with pytest.raises(ValueError):
            counterexample_family(v, y, w)

    @pytest.mark.parametrize("position,name", [(0, "v"), (1, "y"), (2, "w")])
    @pytest.mark.parametrize("kind", [str, float, bool])
    def test_parameters_must_be_integers(self, position, name, kind):
        # "2" once raised TypeError, True once read as 1, and 2.0 passed the range checks
        args = [2, 2, 1]
        args[position] = kind(args[position])
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not "):
            counterexample_family(*args)

    def test_members_satisfy_selection_rule_but_vanish(self, cache):
        for v, y, w in [(2, 2, 1), (2, 4, 1), (4, 2, 3)]:
            chi = counterexample_family(v, y, w)
            assert selection_rule(chi)
            assert evaluate(chi, cache) == 0


class TestFirstOrderTerm:
    @staticmethod
    def extracted(chi):
        return sum(
            (term for (q, r, t, u), term in closed_form_terms(chi) if q + r + t + u == 1),
            Fraction(0),
        )

    def test_identity_rank3(self):
        chi = PowerMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert first_order_term(chi) == self.extracted(chi)

    def test_all_rank5_matches_extraction(self):
        for chi in SELECTION_PASSING_6:
            if chi.rank == 5:
                assert first_order_term(chi) == self.extracted(chi)

    def test_vanishing_bracket(self):
        ones = PowerMatrix(((1, 1, 1), (1, 1, 1), (1, 1, 1)))
        assert determinant(ones) == 9 * (1 * 1 - 1 * 1) == 0
        assert first_order_term(ones) == 0 == self.extracted(ones)

    def test_requires_odd_rank_and_selection_rule(self):
        with pytest.raises(ValueError):
            first_order_term(PowerMatrix(((2, 0, 0), (0, 0, 0), (0, 0, 0))))
        with pytest.raises(ValueError):
            first_order_term(PowerMatrix(((3, 0, 0), (0, 0, 0), (0, 0, 0))))


class TestRankTable:
    def test_matches_evaluate_everywhere(self, cache):
        for chi, value in rank_table(4, ValueCache()):
            assert value == evaluate(chi, cache)

    def test_matches_evaluate_at_determinant_ranks(self, cache):
        for chi, value in rank_table(3, ValueCache()):
            assert value == evaluate(chi, cache)

    def test_nonzero_filter(self):
        rows = list(rank_table(2, ValueCache(), nonzero=True))
        assert len(rows) == 9
        assert all(value == Fraction(1, 3) for _, value in rows)

    def test_canonical_filter(self, cache):
        # the walk's minima against is_orbit_minimum's, and its values against evaluate
        for n in range(12):
            expected = [(chi, evaluate(chi, cache)) for chi in canonical_representatives(n)]
            for nonzero in (False, True):
                rows = list(rank_table(n, ValueCache(), nonzero=nonzero, canonical_only=True))
                assert rows == [(chi, value) for chi, value in expected if not nonzero or value]

    def test_thread_count_does_not_change_rows(self):
        single = list(rank_table(6, ValueCache(), threads=1))
        pooled = list(rank_table(6, ValueCache(), threads=4))
        assert single == pooled

    def test_report_json_shape(self, cache):
        obj = verify_even_rule(8, cache).to_json_obj()
        assert obj["rank"] == 8
        assert obj["verdict"] == "fails-with-witnesses"
        assert obj["violations"] == [canonicalize(RANK8_EXCEPTION).representative.to_lists()]
