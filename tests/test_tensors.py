import itertools
import json
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from rotavg import (
    AngleTriple,
    DenseTensor,
    MultiIndex,
    RankLimitError,
    average_component,
    average_tensor,
    euler_matrix,
    evaluate,
    from_multi_index,
    group_by_power_matrix,
)


def brute_force_component(lab, tensor):
    """Independent oracle: the raw sum over all 3^n molecular tuples."""
    total = tensor.zero
    for mol in itertools.product((1, 2, 3), repeat=tensor.rank):
        value = tensor[mol]
        if not value:
            continue
        weight = evaluate(from_multi_index(MultiIndex(tuple(lab), mol)))
        total += weight * value if tensor.mode == "exact" else float(weight) * value
    return total


def levi_civita():
    eps = {}
    for perm in itertools.permutations((1, 2, 3)):
        sign = 1
        p = list(perm)
        for a in range(3):
            for b in range(a + 1, 3):
                if p[a] > p[b]:
                    sign = -sign
        eps[perm] = sign
    return eps


rational_values = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 9)
)


def rank2_tensors():
    idx = list(itertools.product((1, 2, 3), repeat=2))
    return st.builds(
        lambda values: DenseTensor(rank=2, components=dict(zip(idx, values))),
        st.lists(rational_values, min_size=9, max_size=9),
    )


class TestDenseTensor:
    def test_drops_explicit_zeros(self):
        t = DenseTensor(rank=1, components={(1,): 0, (2,): 5})
        assert t.components == {(2,): Fraction(5)}

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            DenseTensor(rank=2, components={(1, 4): 1})
        with pytest.raises(ValueError):
            DenseTensor(rank=2, components={(1,): 1})

    def test_exact_mode_rejects_floats(self):
        with pytest.raises(ValueError):
            DenseTensor(rank=1, components={(1,): 0.5})

    def test_float_mode_rejects_strings(self):
        with pytest.raises(ValueError):
            DenseTensor(rank=1, mode="float", components={(1,): "1/2"})

    def test_json_round_trip_exact(self):
        t = DenseTensor(rank=2, components={(1, 1): Fraction(1, 3), (2, 3): -2})
        obj = json.loads(json.dumps(t.to_json_obj()))
        assert DenseTensor.from_json_obj(obj) == t
        assert len(obj["components"]) == 9  # dense by default

    def test_json_nonzero_only(self):
        t = DenseTensor(rank=2, components={(1, 1): 1})
        assert len(t.to_json_obj(nonzero_only=True)["components"]) == 1

    def test_duplicate_indices_rejected(self):
        obj = {
            "rank": 1,
            "mode": "exact",
            "components": [{"idx": [1], "value": "1"}, {"idx": [1], "value": "2"}],
        }
        with pytest.raises(ValueError):
            DenseTensor.from_json_obj(obj)

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor.from_json_obj({"rank": 1})


class TestAverageComponent:
    def test_rank_mismatch(self):
        t = DenseTensor(rank=2, components={(1, 1): 1})
        with pytest.raises(ValueError):
            average_component((1,), t)

    @pytest.mark.parametrize("lab", [(0, 1), (1, 4), (1.0, 1), (True, 1)])
    def test_lab_axes_validated(self, lab):
        # axes 0 and 4 once indexed the wrong matrix cell and returned a value
        t = DenseTensor(rank=2, components={(1, 1): 1, (2, 2): 1})
        with pytest.raises(ValueError):
            average_component(lab, t)
        with pytest.raises(ValueError):
            group_by_power_matrix(lab, 2)

    def test_identity_lab_11(self):
        delta = DenseTensor(rank=2, components={(1, 1): 1, (2, 2): 1, (3, 3): 1})
        assert average_component((1, 1), delta) == 1

    @given(rank2_tensors())
    @settings(deadline=None, max_examples=25)
    def test_rank2_reduces_to_trace_rule(self, t):
        trace3 = sum(t[(i, i)] for i in (1, 2, 3)) / 3
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                expected = trace3 if i == j else Fraction(0)
                assert average_component((i, j), t) == expected
                assert brute_force_component((i, j), t) == expected

    def test_levi_civita_contraction(self):
        t = DenseTensor(rank=3, components=levi_civita())
        assert average_component((1, 2, 3), t) == 1
        assert brute_force_component((1, 2, 3), t) == 1

    @given(rank2_tensors())
    @settings(deadline=None, max_examples=25)
    def test_grouped_equals_brute_force(self, t):
        for lab in [(1, 1), (1, 2), (3, 3)]:
            assert average_component(lab, t) == brute_force_component(lab, t)


class TestAverageTensor:
    def test_rank0_scalar_is_fixed(self):
        t = DenseTensor(rank=0, components={(): Fraction(7, 2)})
        assert average_tensor(t)[()] == Fraction(7, 2)

    def test_rank1_vanishes(self):
        t = DenseTensor(rank=1, components={(1,): 5, (2,): -2, (3,): 1})
        assert average_tensor(t).components == {}

    def test_rank3_is_levi_civita_projection(self):
        eps = levi_civita()
        rng_components = {(1, 2, 3): 4, (2, 1, 3): 1, (1, 1, 2): 7, (3, 3, 3): -2}
        t = DenseTensor(rank=3, components=rng_components)
        eps_contraction = sum(eps[p] * t[p] for p in eps)
        out = average_tensor(t)
        for idx in DenseTensor.index_space(3):
            expected = Fraction(eps.get(idx, 0)) * eps_contraction / 6
            assert out[idx] == expected

    def test_rank_limit(self):
        t = DenseTensor(rank=3, components={(1, 2, 3): 1})
        with pytest.raises(RankLimitError):
            average_tensor(t, max_rank=2)

    @given(rank2_tensors(), rank2_tensors(), rational_values, rational_values)
    @settings(deadline=None, max_examples=20)
    def test_linearity(self, s, t, a, b):
        combined = DenseTensor(
            rank=2,
            components={
                idx: a * s[idx] + b * t[idx] for idx in DenseTensor.index_space(2)
            },
        )
        left = average_tensor(combined)
        avg_s, avg_t = average_tensor(s), average_tensor(t)
        for idx in DenseTensor.index_space(2):
            assert left[idx] == a * avg_s[idx] + b * avg_t[idx]

    @given(rank2_tensors())
    @settings(deadline=None, max_examples=20)
    def test_idempotence(self, t):
        once = average_tensor(t)
        assert average_tensor(once) == once

    def test_idempotence_rank3(self):
        t = DenseTensor(rank=3, components={(1, 2, 3): 2, (2, 2, 2): 5})
        once = average_tensor(t)
        assert average_tensor(once) == once

    def test_rotation_invariance_float_mode(self):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((3, 3, 3))
        h = euler_matrix(AngleTriple(0.7, 2.0, 5.1))
        rotated = np.einsum("al,bm,cn,lmn->abc", h, h, h, dense)

        def as_tensor(arr):
            comps = {
                (i + 1, j + 1, k + 1): float(arr[i, j, k])
                for i in range(3)
                for j in range(3)
                for k in range(3)
            }
            return DenseTensor(rank=3, mode="float", components=comps)

        out_plain = average_tensor(as_tensor(dense))
        out_rotated = average_tensor(as_tensor(rotated))
        for idx in DenseTensor.index_space(3):
            assert abs(out_plain[idx] - out_rotated[idx]) <= 1e-10


class TestGrouping:
    def test_rank1_three_singletons(self):
        groups = group_by_power_matrix((1,), 1)
        assert len(groups) == 3
        assert all(len(g.members) == 1 for g in groups)

    def test_rank2_partition(self):
        groups = group_by_power_matrix((1, 1), 2)
        assert len(groups) == 6
        assert sum(len(g.members) for g in groups) == 9

    @given(st.integers(0, 3), st.data())
    def test_partition_covers_index_space(self, rank, data):
        lab = tuple(data.draw(st.integers(1, 3)) for _ in range(rank))
        groups = group_by_power_matrix(lab, rank)
        members = [m for g in groups for m in g.members]
        assert len(members) == 3**rank
        assert len(set(members)) == 3**rank
        assert all(g.power_matrix.rank == rank for g in groups)
