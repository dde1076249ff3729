import itertools
import json
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import nonzero_sign_minima

import rotavg
import rotavg.cli
from rotavg import (
    AngleTriple,
    DenseTensor,
    MultiIndex,
    PowerMatrix,
    RankLimitError,
    ValueCache,
    average_component,
    average_tensor,
    euler_matrix,
    evaluate,
    from_multi_index,
    group_by_power_matrix,
)
from rotavg.power_matrix import _pair_flat


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


def reference_average_tensor(tensor):
    """The per-lab loop the pair-code kernel replaced, kept as its reference.

    Per lab tuple it sums the stored values of each exponent-matrix group in
    component order, then adds weight * partial over the groups in flat
    order, so float results must match the kernel bit for bit.
    """
    out, weights = {}, {}
    for lab in itertools.product((1, 2, 3), repeat=tensor.rank):
        if any(lab.count(axis) % 2 != tensor.rank % 2 for axis in (1, 2, 3)):
            continue  # the selection rule fails for every molecular tuple
        group_sums = {}
        for mol, value in tensor.components.items():
            key = [0] * 9
            for i, m in zip(lab, mol):
                key[3 * (i - 1) + (m - 1)] += 1
            key = tuple(key)
            group_sums[key] = group_sums.get(key, tensor.zero) + value
        result = tensor.zero
        for flat, partial in sorted(group_sums.items()):
            if flat not in weights:
                weights[flat] = evaluate(PowerMatrix.from_flat(flat))
            weight = weights[flat]
            if weight == 0:
                continue
            result += weight * partial if tensor.mode == "exact" else float(weight) * partial
        if result:
            out[lab] = result
    return out


def seeded_tensor(rank, mode, density, seed, wide=False):
    """A tensor with about density * 3^rank stored components and seeded values.

    Values come from small pools with opposite-signed pairs, so exponent
    groups and whole lab components often cancel to zero.  A wide float
    pool adds values near 1e300 and subnormals.
    """
    rng = random.Random(seed)
    if mode == "exact":
        pool = [Fraction(p, q) for p in (-3, -1, 1, 2, 3) for q in (1, 2, 7)]
    else:
        pool = [0.1, -0.1, 0.3, -0.3, 1e-17, 2.5, -7.25]
        if wide:
            pool += [1e300, -1e300, 3.7e299, 5e-324, -5e-324, 2.5e-310]
    components = {}
    for idx in itertools.product((1, 2, 3), repeat=rank):
        if rng.random() < density:
            value = rng.choice(pool)
            if mode == "float" and rng.random() < 0.3:
                value = rng.uniform(-1, 1)
            components[idx] = value
    items = list(components.items())
    rng.shuffle(items)  # the kernel must follow the components' own order
    return DenseTensor(rank=rank, mode=mode, components=dict(items))


def overflow_prone_tensor(rank, seed):
    """A sparse float tensor of seeded values at the top of the float range."""
    rng = random.Random(seed)
    top = sys.float_info.max
    pool = [top, -top, top / 2, -top / 2, 0.1]
    indices = rng.sample(list(itertools.product((1, 2, 3), repeat=rank)), rng.randint(2, 3**rank // 3))
    return DenseTensor(rank=rank, mode="float", components={idx: rng.choice(pool) for idx in indices})


def tensor_params(max_rank):
    return dict(
        rank=st.integers(0, max_rank),
        mode=st.sampled_from(["exact", "float"]),
        density=st.sampled_from([1.0, 0.3, 0.05]),
        seed=st.integers(0, 2**32),
    )


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
        with pytest.raises(ValueError):
            DenseTensor(rank=1, components={5: 1})
        # a list of components once raised AttributeError
        with pytest.raises(ValueError):
            DenseTensor(rank=1, components=[1])
        # reads once skipped the check: these read 0 or the value stored at (1, 1)
        t = DenseTensor(rank=2, components={(1, 1): 7})
        for idx in [(1, 4), (1,), (0, 1), (1.0, 1), (True, 1)]:
            with pytest.raises(ValueError):
                t[idx]
        assert t[[1, 1]] == 7

    def test_exact_mode_rejects_floats(self):
        with pytest.raises(ValueError):
            DenseTensor(rank=1, components={(1,): 0.5})

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_are_rejected_as_booleans(self, mode, value):
        # an exact true or false was once rejected as a float
        with pytest.raises(ValueError, match="^tensor values are numbers, not booleans: (True|False)$"):
            DenseTensor(rank=1, mode=mode, components={(1,): value})

    def test_float_mode_rejects_strings(self):
        with pytest.raises(ValueError):
            DenseTensor(rank=1, mode="float", components={(1,): "1/2"})

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400, None, [1.0]],
        ids=["nan", "inf", "-inf", "int-1e400", "None", "list"],
    )
    def test_float_mode_rejects_non_finite_values(self, value):
        # NaN was once accepted and averaged into a "value": NaN that is not JSON
        with pytest.raises(ValueError):
            DenseTensor(rank=1, mode="float", components={(1,): value})

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

    def test_a_zero_value_still_claims_its_index(self):
        obj = {"rank": 1, "mode": "exact", "components": [{"idx": [1], "value": "0"}, {"idx": [1], "value": "2"}]}
        with pytest.raises(ValueError, match=r"^duplicate index tuple \[1\]$"):
            DenseTensor.from_json_obj(obj)

    def test_reader_checks_each_record_once_in_file_order(self, monkeypatch):
        # zero values are dropped and the rest keep the file's order, read in
        # bulk or by the record loop; the loop reads each index once
        calls = []
        index_tuple = rotavg.tensors._index_tuple

        def counting(idx, rank):
            calls.append(idx)
            return index_tuple(idx, rank)

        monkeypatch.setattr(rotavg.tensors, "_index_tuple", counting)
        pairs = [([3, 1], "1/2"), ([1, 2], 0), ([2, 2], "-3"), ([1, 1], "0"), ([2, 3], 4)]
        expected = [((3, 1), Fraction(1, 2)), ((2, 2), -3), ((2, 3), 4)]
        records = [{"idx": idx, "value": value} for idx, value in pairs]
        t = DenseTensor.from_json_obj({"rank": 2, "mode": "exact", "components": records})
        assert calls == []  # the bulk check read the file
        assert list(t.components.items()) == expected
        # a tuple index is valid but never JSON, so the bulk check leaves this file to the loop
        pairs[2] = ((2, 2), "-3")
        records = [{"idx": idx, "value": value} for idx, value in pairs]
        t = DenseTensor.from_json_obj({"rank": 2, "mode": "exact", "components": records})
        assert calls == [idx for idx, _ in pairs]
        assert list(t.components.items()) == expected

    def test_a_value_past_the_int_string_limit_is_a_limit(self, digit_limit):
        # str() of such a value once raised the interpreter's own ValueError
        big = Fraction(1, 10**digit_limit)
        t = DenseTensor(rank=2, components={(1, 1): Fraction(1, 3), (2, 3): big, (3, 1): big})
        message = (
            r"^the value at index \[2, 3\] exceeds the interpreter's limit of 4300 digits for integer string conversion$"
        )
        for nonzero_only in (False, True):
            with pytest.raises(RankLimitError, match=message):
                t.to_json_text(nonzero_only)

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            DenseTensor.from_json_obj({"rank": 1})
        # a negative rank once failed on its first index instead
        obj = {"rank": -1, "mode": "exact", "components": [{"idx": [1], "value": "1"}]}
        with pytest.raises(ValueError, match="tensor rank must be at least 0"):
            DenseTensor.from_json_obj(obj)


def records(*pairs):
    return [{"idx": idx, "value": value} for idx, value in pairs]


# (rank, mode, records) per case: each reader check, and the first bad record
# after a good one, so the loop must name the right one
READER_CASES = {
    "exact-valid": (2, "exact", records(([3, 1], "1/2"), ([1, 2], 0), ([2, 2], "-3"), ([1, 1], "0"), ([2, 3], 4))),
    "float-valid": (2, "float", records(([2, 1], 0.5), ([1, 1], 0.0), ([3, 3], -2), ([1, 3], 1e-320))),
    "rank0": (0, "exact", records(([], "3/4"))),
    "empty": (3, "float", []),
    "bool-axis": (2, "exact", records(([1, 1], "1"), ([True, 2], "1"))),
    "bool-value-exact": (1, "exact", records(([1], "1"), ([2], True))),
    "bool-value-float": (1, "float", records(([1], 1.5), ([2], False))),
    "float-in-exact": (1, "exact", records(([1], "1"), ([2], 0.5))),
    "integral-float-in-exact": (1, "exact", records(([1], 1.0),)),
    "ints-in-exact": (1, "exact", records(([1], 7), ([2], 10**400), ([3], -2))),
    "ints-in-float": (1, "float", records(([1], 7), ([2], -2), ([3], 0.25))),
    "huge-int-in-float": (1, "float", records(([1], 7), ([2], 10**400))),
    "nan": (1, "float", records(([1], 1.0), ([2], math.nan))),
    "infinity": (1, "float", records(([1], math.inf),)),
    "minus-infinity": (1, "float", records(([3], -math.inf),)),
    "nan-in-exact": (1, "exact", records(([1], math.nan),)),
    "string-in-float": (1, "float", records(([1], "1/2"),)),
    "ragged-short": (2, "exact", records(([1, 1], "1"), ([1], "1"))),
    "ragged-long": (2, "exact", records(([1, 1, 1], "1"),)),
    "empty-idx": (2, "exact", records(([], "1"),)),
    "string-idx": (2, "exact", records(([1, 1], "1"), ("12", "1"))),
    "dict-idx": (1, "exact", records(({"1": 1}, "1"),)),
    "int-idx": (1, "exact", records((1, "1"),)),
    "float-axis": (2, "exact", records(([1.0, 2], "1"),)),
    "axis-zero": (2, "exact", records(([0, 1], "1"),)),
    "axis-four": (2, "float", records(([1, 1], 1.0), ([1, 4], 1.0))),
    "huge-axis": (1, "exact", records(([2**70], "1"),)),
    "duplicate": (2, "exact", records(([1, 2], "1"), ([2, 1], "1"), ([1, 2], "2"))),
    "zero-duplicate": (1, "exact", records(([1], "0"), ([1], "2"))),
    "rank0-duplicate": (0, "float", records(([], 1.0), ([], 2.0))),
    "plus-sign": (1, "exact", records(([1], "1"), ([2], "+1/2"))),
    "padded": (1, "exact", records(([1], " 1/2"),)),
    "zero-denominator": (1, "exact", records(([1], "1/0"),)),
    "minus-zero": (1, "exact", records(([1], "-0"), ([2], "1"))),
    "leading-zeros": (1, "exact", records(([1], "007/3"), ([2], "-4/6"))),
    "decimal": (1, "exact", records(([1], "1.5"),)),
    "non-dict-records": (1, "exact", [{"idx": [1], "value": "1"}, [[2], "1"]]),
    "string-record": (1, "exact", ["idx"]),
    "null-record": (1, "float", [None]),
    "missing-value": (1, "exact", [{"idx": [1]}]),
    "extra-keys": (1, "exact", [{"idx": [1], "value": "1", "note": "kept out"}, {"value": "2", "idx": [2]}]),
    "5000-digit-literal": (1, "exact", records(([1], "1"), ([3], "1" * 5000), ([2], "+1"))),
    "bad-mode": (1, "fast", records(([1], "1"),)),
}


def read_outcome(obj, tmp_path, capsys):
    """from_json_obj's components with their types, or its error; and rotavg average's code, stdout and stderr."""
    try:
        tensor = DenseTensor.from_json_obj(json.loads(json.dumps(obj)))
        read = [(idx, value, type(value)) for idx, value in tensor.components.items()]
    except ValueError as exc:
        read = (type(exc), str(exc))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = rotavg.cli.main(["average", str(path), "--nonzero-only"])
    captured = capsys.readouterr()
    return read, (code, captured.out, captured.err)


class TestBulkReader:
    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_bulk_check_and_record_loop_agree(self, monkeypatch, tmp_path, capsys, case):
        rank, mode, components = READER_CASES[case]
        obj = {"rank": rank, "mode": mode, "components": components}
        bulk = rotavg.tensors._bulk_components
        read = read_outcome(obj, tmp_path, capsys)
        monkeypatch.setattr(rotavg.tensors, "_bulk_components", lambda records, rank, mode: None)
        assert read == read_outcome(obj, tmp_path, capsys)
        # every valid file is read in bulk, so the comparison covers the bulk path
        valid = isinstance(read[0], list)
        assert (bulk(json.loads(json.dumps(components)), rank, mode) is not None) == valid

    def test_equal_literals_share_one_fraction(self):
        obj = {"rank": 1, "mode": "exact", "components": records(([1], "2/4"), ([2], "1/2"), ([3], "2/4"))}
        values = list(DenseTensor.from_json_obj(obj).components.values())
        assert values == [Fraction(1, 2)] * 3
        assert values[0] is values[2]


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

    def test_float_overflow_names_the_lab_index(self):
        components = dict.fromkeys(itertools.product((1, 2, 3), repeat=4), 1.7e308)
        t = DenseTensor(rank=4, mode="float", components=components)
        with pytest.raises(ValueError, match=r"^float overflow .* lab index \[1, 2, 1, 2\]$"):
            average_component((1, 2, 1, 2), t)

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

    @pytest.mark.parametrize("max_rank", ["5", True, 2.5, -1])
    def test_max_rank_is_a_nonnegative_integer(self, max_rank):
        # "5" once raised TypeError, True was read as the ceiling 1 and 2.5 was accepted
        t = DenseTensor(rank=2, components={(1, 1): 1})
        with pytest.raises(ValueError, match="max_rank must be"):
            average_tensor(t, max_rank=max_rank)

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

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("rank,density", [(4, 1.0), (5, 0.3), (6, 0.05)])
    def test_result_is_what_the_validating_constructor_gives(self, mode, rank, density):
        # the result skips __post_init__; the renderer formats float values
        # with %r, so an np.float64 would print differently
        out = average_tensor(seeded_tensor(rank, mode, density, seed=rank))
        validated = DenseTensor(rank=out.rank, mode=out.mode, components=out.components)
        assert out == validated
        assert list(out.components) == list(validated.components)
        kind = Fraction if mode == "exact" else float
        assert all(type(value) is kind for value in out.components.values())
        assert all(value for value in out.components.values())


class TestPairCodeKernel:
    @given(**tensor_params(max_rank=6), wide=st.booleans())
    @example(rank=6, mode="exact", density=1.0, seed=1, wide=False)
    @example(rank=6, mode="float", density=1.0, seed=2, wide=False)
    @example(rank=6, mode="exact", density=0.05, seed=3, wide=False)
    @example(rank=5, mode="float", density=0.3, seed=4, wide=False)
    # odd ranks, where an odd relabeling negates the orbit's value
    @example(rank=5, mode="exact", density=1.0, seed=5, wide=False)
    @example(rank=3, mode="exact", density=0.3, seed=6, wide=False)
    @example(rank=5, mode="float", density=1.0, seed=7, wide=False)
    @example(rank=7, mode="float", density=1.0, seed=8, wide=False)
    # float values near the top of the range and below the normal range
    @example(rank=6, mode="float", density=1.0, seed=9, wide=True)
    @example(rank=5, mode="float", density=0.3, seed=10, wide=True)
    @settings(deadline=None, max_examples=30)
    def test_matches_per_lab_reference(self, rank, mode, density, seed, wide):
        t = seeded_tensor(rank, mode, density, seed, wide)
        # == also for floats: the kernel keeps the reference's summation order
        assert average_tensor(t).components == reference_average_tensor(t)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_both_modes_evaluate_one_lab_per_relabeling_orbit(self, monkeypatch, mode):
        # the labs the kernel sums; it derives every other passing lab from them
        evaluated = []
        images = rotavg.tensors._PairKernel.images

        def counted(kernel, labs):
            evaluated.extend(tuple(axis + 1 for axis in lab) for lab in labs.tolist())
            return images(kernel, labs)

        monkeypatch.setattr(rotavg.tensors._PairKernel, "images", counted)
        t = seeded_tensor(4, mode, 1.0, seed=7)
        out = average_tensor(t)
        passing = [lab for lab in DenseTensor.index_space(4) if all(lab.count(axis) % 2 == 0 for axis in (1, 2, 3))]

        def orbit_name(lab):
            # relabelings of the three axes permute the labels, so naming the
            # labels in order of first use gives one name per orbit
            names = {}
            return tuple(names.setdefault(axis, len(names)) for axis in lab)

        # (1,1,1,1), (1,1,2,2), (1,2,1,2) and (1,2,2,1), of 21 passing labs
        assert len(passing) == 21
        assert len(evaluated) == len({orbit_name(lab) for lab in passing}) == 4
        assert len({orbit_name(lab) for lab in evaluated}) == 4
        assert out.components == reference_average_tensor(t)

    @given(**tensor_params(max_rank=4))
    @settings(deadline=None, max_examples=25)
    def test_component_matches_whole_average(self, rank, mode, density, seed):
        t = seeded_tensor(rank, mode, density, seed)
        out = average_tensor(t)
        for lab in DenseTensor.index_space(t.rank):
            value = average_component(lab, t)
            assert value == out[lab]
            assert type(value) is type(t.zero)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_empty_tensor(self, mode):
        t = DenseTensor(rank=3, mode=mode)
        assert average_tensor(t).components == {}
        assert average_component((1, 2, 3), t) == 0

    @pytest.mark.parametrize("value", [Fraction(-5, 3), -2.75])
    def test_rank0(self, value):
        mode = "exact" if isinstance(value, Fraction) else "float"
        t = DenseTensor(rank=0, mode=mode, components={(): value})
        assert average_tensor(t).components == {(): value}
        assert average_component((), t) == value

    @pytest.mark.parametrize(
        "mode,a,b", [("exact", Fraction(1, 3), Fraction(-1, 3)), ("float", 0.5, -0.5)]
    )
    def test_cancelling_values_leave_no_component(self, mode, a, b):
        # trace zero: every lab component of the average cancels
        t = DenseTensor(rank=2, mode=mode, components={(1, 1): a, (2, 2): b, (1, 2): a})
        assert average_tensor(t).components == {}
        assert average_component((3, 3), t) == 0

    def test_rank127_is_the_code_limit(self):
        lab = (1,) * 125 + (2, 3)
        t = DenseTensor(rank=127, components={lab: Fraction(3, 2)})
        chi = from_multi_index(MultiIndex(lab, lab))
        assert average_component(lab, t) == Fraction(3, 2) * evaluate(chi) != 0
        t128 = DenseTensor(rank=128, components={(1,) * 128: 1})
        with pytest.raises(RankLimitError):
            average_component((1,) * 128, t128)
        with pytest.raises(RankLimitError):
            average_tensor(t128, max_rank=200)

    @pytest.mark.parametrize(
        "rank,seed,lab",
        [(4, 16, (1, 2, 1, 2)), (5, 0, (1, 1, 2, 3, 1)), (5, 16, (1, 2, 3, 2, 2)), (6, 15, (1, 1, 2, 2, 2, 2))],
    )
    def test_overflow_names_the_first_overflowing_lab_in_product_order(self, rank, seed, lab):
        # found by a seeded search against the reference and pinned from the
        # per-lab walk the kernel replaced; the passing labs before it stay finite
        t = overflow_prone_tensor(rank, seed)
        reference = reference_average_tensor(t)
        assert min(idx for idx, value in reference.items() if not math.isfinite(value)) == lab
        with pytest.raises(ValueError, match=r"^float overflow in the average at lab index %s$" % re.escape(str(list(lab)))):
            average_tensor(t)

    def test_relabeled_image_overflows_where_its_orbit_first_lab_does_not(self):
        # (2, 2, 1, 1, 3, 3) adds the products of (1, 1, 2, 2, 3, 3) in its own
        # cell order; signed so that the first 50 of its 60 products are
        # positive, its running sum passes the float maximum and the lab's does
        # not.  The error, pinned from the per-lab walk, names the first
        # overflowing lab in product order
        lab, image = (1, 1, 2, 2, 3, 3), (2, 2, 1, 1, 3, 3)
        groups = [group for group in group_by_power_matrix(lab, 6) if evaluate(group.power_matrix)]
        in_image_order = sorted(groups, key=lambda group: group.power_matrix.flat[3:6] + group.power_matrix.flat[:3])
        positive = in_image_order[:50]
        components = {}
        for group in groups:
            sign = 1 if (evaluate(group.power_matrix) > 0) == (group in positive) else -1
            for mol in group.members:
                components[mol] = sign * 0.95 * sys.float_info.max / len(group.members)
        t = DenseTensor(rank=6, mode="float", components=components)
        reference = reference_average_tensor(t)
        assert math.isfinite(reference[lab]) and not math.isfinite(reference[image])
        assert min(idx for idx, value in reference.items() if not math.isfinite(value)) == (1,) * 6
        with pytest.raises(ValueError, match=r"^float overflow in the average at lab index \[1, 1, 1, 1, 1, 1\]$"):
            average_tensor(t)

    def test_exact_numerators_beyond_int64(self):
        # partial sums that overflow int64 take Python integers
        rng = random.Random(5)
        components = {
            idx: Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**12))
            for idx in itertools.product((1, 2, 3), repeat=5)
            if rng.random() < 0.5
        }
        t = DenseTensor(rank=5, components=components)
        assert average_tensor(t).components == reference_average_tensor(t)

    def test_dense_rank8_float_memory_is_bounded(self):
        # the kernel works in blocks of about 2**16 (lab, component) pairs
        t = seeded_tensor(8, "float", 1.0, seed=8)
        tracemalloc.start()
        try:
            average_tensor(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_rank127_balanced_lab_numbers_its_occupied_cells(self):
        # the cell range of this lab's axis counts exceeds the kernel's block
        lab = (1,) * 43 + (2,) * 43 + (3,) * 41
        assert (44 * 44 * 42) ** 2 > rotavg.tensors._BLOCK
        t = DenseTensor(rank=127, components={lab: Fraction(3, 2)})
        chi = from_multi_index(MultiIndex(lab, lab))
        assert average_component(lab, t) == Fraction(3, 2) * evaluate(chi) != 0

    def test_closed_form_runs_once_per_nonzero_sign_orbit(self, closed_form_calls):
        rng = random.Random(5)
        values = {idx: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for idx in DenseTensor.index_space(5)}
        t = DenseTensor(rank=5, components=values)
        average_tensor(t, cache=ValueCache())
        pairs = [_pair_flat(lab, mol) for lab in DenseTensor.index_space(5) for mol in t.components]
        assert sorted(closed_form_calls) == nonzero_sign_minima(pairs)


def test_library_calls_leave_the_shared_cache_empty():
    # with no cache given, each call answers through a throwaway one, so a
    # library loop holds no values after it returns
    shared = rotavg.shared_cache()
    tensor = seeded_tensor(4, "exact", 1.0, seed=4)
    rng = random.Random(20)
    flats = []
    while len(flats) < 100:  # selection-passing rank-24 flats, each orbit about 10 kB in a cache
        flat = [0] * 9
        for _ in range(24):
            flat[rng.randrange(9)] += 1
        if rotavg.selection_rule(PowerMatrix.from_flat(flat)):
            flats.append(flat)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for flat in flats:
            evaluate(PowerMatrix.from_flat(flat))
        average_tensor(tensor)
        average_component((1, 1, 2, 2), tensor)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(shared) == 0
    assert held < 100_000


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
