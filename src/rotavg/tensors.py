"""Rotational averaging of rank-n Cartesian tensors.

The lab-frame isotropic average of a molecular tensor T is
out[i1..in] = sum over molecular tuples m of <l_{i1 m1} ... l_{in mn}> T[m].
Molecular tuples sharing an exponent matrix contribute through a single
exact average.  One numpy kernel per call (``_PairKernel``) encodes the
exponent matrix of every (lab, mol) pair as an integer pair code, sums the
stored components per code (floats in component order; exact values as
integer numerators over one common denominator) and evaluates each distinct
exponent matrix once per call.  The evaluator's orbit cache carries those
values from call to call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import isfinite, lcm
from numbers import Real
from sys import float_info
from typing import Optional

import numpy as np

from .evaluator import ValueCache, evaluate
from .power_matrix import PowerMatrix, _pair_flat, _strict_int
from .rationals import format_rational, parse_rational

IndexTuple = tuple[int, ...]

MODES = ("exact", "float")

DEFAULT_MAX_RANK = 10

# pair codes (see _PairKernel) are below (n+1)**9, which fits int64 up to here
PAIR_CODE_MAX_RANK = 127


class RankLimitError(ValueError):
    """A requested rank exceeds its ceiling."""


def _check_ceiling(rank: int, ceiling: int, name: str = "ceiling") -> None:
    if rank > ceiling:
        raise RankLimitError(f"rank {rank} exceeds the {name} {ceiling}")


def _coerce_value(value, mode: str):
    if mode == "exact":
        if isinstance(value, bool) or isinstance(value, float):
            raise ValueError("exact tensors take integers or 'p/q' strings, not floats")
        if isinstance(value, str):
            return parse_rational(value)
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise ValueError(f"cannot read exact value {value!r}")
    # NaN, infinities and ints beyond the float range all fail the bound
    if isinstance(value, bool) or not isinstance(value, Real) or not abs(value) <= float_info.max:
        raise ValueError("float tensors take finite numbers")
    return float(value)


def _index_tuple(idx, rank: int) -> IndexTuple:
    """A component's index as a tuple of ints in {1, 2, 3}, one per tensor slot."""
    try:
        idx = tuple(_strict_int(i, "tensor index") for i in idx)
    except TypeError:
        raise ValueError(f"bad index tuple {idx!r}") from None
    if len(idx) != rank or any(i not in (1, 2, 3) for i in idx):
        raise ValueError(f"bad index tuple {idx} for rank {rank}")
    return idx


@dataclass
class DenseTensor:
    """Rank-n tensor over one-based index tuples; omitted components are zero."""

    rank: int
    mode: str = "exact"
    components: dict[IndexTuple, object] = field(default_factory=dict)

    def __post_init__(self):
        self.rank = _strict_int(self.rank, "tensor rank")
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        cleaned = {}
        for idx, value in self.components.items():
            idx = _index_tuple(idx, self.rank)
            value = _coerce_value(value, self.mode)
            if value:
                cleaned[idx] = value
        self.components = cleaned

    @property
    def zero(self):
        return Fraction(0) if self.mode == "exact" else 0.0

    def __getitem__(self, idx) -> object:
        return self.components.get(tuple(idx), self.zero)

    def nonzero_items(self) -> list[tuple[IndexTuple, object]]:
        return sorted(self.components.items())

    @staticmethod
    def index_space(rank: int):
        return product((1, 2, 3), repeat=rank)

    def to_json_obj(self, nonzero_only: bool = False) -> dict:
        if nonzero_only:
            indices = [idx for idx, _ in self.nonzero_items()]
        else:
            indices = list(self.index_space(self.rank))
        records = []
        for idx in indices:
            value = self[idx]
            rendered = format_rational(value) if self.mode == "exact" else float(value)
            records.append({"idx": list(idx), "value": rendered})
        return {"rank": self.rank, "mode": self.mode, "components": records}

    @classmethod
    def from_json_obj(cls, obj) -> "DenseTensor":
        if not isinstance(obj, dict):
            raise ValueError("tensor file must hold a JSON object")
        try:
            rank = _strict_int(obj["rank"], "tensor rank")
            mode = obj["mode"]
            records = obj["components"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"tensor file misses or mangles a required field: {exc}") from exc
        if not isinstance(records, list):
            raise ValueError("'components' must be a list")
        components: dict[IndexTuple, object] = {}
        for record in records:
            if not isinstance(record, dict) or "idx" not in record or "value" not in record:
                raise ValueError(f"bad component record: {record!r}")
            idx = _index_tuple(record["idx"], rank)
            if idx in components:
                raise ValueError(f"duplicate index tuple {list(idx)}")
            components[idx] = record["value"]
        return cls(rank=rank, mode=mode, components=components)


@dataclass(frozen=True)
class ComponentGroup:
    """Molecular index tuples sharing one exponent matrix for a fixed lab tuple."""

    power_matrix: PowerMatrix
    members: tuple[IndexTuple, ...]


def group_by_power_matrix(lab_idx, rank: int) -> list[ComponentGroup]:
    """Partition all 3^rank molecular tuples by their exponent matrix."""
    lab = _index_tuple(lab_idx, rank)
    groups: dict[tuple[int, ...], list[IndexTuple]] = {}
    for mol in product((1, 2, 3), repeat=rank):
        groups.setdefault(_pair_flat(lab, mol), []).append(mol)
    return [
        ComponentGroup(PowerMatrix._trusted(flat), tuple(members))
        for flat, members in sorted(groups.items())
    ]


class _PairKernel:
    """Lab components of one tensor's average, grouped by pair code.

    The pair code of a (lab, mol) tuple pair is the sum over positions k of
    E[lab_k][mol_k] with E[i][m] = (n+1)**(8 - (3(i-1) + (m-1))): the flat
    exponent matrix read as a base-(n+1) number, first entry most
    significant.  Codes therefore sort like the flats.  Each distinct code
    is decoded and evaluated once per kernel.
    """

    def __init__(self, tensor: DenseTensor, cache: Optional[ValueCache]):
        n = tensor.rank
        _check_ceiling(n, PAIR_CODE_MAX_RANK, "pair-code ceiling")
        self.base = n + 1
        self.exact = tensor.mode == "exact"
        self.cache = cache
        self.weights: dict[int, object] = {}
        self.positions = np.arange(n)
        mols = np.array(list(tensor.components), dtype=np.intp)
        mols = mols.reshape(len(tensor.components), n) - 1
        scale = np.array([self.base ** (8 - j) for j in range(9)], dtype=np.int64).reshape(3, 3)
        # terms[k, i - 1] holds, per stored component, the code of pairing
        # lab axis i with the component's k-th molecular axis
        self.terms = scale[:, mols.T].transpose(1, 0, 2)
        values = list(tensor.components.values())
        if self.exact:
            # integer numerators over one common denominator
            self.denominator = lcm(*(v.denominator for v in values))
            numerators = [v.numerator * (self.denominator // v.denominator) for v in values]
            self.values = np.array(numerators, dtype=object)
        else:
            self.values = np.array(values, dtype=np.float64)

    def _weight(self, code: int):
        """The exact average of the code's flat; a float in float mode, where it multiplies."""
        weight = self.weights.get(code)
        if weight is None:
            rest, flat = code, [0] * 9
            for j in range(8, -1, -1):
                rest, flat[j] = divmod(rest, self.base)
            weight = evaluate(PowerMatrix._trusted(tuple(flat)), self.cache)
            if not self.exact:
                weight = float(weight)
            self.weights[code] = weight
        return weight

    def component(self, lab: IndexTuple):
        """sum of <...> * T over the stored molecular tuples, for a validated lab tuple."""
        codes = self.terms[self.positions, np.array(lab, dtype=np.intp) - 1].sum(axis=0)
        # add.at sums each group in component order, then the groups are
        # added in flat order: the order of a per-group Python sum
        codes, inverse = np.unique(codes, return_inverse=True)
        partials = np.zeros(len(codes), dtype=self.values.dtype)
        with np.errstate(over="ignore"):  # an overflow is reported below, naming the lab index
            np.add.at(partials, inverse, self.values)
        total = Fraction(0) if self.exact else 0.0
        for code, partial in zip(codes.tolist(), partials.tolist()):
            weight = self._weight(code)
            if weight:
                total += weight * partial
        if self.exact:
            return total / self.denominator
        if not isfinite(total):
            raise ValueError(f"float overflow in the average at lab index {list(lab)}")
        return total


def average_component(lab_idx, tensor: DenseTensor, cache: Optional[ValueCache] = None):
    """One lab component of the isotropic average: sum of <...> * T over molecular tuples.

    Stored molecular tuples are grouped by exponent matrix first, so the
    evaluator runs once per group.  Exact for exact tensors; float tensors
    convert the exact averages at the final multiply.
    """
    lab = _index_tuple(lab_idx, tensor.rank)
    return _PairKernel(tensor, cache).component(lab)


def average_tensor(
    tensor: DenseTensor,
    max_rank: int = DEFAULT_MAX_RANK,
    cache: Optional[ValueCache] = None,
) -> DenseTensor:
    """Isotropic average of the whole tensor, all 3^rank lab components.

    Lab tuples whose axis counts already break the parity selection rule are
    zero for every molecular tuple and are skipped without evaluation.
    """
    n = tensor.rank
    _check_ceiling(n, max_rank)
    kernel = _PairKernel(tensor, cache)
    parity = n & 1
    out: dict[IndexTuple, object] = {}
    for lab in product((1, 2, 3), repeat=n):
        counts = [0, 0, 0]
        for i in lab:
            counts[i - 1] += 1
        if (counts[0] & 1) != parity or (counts[1] & 1) != parity or (counts[2] & 1) != parity:
            continue
        value = kernel.component(lab)
        if value:
            out[lab] = value
    return DenseTensor(rank=n, mode=tensor.mode, components=out)
