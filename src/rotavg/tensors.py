"""Rotational averaging of rank-n Cartesian tensors.

The lab-frame isotropic average of a molecular tensor T is
out[i1..in] = sum over molecular tuples m of <l_{i1 m1} ... l_{in mn}> T[m].
Molecular tuples sharing an exponent matrix contribute through a single
exact average, so the evaluator cache turns the 3^n-term contraction into a
per-orbit computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Optional

from .evaluator import ValueCache, evaluate
from .power_matrix import PowerMatrix, _pair_flat, _strict_int
from .rationals import format_rational, parse_rational

IndexTuple = tuple[int, ...]

MODES = ("exact", "float")

DEFAULT_MAX_RANK = 10


class RankLimitError(ValueError):
    """Requested tensor rank exceeds the configured ceiling."""


def _coerce_value(value, mode: str):
    if mode == "exact":
        if isinstance(value, bool) or isinstance(value, float):
            raise ValueError("exact tensors take integers or 'p/q' strings, not floats")
        if isinstance(value, str):
            return parse_rational(value)
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise ValueError(f"cannot read exact value {value!r}")
    if isinstance(value, bool) or isinstance(value, str):
        raise ValueError("float tensors take numbers")
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


def average_component(lab_idx, tensor: DenseTensor, cache: Optional[ValueCache] = None):
    """One lab component of the isotropic average: sum of <...> * T over molecular tuples.

    Stored molecular tuples are grouped by exponent matrix first, so the
    evaluator runs once per group.  Exact for exact tensors; float tensors
    convert the exact averages at the final multiply.
    """
    lab = _index_tuple(lab_idx, tensor.rank)
    group_sums: dict[tuple[int, ...], object] = {}
    for mol, value in tensor.components.items():
        key = _pair_flat(lab, mol)
        group_sums[key] = group_sums.get(key, tensor.zero) + value
    result = tensor.zero
    for flat, partial in sorted(group_sums.items()):
        weight = evaluate(PowerMatrix._trusted(flat), cache)
        if weight == 0:
            continue
        if tensor.mode == "exact":
            result += weight * partial
        else:
            result += float(weight) * partial
    return result


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
    if n > max_rank:
        raise RankLimitError(f"rank {n} exceeds the configured maximum {max_rank}")
    parity = n & 1
    out: dict[IndexTuple, object] = {}
    for lab in product((1, 2, 3), repeat=n):
        counts = [0, 0, 0]
        for i in lab:
            counts[i - 1] += 1
        if (counts[0] & 1) != parity or (counts[1] & 1) != parity or (counts[2] & 1) != parity:
            continue
        value = average_component(lab, tensor, cache)
        if value:
            out[lab] = value
    return DenseTensor(rank=n, mode=tensor.mode, components=out)
