"""Rotational averaging of rank-n Cartesian tensors.

The lab-frame isotropic average of a molecular tensor T is
out[i1..in] = sum over molecular tuples m of <l_{i1 m1} ... l_{in mn}> T[m].
Molecular tuples sharing an exponent matrix contribute through a single
exact average.  One numpy kernel per call (``_PairKernel``) sums the stored
components per exponent matrix (floats in component order; exact values as
integer numerators over one common denominator), evaluates each distinct
matrix once, with the evaluator's cache, and in both modes sums one lab
tuple per orbit of the six lab-axis relabelings, deriving the rest exactly.
The tensor file format lives here too: ``DenseTensor.from_json_obj`` reads
it and ``DenseTensor.to_json_text`` writes it, as ``rotavg average`` does.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import isfinite, lcm
from numbers import Real
from sys import float_info
from typing import Optional

import numpy as np

from .evaluator import ValueCache, evaluate
from .power_matrix import _PERMS3, PowerMatrix, _axes, _pair_flat, _perm_sign, _strict_int
from .rationals import format_rational, parse_rational

IndexTuple = tuple[int, ...]

MODES = ("exact", "float")

DEFAULT_MAX_RANK = 10

# pair codes (see _PairKernel) are below (n+1)**9, which fits int64 up to here
PAIR_CODE_MAX_RANK = 127

# the six relabelings of the lab axes, each as (image, sign): image[i] is
# the new label of axis i (slot 0 unused) and sign the permutation's sign
_RELABELINGS = tuple(((0, *(axis + 1 for axis in p)), _perm_sign(p)) for p in _PERMS3)


class RankLimitError(ValueError):
    """A requested rank, or another size, exceeds its ceiling."""


def _check_ceiling(rank: int, ceiling: int, name: str = "ceiling") -> None:
    if rank > ceiling:
        raise RankLimitError(f"rank {rank} exceeds the {name} {ceiling}")


def _coerce_value(value, mode: str):
    if isinstance(value, bool):  # a bool is an int, but true is no tensor value
        raise ValueError(f"tensor values are numbers, not booleans: {value!r}")
    if mode == "exact":
        if isinstance(value, float):
            raise ValueError("exact tensors take integers or 'p/q' strings, not floats")
        if isinstance(value, str):
            return parse_rational(value)
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise ValueError(f"cannot read exact value {value!r}")
    # NaN, infinities and ints beyond the float range all fail the bound
    if not isinstance(value, Real) or not abs(value) <= float_info.max:
        raise ValueError("float tensors take finite numbers")
    return float(value)


def _index_tuple(idx, rank: int) -> IndexTuple:
    """A component's index as a tuple of ints in {1, 2, 3}, one per tensor slot."""
    idx = _axes(idx, "tensor index")
    if len(idx) != rank:
        raise ValueError(f"bad index tuple {idx} for rank {rank}")
    return idx


def _checked_components(pairs, rank: int, mode: str) -> dict[IndexTuple, object]:
    """Validated components from (index, value) pairs, every check in one pass in pair order.

    An index may appear once, also with a zero value; zeros are dropped last,
    keeping the order of the rest (float averages add in component order).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    components = {}
    for idx, value in pairs:
        idx = _index_tuple(idx, rank)
        if idx in components:
            raise ValueError(f"duplicate index tuple {list(idx)}")
        components[idx] = _coerce_value(value, mode)
    return {idx: value for idx, value in components.items() if value}


@dataclass
class DenseTensor:
    """Rank-n tensor over one-based index tuples; omitted components are zero."""

    rank: int
    mode: str = "exact"
    components: dict[IndexTuple, object] = field(default_factory=dict)

    def __post_init__(self):
        self.rank = _strict_int(self.rank, "tensor rank", 0)
        if not isinstance(self.components, Mapping):
            raise ValueError("components must map index tuples to values")
        self.components = _checked_components(self.components.items(), self.rank, self.mode)

    @classmethod
    def _trusted(cls, rank: int, mode: str, components: dict) -> "DenseTensor":
        """Wrap components without validating them.

        Only for the package's own results and _checked_components's: one-based
        index tuples of length rank mapped to nonzero values of the mode's type
        (Fraction for exact, a finite Python float for float).
        """
        tensor = object.__new__(cls)
        tensor.rank, tensor.mode, tensor.components = rank, mode, components
        return tensor

    @property
    def zero(self):
        return Fraction(0) if self.mode == "exact" else 0.0

    def __getitem__(self, idx) -> object:
        return self.components.get(_index_tuple(idx, self.rank), self.zero)

    def nonzero_items(self) -> list[tuple[IndexTuple, object]]:
        return sorted(self.components.items())

    @staticmethod
    def index_space(rank: int):
        return product((1, 2, 3), repeat=rank)

    def _items(self, nonzero_only: bool):
        """(index, value) pairs in index order: the stored ones, or every index."""
        if nonzero_only:
            return self.nonzero_items()
        # every stored index passed _index_tuple, so read components directly
        get, zero = self.components.get, self.zero
        return ((idx, get(idx, zero)) for idx in self.index_space(self.rank))

    def to_json_obj(self, nonzero_only: bool = False) -> dict:
        render = format_rational if self.mode == "exact" else float
        records = [{"idx": list(idx), "value": render(value)} for idx, value in self._items(nonzero_only)]
        return {"rank": self.rank, "mode": self.mode, "components": records}

    def to_json_text(self, nonzero_only: bool = False) -> str:
        """json.dumps(self.to_json_obj(nonzero_only), indent=2), from one record template."""
        # Exact values are Fractions, whose str is the ASCII -?[0-9]+(/[0-9]+)?
        # of format_rational; float values are finite Python floats, whose repr
        # is their JSON number.  Neither needs escaping.
        axes = ",\n".join(["        %d"] * self.rank)
        record = (
            "    {\n"
            + ('      "idx": [\n' + axes + "\n      ],\n" if axes else '      "idx": [],\n')
            + '      "value": ' + ('"%s"' if self.mode == "exact" else "%r") + "\n"
            "    }"
        )
        records = ",\n".join([record % (*idx, value) for idx, value in self._items(nonzero_only)])
        components = "[\n" + records + "\n  ]" if records else "[]"
        return '{\n  "rank": %d,\n  "mode": "%s",\n  "components": %s\n}' % (
            self.rank, self.mode, components,
        )

    @classmethod
    def from_json_obj(cls, obj) -> "DenseTensor":
        if not isinstance(obj, dict):
            raise ValueError("tensor file must hold a JSON object")
        try:
            rank = _strict_int(obj["rank"], "tensor rank", 0)
            mode = obj["mode"]
            records = obj["components"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"tensor file misses or mangles a required field: {exc}") from exc
        if not isinstance(records, list):
            raise ValueError("'components' must be a list")

        def pairs():  # each record's (idx, value), checked as the loop reaches it
            for record in records:
                if not isinstance(record, dict) or "idx" not in record or "value" not in record:
                    raise ValueError(f"bad component record: {record!r}")
                yield record["idx"], record["value"]
        return cls._trusted(rank, mode, _checked_components(pairs(), rank, mode))


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
        self.places = [self.base ** (8 - j) for j in range(9)]  # E in flat order
        # terms[k, i - 1] holds, per stored component, the code of pairing
        # lab axis i with the component's k-th molecular axis
        self.terms = np.array(self.places, dtype=np.int64).reshape(3, 3)[:, mols.T].transpose(1, 0, 2)
        values = list(tensor.components.values())
        if self.exact:
            self.denominator = lcm(*(v.denominator for v in values))
            numerators = [v.numerator * (self.denominator // v.denominator) for v in values]
            self.values = np.array(numerators, dtype=object)
        else:
            self.values = np.array(values, dtype=np.float64)

    def _weight(self, code: int):
        """The exact average of the code's flat; a float in float mode, where it multiplies."""
        weight = self.weights.get(code)
        if weight is None:
            flat = tuple(code // place % self.base for place in self.places)
            weight = evaluate(PowerMatrix._trusted(flat), self.cache)
            if not self.exact:
                weight = float(weight)
            self.weights[code] = weight
        return weight

    def orbit(self, lab: IndexTuple):
        """(image, value) for each relabeling of a validated lab tuple, the lab itself first.

        An image's groups are the lab's, in the same component order, with
        weights times sign**n, so float mode adds the lab's products again in
        the image's own code order and negates (rounding commutes with it).
        A float sum that overflows raises at the lab and is left out at the
        other images, whose own orbit raises once the walk reaches them.
        """
        codes = self.terms[self.positions, np.array(lab, dtype=np.intp) - 1].sum(axis=0)
        # add.at sums each group in component order, then the groups are
        # added in flat order: the order of a per-group Python sum
        codes, inverse = np.unique(codes, return_inverse=True)
        partials = np.zeros(len(codes), dtype=self.values.dtype)
        with np.errstate(over="ignore"):  # an overflow is reported below, naming the lab index
            np.add.at(partials, inverse, self.values)
        weights = [self._weight(code) for code in codes.tolist()]
        products = [weight * partial for weight, partial in zip(weights, partials.tolist()) if weight]
        if self.exact:
            total = sum(products, Fraction(0)) / self.denominator
        else:  # exponent rows i = 1, 2, 3 of the nonzero-weight groups, at places[3i - 1] in a code
            rows = codes[np.array(weights, dtype=bool)][:, None] // self.places[2::3] % self.places[5]
        for relabel, sign in _RELABELINGS:
            image = tuple([relabel[i] for i in lab])
            if not self.exact:
                # the image's code moves row i to places[3 relabel[i] - 1]; add in its order,
                # in an explicit loop: builtin sum compensates from Python 3.12, np.sum adds pairwise
                total = 0.0
                for group in np.argsort(rows @ [self.places[3 * r - 1] for r in relabel[1:]]).tolist():
                    total += products[group]
            value = -total if sign < 0 and len(lab) & 1 else total
            if self.exact or isfinite(value):
                yield image, value
            elif image == lab:
                raise ValueError(f"float overflow in the average at lab index {list(lab)}")


def average_component(lab_idx, tensor: DenseTensor, cache: Optional[ValueCache] = None):
    """One lab component of the isotropic average: sum of <...> * T over molecular tuples.

    Stored molecular tuples are grouped by exponent matrix first, so the
    evaluator runs once per group.  Exact for exact tensors; float tensors
    convert the exact averages at the final multiply.
    """
    lab = _index_tuple(lab_idx, tensor.rank)
    return next(_PairKernel(tensor, cache).orbit(lab))[1]  # the lab's own image comes first


def average_tensor(
    tensor: DenseTensor,
    max_rank: int = DEFAULT_MAX_RANK,
    cache: Optional[ValueCache] = None,
) -> DenseTensor:
    """Isotropic average of the whole tensor, all 3^rank lab components.

    Lab tuples whose axis counts already break the parity selection rule are
    zero for every molecular tuple and are skipped without evaluation.  The
    average is invariant under rotations, so relabeling the lab axes by a
    permutation p turns each component into sign(p)**rank times another:
    both modes evaluate one lab tuple per orbit and fill in the rest.
    """
    max_rank = _strict_int(max_rank, "max_rank", 0)
    n = tensor.rank
    _check_ceiling(n, max_rank)
    kernel = _PairKernel(tensor, cache)
    parity = n & 1
    pending: dict[IndexTuple, object] = {}  # orbit values of labs not yet reached
    out: dict[IndexTuple, object] = {}
    for lab in product((1, 2, 3), repeat=n):
        if (lab.count(1) & 1) != parity or (lab.count(2) & 1) != parity or (lab.count(3) & 1) != parity:
            continue
        if lab not in pending:  # the orbit's first lab in product order
            pending.update(kernel.orbit(lab))
        value = pending.pop(lab)
        if value:
            out[lab] = value
    return DenseTensor._trusted(n, tensor.mode, out)
