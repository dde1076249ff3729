"""Rotational averaging of rank-n Cartesian tensors.

The lab-frame isotropic average of a molecular tensor T is
out[i1..in] = sum over molecular tuples m of <l_{i1 m1} ... l_{in mn}> T[m].
Molecular tuples sharing an exponent matrix contribute through a single
exact average.  Relabeling the lab axes maps each lab tuple's component
onto sign**n times another's, so only the first lab tuple of each orbit of
the six relabelings is summed.  One numpy kernel (``_PairKernel``) takes
those lab tuples in blocks of equal axis counts: it sums the stored values
of each (lab, exponent matrix) cell in component order in one pass,
evaluates each orbit of exponent matrices once, with the evaluator's cache,
and weighs the sums, exact values as integer numerators over one common
denominator and floats in each relabeled tuple's own exponent-matrix order.
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
from .power_matrix import _PERMS3, PowerMatrix, _axes, _pair_flat, _perm_sign, _strict_int, orbit_signs
from .rationals import format_rational, parse_rational

IndexTuple = tuple[int, ...]

MODES = ("exact", "float")

DEFAULT_MAX_RANK = 10

# the kernel's rank ceiling; its cell ids (see _PairKernel) stay below
# ((n + 3) / 3)**6, about 6.6e9 here, well inside int64
PAIR_CODE_MAX_RANK = 127

# (lab, component) pairs and (lab, cell) partial sums per numpy pass of the kernel
_BLOCK = 1 << 16

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
    """Lab components of one tensor's average, for blocks of lab tuples with equal axis counts.

    A lab tuple with axis counts c = (c1, c2, c3) and a molecular tuple pair
    into a flat exponent matrix F whose row i sums to c_i, so F is fixed by
    its cell id: the row digits F[i][0] (c_i + 1) + F[i][1], read in base
    (c_i + 1)**2 with the first row most significant.  Ids sort like the
    flats and add up over positions like them: pairing lab axis i with
    molecular axis m adds (c_i + 1) s_i, s_i or 0 for m = 1, 2, 3, where
    s_i is row i's place.  Each orbit of flats is evaluated once per
    kernel, at the first of its flats met, and the look-ahead map
    ``weights`` then holds every image's value.
    """

    def __init__(self, tensor: DenseTensor, cache: Optional[ValueCache]):
        n = tensor.rank
        _check_ceiling(n, PAIR_CODE_MAX_RANK, "pair-code ceiling")
        self.rank = n
        self.exact = tensor.mode == "exact"
        self.cache = cache
        self.weights: dict[tuple[int, ...], object] = {}
        self.mols = np.array(list(tensor.components), dtype=np.intp).reshape(len(tensor.components), n) - 1
        values = list(tensor.components.values())
        if self.exact:
            self.denominator = lcm(*(v.denominator for v in values))
            numerators = [v.numerator * (self.denominator // v.denominator) for v in values]
            # int64 holds every partial sum while the largest numerator times their count does
            wide = max(map(abs, numerators), default=0) * len(numerators) >= 2**63
            self.values = np.array(numerators, dtype=object if wide else np.int64)
        else:
            self.values = np.array(values, dtype=np.float64)

    def _weight(self, flat: tuple[int, ...]):
        """The exact average of a selection-passing flat; a float in float mode, where it multiplies."""
        weight = self.weights.get(flat)
        if weight is None:  # the orbit's first flat met: evaluate once, weigh every image
            value = evaluate(PowerMatrix._trusted(flat), self.cache)
            if not self.exact:
                value = float(value)
            by_sign = (value * 0, value, -value)  # sign 0 where opposite-signed symmetries meet
            for image, sign in orbit_signs(flat).items():
                self.weights[image] = by_sign[sign]
            weight = self.weights[flat]
        return weight

    def images(self, labs: np.ndarray) -> list[list]:
        """values[p][r]: the average at relabeling p (in _RELABELINGS order) of lab row r.

        labs holds zero-based axes, one lab tuple per row, every row with the
        same axis counts; relabeling 0 is the lab itself.  Float values are
        inf or NaN where a sum overflows, for the caller to report.
        """
        counts = [int(np.count_nonzero(labs[0] == axis)) for axis in range(3)]
        sizes = [c + 1 for c in counts]
        strides = [(sizes[1] * sizes[2]) ** 2, sizes[2] ** 2, 1]
        cells = sizes[0] ** 2 * strides[0]
        step = np.array([[stride * size, stride, 0] for stride, size in zip(strides, sizes)], dtype=np.int64)
        # steps[k, i] holds, per component, what pairing lab axis i with its k-th molecular axis adds to an id
        steps = step[:, self.mols.T].transpose(1, 0, 2)
        per_block = max(1, _BLOCK // max(len(self.values), cells))
        values: list[list] = [[] for _ in _RELABELINGS]
        for start in range(0, len(labs), per_block):
            block = labs[start:start + per_block]
            ids = np.zeros((len(block), len(self.values)), dtype=np.int64)
            for position, axes in zip(steps, block.T):
                ids += position[axes]
            for image_values, sums in zip(values, self._sums(ids, counts, sizes, strides, cells)):
                image_values.extend(sums)
        return values

    def _sums(self, ids: np.ndarray, counts: list[int], sizes: list[int], strides: list[int], cells: int):
        """images() for one block, from the cell id of each (lab row, component) pair."""
        n, k = self.rank, len(ids)
        if k * cells <= _BLOCK:
            occupied, keys = None, ids + np.arange(0, k * cells, cells)[:, None]
        else:  # one lab whose own cell range exceeds the block: number its occupied cells
            occupied, keys = np.unique(ids, return_inverse=True)
            cells = len(occupied)
        # add.at sums each (lab, cell) in component order; the cells, in id order, are the flats in flat order
        partials = np.zeros(k * cells, dtype=self.values.dtype)
        with np.errstate(over="ignore", invalid="ignore"):  # overflows are reported by the caller
            np.add.at(partials, keys.ravel(), np.broadcast_to(self.values, ids.shape).ravel())
        partials = partials.reshape(k, cells)
        columns = np.flatnonzero((partials != 0).any(axis=0))
        cell_ids = columns if occupied is None else occupied[columns]
        digits = cell_ids[:, None] // strides % [size * size for size in sizes]  # row i's digit per cell
        first, second = digits // sizes, digits % sizes
        flats = np.stack([first, second, np.array(counts) - first - second], axis=2).reshape(-1, 9)
        # rows pass the selection rule with the lab, the third column with the first two
        parity = (first.sum(axis=1) & 1 == n & 1) & (second.sum(axis=1) & 1 == n & 1)
        passing = np.flatnonzero(parity) if all((c - n) & 1 == 0 for c in counts) else []
        weights = [self._weight(flat) for flat in map(tuple, flats[passing].tolist())]
        live = [column for column, weight in zip(passing, weights) if weight]
        weights = [weight for weight in weights if weight]
        partials = partials[:, columns[live]]
        odd = n & 1
        if self.exact:
            denominator = lcm(*(w.denominator for w in weights))
            numerators = np.array([w.numerator * (denominator // w.denominator) for w in weights], dtype=object)
            denominator *= self.denominator
            totals = [Fraction(total, denominator) for total in (partials.astype(object) @ numerators).tolist()]
            negated = [-total for total in totals] if odd else totals
            return [negated if sign < 0 else totals for _, sign in _RELABELINGS]
        digits = digits[live]
        padded = np.zeros((k, len(live) + 1))
        sums = []
        with np.errstate(over="ignore", invalid="ignore"):
            products = partials * weights
            for relabel, sign in _RELABELINGS:
                # accumulate adds left to right, as np.sum does not
                padded[:, 1:] = products[:, _image_order(digits, relabel)]
                total = np.add.accumulate(padded, axis=1)[:, -1]
                sums.append((-total if sign < 0 and odd else total).tolist())
        return sums


def _image_order(digits: np.ndarray, relabel: tuple[int, ...]) -> np.ndarray:
    """The cells, given by their row digits, in the flat order of the lab relabeled by relabel.

    Row i of a cell is row relabel[i] - 1 of its image, and flats with equal
    row sums sort by their row digits.
    """
    source = [relabel.index(row) - 1 for row in (3, 2, 1)]  # lexsort sorts by its last key first
    return np.lexsort(digits[:, source].T)


def _overflow(lab: IndexTuple) -> ValueError:
    return ValueError(f"float overflow in the average at lab index {list(lab)}")


def _orbit_first_labs(n: int) -> list[list[IndexTuple]]:
    """The zero-based lab tuples that pass the parity rule and use their axes in order of
    first use, grouped by axis counts, each group in product order.

    Such a lab is the least of its six relabelings, so it is its orbit's first in product order.
    """
    grown = [((), -1)]  # (lab, its largest axis)
    for _ in range(n):
        grown = [(lab + (axis,), max(top, axis)) for lab, top in grown for axis in range(min(top + 2, 3))]
    classes: dict[tuple[int, int, int], list[IndexTuple]] = {}
    for lab, _ in grown:
        counts = (lab.count(0), lab.count(1), lab.count(2))
        if all((c - n) & 1 == 0 for c in counts):
            classes.setdefault(counts, []).append(lab)
    return list(classes.values())


def average_component(lab_idx, tensor: DenseTensor, cache: Optional[ValueCache] = None):
    """One lab component of the isotropic average: sum of <...> * T over molecular tuples.

    Stored molecular tuples are grouped by exponent matrix first, so the
    evaluator runs once per orbit of groups.  Exact for exact tensors; float
    tensors convert the exact averages at the final multiply.
    """
    lab = _index_tuple(lab_idx, tensor.rank)
    labs = np.array(lab, dtype=np.intp).reshape(1, tensor.rank) - 1
    value = _PairKernel(tensor, cache).images(labs)[0][0]  # relabeling 0 is the lab itself
    if tensor.mode == "float" and not isfinite(value):
        raise _overflow(lab)
    return value


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
    the kernel sums one lab tuple per orbit and fills in the rest.  A float
    sum that overflows raises, naming the first such lab in product order.
    """
    max_rank = _strict_int(max_rank, "max_rank", 0)
    n = tensor.rank
    _check_ceiling(n, max_rank)
    kernel = _PairKernel(tensor, cache)
    values: dict[IndexTuple, object] = {}
    for labs in _orbit_first_labs(n):
        labs = np.array(labs, dtype=np.intp).reshape(len(labs), n)
        for (relabel, _), image_values in zip(_RELABELINGS, kernel.images(labs)):
            images = np.array(relabel[1:])[labs].tolist()
            values.update(zip(map(tuple, images), image_values))
    if tensor.mode == "float":
        overflowed = [lab for lab, value in values.items() if not isfinite(value)]
        if overflowed:
            raise _overflow(min(overflowed))
    out = {lab: values[lab] for lab in sorted(values) if values[lab]}
    return DenseTensor._trusted(n, tensor.mode, out)
