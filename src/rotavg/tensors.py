"""Rotational averaging of rank-n Cartesian tensors.

The lab-frame isotropic average of a molecular tensor T is
out[i1..in] = sum over molecular tuples m of <l_{i1 m1} ... l_{in mn}> T[m].
Molecular tuples sharing an exponent matrix contribute through a single
exact average.  Relabeling the lab axes maps each lab tuple's component
onto sign**n times another's, so only the first lab tuple of each orbit of
the six relabelings is summed.  One numpy kernel (``_PairKernel``) takes
those lab tuples in blocks of equal axis counts: it sums the stored values
of each (lab, exponent matrix) cell in component order in one pass, reads
each exponent matrix's average from the evaluator's cache, which evaluates
each orbit once, and weighs the sums, exact values as integer numerators
over one common denominator and floats in each relabeled tuple's own
exponent-matrix order.
The tensor file format lives here too: ``DenseTensor.from_json_obj`` reads
it, checking the whole record list at once before falling back to the
record-by-record loop, and ``DenseTensor.json_blocks`` writes it in blocks
of records, as ``rotavg average`` does.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from math import isfinite, lcm
from numbers import Real
from operator import itemgetter
from typing import Optional

import numpy as np

from .evaluator import ValueCache
from .power_matrix import _PERMS3, PowerMatrix, _axes, _pair_flat, _perm_sign, _strict_int
from .rationals import _RATIONAL_RE, format_rational, parse_rational

IndexTuple = tuple[int, ...]

MODES = ("exact", "float")

DEFAULT_MAX_RANK = 10

# the kernel's rank ceiling; its cell ids (see _PairKernel) stay below
# ((n + 3) / 3)**6, about 6.6e9 here, well inside int64
PAIR_CODE_MAX_RANK = 127

# (lab, component) pairs and (lab, cell) partial sums per numpy pass of the kernel
_BLOCK = 1 << 16

# index positions that vary within one written block: 3**6 records, about 80 kB
_TAIL = 6

# the six relabelings of the lab axes, each as (image, sign): image[i] is
# the new label of axis i (slot 0 unused) and sign the permutation's sign
_RELABELINGS = tuple(((0, *(axis + 1 for axis in p)), _perm_sign(p)) for p in _PERMS3)


class RankLimitError(ValueError):
    """A requested rank, or another size, exceeds its ceiling."""


def _check_ceiling(rank: int, ceiling: int, name: str = "ceiling") -> None:
    if rank > ceiling:
        try:
            message = f"rank {rank} exceeds the {name} {ceiling}"
        except ValueError:  # str of a rank past the int-string limit
            raise _digit_limit_error(f"the rank, above the {name} {ceiling},") from None
        raise RankLimitError(message)


def _digit_limit_error(subject: str) -> RankLimitError:
    """The error for subject, a number with more digits than the interpreter's int-string limit allows."""
    return RankLimitError(
        f"{subject} exceeds the interpreter's limit of "
        f"{sys.get_int_max_str_digits()} digits for integer string conversion"
    )


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
    if not isinstance(value, Real) or not abs(value) <= sys.float_info.max:
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
        try:
            components[idx] = _coerce_value(value, mode)
        except ValueError:
            # a literal of format_rational's form fails to read only past the int-string limit
            if mode == "exact" and isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
                raise _digit_limit_error(f"the value at index {list(idx)}") from None
            raise
    return {idx: value for idx, value in components.items() if value}


def _bulk_components(records: list, rank: int, mode: str) -> Optional[dict[IndexTuple, object]]:
    """_checked_components of records, checked list-wide; None, also on any exception, if any check fails.

    None leaves records to _checked_components, the one definition of
    validity, which names the first bad record.  Each distinct exact value
    is read once, through _coerce_value, so equal literals share one Fraction.
    """
    try:
        indices = list(map(itemgetter("idx"), records))
        values = list(map(itemgetter("value"), records))
        axes = list(chain.from_iterable(indices))
        exact = mode == "exact"
        # types, not values: True == 1 == 1.0, so a bool would pass as an axis or a value
        if (mode not in MODES or set(map(type, records)) - {dict} or set(map(type, indices)) - {list}
                or set(map(len, indices)) - {rank} or set(map(type, axes)) - {int} or set(axes) - {1, 2, 3}
                or set(map(type, values)) - ({str, int} if exact else {float, int})):
            return None
        if exact:
            read = {value: _coerce_value(value, mode) for value in set(values)}
            values, nonzero = list(map(read.__getitem__, values)), all(read.values())
        elif all(map(isfinite, values)):
            values = list(map(float, values))
            nonzero = all(values)
        else:
            return None
        components = dict(zip(map(tuple, indices), values))
        if len(components) < len(values):  # an index twice
            return None
    except Exception:
        return None
    return components if nonzero else {idx: value for idx, value in components.items() if value}


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
        records = []
        for idx, value in self._items(nonzero_only):
            try:
                records.append({"idx": list(idx), "value": render(value)})
            except ValueError:  # str of an int past the limit
                raise _digit_limit_error(f"the value at index {list(idx)}") from None
        return {"rank": self.rank, "mode": self.mode, "components": records}

    def to_json_text(self, nonzero_only: bool = False) -> str:
        """json.dumps(self.to_json_obj(nonzero_only), indent=2), joined from json_blocks."""
        return "".join(self.json_blocks(nonzero_only))

    def json_blocks(self, nonzero_only: bool = False):
        """The text of to_json_text in blocks, each record of one block sharing its first rank - _TAIL axes.

        Every value is rendered before the first block is yielded, each
        distinct value object once, so a value past the interpreter's
        int-string limit raises RankLimitError, naming its index, before
        any text goes out.
        """
        # Exact values are Fractions, whose str is the ASCII -?[0-9]+(/[0-9]+)?
        # of format_rational; float values are finite Python floats, whose repr
        # is their JSON number.  Neither needs escaping.
        n, exact = self.rank, self.mode == "exact"
        cut = max(0, n - _TAIL)
        # each tail's text: its axes, one position at a time, then the value's key
        tails = [""]
        for position in range(cut, n):
            axis = "        %d\n" if position == n - 1 else "        %d,\n"
            tails = [tail + axis % a for tail in tails for a in (1, 2, 3)]
        tails = [tail + ("      ],\n" if n else "") + '      "value": ' for tail in tails]
        opening = '    {\n      "idx": [\n' if n else '    {\n      "idx": [],\n'
        tail_at = {tail: i for i, tail in enumerate(product((1, 2, 3), repeat=n - cut))}
        # A value is rendered once per object; each entry keeps its object
        # alive, so an id is never reused meanwhile.
        texts: dict = {}
        rows: dict = {}  # head -> (tail position, value text) per stored component, in index order
        for idx, value in sorted(self.components.items()):
            entry = texts.get(id(value))
            if entry is None:
                try:
                    entry = texts[id(value)] = (value, ('"%s"' if exact else "%r") % value + "\n    }")
                except ValueError:  # str of an int past the limit
                    raise _digit_limit_error(f"the value at index {list(idx)}") from None
            rows.setdefault(idx[:cut], []).append((tail_at[idx[cut:]], entry[1]))
        if nonzero_only:
            blocks = rows.items()
        else:
            zero = [tail + ('"0"' if exact else "0.0") + "\n    }" for tail in tails]
            blocks = ((head, rows.get(head, ())) for head in product((1, 2, 3), repeat=cut))
        yield '{\n  "rank": %d,\n  "mode": "%s",\n  "components": ' % (n, self.mode)
        separator = "[\n"
        for head, stored in blocks:
            prefix = opening + "".join(["        %d,\n" % a for a in head])
            if nonzero_only:
                records = [tails[i] + text for i, text in stored]
            else:
                records = zero.copy()
                for i, text in stored:
                    records[i] = tails[i] + text
            yield separator + prefix + (",\n" + prefix).join(records)
            separator = ",\n"
        yield "[]\n}" if separator == "[\n" else "\n  ]\n}"

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
        components = _bulk_components(records, rank, mode)
        if components is None:

            def pairs():  # each record's (idx, value), checked as the loop reaches it
                for record in records:
                    if not isinstance(record, dict) or "idx" not in record or "value" not in record:
                        raise ValueError(f"bad component record: {record!r}")
                    yield record["idx"], record["value"]
            components = _checked_components(pairs(), rank, mode)
        return cls._trusted(rank, mode, components)


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
    s_i is row i's place.  Weights come from the evaluator's cache (a fresh
    one unless another is given), which answers every flat of an orbit once
    the first of them met has been evaluated.
    """

    def __init__(self, tensor: DenseTensor, cache: Optional[ValueCache]):
        n = tensor.rank
        _check_ceiling(n, PAIR_CODE_MAX_RANK, "pair-code ceiling")
        self.rank = n
        self.exact = tensor.mode == "exact"
        self.cache = ValueCache() if cache is None else cache
        size = len(tensor.components)
        self.mols = np.fromiter(chain.from_iterable(tensor.components), np.intp, size * n).reshape(size, n) - 1
        values = list(tensor.components.values())
        if self.exact:
            self.denominator = lcm(*(v.denominator for v in values))
            numerators = [v.numerator * (self.denominator // v.denominator) for v in values]
            # int64 holds every partial sum while the largest numerator times their count does
            wide = max(map(abs, numerators), default=0) * len(numerators) >= 2**63
            self.values = np.array(numerators, dtype=object if wide else np.int64)
        else:
            self.values = np.array(values, dtype=np.float64)

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
        weights = list(map(self.cache.value, map(tuple, flats[passing].tolist())))
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
            products = partials * np.array(weights, dtype=np.float64)
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


def _orbit_first_labs(n: int) -> list[np.ndarray]:
    """The zero-based lab tuples that pass the parity rule and use their axes in order of
    first use, one per row, grouped by axis counts, each group in product order.

    Such a lab is the least of its six relabelings, so it is its orbit's first in product order.
    """
    labs, top = np.zeros((1, 0), dtype=np.intp), np.full(1, -1)  # top: each lab's largest axis
    for _ in range(n):
        # each lab followed by each axis up to one past its largest, in product order
        rows, axes = np.divmod(np.arange(3 * len(labs)), 3)
        keep = axes <= top[rows] + 1
        rows, axes = rows[keep], axes[keep]
        labs, top = np.column_stack([labs[rows], axes]), np.maximum(top[rows], axes)
    counts = np.stack([np.count_nonzero(labs == axis, axis=1) for axis in range(3)], axis=1)
    passing = ((counts - n) & 1 == 0).all(axis=1)
    labs, key = labs[passing], counts[passing] @ [(n + 1) ** 2, n + 1, 1]
    order = np.argsort(key, kind="stable")
    return np.split(labs[order], np.flatnonzero(np.diff(key[order])) + 1) if len(labs) else []


def average_component(lab_idx, tensor: DenseTensor, cache: Optional[ValueCache] = None):
    """One lab component of the isotropic average: sum of <...> * T over molecular tuples.

    Runs the pair kernel on this one lab, so the stored molecular tuples
    are summed per exponent matrix and each orbit is evaluated once.  Exact
    for exact tensors; float tensors convert the exact averages at the
    final multiply.
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
    images, values = [np.zeros((0, n), dtype=np.intp)], []
    for labs in _orbit_first_labs(n):
        for (relabel, _), image_values in zip(_RELABELINGS, kernel.images(labs)):
            images.append(np.array(relabel[1:])[labs])
            values.extend(image_values)
    # The images in product order, each once (a lab that uses fewer than
    # three axes is its own image under some relabelings, with equal values).
    # A lab's place in product order fits int64 up to rank 39, far past any
    # rank whose 3**n / 6 orbit-first labs fit in memory.
    images = np.concatenate(images)
    _, first = np.unique((images - 1) @ 3 ** np.arange(n - 1, -1, -1), return_index=True)
    labs, values = map(tuple, images[first].tolist()), [values[i] for i in first.tolist()]
    if tensor.mode == "float" and not all(map(isfinite, values)):
        raise _overflow(next(lab for lab, value in zip(labs, values) if not isfinite(value)))
    out = {lab: value for lab, value in zip(labs, values) if value}
    return DenseTensor._trusted(n, tensor.mode, out)
