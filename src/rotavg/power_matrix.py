"""Power matrices of direction-cosine products and their symmetry group.

A product of n direction cosines is recorded, after collecting like factors,
by a 3x3 matrix of nonnegative exponents: entry (i, m) counts how many
factors pair lab axis i with molecular axis m.  Row permutations, column
permutations and transposition (72 operations in total) change the uniform
rotational average of the product by at most a sign, so orbit-minimal
representatives make good cache keys for the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from numbers import Integral
from typing import Iterable, Optional, Sequence

Rows = tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]
Flat = tuple[int, ...]
Perm = tuple[int, int, int]


@dataclass(frozen=True, init=False)
class PowerMatrix:
    """3x3 matrix of nonnegative integer exponents, stored as its row-major 9-tuple."""

    flat: Flat

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = [_as_tuple(row, "power matrix row") for row in _as_tuple(rows, "power matrix")]
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise ValueError("power matrix must be 3x3")
        flat = tuple(_strict_int(e, "power matrix entry", 0) for row in rows for e in row)
        object.__setattr__(self, "flat", flat)

    @classmethod
    def _trusted(cls, flat: Flat) -> "PowerMatrix":
        """Wrap a flat 9-tuple of nonnegative ints without validating it.

        Only for flats the package generated itself; every outside input
        goes through the validating constructor.
        """
        chi = object.__new__(cls)
        chi.__dict__["flat"] = flat
        return chi

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "PowerMatrix":
        return cls(rows)

    @classmethod
    def from_flat(cls, flat: Sequence[int]) -> "PowerMatrix":
        flat = _as_tuple(flat, "flat power matrix")
        if len(flat) != 9:
            raise ValueError("flat power matrix needs exactly 9 entries")
        return cls((flat[0:3], flat[3:6], flat[6:9]))

    @property
    def rows(self) -> Rows:
        """The three rows, sliced from flat."""
        flat = self.flat
        return (flat[0:3], flat[3:6], flat[6:9])

    @property
    def rank(self) -> int:
        """Total number of direction-cosine factors (sum of all entries)."""
        return sum(self.flat)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __str__(self) -> str:
        return "[" + ", ".join(str(list(row)) for row in self.rows) + "]"


def _as_tuple(values, what: str) -> tuple:
    """tuple(values); a ValueError naming what if values is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be a sequence, not {values!r}") from None


def _strict_int(value, what: str, minimum: Optional[int] = None) -> int:
    """value as an int no smaller than minimum.

    int() alone would truncate 1.7 and accept True or "1".
    """
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{what} must be an integer, not {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be at least {minimum}, not {value}")
    return value


def _axes(values, what: str) -> tuple[int, ...]:
    """values as a tuple of one-based axes, ints in {1, 2, 3}; what names values in errors."""
    # one pass, not _as_tuple then a second tuple: this runs per tensor component
    try:
        axes = tuple(_strict_int(i, what) for i in values)
    except TypeError:
        raise ValueError(f"{what} must be a sequence, not {values!r}") from None
    if any(i not in (1, 2, 3) for i in axes):
        raise ValueError(f"{what} {axes} has an axis outside {{1, 2, 3}}")
    return axes


@dataclass(frozen=True)
class MultiIndex:
    """Paired lab/molecular axis lists, one-based values in {1, 2, 3}."""

    lab: tuple[int, ...]
    mol: tuple[int, ...]

    def __post_init__(self):
        lab = _axes(self.lab, "lab index")
        mol = _axes(self.mol, "molecular index")
        if len(lab) != len(mol):
            raise ValueError("lab and molecular index lists must have equal length")
        object.__setattr__(self, "lab", lab)
        object.__setattr__(self, "mol", mol)

    def __len__(self) -> int:
        return len(self.lab)


def _pair_flat(lab: Sequence[int], mol: Sequence[int]) -> Flat:
    """Flat exponent matrix of paired axes; unchecked, so axes must be ints in {1, 2, 3}."""
    flat = [0] * 9
    for i, lam in zip(lab, mol):
        flat[3 * (i - 1) + (lam - 1)] += 1
    return tuple(flat)


def from_multi_index(m: MultiIndex) -> PowerMatrix:
    """Collect like factors: entry (i, lam) counts positions pairing i with lam."""
    return PowerMatrix._trusted(_pair_flat(m.lab, m.mol))


def selection_rule(chi: PowerMatrix) -> bool:
    """True iff every row and column sum of chi has the same parity as its rank.

    This is a necessary condition for the rotational average to be nonzero:
    conjugating by coordinate reflections flips the sign of any product whose
    exponent rows or columns are parity-unbalanced.
    """
    return _selection_flat(chi.flat)


def _selection_flat(f: Flat) -> bool:
    n_par = (f[0] + f[1] + f[2] + f[3] + f[4] + f[5] + f[6] + f[7] + f[8]) & 1
    return (
        (f[0] + f[1] + f[2]) & 1 == n_par
        and (f[3] + f[4] + f[5]) & 1 == n_par
        and (f[6] + f[7] + f[8]) & 1 == n_par
        and (f[0] + f[3] + f[6]) & 1 == n_par
        and (f[1] + f[4] + f[7]) & 1 == n_par
        and (f[2] + f[5] + f[8]) & 1 == n_par
    )


def determinant(chi: PowerMatrix) -> int:
    """Exact integer determinant of the 3x3 exponent matrix."""
    return _det_flat(chi.flat)


def _det_flat(f: Flat) -> int:
    return (
        f[0] * (f[4] * f[8] - f[5] * f[7])
        - f[1] * (f[3] * f[8] - f[5] * f[6])
        + f[2] * (f[3] * f[7] - f[4] * f[6])
    )


def _perm_sign(p: Perm) -> int:
    sign = 1
    for i in range(3):
        for j in range(i + 1, 3):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _compose_perm(p1: Perm, p2: Perm) -> Perm:
    # (p1 after p2): output slot i reads from p1[p2[i]]
    return (p1[p2[0]], p1[p2[1]], p1[p2[2]])


@dataclass(frozen=True)
class SymmetryOp:
    """One of the 72 symmetries: permute rows and columns, then optionally transpose.

    ``row_perm[i]`` is the source row for output row i (likewise for columns).
    The transpose step does not contribute to :attr:`sign`.
    """

    row_perm: Perm
    col_perm: Perm
    transpose: bool = False

    @property
    def sign(self) -> int:
        return _perm_sign(self.row_perm) * _perm_sign(self.col_perm)

    def then(self, other: "SymmetryOp") -> "SymmetryOp":
        """Composite operation: apply ``self`` first, then ``other``."""
        if not self.transpose:
            return SymmetryOp(
                _compose_perm(self.row_perm, other.row_perm),
                _compose_perm(self.col_perm, other.col_perm),
                other.transpose,
            )
        return SymmetryOp(
            _compose_perm(self.row_perm, other.col_perm),
            _compose_perm(self.col_perm, other.row_perm),
            not other.transpose,
        )


_PERMS3: tuple[Perm, ...] = tuple(permutations((0, 1, 2)))

IDENTITY_OP = SymmetryOp((0, 1, 2), (0, 1, 2), False)

ALL_OPS: tuple[SymmetryOp, ...] = tuple(
    SymmetryOp(rp, cp, t) for rp in _PERMS3 for cp in _PERMS3 for t in (False, True)
)


def _flat_source_map(op: SymmetryOp) -> Flat:
    # out[i][j] = in[rp[i]][cp[j]], or in[rp[j]][cp[i]] after a transpose
    src = []
    for i in range(3):
        for j in range(3):
            if op.transpose:
                src.append(3 * op.row_perm[j] + op.col_perm[i])
            else:
                src.append(3 * op.row_perm[i] + op.col_perm[j])
    return tuple(src)


# precomputed index maps make orbit scans cheap: applying an op is one gather
_FLAT_OPS: tuple[tuple[Flat, int], ...] = tuple(
    (_flat_source_map(op), op.sign) for op in ALL_OPS
)
_OP_SOURCES: dict[SymmetryOp, Flat] = {op: src for op, (src, _) in zip(ALL_OPS, _FLAT_OPS)}


def apply_symmetry(chi: PowerMatrix, op: SymmetryOp) -> PowerMatrix:
    """Permute rows and columns of chi by op, then transpose if flagged."""
    src = _OP_SOURCES.get(op)
    if src is None:
        raise ValueError(f"not one of the 72 symmetry operations: {op!r}")
    flat = chi.flat
    return PowerMatrix._trusted(tuple(flat[k] for k in src))


@dataclass(frozen=True)
class CanonicalForm:
    """Orbit-minimal representative together with the relating sign.

    The value of chi equals ``sign`` times the value of ``representative``.
    For even rank the sign is always +1.  A sign of 0 means some odd-signed
    symmetry stabilizes the orbit (e.g. two equal rows at odd rank), which
    forces the value itself to vanish.
    """

    representative: PowerMatrix
    sign: int


def canonical_flat(flat: Flat) -> tuple[Flat, int]:
    """Lexicographic orbit minimum of a flat matrix plus the relating sign.

    The sign follows :func:`orbit_signs`: that of the operations reaching the
    minimum, 0 where opposite-signed ones meet, and +1 throughout at even rank.
    """
    # one pass with no dict: this is evaluate's hit path, where
    # min(orbit_signs(flat)) measured about 40% slower
    best, sign = flat, 1  # the identity's image
    for src, sgn in _FLAT_OPS:
        img = (
            flat[src[0]], flat[src[1]], flat[src[2]],
            flat[src[3]], flat[src[4]], flat[src[5]],
            flat[src[6]], flat[src[7]], flat[src[8]],
        )
        if img < best:
            best, sign = img, sgn
        elif img == best and sgn != sign:
            sign = 0
    return best, sign if sum(flat) & 1 else 1


def is_orbit_minimum(flat: Flat) -> bool:
    """True iff no symmetry image of flat is lexicographically smaller.

    Stops at the first smaller image, so it is much cheaper than
    :func:`canonical_flat` on the many flats that are not minima.
    """
    # a smaller image moves the minimum to the front, or keeps flat[0]: swap cols 1-2, rows 1-2, transpose
    if flat[0] != min(flat) or flat[1] > flat[2] or flat[3] > flat[6] or flat[1] > flat[3]:
        return False
    for src, _ in _FLAT_OPS:
        if (
            flat[src[0]], flat[src[1]], flat[src[2]],
            flat[src[3]], flat[src[4]], flat[src[5]],
            flat[src[6]], flat[src[7]], flat[src[8]],
        ) < flat:
            return False
    return True


def orbit_signs(rep: Flat) -> dict[Flat, int]:
    """Every image of rep mapped to the sign relating its value to rep's.

    The signs are those :func:`canonical_flat` reports when rep is the orbit
    minimum: +1 throughout at even rank, and at odd rank the sign of the
    operations reaching the image, or 0 where opposite-signed ones meet.
    """
    odd = sum(rep) & 1
    signs: dict[Flat, int] = {}
    for src, sgn in _FLAT_OPS:
        img = (
            rep[src[0]], rep[src[1]], rep[src[2]],
            rep[src[3]], rep[src[4]], rep[src[5]],
            rep[src[6]], rep[src[7]], rep[src[8]],
        )
        sgn = sgn if odd else 1
        if signs.setdefault(img, sgn) != sgn:
            signs[img] = 0
    return signs


def canonicalize(chi: PowerMatrix) -> CanonicalForm:
    """Orbit-minimal form of chi under all 72 symmetries.

    Ties between opposite-signed operations reaching the minimum at odd rank
    yield sign 0, which downstream short-circuits the value to 0.
    """
    rep, sign = canonical_flat(chi.flat)
    return CanonicalForm(PowerMatrix._trusted(rep), sign)


def orbit(chi: PowerMatrix) -> list[PowerMatrix]:
    """All distinct images of chi under the 72 symmetries, sorted."""
    return [PowerMatrix._trusted(f) for f in sorted(orbit_signs(chi.flat))]
