"""Exhaustive rank enumeration and machine checks of the vanishing rules.

The number of exponent matrices of rank n is binom(n+8, 8), small enough to
sweep completely through rank 13 and beyond.  The checks below confirm, per
rank, when "nonzero" coincides with the parity selection rule (even ranks)
or with the rule plus a nonvanishing determinant (odd ranks), and they
report the orbits that break the pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from operator import sub
from typing import Iterator, Optional

from .evaluator import ValueCache, double_factorial, evaluate
from .power_matrix import (
    Flat,
    PowerMatrix,
    _det_flat,
    _selection_flat,
    determinant,
    is_orbit_minimum,
    orbit_signs,
    selection_rule,
)

_ZERO = Fraction(0)

# the two rank-specific exceptions to the simple vanishing rules: a rank-8
# matrix whose average vanishes although the selection rule holds, and a
# rank-9 matrix with zero determinant but nonvanishing average
RANK8_EXCEPTION = PowerMatrix(((0, 0, 0), (1, 1, 2), (1, 1, 2)))
RANK9_EXCEPTION = PowerMatrix(((1, 1, 1), (1, 2, 0), (1, 0, 2)))


def enumeration_count(n: int) -> int:
    """Number of 3x3 nonnegative integer matrices with entry sum n."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    return comb(n + 8, 8)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to total, in lexicographic order.

    Stars and bars: the running sums before each of the last parts-1 parts
    form a nondecreasing sequence of cuts in 0..total, and the cuts come
    out of combinations_with_replacement in the order that makes the parts
    lexicographic.
    """
    head, tail = (0,), (total,)
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + tail, head + cuts))


def enumerate_power_matrices(n: int) -> Iterator[PowerMatrix]:
    """All rank-n exponent matrices exactly once, in lexicographic flat order."""
    if n < 0:
        raise ValueError("rank must be nonnegative")
    for flat in _compositions(n, 9):
        yield PowerMatrix._trusted(flat)


def _representatives(n: int) -> Iterator[Flat]:
    """The orbit-minimal flats of rank n, in lexicographic order."""
    return filter(is_orbit_minimum, _compositions(n, 9))


def canonical_representatives(n: int) -> list[PowerMatrix]:
    """The orbit-minimal matrices of rank n, in lexicographic order."""
    return [PowerMatrix._trusted(flat) for flat in _representatives(n)]


def _orbit_scan(n: int) -> Iterator[tuple[Flat, Optional[Flat], int]]:
    """Every rank-n flat in lexicographic order as (flat, orbit minimum, sign).

    The sign is the one :func:`rotavg.power_matrix.canonical_flat` reports.
    The first flat of an orbit that the walk meets is its minimum; the scan
    expands that orbit once and pops each image when the walk reaches it,
    so it only holds images still ahead.  Orbits that fail the selection
    rule are not expanded: their flats come with minimum None and sign 0.
    """
    ahead: dict[Flat, tuple[Flat, int]] = {}
    for flat in _compositions(n, 9):
        found = ahead.pop(flat, None)
        if found is not None:
            yield flat, found[0], found[1]
        elif _selection_flat(flat):
            signs = orbit_signs(flat)
            sign = signs.pop(flat)
            for image, image_sign in signs.items():
                ahead[image] = (flat, image_sign)
            yield flat, flat, sign
        else:
            yield flat, None, 0


@dataclass
class PropositionReport:
    """Outcome of one exhaustive rank check."""

    rank: int
    claim: str
    checked: int
    violations: list[PowerMatrix]
    verdict: str  # "holds" | "fails-with-witnesses"

    def to_json_obj(self) -> dict:
        return {
            "rank": self.rank,
            "claim": self.claim,
            "checked": self.checked,
            "violations": [chi.to_lists() for chi in self.violations],
            "verdict": self.verdict,
        }


def _make_report(rank: int, claim: str, violations: list[Flat]) -> PropositionReport:
    witnesses = [PowerMatrix._trusted(flat) for flat in violations]
    verdict = "holds" if not witnesses else "fails-with-witnesses"
    return PropositionReport(rank, claim, enumeration_count(rank), witnesses, verdict)


def verify_even_rule(n: int, cache: Optional[ValueCache] = None) -> PropositionReport:
    """Check "average nonzero iff the selection rule holds" over all rank-n matrices.

    Values are constant on orbits up to sign, so each orbit is checked once
    and a violating orbit (selection rule holds, value 0) is reported
    through its canonical witness.  Expected to hold for n in
    {0, 2, 4, 6, 10, 12}; at n = 8 the witnesses are exactly the orbit of
    RANK8_EXCEPTION.
    """
    if n % 2:
        raise ValueError("even rank required")
    cache = cache if cache is not None else ValueCache()
    violations = [
        rep
        for rep in filter(_selection_flat, _representatives(n))
        if evaluate(PowerMatrix._trusted(rep), cache) == 0
    ]
    return _make_report(n, "nonzero-iff-selection-rule", violations)


def verify_odd_rule(n: int, cache: Optional[ValueCache] = None) -> PropositionReport:
    """Check "average nonzero iff selection rule holds and det != 0" at odd rank n.

    Expected to hold for n in {1, 3, 5, 7, 11, 13}; at n = 9 the witnesses
    are exactly the orbit of RANK9_EXCEPTION.
    """
    if n % 2 == 0:
        raise ValueError("odd rank required")
    cache = cache if cache is not None else ValueCache()
    violations = [
        rep
        for rep in filter(_selection_flat, _representatives(n))
        if (evaluate(PowerMatrix._trusted(rep), cache) != 0) != (_det_flat(rep) != 0)
    ]
    return _make_report(n, "nonzero-iff-selection-rule-and-det", violations)


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def verify_prime_nonvanishing(n: int, cache: Optional[ValueCache] = None) -> PropositionReport:
    """At odd prime rank n: nonzero whenever the selection rule holds and n ∤ det."""
    if not _is_odd_prime(n):
        raise ValueError("odd prime rank required")
    cache = cache if cache is not None else ValueCache()
    violations = [
        rep
        for rep in filter(_selection_flat, _representatives(n))
        if evaluate(PowerMatrix._trusted(rep), cache) == 0 and _det_flat(rep) % n
    ]
    return _make_report(n, "nonzero-when-selection-holds-and-rank-coprime-det", violations)


def prop_converse_witnesses(n: int, cache: Optional[ValueCache] = None) -> list[PowerMatrix]:
    """Orbits at odd prime rank n with selection rule, n | det, and nonzero average.

    These witness that divisibility of the determinant by the rank does not
    force the average to vanish.  Found by scanning; nothing is hard-coded.
    """
    if not _is_odd_prime(n):
        raise ValueError("odd prime rank required")
    cache = cache if cache is not None else ValueCache()
    return [
        PowerMatrix._trusted(rep)
        for rep in filter(_selection_flat, _representatives(n))
        if evaluate(PowerMatrix._trusted(rep), cache) != 0 and _det_flat(rep) % n == 0
    ]


def counterexample_family(v: int, y: int, w: int) -> PowerMatrix:
    """A family of even-rank matrices whose average vanishes despite the selection rule.

    Requires even v, y >= 2 and odd 1 <= w <= v*y - 3; the rank comes out to
    (v+1)(y+1) - 1.  The caller can confirm selection_rule(result) is True
    and evaluate(result) == 0.
    """
    if v < 2 or v % 2:
        raise ValueError("v must be even and >= 2")
    if y < 2 or y % 2:
        raise ValueError("y must be even and >= 2")
    if w < 1 or w > v * y - 3 or w % 2 == 0:
        raise ValueError("w must be odd with 1 <= w <= v*y - 3")
    return PowerMatrix(((0, 0, 0), (1, 1, v), (w, v * y - w - 2, y)))


def first_order_term(chi: PowerMatrix) -> Fraction:
    """Aggregate of the four q+r+t+u = 1 summands of the closed-form sum.

    Only defined at odd rank with the selection rule holding (the summands
    exist only there).  The aggregate collapses to a determinant bracket:
    a product of five double factorials times det - n*(QU - RT), over n!!.
    """
    Q, R, S, T, U, V, W, X, Y = chi.flat
    n = chi.rank
    if n % 2 == 0:
        raise ValueError("odd rank required")
    if not selection_rule(chi):
        raise ValueError("selection rule must hold")
    bracket = determinant(chi) - n * (Q * U - R * T)
    num = (
        double_factorial(Q + R + T + U + Y - 2)
        * double_factorial(T + U + V - 2)
        * double_factorial(Q + R + S - 2)
        * double_factorial(R + U + X - 2)
        * double_factorial(Q + T + W - 2)
    )
    return Fraction(num * bracket, double_factorial(n))


def rank_table(
    n: int,
    cache: Optional[ValueCache] = None,
    nonzero: bool = False,
    canonical_only: bool = False,
    threads: int = 1,
) -> Iterator[tuple[PowerMatrix, Fraction]]:
    """All rank-n matrices with their exact averages, in lexicographic order.

    Values match :func:`rotavg.evaluator.evaluate` exactly, which runs once
    per selection-passing orbit; every other row follows from the orbit scan.
    ``threads`` is accepted for compatibility and ignored.
    """
    if n < 0:
        raise ValueError("rank must be nonnegative")
    cache = cache if cache is not None else ValueCache()
    if canonical_only:
        for rep in _representatives(n):
            chi = PowerMatrix._trusted(rep)
            value = evaluate(chi, cache)
            if not nonzero or value:
                yield chi, value
        return
    signed: dict[Flat, tuple[Fraction, Fraction, Fraction]] = {}  # by sign 0, 1, -1
    for flat, rep, sign in _orbit_scan(n):
        if rep is None:
            value = _ZERO
        else:
            values = signed.get(rep)
            if values is None:
                value = evaluate(PowerMatrix._trusted(rep), cache)
                values = signed[rep] = (_ZERO, value, -value)
            value = values[sign]
        if not nonzero or value:
            yield PowerMatrix._trusted(flat), value
