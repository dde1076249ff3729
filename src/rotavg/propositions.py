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
from typing import Iterable, Iterator, Optional

from .evaluator import ValueCache, double_factorial, evaluate
from .power_matrix import (
    Flat,
    PowerMatrix,
    _det_flat,
    _selection_flat,
    _strict_int,
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
    return comb(_strict_int(n, "rank", 0) + 8, 8)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to total, in lexicographic order.

    Stars and bars: the running sums before each of the last parts-1 parts
    form a nondecreasing sequence of cuts in 0..total, and the cuts come
    out of combinations_with_replacement in the order that makes the parts
    lexicographic.  total is a rank, so it must be a nonnegative int.
    """
    total = _strict_int(total, "rank", 0)
    head, tail = (0,), (total,)
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + tail, head + cuts))


def enumerate_power_matrices(n: int) -> Iterator[PowerMatrix]:
    """All rank-n exponent matrices exactly once, in lexicographic flat order."""
    for flat in _compositions(n, 9):
        yield PowerMatrix._trusted(flat)


def canonical_representatives(n: int) -> list[PowerMatrix]:
    """The orbit-minimal matrices of rank n, in lexicographic order."""
    return [PowerMatrix._trusted(flat) for flat in filter(is_orbit_minimum, _compositions(n, 9))]


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


def _make_report(rank: int, claim: str, violations: list[PowerMatrix]) -> PropositionReport:
    verdict = "holds" if not violations else "fails-with-witnesses"
    return PropositionReport(rank, claim, enumeration_count(rank), violations, verdict)


def _rank_checks(
    n: int, rows: Iterable[tuple[PowerMatrix, Fraction]]
) -> tuple[PropositionReport, Optional[PropositionReport], Optional[list[PowerMatrix]]]:
    """Every vanishing-rule check at rank n, from its canonical rank_table rows.

    Returns the even-rule or odd-rule report, then the prime-rule report and
    the converse witnesses, both None unless n is an odd prime.  Values are
    constant on orbits up to sign, so one row per orbit decides each claim,
    and a violating orbit is reported through its canonical witness.
    """
    passing = [(chi, value != 0) for chi, value in rows if _selection_flat(chi.flat)]
    if n % 2 == 0:
        violations = [chi for chi, nonzero in passing if not nonzero]
        return _make_report(n, "nonzero-iff-selection-rule", violations), None, None
    dets = [(chi, nonzero, _det_flat(chi.flat)) for chi, nonzero in passing]
    violations = [chi for chi, nonzero, det in dets if nonzero != (det != 0)]
    rule = _make_report(n, "nonzero-iff-selection-rule-and-det", violations)
    if not _is_odd_prime(n):
        return rule, None, None
    coprime_zero = [chi for chi, nonzero, det in dets if not nonzero and det % n]
    prime = _make_report(n, "nonzero-when-selection-holds-and-rank-coprime-det", coprime_zero)
    return rule, prime, [chi for chi, nonzero, det in dets if nonzero and det % n == 0]


def _is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _sweep(n: int, cache: Optional[ValueCache], accepts, required: str) -> tuple:
    """_rank_checks over the canonical walk of rank n, once n is an int rank accepts takes."""
    n = _strict_int(n, "rank", 0)
    if not accepts(n):
        raise ValueError(required)
    return _rank_checks(n, rank_table(n, cache, canonical_only=True))


def verify_even_rule(n: int, cache: Optional[ValueCache] = None) -> PropositionReport:
    """Check "average nonzero iff the selection rule holds" over all rank-n matrices.

    Expected to hold for n in {0, 2, 4, 6, 10, 12}; at n = 8 the witnesses
    are exactly the orbit of RANK8_EXCEPTION.
    """
    return _sweep(n, cache, lambda k: k % 2 == 0, "even rank required")[0]


def verify_odd_rule(n: int, cache: Optional[ValueCache] = None) -> PropositionReport:
    """Check "average nonzero iff selection rule holds and det != 0" at odd rank n.

    Expected to hold for n in {1, 3, 5, 7, 11, 13}; at n = 9 the witnesses
    are exactly the orbit of RANK9_EXCEPTION.
    """
    return _sweep(n, cache, lambda k: k % 2, "odd rank required")[0]


def verify_prime_nonvanishing(n: int, cache: Optional[ValueCache] = None) -> PropositionReport:
    """At odd prime rank n: nonzero whenever the selection rule holds and n ∤ det."""
    return _sweep(n, cache, _is_odd_prime, "odd prime rank required")[1]


def prop_converse_witnesses(n: int, cache: Optional[ValueCache] = None) -> list[PowerMatrix]:
    """Orbits at odd prime rank n with selection rule, n | det, and nonzero average.

    These witness that divisibility of the determinant by the rank does not
    force the average to vanish.  Found by scanning; nothing is hard-coded.
    """
    return _sweep(n, cache, _is_odd_prime, "odd prime rank required")[2]


def counterexample_family(v: int, y: int, w: int) -> PowerMatrix:
    """A family of even-rank matrices whose average vanishes despite the selection rule.

    Requires even v, y >= 2 and odd 1 <= w <= v*y - 3; the rank comes out to
    (v+1)(y+1) - 1.  The caller can confirm selection_rule(result) is True
    and evaluate(result) == 0.
    """
    v, y, w = _strict_int(v, "v"), _strict_int(y, "y"), _strict_int(w, "w")
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
    per selection-passing orbit.  The walk meets each orbit first at its
    minimum; it evaluates there and holds the signed value of every image
    still ahead, popping each when the walk reaches it.  ``canonical_only``
    keeps only the minima.  Rows of one orbit share value objects.
    ``threads`` is accepted for compatibility and ignored.
    """
    cache = cache if cache is not None else ValueCache()
    ahead: dict[Flat, Fraction] = {}
    for flat in _compositions(n, 9):
        value = ahead.pop(flat, None)
        # an image held in ahead follows its orbit's minimum, so it is no minimum
        if canonical_only and (value is not None or not is_orbit_minimum(flat)):
            continue
        if value is None and _selection_flat(flat):
            signs = orbit_signs(flat)
            exact = evaluate(PowerMatrix._trusted(flat), cache)
            values = (_ZERO, exact, -exact)  # by sign 0, 1, -1
            value = values[signs.pop(flat)]
            for image, sign in signs.items():
                ahead[image] = values[sign]
        elif value is None:
            value = _ZERO
        if not nonzero or value:
            yield PowerMatrix._trusted(flat), value
