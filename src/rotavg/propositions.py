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

from .evaluator import _ZERO, ValueCache, _orbit_value, double_factorial
from .power_matrix import (
    Flat,
    PowerMatrix,
    _det_flat,
    _selection_flat,
    _strict_int,
    determinant,
    is_orbit_minimum,
    selection_rule,
)

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


# The walks below split each flat into a 5-entry prefix (f0..f4) and a
# 4-entry suffix (f5..f8).  The prefixes of rank n are the first five parts
# of the 6-part compositions of n, whose last part r is what the suffix must
# sum to; walking prefixes in lexicographic order, and each prefix's block of
# suffixes in lexicographic order, visits the flats in lexicographic order.
# A flat's parity signature has bits 0 and 1 set when rows 1 and 2 have odd
# sums, and bits 2 and 3 when columns 1 and 2 do.  As in _selection_flat,
# the third row and column follow from these, so the selection rule holds
# iff every bit equals the rank's parity.  The signature is the prefix's XOR
# the suffix's.  The CLI's enumerate renderer splits its row templates at
# the same place.
_PREFIX_LEN = 5


def _suffix_lists(n: int) -> list[list[Flat]]:
    """Per remainder r in 0..n, the suffixes summing to r in lexicographic order.

    binom(n+4, 4) tuples in all, built before the first block: a small share
    of the binom(n+8, 8) flats a full walk of rank n visits.
    """
    return [list(_compositions(r, 9 - _PREFIX_LEN)) for r in range(n + 1)]


def _prefix_signature(f0: int, f1: int, f2: int, f3: int, f4: int) -> int:
    return (f0 + f1 + f2) & 1 | ((f3 + f4) & 1) << 1 | ((f0 + f3) & 1) << 2 | ((f1 + f4) & 1) << 3


def _suffix_signature(f5: int, f6: int, f7: int, f8: int) -> int:
    return (f5 & 1) << 1 | (f6 & 1) << 2 | (f7 & 1) << 3


def _selection_target(n: int) -> int:
    """The signature the selection rule asks for: every bit the parity of n."""
    return 0b1111 if n & 1 else 0


def enumerate_power_matrices(n: int) -> Iterator[PowerMatrix]:
    """All rank-n exponent matrices exactly once, in lexicographic flat order."""
    for flat in _compositions(n, 9):
        yield PowerMatrix._trusted(flat)


def _minima_blocks(n: int, suffixes: list[list[Flat]]) -> Iterator[tuple[Flat, int, list[int]]]:
    """(prefix, r, positions in suffixes[r]) for every prefix block holding an orbit minimum.

    A minimum's first entry is its least, and the swaps that keep f0 in
    place (columns 1-2, rows 1-2, the transpose) ask f1 <= f2, f3 <= f6 and
    f1 <= f3; only the flats meeting these go through is_orbit_minimum.
    """
    for composition in _compositions(n, _PREFIX_LEN + 1):
        f0, f1, f2, f3, f4, r = composition
        if f0 > f1 or f1 > f2 or f1 > f3 or f0 > f4 or 4 * f0 > r:
            continue
        prefix = composition[:_PREFIX_LEN]
        positions = [
            i
            for i, tail in enumerate(suffixes[r])
            if tail[1] >= f3 and (not f0 or min(tail) >= f0) and is_orbit_minimum(prefix + tail)
        ]
        if positions:
            yield prefix, r, positions


def canonical_representatives(n: int) -> list[PowerMatrix]:
    """The orbit-minimal matrices of rank n, in lexicographic order."""
    suffixes = _suffix_lists(_strict_int(n, "rank", 0))
    return [
        PowerMatrix._trusted(prefix + suffixes[r][i])
        for prefix, r, positions in _minima_blocks(n, suffixes)
        for i in positions
    ]


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


def _sweep(n: int, accepts, required: str) -> tuple:
    """_rank_checks over the canonical walk of rank n, once n is an int rank accepts takes."""
    n = _strict_int(n, "rank", 0)
    if not accepts(n):
        raise ValueError(required)
    return _rank_checks(n, rank_table(n, canonical_only=True))


def verify_even_rule(n: int, cache: Optional[ValueCache] = None) -> PropositionReport:
    """Check "average nonzero iff the selection rule holds" over all rank-n matrices.

    Expected to hold for n in {0, 2, 4, 6, 10, 12}; at n = 8 the witnesses
    are exactly the orbit of RANK8_EXCEPTION.  ``cache`` is neither read nor filled.
    """
    return _sweep(n, lambda k: k % 2 == 0, "even rank required")[0]


def verify_odd_rule(n: int, cache: Optional[ValueCache] = None) -> PropositionReport:
    """Check "average nonzero iff selection rule holds and det != 0" at odd rank n.

    Expected to hold for n in {1, 3, 5, 7, 11, 13}; at n = 9 the witnesses
    are exactly the orbit of RANK9_EXCEPTION.  ``cache`` is neither read nor filled.
    """
    return _sweep(n, lambda k: k % 2, "odd rank required")[0]


def verify_prime_nonvanishing(n: int, cache: Optional[ValueCache] = None) -> PropositionReport:
    """At odd prime rank n: nonzero if the selection rule holds and n ∤ det; cache unused."""
    return _sweep(n, _is_odd_prime, "odd prime rank required")[1]


def prop_converse_witnesses(n: int, cache: Optional[ValueCache] = None) -> list[PowerMatrix]:
    """Orbits at odd prime rank n with selection rule, n | det, and nonzero average.

    These witness that divisibility of the determinant by the rank does not
    force the average to vanish.  Found by scanning; nothing is hard-coded.
    ``cache`` is neither read nor filled.
    """
    return _sweep(n, _is_odd_prime, "odd prime rank required")[2]


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


def _table_blocks(
    n: int, cache: ValueCache, canonical_only: bool = False
) -> tuple[list[list[Flat]], Iterator[tuple[Flat, int, list[tuple[int, Fraction]]]]]:
    """The rank-n table walk, one prefix block at a time.

    Returns the suffix lists, per remainder r, and an iterator of blocks
    (prefix, r, rows): the flats of a block are prefix + suffixes[r][i] in
    order of i, and rows pairs positions i with values.  In the full walk,
    rows holds the selection-passing flats and every other flat is zero;
    with ``canonical_only`` it holds the orbit minima, the only flats kept.
    The full walk reads each row's value from the cache, which answers every
    member of an orbit once the walk has evaluated its first, the minimum;
    the canonical walk evaluates each minimum once and leaves the cache alone.
    """
    n = _strict_int(n, "rank", 0)
    suffixes = _suffix_lists(n)
    return suffixes, _minima_rows(n, suffixes) if canonical_only else _full_rows(n, cache, suffixes)


def _full_rows(n: int, cache: ValueCache, suffixes: list[list[Flat]]):
    target = _selection_target(n)
    passing = []  # per r: signature -> positions of the suffixes with it
    for tails in suffixes:
        by_signature: dict[int, list[int]] = {}
        for i, tail in enumerate(tails):
            by_signature.setdefault(_suffix_signature(*tail) ^ target, []).append(i)
        passing.append(by_signature)
    value = cache.value
    for composition in _compositions(n, _PREFIX_LEN + 1):
        prefix, r = composition[:_PREFIX_LEN], composition[_PREFIX_LEN]
        tails = suffixes[r]
        rows = []
        for i in passing[r].get(_prefix_signature(*prefix), ()):
            rows.append((i, value(prefix + tails[i])))
        yield prefix, r, rows


def _minima_rows(n: int, suffixes: list[list[Flat]]):
    target = _selection_target(n)
    for prefix, r, positions in _minima_blocks(n, suffixes):
        tails = suffixes[r]
        want = _prefix_signature(*prefix) ^ target
        # each flat is its own orbit's minimum; every zero row holds the one _ZERO object
        rows = [
            (i, _orbit_value(prefix + tails[i])[1] if _suffix_signature(*tails[i]) == want else _ZERO)
            for i in positions
        ]
        yield prefix, r, rows


def rank_table(
    n: int,
    cache: Optional[ValueCache] = None,
    nonzero: bool = False,
    canonical_only: bool = False,
    threads: int = 1,
) -> Iterator[tuple[PowerMatrix, Fraction]]:
    """All rank-n matrices with their exact averages, in lexicographic order.

    Values match :func:`rotavg.evaluator.evaluate` exactly, whose closed form
    runs once per selection-passing orbit of nonzero sign.  ``canonical_only``
    keeps only the orbit minima, each evaluated once, and neither reads nor
    fills the cache.  Rows of one full walk's orbit share value objects.
    The rows are those of :func:`_table_blocks`, flattened.  ``threads`` is
    accepted for compatibility and ignored.
    """
    cache = cache if cache is not None else ValueCache()
    suffixes, blocks = _table_blocks(n, cache, canonical_only)
    trusted = PowerMatrix._trusted
    for prefix, r, rows in blocks:
        tails = suffixes[r]
        if nonzero or canonical_only:
            for i, value in rows:
                if not nonzero or value:
                    yield trusted(prefix + tails[i]), value
        else:
            values = dict(rows)
            for i, tail in enumerate(tails):
                yield trusted(prefix + tail), values.get(i, _ZERO)
