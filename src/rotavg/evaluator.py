"""Exact evaluation of uniform rotational averages of direction-cosine products.

The average over uniformly random rotations of l11^Q l12^R ... l33^Y is an
exact rational number.  :func:`closed_form` computes it by a finite
double-factorial sum; :func:`beta_path` recomputes it through exact
beta-function values as an independent cross-check; :func:`evaluate` adds the
vanishing shortcuts and an orbit-level cache and answers every rank through
the closed form; the acceptance criteria check the rank-3 (det/6) and rank-5
(det/30) laws against it.  No floating point is used anywhere in this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterator, NamedTuple, Optional, Union

from .power_matrix import (
    Flat,
    PowerMatrix,
    _strict_int,
    canonical_flat,
    orbit_signs,
    selection_rule,
)

_ZERO = Fraction(0)  # the one zero object that the cache holds and evaluate returns

_DF = [1, 1]  # k!! for k = -1, 0


def double_factorial(k: int) -> int:
    """k!! = k (k-2) (k-4) ... with the conventions (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError("double factorial requires k >= -1")
    while len(_DF) <= k + 1:
        m = len(_DF) - 1  # next argument to fill in
        _DF.append(m * _DF[m - 1])
    return _DF[k + 1]


class PiCancellationError(ArithmeticError):
    """Internal consistency failure: a power of pi survived where it must cancel."""


@dataclass(frozen=True)
class PiRational:
    """Exact value ``coefficient * pi**pi_power``."""

    coefficient: Fraction
    pi_power: int = 0

    def __post_init__(self):
        coeff = Fraction(self.coefficient)
        object.__setattr__(self, "coefficient", coeff)
        if coeff == 0:
            object.__setattr__(self, "pi_power", 0)

    @property
    def is_zero(self) -> bool:
        return self.coefficient == 0

    def __add__(self, other: "PiRational") -> "PiRational":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.pi_power != other.pi_power:
            raise ValueError("cannot add values with different powers of pi")
        return PiRational(self.coefficient + other.coefficient, self.pi_power)

    def __mul__(self, other: Union["PiRational", Fraction, int]) -> "PiRational":
        if isinstance(other, PiRational):
            return PiRational(
                self.coefficient * other.coefficient, self.pi_power + other.pi_power
            )
        return PiRational(self.coefficient * other, self.pi_power)

    __rmul__ = __mul__

    def __neg__(self) -> "PiRational":
        return PiRational(-self.coefficient, self.pi_power)

    def as_fraction(self) -> Fraction:
        """The value as a plain rational; error if a pi power is left over."""
        if self.pi_power != 0:
            raise PiCancellationError(
                f"residual pi**{self.pi_power} in {self.coefficient}*pi**{self.pi_power}"
            )
        return self.coefficient


def _gamma_half(two_x: int) -> tuple[Fraction, int]:
    """Gamma(two_x / 2) as (rational, number of sqrt-pi factors), two_x >= 1."""
    if two_x % 2 == 0:
        return Fraction(factorial(two_x // 2 - 1)), 0
    k = (two_x - 1) // 2
    return Fraction(double_factorial(2 * k - 1), 1 << k), 1


def beta_half_args(a: int, b: int) -> PiRational:
    """Exact beta function B((1+a)/2, (1+b)/2) for integers a, b >= 0."""
    a, b = _strict_int(a, "beta argument", 0), _strict_int(b, "beta argument", 0)
    cx, sx = _gamma_half(1 + a)
    cy, sy = _gamma_half(1 + b)
    cz, sz = _gamma_half(2 + a + b)
    sqrt_pis = sx + sy - sz
    if sqrt_pis % 2:
        raise PiCancellationError("odd number of sqrt-pi factors in a beta value")
    return PiRational(cx * cy / cz, sqrt_pis // 2)


class TrigPowers(NamedTuple):
    """Trigonometric powers collected for one summand of the quadruple sum.

    On the valid index range (q <= Q, r <= R, t <= T, u <= U) all six values
    are nonnegative and s_beta = S+V+W+X+1 is odd, so every double-factorial
    argument that appears downstream is >= -1.
    """

    c_beta: int
    s_beta: int
    c_alpha: int
    s_alpha: int
    c_gamma: int
    s_gamma: int


def trig_powers(chi: PowerMatrix, q: int, r: int, t: int, u: int) -> TrigPowers:
    """Powers of the six angle functions once the binomial choices q, r, t, u are fixed."""
    Q, R, S, T, U, V, W, X, Y = chi.flat
    return TrigPowers(
        c_beta=Q + R + T + U + Y - (q + r + t + u),
        s_beta=S + V + W + X + 1,
        c_alpha=Q + R + S - q - r + t + u,
        s_alpha=T + U + V + q + r - t - u,
        c_gamma=Q + T + W - q + r - t + u,
        s_gamma=R + U + X + q - r + t - u,
    )


def closed_form_terms(chi: PowerMatrix) -> Iterator[tuple[tuple[int, int, int, int], Fraction]]:
    """Summands of the parity-restricted quadruple sum, prefactor excluded.

    Yields ((q, r, t, u), term) for 0 <= q <= Q, ..., 0 <= u <= U with
    q+r+t+u of the same parity as the rank.
    """
    Q, R, S, T, U, V, W, X, Y = chi.flat
    n = Q + R + S + T + U + V + W + X + Y
    parity = n & 1
    for q in range(Q + 1):
        bq = comb(Q, q)
        for r in range(R + 1):
            bqr = bq * comb(R, r)
            for t in range(T + 1):
                bqrt = bqr * comb(T, t)
                for u in range(U + 1):
                    m = q + r + t + u
                    if (m & 1) != parity:
                        continue
                    p = trig_powers(chi, q, r, t, u)
                    num = (
                        bqrt
                        * comb(U, u)
                        * double_factorial(p.c_beta - 1)
                        * double_factorial(p.s_alpha - 1)
                        * double_factorial(p.c_alpha - 1)
                        * double_factorial(p.s_gamma - 1)
                        * double_factorial(p.c_gamma - 1)
                    )
                    if (q + u) & 1:
                        num = -num
                    yield (q, r, t, u), Fraction(num, double_factorial(n - m + 1))


def closed_form(chi: PowerMatrix) -> Fraction:
    """Exact rotational average of the exponent matrix chi by the closed-form sum.

    Requires the parity selection rule to hold (the derivation assumes it);
    callers must route failing inputs to zero themselves, as
    :func:`evaluate` does.
    """
    if not selection_rule(chi):
        raise ValueError("selection rule fails; the value is 0 and the sum formula does not apply")
    Q, R, S, T, U, V, W, X, Y = chi.flat
    num = factorial((S + V + W + X) // 2)
    if (R + U + W) & 1:
        num = -num
    prefactor = Fraction(
        num,
        (1 << (Q + R + T + U))
        * factorial((Q + R + S + T + U + V) // 2)
        * factorial((Q + R + T + U + W + X) // 2),
    )
    total = Fraction(0)
    for _, term in closed_form_terms(chi):
        total += term
    return prefactor * total


def beta_path(chi: PowerMatrix) -> PiRational:
    """The same average through exact beta values, with no parity assumption.

    The unrestricted quadruple sum keeps the five (1 + (-1)^k) parity factors
    as exact integers 0 or 2 and evaluates each surviving summand as a product
    of three exact beta values.  Every surviving summand carries exactly pi^2,
    which the 1/(64 pi^2) prefactor cancels; anything else is reported as an
    internal error rather than approximated away.
    """
    Q, R, S, T, U, V, W, X, Y = chi.flat
    acc = PiRational(Fraction(0))
    for q in range(Q + 1):
        bq = comb(Q, q)
        for r in range(R + 1):
            bqr = bq * comb(R, r)
            for t in range(T + 1):
                bqrt = bqr * comb(T, t)
                for u in range(U + 1):
                    p = trig_powers(chi, q, r, t, u)
                    if (p.c_beta | p.c_alpha | p.s_alpha | p.c_gamma | p.s_gamma) & 1:
                        continue  # some parity factor is 0
                    coeff = Fraction(bqrt * comb(U, u) * 32)
                    if (q + R + U - u + W) & 1:
                        coeff = -coeff
                    term = (
                        beta_half_args(p.s_alpha, p.c_alpha)
                        * beta_half_args(p.s_beta, p.c_beta)
                        * beta_half_args(p.s_gamma, p.c_gamma)
                        * coeff
                    )
                    acc = acc + term
    result = acc * PiRational(Fraction(1, 64), -2)
    if not result.is_zero and result.pi_power != 0:
        raise PiCancellationError("pi powers failed to cancel in the beta-path sum")
    return result


def special_no_upper_block(chi: PowerMatrix) -> Fraction:
    """Average for matrices whose upper-left 2x2 block vanishes (Q=R=T=U=0).

    Odd rank gives 0 outright (the restricted sum is empty); even rank uses
    the factorial ratio, which needs the parity selection rule to hold.
    """
    Q, R, S, T, U, V, W, X, Y = chi.flat
    if (Q, R, T, U) != (0, 0, 0, 0):
        raise ValueError("requires Q = R = T = U = 0")
    if chi.rank % 2 == 1:
        return Fraction(0)
    if not selection_rule(chi):
        raise ValueError("selection rule fails; the factorial form does not apply")
    num = (
        factorial((S + V + W + X) // 2)
        * factorial((S + V + W + X + Y) // 2)
        * factorial(S) * factorial(V) * factorial(W) * factorial(X) * factorial(Y)
    )
    den = (
        factorial((S + V) // 2)
        * factorial((W + X) // 2)
        * factorial(S // 2) * factorial(V // 2)
        * factorial(W // 2) * factorial(X // 2) * factorial(Y // 2)
        * factorial(S + V + W + X + Y + 1)
    )
    return Fraction(num, den)


def special_q1(chi: PowerMatrix) -> Fraction:
    """Average for matrices with Q = 1 and R = T = U = 0, by parity of the rank."""
    Q, R, S, T, U, V, W, X, Y = chi.flat
    if (Q, R, T, U) != (1, 0, 0, 0):
        raise ValueError("requires Q = 1 and R = T = U = 0")
    if not selection_rule(chi):
        raise ValueError("selection rule fails; the factorial forms do not apply")
    if chi.rank % 2 == 1:
        # parity forces S, W, Y even and V, X odd here
        num = (
            factorial((S + V + W + X) // 2)
            * factorial((S + V + W + X + Y) // 2)
            * factorial(S) * factorial(V) * factorial(W) * factorial(X) * factorial(Y)
        )
        den = (
            factorial((S + V + 1) // 2)
            * factorial((W + X + 1) // 2)
            * factorial(S // 2) * factorial(W // 2) * factorial(Y // 2)
            * factorial((V - 1) // 2) * factorial((X - 1) // 2)
            * factorial(S + V + W + X + Y + 1)
        )
        return Fraction(-num, den)
    # even rank: parity forces S, W, Y odd and V, X even
    num = 2 * (
        factorial((S + V + W + X) // 2)
        * factorial((S + V + W + X + Y + 1) // 2)
        * factorial(S) * factorial(V) * factorial(W) * factorial(X) * factorial(Y)
    )
    den = (
        factorial((S + V + 1) // 2)
        * factorial((W + X + 1) // 2)
        * factorial((S - 1) // 2) * factorial((W - 1) // 2) * factorial((Y - 1) // 2)
        * factorial(V // 2) * factorial(X // 2)
        * factorial(S + V + W + X + Y + 2)
    )
    return Fraction(-num, den)


def _as_half_integer(j) -> Fraction:
    # Fraction() alone reads True as 1 and "1" as 1
    if isinstance(j, (bool, str)):
        raise ValueError(f"not a half-integer: {j!r}")
    value = Fraction(j)
    if (2 * value).denominator != 1:
        raise ValueError(f"not a half-integer: {j!r}")
    if value < 0:
        raise ValueError("angular momenta must be nonnegative")
    return value


def threej000_squared(j1, j2, j3) -> Fraction:
    """Square of the Wigner 3j symbol with all magnetic quantum numbers zero.

    Exact rational from the standard factorial form.  Returns 0 when the
    total is odd or non-integral, when the triangle inequality fails, or when
    any argument is a half-odd integer (no zero projection exists there).
    """
    j1, j2, j3 = (_as_half_integer(j) for j in (j1, j2, j3))
    total = j1 + j2 + j3
    if total.denominator != 1 or total % 2 != 0:
        return Fraction(0)
    if j1 + j2 < j3 or j2 + j3 < j1 or j3 + j1 < j2:
        return Fraction(0)
    if any(j.denominator != 1 for j in (j1, j2, j3)):
        return Fraction(0)
    a, b, c = int(j1), int(j2), int(j3)
    big_j = a + b + c
    g = big_j // 2
    ratio = Fraction(
        factorial(g), factorial(g - a) * factorial(g - b) * factorial(g - c)
    )
    return ratio * ratio * Fraction(
        factorial(big_j - 2 * a) * factorial(big_j - 2 * b) * factorial(big_j - 2 * c),
        factorial(big_j + 1),
    )


class ValueCache:
    """Memo of exact values, one entry per orbit of the 72 symmetries.

    ``put(key, value)`` stores value under key and the signed value under
    every other image, so ``get`` answers any orbit member; ``len`` counts
    orbits.  The cache never evicts: it holds at most 72 keys per orbit
    evaluated, and the rank ceilings bound the orbits a run evaluates.
    """

    def __init__(self):
        self._data: dict[Flat, Fraction] = {}
        self._orbits = 0

    def get(self, key: Flat) -> Optional[Fraction]:
        return self._data.get(key)

    def value(self, flat: Flat) -> Fraction:
        """The exact value of a selection-passing flat, cached or else evaluated and cached."""
        value = self._data.get(flat)
        if value is None:
            self.put(*_orbit_value(flat))
            value = self._data[flat]
        return value

    def put(self, key: Flat, value: Fraction) -> None:
        if key in self._data:
            return
        # the values of the images whose sign relative to key is 0, 1 and -1
        by_sign = (_ZERO, value, -value) if value else (_ZERO, _ZERO, _ZERO)
        for image, sign in orbit_signs(key).items():
            self._data[image] = by_sign[sign]
        self._orbits += 1

    def __len__(self) -> int:
        return self._orbits


_SHARED_CACHE = ValueCache()


def shared_cache() -> ValueCache:
    """A process-wide cache that only callers fill, by passing it as ``cache=``.

    No rotavg function fills it on its own: with no cache given, evaluate,
    average_tensor and average_component each use a throwaway one.
    """
    return _SHARED_CACHE


def _orbit_value(flat: Flat) -> tuple[Flat, Fraction]:
    """flat's orbit minimum and, uncached, the closed form there (0 when flat's sign to it is 0)."""
    rep, sign = canonical_flat(flat)
    return rep, closed_form(PowerMatrix._trusted(rep)) if sign else _ZERO


def evaluate(chi: PowerMatrix, cache: Optional[ValueCache] = None) -> Fraction:
    """Exact rotational average of chi with shortcuts and orbit caching.

    Returns 0 when the parity selection rule fails.  Any member of a cached
    orbit answers from the cache; a miss scans the orbit once for its
    minimum and sign, runs the closed form there (0 at sign 0) and caches
    the orbit.  There is no rank-specific branch.  With no cache given, a
    throwaway one serves the call, so no value outlives it.
    """
    if cache is None:
        cache = ValueCache()
    if not selection_rule(chi):
        return _ZERO
    return cache.value(chi.flat)
