"""Floating-point cross-checks of the exact averages.

Everything here works on the z-y-z Euler-angle realization of a rotation and
stays in double precision.  The quadrature rule is exact (to roundoff) for
the direction-cosine monomials it is sized for, the Monte Carlo estimate is
seedable and reproducible, and neither is ever used to define exact outputs,
only to bound them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import pi
from typing import Optional

import numpy as np

from .power_matrix import PowerMatrix, _strict_int, selection_rule
from .propositions import enumerate_power_matrices


@dataclass(frozen=True)
class AngleTriple:
    """z-y-z Euler angles: alpha, gamma in [0, 2*pi), beta in [0, pi]."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 2 * pi:
            raise ValueError("alpha must lie in [0, 2*pi)")
        if not 0.0 <= self.beta <= pi:
            raise ValueError("beta must lie in [0, pi]")
        if not 0.0 <= self.gamma < 2 * pi:
            raise ValueError("gamma must lie in [0, 2*pi)")


@dataclass(frozen=True)
class QuadratureSpec:
    """Point counts of the product rule: uniform in alpha and gamma, Gauss in cos(beta)."""

    alpha_points: int
    beta_points: int
    gamma_points: int

    def __post_init__(self):
        # every direction needs at least one point
        for name in ("alpha_points", "beta_points", "gamma_points"):
            object.__setattr__(self, name, _strict_int(getattr(self, name), name, 1))

    @classmethod
    def for_rank(cls, n: int) -> "QuadratureSpec":
        # n+2 periodic points integrate trig polynomials of degree <= n+1 in
        # alpha and gamma exactly; n+2 Gauss nodes in cos(beta) are exact for
        # the polynomial the beta integrand reduces to whenever the parity
        # selection rule holds.
        k = n + 2
        return cls(k, k, k)

    def refined(self, factor: int = 2) -> "QuadratureSpec":
        factor = _strict_int(factor, "refinement factor", 1)
        return QuadratureSpec(
            self.alpha_points * factor, self.beta_points * factor, self.gamma_points * factor
        )


# Row-major direction cosines l_ij of the z-y-z rotation, each a formula in
# (cos a, sin a, cos b, sin b, cos g, sin g) for broadcastable angle arrays.
_COSINES = (
    lambda ca, sa, cb, sb, cg, sg: -sa * sg + ca * cb * cg,
    lambda ca, sa, cb, sb, cg, sg: -cg * sa - ca * cb * sg,
    lambda ca, sa, cb, sb, cg, sg: ca * sb,
    lambda ca, sa, cb, sb, cg, sg: ca * sg + cb * cg * sa,
    lambda ca, sa, cb, sb, cg, sg: ca * cg - cb * sa * sg,
    lambda ca, sa, cb, sb, cg, sg: sa * sb,
    lambda ca, sa, cb, sb, cg, sg: -cg * sb,
    lambda ca, sa, cb, sb, cg, sg: sb * sg,
    lambda ca, sa, cb, sb, cg, sg: cb,
)

# The positions in (ca, sa, cb, sb, cg, sg) that each _COSINES formula reads.
_READS = (
    (0, 1, 2, 4, 5), (0, 1, 2, 4, 5), (0, 3),
    (0, 1, 2, 4, 5), (0, 1, 2, 4, 5), (1, 3),
    (3, 4), (3, 5), (2,),
)

# The six angle functions themselves, from broadcastable arrays of alpha,
# cos(beta) and gamma: the quadrature's grid axes or Monte Carlo's draws.
_ANGLE_FUNCTIONS = (
    lambda alpha, cb, gamma: np.cos(alpha),
    lambda alpha, cb, gamma: np.sin(alpha),
    lambda alpha, cb, gamma: cb,
    lambda alpha, cb, gamma: np.sqrt(1.0 - cb * cb),
    lambda alpha, cb, gamma: np.cos(gamma),
    lambda alpha, cb, gamma: np.sin(gamma),
)

# Monte Carlo draws this many rotations per batch; the batch size fixes how
# the PCG64 stream is split, so it is part of what a seed reproduces.
_MC_CHUNK = 1 << 16

# Quadrature grids kept, by spec: the 14 default specs of ranks 0-13 and room
# for refined ones.
_GRID_CACHE_SIZE = 32


def euler_matrix(angles: AngleTriple) -> np.ndarray:
    """Rotation matrix of the z-y-z Euler angles (right-handed frame and screw)."""
    trig = (
        np.cos(angles.alpha), np.sin(angles.alpha),
        np.cos(angles.beta), np.sin(angles.beta),
        np.cos(angles.gamma), np.sin(angles.gamma),
    )
    return np.array([cosine(*trig) for cosine in _COSINES], dtype=float).reshape(3, 3)


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _grid(spec: QuadratureSpec):
    """Read-only broadcast angle grids plus the Gauss weights in x = cos(beta).

    cos(beta) is a view over the whole grid shape, not a copy, so entry
    (3,3) of _COSINES read alone still gives a full-grid integrand: one
    broadcast over alpha and gamma would change einsum's summation order,
    and with it the last bits of the quadrature.
    """
    shape = (spec.alpha_points, spec.beta_points, spec.gamma_points)
    alphas = np.arange(spec.alpha_points) * (2 * pi / spec.alpha_points)
    gammas = np.arange(spec.gamma_points) * (2 * pi / spec.gamma_points)
    xs, wb = np.polynomial.legendre.leggauss(spec.beta_points)
    axes = (alphas[:, None, None], xs[None, :, None], gammas[None, None, :])
    trig = [angle_function(*axes) for angle_function in _ANGLE_FUNCTIONS]
    trig[2] = np.broadcast_to(trig[2], shape)
    for array in (*trig, wb):
        array.flags.writeable = False
    return tuple(trig), wb


def _monomial(entry, flat, shape) -> np.ndarray:
    """Product of entry(k) ** flat[k], calling entry(k) only where flat[k] > 0."""
    prod = None
    for k, power in enumerate(flat):
        if power == 0:
            continue
        factor = entry(k) ** power
        prod = factor if prod is None else prod * factor
    if prod is None:
        return np.ones(shape)
    return np.broadcast_to(prod, shape)


def _quadrature(chi: PowerMatrix, spec: Optional[QuadratureSpec], entries) -> float:
    """Product-rule average of the chi monomial.

    entries(trig, shape) receives the grid's broadcast sines and cosines and
    the grid shape, and returns the entry(k) callable that _monomial reads.
    """
    if spec is None:
        spec = QuadratureSpec.for_rank(chi.rank)
    trig, wb = _grid(spec)
    shape = (spec.alpha_points, spec.beta_points, spec.gamma_points)
    integrand = _monomial(entries(trig, shape), chi.flat, shape)
    total = np.einsum("abg,b->", integrand, wb)
    # uniform weights 2*pi/A and 2*pi/G against the 1/(8*pi^2) normalization
    return float(total / (2.0 * spec.alpha_points * spec.gamma_points))


def quadrature_average(chi: PowerMatrix, spec: Optional[QuadratureSpec] = None) -> float:
    """Triple-integral average of the chi monomial by the product quadrature rule.

    The sin(beta) Haar factor is absorbed into the Gauss rule in cos(beta).
    With the default spec the result matches the exact rational to ~1e-12
    whenever the parity selection rule holds; selection-rule-violating inputs
    integrate to 0 only approximately.
    """
    return _quadrature(chi, spec, lambda trig, shape: lambda k: _COSINES[k](*trig))


def invariance_probe(
    chi: PowerMatrix,
    h: np.ndarray,
    side: str = "left",
    spec: Optional[QuadratureSpec] = None,
) -> float:
    """Quadrature average with the rotation variable composed with a fixed h.

    Composing g -> h g (or g -> g h) must leave the average unchanged, which
    probes the left/right invariance the average is built on.
    """
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():  # a NaN fails no tolerance comparison below
        raise ValueError("h has a non-finite entry")
    if h.shape != (3, 3) or np.abs(h.T @ h - np.eye(3)).max() > 1e-10:
        raise ValueError("h is not orthogonal to within 1e-10")
    if abs(np.linalg.det(h) - 1.0) > 1e-10:
        raise ValueError("h is not a proper rotation (det != 1)")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")

    def composed_entries(trig, shape):
        g = np.stack(
            [np.broadcast_to(cosine(*trig), shape) for cosine in _COSINES], axis=-1
        ).reshape(shape + (3, 3))
        composed = np.matmul(h, g) if side == "left" else np.matmul(g, h)
        return lambda k: composed[..., k // 3, k % 3]

    return _quadrature(chi, spec, composed_entries)


def monte_carlo_average(chi: PowerMatrix, samples: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of the chi monomial over uniform random rotations.

    Rotations are sampled through the product measure (alpha uniform,
    cos(beta) uniform on [-1, 1], gamma uniform), which is the uniform
    rotation measure up to normalization.  The PCG64 stream and the fixed
    chunking scheme make the result a deterministic function of the seed.
    """
    samples = _strict_int(samples, "samples")
    if samples < 2:
        raise ValueError(f"need at least two samples for a standard error, got {samples}")
    rng = np.random.default_rng(_strict_int(seed, "seed", 0))
    flat = chi.flat
    # the angle functions the monomial's entries read; the others stay None
    reads = sorted(set().union(*(_READS[k] for k, power in enumerate(flat) if power)))
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining:
        m = min(_MC_CHUNK, remaining)
        remaining -= m
        alpha = rng.uniform(0.0, 2 * pi, m)
        cb = rng.uniform(-1.0, 1.0, m)
        gamma = rng.uniform(0.0, 2 * pi, m)
        trig = [None] * 6
        for i in reads:
            trig[i] = _ANGLE_FUNCTIONS[i](alpha, cb, gamma)
        values = _monomial(lambda k: _COSINES[k](*trig), flat, (m,))
        total += float(values.sum())
        total_sq += float((values * values).sum())
    mean = total / samples
    variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, float(np.sqrt(variance / samples))


def default_mc_battery() -> list[PowerMatrix]:
    """Fixed battery for Monte Carlo consistency checks.

    The first four selection-rule-passing matrices of each rank 2..6 in
    enumeration order: 20 matrices, deterministic across runs and platforms.
    """
    return [
        chi for n in range(2, 7) for chi in islice(filter(selection_rule, enumerate_power_matrices(n)), 4)
    ]
