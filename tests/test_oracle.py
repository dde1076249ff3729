import json
from math import pi

import numpy as np
import pytest

from rotavg import (
    AngleTriple,
    PowerMatrix,
    QuadratureSpec,
    default_mc_battery,
    euler_matrix,
    evaluate,
    invariance_probe,
    monte_carlo_average,
    quadrature_average,
    selection_rule,
)
from rotavg.cli import main
from rotavg.oracle import _COSINES, _READS, _grid
from rotavg.propositions import canonical_representatives

IDENT3 = PowerMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
ZERO = PowerMatrix(((0, 0, 0), (0, 0, 0), (0, 0, 0)))
RANK9_NONZERO = PowerMatrix(((1, 1, 1), (1, 2, 0), (1, 0, 2)))

# regression anchor for the rank-9 exception: frozen from this quadrature
# oracle, and equal to 1/630 within roundoff
RANK9_QUAD = 0.0015873015873015873


class TestEulerMatrix:
    def test_zero_angles_give_identity(self):
        assert np.allclose(euler_matrix(AngleTriple(0.0, 0.0, 0.0)), np.eye(3), atol=1e-15)

    def test_quarter_turn_about_y(self):
        g = euler_matrix(AngleTriple(0.0, pi / 2, 0.0))
        expected = np.zeros((3, 3))
        expected[0, 2] = 1.0
        expected[1, 1] = 1.0
        expected[2, 0] = -1.0
        assert np.abs(g - expected).max() < 1e-15

    def test_orthogonality_on_random_sample(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10_000):
            angles = AngleTriple(
                rng.uniform(0, 2 * pi), rng.uniform(0, pi), rng.uniform(0, 2 * pi)
            )
            g = euler_matrix(angles)
            worst = max(worst, np.abs(g.T @ g - np.eye(3)).max())
            assert abs(np.linalg.det(g) - 1.0) < 1e-13
        assert worst <= 1e-14

    def test_angle_ranges_validated(self):
        with pytest.raises(ValueError):
            AngleTriple(-0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            AngleTriple(0.0, 3.5, 0.0)


class TestQuadrature:
    def test_empty_product(self):
        assert abs(quadrature_average(ZERO) - 1.0) <= 1e-12

    def test_identity_permutation(self):
        assert abs(quadrature_average(IDENT3) - 1 / 6) <= 1e-10

    def test_squared_cosine(self):
        chi = PowerMatrix(((2, 0, 0), (0, 0, 0), (0, 0, 0)))
        assert abs(quadrature_average(chi) - 1 / 3) <= 1e-12

    def test_rank9_exception_value(self):
        value = quadrature_average(RANK9_NONZERO)
        assert abs(value) > 1e-6
        assert abs(value - RANK9_QUAD) <= 1e-12
        refined = quadrature_average(RANK9_NONZERO, QuadratureSpec.for_rank(9).refined())
        assert abs(value - refined) <= 1e-12

    def test_refinement_stability_for_selection_passing(self):
        worst = 0.0
        for n in range(0, 7):
            for chi in canonical_representatives(n):
                if not selection_rule(chi):
                    continue
                spec = QuadratureSpec.for_rank(chi.rank)
                worst = max(
                    worst,
                    abs(quadrature_average(chi, spec) - quadrature_average(chi, spec.refined())),
                )
        assert worst <= 1e-12

    def test_agreement_with_exact_values(self):
        worst = 0.0
        for n in range(0, 5):
            for chi in canonical_representatives(n):
                worst = max(worst, abs(quadrature_average(chi) - float(evaluate(chi))))
        assert worst <= 1e-10

    def test_spec_needs_positive_point_counts(self):
        with pytest.raises(ValueError):
            QuadratureSpec(0, 4, 4)

    @pytest.mark.parametrize("counts", [(2.5, 4, 4), (True, 4, 4), (4, 4.0, 4), (4, 4, "4")])
    def test_spec_needs_integer_point_counts(self, counts):
        # 2.5 and True once constructed and failed later inside numpy
        with pytest.raises(ValueError):
            QuadratureSpec(*counts)

    @pytest.mark.parametrize("factor", [1.5, 2.0, True])
    def test_refinement_factor_must_be_an_integer(self, factor):
        # 1.5 once built a spec of float point counts
        with pytest.raises(ValueError):
            QuadratureSpec(4, 4, 4).refined(factor)


class TestMonteCarlo:
    def test_empty_product_is_exact(self):
        mean, stderr = monte_carlo_average(ZERO, 1000, seed=1)
        assert mean == 1.0
        assert stderr == 0.0

    def test_squared_cosine_covers_exact_value(self):
        chi = PowerMatrix(((2, 0, 0), (0, 0, 0), (0, 0, 0)))
        mean, stderr = monte_carlo_average(chi, 1_000_000, seed=42)
        assert abs(mean - 1 / 3) <= 3 * stderr

    def test_selection_violating_mean_is_noise(self):
        chi = PowerMatrix(((1, 1, 0), (0, 0, 0), (0, 0, 0)))
        mean, stderr = monte_carlo_average(chi, 200_000, seed=3)
        assert abs(mean) <= 4 * stderr

    def test_deterministic_for_fixed_seed(self):
        chi = PowerMatrix(((0, 0, 0), (0, 0, 2), (0, 2, 0)))
        assert monte_carlo_average(chi, 100_000, seed=9) == monte_carlo_average(
            chi, 100_000, seed=9
        )

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            monte_carlo_average(ZERO, 0, seed=1)

    def test_rejects_single_sample(self):
        # one sample has no standard error; it was once reported as 0.0
        with pytest.raises(ValueError):
            monte_carlo_average(ZERO, 1, seed=1)

    @pytest.mark.parametrize("samples,seed", [(1000.0, 1), ("1000", 1), (1000, 1.5), (1000, True)])
    def test_rejects_non_integer_samples_or_seed(self, samples, seed):
        with pytest.raises(ValueError):
            monte_carlo_average(ZERO, samples, seed)


class TestInvarianceProbe:
    def test_identity_rotation_matches_plain_average(self):
        chi = PowerMatrix(((0, 0, 0), (0, 0, 2), (0, 2, 0)))
        assert invariance_probe(chi, np.eye(3), "left") == quadrature_average(chi)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_random_rotation_leaves_rank4_average(self, side):
        chi = PowerMatrix(((2, 0, 0), (0, 1, 1), (0, 1, 1)))
        h = euler_matrix(AngleTriple(0.3, 1.1, 2.0))
        assert abs(invariance_probe(chi, h, side) - quadrature_average(chi)) <= 1e-9

    def test_half_turn_kills_odd_parity_component(self):
        # one cosine factor: the average is 0 because conjugating by a half
        # turn about z flips its sign
        chi = PowerMatrix(((1, 0, 0), (0, 0, 0), (0, 0, 0)))
        h = np.diag([-1.0, -1.0, 1.0])
        assert abs(quadrature_average(chi)) <= 1e-12
        assert abs(invariance_probe(chi, h, "left")) <= 1e-12

    def test_rejects_non_rotation(self):
        chi = PowerMatrix(((2, 0, 0), (0, 0, 0), (0, 0, 0)))
        with pytest.raises(ValueError):
            invariance_probe(chi, np.diag([1.0, 1.0, -1.0]), "left")  # det -1
        with pytest.raises(ValueError):
            invariance_probe(chi, np.ones((3, 3)), "left")

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            invariance_probe(ZERO, np.eye(3), "middle")


# Reference copy of the eager oracle: all nine direction cosines built at
# every call, then the monomial over them.  The library builds only the
# cosines a monomial uses; every float it returns must equal this one's bit
# for bit.


def _ref_cosine_entries(ca, sa, cb, sb, cg, sg):
    return (
        -sa * sg + ca * cb * cg,
        -cg * sa - ca * cb * sg,
        ca * sb,
        ca * sg + cb * cg * sa,
        ca * cg - cb * sa * sg,
        sa * sb,
        -cg * sb,
        sb * sg,
        cb * np.ones_like(ca * cg),
    )


def _ref_grid(spec):
    alphas = np.arange(spec.alpha_points) * (2 * pi / spec.alpha_points)
    gammas = np.arange(spec.gamma_points) * (2 * pi / spec.gamma_points)
    xs, wb = np.polynomial.legendre.leggauss(spec.beta_points)
    ca = np.cos(alphas)[:, None, None]
    sa = np.sin(alphas)[:, None, None]
    cb = xs[None, :, None]
    sb = np.sqrt(1.0 - xs * xs)[None, :, None]
    cg = np.cos(gammas)[None, None, :]
    sg = np.sin(gammas)[None, None, :]
    return ca, sa, cb, sb, cg, sg, wb


def _ref_monomial(entries, flat, shape):
    prod = None
    for value, power in zip(entries, flat):
        if power == 0:
            continue
        factor = value ** power
        prod = factor if prod is None else prod * factor
    if prod is None:
        return np.ones(shape)
    return np.broadcast_to(prod, shape)


def _ref_quadrature(chi, spec, h=None, side="left"):
    ca, sa, cb, sb, cg, sg, wb = _ref_grid(spec)
    shape = (spec.alpha_points, spec.beta_points, spec.gamma_points)
    entries = _ref_cosine_entries(ca, sa, cb, sb, cg, sg)
    if h is not None:
        g = np.stack([np.broadcast_to(e, shape) for e in entries], axis=-1).reshape(shape + (3, 3))
        composed = np.matmul(h, g) if side == "left" else np.matmul(g, h)
        entries = [composed[..., i, j] for i in range(3) for j in range(3)]
    integrand = _ref_monomial(entries, chi.flat, shape)
    total = np.einsum("abg,b->", integrand, wb)
    return float(total / (2.0 * spec.alpha_points * spec.gamma_points))


def _ref_monte_carlo(chi, samples, seed, chunk=1 << 16):
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining:
        m = min(chunk, remaining)
        remaining -= m
        alpha = rng.uniform(0.0, 2 * pi, m)
        cb = rng.uniform(-1.0, 1.0, m)
        gamma = rng.uniform(0.0, 2 * pi, m)
        sb = np.sqrt(1.0 - cb * cb)
        entries = _ref_cosine_entries(
            np.cos(alpha), np.sin(alpha), cb, sb, np.cos(gamma), np.sin(gamma)
        )
        values = _ref_monomial(entries, chi.flat, (m,))
        total += float(values.sum())
        total_sq += float((values * values).sum())
    mean = total / samples
    variance = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, float(np.sqrt(variance / samples))


class TestBitIdenticalToEagerReference:
    @pytest.mark.parametrize("refine", [False, True])
    def test_quadrature(self, refine):
        for n in range(0, 6):
            for chi in canonical_representatives(n):
                spec = QuadratureSpec.for_rank(n)
                if refine:
                    spec = spec.refined()
                assert quadrature_average(chi, spec) == _ref_quadrature(chi, spec), chi

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_invariance_probe(self, side):
        rotations = [
            euler_matrix(AngleTriple(0.3, 1.1, 2.0)),
            euler_matrix(AngleTriple(5.9, 2.7, 0.4)),
        ]
        for h in rotations:
            for n in range(0, 5):
                for chi in canonical_representatives(n):
                    spec = QuadratureSpec.for_rank(n)
                    expected = _ref_quadrature(chi, spec, h, side)
                    assert invariance_probe(chi, h, side) == expected, chi

    def test_monte_carlo_over_two_chunks(self):
        for i, chi in enumerate(default_mc_battery()):
            assert monte_carlo_average(chi, 70_000, seed=i) == _ref_monte_carlo(
                chi, 70_000, seed=i
            ), chi

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_monte_carlo_single_entries(self, power):
        # each entry alone computes only the angle functions it reads; 70,000
        # samples leave a partial second chunk
        for k in range(9):
            flat = [0] * 9
            flat[k] = power
            chi = PowerMatrix.from_flat(flat)
            expected = _ref_monte_carlo(chi, 70_000, seed=k)
            assert monte_carlo_average(chi, 70_000, seed=k) == expected, chi

    def test_quadrature_repeats_on_a_cached_grid(self):
        spec = QuadratureSpec.for_rank(4).refined()
        for chi in canonical_representatives(4):
            assert quadrature_average(chi, spec) == quadrature_average(chi, spec), chi

    def test_cached_grid_is_read_only(self):
        trig, wb = _grid(QuadratureSpec.for_rank(3))
        for array in (*trig, wb):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0


class TestAngleFunctionReads:
    """_READS names exactly the angle functions each _COSINES formula reads."""

    @pytest.mark.parametrize("k", range(9))
    def test_formula_needs_only_its_reads(self, k):
        trig = [np.full(4, 0.5) if i in _READS[k] else None for i in range(6)]
        assert _COSINES[k](*trig).shape == (4,)

    @pytest.mark.parametrize("k", range(9))
    def test_formula_reads_each_of_its_reads(self, k):
        for missing in _READS[k]:
            trig = [None if i == missing else np.full(4, 0.5) for i in range(6)]
            try:
                value = _COSINES[k](*trig)
            except TypeError:  # arithmetic on the missing None
                continue
            assert value is None, (k, missing)  # (3,3) passes cos(beta) through


class TestCliMonteCarloReport:
    @pytest.mark.parametrize("seed", [1, 441])
    def test_mc_report_matches_the_reference(self, capsys, seed):
        # stdout digests cannot pin the mc floats across platforms; on one
        # machine each mean and stderr must equal the eager reference's
        code = main(["verify", "--suite", "mc", "-n", "0", "--mc-samples", "70000", "--seed", str(seed)])
        assert code == 0
        results = json.loads(capsys.readouterr().out)["suites"]["mc"]["results"]
        battery = default_mc_battery()
        assert [result["chi"] for result in results] == [chi.to_lists() for chi in battery]
        for i, (chi, result) in enumerate(zip(battery, results)):
            mean, stderr = _ref_monte_carlo(chi, 70_000, seed + i)
            assert (result["mean"], result["stderr"]) == (mean, stderr), chi
