import math

import numpy as np
import pytest

from projclt.directions import DirectionSet, LINEARLY_INDEPENDENT, gram
from projclt.errors import InvalidInputError, UnsupportedMethodError
from projclt.testfuncs import (
    GaussianSpec,
    bump_testfn,
    cosine_testfn,
    gaussian_expectation,
)

FD_STEP = 1e-5


def fd_gradient(evaluate, x, h=FD_STEP):
    k = x.size
    grad = np.empty(k)
    for i in range(k):
        e = np.zeros(k)
        e[i] = h
        grad[i] = (evaluate((x + e)[None, :])[0] - evaluate((x - e)[None, :])[0]) / (2 * h)
    return grad


# 1e-5 squared hits float64 rounding noise (~eps/h^2 = 2.5e-6); one decade up
# keeps both truncation and rounding well below the 1e-6 comparison tolerance.
FD_STEP_HESS = 1e-4


def fd_hessian(evaluate, x, h=FD_STEP_HESS):
    k = x.size
    hess = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            ei, ej = np.zeros(k), np.zeros(k)
            ei[i] = h
            ej[j] = h
            hess[i, j] = (
                evaluate((x + ei + ej)[None, :])[0]
                - evaluate((x + ei - ej)[None, :])[0]
                - evaluate((x - ei + ej)[None, :])[0]
                + evaluate((x - ei - ej)[None, :])[0]
            ) / (4 * h * h)
    return hess


# Two unit rows with inner product 1/2: a Gram covariance that is not the identity.
GRAM_2 = np.array([[1.0, 0.5], [0.5, 1.0]])

# Cells where the 64- against 56-node difference that quadrature reports as its
# error is smaller than its actual error on the bump (whose third derivative
# jumps at the edge of its support).
QUADRATURE_UNDERSTATES = {(1, 0.5), (1, 5.0)}


class TestCosineSeminorms:
    def test_half_half_example(self):
        g = cosine_testfn([0.5, 0.5])
        assert g.g1 == pytest.approx(0.5, abs=1e-15)
        assert g.grad_sup == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert g.g2 == pytest.approx(0.25, abs=1e-15)
        assert g.hess_op_sup == pytest.approx(0.5, abs=1e-15)

    def test_basis_direction_all_ones(self):
        g = cosine_testfn([1.0, 0.0, 0.0])
        assert g.g1 == g.g2 == g.grad_sup == g.hess_op_sup == 1.0

    def test_zero_direction_rejected(self):
        with pytest.raises(InvalidInputError):
            cosine_testfn([0.0, 0.0])

    def test_gradient_grid_never_exceeds_grad_sup(self):
        g = cosine_testfn([0.5, 0.5])
        xs = np.linspace(-10, 10, 301)
        worst = 0.0
        for x0 in xs:
            pts = np.column_stack([np.full(301, x0), xs])
            for p in pts[:: 30]:
                grad = fd_gradient(g.evaluate, p)
                worst = max(worst, float(np.linalg.norm(grad)))
        assert worst <= g.grad_sup + 1e-9

    def test_finite_difference_derivatives_match_analytics(self):
        a = np.array([0.8, -0.3, 0.45])
        phase = 0.7
        g = cosine_testfn(a, phase=phase)
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.uniform(-5, 5, size=3)
            arg = float(a @ x) + phase
            np.testing.assert_allclose(
                fd_gradient(g.evaluate, x), -math.sin(arg) * a, atol=1e-6
            )
            np.testing.assert_allclose(
                fd_hessian(g.evaluate, x), -math.cos(arg) * np.outer(a, a), atol=1e-6
            )

    def test_seminorm_chain(self):
        for a in ([0.5, 0.5], [1.0, -2.0, 0.3], [0.1]):
            g = cosine_testfn(a)
            k = g.dimension
            assert g.g1 <= g.grad_sup <= math.sqrt(k) * g.g1 + 1e-12
            assert g.g2 <= g.hess_op_sup <= k * g.g2 + 1e-12


class TestBump:
    def test_values_at_center_and_outside(self):
        g = bump_testfn(radius=1.5, k=2)
        pts = np.array([[0.0, 0.0], [1.5, 0.0], [2.0, 1.0]])
        vals = g.evaluate(pts)
        assert vals[0] == 1.0
        assert vals[1] == 0.0
        assert vals[2] == 0.0

    def test_univariate_g1_matches_calculus_oracle(self):
        # max of |6x (1-x^2)^2| on [0, 1] sits at x = 1/sqrt(5)
        g = bump_testfn(radius=1.0, k=1)
        xs = np.linspace(0.0, 1.0, 2_000_001)
        oracle = np.max(6.0 * xs * (1.0 - xs * xs) ** 2)
        assert g.g1 == pytest.approx(oracle, abs=1e-9)
        x_star = 1.0 / math.sqrt(5.0)
        assert g.g1 == pytest.approx(6.0 * x_star * (1.0 - x_star**2) ** 2, abs=1e-9)

    def test_seminorm_dominance(self):
        for k in (1, 2, 3):
            g = bump_testfn(radius=2.0, k=k)
            assert g.grad_sup >= g.g1 - 1e-12
            assert g.hess_op_sup >= g.g2 - 1e-12
            assert g.hess_op_sup <= k * g.g2 + 1e-12

    def test_hessian_sup_attained_at_center(self):
        # at the origin the Hessian is -6/r^2 times the identity
        g = bump_testfn(radius=2.0, k=2)
        assert g.hess_op_sup == pytest.approx(6.0 / 4.0, rel=1e-9)

    def test_finite_difference_gradient_below_sup(self):
        g = bump_testfn(radius=1.0, k=2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(-1, 1, size=2)
            grad = fd_gradient(g.evaluate, x)
            assert np.linalg.norm(grad) <= g.grad_sup + 1e-6

    def test_bad_radius_rejected(self):
        with pytest.raises(InvalidInputError):
            bump_testfn(radius=0.0, k=2)


class TestGaussianSpec:
    def test_identity(self):
        spec = GaussianSpec.identity(3)
        np.testing.assert_array_equal(spec.covariance, np.eye(3))

    def test_from_gram_has_unit_diagonal(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
        gd = gram(DirectionSet(rows, kind=LINEARLY_INDEPENDENT))
        spec = GaussianSpec.from_gram(gd)
        np.testing.assert_allclose(np.diagonal(spec.covariance), 1.0, atol=1e-10)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            GaussianSpec(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_non_psd_rejected(self):
        with pytest.raises(InvalidInputError):
            GaussianSpec(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_sqrt_squares_back(self):
        c = np.array([[2.0, 0.3], [0.3, 1.0]])
        root = GaussianSpec(c).sqrt()
        np.testing.assert_allclose(root @ root, c, atol=1e-12)


def random_cov(rng, k):
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    eigs = rng.uniform(0.3, 2.0, size=k)
    return (q * eigs) @ q.T


class TestGaussianExpectation:
    def test_characteristic_function_identity(self):
        g = cosine_testfn([1.0, 0.0])
        res = gaussian_expectation(g, GaussianSpec.identity(2))
        assert res.value == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert res.error == 0.0

    def test_odd_phase_gives_zero(self):
        g = cosine_testfn([1.0, 0.5], phase=math.pi / 2)
        res = gaussian_expectation(g, GaussianSpec.identity(2))
        assert res.value == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("seed", range(5))
    def test_quadrature_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        a = rng.uniform(-1.5, 1.5, size=k)
        if not np.any(a):
            a[0] = 1.0
        g = cosine_testfn(a, phase=float(rng.uniform(-1, 1)))
        spec = GaussianSpec(random_cov(rng, k))
        closed = gaussian_expectation(g, spec, method="closed-form")
        quad = gaussian_expectation(g, spec, method="quadrature")
        assert quad.value == pytest.approx(closed.value, abs=1e-10)

    def test_monte_carlo_within_reported_error(self):
        g = cosine_testfn([0.7, -0.2])
        spec = GaussianSpec.identity(2)
        closed = gaussian_expectation(g, spec)
        mc = gaussian_expectation(g, spec, method="monte-carlo", budget=200_000, seed=8)
        assert abs(mc.value - closed.value) <= 1.5 * mc.error  # error is 3 SE

    def test_quadrature_error_estimate_is_tight_for_cosines(self):
        g = cosine_testfn([0.5, 0.5])
        quad = gaussian_expectation(g, GaussianSpec.identity(2), method="quadrature")
        assert quad.error <= 1e-12

    def test_closed_form_for_bump_rejected(self):
        g = bump_testfn(radius=1.0, k=2)
        with pytest.raises(UnsupportedMethodError):
            gaussian_expectation(g, GaussianSpec(GRAM_2), method="closed-form")

    def test_quadrature_dimension_limit(self):
        g = cosine_testfn(np.ones(5))
        with pytest.raises(InvalidInputError):
            gaussian_expectation(g, GaussianSpec.identity(5), method="quadrature")

    def test_dimension_mismatch_rejected(self):
        g = cosine_testfn([1.0, 0.0])
        with pytest.raises(InvalidInputError):
            gaussian_expectation(g, GaussianSpec.identity(3))

    def test_method_agreement_for_bump(self):
        g = bump_testfn(radius=2.0, k=2)
        spec = GaussianSpec.identity(2)
        quad = gaussian_expectation(g, spec, method="quadrature")
        mc = gaussian_expectation(g, spec, method="monte-carlo", budget=400_000, seed=3)
        assert abs(quad.value - mc.value) <= mc.error + quad.error


def radial_bump_reference(radius, k, nodes=400):
    """E (1 - |Z|^2/r^2)_+^3 for Z ~ N(0, I_k): Gauss-Legendre on [0, r]
    against the density s^(k-1) e^(-s^2/2) / (2^(k/2-1) Gamma(k/2)) of |Z|,
    whose integrand is smooth."""
    s, w = np.polynomial.legendre.leggauss(nodes)
    s = radius * (s + 1.0) / 2.0
    density = s ** (k - 1) * np.exp(-s * s / 2.0) / (2.0 ** (k / 2.0 - 1.0) * math.gamma(k / 2.0))
    return float((w * radius / 2.0) @ ((1.0 - s * s / radius**2) ** 3 * density))


class TestBumpClosedForm:
    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("radius", [0.05, 0.5, 2.0, 5.0, 20.0, 100.0])
    def test_matches_the_radial_integral(self, k, radius):
        res = gaussian_expectation(bump_testfn(radius, k), GaussianSpec.identity(k))
        assert res.method == "closed-form" and res.error == 0.0
        assert res.value == pytest.approx(radial_bump_reference(radius, k), rel=1e-11)

    @pytest.mark.parametrize("k,radius", [
        pytest.param(k, r, marks=pytest.mark.xfail(
            strict=True, reason="the node-difference error estimate of quadrature is too small"))
        if (k, r) in QUADRATURE_UNDERSTATES else (k, r)
        # k = 4 is left out: its 64^4-point grid peaks near 1.8 GB resident.
        for k in range(1, 4) for r in (0.5, 2.0, 5.0)
    ])
    def test_within_the_quadrature_error_estimate(self, k, radius):
        g = bump_testfn(radius, k)
        spec = GaussianSpec.identity(k)
        closed = gaussian_expectation(g, spec)
        quad = gaussian_expectation(g, spec, method="quadrature")
        assert abs(closed.value - quad.value) <= quad.error

    @pytest.mark.parametrize("radius", [0.5, 2.0, 5.0])
    def test_within_three_standard_errors_of_monte_carlo_in_five_dimensions(self, radius):
        g = bump_testfn(radius, 5)
        spec = GaussianSpec.identity(5)
        closed = gaussian_expectation(g, spec)
        mc = gaussian_expectation(g, spec, method="monte-carlo", seed=5)
        assert closed.method == "closed-form"
        assert abs(closed.value - mc.value) <= mc.error  # error is 3 se

    def test_auto_keeps_quadrature_under_a_gram_covariance(self):
        res = gaussian_expectation(bump_testfn(2.0, 2), GaussianSpec(GRAM_2))
        assert res.method == "quadrature"

