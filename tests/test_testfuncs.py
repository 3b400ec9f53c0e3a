import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussian_reference import (
    bump_identity_value,
    gauss_hermite_expectation,
    polar_bump_reference,
    spherical_bump_reference,
)
from projclt.directions import DirectionSet
from projclt.errors import InvalidInputError, UnsupportedMethodError
from projclt.testfuncs import (
    GaussianSpec,
    TestFunction,
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


class TestSeminormCheck:
    @staticmethod
    def make(g1, g2, grad_sup, hess_op_sup, k=2):
        return TestFunction(kind="x", dimension=k, evaluate=None, g1=g1, g2=g2,
                            grad_sup=grad_sup, hess_op_sup=hess_op_sup)

    @pytest.mark.parametrize("seminorms", [
        (5e-10, 1e-10, 0.0, 0.0),  # a chain broken below any absolute tolerance
        (1e-300, 1e-300, 0.99e-300, 1e-300),
        (1.0, 1.0, 1.0 - 1e-14, 1.0),
        (1.0, 1.0, 1.0, 1.0 - 1e-14),
        (1.0, 1.0, 1.0, 2.0 + 1e-14),
        (1.0, 1.0, 100.0, 1.0),  # grad_sup far above sqrt(k) g1
        (1.0, 1.0, math.sqrt(2.0) * (1.0 + 1e-14), 1.0),
    ])
    def test_a_broken_chain_is_rejected(self, seminorms):
        with pytest.raises(InvalidInputError):
            self.make(*seminorms)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_or_negative_seminorms_are_rejected(self, slot, bad):
        seminorms = [1.0, 1.0, 1.0, 1.0]
        seminorms[slot] = bad
        with pytest.raises(InvalidInputError, match="finite and non-negative"):
            self.make(*seminorms)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 64, 1000])
    def test_the_ones_normalized_cosine_is_accepted(self, k):
        # the equality case grad_sup = sqrt(k) g1 of the upper half of the chain
        g = cosine_testfn(np.full(k, 1.0 / math.sqrt(k)))
        assert g.grad_sup == pytest.approx(math.sqrt(k) * g.g1, rel=1e-15)

    def test_the_zero_function_is_accepted(self):
        self.make(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_cosines_with_random_directions_are_accepted(self, k):
        # rounded norms put hess_op_sup up to about 2 ulps above k g2
        rng = np.random.default_rng(k)
        for scale in 10.0 ** rng.uniform(-100, 100, size=500):
            for a in (rng.standard_normal(k), np.full(k, rng.uniform(-1, 1)),
                      rng.choice([-1.0, 1.0], k)):
                cosine_testfn(a * scale)

    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    @pytest.mark.parametrize("radius", [1e-150, 1e150])
    def test_bumps_at_the_ends_of_the_radius_range_are_accepted(self, radius, k):
        bump_testfn(radius, k)


class TestBump:
    def test_values_at_center_and_outside(self):
        g = bump_testfn(radius=1.5, k=2)
        pts = np.array([[0.0, 0.0], [1.5, 0.0], [2.0, 1.0]])
        vals = g.evaluate(pts)
        assert vals[0] == 1.0
        assert vals[1] == 0.0
        assert vals[2] == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("radius", [1e-150, 1e-3, 0.37, 1.0, 2.5, 3.0, 1e3, 1e150])
    def test_seminorms_are_the_calculus_closed_forms(self, radius, k):
        g = bump_testfn(radius, k)
        assert g.g1 == g.grad_sup == 96.0 / (25.0 * math.sqrt(5.0) * radius)
        assert g.g2 == g.hess_op_sup == 6.0 / (radius * radius)
        # |phi'(s)| = (6/r) u (1 - u^2)^2 with u = s/r peaks at u = 1/sqrt(5)
        u = np.linspace(0.0, 1.0, 100_001)
        slope = 6.0 / radius * u * (1.0 - u * u) ** 2
        assert g.g1 * (1.0 - 1e-9) <= slope.max() <= g.g1 * (1.0 + 4e-16)
        u_star = 1.0 / math.sqrt(5.0)
        assert 6.0 / radius * u_star * (1.0 - u_star**2) ** 2 == pytest.approx(g.g1, rel=1e-15)

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

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_finite_difference_derivatives_stay_below_the_sups(self, k):
        # Random points out to 1.1 r, plus the two points where the sups are reached.
        g = bump_testfn(radius=1.0, k=k)
        rng = np.random.default_rng(k)
        axis = np.eye(k)[0]
        directions = rng.standard_normal((100, k))
        points = directions / np.linalg.norm(directions, axis=1)[:, None]
        points *= rng.uniform(0.0, 1.1, size=(100, 1))
        grads, hessians = [], []
        for x in [axis / math.sqrt(5.0), np.zeros(k), *points]:
            grads.append(float(np.linalg.norm(fd_gradient(g.evaluate, x))))
            hessians.append(float(np.max(np.abs(np.linalg.eigvalsh(fd_hessian(g.evaluate, x))))))
        assert max(grads) <= g.grad_sup + 1e-6
        assert max(hessians) <= g.hess_op_sup + 1e-5
        assert grads[0] == pytest.approx(g.grad_sup, abs=1e-6)
        assert hessians[1] == pytest.approx(g.hess_op_sup, abs=1e-5)

    def test_bad_radius_rejected(self):
        with pytest.raises(InvalidInputError):
            bump_testfn(radius=0.0, k=2)


class TestGaussianSpec:
    def test_identity(self):
        spec = GaussianSpec.identity(3)
        np.testing.assert_array_equal(spec.covariance, np.eye(3))

    def test_gram_covariance_has_unit_diagonal(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
        spec = GaussianSpec(DirectionSet(rows).gram)
        np.testing.assert_allclose(np.diagonal(spec.covariance), 1.0, atol=1e-10)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            GaussianSpec(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_non_psd_rejected(self):
        with pytest.raises(InvalidInputError):
            GaussianSpec(np.array([[1.0, 2.0], [2.0, 1.0]]))


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
        cov = random_cov(rng, k)
        closed = gaussian_expectation(g, GaussianSpec(cov))
        assert closed.method == "closed-form" and closed.error == 0.0
        assert closed.value == pytest.approx(gauss_hermite_expectation(g, cov), abs=1e-10)

    def test_bump_under_a_gram_covariance_matches_the_polar_reference(self):
        g = bump_testfn(radius=1.0, k=2)
        res = gaussian_expectation(g, GaussianSpec(GRAM_2))
        ref = polar_bump_reference(1.0, GRAM_2)
        assert res.value == pytest.approx(ref, rel=1e-11)
        assert abs(res.value - ref) <= res.error

    @pytest.mark.parametrize("g", [
        TestFunction(kind="bump", dimension=2, evaluate=lambda pts: np.ones(len(pts)),
                     g1=0.0, g2=0.0, grad_sup=0.0, hess_op_sup=0.0),
        TestFunction(kind="gaussian", dimension=2, evaluate=lambda pts: np.ones(len(pts)),
                     g1=0.0, g2=0.0, grad_sup=0.0, hess_op_sup=0.0, params={"radius": 1.0}),
    ], ids=["bump-without-radius", "other-kind"])
    def test_other_test_functions_rejected(self, g):
        with pytest.raises(UnsupportedMethodError):
            gaussian_expectation(g, GaussianSpec.identity(2))

    def test_dimension_mismatch_rejected(self):
        g = cosine_testfn([1.0, 0.0])
        with pytest.raises(InvalidInputError):
            gaussian_expectation(g, GaussianSpec.identity(3))


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

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("radius", [0.05, 0.5, 2.0, 5.0, 20.0, 100.0])
    def test_bit_identical_to_the_identity_series(self, k, radius):
        res = gaussian_expectation(bump_testfn(radius, k), GaussianSpec.identity(k))
        assert res.value == bump_identity_value(radius, k) and res.error == 0.0

    @pytest.mark.parametrize("radius", [0.5, 2.0, 5.0])
    def test_within_three_standard_errors_of_monte_carlo_in_five_dimensions(self, radius):
        res = gaussian_expectation(bump_testfn(radius, 5), GaussianSpec.identity(5))
        mean, se = monte_carlo_bump(radius, np.eye(5), seed=5)
        assert res.method == "closed-form"
        assert abs(res.value - mean) <= 3.0 * se


def monte_carlo_bump(radius, covariance, seed, samples=400_000):
    """Sample mean and standard error of the bump under N(0, covariance)."""
    z = np.random.default_rng(seed).multivariate_normal(
        np.zeros(len(covariance)), covariance, size=samples)
    vals = bump_testfn(radius, len(covariance)).evaluate(z)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


class TestBumpUnderACovariance:
    @pytest.mark.parametrize("trial", range(4))
    @pytest.mark.parametrize("radius", [0.5, 2.0, 5.0])
    def test_matches_the_polar_reference_in_two_dimensions(self, trial, radius):
        cov = GRAM_2 if trial == 0 else random_cov(np.random.default_rng(100 + trial), 2)
        res = gaussian_expectation(bump_testfn(radius, 2), GaussianSpec(cov))
        ref = polar_bump_reference(radius, cov)
        assert res.method == "closed-form"
        assert res.value == pytest.approx(ref, rel=1e-11)
        assert abs(res.value - ref) <= res.error

    @pytest.mark.parametrize("trial", range(3))
    @pytest.mark.parametrize("radius", [0.5, 2.0, 5.0])
    def test_matches_the_spherical_reference_in_three_dimensions(self, trial, radius):
        cov = random_cov(np.random.default_rng(200 + trial), 3)
        res = gaussian_expectation(bump_testfn(radius, 3), GaussianSpec(cov))
        ref = spherical_bump_reference(radius, cov)
        assert res.value == pytest.approx(ref, rel=1e-11)
        assert abs(res.value - ref) <= res.error

    @pytest.mark.parametrize("k", [4, 5, 6])
    @pytest.mark.parametrize("radius", [0.5, 2.0, 5.0])
    def test_within_three_standard_errors_of_monte_carlo(self, k, radius):
        cov = random_cov(np.random.default_rng(300 + k), k)
        res = gaussian_expectation(bump_testfn(radius, k), GaussianSpec(cov))
        mean, se = monte_carlo_bump(radius, cov, seed=k)
        assert abs(res.value - mean) <= 3.0 * se + res.error

    @pytest.mark.parametrize("k", range(1, 7))
    def test_closed_form_under_any_covariance(self, k):
        cov = GRAM_2 if k == 2 else random_cov(np.random.default_rng(k), k)
        res = gaussian_expectation(bump_testfn(2.0, k), GaussianSpec(cov))
        assert res.method == "closed-form" and res.error < 1e-10

    @pytest.mark.parametrize("radius", [0.5, 2.0, 5.0])
    def test_nearly_singular_covariance_has_an_honest_error(self, radius):
        # beta/lambda_max = 5e-4: the 4096-term cap leaves 0.043 of the weight unsummed.
        cov = np.diag([1e-3, 2.0 - 1e-3])
        res = gaussian_expectation(bump_testfn(radius, 2), GaussianSpec(cov))
        ref = polar_bump_reference(radius, cov, nodes=800, angles=4096)
        assert abs(res.value - ref) <= res.error

    def test_singular_covariance_drops_the_null_direction(self):
        res = gaussian_expectation(bump_testfn(2.0, 2), GaussianSpec(np.diag([0.0, 1.0])))
        assert res.value == bump_identity_value(2.0, 1) and res.error == 0.0
        zero = gaussian_expectation(bump_testfn(2.0, 2), GaussianSpec(np.zeros((2, 2))))
        assert zero.value == 1.0 and zero.error == 0.0

    def test_a_tiny_eigenvalue_is_dropped_when_that_costs_less(self):
        # Kept, the 1e-4 eigenvalue leaves the 4096-term series 0.245 short;
        # dropped, it moves the value by at most 3e-4/r^2 = 7.5e-5.
        cov = np.diag([1e-4, 1.0, 1.0, 1.0, 1.0, 1.0])
        res = gaussian_expectation(bump_testfn(2.0, 6), GaussianSpec(cov))
        assert res.error < 1e-4
        assert abs(res.value - bump_identity_value(2.0, 5)) <= res.error + 7.5e-5

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_four_dimensional_call_stays_small(self):
        # Resident-set peak (VmHWM, in kB) of a fresh interpreter making one
        # k = 4 call.  Not ru_maxrss: Linux carries the parent's peak across
        # fork and exec into it, so under a large test run it reads that.
        script = (
            "import re, numpy as np\n"
            "from projclt.testfuncs import GaussianSpec, bump_testfn, gaussian_expectation\n"
            "cov = np.full((4, 4), 0.5) + 0.5 * np.eye(4)\n"
            "gaussian_expectation(bump_testfn(2.0, 4), GaussianSpec(cov))\n"
            "print(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), check=True)
        assert int(proc.stdout) < 200 * 1024
