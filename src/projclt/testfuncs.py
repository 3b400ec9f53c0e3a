"""C^2 test functions with known seminorms and Gaussian expectations.

The discrepancy being bounded is |E g(S) - E g(Z)| over twice
continuously differentiable g, and every bound is assembled from four
seminorms of g:

  g1          = max_i  sup_x |dg/dx_i|
  g2          = max_ij sup_x |d^2 g / dx_i dx_j|
  grad_sup    = sup_x |grad g(x)|          (Euclidean length)
  hess_op_sup = sup_x ||Hessian g(x)||_op  (largest |eigenvalue|)

The cosine family has all four in closed form together with an exact
Gaussian expectation, which removes one estimation error source from
verification runs.  A compactly supported radial bump is provided for
strict compact-support requirements; its four seminorms are exact
closed forms in the radius.  Both have their Gaussian
expectation in closed form under any covariance: the cosine through the
characteristic function, and the bump through a chi-squared series,
since |Z|^2 under a covariance C is a mixture of chi-squared laws scaled
by the smallest eigenvalue of C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidInputError, UnsupportedMethodError

COSINE = "cosine"
BUMP = "bump"

# The seminorm chain may fail by rounding, a few ulps relative (the
# cosine's norms are rounded); 8 ulps covers it with room to spare.
_SEMINORM_RTOL = 8 * float(np.finfo(np.float64).eps)
_MIN_RADIUS, _MAX_RADIUS = 1e-150, 1e150


@dataclass(frozen=True, eq=False)
class TestFunction:
    """A C^2 function R^k -> R with its four cached seminorms.

    ``evaluate`` is vectorized: it maps an (m, k) array of points to an
    (m,) array of values.  Seminorms satisfy g1 <= grad_sup <= sqrt(k) g1
    and g2 <= hess_op_sup <= k g2 (Hilbert-Schmidt estimate).
    """

    __test__ = False  # keep pytest from collecting the Test* name

    kind: str
    dimension: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    g1: float
    g2: float
    grad_sup: float
    hess_op_sup: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidInputError("test function dimension must be >= 1")
        seminorms = (self.g1, self.g2, self.grad_sup, self.hess_op_sup)
        if not all(math.isfinite(v) and v >= 0 for v in seminorms):
            raise InvalidInputError(f"seminorms must be finite and non-negative, got {seminorms}")
        lo, hi = 1.0 - _SEMINORM_RTOL, 1.0 + _SEMINORM_RTOL
        if self.grad_sup < lo * self.g1:
            raise InvalidInputError("gradient length sup cannot be below g1")
        if self.grad_sup > hi * math.sqrt(self.dimension) * self.g1:
            raise InvalidInputError("gradient length sup exceeds the sqrt(k)*g1 estimate")
        if self.hess_op_sup < lo * self.g2:
            raise InvalidInputError("Hessian operator sup cannot be below g2")
        if self.hess_op_sup > hi * self.dimension * self.g2:
            raise InvalidInputError("Hessian operator sup exceeds the k*g2 estimate")


def cosine_testfn(a, phase: float = 0.0) -> TestFunction:
    """g(x) = cos(<a, x> + phase) with analytic seminorms.

    g1 = max|a_i|, grad_sup = |a|_2, g2 = max|a_i|^2, hess_op_sup = |a|_2^2.
    """
    a = np.asarray(a, dtype=np.float64)
    if (a.ndim != 1 or a.size == 0 or not np.any(a != 0.0)
            or not (np.isfinite(a).all() and math.isfinite(phase))):
        raise InvalidInputError("cosine needs a nonzero finite direction and a finite phase")
    a = a.copy()
    a.flags.writeable = False
    amax = float(np.max(np.abs(a)))
    l2 = float(np.linalg.norm(a))

    def evaluate(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return np.cos(points @ a + phase)

    return TestFunction(
        kind=COSINE,
        dimension=a.size,
        evaluate=evaluate,
        g1=amax,
        g2=amax * amax,
        grad_sup=l2,
        hess_op_sup=l2 * l2,
        params={"a": a, "phase": float(phase)},
    )


def bump_testfn(radius: float, k: int) -> TestFunction:
    """Radial C^2 bump g(x) = (1 - |x|^2/r^2)^3 on |x| <= r, zero outside.

    The profile phi(s) = (1 - s^2/r^2)^3 vanishes to second order at the
    support boundary, so g has two continuous derivatives everywhere.  Its
    seminorms are exact.  With u = s^2/r^2 on [0, 1]:

      phi'(s)/s = -(6/r^2) (1 - u)^2          largest in size, 6/r^2, at s = 0
      phi''(s)  =  (6/r^2) (1 - u)(5u - 1)    largest in size, 6/r^2, at s = 0
      |phi'(s)| =  (6/r) sqrt(u) (1 - u)^2    largest at u = 1/5: 96/(25 sqrt(5) r)

    The gradient has length |phi'(s)| and, on an axis, one nonzero
    coordinate.  The Hessian has eigenvalues phi''(s) along x and phi'(s)/s
    across it, and is -(6/r^2) I at 0.  So for every k
    g1 = grad_sup = 96/(25 sqrt(5) r) and g2 = hess_op_sup = 6/r^2.  The
    radius must lie in [1e-150, 1e150], where r^2 and 6/r^2 are finite and
    nonzero with room to spare for the products the bounds take of them.
    """
    if not _MIN_RADIUS <= radius <= _MAX_RADIUS:
        raise InvalidInputError(
            f"bump radius must be positive and finite, within [{_MIN_RADIUS:g}, "
            f"{_MAX_RADIUS:g}], got {radius!r}")
    if k < 1:
        raise InvalidInputError("bump dimension must be >= 1")
    r2 = radius * radius
    grad_sup = 96.0 / (25.0 * math.sqrt(5.0) * radius)
    hess = 6.0 / r2

    def evaluate(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        t = 1.0 - np.einsum("ij,ij->i", points, points) / r2
        np.clip(t, 0.0, None, out=t)
        return t * t * t

    return TestFunction(
        kind=BUMP,
        dimension=k,
        evaluate=evaluate,
        g1=grad_sup,
        g2=hess,
        grad_sup=grad_sup,
        hess_op_sup=hess,
        params={"radius": float(radius)},
    )


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """Covariance of the Gaussian comparison vector (identity unless the
    directions are merely linearly independent, in which case it is their
    Gram matrix)."""

    covariance: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.covariance, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 1:
            raise InvalidInputError("covariance must be a square matrix")
        if np.max(np.abs(c - c.T)) > 1e-10:
            raise InvalidInputError("covariance must be symmetric")
        c = (c + c.T) / 2.0
        if np.linalg.eigvalsh(c)[0] < -1e-10:
            raise InvalidInputError("covariance must be positive semi-definite")
        c.flags.writeable = False
        object.__setattr__(self, "covariance", c)

    @property
    def dimension(self) -> int:
        return self.covariance.shape[0]

    @classmethod
    def identity(cls, k: int) -> "GaussianSpec":
        return cls(covariance=np.eye(k))

    @classmethod
    def from_gram(cls, gramdata) -> "GaussianSpec":
        return cls(covariance=np.array(gramdata.C))


class Expectation(NamedTuple):
    """A Gaussian expectation with a proved absolute error bound."""

    value: float
    error: float
    method: str


CLOSED_FORM = "closed-form"

# The chi-squared mixture of a bump under a general covariance stops at the
# first power of two of terms that leaves under _MIXTURE_TAIL of its weight,
# or at _MIXTURE_TERMS terms.
_MIXTURE_TERMS = 4096
_MIXTURE_TAIL = 1e-15
# Covariance eigenvalues at or below this fraction of the largest count as 0.
_NULL_EIGENVALUE = 1e-12
_EPS = float(np.finfo(np.float64).eps)


def _bump_chi2_value(radius: float, k: int, weights: np.ndarray) -> float:
    """sum_j w_j E (1 - |W_j|^2/r^2)_+^3 for W_j ~ N(0, I_(k+2j)), in closed form.

    With a = k/2 and x = r^2/2, |W_0|^2/2 is Gamma(a), so for one weight
    E is x^a/Gamma(a) int_0^1 (1-u)^3 u^(a-1) e^(-xu) du.  Expanding
    e^(-xu) = e^(-x) e^(x(1-u)) gives the series of positive terms

      E = sum_{i>=0} x^(a+i) e^(-x) (i+1)(i+2)(i+3) / Gamma(a+i+4).

    W_j adds j to a, so the mixture, grouped by n = i + j, is the same
    series with w_n = sum_j w_j (n-j+1)(n-j+2)(n-j+3) for the cubic.  It is
    summed in log space, so it neither cancels nor underflows.  For weights
    summing to at most 1, term n is at most (n+1)(n+2)(n+3)/x^3 times a
    Poisson(x) mass at a+n+3, so terms more than 40 standard deviations
    past the peak weigh under e^-800 of it.  When the chi-squared mass of
    every W_j lies that far inside the support, the positive part changes
    nothing and dimension d takes the polynomial
    E (1 - |W|^2/r^2)^3 = 1 - 3d/r^2 + 3d(d+2)/r^4 - d(d+2)(d+4)/r^6.
    """
    a = k / 2.0
    x = radius * radius / 2.0
    half = 40.0 * math.sqrt(x) + 40.0
    if x - (a + weights.size - 1) - 3.0 > half:
        r2 = radius * radius
        d = k + 2.0 * np.arange(weights.size)
        return float(weights @ (1.0 - 3.0 * d / r2 * (
            1.0 - (d + 2) / r2 * (1.0 - (d + 4) / (3.0 * r2)))))
    n = np.arange(int(max(x - a - 3.0, 0.0) + half) + 1, dtype=np.float64)
    cubic = np.convolve(weights, (n + 1.0) * (n + 2.0) * (n + 3.0))[: n.size]
    log_terms = (a + n) * math.log(x) - x + np.log(cubic)
    log_terms -= [math.lgamma(v) for v in a + n + 4.0]
    top = float(log_terms.max())
    return math.exp(top) * float(np.exp(log_terms - top).sum())


def _chi2_mixture_weights(lam: np.ndarray) -> np.ndarray:
    """Weights c_j with sum_i lam_i chi^2_1 = sum_j c_j beta chi^2_(k+2j) in law.

    Here lam is sorted, beta = lam[0] > 0 and k = lam.size (Ruben 1962).
    With rho_i = 1 - beta/lam_i and v = 1/(1 - 2 beta t), the moment
    generating function prod_i (1 - 2 lam_i t)^(-1/2) is
    c_0 v^(k/2) prod_i (1 - rho_i v)^(-1/2), c_0 = prod_i (beta/lam_i)^(1/2),
    and v^(k/2+j) is that of beta chi^2_(k+2j).  Every factor
    (1 - rho v)^(-1/2) = sum_j C(2j, j) (rho/4)^j v^j has positive
    coefficients, so the c_j are positive and sum to 1.  Equal eigenvalues
    give c = [1] exactly.
    """
    beta = float(lam[0])
    rho = 1.0 - beta / lam[lam > beta]
    c0 = math.exp(0.5 * float(np.log(beta / lam).sum()))
    terms = 32
    while True:
        terms *= 2
        steps = np.arange(1.0, terms)
        c = np.array([c0])
        for p in rho:
            series = np.cumprod(np.concatenate(([1.0], (2.0 * steps - 1.0) / (2.0 * steps) * p)))
            c = np.convolve(c, series)[:terms]
        if 1.0 - math.fsum(c) <= _MIXTURE_TAIL or terms >= _MIXTURE_TERMS:
            return c


def _bump_mixture(radius: float, lam: np.ndarray) -> tuple[float, float]:
    """(value, proved error) of E g(Z~) for a bump of radius r and Z~ with
    the positive, ascending covariance eigenvalues lam: the chi-squared
    series of :func:`gaussian_expectation`."""
    c = _chi2_mixture_weights(lam)
    scaled = radius / math.sqrt(lam[0])
    value = _bump_chi2_value(scaled, lam.size, c)
    mass = max(1.0 - math.fsum(c), 0.0)
    tail = _bump_chi2_value(scaled, lam.size + 2 * c.size, np.array([mass])) if mass else 0.0
    # A weight is off by at most (k + 2)(J + 1) + |log c_0| ulps, with J >= 64.
    rounding = 16 * lam.size * c.size * _EPS * (value + tail) if c.size > 1 else 0.0
    return value + tail / 2.0, tail / 2.0 + rounding


def gaussian_expectation(g: TestFunction, spec: GaussianSpec) -> Expectation:
    """E g(Z~) for Z~ ~ N(0, C) in closed form, with a proved absolute error bound.

    For the cosine family E cos(<a, Z~> + phase) = cos(phase) exp(-a^T C a / 2),
    with error 0.  For a :func:`bump_testfn` bump of radius r, with beta the
    smallest eigenvalue of C and c_j the weights of
    :func:`_chi2_mixture_weights`, E g(Z~) = sum_j c_j B(r/sqrt(beta), k+2j),
    where B(s, d) is the bump's value under I_d (:func:`_bump_chi2_value`).
    Under a multiple of the identity that is its one term, with error 0.
    Otherwise the sum stops at J terms.  B falls as d grows, so the
    unsummed weight m adds between 0 and m B(r/sqrt(beta), k+2J): the value
    takes half of that, and the error the other half plus a rounding
    allowance for the weights.

    Dropping the smallest eigenvalues, of sum s, drops independent
    components of Z~ that add s to E|Z~|^2; g is (3/r^2)-Lipschitz in
    |x|^2, so that moves the value by at most 3s/r^2, which the error then
    carries.  Eigenvalues at or below 1e-12 of the largest are always
    dropped.  Beyond them, the smallest eigenvalues are dropped one at a
    time while that lowers the total error: a small eigenvalue makes the
    series converge slowly, and its own 3 lam/r^2 may cost far less.
    """
    if g.dimension != spec.dimension:
        raise InvalidInputError(
            f"test function is {g.dimension}-dimensional, covariance is {spec.dimension}"
        )
    if g.kind == COSINE:
        a = g.params["a"]
        quad = float(a @ spec.covariance @ a)
        return Expectation(math.cos(g.params["phase"]) * math.exp(-quad / 2.0), 0.0,
                           CLOSED_FORM)
    if g.kind != BUMP or "radius" not in g.params:
        raise UnsupportedMethodError(
            "Gaussian expectations exist for cosines and for bumps with a radius, "
            f"not for {g.kind!r} with parameters {sorted(g.params)}"
        )
    radius = g.params["radius"]
    lam = np.linalg.eigvalsh(spec.covariance)
    first = int(np.count_nonzero(lam <= _NULL_EIGENVALUE * lam[-1]))
    best = (1.0, math.inf)
    for drop in range(first, lam.size + 1):
        dropped = 3.0 * float(np.clip(lam[:drop], 0.0, None).sum()) / (radius * radius)
        if dropped >= best[1]:
            break  # dropping more can only cost more
        value, error = _bump_mixture(radius, lam[drop:]) if drop < lam.size else (1.0, 0.0)
        if dropped + error < best[1]:
            best = (value, dropped + error)
    return Expectation(*best, CLOSED_FORM)
