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
strict compact-support requirements; its seminorms are maximized
numerically on a refined radial grid.  Its Gaussian expectation is exact
under identity covariance, where |Z|^2 is chi-squared; under a Gram
covariance it takes tensor Gauss-Hermite quadrature (k <= 4) or Monte
Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InvalidInputError, UnsupportedMethodError
from .sources import stream

COSINE = "cosine"
BUMP = "bump"

_SEMINORM_TOL = 1e-9


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
    hess_op_sup: Optional[float]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidInputError("test function dimension must be >= 1")
        if min(self.g1, self.g2, self.grad_sup) < 0:
            raise InvalidInputError("seminorms must be non-negative")
        if self.grad_sup < self.g1 - _SEMINORM_TOL:
            raise InvalidInputError("gradient length sup cannot be below g1")
        if self.hess_op_sup is not None:
            if self.hess_op_sup < self.g2 - _SEMINORM_TOL:
                raise InvalidInputError("Hessian operator sup cannot be below g2")
            if self.hess_op_sup > self.dimension * self.g2 + _SEMINORM_TOL:
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


def _refined_max(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                 points: int = 4001, passes: int = 2) -> float:
    """max |f| on [lo, hi] by a dense grid with refinement around the argmax."""
    best = 0.0
    for _ in range(passes + 1):
        xs = np.linspace(lo, hi, points)
        vals = np.abs(f(xs))
        j = int(np.argmax(vals))
        best = max(best, float(vals[j]))
        lo, hi = xs[max(j - 1, 0)], xs[min(j + 1, points - 1)]
    return best


def bump_testfn(radius: float, k: int) -> TestFunction:
    """Radial C^2 bump g(x) = (1 - |x|^2/r^2)^3 on |x| <= r, zero outside.

    The profile phi(s) = (1 - s^2/r^2)^3 vanishes to second order at the
    support boundary, so g has two continuous derivatives everywhere.
    Seminorms are maximized numerically over the radius; for a radial
    function the axis-aligned extrema realize both g1 = grad_sup and
    g2 = hess_op_sup, via the radial/tangential Hessian eigenvalues
    phi''(s) and phi'(s)/s.
    """
    if not 0.0 < radius < math.inf:
        raise InvalidInputError("bump radius must be positive and finite")
    if k < 1:
        raise InvalidInputError("bump dimension must be >= 1")
    r2 = radius * radius

    def dphi(s):
        u = np.clip(s * s / r2, 0.0, 1.0)
        return -(6.0 * s / r2) * (1.0 - u) ** 2

    def dphi_over_s(s):
        u = np.clip(s * s / r2, 0.0, 1.0)
        return -(6.0 / r2) * (1.0 - u) ** 2

    def d2phi(s):
        u = np.clip(s * s / r2, 0.0, 1.0)
        return (6.0 / r2) * (1.0 - u) * (5.0 * u - 1.0)

    grad_sup = _refined_max(dphi, 0.0, radius)
    if k == 1:
        hess = _refined_max(d2phi, 0.0, radius)
    else:
        hess = _refined_max(
            lambda s: np.maximum(np.abs(d2phi(s)), np.abs(dphi_over_s(s))), 0.0, radius
        )

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

    def sqrt(self) -> np.ndarray:
        """Symmetric square root of the covariance."""
        w, u = np.linalg.eigh(self.covariance)
        w = np.clip(w, 0.0, None)
        return (u * np.sqrt(w)) @ u.T


class Expectation(NamedTuple):
    """A Gaussian expectation with an absolute error estimate."""

    value: float
    error: float
    method: str


CLOSED_FORM = "closed-form"
QUADRATURE = "quadrature"
MONTE_CARLO = "monte-carlo"
AUTO = "auto"

_QUAD_MAX_DIM = 4
_QUAD_CHUNK = 1 << 20


def _bump_identity_value(radius: float, k: int) -> float:
    """E (1 - |Z|^2/r^2)_+^3 for Z ~ N(0, I_k), in closed form.

    With a = k/2 and x = r^2/2, |Z|^2/2 is Gamma(a), so E is
    x^a/Gamma(a) int_0^1 (1-u)^3 u^(a-1) e^(-xu) du.  Expanding
    e^(-xu) = e^(-x) e^(x(1-u)) gives the series of positive terms

      E = sum_{j>=0} x^(a+j) e^(-x) (j+1)(j+2)(j+3) / Gamma(a+j+4),

    summed in log space, so it neither cancels nor underflows.  Term j is
    (j+1)(j+2)(j+3)/x^3 times a Poisson(x) mass at a+j+3, so terms more
    than 40 standard deviations past the peak weigh under e^-800 of it.
    When the chi-squared mass lies that far inside the support, the
    positive part changes nothing and E is the polynomial
    E (1 - |Z|^2/r^2)^3 = 1 - 3k/r^2 + 3k(k+2)/r^4 - k(k+2)(k+4)/r^6.
    """
    a = k / 2.0
    x = radius * radius / 2.0
    half = 40.0 * math.sqrt(x) + 40.0
    if x - a - 3.0 > half:
        r2 = radius * radius
        return 1.0 - 3.0 * k / r2 * (1.0 - (k + 2) / r2 * (1.0 - (k + 4) / (3.0 * r2)))
    j = np.arange(int(max(x - a - 3.0, 0.0) + half) + 1, dtype=np.float64)
    log_terms = (a + j) * math.log(x) - x + np.log((j + 1.0) * (j + 2.0) * (j + 3.0))
    log_terms -= [math.lgamma(v) for v in a + j + 4.0]
    top = float(log_terms.max())
    return math.exp(top) * float(np.exp(log_terms - top).sum())


def _gauss_hermite_value(g: TestFunction, root: np.ndarray, nodes: int) -> float:
    """Tensor-product Gauss-Hermite integral of g against N(0, root@root.T)."""
    k = g.dimension
    x, w = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*([x] * k), indexing="ij")
    pts = np.stack([grid.ravel() for grid in grids], axis=1)
    wgrids = np.meshgrid(*([w] * k), indexing="ij")
    weights = np.ones(pts.shape[0])
    for grid in wgrids:
        weights *= grid.ravel()
    scale = math.pi ** (-k / 2.0)
    transform = math.sqrt(2.0) * root.T
    total = 0.0
    for lo in range(0, pts.shape[0], _QUAD_CHUNK):
        chunk = pts[lo : lo + _QUAD_CHUNK]
        vals = g.evaluate(chunk @ transform)
        total += float(np.dot(weights[lo : lo + _QUAD_CHUNK], vals))
    return scale * total


def gaussian_expectation(
    g: TestFunction,
    spec: GaussianSpec,
    method: str = AUTO,
    budget: int = 200_000,
    seed: int = 0,
    nodes: int = 64,
) -> Expectation:
    """E g(Z~) for Z~ ~ N(0, C), with an absolute error estimate.

    ``closed-form`` is exact for the cosine family,
    E cos(<a, Z~> + phase) = cos(phase) exp(-a^T C a / 2), and for a
    :func:`bump_testfn` bump when C is exactly the identity (a chi-squared
    series, any k); ``auto`` picks it for both.  ``quadrature``
    is tensor-product Gauss-Hermite after factoring C through its
    symmetric square root (k <= 4).  ``monte-carlo`` returns the sample
    mean with error set to three standard errors.
    """
    if g.dimension != spec.dimension:
        raise InvalidInputError(
            f"test function is {g.dimension}-dimensional, covariance is {spec.dimension}"
        )
    identity_bump = (g.kind == BUMP and "radius" in g.params
                     and np.array_equal(spec.covariance, np.eye(g.dimension)))
    if method == AUTO:
        if g.kind == COSINE or identity_bump:
            method = CLOSED_FORM
        elif g.dimension <= _QUAD_MAX_DIM:
            method = QUADRATURE
        else:
            method = MONTE_CARLO

    if method == CLOSED_FORM:
        if identity_bump:
            return Expectation(_bump_identity_value(g.params["radius"], g.dimension), 0.0,
                               CLOSED_FORM)
        if g.kind != COSINE:
            raise UnsupportedMethodError(
                "closed-form Gaussian expectation exists for cosines and for the radial "
                f"bump under identity covariance, not {g.kind!r} with this covariance"
            )
        a = g.params["a"]
        phase = g.params["phase"]
        quad = float(a @ spec.covariance @ a)
        return Expectation(math.cos(phase) * math.exp(-quad / 2.0), 0.0, CLOSED_FORM)

    if method == QUADRATURE:
        if g.dimension > _QUAD_MAX_DIM:
            raise InvalidInputError(
                f"quadrature supports dimension <= {_QUAD_MAX_DIM}, got {g.dimension}"
            )
        if nodes < 40:
            raise InvalidInputError(f"quadrature needs at least 40 nodes per axis, got {nodes}")
        root = spec.sqrt()
        hi = _gauss_hermite_value(g, root, nodes)
        lo = _gauss_hermite_value(g, root, nodes - 8)
        return Expectation(hi, abs(hi - lo) + 1e-14, QUADRATURE)

    if method == MONTE_CARLO:
        if budget < 100:
            raise InvalidInputError(f"Monte Carlo budget too small: {budget}")
        rng = stream(seed)
        root = spec.sqrt()
        vals = g.evaluate(rng.standard_normal((budget, g.dimension)) @ root.T)
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(budget))
        return Expectation(mean, 3.0 * se, MONTE_CARLO)

    raise UnsupportedMethodError(f"unknown Gaussian expectation method {method!r}")
