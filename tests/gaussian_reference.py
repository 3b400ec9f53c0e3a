"""Reference Gaussian expectations, for the tests.

Each reference integrates by a method independent of the series in
:mod:`projclt.testfuncs`: tensor Gauss-Hermite quadrature for the cosine,
Gauss-Legendre quadrature over the bump's support ball (polar at k = 2,
spherical at k = 3), where the integrand is smooth, and the identity
covariance's chi-squared series as the library first summed it.
"""

import math

import numpy as np


def gauss_hermite_expectation(g, covariance, nodes=64):
    """E g(Z) for Z ~ N(0, covariance) by tensor Gauss-Hermite quadrature.

    The covariance is factored through its symmetric square root.  Exact
    to rounding for the cosine at 64 nodes per axis; use k <= 3.
    """
    k = g.dimension
    w, u = np.linalg.eigh(np.asarray(covariance, dtype=np.float64))
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T
    x, wx = np.polynomial.hermite.hermgauss(nodes)
    pts = np.stack([grid.ravel() for grid in np.meshgrid(*([x] * k), indexing="ij")], axis=1)
    weights = np.ones(pts.shape[0])
    for grid in np.meshgrid(*([wx] * k), indexing="ij"):
        weights *= grid.ravel()
    vals = g.evaluate(pts @ (math.sqrt(2.0) * root.T))
    return math.pi ** (-k / 2.0) * float(weights @ vals)


def bump_identity_value(radius, k):
    """E (1 - |Z|^2/r^2)_+^3 for Z ~ N(0, I_k) by the positive series

      sum_{j>=0} x^(a+j) e^(-x) (j+1)(j+2)(j+3) / Gamma(a+j+4),

    with a = k/2 and x = r^2/2, summed in log space, or by the polynomial
    E (1 - |Z|^2/r^2)^3 when the chi-squared mass lies more than 40
    standard deviations inside the support.  The library's value under the
    identity must equal this to the bit.
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


def _radial_nodes(radius, nodes):
    s, w = np.polynomial.legendre.leggauss(nodes)
    return radius * (s + 1.0) / 2.0, w * radius / 2.0


def _ball_integral(radius, covariance, directions, direction_weights, nodes):
    """E (1 - |Z|^2/r^2)_+^3 over the ball |z| <= r in polar form.

    ``directions`` are unit vectors with quadrature weights for the sphere
    of dimension k; the density of Z along direction e at radius s is
    exp(-s^2 e^T C^-1 e / 2) / sqrt((2 pi)^k det C).
    """
    cov = np.asarray(covariance, dtype=np.float64)
    k = cov.shape[0]
    s, ws = _radial_nodes(radius, nodes)
    q = np.einsum("pi,ij,pj->p", directions, np.linalg.inv(cov), directions)
    profile = ws * (1.0 - s * s / radius**2) ** 3 * s ** (k - 1)
    radial = np.exp(-np.outer(q, s * s) / 2.0) @ profile
    return float(direction_weights @ radial) / math.sqrt((2.0 * math.pi) ** k * np.linalg.det(cov))


def polar_bump_reference(radius, covariance, nodes=400, angles=1024):
    """The bump under a 2x2 covariance: Gauss-Legendre in the radius, the
    trapezoid rule (exponentially accurate for a periodic integrand) in the angle."""
    phi = 2.0 * math.pi * np.arange(angles) / angles
    e = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    return _ball_integral(radius, covariance, e, np.full(angles, 2.0 * math.pi / angles), nodes)


def spherical_bump_reference(radius, covariance, nodes=120, polar=120, angles=128):
    """The bump under a 3x3 covariance: Gauss-Legendre in the radius and the
    polar angle, the trapezoid rule in the azimuth."""
    t, wt = _radial_nodes(math.pi, polar)
    phi = 2.0 * math.pi * np.arange(angles) / angles
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    e = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1)
    weights = np.outer(wt * np.sin(t), np.full(angles, 2.0 * math.pi / angles))
    return _ball_integral(radius, covariance, e.reshape(-1, 3), weights.ravel(), nodes)
