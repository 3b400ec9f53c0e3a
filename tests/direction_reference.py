"""Reference facts about direction sets, for the tests.

Gram-Schmidt with its triangular change of basis checks the Gram
matrices of :mod:`projclt.directions`, a row-by-row l_p norm checks its
norm sums, and the sphere moments check the norm sums of random
orthonormal frames against their expectations.
"""

import math
from dataclasses import dataclass

import numpy as np

from projclt.directions import VALIDATION_TOL, DirectionSet
from projclt.errors import InvalidInputError, LinearDependenceError


def lp_norm(v, p: float) -> float:
    """l_p norm (sum_i |v_i|^p)^(1/p) of a non-empty real vector."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise InvalidInputError("lp_norm expects a non-empty 1-d vector")
    if p < 1:
        raise InvalidInputError(f"lp_norm requires p >= 1, got {p}")
    a = np.abs(v)
    if p == 1:
        return float(a.sum())
    if p == 2:
        return float(np.sqrt(np.dot(v, v)))
    if p == 3:
        return float(np.cbrt(np.sum(a * a * a)))
    if p == 4:
        s = np.dot(v * v, v * v)
        return float(np.sqrt(np.sqrt(s)))
    return float(np.sum(a**p) ** (1.0 / p))


@dataclass(frozen=True, eq=False)
class GramSchmidtResult:
    """Lower-triangular B and orthonormal rows eta with theta_i = sum_j B_ij eta_j.

    By construction B B^T reproduces the Gram matrix of the input rows.
    """

    B: np.ndarray
    eta: np.ndarray


def gram_schmidt(ds: DirectionSet) -> GramSchmidtResult:
    """Orthonormalize the rows, returning the triangular change of basis.

    Modified Gram-Schmidt with one reorthogonalization pass; the pass
    coefficients are accumulated into B so the recomposition identity
    theta_i = sum_j B_ij eta_j holds to working precision.
    """
    theta = ds.vectors
    k, n = theta.shape
    b = np.zeros((k, k))
    eta = np.zeros((k, n))
    for i in range(k):
        v = theta[i].copy()
        for _ in range(2):
            for j in range(i):
                c = float(eta[j] @ v)
                b[i, j] += c
                v -= c * eta[j]
        piv = float(np.linalg.norm(v))
        if piv < VALIDATION_TOL:
            raise LinearDependenceError(f"row {i} is numerically dependent (pivot {piv:.3e})")
        b[i, i] = piv
        eta[i] = v / piv
    b.flags.writeable = False
    eta.flags.writeable = False
    return GramSchmidtResult(B=b, eta=eta)


def sphere_mean_l3_cubed(n: int) -> float:
    """E ||theta||_3^3 for theta uniform on the unit sphere of R^n.

    Equals n Gamma(n/2) / (sqrt(pi) Gamma(n/2 + 3/2)), roughly sqrt(8/(pi n)).
    """
    if n < 1:
        raise InvalidInputError("dimension must be positive")
    return math.exp(
        math.log(n) + math.lgamma(n / 2.0) - 0.5 * math.log(math.pi) - math.lgamma(n / 2.0 + 1.5)
    )


def sphere_mean_l4_sq_bound(n: int) -> float:
    """Upper bound sqrt(3/(n+2)) for E ||theta||_4^2 on the unit sphere."""
    if n < 1:
        raise InvalidInputError("dimension must be positive")
    return math.sqrt(3.0 / (n + 2.0))
