"""Reference constructions of the two exchangeable pairs, for the tests.

Single pair draws, the conditional mean E[S' - S | x] and error matrix
E_ij(x) enumerated over the pair randomization, the closed form of E_ij
per state, and the pairwise third-moment mean check the library's exact
statistics in :mod:`projclt.bounds`; the library itself never draws
single pairs and never evaluates E_ij at a state.
"""

import math
from typing import NamedTuple

import numpy as np

from projclt import sources
from projclt.directions import VALIDATION_TOL, DirectionSet
from projclt.bounds import RESAMPLING, TRANSPOSITION
from projclt.errors import InvalidInputError
from projclt.sources import ExchangeableModel, IIDModel, IndependentModel, Model

from conftest import law_values

PAIR_KINDS = (RESAMPLING, TRANSPOSITION)


def orthonormal_rows(ds: DirectionSet) -> bool:
    """Every entry of the rows' Gram matrix within VALIDATION_TOL of the identity's."""
    theta = ds.vectors
    return bool(np.max(np.abs(theta @ theta.T - np.eye(ds.k))) <= VALIDATION_TOL)


def centered_rows(ds: DirectionSet) -> bool:
    """Every row sums to zero within VALIDATION_TOL."""
    return bool(np.max(np.abs(ds.vectors.sum(axis=1))) <= VALIDATION_TOL)


def require_family(model: Model, pair_kind: str) -> None:
    """Refuse a model whose family does not take ``pair_kind``: resampling
    needs independent coordinates, the transposition exchangeable ones."""
    if isinstance(model, ExchangeableModel) != (pair_kind == TRANSPOSITION):
        raise InvalidInputError(f"the {pair_kind} pair does not apply to this model")


def coord_law(model: IndependentModel, index: int) -> IIDModel:
    """The scalar law of coordinate ``index`` of an independent model."""
    return model.laws[model.law_index[index]]


def pair_lambda(pair_kind: str, n: int) -> float:
    """The shrinkage constant of each pair: 1/n and 2/(n-1)."""
    return 1.0 / n if pair_kind == RESAMPLING else 2.0 / (n - 1)


def project(x: np.ndarray, ds: DirectionSet) -> np.ndarray:
    """S^i = <theta_i, x>."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ds.n,):
        raise InvalidInputError(f"state has shape {x.shape}, directions need ({ds.n},)")
    return ds.vectors @ x


class ResamplePairDraw(NamedTuple):
    s: np.ndarray
    s_prime: np.ndarray
    index: int
    replacement: float


class TransposePairDraw(NamedTuple):
    s: np.ndarray
    s_prime: np.ndarray
    index_i: int
    index_j: int


def resample_pair(x, ds: DirectionSet, model: Model, seed: int) -> ResamplePairDraw:
    """One draw of the coordinate-resampling pair from state x."""
    require_family(model, RESAMPLING)
    x = np.asarray(x, dtype=np.float64)
    s = project(x, ds)
    rng = sources.stream(seed)
    index = int(rng.integers(ds.n))
    replacement = float(law_values(coord_law(model, index), rng, 1)[0])
    s_prime = s + ds.vectors[:, index] * (replacement - x[index])
    return ResamplePairDraw(s=s, s_prime=s_prime, index=index, replacement=replacement)


def transpose_pair(x, ds: DirectionSet, model: Model, seed: int) -> TransposePairDraw:
    """One draw of the transposition pair from state x."""
    require_family(model, TRANSPOSITION)
    if not centered_rows(ds):
        raise InvalidInputError(
            "the transposition pair needs centered directions (rows summing to zero); "
            "its shrinkage identity fails otherwise"
        )
    x = np.asarray(x, dtype=np.float64)
    s = project(x, ds)
    rng = sources.stream(seed)
    n = ds.n
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1
    delta = (ds.vectors[:, i] - ds.vectors[:, j]) * (x[j] - x[i])
    return TransposePairDraw(s=s, s_prime=s + delta, index_i=i, index_j=j)


def conditional_mean_enumerated(
    x, ds: DirectionSet, model: Model, pair_kind: str
) -> np.ndarray:
    """E[S' - S | x], computed by enumerating the pair randomization.

    Resampling averages over the replaced index and the replacement law,
    whose support is enumerated (a law without one has mean 0);
    transposition averages over all n(n-1) ordered index pairs.
    """
    x = np.asarray(x, dtype=np.float64)
    n = ds.n
    if pair_kind == RESAMPLING:
        require_family(model, RESAMPLING)
        laws = [coord_law(model, r) for r in range(n)]
        mu = np.array([math.fsum(v * p for v, p in zip(*law.support))
                       if law.support is not None else 0.0 for law in laws])
        return ds.vectors @ (mu - x) / n
    if pair_kind == TRANSPOSITION:
        theta = ds.vectors
        dx = x[None, :] - x[:, None]
        dtheta = theta[:, :, None] - theta[:, None, :]
        return np.einsum("irs,rs->i", dtheta, dx) / (n * (n - 1))
    raise InvalidInputError(f"unknown pair kind {pair_kind!r}")


def eij_closed_form(x, ds: DirectionSet, pair_kind: str) -> np.ndarray:
    """The conditional second-moment error matrix E_ij(x) in closed form.

    ``x`` is one state (n,) or a block of states (m, n); the result is
    (k, k) or (m, k, k) accordingly.

    Resampling (orthonormal rows):
        E_ij = (1/n) sum_r theta_i^r theta_j^r (x_r^2 - 1).

    Transposition (centered orthonormal rows), with W = sum x_r,
    V_ij = sum_r theta_i^r theta_j^r x_r^2, T_ij = sum_r theta_i^r theta_j^r x_r:
        E_ij = 2/(n(n-1)) [ delta_ij sum_r (x_r^2 - 1) + n (V_ij - delta_ij)
                            - 2 T_ij W + 2 S^i S^j ].
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != ds.n:
        raise InvalidInputError(f"states have shape {x.shape}, directions need (..., {ds.n})")
    if pair_kind not in PAIR_KINDS:
        raise InvalidInputError(f"unknown pair kind {pair_kind!r}")
    if not orthonormal_rows(ds):
        raise InvalidInputError(f"the {pair_kind} closed form assumes orthonormal rows")
    theta = ds.vectors
    n = ds.n
    outer = theta[:, None, :] * theta[None, :, :]
    x2 = x * x
    if pair_kind == RESAMPLING:
        return np.einsum("...r,ijr->...ij", x2 - 1.0, outer) / n
    if not centered_rows(ds):
        raise InvalidInputError("the transposition closed form assumes centered rows")
    s = x @ theta.T
    v = np.einsum("...r,ijr->...ij", x2, outer)
    t = np.einsum("...r,ijr->...ij", x, outer)
    ss = np.einsum("...i,...j->...ij", s, s)
    eye = np.eye(ds.k)
    e = n * (v - eye) - 2.0 * x.sum(axis=-1)[..., None, None] * t + 2.0 * ss
    e += eye * np.sum(x2 - 1.0, axis=-1)[..., None, None]
    e *= 2.0 / (n * (n - 1))
    return e


def eij_enumerated(x, ds: DirectionSet, model: Model, pair_kind: str) -> np.ndarray:
    """E[dS^i dS^j | x] - 2 lambda delta_ij by direct enumeration.

    The resampling route needs the per-coordinate replacement second
    moments; finite supports are enumerated, continuous laws use the
    declared standardization (E X* = 0, E X*^2 = 1).
    """
    x = np.asarray(x, dtype=np.float64)
    theta = ds.vectors
    n = ds.n
    lam = pair_lambda(pair_kind, n)
    if pair_kind == RESAMPLING:
        require_family(model, RESAMPLING)
        w = np.empty(n)
        for r in range(n):
            law = coord_law(model, r)
            if law.support is not None:
                vals, probs = law.support
                w[r] = float(probs @ (vals - x[r]) ** 2)
            else:
                w[r] = 1.0 + x[r] * x[r]
        cond = (theta * w) @ theta.T / n
        return cond - 2.0 * lam * np.eye(ds.k)
    if pair_kind == TRANSPOSITION:
        dx2 = (x[None, :] - x[:, None]) ** 2
        dtheta = theta[:, :, None] - theta[:, None, :]
        cond = np.einsum("irs,jrs,rs->ij", dtheta, dtheta, dx2) / (n * (n - 1))
        return cond - 2.0 * lam * np.eye(ds.k)
    raise InvalidInputError(f"unknown pair kind {pair_kind!r}")


def mean_abs3_diff_pairs(v: np.ndarray) -> float:
    """Mean of |v_r - v_s|^3 over ordered pairs r != s, summed over all n^2
    pairs in 256-row chunks, so no n x n array is formed."""
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    total = math.fsum(
        float(np.sum(np.abs(v[lo:lo + 256, None] - v[None, :]) ** 3))
        for lo in range(0, n, 256)
    )
    return total / (n * (n - 1))
