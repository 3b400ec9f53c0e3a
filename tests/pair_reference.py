"""Reference constructions of the two exchangeable pairs, for the tests.

Single pair draws, the enumerated conditional mean E[S' - S | x] and the
pairwise third-moment mean check the library's closed forms in
:mod:`projclt.empirics`; the library itself never draws single pairs.
"""

import math
from typing import NamedTuple

import numpy as np

from projclt import sources
from projclt.directions import DirectionSet
from projclt.empirics import (
    RESAMPLING,
    TRANSPOSITION,
    _coord_law,
    _replacement_means,
    _require_exchangeable,
    _require_independent,
)
from projclt.errors import InvalidInputError
from projclt.sources import Model


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
    _require_independent(model)
    x = np.asarray(x, dtype=np.float64)
    s = project(x, ds)
    rng = sources.stream(seed)
    index = int(rng.integers(ds.n))
    replacement = float(_coord_law(model, index).sampler(rng, 1)[0])
    s_prime = s + ds.vectors[:, index] * (replacement - x[index])
    return ResamplePairDraw(s=s, s_prime=s_prime, index=index, replacement=replacement)


def transpose_pair(x, ds: DirectionSet, model: Model, seed: int) -> TransposePairDraw:
    """One draw of the transposition pair from state x."""
    _require_exchangeable(model)
    if not ds.is_centered():
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

    Resampling averages over the replaced index (and the replacement
    law); transposition averages over all n(n-1) ordered index pairs.
    """
    x = np.asarray(x, dtype=np.float64)
    n = ds.n
    if pair_kind == RESAMPLING:
        _require_independent(model)
        mu = _replacement_means(model, n)
        return ds.vectors @ (mu - x) / n
    if pair_kind == TRANSPOSITION:
        theta = ds.vectors
        dx = x[None, :] - x[:, None]
        dtheta = theta[:, :, None] - theta[:, None, :]
        return np.einsum("irs,rs->i", dtheta, dx) / (n * (n - 1))
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
