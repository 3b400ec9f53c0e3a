"""Exchangeable-pair statistics and Monte Carlo bound verification.

The model's family fixes the pair, one per theorem of the paper:

* independent coordinates (i.i.d. included) take coordinate resampling --
  replace one uniformly chosen coordinate by an independent copy; the
  conditional-mean shrinkage constant is 1/n;
* exchangeable coordinates take the transposition -- swap two uniformly
  chosen coordinates; the shrinkage constant is 2/(n-1), and the closed
  form of its errors E_ij needs every direction row to sum to zero.

For both, the conditional mean E[S' - S | x] and the conditional
second-moment errors E_ij have closed forms in the current state x.  The
linearity residual E[S' - S | x] + lambda S turns out not to depend on x,
so it is checked in closed form too.  On the closed forms rest the error
statistics feeding the abstract bound, all exact: the second moments
E E_ij^2 over the state, whose Jensen envelopes bound sum_ij E|E_ij| and
E sqrt(sum_ij E_ij^2), and the third-moment sum.  So the abstract bound
is a proved inequality and draws no state.  Last comes the end-to-end
check that the measured discrepancy |E g(S) - E g(Z~)| stays below the
assembled bound.

Monte Carlo loops follow the splittable seeding contract of
:mod:`projclt.sources`: every state is drawn in fixed-size blocks (a
block starting at index i uses the stream keyed by (seed, i)), per-block
partial results are merged in block order, and results are therefore
independent of how blocks are scheduled across workers.
"""

from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from . import bounds as bounds_mod
from . import sources
from .bounds import DEFAULT_EXCHANGEABLE_CONSTANTS, ExchangeableConstants
from .directions import DirectionSet, norm_summary
from .errors import InvalidInputError, InvalidMomentsError, ProjcltError
from .sources import ExchangeableModel, IndependentModel, Model, sample_class_sums, sample_tiles
from .testfuncs import Expectation, GaussianSpec, TestFunction, gaussian_expectation

RESAMPLING = "resampling"
TRANSPOSITION = "transposition"

# Fixed Monte Carlo block size; part of the determinism contract.
_BLOCK = 8192
# How a block's projections are drawn: coordinates projected tile by tile,
# or one sum per class of coordinates that share a direction column and a
# law (:func:`estimate_discrepancy`).
COORDINATES, CLASS_SUMS = "coordinates", "class-sums"
# Class sums replace coordinates when the classes hold this many coordinates
# on average: G <= n / _CLASS_SIZE for G classes.  Timed with
# estimate_discrepancy on one worker, 32768 samples of a cosine on sign rows
# (2-core x86), classes of m = 64 coordinates take 0.68x the time of the
# coordinates under two_point(0.2) and 0.17x under the exponential, but 1.43x
# under Rademacher and 1.48x under two_point(0.45), whose coordinates cost
# only 1.2-1.8 ns each (about 5 ms more per 32768 samples at n = 256).  At
# m = 128 every catalog law is faster (0.1-0.9x), and at m = 2048 (n = 4096,
# k = 2) 0.01-0.07x.  So the break-even is near m = 100 for Rademacher and
# two-point laws near p = 1/2, whose binomial sums cost 50-110 ns by BTPE
# (m min(p, 1-p) > 30) and about 10 ns per unit of m p by inversion below,
# under 64 for two_point(0.2), and near 8 for the exponential, whose gamma
# sums cost about 21 ns.
_CLASS_SIZE = 64


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` threads, made on first use and
    reused by every later call: starting two threads cost about 0.8 ms per
    call.  A forked child starts without the parent's threads, so it drops
    the cached pools and makes its own."""
    return ThreadPoolExecutor(max_workers=workers)


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_pool.cache_clear)


def pair_for(family: str) -> str:
    """The pair of a model family (:func:`projclt.sources.family`):
    transposition for exchangeable coordinates, coordinate resampling
    otherwise."""
    return TRANSPOSITION if family == sources.EXCHANGEABLE else RESAMPLING


def stein_lambda(model: Model, n: int) -> float:
    """Shrinkage constant of the conditional-mean identity for the model's pair."""
    if not isinstance(model, ExchangeableModel):
        return 1.0 / n
    if n < 2:
        raise InvalidInputError("transposition needs n >= 2")
    return 2.0 / (n - 1)


# --------------------------------------------------------------------------
# Exact conditional expectations

def _law_mean(law) -> float:
    """E X of a scalar law: enumerated over a finite support, declared 0
    otherwise (every model is standardized)."""
    return float(law.support[0] @ law.support[1]) if law.support is not None else 0.0


def linearity_residual(ds: DirectionSet, model: Model) -> float:
    """max_i |E[S'^i - S^i | x] + lambda S^i| for the model's pair.  It is
    the same at every state x, so no state is drawn.

    Resampling: E[S' - S | x] = theta (mu - x) / n with mu_r = E X*_r and
    lambda = 1/n, so the sum is theta mu / n.  Transposition, with
    W = sum_r x_r: E[S' - S | x] = 2 (W theta 1 - n S) / (n (n-1)) and
    lambda = 2/(n-1), so the sum is 2 W theta 1 / (n (n-1)), where W is the
    population sum for every permutation x.  Either way the sum is
    lambda E[S], which is 0 for every standardized model whatever the rows
    sum to, so what is left is the rounding of the declared means.
    """
    theta = ds.vectors
    n = ds.n
    if sources.model_dim(model) not in (None, n):
        raise InvalidInputError("model dimension does not match the direction set")
    lam = stein_lambda(model, n)
    if isinstance(model, ExchangeableModel):
        mean_s = math.fsum(model.population) / n * theta.sum(axis=1)
    elif isinstance(model, IndependentModel):
        mean_s = theta @ model.per_coordinate(_law_mean)
    else:
        mean_s = theta @ np.full(n, _law_mean(model))
    return lam * float(np.max(np.abs(mean_s)))


# --------------------------------------------------------------------------
# Pair statistics

def _mean_abs3_diff(v: np.ndarray) -> float:
    """Mean of |v_r - v_s|^3 over ordered pairs r != s, in O(n log n).

    With v sorted and centered, s its 0-based position and
    P_m,s = sum_{r<s} v_r^m exclusive prefix sums,

      sum_{r<s} (v_s - v_r)^3 = sum_s [ s v_s^3 - 3 v_s^2 P_1,s + 3 v_s P_2,s - P_3,s ],

    and sum_s P_3,s = sum_s (n-1-s) v_s^3 folds the first and last terms
    into one weight 2s - n + 1.  Centering keeps the cancellation bounded:
    by Jensen the result is at least (n/2) sum |v_r|^3, while the weighted
    cube sum is at most (n-1) sum |v_r|^3 in size and, by Chebyshev's sum
    inequality, so are sum v_s^2 |P_1,s| and sum |v_s| P_2,s.  The terms
    therefore cancel by a factor of at most 14, and the relative error is
    O(n eps).  One sort, two cumulative sums and three dot products: O(n
    log n) time and O(n) memory.  A constant vector gives exactly 0.
    """
    n = v.size
    v = np.sort(v)
    if v[0] == v[-1]:
        return 0.0
    # A rounding error in the mean shifts every entry alike, which the sum
    # of differences does not see.
    v = v - v.mean()
    v2 = v * v
    p1 = np.zeros(n)
    p2 = np.zeros(n)
    np.cumsum(v[:-1], out=p1[1:])
    np.cumsum(v2[:-1], out=p2[1:])
    weights = 2.0 * np.arange(n) - (n - 1)
    total = float(weights @ (v2 * v)) - 3.0 * float(v2 @ p1) + 3.0 * float(v @ p2)
    return 2.0 * total / (n * (n - 1))


def third_moment_sum(ds: DirectionSet, model: Model) -> float:
    """Exact sum_i E|S'^i - S^i|^3 over the state and the pair randomization.

    Resampling: (1/n) sum_r (sum_i |theta_i^r|^3) E|X*_r - X_r|^3, with the
    last factor from :func:`projclt.sources.diff_abs3`.
    Transposition: D3 sum_i sum_{r != s} |theta_i^r - theta_i^s|^3 / (n(n-1)),
    D3 the mean of |a - b|^3 over ordered distinct population pairs.  Each
    pair mean comes from sorted prefix sums (:func:`_mean_abs3_diff`), so
    the transposition sum costs O(k n log n) time and O(n) memory, with a
    relative error of O(n eps).
    """
    theta = ds.vectors
    if isinstance(model, ExchangeableModel):
        return _mean_abs3_diff(model.population) * sum(_mean_abs3_diff(row) for row in theta)
    weights = np.sum(np.abs(theta) ** 3, axis=0)
    if isinstance(model, IndependentModel):
        return float(weights @ model.per_coordinate(sources.diff_abs3)) / ds.n
    return float(weights.sum()) * sources.diff_abs3(model) / ds.n


@functools.cache
def _set_partitions(m: int) -> tuple:
    """Every set partition of range(m), as tuples of blocks."""
    if m == 0:
        return ((),)
    out = []
    for part in _set_partitions(m - 1):
        for b in range(len(part)):
            out.append(part[:b] + (part[b] + (m - 1,),) + part[b + 1:])
        out.append(part + ((m - 1,),))
    return tuple(out)


# E_ij^2 / c^2 = n^2 U^2 + 4 n U S^i S^j + 4 (S^i S^j)^2 with U = sum_r theta_i^r
# theta_j^r y_r.  Per term: the power of n, the coefficient, and one slot per
# summation index, (power of theta_i, power of theta_j, power of x, power of y).
_UY, _IX, _JX = (1, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0)
_TRANSPOSITION_TERMS = ((2, 1.0, (_UY, _UY)), (1, 4.0, (_UY, _IX, _JX)),
                        (0, 4.0, (_IX, _IX, _JX, _JX)))
# Factor tables: theta^p (theta^q)^T at 3p + q for p, q <= 2, then a block of
# ones; sum x^a y^b at 3a + b for a <= 4, b <= 2, then 1.  Padding blocks
# index the ones.
_THETA_ONE, _POP_ONE = 9, 15


@functools.cache
def _coincidence_table() -> tuple:
    """One row per term of E_ij^2 and set partition pi of its slots (which
    summation indices coincide): the term's power of n and coefficient,
    |pi|, and per block of pi the table index of its direction factor and
    of its population factor.  Also the Moebius matrix of the partition
    lattice, mu[pi, sigma] for every sigma coarser than pi, which turns
    sums over unrestricted indices into sums over distinct ones (Rota
    1964): mu = prod over the blocks C of sigma of (-1)^(c-1) (c-1)!, c the
    number of blocks of pi that C merges.
    """
    rows, theta_index, pop_index = [], [], []
    count = sum(len(_set_partitions(len(slots))) for _, _, slots in _TRANSPOSITION_TERMS)
    mobius = np.zeros((count, count))
    for n_power, coef, slots in _TRANSPOSITION_TERMS:
        parts = _set_partitions(len(slots))
        first = len(rows)
        where = {frozenset(map(frozenset, part)): first + i for i, part in enumerate(parts)}
        for part in parts:
            for sigma in _set_partitions(len(part)):
                merged = frozenset(frozenset(s for b in c for s in part[b]) for c in sigma)
                mobius[len(rows), where[merged]] = math.prod(
                    (-1) ** (len(c) - 1) * math.factorial(len(c) - 1) for c in sigma)
            exps = [tuple(map(sum, zip(*(slots[s] for s in b)))) for b in part]
            pad = 4 - len(part)  # no term has more than four slots
            theta_index.append([3 * e[0] + e[1] for e in exps] + [_THETA_ONE] * pad)
            pop_index.append([3 * e[2] + e[3] for e in exps] + [_POP_ONE] * pad)
            rows.append((n_power, coef, len(part)))
    n_power, coef, size = np.array(rows).T
    return n_power, coef, size.astype(int), np.array(theta_index), np.array(pop_index), mobius


def _transposition_second_moments(theta: np.ndarray, pop: np.ndarray) -> np.ndarray:
    """E E_ij^2 over a uniform permutation x of a standardized population.

    For centered orthonormal rows, with W = sum_r x_r, T_ij = sum_r
    theta_i^r theta_j^r x_r and V_ij = sum_r theta_i^r theta_j^r x_r^2,
    the pair's error is

      E_ij = c [ delta_ij sum_r (x_r^2 - 1) + n (V_ij - delta_ij)
                 - 2 T_ij W + 2 S^i S^j ],     c = 2/(n(n-1)).

    With W = 0, sum (x_r^2 - 1) = 0 and y = x^2 - 1 this reduces to
    E_ij = c [n U + 2 S^i S^j], U = sum_r theta_i^r theta_j^r y_r.  Each
    term of E_ij^2 is a sum over index tuples.  Grouped by which indices
    coincide (a set partition pi), it is a distinct-index sum over the
    directions, of (k, k) products theta^p (theta^q)^T, times a
    distinct-index sum over the population, of sums of x^a y^b, divided by
    (n)_|pi|, the number of ordered |pi|-tuples of distinct positions.
    Both distinct-index sums come from the unrestricted ones by Moebius
    inversion (:func:`_coincidence_table`).  A partition with more than n
    blocks has no such tuple and adds nothing.
    """
    n = pop.size
    k = theta.shape[0]
    x2 = pop * pop
    y = x2 - 1.0
    ones = np.ones_like(pop)
    powers = np.stack([np.ones_like(theta), theta, theta * theta]).reshape(3 * k, n)
    products = (powers @ powers.T).reshape(3, k, 3, k).transpose(0, 2, 1, 3).reshape(9, k, k)
    theta_table = np.concatenate([products, np.ones((1, k, k))])
    sums = np.stack([ones, pop, x2, x2 * pop, x2 * x2]) @ np.stack([ones, y, y * y]).T
    pop_table = np.append(sums.ravel(), 1.0)
    n_power, coef, size, theta_index, pop_index, mobius = _coincidence_table()
    directions = mobius @ theta_table[theta_index].prod(axis=1).reshape(size.size, k * k)
    population = mobius @ pop_table[pop_index].prod(axis=1)
    falling = np.array([math.prod(range(n - b + 1, n + 1)) for b in size], dtype=float)
    weight = coef * float(n) ** n_power * np.divide(
        population, falling, out=np.zeros_like(population), where=falling > 0)
    c = 2.0 / (n * (n - 1))
    # Rounding may leave an entry a hair below zero.
    return np.maximum(c * c * (weight @ directions).reshape(k, k), 0.0)


def eij_second_moments(ds: DirectionSet, model: Model) -> np.ndarray:
    """The exact (k, k) matrix E E_ij^2 over the state of the pair's
    conditional second-moment error E_ij = E[dS^i dS^j | x] - 2 lambda
    delta_ij, for rows and a model that ``abstract`` admits
    (:func:`projclt.bounds.theorem_spec`).

    Resampling, independent coordinates: E_ij = (1/n) sum_r theta_i^r
    theta_j^r (x_r^2 - 1), so E E_ij^2 = (1/n^2) sum_r (theta_i^r
    theta_j^r)^2 (EX_r^4 - 1), with each law's fourth moment declared where
    given, else enumerated over a finite support
    (:func:`projclt.sources.fourth_moment`); it is exactly 0 for
    Rademacher coordinates.  Transposition: see
    :func:`_transposition_second_moments`, O(k^2 n) time.

    By Jensen, sum_ij sqrt(E E_ij^2) >= sum_ij E|E_ij| and
    sqrt(sum_ij E E_ij^2) >= E sqrt(sum_ij E_ij^2): the two statistics of
    the abstract bound, bounded without sampling a state.
    """
    bounds_mod.theorem_spec("abstract", ds, model)
    theta = ds.vectors
    n = ds.n
    if isinstance(model, ExchangeableModel):
        return _transposition_second_moments(theta, model.population)
    if isinstance(model, IndependentModel):
        fourth = model.per_coordinate(sources.fourth_moment)
    else:
        fourth = sources.fourth_moment(model)
    if np.min(fourth) < 1.0 - 1e-9:
        raise InvalidMomentsError(f"EX^4 = {np.min(fourth)} < 1 contradicts EX^2 = 1")
    t2 = theta * theta
    return (t2 * np.maximum(fourth - 1.0, 0.0)) @ t2.T / (n * n)


# --------------------------------------------------------------------------
# Discrepancy estimation

@dataclass(frozen=True)
class DiscrepancyEstimate:
    """|mean g(S) - E g(Z~)| with a three-standard-error confidence margin,
    the number of sample blocks and of workers that drew them, and how:
    ``sampler`` is COORDINATES or CLASS_SUMS, and ``groups`` the number of
    class sums per sample (None for coordinates)."""

    discrepancy: float
    ci_halfwidth: float
    mean_g: float
    se: float
    gaussian: Expectation
    samples: int
    blocks: int
    workers: int
    sampler: str
    groups: Optional[int]


class _Moments(NamedTuple):
    """Count, mean and sum of squared deviations of a run of values."""

    count: int
    mean: float
    m2: float

    def merge(self, other: "_Moments") -> "_Moments":
        """Pairwise update of Chan, Golub & LeVeque (1983)."""
        count = self.count + other.count
        delta = other.mean - self.mean
        return _Moments(
            count=count,
            mean=self.mean + delta * other.count / count,
            m2=self.m2 + other.m2 + delta * delta * self.count * other.count / count,
        )


class _Classes(NamedTuple):
    """Classes of coordinates that share a direction column and a law: per
    class its law and size, and the (G, k) float64 distinct columns."""

    laws: tuple
    sizes: tuple
    columns: np.ndarray


def _classes(ds: DirectionSet, model: Model) -> Optional[_Classes]:
    """The classes of (direction column, law) of an i.i.d. or independent
    model whose laws all declare a ``sum_sampler``, when there are at most
    n / _CLASS_SIZE of them; else None.  Columns are compared bit for bit.

    Rows are first checked one by one for having few distinct entries, so
    random rows are turned away after one sort of their first row (0.035
    ms at n = 4096, where numpy's ``unique`` of the 64-bit words hashes
    them and takes 0.6 ms).  Classes are ordered by law, then by the bit
    patterns (as unsigned integers) of their entries in the first row, the
    second, and so on.
    """
    if isinstance(model, ExchangeableModel):
        return None
    laws = model.laws if isinstance(model, IndependentModel) else (model,)
    if any(law.sum_sampler is None for law in laws):
        return None
    limit = ds.n // _CLASS_SIZE
    bits = ds.vectors.view(np.uint64)
    for row in bits:
        ordered = np.sort(row)
        if 1 + np.count_nonzero(ordered[1:] != ordered[:-1]) > limit:
            return None
    law_index = (model.law_index if isinstance(model, IndependentModel)
                 else np.zeros(ds.n, dtype=np.intp))
    code = law_index
    for row in bits:
        values, inverse = np.unique(row, return_inverse=True)
        # Renumbering the classes after each row keeps the codes below n^2.
        _, first, code, sizes = np.unique(code * values.size + inverse, return_index=True,
                                          return_inverse=True, return_counts=True)
        if first.size > limit:
            return None
    return _Classes(laws=tuple(laws[law_index[r]] for r in first),
                    sizes=tuple(int(m) for m in sizes),
                    columns=np.ascontiguousarray(ds.vectors[:, first].T))


def estimate_discrepancy(
    ds: DirectionSet,
    model: Model,
    g: TestFunction,
    gaussian: Expectation,
    samples: int,
    seed: int,
    workers: Optional[int] = None,
) -> DiscrepancyEstimate:
    """Monte Carlo estimate of |E g(S) - E g(Z~)|.

    ``gaussian`` is the Gaussian side, E g(Z~) as computed by
    :func:`gaussian_expectation`.

    Draws are generated in fixed-size blocks (single precision; the
    statistical error at any usable sample count dominates the rounding
    by several orders of magnitude).  Each block is drawn, projected and
    dropped in cache-sized tiles, each tile by one float32 BLAS product,
    2-4x faster than an einsum (2-core x86) and byte-identical under one
    or two BLAS threads.  Each block reduces to (count, mean, M2) of g in
    double precision, and the blocks are merged in block order, so the
    result does not depend on worker count or scheduling.  More than one
    worker runs the blocks on the process's pool of that many threads,
    kept from call to call; one worker runs them inline.

    S depends on the coordinates only through the sums of the classes of
    coordinates that share a direction column and a law.  When there are
    few classes (:func:`_classes`: sign-design rows under the catalog laws
    but the uniform), each block draws its class sums instead
    (:func:`projclt.sources.sample_class_sums`, from the block's own
    stream) and S is the float64 product of the (count, G) sums with the
    G distinct columns.
    """
    if samples < 1000:
        raise InvalidInputError(f"discrepancy estimation needs >= 1000 samples, got {samples}")
    if g.dimension != ds.k:
        raise InvalidInputError(f"test function dimension {g.dimension} != k = {ds.k}")
    n = ds.n
    if sources.model_dim(model) not in (None, n):
        raise InvalidInputError("model dimension does not match the direction set")
    classes = _classes(ds, model)
    theta = np.ascontiguousarray(ds.vectors.T, dtype=np.float32)
    starts = list(range(0, samples, _BLOCK))

    def run_block(start: int) -> _Moments:
        count = min(_BLOCK, samples - start)
        if classes is None:
            tiles = sample_tiles(model, seed, start, count, n=n)
            s = np.concatenate([x @ theta for x in tiles]).astype(np.float64)
        else:
            s = sample_class_sums(classes.laws, classes.sizes, seed, start,
                                  count) @ classes.columns
        vals = g.evaluate(s)
        mean = float(vals.mean())
        dev = vals - mean
        return _Moments(count=count, mean=mean, m2=float(np.dot(dev, dev)))

    if workers is None:
        workers = min(2, os.cpu_count() or 1)
    if workers < 1:
        raise InvalidInputError(f"workers must be a positive integer, got {workers}")
    workers = min(workers, len(starts))
    if workers > 1:
        partials = list(_pool(workers).map(run_block, starts))
    else:
        partials = [run_block(s) for s in starts]

    total = partials[0]
    for part in partials[1:]:
        total = total.merge(part)
    mean = total.mean
    se = math.sqrt(total.m2 / (samples - 1) / samples)
    return DiscrepancyEstimate(
        discrepancy=abs(mean - gaussian.value),
        ci_halfwidth=3.0 * se + gaussian.error,
        mean_g=mean,
        se=se,
        gaussian=gaussian,
        samples=samples,
        blocks=len(starts),
        workers=workers,
        sampler=COORDINATES if classes is None else CLASS_SUMS,
        groups=None if classes is None else len(classes.laws),
    )


# --------------------------------------------------------------------------
# End-to-end verification

@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run; ``bound_report`` names its theorem, n and k,
    and ``estimate`` its sample count, discrepancy and margin."""

    estimate: DiscrepancyEstimate
    bound_report: bounds_mod.BoundReport
    bound_scale: float = 1.0
    digest: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def bound_total(self) -> float:
        """The bound, times ``bound_scale``."""
        return self.bound_report.total * self.bound_scale

    @property
    def passed(self) -> bool:
        """The measured discrepancy is at most the bound plus the margin."""
        return self.estimate.discrepancy <= self.bound_total + self.estimate.ci_halfwidth


def _stage(name: str, fn, seconds: dict):
    """Run one verification stage, naming it in any error and recording its
    wall time in ``seconds``."""
    start = time.perf_counter()
    try:
        return fn()
    except ProjcltError as exc:
        raise type(exc)(f"stage {name!r}: {exc}") from exc
    finally:
        seconds[name] = time.perf_counter() - start


def compute_bound(
    theorem: str,
    ds: DirectionSet,
    model: Model,
    g: TestFunction,
    constants: ExchangeableConstants = DEFAULT_EXCHANGEABLE_CONSTANTS,
) -> bounds_mod.BoundReport:
    """The one way to a bound: check the theorem with :func:`projclt.bounds.theorem_spec`
    and evaluate it.  The abstract bound takes its error statistics from the
    pair matching the model: the Jensen envelopes of the exact E E_ij^2
    (:func:`eij_second_moments`) and the exact third-moment sum."""
    row = bounds_mod.theorem_spec(theorem, ds, model)
    if g.dimension != ds.k:
        raise InvalidInputError(f"test function dimension {g.dimension} != k = {ds.k}")
    if not row.pair:
        return bounds_mod.bound(theorem, norm_summary(ds), sources.moment_summary(model), g,
                                ds.lambda_max if row.gram else 1.0, constants)
    second = eij_second_moments(ds, model)
    eij = bounds_mod.EijStats(
        sum_abs=float(np.sqrt(second).sum()), sqrt_sum_sq=math.sqrt(float(second.sum()))
    )
    report = bounds_mod.bound_abstract(
        stein_lambda(model, ds.n), eij, third_moment_sum(ds, model), g, ds.k
    )
    return replace(report, n=ds.n)


def gaussian_spec_for(theorem: str, ds: DirectionSet) -> GaussianSpec:
    """The Gram matrix as covariance for the theorems that take lam from
    it, the identity otherwise."""
    if bounds_mod.THEOREMS[theorem].gram:
        return GaussianSpec(ds.gram)
    return GaussianSpec.identity(ds.k)


def verify_bound(theorem: str, ds: DirectionSet, model: Model, g: TestFunction, *,
                 samples: int, seed: int,
                 constants: ExchangeableConstants = DEFAULT_EXCHANGEABLE_CONSTANTS,
                 bound_scale: float = 1.0, digest: str = "",
                 workers: Optional[int] = None) -> VerificationReport:
    """Estimate the discrepancy, evaluate the selected bound, and compare.

    The run passes when the measured discrepancy does not exceed the bound,
    times ``bound_scale``, plus the confidence margin.  The estimate says
    how the discrepancy was sampled; the metadata adds the seed, the tile
    height and stream, how long each stage took, and the largest of the
    bound's three terms.  The Gaussian stage builds the covariance and
    computes E g(Z~); the discrepancy stage only samples.
    """
    seconds: dict = {}
    report = _stage("bound", lambda: compute_bound(theorem, ds, model, g, constants=constants),
                    seconds)
    gauss = _stage("gaussian", lambda: gaussian_expectation(g, gaussian_spec_for(theorem, ds)),
                   seconds)
    disc = _stage(
        "discrepancy",
        lambda: estimate_discrepancy(ds, model, g, gauss, samples, seed, workers=workers),
        seconds,
    )
    terms = {name: getattr(report, name) for name in ("term_fourth", "term_third", "term_mixed")}
    metadata = {
        "seed": seed,
        "tile_rows": sources.TILE_ROWS,
        "stream": sources.STREAM,
        "stage_seconds": seconds,
        "samples_per_s": samples / seconds["discrepancy"],
        "dominant_term": max(terms, key=terms.get),
    }
    return VerificationReport(estimate=disc, bound_report=report, bound_scale=bound_scale,
                              digest=digest, metadata=metadata)
