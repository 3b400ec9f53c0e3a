"""Explicit Gaussian-approximation error bounds for rank-k projections,
and the exact exchangeable-pair statistics behind the abstract bound.

The paper proves one bound for independent coordinates and one for
exchangeable coordinates; the i.i.d. bound is the independent one with
identical laws, and linearly independent (rather than orthonormal) unit
directions add the largest Gram eigenvalue lam, with the Gram matrix as
the comparison covariance.  :data:`THEOREMS` is the README's theorem
table: per theorem, the model families it admits, whether lam comes from
the Gram matrix (otherwise lam = 1 and the comparison Gaussian is
standard), and whether pair statistics feed it.  :func:`theorem_spec`
checks two rules on the rows that follow from it:

* without the Gram flag the rows must be orthonormal: lam = 1 with a
  standard comparison Gaussian is right only when Cov S = Gram = I;
* under an exchangeable model the rows must sum to zero: T4 and T5 state
  it, and the transposition pair's E_ij closed form assumes it.

:func:`compute_bound` checks a theorem so, then evaluates it from the
rows and the model.  Writing N4 = sum_i ||theta_i||_4^2,
N3 = sum_i ||theta_i||_3^3, L4 = (sum_i ||theta_i||_4)^2 (the norm sums
of :class:`projclt.directions.DirectionSet`), and using the seminorms of
:mod:`projclt.testfuncs`, with G1 = g1 and G2 = g2 when lam = 1,
G1 = grad_sup and G2 = hess_op_sup when lam comes from the Gram matrix:

  independent (T1-T3; worst-coordinate moments)
      1/2 * sqrt(lam k) * grad_sup * sqrt(max EX^4 - 1) * N4
      + 4/3 * lam * k^2 * G2 * max E|X|^3 * N3

  exchangeable (T4, T5; constants a, b, c)
      a * k * sqrt(lam) * G1 * (sqrt|E X1X2X3X4| + sqrt|E (X1^2-1)(X2^2-1)|)
      + b * sqrt(lam) * G1 * sqrt(EX^4) * L4
      + c * k^2 * lam * G2 * E|X|^3 * N3

  abstract (any exchangeable pair satisfying the linearity and
  conditional-second-moment hypotheses with constant lam and errors E_ij)
      min( g1/(2 lam) * sum_ij E|E_ij|,
           sqrt(k) grad_sup/(2 lam) * E sqrt(sum_ij E_ij^2) )
      + k^2 g2/(6 lam) * sum_i E|dX_i|^3

The constants a, b, c of T4/T5 are genuinely unspecified; the defaults
below come from a conservative accounting of the transposition-pair
error terms (see README) and are configuration, not sharp values.

The model's family fixes the abstract bound's pair, one per theorem of
the paper:

* independent coordinates (i.i.d. included) take coordinate resampling --
  replace one uniformly chosen coordinate by an independent copy; the
  conditional-mean shrinkage constant is 1/n;
* exchangeable coordinates take the transposition -- swap two uniformly
  chosen coordinates; the shrinkage constant is 2/(n-1), and the closed
  form of its errors E_ij needs every direction row to sum to zero.

For both, the linearity E[S' - S | x] = -lambda S holds, because every
model is checked standardized when it is built, and the conditional
second-moment errors E_ij have closed forms in the current state x.  On
them rest the error statistics feeding the abstract bound, all exact: the
second moments E E_ij^2 over the state, whose Jensen envelopes bound
sum_ij E|E_ij| and E sqrt(sum_ij E_ij^2), and the third-moment sum.  So
the abstract bound is a proved inequality and draws no state.

Every report decomposes its total into a fourth-moment term, a
third-moment term, and a mixed-moment term (zero outside T4/T5), with
``total`` equal to their sum exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .directions import DirectionSet
from .errors import InvalidInputError
from .sources import (EXCHANGEABLE, IID, INDEPENDENT, ExchangeableModel, Model, family,
                      moment_summary)
from .testfuncs import TestFunction

RESAMPLING = "resampling"
TRANSPOSITION = "transposition"


class Theorem(NamedTuple):
    """What one theorem assumes of its inputs, and where its lam comes from."""

    families: tuple[str, ...]  # model families admitted (sources.IID, ...)
    gram: bool = False  # lam and the comparison covariance from the Gram matrix
    pair: bool = False  # fed by exchangeable-pair statistics, not by moments


THEOREMS = {
    "T1": Theorem((IID,)),
    "T2": Theorem((IID, INDEPENDENT)),
    "T3": Theorem((IID, INDEPENDENT), gram=True),
    "T4": Theorem((EXCHANGEABLE,)),
    "T5": Theorem((EXCHANGEABLE,), gram=True),
    "abstract": Theorem((IID, INDEPENDENT, EXCHANGEABLE), pair=True),
}

MIN_BRANCH_ABS = "sum-abs"
MIN_BRANCH_SQ = "sqrt-sum-sq"


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One evaluated bound at its n, k and lam: lam is the largest Gram
    eigenvalue (T3, T5) or the pair's constant (abstract), None where
    lam = 1, and :func:`bound_abstract` leaves n None.  ``total`` sums the
    three terms in field order."""

    theorem: str
    n: Optional[int]
    k: int
    lam: Optional[float]
    term_fourth: float
    term_third: float
    term_mixed: float
    min_branch: Optional[str] = None

    @property
    def total(self) -> float:
        return self.term_fourth + self.term_third + self.term_mixed


@dataclass(frozen=True)
class ExchangeableConstants:
    """The three absolute constants of the exchangeable-case bounds."""

    a: float = 1.0
    b: float = 12.0
    c: float = 16.0 / 3.0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.a, self.b, self.c)):
            raise InvalidInputError("exchangeable constants must be finite and positive")


DEFAULT_EXCHANGEABLE_CONSTANTS = ExchangeableConstants()


def theorem_spec(theorem: str, ds: DirectionSet, model: Model) -> Theorem:
    """The row of ``theorem``, once the model's family and dimension and the
    two rules on the rows (module docstring) are checked; O(k n) time."""
    row = THEOREMS.get(theorem) if isinstance(theorem, str) else None
    if row is None:
        raise InvalidInputError(f"unknown theorem {theorem!r}; choose from {list(THEOREMS)}")
    fam = family(model)
    if fam not in row.families:
        raise InvalidInputError(
            f"{theorem} needs a model of family {' or '.join(row.families)}, got {fam}"
        )
    if model.n != ds.n:
        raise InvalidInputError("model dimension does not match the direction set")
    if not row.gram and not ds.orthonormal:
        worst = np.max(np.abs(ds.gram - np.eye(ds.k)))
        raise InvalidInputError(f"{theorem} requires orthonormal directions; these rows' Gram "
                                f"matrix is off the identity by {worst:.3e}")
    if fam == EXCHANGEABLE and not ds.centered:
        raise InvalidInputError(f"{theorem} needs centered directions, rows that sum to zero, "
                                "for an exchangeable model")
    return row


def compute_bound(
    theorem: str,
    ds: DirectionSet,
    model: Model,
    g: TestFunction,
    constants: ExchangeableConstants = DEFAULT_EXCHANGEABLE_CONSTANTS,
) -> BoundReport:
    """The one way to a bound: check the theorem with :func:`theorem_spec`
    and evaluate it from the rows' norm sums and the model's constants
    (:func:`projclt.sources.moment_summary`).

    A row with the Gram flag takes lam, the largest Gram eigenvalue,
    hess_op_sup for g2 and, in the exchangeable family, grad_sup for g1; a
    row without it takes lam = 1, g1 and g2.  The abstract bound takes its
    error statistics from the pair matching the model: the Jensen
    envelopes of the exact E E_ij^2 (:func:`eij_second_moments`) and the
    exact third-moment sum.
    """
    row = theorem_spec(theorem, ds, model)
    k = ds.k
    if g.dimension != k:
        raise InvalidInputError(f"test function dimension {g.dimension} != k = {k}")
    if row.pair:
        second = eij_second_moments(ds, model)
        report = bound_abstract(stein_lambda(model), float(np.sqrt(second).sum()),
                                math.sqrt(float(second.sum())), third_moment_sum(ds, model),
                                g, k)
        return replace(report, n=ds.n)
    m = moment_summary(model)
    lam = ds.lambda_max if row.gram else 1.0
    grad, hess = (g.grad_sup, g.hess_op_sup) if row.gram else (g.g1, g.g2)
    if EXCHANGEABLE not in row.families:
        term_fourth = (
            0.5 * math.sqrt(lam * k) * g.grad_sup
            * math.sqrt(max(m.fourth - 1.0, 0.0)) * ds.sum_l4_sq
        )
        term_third = (4.0 / 3.0) * lam * k * k * hess * m.abs3 * ds.sum_l3_cubed
        term_mixed = 0.0
    else:
        sqrt_lam = math.sqrt(lam)
        term_mixed = (
            constants.a * k * sqrt_lam * grad
            * (math.sqrt(abs(m.mixed_4)) + math.sqrt(abs(m.mixed_var)))
        )
        term_fourth = constants.b * sqrt_lam * grad * math.sqrt(m.fourth) * ds.sum_l4_all_sq
        term_third = constants.c * k * k * lam * hess * m.abs3 * ds.sum_l3_cubed
    return BoundReport(theorem, ds.n, k, lam if row.gram else None,
                       term_fourth, term_third, term_mixed)


def bound_abstract(
    lambda_stein: float,
    sum_abs: float,
    sqrt_sum_sq: float,
    third_stats: float,
    g: TestFunction,
    k: int,
) -> BoundReport:
    """Abstract exchangeable-pair bound from upper bounds on its error
    statistics.

    ``sum_abs`` bounds sum_ij E|E_ij| and ``sqrt_sum_sq`` bounds
    E (sum_ij E_ij^2)^(1/2); :func:`compute_bound` passes the Jensen
    envelopes of the exact second moments (:func:`eij_second_moments`).
    Either may be ``inf`` when unknown, which removes that branch of the
    min.  ``third_stats`` is sum_i E|X'_i - X_i|^3.  With exact or
    enveloped inputs the result is a proved inequality.  The report records
    which branch of the min was taken.
    """
    # Written so that NaN fails each comparison.
    if not lambda_stein > 0:
        raise InvalidInputError(f"the linearity constant must be positive, got {lambda_stein}")
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got {k}")
    if not all(v >= 0 for v in (sum_abs, sqrt_sum_sq, third_stats)):
        raise InvalidInputError("error statistics must be non-negative (inf allowed, not NaN)")
    branch_abs = g.g1 / (2.0 * lambda_stein) * sum_abs
    branch_sq = math.sqrt(k) * g.grad_sup / (2.0 * lambda_stein) * sqrt_sum_sq
    if branch_abs <= branch_sq:
        term_fourth, min_branch = branch_abs, MIN_BRANCH_ABS
    else:
        term_fourth, min_branch = branch_sq, MIN_BRANCH_SQ
    term_third = k * k * g.g2 / (6.0 * lambda_stein) * third_stats
    return BoundReport("abstract", None, k, lambda_stein, term_fourth, term_third, 0.0,
                       min_branch)


# --------------------------------------------------------------------------
# Exchangeable pairs

def pair_for(family: str) -> str:
    """The pair of a model family (:func:`projclt.sources.family`):
    transposition for exchangeable coordinates, coordinate resampling
    otherwise."""
    return TRANSPOSITION if family == EXCHANGEABLE else RESAMPLING


def stein_lambda(model: Model) -> float:
    """Shrinkage constant of the conditional-mean identity for the model's pair."""
    if family(model) == EXCHANGEABLE:
        return 2.0 / (model.n - 1)
    return 1.0 / model.n


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
    last factor from :meth:`projclt.sources.IIDModel.constant`, once per law's
    weight sum.
    Transposition: D3 sum_i sum_{r != s} |theta_i^r - theta_i^s|^3 / (n(n-1)),
    D3 the mean of |a - b|^3 over ordered distinct population pairs.  Each
    pair mean comes from sorted prefix sums (:func:`_mean_abs3_diff`), so
    the transposition sum costs O(k n log n) time and O(n) memory, with a
    relative error of O(n eps).
    """
    theta = ds.vectors
    exchangeable = family(model) == EXCHANGEABLE
    if model.n != ds.n:
        raise InvalidInputError("model dimension does not match the direction set")
    if exchangeable:
        return _mean_abs3_diff(model.population) * sum(_mean_abs3_diff(row) for row in theta)
    weights = np.sum(np.abs(theta) ** 3, axis=0)
    return sum(float(weights[model.law_index == j].sum()) * law.constant("diff_abs3")
               for j, law in enumerate(model.laws)) / ds.n


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
    (:func:`theorem_spec`).

    Resampling, independent coordinates: E_ij = (1/n) sum_r theta_i^r
    theta_j^r (x_r^2 - 1), so E E_ij^2 = (1/n^2) sum_r (theta_i^r
    theta_j^r)^2 (EX_r^4 - 1), with each law's fourth moment declared where
    given, else enumerated over a finite support
    (:meth:`projclt.sources.IIDModel.constant`); it is exactly 0 for
    Rademacher coordinates.  Transposition: see
    :func:`_transposition_second_moments`, O(k^2 n) time.

    By Jensen, sum_ij sqrt(E E_ij^2) >= sum_ij E|E_ij| and
    sqrt(sum_ij E E_ij^2) >= E sqrt(sum_ij E_ij^2): the two statistics of
    the abstract bound, bounded without sampling a state.
    """
    theorem_spec("abstract", ds, model)
    theta = ds.vectors
    if isinstance(model, ExchangeableModel):
        return _transposition_second_moments(theta, model.population)
    fourth = np.array([law.constant("fourth") for law in model.laws])[model.law_index]
    t2 = theta * theta
    return (t2 * np.maximum(fourth - 1.0, 0.0)) @ t2.T / (ds.n * ds.n)
