"""Explicit Gaussian-approximation error bounds for rank-k projections.

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

:func:`projclt.empirics.compute_bound` checks a theorem so, then has
:func:`bound` assemble T1-T5.  Writing N4 = sum_i ||theta_i||_4^2,
N3 = sum_i ||theta_i||_3^3, L4 = (sum_i ||theta_i||_4)^2, and using the
seminorms of :mod:`projclt.testfuncs`, with G1 = g1 and G2 = g2 when
lam = 1, G1 = grad_sup and G2 = hess_op_sup when lam comes from the Gram
matrix:

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

Every report decomposes its total into a fourth-moment term, a
third-moment term, and a mixed-moment term (zero outside T4/T5), with
``total`` equal to their sum exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .directions import DirectionSet, NormSummary
from .errors import InvalidInputError
from .sources import EXCHANGEABLE, IID, INDEPENDENT, Model, MomentSummary, family, model_dim
from .testfuncs import TestFunction


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


class EijStats(NamedTuple):
    """Conditional-second-moment error statistics feeding the abstract bound.

    ``sum_abs`` is an upper bound on sum_ij E|E_ij|; ``sqrt_sum_sq`` is an
    upper bound on E (sum_ij E_ij^2)^(1/2).  :func:`projclt.empirics.compute_bound`
    passes the Jensen envelopes sum_ij sqrt(E E_ij^2) and
    sqrt(sum_ij E E_ij^2) of the exact second moments.  Either may be
    ``inf`` when unknown, which simply removes that branch of the min.
    """

    sum_abs: float
    sqrt_sum_sq: float


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
    if model_dim(model) not in (None, ds.n):
        raise InvalidInputError("model dimension does not match the direction set")
    if not row.gram and not ds.orthonormal:
        worst = np.max(np.abs(ds.gram - np.eye(ds.k)))
        raise InvalidInputError(f"{theorem} requires orthonormal directions; these rows' Gram "
                                f"matrix is off the identity by {worst:.3e}")
    if fam == EXCHANGEABLE and not ds.centered:
        raise InvalidInputError(f"{theorem} needs centered directions, rows that sum to zero, "
                                "for an exchangeable model")
    return row


def bound(
    theorem: str,
    norms: NormSummary,
    m: MomentSummary,
    g: TestFunction,
    lam: float = 1.0,
    constants: ExchangeableConstants = DEFAULT_EXCHANGEABLE_CONSTANTS,
) -> BoundReport:
    """Assemble T1-T5 from the summaries of inputs :func:`theorem_spec` admitted.

    A row with the Gram flag takes ``lam``, the largest Gram eigenvalue,
    hess_op_sup for g2 and, in the exchangeable family, grad_sup for g1; a
    row without it is passed lam = 1 and takes g1 and g2.  The independent
    family reads the worst-coordinate moments.
    """
    row = THEOREMS[theorem]
    k = norms.k
    grad, hess = (g.grad_sup, g.hess_op_sup) if row.gram else (g.g1, g.g2)
    if EXCHANGEABLE not in row.families:
        term_fourth = (
            0.5 * math.sqrt(lam * k) * g.grad_sup
            * math.sqrt(max(m.fourth_max - 1.0, 0.0)) * norms.sum_l4_sq
        )
        term_third = (4.0 / 3.0) * lam * k * k * hess * m.abs3_max * norms.sum_l3_cubed
        term_mixed = 0.0
    else:
        sqrt_lam = math.sqrt(lam)
        term_mixed = (
            constants.a * k * sqrt_lam * grad
            * (math.sqrt(abs(m.mixed_4)) + math.sqrt(abs(m.mixed_var)))
        )
        term_fourth = constants.b * sqrt_lam * grad * math.sqrt(m.fourth) * norms.sum_l4_all_sq
        term_third = constants.c * k * k * lam * hess * m.abs3 * norms.sum_l3_cubed
    return BoundReport(theorem, norms.n, k, lam if row.gram else None,
                       term_fourth, term_third, term_mixed)


def bound_abstract(
    lambda_stein: float,
    eij_stats: EijStats,
    third_stats: float,
    g: TestFunction,
    k: int,
) -> BoundReport:
    """Abstract exchangeable-pair bound from upper bounds on its error
    statistics.

    ``third_stats`` is sum_i E|X'_i - X_i|^3.  With exact or enveloped
    inputs the result is a proved inequality.  The report records which
    branch of the min was taken.
    """
    # Written so that NaN fails each comparison.
    if not lambda_stein > 0:
        raise InvalidInputError(f"the linearity constant must be positive, got {lambda_stein}")
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got {k}")
    if not all(v >= 0 for v in (eij_stats.sum_abs, eij_stats.sqrt_sum_sq, third_stats)):
        raise InvalidInputError("error statistics must be non-negative (inf allowed, not NaN)")
    branch_abs = g.g1 / (2.0 * lambda_stein) * eij_stats.sum_abs
    branch_sq = math.sqrt(k) * g.grad_sup / (2.0 * lambda_stein) * eij_stats.sqrt_sum_sq
    if branch_abs <= branch_sq:
        term_fourth, min_branch = branch_abs, MIN_BRANCH_ABS
    else:
        term_fourth, min_branch = branch_sq, MIN_BRANCH_SQ
    term_third = k * k * g.g2 / (6.0 * lambda_stein) * third_stats
    return BoundReport("abstract", None, k, lambda_stein, term_fourth, term_third, 0.0,
                       min_branch)
