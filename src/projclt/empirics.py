"""Monte Carlo bound verification.

:func:`estimate_discrepancy` samples the projections S = theta X and
measures |E g(S) - E g(Z~)| with a confidence margin, and
:func:`verify_bound` checks end to end that the measured discrepancy
stays below the bound of :func:`projclt.bounds.compute_bound`.  Every
exact quantity -- the bounds and the pair statistics of the abstract
bound -- lives in :mod:`projclt.bounds`.

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
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import sources
from .bounds import (DEFAULT_EXCHANGEABLE_CONSTANTS, THEOREMS, BoundReport,
                     ExchangeableConstants, compute_bound)
from .directions import DirectionSet
from .errors import InvalidInputError, ProjcltError
from .sources import Model
from .testfuncs import Expectation, GaussianSpec, TestFunction, gaussian_expectation

# Fixed Monte Carlo block size; part of the determinism contract.
_BLOCK = 8192


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` threads, made on first use and
    reused by every later call: starting two threads cost about 0.8 ms per
    call.  A forked child starts without the parent's threads, so it drops
    the cached pools and makes its own."""
    return ThreadPoolExecutor(max_workers=workers)


if hasattr(os, "register_at_fork"):  # absent where processes cannot fork
    os.register_at_fork(after_in_child=_pool.cache_clear)


# --------------------------------------------------------------------------
# Discrepancy estimation

@dataclass(frozen=True)
class DiscrepancyEstimate:
    """|mean g(S) - E g(Z~)| with a three-standard-error confidence margin,
    the number of sample blocks and of workers that drew them, and how:
    ``sampler`` and ``groups`` are those of the
    :class:`projclt.sources.ProjectionPlan` that drew the samples."""

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

    Draws are generated in fixed-size blocks, each drawn from its own
    (seed, start) stream by the plan of :func:`projclt.sources.projections`.
    Each block reduces to (count, mean, M2) of g in double precision, and
    the blocks are merged in block order, so the result does not depend on
    worker count or scheduling.  More than one worker runs the blocks on
    the process's pool of that many threads, kept from call to call; one
    worker runs them inline.
    """
    if samples < 1000:
        raise InvalidInputError(f"discrepancy estimation needs >= 1000 samples, got {samples}")
    if g.dimension != ds.k:
        raise InvalidInputError(f"test function dimension {g.dimension} != k = {ds.k}")
    draws = sources.projections(ds.vectors, model)
    starts = list(range(0, samples, _BLOCK))

    def run_block(start: int) -> _Moments:
        count = min(_BLOCK, samples - start)
        vals = g.evaluate(draws.draw(seed, start, count))
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
        sampler=draws.sampler,
        groups=draws.groups,
    )


# --------------------------------------------------------------------------
# End-to-end verification

@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run; ``bound_report`` names its theorem, n and k,
    and ``estimate`` its sample count, discrepancy and margin."""

    estimate: DiscrepancyEstimate
    bound_report: BoundReport
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


def gaussian_spec_for(theorem: str, ds: DirectionSet) -> GaussianSpec:
    """The Gram matrix as covariance for the theorems that take lam from
    it, the identity otherwise."""
    if THEOREMS[theorem].gram:
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
