"""Explicit Gaussian-approximation error bounds for rank-k projections of
n-dimensional random vectors, with Monte Carlo verification of every bound
against simulated data."""

from .bounds import (
    DEFAULT_EXCHANGEABLE_CONSTANTS,
    RESAMPLING,
    TRANSPOSITION,
    BoundReport,
    ExchangeableConstants,
    bound_abstract,
    compute_bound,
    eij_second_moments,
    pair_for,
    stein_lambda,
)
from .directions import (
    DirectionSet,
    hypercube_directions,
    random_orthonormal,
)
from .empirics import (
    DiscrepancyEstimate,
    VerificationReport,
    estimate_discrepancy,
    verify_bound,
)
from .errors import (
    ConfigError,
    InvalidInputError,
    InvalidMomentsError,
    LinearDependenceError,
    MissingMomentsError,
    ProjcltError,
    UnsupportedDimensionError,
    UnsupportedMethodError,
)
from .sources import (
    ExchangeableModel,
    IIDModel,
    IndependentModel,
    MomentSummary,
    centered_exponential,
    exchangeable_moments,
    iid,
    load_population,
    moment_summary,
    rademacher,
    standardize_population,
    two_point,
    uniform,
)
from .testfuncs import (
    Expectation,
    GaussianSpec,
    TestFunction,
    bump_testfn,
    cosine_testfn,
    gaussian_expectation,
)

__version__ = "0.1.0"
