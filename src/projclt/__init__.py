"""Explicit Gaussian-approximation error bounds for rank-k projections of
n-dimensional random vectors, with Monte Carlo verification of every bound
against simulated data."""

from .bounds import (
    DEFAULT_EXCHANGEABLE_CONSTANTS,
    BoundReport,
    EijStats,
    ExchangeableConstants,
    bound_abstract,
)
from .directions import (
    DirectionSet,
    NormSummary,
    hypercube_directions,
    norm_summary,
    random_orthonormal,
)
from .empirics import (
    RESAMPLING,
    TRANSPOSITION,
    DiscrepancyEstimate,
    VerificationReport,
    compute_bound,
    eij_second_moments,
    estimate_discrepancy,
    linearity_residual,
    pair_for,
    stein_lambda,
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
    iid_moments,
    independent_moments,
    load_population,
    moment_summary,
    rademacher,
    sample_block,
    sample_tiles,
    standardize_population,
    two_point,
    uniform,
    user_model,
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
