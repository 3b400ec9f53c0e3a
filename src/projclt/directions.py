"""Projection-direction sets and their norm summaries.

A direction set holds k unit vectors in R^n onto which an n-dimensional
random vector is projected.  It measures its own structure once, from
the Gram product: whether the rows are orthonormal, whether each sums to
zero, and the Gram matrix with its largest eigenvalue, which inflates the
bounds for non-orthonormal sets.  ``NormSummary`` holds the l4/l3 norm
sums that drive the bound magnitudes.

Constructors cover the two families used throughout: sign-vector rows of
a Sylvester-type orthogonal design (all entries +-n^{-1/2}) and uniformly
random orthonormal frames, each optionally built inside the zero-sum
hyperplane so that every row sums to zero.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, LinearDependenceError, UnsupportedDimensionError

# Row-level validation (norms, orthogonality, centering).
VALIDATION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DirectionSet:
    """k linearly independent unit rows theta_1..theta_k in R^n, validated
    and measured on construction.

    ``gram`` is the symmetrised Gram matrix, c_ij = <theta_i, theta_j>.
    Within :data:`VALIDATION_TOL`, ``orthonormal`` says every entry of
    ``gram`` is that of the identity and ``centered`` that every row sums
    to zero.  The Gram eigenvalues are computed on first use, and at
    construction only for rows that are not orthonormal, whose smallest
    eigenvalue must be positive.
    """

    vectors: np.ndarray
    gram: np.ndarray = field(init=False, repr=False)
    orthonormal: bool = field(init=False)
    centered: bool = field(init=False)

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=np.float64)
        if vecs.ndim != 2 or vecs.shape[0] < 1 or vecs.shape[1] < 1:
            raise InvalidInputError("vectors must be a non-empty (k, n) array")
        k, n = vecs.shape
        if k > n:
            raise InvalidInputError(f"need k <= n, got k={k}, n={n}")
        vecs = np.ascontiguousarray(vecs)
        vecs.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)

        g = vecs @ vecs.T
        norm_dev = np.max(np.abs(np.sqrt(np.diagonal(g)) - 1.0))
        if not norm_dev <= VALIDATION_TOL:  # NaN entries fail too
            raise InvalidInputError(f"rows must be unit vectors (worst deviation {norm_dev:.3e})")
        g = (g + g.T) / 2.0
        g.flags.writeable = False
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "orthonormal",
                           bool(np.max(np.abs(g - np.eye(k))) <= VALIDATION_TOL))
        object.__setattr__(self, "centered",
                           bool(np.max(np.abs(vecs.sum(axis=1))) <= VALIDATION_TOL))
        if not self.orthonormal and self._gram_eigenvalues[0] <= VALIDATION_TOL:
            raise LinearDependenceError("rows are numerically dependent (smallest Gram "
                                        f"eigenvalue {self._gram_eigenvalues[0]:.3e})")

    @functools.cached_property
    def _gram_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.gram)

    @property
    def lambda_max(self) -> float:
        """Largest eigenvalue of ``gram``: 1 up to rounding for orthonormal
        rows, and in [1, k] for any unit rows."""
        return float(self._gram_eigenvalues[-1])

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    def to_csv(self) -> str:
        rows = (",".join(repr(float(x)) for x in row) for row in self.vectors)
        return "\n".join([f"# n={self.n} k={self.k}", *rows]) + "\n"

    @classmethod
    def from_csv(cls, text: str, source: str = "direction text") -> "DirectionSet":
        """Parse the ``to_csv`` format; errors name ``source`` and the line.
        The header may end in a ``kind=<word>``, which older files carry and
        which is not read: the rows are measured instead."""
        lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        header = lines[0][1] if lines else ""
        if not header.startswith("#"):
            raise InvalidInputError(f"{source} must start with a '# n=.. k=..' header")
        m = re.fullmatch(r"#\s*n=(\d+)\s+k=(\d+)(?:\s+kind=\S+)?", header)
        if m is None:
            raise InvalidInputError(f"{source}: malformed direction header: {header!r}")
        n, k = int(m.group(1)), int(m.group(2))
        rows = []
        for lineno, line in lines[1:]:
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise InvalidInputError(
                    f"{source}, line {lineno}: entries must be decimal numbers"
                ) from None
            if len(row) != n:
                raise InvalidInputError(
                    f"{source}, line {lineno}: {len(row)} entries, the header says n={n}"
                )
            rows.append(row)
        if len(rows) != k:
            raise InvalidInputError(f"{source}: {len(rows)} direction rows, the header says k={k}")
        return cls(np.array(rows, dtype=np.float64))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    @classmethod
    def load(cls, path) -> "DirectionSet":
        with open(path) as fh:
            return cls.from_csv(fh.read(), source=f"direction file {path!r}")


@dataclass(frozen=True)
class NormSummary:
    """Norm sums of a direction set.

    ``sum_l4_sq``     = sum_i ||theta_i||_4^2
    ``sum_l3_cubed``  = sum_i ||theta_i||_3^3
    ``sum_l4_all_sq`` = (sum_i ||theta_i||_4)^2
    """

    n: int
    k: int
    sum_l4_sq: float
    sum_l3_cubed: float
    sum_l4_all_sq: float


def norm_summary(ds: DirectionSet) -> NormSummary:
    """Compute the three norm sums entering the error bounds.  The rows are
    unit vectors, as :class:`DirectionSet` checked."""
    v = ds.vectors
    v2 = v * v
    row_l4_sq = np.sqrt(np.einsum("ij,ij->i", v2, v2))
    row_l3_3 = np.einsum("ij,ij->i", np.abs(v), v2)
    return NormSummary(
        n=ds.n,
        k=ds.k,
        sum_l4_sq=float(row_l4_sq.sum()),
        sum_l3_cubed=float(row_l3_3.sum()),
        sum_l4_all_sq=float(np.sqrt(row_l4_sq).sum() ** 2),
    )


def hypercube_directions(n: int, k: int, centered: bool = False) -> DirectionSet:
    """k orthonormal rows with every entry +-n^(-1/2), via Sylvester doubling.

    Requires n to be a power of two.  Row r has signs (-1)^<bits(r), bits(c)>.
    With ``centered`` the constant row is skipped (rows 1..k), making every
    row sum to zero; this costs one row of capacity (k <= n-1).
    """
    if n < 1 or (n & (n - 1)) != 0:
        raise UnsupportedDimensionError(
            f"sign-design directions need n to be a power of two, got {n}"
        )
    limit = n - 1 if centered else n
    if not 1 <= k <= limit:
        raise InvalidInputError(f"need 1 <= k <= {limit} for n={n} (centered={centered})")
    start = 1 if centered else 0
    cols = np.arange(n, dtype=np.uint64)
    scale = 1.0 / math.sqrt(n)
    rows = np.empty((k, n))
    for i in range(k):
        parity = (np.bitwise_count(cols & np.uint64(start + i)) & 1).astype(np.int64)
        rows[i] = scale * (1.0 - 2.0 * parity)
    return DirectionSet(rows)


def _haar_rows(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """First k rows of a Haar-distributed n x n orthogonal matrix."""
    g = rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    return (q * signs).T


def _embed_zero_sum(w: np.ndarray) -> np.ndarray:
    """Map rows of R^(n-1) isometrically onto the zero-sum hyperplane of R^n.

    Uses the Householder reflection exchanging e_1 with the normalized
    all-ones vector; its columns 2..n are an orthonormal basis of
    {x : sum x_r = 0}.
    """
    k, m = w.shape
    n = m + 1
    v = -np.full(n, 1.0 / math.sqrt(n))
    v[0] += 1.0
    vtv = float(v @ v)
    x = np.concatenate([np.zeros((k, 1)), w], axis=1)
    beta = 2.0 * (x @ v) / vtv
    return x - np.outer(beta, v)


def random_orthonormal(n: int, k: int, seed: int, centered: bool = False) -> DirectionSet:
    """Uniformly random orthonormal frame of k rows, deterministic given seed.

    With ``centered`` the frame is drawn inside the zero-sum hyperplane by
    rotating a fixed orthonormal basis of that hyperplane, so every row
    sums to zero.
    """
    limit = n - 1 if centered else n
    if not 1 <= k <= limit:
        raise InvalidInputError(f"need 1 <= k <= {limit} for n={n} (centered={centered})")
    rng = np.random.default_rng(seed)
    if centered:
        rows = _embed_zero_sum(_haar_rows(rng, k, n - 1))
        return DirectionSet(rows)
    return DirectionSet(_haar_rows(rng, k, n))
