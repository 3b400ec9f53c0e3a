"""Projection-direction sets and their norm and Gram summaries.

A direction set holds k unit vectors in R^n onto which an n-dimensional
random vector is projected.  Everything downstream (error bounds,
simulated pairs, discrepancy estimates) consumes either the raw rows or
one of two derived summaries:

* ``NormSummary`` -- the l4/l3 norm sums that drive the bound magnitudes,
* ``GramData``    -- pairwise inner products and the largest eigenvalue,
  which inflates the bounds for non-orthonormal sets.

Constructors cover the two families used throughout: sign-vector rows of
a Sylvester-type orthogonal design (all entries +-n^{-1/2}) and uniformly
random orthonormal frames, each optionally built inside the zero-sum
hyperplane so that every row sums to zero.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, LinearDependenceError, UnsupportedDimensionError

# Row-level validation (norms, orthogonality, centering).
VALIDATION_TOL = 1e-10

ORTHONORMAL = "orthonormal"
LINEARLY_INDEPENDENT = "linearly-independent"
CENTERED_ORTHONORMAL = "centered-orthonormal"
KINDS = (ORTHONORMAL, LINEARLY_INDEPENDENT, CENTERED_ORTHONORMAL)

# Kinds whose rows form an orthonormal family.
ORTHONORMAL_KINDS = (ORTHONORMAL, CENTERED_ORTHONORMAL)


@dataclass(frozen=True, eq=False)
class DirectionSet:
    """k unit rows theta_1..theta_k in R^n, validated on construction.

    ``kind`` declares the structure the rows are guaranteed to have:
    ``orthonormal`` (pairwise inner products vanish),
    ``centered-orthonormal`` (additionally each row sums to zero), or
    ``linearly-independent`` (unit rows with a nonsingular Gram matrix).
    """

    vectors: np.ndarray
    kind: str

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=np.float64)
        if vecs.ndim != 2 or vecs.shape[0] < 1 or vecs.shape[1] < 1:
            raise InvalidInputError("vectors must be a non-empty (k, n) array")
        k, n = vecs.shape
        if k > n:
            raise InvalidInputError(f"need k <= n, got k={k}, n={n}")
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown direction kind {self.kind!r}")
        vecs = np.ascontiguousarray(vecs)
        vecs.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)

        norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
        if np.max(np.abs(norms - 1.0)) > VALIDATION_TOL:
            raise InvalidInputError(
                f"rows must be unit vectors (worst deviation {np.max(np.abs(norms - 1.0)):.3e})"
            )
        g = vecs @ vecs.T
        if self.kind in ORTHONORMAL_KINDS:
            off = g - np.eye(k)
            if np.max(np.abs(off)) > VALIDATION_TOL:
                raise InvalidInputError(
                    f"rows are not orthonormal (worst inner product {np.max(np.abs(off)):.3e})"
                )
        else:
            eigs = np.linalg.eigvalsh((g + g.T) / 2.0)
            if eigs[0] <= VALIDATION_TOL:
                raise LinearDependenceError(
                    f"rows are numerically dependent (smallest Gram eigenvalue {eigs[0]:.3e})"
                )
        if self.kind == CENTERED_ORTHONORMAL:
            sums = vecs.sum(axis=1)
            if np.max(np.abs(sums)) > VALIDATION_TOL:
                raise InvalidInputError(
                    f"rows must sum to zero (worst row sum {np.max(np.abs(sums)):.3e})"
                )

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    def max_row_sum(self) -> float:
        """Largest |sum_r theta_i^r| over rows; 0 means exactly centered."""
        return float(np.max(np.abs(self.vectors.sum(axis=1))))

    def is_centered(self, tol: float = VALIDATION_TOL) -> bool:
        return self.max_row_sum() <= tol

    def to_csv(self) -> str:
        lines = [f"# n={self.n} k={self.k} kind={self.kind}"]
        for row in self.vectors:
            lines.append(",".join(repr(float(x)) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, source: str = "direction text") -> "DirectionSet":
        """Parse the ``to_csv`` format; errors name ``source`` and the line."""
        lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        header = lines[0][1] if lines else ""
        if not header.startswith("#"):
            raise InvalidInputError(f"{source} must start with a '# n=.. k=.. kind=..' header")
        m = re.match(r"#\s*n=(\d+)\s+k=(\d+)\s+kind=(\S+)", header)
        if m is None:
            raise InvalidInputError(f"{source}: malformed direction header: {header!r}")
        n, k, kind = int(m.group(1)), int(m.group(2)), m.group(3)
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
        return cls(vectors=np.array(rows, dtype=np.float64), kind=kind)

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


@dataclass(frozen=True, eq=False)
class GramData:
    """Gram matrix C with c_ij = <theta_i, theta_j> and its largest eigenvalue."""

    C: np.ndarray
    lambda_max: float


def gram(ds: DirectionSet) -> GramData:
    """Gram matrix and largest eigenvalue of a direction set, whose rows
    :class:`DirectionSet` checked to be linearly independent."""
    v = ds.vectors
    c = v @ v.T
    c = (c + c.T) / 2.0
    lam = float(np.linalg.eigvalsh(c)[-1])
    if not (1.0 - 1e-8 <= lam <= ds.k + 1e-8):
        raise InvalidInputError(f"largest Gram eigenvalue {lam} outside [1, k]")
    c.flags.writeable = False
    return GramData(C=c, lambda_max=lam)


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
    kind = CENTERED_ORTHONORMAL if centered else ORTHONORMAL
    return DirectionSet(vectors=rows, kind=kind)


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
        return DirectionSet(vectors=rows, kind=CENTERED_ORTHONORMAL)
    return DirectionSet(vectors=_haar_rows(rng, k, n), kind=ORTHONORMAL)
