"""Random-vector models, the moment constants that enter the bounds, and
the sampling of their projections.

A model of n coordinates, each standardized to mean 0 and variance 1, is
one of two types, and :func:`family` measures whether it is i.i.d.:

* ``IndependentModel``  -- independent coordinates, each drawn from one of
  its distinct scalar laws (``IIDModel``), i.i.d. when it has one (:func:`iid`),
* ``ExchangeableModel`` -- a uniformly random permutation of a fixed
  standardized population, which makes every mixed moment of the
  dependence terms exactly computable.

Catalog laws ship closed-form third/fourth moments, and no bound reads a
moment of drawn values (the tests compare the draws with the constants).
User-supplied laws must declare them or give a finite support
(:meth:`IIDModel.constant`), which must be standardized.

:func:`projections` is the one way to draw the projections S = theta X
of a block of samples: it chooses, from the direction rows and the model,
whether a block draws coordinates (:func:`_law_draws`), sums of classes
of coordinates (:func:`sample_class_sums`) or per-bin sums of a uniform
partition (:func:`sample_rank_bins`), and returns the plan that draws it.
Each sampler reads a generator it is handed; only the plan's
:meth:`ProjectionPlan.draw` opens a block's stream, and it states the
splittable seeding contract.  Tiles are TILE_ROWS high, a height that is
part of this contract.

Every coordinate draw is one float32 variate Y of its law, with
X = a + b Y (:class:`IIDModel`), and reads only the stream bits its law
needs.  The coordinate path projects Y and applies a and b once per
projected row.  Catalog samplers take ``(rng, size)`` and read the
stream's 64-bit words directly, least significant bits first.  A
Rademacher draw is X itself and takes one bit, eight at a time through a
byte lookup table.  A two-point draw is the 0/1 indicator of the upper
value; it takes one byte, and a 16-bit quarter-word more in the 1 case of
256 where the byte ties with its threshold's top byte
(:func:`_indicators`).  A uniform draw is the top 23 bits of a 32-bit
half-word made into a float32 in [1, 2), in the words' own buffer; the
centered exponential's is log u for one 32-bit half-word.  A model of
several laws draws law by law, LAW_ROWS rows per sampler call, and
projects each law's block with its own rows.  An exchangeable
model sorts 64-bit keys: a 32-bit stream half-word high, the float32 bits
of a population value low.  A row in which two half-words tie is redrawn,
so every permutation is exactly uniform and the sorted low halves are the
row of draws.  With 32 random bits per coordinate a row ties with
probability about 1 - exp(-n(n-1)/2^33), so sampling refuses populations
larger than MAX_PERMUTATION_N.

A uniform partition of n items into G bins is selected by the ranks of
keys read from the stream words, least significant first
(:func:`sample_rank_bins`): 16-bit quarter-words, ceil(n/4) words per
row, while (G - 1) n <= 2^15, and above that the permutation's 32-bit
half-words, ceil(n/2) words per row.  Catalog laws other than the
uniform also declare an exact sampler of the sum of m i.i.d. copies,
``sum_sampler(rng, m, size)``, in float64: a binomial draw for the
two-valued laws, a gamma draw for the exponential.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InvalidInputError, InvalidMomentsError, MissingMomentsError

SEED_LIMIT = 1 << 64
# Rows per sampling tile: 1 MB of float32 at n = 4096, so a tile stays in L2
# while it is projected.  Part of the determinism contract (exchangeable
# tiles redraw tied rows tile by tile, and a two-point tile reads its tied
# bytes' extra bits after its own bytes), and a multiple of 64, so that every
# tile ends on a whole stream word (a Rademacher draw reads one bit).
TILE_ROWS = 64
# Rows per sampler call for independent models, which draw law by law.
# One call per law and 64-row tile made a two-worker verify of a three-law
# pattern at n = 1024 about 40 % slower than one draw of the whole block;
# 256-row calls are not slower.  The projection path projects each law's
# (n_j, LAW_ROWS) block by one BLAS product with that law's rows.  Part of
# the determinism contract.
LAW_ROWS = 4 * TILE_ROWS
# Keys per difference array of the tie check: 256 KB of uint64, so that the
# check adds at most that much (or one row) to a tile's keys.
_GAP_KEYS = 1 << 15
# Largest (G - 1) n at which rank bins of n items in G bins draw 16-bit keys
# (sample_rank_bins).  A row of b-bit keys ties across one of its G - 1 cuts
# with probability about 1 - exp(-(G - 1) n / 2^(b+1)), so up to 22 % here,
# and a tied row is drawn again.  The time of sample_rank_bins with 16-bit
# keys over that with 32-bit ones, on one thread (2-core x86): 0.67-0.76x at
# n = 1024 and 4096 with 2 and 4 bins, 0.75-0.93x up to the limit (4 bins of
# 8192 and 10923 items, 3 of 16384, 2 of 32768), and 0.99x and 1.09x above
# it (4 bins of 16384, 3 of 32768), where 31-39 % of the rows are redrawn.
# Two bins, one np.partition per row, still took 0.85x at n = 65536.
_KEY16_CUTS = 1 << 15
# Largest population an exchangeable model samples: at n = 2^16 a row of
# 32-bit keys ties with probability 0.39, and with 0.86 at 2^17.
MAX_PERMUTATION_N = 1 << 16
# Index of the half of a uint64 that holds its high 32 bits, in a uint32 view.
_HIGH_HALF = 1 if sys.byteorder == "little" else 0
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# The generator behind every sampling stream, and the third word of every
# stream's seed (an odd constant).
STREAM = "sfc64"
_STREAM_WORD = _GOLDEN64


def _fmix64(k: int) -> int:
    """The MurmurHash3 64-bit finalizer: xor-shifts and multiplications by
    odd constants, each invertible modulo 2^64, so a bijection on 64 bits."""
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _MASK64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _MASK64
    return k ^ (k >> 33)


class _StreamSeed(ISeedSequence):
    """The three 64-bit words that numpy's SFC64 seeding reads, handed over
    as they are."""

    def __init__(self, words: tuple[int, int, int]):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 3 or np.dtype(dtype) != np.uint64:
            raise InvalidInputError(f"a stream seed is 3 words of uint64, not {n_words} of "
                                    f"{np.dtype(dtype)}")
        return np.array(self.words, dtype=np.uint64)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """The generator of one sampling stream: SFC64 (Doty-Humphrey's small
    fast counting generator) seeded by numpy with the three words
    (fmix64(seed), fmix64(index), an odd constant).

    numpy's seeding starts the 256-bit state (s0, s1, s2, s3) at those
    three words and s3 = 1, and discards the first 12 outputs.  No two
    streams ever pass through a common state within 2^64 steps:

    * One SFC64 step outputs t = s0 + s1 + s3 and moves to
      (s1 ^ (s1 >> 11), 9 s2, rotl(s2, 24) + t, s3 + 1), all modulo 2^64.
      It is a bijection on the state: the new words give back s3, then s1
      (a right xor-shift is invertible), s2 (9 is odd), and last
      s0 = t - s1 - s3 with t = (new s2) - rotl(s2, 24).
    * Every step adds 1 to the counter s3, and every stream starts from the
      same s3.  So if two streams are in one state after u and v steps,
      with u, v < 2^64, then u = v, and undoing those u steps shows that
      they started from one state.
    * fmix64 is a bijection on 64 bits, so (seed, index) -> (s0, s1) is
      injective, and distinct (seed, index) pairs start from distinct
      states.

    A block reads far fewer than 2^64 words, so the stretches of stream that
    two distinct blocks read share no state.
    """
    if not (0 <= seed < SEED_LIMIT and 0 <= index < SEED_LIMIT):
        raise InvalidInputError(f"stream seed and index must lie in [0, 2^64), got {seed}, {index}")
    return np.random.Generator(np.random.SFC64(
        _StreamSeed((_fmix64(seed), _fmix64(index), _STREAM_WORD))))


def derived_seed(seed: int, tag: int) -> int:
    """Decorrelated child seed for an auxiliary purpose within one run."""
    return (seed * _GOLDEN64 + 0x632BE59BD9B4E019 * (tag + 1)) & _MASK64


@dataclass(frozen=True)
class MomentSummary:
    """Distributional constants consumed by the error bounds: the worst
    coordinate's E|X|^3 and EX^4 (of every coordinate, for an exchangeable
    model) and, exactly when the model is exchangeable, the mixed moments
    E X1 X2 X3 X4 and E (X1^2-1)(X2^2-1)."""

    abs3: float
    fourth: float
    mixed_4: Optional[float] = None
    mixed_var: Optional[float] = None


# Rounding allowed in a support's standardization, and in a declared E|X|^3
# or EX^4 below 1.
SUPPORT_TOL = 1e-12
MOMENT_TOL = 1e-9

Sampler = Callable[[np.random.Generator, object], np.ndarray]
SumSampler = Callable[[np.random.Generator, int, int], np.ndarray]


@dataclass(frozen=True, eq=False)
class IIDModel:
    """A standardized scalar law: sampler plus moment constants.

    ``sampler(rng, size)`` draws ``size`` (an int or a shape tuple) float32
    values of the law's variate Y from the generator ``rng``, and a law's
    value is X = a + b Y.  The coordinate path projects Y and applies a and
    b once per projected row.  With the default (a, b) = (0, 1), as for
    Rademacher and user laws, the sampler draws X itself.  ``support``
    carries (values, probabilities) for finitely supported laws; exact
    conditional expectations enumerate it directly.  ``abs3``, ``fourth``
    and ``diff_abs3`` are E|X|^3, EX^4 and E|X - X'|^3 for an independent
    copy X', read by :meth:`constant` as declared where given, else
    enumerated over the support, so a declaration that the support
    contradicts by more than 1e-12 relative is refused.  A support must be
    standardized: positive probabilities summing to 1, sum p v = 0 and
    sum p v^2 = 1, each within :data:`SUPPORT_TOL`.  A declared ``abs3`` or
    ``fourth`` may fall below 1, which EX^2 = 1 rules out, by at most
    :data:`MOMENT_TOL`.
    ``sum_sampler(rng, m, size)``, where given, draws ``size`` float64
    values of the sum of m independent copies of the law, exactly.
    """

    name: str
    sampler: Sampler
    abs3: Optional[float] = None
    fourth: Optional[float] = None
    support: Optional[tuple[np.ndarray, np.ndarray]] = None
    diff_abs3: Optional[float] = None
    sum_sampler: Optional[SumSampler] = None
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.support is not None:
            vals, probs = self.support
            total, mean, second = float(np.sum(probs)), float(probs @ vals), float(probs @ vals**2)
            if not (np.all(probs > 0) and abs(total - 1.0) <= SUPPORT_TOL
                    and abs(mean) <= SUPPORT_TOL and abs(second - 1.0) <= SUPPORT_TOL):
                raise InvalidMomentsError(
                    f"model {self.name!r} needs a standardized support: positive probabilities "
                    f"summing to 1, mean 0 and second moment 1 (within {SUPPORT_TOL:g}); got "
                    f"least probability {float(np.min(probs))!r}, sum {total!r}, mean {mean!r}, "
                    f"second moment {second!r}")
        for name in ("abs3", "fourth"):
            declared = getattr(self, name)
            if declared is not None and not declared >= 1.0 - MOMENT_TOL:
                raise InvalidMomentsError(f"model {self.name!r} declares {name} = {declared!r}; "
                                          "below 1, it contradicts EX^2 = 1")
        for name, enumerate_ in _ENUMERATED.items():
            declared = getattr(self, name)
            if self.support is not None and declared is not None:
                value = enumerate_(*self.support)
                if not abs(declared - value) <= 1e-12 * abs(value):
                    raise InvalidMomentsError(f"model {self.name!r} declares {name} = "
                                              f"{declared!r}, but its support gives {value!r}")

    def constant(self, name: str) -> float:
        """The constant ``name`` (a key of _ENUMERATED) of the law: declared
        where given, else enumerated over the support.  Bounds refuse to
        estimate constants that enter a proved inequality, so a law with
        neither is refused."""
        if name not in _ENUMERATED:
            raise InvalidInputError(f"a law's constants are {', '.join(_ENUMERATED)}, "
                                    f"got {name!r}")
        declared = getattr(self, name)
        if declared is not None:
            return declared
        if self.support is None:
            raise MissingMomentsError(f"model {self.name!r} declares no {name} and has no "
                                      "finite support to enumerate it over")
        return _ENUMERATED[name](*self.support)


# The constants of a scalar law, summed over a finite support.
_ENUMERATED = {
    "abs3": lambda vals, probs: float(probs @ np.abs(vals) ** 3),
    "fourth": lambda vals, probs: float(probs @ vals**4),
    "diff_abs3": lambda vals, probs: float(probs @ np.abs(vals[:, None] - vals) ** 3 @ probs),
}


@dataclass(frozen=True, eq=False)
class IndependentModel:
    """Independent coordinates, one scalar law each: ``laws`` holds the
    distinct law objects and ``law_index`` the position in ``laws`` of each
    coordinate's law, every position at least once."""

    laws: tuple[IIDModel, ...]
    law_index: np.ndarray

    def __post_init__(self):
        index = np.asarray(self.law_index)
        if index.ndim != 1 or index.size == 0 or index.dtype.kind not in "iu":
            raise InvalidInputError("law_index must be a non-empty 1-D array of integers")
        laws = tuple(self.laws)
        # IIDModel compares and hashes by identity (eq=False).
        if len(set(laws)) != len(laws):
            raise InvalidInputError("an independent model's laws must be distinct law objects")
        # Each position in 0..len(laws)-1 counted at least once, and no other;
        # bincount refuses negative values, so they are tested first.
        if index.min() < 0 or not np.array_equal(np.bincount(index) > 0, [True] * len(laws)):
            raise InvalidInputError(f"law_index must hold every position in 0..{len(laws) - 1} "
                                    "of laws, and no other value")
        index = index.astype(np.intp)
        index.flags.writeable = False
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "law_index", index)

    @property
    def n(self) -> int:
        return self.law_index.size


def iid(law: IIDModel, n: int) -> IndependentModel:
    """The i.i.d. model of n coordinates drawn from ``law``."""
    if n < 1:
        raise InvalidInputError(f"an i.i.d. model needs n >= 1 coordinates, got {n}")
    return IndependentModel((law,), np.zeros(n, dtype=np.intp))


@dataclass(frozen=True, eq=False)
class ExchangeableModel:
    """Uniformly random permutation of a fixed standardized population."""

    population: np.ndarray

    def __post_init__(self):
        pop = np.ascontiguousarray(np.asarray(self.population, dtype=np.float64))
        if pop.ndim != 1 or pop.size < 2:
            raise InvalidInputError("population must hold at least two values")
        n = pop.size
        # Both sums run over n terms of total size up to n, so each is off by
        # up to about n * eps relative (Higham's gamma_n), once where
        # standardize_population scaled the values and once here.
        tol = 2.0 * n * n * np.finfo(np.float64).eps
        if not (abs(pop.sum()) <= tol and abs(float(pop @ pop) - n) <= tol):
            raise InvalidInputError(
                "population must be standardized: sum a_r = 0 and sum a_r^2 = n "
                "(use standardize_population)"
            )
        pop.flags.writeable = False
        object.__setattr__(self, "population", pop)

    @property
    def n(self) -> int:
        return self.population.size


Model = Union[IndependentModel, ExchangeableModel]

# Model families, the unit in which a theorem states which models it admits.
IID, INDEPENDENT, EXCHANGEABLE = "iid", "independent", "exchangeable"


def family(model: Model) -> str:
    """EXCHANGEABLE, IID for an independent model of one law, or INDEPENDENT."""
    if isinstance(model, ExchangeableModel):
        return EXCHANGEABLE
    if isinstance(model, IndependentModel):
        return IID if len(model.laws) == 1 else INDEPENDENT
    raise InvalidInputError(f"a model is an IndependentModel or an ExchangeableModel, got "
                            f"{type(model).__name__}; the i.i.d. model of a law is iid(law, n)")


# --------------------------------------------------------------------------
# Catalog laws

def _size(size) -> int:
    """The number of draws in a sampler ``size``: an int or a shape tuple."""
    return math.prod(size) if isinstance(size, tuple) else int(size)


def _words32(rng, size) -> np.ndarray:
    """One 32-bit word per draw: the 64-bit stream outputs split low half
    first (a little-endian view), the same words that
    ``rng.random(size, dtype=np.float32)`` consumes; an odd count leaves
    the last high half unused."""
    count = _size(size)
    return rng.bit_generator.random_raw((count + 1) // 2).view(np.uint32)[:count]


# Byte -> its 8 bits as -1.0/+1.0, least significant first, so that a run of
# little-endian stream words gives draw j from bit j mod 64 of word j // 64.
_BYTE_SIGNS = (2.0 * np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little") - 1.0).astype(np.float32)


def _sample_rademacher(rng, size):
    total = _size(size)
    words = rng.bit_generator.random_raw((total + 63) // 64)
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.take(_BYTE_SIGNS, raw, axis=0).reshape(-1)[:total].reshape(size)


def _two_valued_sums(lo: float, hi: float, p: float) -> SumSampler:
    """Sums of m copies of a law on {lo, hi} with P(X = hi) = p:
    m lo + (hi - lo) Binomial(m, p), the binomial drawn by numpy (BTPE,
    Kachitvichyanukul & Schmeiser 1988, for m min(p, 1-p) > 30, inversion
    below)."""

    def sample(rng, m, size):
        return m * lo + (hi - lo) * rng.binomial(m, p, size)

    return sample


def rademacher() -> IIDModel:
    """Uniform on {-1, +1}: E|X|^3 = EX^4 = 1.  A sum of m copies is
    2 Binomial(m, 1/2) - m."""
    support = (np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    return IIDModel("rademacher", _sample_rademacher, abs3=1.0, fourth=1.0, support=support,
                    sum_sampler=_two_valued_sums(-1.0, 1.0, 0.5))


_SQRT3 = math.sqrt(3.0)


def _uniform_variate(rng, size):
    # The top 23 bits j of a half-word as the mantissa of the float32
    # 1 + j 2^-23 in [1, 2).
    words = _words32(rng, size)
    words >>= 9
    words |= 0x3F800000
    return words.view(np.float32).reshape(size)


def uniform() -> IIDModel:
    """Uniform on [-sqrt(3), sqrt(3)]: E|X|^3 = 3 sqrt(3)/4, EX^4 = 9/5, and
    E|X - X'|^3 = (2 sqrt(3))^3/10, since X - X' is triangular.  The
    variate is a float32 1 + j 2^-23 in [1, 2), and X = (Y - 1.5) w with
    w = float32(2 sqrt(3)): (j - 2^22) 2^-23 w, a lattice of 2^23 points on
    [-w/2, w/2), inside [-sqrt(3), sqrt(3))."""
    width = float(np.float32(2.0 * _SQRT3))
    return IIDModel("uniform", _uniform_variate, abs3=3.0 * _SQRT3 / 4.0, fourth=9.0 / 5.0,
                    diff_abs3=12.0 * _SQRT3 / 5.0, a=-1.5 * width, b=width)


def _indicators(rng, size, high: int, low: int) -> np.ndarray:
    """float32 indicators of k < high 2^16 + low for uniform 24-bit integers
    k, read most significant bits first (Knuth & Yao 1976).  Each draw reads
    one stream byte, the top 8 bits of its k, and compares it with ``high``
    (at most 256).  Only a byte equal to ``high`` reads more: the next 16
    bits of k, a 16-bit quarter-word taken in draw order, low quarter of
    each word first, from the words after the call's bytes.  So a call of
    c draws reads ceil(c/8) words, then ceil(ties/4)."""
    count = _size(size)
    words = rng.bit_generator.random_raw((count + 7) // 8)
    top = words.astype("<u8", copy=False).view(np.uint8)[:count]
    out = np.less(top, high).astype(np.float32)
    tied = np.flatnonzero(top == high)
    if tied.size:
        words = rng.bit_generator.random_raw((tied.size + 3) // 4)
        out[tied] = words.astype("<u8", copy=False).view("<u2")[:tied.size] < low
    return out.reshape(size)


def two_point(p: float = 0.2) -> IIDModel:
    """Two-point law with P(X = sqrt(q/p)) = p, P(X = -sqrt(p/q)) = q = 1-p.
    A sum of m copies is m lo + (hi - lo) Binomial(m, p), with the declared p.

    A coordinate draw is hi with probability t 2^-24 exactly, t =
    ceil(float32(p) 2^24), the probability that a float32 uniform on the
    2^24-point grid falls below float32(p).  Its variate is the 0/1
    indicator of hi (:func:`_indicators`), with (a, b) = (lo, hi - lo)."""
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"two_point needs 0 < p < 1, got {p}")
    q = 1.0 - p
    hi = math.sqrt(q / p)
    lo = -math.sqrt(p / q)
    high, low = divmod(math.ceil(float(np.float32(p)) * 2.0**24), 1 << 16)
    support = (np.array([lo, hi]), np.array([q, p]))
    return IIDModel(
        f"two_point({p!r})",
        functools.partial(_indicators, high=high, low=low),
        abs3=p * hi**3 + q * (-lo) ** 3,
        fourth=p * hi**4 + q * lo**4,
        support=support,
        sum_sampler=_two_valued_sums(lo, hi, p),
        a=lo,
        b=hi - lo,
    )


def _exponential_variate(rng, size):
    # log u at u = (w + 1/2) 2^-32, and X = -1 - log u, the inverse CDF: the
    # largest X is 33 ln 2 - 1 ~ 21.9.
    u = np.multiply(_words32(rng, size), np.float32(2.0**-32), dtype=np.float32)
    u += np.float32(2.0**-33)
    np.log(u, out=u)
    return u.reshape(size)


def _sum_exponential(rng, m, size):
    # A sum of m Exp(1) is Gamma(m), drawn by numpy (Marsaglia & Tsang 2000).
    return rng.standard_gamma(m, size) - m


def centered_exponential() -> IIDModel:
    """Exp(1) minus its mean: E|X|^3 = 12/e - 2, EX^4 = 9, and
    E|X - X'|^3 = 3! = 6, since X - X' is standard Laplace.  A sum of m
    copies is Gamma(m) - m.  The variate is log u, and X = -1 - log u."""
    return IIDModel(
        "exponential", _exponential_variate, abs3=12.0 / math.e - 2.0, fourth=9.0, diff_abs3=6.0,
        sum_sampler=_sum_exponential, a=-1.0, b=-1.0,
    )


CATALOG: dict[str, Callable[[], IIDModel]] = {
    "rademacher": rademacher,
    "uniform": uniform,
    "two_point": two_point,
    "exponential": centered_exponential,
}


# --------------------------------------------------------------------------
# Moment constants

def exchangeable_moments(model: ExchangeableModel) -> MomentSummary:
    """Exact mixed moments of a random permutation of the population.

    Sampling without replacement turns each mixed moment into a symmetric
    function of the population; everything reduces to power sums
    p_m = sum_r a_r^m:

      E X1 X2 X3 X4      = (p1^4 - 6 p2 p1^2 + 3 p2^2 + 8 p3 p1 - 6 p4) / n(n-1)(n-2)(n-3)
      E X1^2 X2^2        = (p2^2 - p4) / n(n-1)
      E (X1^2-1)(X2^2-1) = E X1^2 X2^2 - 2 p2/n + 1
    """
    a = model.population
    n = model.n
    if n < 4:
        raise InvalidInputError(f"mixed fourth moments need a population of size >= 4, got {n}")
    p1 = float(a.sum())
    p2 = float(a @ a)
    a2 = a * a
    p3 = float(a2 @ a)
    p4 = float(a2 @ a2)
    ordered4 = p1**4 - 6.0 * p2 * p1**2 + 3.0 * p2**2 + 8.0 * p3 * p1 - 6.0 * p4
    mixed_4 = ordered4 / (n * (n - 1) * (n - 2) * (n - 3))
    mixed_var = (p2**2 - p4) / (n * (n - 1)) - 2.0 * p2 / n + 1.0
    return MomentSummary(
        abs3=float(np.mean(np.abs(a) ** 3)),
        fourth=p4 / n,
        mixed_4=mixed_4,
        mixed_var=mixed_var,
    )


def moment_summary(model: Model) -> MomentSummary:
    """The constants of a model: for independent coordinates the largest
    E|X|^3 and EX^4 over its laws (:meth:`IIDModel.constant`), for an
    exchangeable model :func:`exchangeable_moments`."""
    if family(model) == EXCHANGEABLE:
        return exchangeable_moments(model)
    return MomentSummary(abs3=max(law.constant("abs3") for law in model.laws),
                         fourth=max(law.constant("fourth") for law in model.laws))


# --------------------------------------------------------------------------
# Sampling

def _stream_keys(rng, rows: int, n: int, key=np.uint32) -> np.ndarray:
    """(rows, n) keys of the unsigned ``key`` type: the j-th 32-bit
    half-word (uint32) or 16-bit quarter-word (uint16) of each row's
    stream words, least significant first, a row reading ceil(n/2) or
    ceil(n/4) words."""
    per_word = 8 // np.dtype(key).itemsize
    return rng.bit_generator.random_raw((rows, -(-n // per_word))).view(key)[:, :n]


def _sorted_keys(rng, pop: np.ndarray, rows: int) -> np.ndarray:
    """(rows, n) uint64 sort keys, each row sorted.  Before the sort, key j
    of a row holds the row's j-th half-word (:func:`_stream_keys`) in its
    high half and the bits of the float32 value pop[j] in its low half."""
    keys = np.empty((rows, pop.size), dtype=np.uint64)
    halves = keys.view(np.uint32)
    halves[:, _HIGH_HALF::2] = _stream_keys(rng, rows, pop.size)
    halves[:, 1 - _HIGH_HALF::2] = pop.view(np.uint32)
    keys.sort(axis=1)
    return keys


def _tied_rows(keys: np.ndarray) -> np.ndarray:
    """Rows of sorted keys in which two neighbours share their high half.

    Neighbours that share their high half differ by less than 2^32.  So
    only the rows holding such a gap in the flat run of keys (one across a
    row boundary makes a false candidate) have their high halves
    compared, and a tile without one has no tie.  The gaps are taken
    _GAP_KEYS at a time, in whole rows.  At n = 1024 this takes about half
    the time of comparing every neighbouring pair (35 against 75 us per
    64-row tile, 2-core x86).
    """
    n = keys.shape[1]
    flat = keys.reshape(-1)
    step = max(1, _GAP_KEYS // n) * n
    close = []
    for lo in range(0, flat.size - 1, step):
        gaps = flat[lo + 1:lo + step + 1] - flat[lo:min(lo + step, flat.size - 1)]
        if gaps.min() < 1 << 32:
            close.append(lo // n + np.flatnonzero(gaps < 1 << 32) // n)
    if not close:
        return np.empty(0, dtype=np.intp)
    rows = np.unique(np.concatenate(close))
    high = keys[rows].view(np.uint32)[:, _HIGH_HALF::2]
    return rows[(high[:, 1:] == high[:, :-1]).any(axis=1)]


def _permuted_rows(rng, pop: np.ndarray, rows: int) -> np.ndarray:
    """(rows, n) float32 rows, each the float32 population ``pop`` in a
    uniformly random order.

    Sorting the keys orders the coordinates by their half-words (Knuth,
    TAOCP vol. 2, 3.4.2).  A row whose half-words tie is redrawn whole
    from the next words of the stream, tied rows in row order, until no
    row ties: every row is then exactly uniform, and its order is fixed by
    the high halves alone, so the sorted low halves are the drawn row.
    """
    keys = _sorted_keys(rng, pop, rows)
    tied = _tied_rows(keys)
    while tied.size:
        redrawn = _sorted_keys(rng, pop, tied.size)
        keys[tied] = redrawn
        tied = tied[_tied_rows(redrawn)]
    return np.ascontiguousarray(keys.view(np.float32)[:, 1 - _HIGH_HALF::2])


def _rank_thresholds(keys: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, len(cuts)) keys of 0-based rank cuts[0] < cuts[1] < ... in
    each row of ``keys``, and a (rows,) mask of the rows that tie across a
    cut: their keys of rank c - 1 and c are equal for some cut c.

    One cut takes one ``np.partition`` and the largest key below it; more
    cuts take one sort of the row (``np.partition`` with several kth took
    1.0-1.5 ms per 64 x 1024 tile, a sort 0.17 ms, 2-core x86).
    """
    if cuts.size == 1:
        (cut,) = cuts
        part = np.partition(keys, cut, axis=1)
        high = part[:, cut:cut + 1]
        low = part[:, :cut].max(axis=1, keepdims=True)
    else:
        part = np.sort(keys, axis=1)
        high = part[:, cuts]
        low = part[:, cuts - 1]
    return high, (low == high).any(axis=1)


def sample_rank_bins(weights: np.ndarray, sizes: tuple[int, ...], rng: np.random.Generator,
                     count: int) -> np.ndarray:
    """(count, G, w) float64 sums of item weights per bin of ``count``
    samples drawn from ``rng``, each sample a uniformly random partition of
    the n items, the rows of the (n, w) float32 ``weights``, into G bins of
    sizes[0], ..., sizes[G-1] items.

    Selection on i.i.d. keys (Knuth, TAOCP vol. 2, 3.4.2): every item takes
    a key from ``rng`` (:func:`_stream_keys`), TILE_ROWS rows per tile.
    While (G - 1) n <= _KEY16_CUTS = 2^15 a key is a 16-bit quarter-word,
    and a row reads ceil(n/4) words; above it a key is a 32-bit half-word,
    as in a permutation row of :func:`_permuted_rows`, and a row reads
    ceil(n/2) words.  Bin c holds the items whose keys rank
    from sizes[0] + ... + sizes[c-1] up to the next cut.  A row whose keys
    tie across a cut is redrawn whole from the next words of the stream,
    one row of words per tied row, tied rows in row order, before the next
    tile starts.  The keys' law does not change when the items are
    permuted, and neither does the event of a tie, so every partition is
    then exactly uniform; a tie within a bin changes nothing and is kept.
    The tile height orders the block's rows but does not choose them: the
    block holds the first ``count`` rows of the stream that do not tie
    across a cut.  A cut ties with probability about n / 2^(b+1) for b-bit
    keys: per row, 0.75 % with 2 bins and 2.3 % with 4 at n = 1024 with
    16-bit keys, and about 1 - exp(-1/4) = 22 % at the width limit.  Per
    cut c the items at or above its threshold key make one float32 mask,
    compared into a buffer the tiles reuse, and one BLAS product gives
    their weight sums U_c; bin c is U_c - U_(c+1), with U_0 the float64 sum
    of all weights.
    """
    n, width = weights.shape
    cuts = np.cumsum(sizes)[:-1]
    key = np.uint16 if cuts.size * n <= _KEY16_CUTS else np.uint32
    sums = np.empty((count, len(sizes), width))
    sums[:, 0] = weights.sum(axis=0, dtype=np.float64)
    mask = np.empty((TILE_ROWS, n), dtype=np.float32)
    for lo in range(0, count, TILE_ROWS):
        m = min(TILE_ROWS, count - lo)
        keys = _stream_keys(rng, m, n, key)
        high, tied = _rank_thresholds(keys, cuts)
        tied = np.flatnonzero(tied)
        while tied.size:
            redrawn = _stream_keys(rng, tied.size, n, key)
            keys[tied] = redrawn
            high[tied], again = _rank_thresholds(redrawn, cuts)
            tied = tied[again]
        for c in range(cuts.size):
            np.greater_equal(keys, high[:, c:c + 1], out=mask[:m])
            sums[lo:lo + m, c + 1] = mask[:m] @ weights
    sums[:, :-1] -= sums[:, 1:]
    return sums


def _law_draws(model: Model, rng: np.random.Generator,
               count: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """The coordinate draws of ``count`` samples from ``rng``, in stream
    order, as (lo, j, draws): float32 (m, n_j) variates Y of rows
    lo..lo+m-1 of the n_j coordinates of law j, in index order (every
    coordinate, j = 0, for a model of one law and for an exchangeable
    model, whose rows are their own values).

    A model of one law draws TILE_ROWS rows per row-major (m, n) sampler
    call, and an exchangeable model TILE_ROWS permuted rows, redrawing
    its tied rows before the next tile starts.  A model of several laws
    draws LAW_ROWS rows at a time, law by law in the order of ``laws``,
    one (n_j, m) sampler call per law, handed out transposed.
    """
    kind = family(model)
    if kind == EXCHANGEABLE:
        pop = model.population.astype(np.float32)
        samplers = [lambda rng, size: _permuted_rows(rng, pop, size[0])]
    else:
        samplers = [law.sampler for law in model.laws]
    if kind == INDEPENDENT:
        sizes = np.bincount(model.law_index)
        for lo in range(0, count, LAW_ROWS):
            m = min(LAW_ROWS, count - lo)
            for j, sample in enumerate(samplers):
                yield lo, j, sample(rng, (sizes[j], m)).T
        return
    for lo in range(0, count, TILE_ROWS):
        m = min(TILE_ROWS, count - lo)
        yield lo, 0, samplers[0](rng, (m, model.n))


def sample_class_sums(laws: tuple[IIDModel, ...], sizes: tuple[int, ...],
                      rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, G) float64 sums of ``count`` samples from ``rng``: column j
    holds sums of sizes[j] copies of laws[j], drawn by its ``sum_sampler``,
    group after group in the order given, count sums per group."""
    sums = np.empty((count, len(laws)))
    for j, (law, m) in enumerate(zip(laws, sizes)):
        sums[:, j] = law.sum_sampler(rng, m, count)
    return sums


# --------------------------------------------------------------------------
# Projections

# How a block's projections are drawn (:func:`projections`).
COORDINATES, CLASS_SUMS = "coordinates", "class-sums"
COLUMN_BINS, VALUE_BINS = "column-bins", "value-bins"
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
# Rank bins replace the sorted-key permutation of an exchangeable model when
# one side has G <= min(_MAX_BINS, n / _BIN_SIZE) groups.  Timed as the
# plan's draw of an 8192-row block, k = 3, on one thread (2-core x86): the
# time of column bins and of value bins over that of the permutation and its
# projection, each the median over 21 blocks drawn in turn with it.  Per
# bin, a cut costs a compare and a BLAS product over the tile, which bins of
# fewer than 64 items or more than 8 bins do not repay.
#
#        n    2 bins      4 bins      8 bins      16 bins
#      128   0.70-0.74   1.03-1.12   1.44-1.64
#      256   0.51-0.53   0.68-0.74   1.10-1.24
#      512   0.34-0.36   0.47-0.51   0.73-0.83
#     1024   0.28-0.29   0.52-0.57   0.76-0.86   1.11-1.28
#     2048   0.23-0.24   0.50-0.51   0.66-0.73   1.04-1.24
#     4096   0.21        0.53        0.70-0.80   1.42-1.60
#     8192               0.53-0.60   0.78-1.00
#
# With 32-bit keys the limits were 4 bins of at least 128 items: per block,
# 4 bins at n = 256 took 16-23 ms against 14-18 ms for the permutation, and
# 8 bins at n = 1024 98 ms against 74 ms.
_MAX_BINS = 8
_BIN_SIZE = 64


class ProjectionPlan(NamedTuple):
    """How a block's projections are drawn: the sampler (COORDINATES,
    CLASS_SUMS, COLUMN_BINS or VALUE_BINS), the number of class sums or
    bins per sample (None for coordinates), and ``project(rng, count)``,
    the (count, k) float64 projections of ``count`` samples drawn from the
    generator ``rng``, a :func:`functools.partial` whose ``args`` hold what
    it projects with."""

    sampler: str
    groups: Optional[int]
    project: Callable[[np.random.Generator, int], np.ndarray]

    def draw(self, seed: int, start: int, count: int) -> np.ndarray:
        """The (count, k) projections for sample indices start..start+count-1.

        Seeding is splittable, and this is the one place where a block
        meets its stream: the block of ``count`` >= 1 samples from index
        ``start`` reads the stream keyed by (seed, start) (:func:`stream`)
        from its first word, strictly in order, whichever sampler draws it.
        Distinct blocks read stretches of stream that share no state, so a
        result does not depend on how fixed-size blocks are distributed
        across workers.
        """
        if count < 1:
            raise InvalidInputError(f"block count must be positive, got {count}")
        return self.project(stream(seed, start), count)


def _column_classes(vectors: np.ndarray, code: np.ndarray,
                    limit: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The classes of coordinates r that share ``code[r]`` and their
    column of the (k, n) ``vectors``, compared bit for bit, when there are
    at most ``limit`` of them: the first member of each and the class sizes
    as arrays; else None.

    Rows are first checked one by one for having few distinct entries, so
    random rows are turned away after one sort of their first row (0.035
    ms at n = 4096, where numpy's ``unique`` of the 64-bit words hashes
    them and takes 0.6 ms).  Classes are ordered by code, then by the bit
    patterns (as unsigned integers) of their entries in the first row, the
    second, and so on.
    """
    bits = vectors.view(np.uint64)
    for row in bits:
        ordered = np.sort(row)
        if 1 + np.count_nonzero(ordered[1:] != ordered[:-1]) > limit:
            return None
    for row in bits:
        values, inverse = np.unique(row, return_inverse=True)
        # Renumbering the classes after each row keeps the codes below n^2.
        _, first, code, sizes = np.unique(code * values.size + inverse, return_index=True,
                                          return_inverse=True, return_counts=True)
        if first.size > limit:
            return None
    return first, sizes


def _coordinate_projections(model, rows, scales, offset, rng, count):
    s = np.empty((count, offset.size))
    s[:] = offset
    for lo, j, y in _law_draws(model, rng, count):
        s[lo:lo + y.shape[0]] += (y @ rows[j]) * scales[j]
    return s


def _class_sum_projections(laws, sizes, columns, rng, count):
    return sample_class_sums(laws, sizes, rng, count) @ columns


def _bin_projections(weights, sizes, factors, rng, count):
    # Bin by bin, so that no (count, G, k) float64 product is held: 0.8 MB
    # per worker for 4 bins at k = 3, and about 1 MB of verify-exch's peak RSS.
    sums = sample_rank_bins(weights, sizes, rng, count)
    s = sums[:, 0] * factors[0]
    for c in range(1, len(sizes)):
        s += sums[:, c] * factors[c]
    return s


def _grouped(sampler, project, items, sizes, factors) -> ProjectionPlan:
    """The plan that projects by ``project(items, sizes, factors, rng,
    count)`` over G groups of the given sizes."""
    sizes = tuple(int(m) for m in sizes)
    return ProjectionPlan(sampler, len(sizes), functools.partial(
        project, items, sizes, np.ascontiguousarray(factors)))


def projections(vectors: np.ndarray, model: Model) -> ProjectionPlan:
    """The plan that draws the projections S = theta X of a block, theta
    the (k, n) float64 ``vectors`` and X a state of ``model``, which must
    have dimension n.  An exchangeable population larger than
    MAX_PERMUTATION_N is refused here, before any block is drawn.

    S depends on X only through the sums of the classes of coordinates
    that share a direction column and a law (:func:`_column_classes`).  An
    independent model whose laws all declare a ``sum_sampler``
    draws those sums when there are at most n / _CLASS_SIZE classes
    (CLASS_SUMS: sign-design rows under the catalog laws but the uniform),
    laws in the order of ``laws``, and S is the float64 product of the
    (count, G) sums with the (G, k) distinct columns.

    An exchangeable draw needs only a uniform partition when the rows'
    column classes or the population's distinct values number at most
    min(_MAX_BINS, n / _BIN_SIZE), and then draws the side with fewer
    groups, the columns on a tie, as per-bin sums; S = sum over bins c of
    sums[:, c] * factors[c].  Columns (COLUMN_BINS): with X_r the
    population value at coordinate r, S = sum over classes c of col_c
    sum_(r in c) X_r, so the items are the population values, each
    weighing its value, binned into the class sizes, and the factors are
    the (G, k) distinct columns.  Values (VALUE_BINS): S = sum over
    distinct values v_d of v_d sum_(r: X_r = v_d) theta^r, so the items
    are the coordinates, each weighing its column theta^r, and the factors
    are the (G, 1) distinct values, compared as float64, in increasing
    order.

    Every other cell draws coordinates in single precision (COORDINATES):
    the statistical error at any usable sample count dominates the
    rounding by several orders of magnitude.  It projects each law's
    variates Y (:class:`IIDModel`; an exchangeable row is its own), as
    :func:`_law_draws` hands them out, and drops them before the next are
    drawn: S = sum over laws j of b_j (Y_j theta_j) + sum_j a_j sum_(r in j)
    theta^r, with theta_j the (n_j, k) float32 rows of theta of law j's
    coordinates.  Each product is one float32 BLAS product, 2-4x faster
    than an einsum (2-core x86) and byte-identical under one or two BLAS
    threads, and a and b cost O(k) per projected row, not O(n).
    """
    n = vectors.shape[1]
    exchangeable = family(model) == EXCHANGEABLE
    if model.n != n:
        raise InvalidInputError("model dimension does not match the direction set")
    if exchangeable and n > MAX_PERMUTATION_N:
        raise InvalidInputError(f"exchangeable sampling supports populations of at most "
                                f"{MAX_PERMUTATION_N} values, got {n}")
    theta = np.ascontiguousarray(vectors.T, dtype=np.float32)
    if exchangeable:
        limit = min(_MAX_BINS, n // _BIN_SIZE)
        values, counts = np.unique(model.population, return_counts=True)
        found = _column_classes(vectors, np.zeros(n, dtype=np.intp), min(limit, values.size))
        if found is not None:
            first, sizes = found
            items = model.population.astype(np.float32)[:, None]
            return _grouped(COLUMN_BINS, _bin_projections, items, sizes, vectors[:, first].T)
        if values.size <= limit:
            return _grouped(VALUE_BINS, _bin_projections, theta, counts, values[:, None])
    else:
        laws, law_index = model.laws, model.law_index
        found = (None if any(law.sum_sampler is None for law in laws)
                 else _column_classes(vectors, law_index, n // _CLASS_SIZE))
        if found is not None:
            first, sizes = found
            return _grouped(CLASS_SUMS, _class_sum_projections,
                            tuple(laws[law_index[r]] for r in first), sizes, vectors[:, first].T)
    if exchangeable:
        law_index, affine = np.zeros(n, dtype=np.intp), [(0.0, 1.0)]
    else:
        affine = [(law.a, law.b) for law in laws]
    rows = tuple(np.ascontiguousarray(theta[law_index == j]) for j in range(len(affine)))
    scales = tuple(np.float64(b) for _, b in affine)
    offset = sum(a * r.sum(axis=0, dtype=np.float64) for (a, _), r in zip(affine, rows))
    return ProjectionPlan(COORDINATES, None, functools.partial(
        _coordinate_projections, model, rows, scales, offset))


# --------------------------------------------------------------------------
# Populations

def standardize_population(values, warn_tol: Optional[float] = None) -> np.ndarray:
    """Shift and scale values to sum 0 and mean square 1 (exactly re-normalized).

    With ``warn_tol`` set, warns when any entry moves by more than that;
    used on file loads, where a silent large adjustment usually means the
    input was not meant to be standardized.
    """
    raw = np.asarray(values, dtype=np.float64)
    if raw.ndim != 1 or raw.size < 2 or not np.all(np.isfinite(raw)):
        raise InvalidInputError("population must hold at least two finite values")
    # Overflow is reported below, as a non-finite scale, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        centered = raw - raw.mean()
        scale = math.sqrt(float(centered @ centered) / raw.size)
    if not math.isfinite(scale):
        raise InvalidInputError("population values are too large: their squares overflow")
    if scale == 0.0:
        raise InvalidInputError("population is constant; cannot standardize")
    out = centered / scale
    # One re-normalization pass kills accumulated rounding.  Its sum of
    # squares is exactly rounded (fsum): a dot product of many equal terms
    # can miss n by tens of ulps.
    out = out - out.mean()
    out *= math.sqrt(out.size / math.fsum(out * out))
    if warn_tol is not None:
        shift = float(np.max(np.abs(out - raw)))
        if shift > warn_tol:
            warnings.warn(
                f"population standardization moved entries by up to {shift:.3g}",
                stacklevel=2,
            )
    return out


def load_population(path) -> np.ndarray:
    """Population from a text file of one decimal per line, standardized."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            tok = line.strip()
            if tok and not tok.startswith("#"):
                try:
                    values.append(float(tok))
                except ValueError:
                    raise InvalidInputError(
                        f"population file {path!r}, line {lineno}: {tok!r} is not a number"
                    ) from None
    if len(values) < 2:
        raise InvalidInputError(f"population file {path!r} holds fewer than two values")
    return standardize_population(values, warn_tol=1e-6)
