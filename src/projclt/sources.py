"""Random-vector models and the moment constants that enter the bounds.

Three model families are supported, all standardized to mean 0 and
variance 1 per coordinate:

* ``IIDModel``          -- one scalar law used for every coordinate,
* ``IndependentModel``  -- a per-coordinate list of scalar laws,
* ``ExchangeableModel`` -- a uniformly random permutation of a fixed
  standardized population, which makes every mixed moment of the
  dependence terms exactly computable.

Catalog laws ship closed-form third/fourth moments; Monte Carlo is used
only as a cross-check, never to feed a bound.  User-supplied laws must
declare their moments explicitly.

Seeding is splittable: every state vector is drawn by :func:`sample_tiles`
(whole blocks are its tiles concatenated, by :func:`sample_block`), and a
block starting at sample index i consumes the stream of the pair
(seed, i): an SFC64 generator whose state is set directly from the pair
(:func:`stream`, which proves that the stretches of stream two distinct
blocks read share no state).  Results therefore do not depend on how
fixed-size blocks are distributed across workers.  Tiles are TILE_ROWS
high, a height that is part of this contract.

Every coordinate draw is float32.  Catalog samplers take ``(rng, size)``
and read the stream's 64-bit words directly, low 32-bit half first:
two-point draws are bit-identical to numpy's float32 fill; a uniform draw
is the top 23 bits of a 32-bit half-word made into a float32 in [1, 2)
and mapped affinely onto [-sqrt(3), sqrt(3)), in the words' own buffer;
the centered exponential is the inverse CDF of one 32-bit word.  Rademacher
draws take one bit each from the stream's words, least significant bit
first, eight at a time through a byte lookup table.  An independent
model draws law by law, LAW_ROWS rows per sampler call.  An exchangeable
model sorts 64-bit keys: a 32-bit stream half-word high, the float32 bits
of a population value low.  A row in which two half-words tie is redrawn,
so every permutation is exactly uniform and the sorted low halves are the
row of draws.  With 32 random bits per coordinate a row ties with
probability about 1 - exp(-n(n-1)/2^33), so sampling refuses populations
larger than MAX_PERMUTATION_N.

Catalog laws other than the uniform also declare an exact sampler of the
sum of m i.i.d. copies, ``sum_sampler(rng, m, size)``, in float64: a
binomial draw for the two-valued laws, a gamma draw for the exponential.
:func:`sample_class_sums` draws such sums for a block, group after group,
from the same (seed, start) stream a block of coordinates would read.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import InvalidInputError, InvalidMomentsError, MissingMomentsError

SEED_LIMIT = 1 << 64
# Rows per sampling tile: 1 MB of float32 at n = 4096, so a tile stays in L2
# while it is projected.  Part of the determinism contract (exchangeable
# tiles redraw tied rows tile by tile), and a multiple of 64, so that every
# tile ends on a whole stream word (a Rademacher draw reads one bit).
TILE_ROWS = 64
# Rows per sampler call for independent models, which draw law by law and
# hand the rows out as TILE_ROWS tiles.  One call per law and 64-row tile
# made a two-worker verify of a three-law pattern at n = 1024 about 40 %
# slower than one draw of the whole block; 256-row calls are not slower,
# and their (n, LAW_ROWS) float32 buffer is 4 MB at n = 4096.  Part of the
# determinism contract.
LAW_ROWS = 4 * TILE_ROWS
# Keys per difference array of the tie check: 256 KB of uint64, so that the
# check adds at most that much (or one row) to a tile's keys.
_GAP_KEYS = 1 << 15
# Largest population an exchangeable model samples: at n = 2^16 a row of
# 32-bit keys ties with probability 0.39, and with 0.86 at 2^17.
MAX_PERMUTATION_N = 1 << 16
# Index of the half of a uint64 that holds its high 32 bits, in a uint32 view.
_HIGH_HALF = 1 if sys.byteorder == "little" else 0
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# The generator behind every sampling stream; the third word of every
# stream's starting state (an odd constant), the counter every stream starts
# from, and the number of outputs discarded after the state is set, as
# numpy's own SFC64 seeding discards them.
STREAM = "sfc64"
_STREAM_WORD = _GOLDEN64
_COUNTER_START = 1
_STREAM_DISCARD = 12


def _fmix64(k: int) -> int:
    """The MurmurHash3 64-bit finalizer: xor-shifts and multiplications by
    odd constants, each invertible modulo 2^64, so a bijection on 64 bits."""
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _MASK64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _MASK64
    return k ^ (k >> 33)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """The generator of one sampling stream: SFC64 (Doty-Humphrey's small
    fast counting generator) started from a state set directly from
    (seed, index).

    The 256-bit state (s0, s1, s2, s3) starts at (fmix64(seed),
    fmix64(index), an odd constant, 1), and the first 12 outputs are
    discarded.  No two streams ever pass through a common state within
    2^64 steps:

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
    bits = np.random.SFC64(0)
    bits.state = {
        "bit_generator": "SFC64",
        "state": {"state": np.array([_fmix64(seed), _fmix64(index), _STREAM_WORD, _COUNTER_START],
                                    dtype=np.uint64)},
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits.random_raw(_STREAM_DISCARD)
    return np.random.Generator(bits)


def derived_seed(seed: int, tag: int) -> int:
    """Decorrelated child seed for an auxiliary purpose within one run."""
    return (seed * _GOLDEN64 + 0x632BE59BD9B4E019 * (tag + 1)) & _MASK64


@dataclass(frozen=True)
class MomentSummary:
    """Distributional constants consumed by the error bounds.

    ``abs3``/``fourth`` refer to the first coordinate; the ``_max``
    fields take the worst coordinate (they coincide for i.i.d. models).
    The mixed moments E X1 X2 X3 X4 and E (X1^2-1)(X2^2-1) are present
    exactly when the model is exchangeable.
    """

    abs3: float
    fourth: float
    abs3_max: float
    fourth_max: float
    mixed_4: Optional[float] = None
    mixed_var: Optional[float] = None

    def __post_init__(self):
        for name in ("abs3", "fourth", "abs3_max", "fourth_max"):
            val = getattr(self, name)
            if val < 1.0 - 1e-9:
                raise InvalidMomentsError(
                    f"{name}={val} < 1 is impossible for a variable with EX^2 = 1"
                )
        if (self.mixed_4 is None) != (self.mixed_var is None):
            raise InvalidMomentsError("mixed_4 and mixed_var must be supplied together")


Sampler = Callable[[np.random.Generator, object], np.ndarray]
SumSampler = Callable[[np.random.Generator, int, int], np.ndarray]


@dataclass(frozen=True, eq=False)
class IIDModel:
    """A standardized scalar law: sampler plus declared moment constants.

    ``support`` carries (values, probabilities) for finitely supported
    laws; exact conditional expectations enumerate it directly.
    ``diff_abs3`` is E|X - X'|^3 for an independent copy X'; finitely
    supported laws need not declare it.  A constant is read as declared
    where given, else enumerated over the support, so a declaration that
    the support contradicts by more than 1e-12 relative is refused.
    ``sum_sampler(rng, m, size)``, where given, draws ``size`` float64
    values of the sum of m independent copies of the law, exactly.
    """

    name: str
    sampler: Sampler
    abs3: Optional[float]
    fourth: Optional[float]
    support: Optional[tuple[np.ndarray, np.ndarray]] = None
    diff_abs3: Optional[float] = None
    sum_sampler: Optional[SumSampler] = None

    def __post_init__(self):
        for name, enumerate_ in _ENUMERATED.items():
            declared = getattr(self, name)
            if self.support is not None and declared is not None:
                value = enumerate_(*self.support)
                if not abs(declared - value) <= 1e-12 * abs(value):
                    raise InvalidMomentsError(f"model {self.name!r} declares {name} = "
                                              f"{declared!r}, but its support gives {value!r}")


# The declarable constants of a scalar law, summed over a finite support.
_ENUMERATED = {
    "abs3": lambda vals, probs: float(probs @ np.abs(vals) ** 3),
    "fourth": lambda vals, probs: float(probs @ vals**4),
    "diff_abs3": lambda vals, probs: float(probs @ np.abs(vals[:, None] - vals) ** 3 @ probs),
}


@dataclass(frozen=True, eq=False)
class IndependentModel:
    """Independent coordinates, one scalar law each.  ``laws`` holds the
    distinct law objects (by identity, in order of first appearance) and
    ``law_index`` the position in ``laws`` of each coordinate's law."""

    coords: tuple[IIDModel, ...]
    laws: tuple[IIDModel, ...] = field(init=False)
    law_index: np.ndarray = field(init=False)

    def __post_init__(self):
        if len(self.coords) < 1:
            raise InvalidInputError("independent model needs at least one coordinate")
        # IIDModel compares and hashes by identity (eq=False).
        laws = tuple(dict.fromkeys(self.coords))
        position = {law: j for j, law in enumerate(laws)}
        index = np.fromiter(map(position.__getitem__, self.coords), dtype=np.intp)
        index.flags.writeable = False
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "law_index", index)

    @property
    def n(self) -> int:
        return len(self.coords)

    def per_coordinate(self, constant: Callable[[IIDModel], float]) -> np.ndarray:
        """``constant(law)`` for each coordinate, evaluated once per law."""
        return np.array([constant(law) for law in self.laws])[self.law_index]


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


Model = Union[IIDModel, IndependentModel, ExchangeableModel]

# Model families, the unit in which a theorem states which models it admits.
IID, INDEPENDENT, EXCHANGEABLE = "iid", "independent", "exchangeable"


def family(model: Model) -> str:
    """The family of a model, one of IID, INDEPENDENT, EXCHANGEABLE."""
    if isinstance(model, IndependentModel):
        return INDEPENDENT
    if isinstance(model, ExchangeableModel):
        return EXCHANGEABLE
    return IID


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


def _top24(rng, size) -> np.ndarray:
    """The 24-bit integers k with ``rng.random(size, dtype=np.float32)`` =
    k * 2^-24, as int32."""
    words = _words32(rng, size)
    words >>= 8
    return words.view(np.int32)


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
_UNIFORM_WIDTH32 = np.float32(2.0 * _SQRT3)


def _sample_uniform(rng, size):
    # The top 23 bits of a half-word as the mantissa of a float32 1 + j 2^-23
    # in [1, 2).  Subtracting 1.5 is exact, and the product rounds once, so a
    # draw is float32((j - 2^22) 2^-23 float32(2 sqrt(3))): a lattice of 2^23
    # points on [-float32(sqrt(3)), float32(sqrt(3))), inside [-sqrt(3), sqrt(3)).
    words = _words32(rng, size)
    words >>= 9
    words |= 0x3F800000
    out = words.view(np.float32)
    out -= np.float32(1.5)
    out *= _UNIFORM_WIDTH32
    return out.reshape(size)


def uniform() -> IIDModel:
    """Uniform on [-sqrt(3), sqrt(3)]: E|X|^3 = 3 sqrt(3)/4, EX^4 = 9/5, and
    E|X - X'|^3 = (2 sqrt(3))^3/10, since X - X' is triangular.  The draws
    take 2^23 values, equally spaced up to float32 rounding."""
    return IIDModel("uniform", _sample_uniform, abs3=3.0 * _SQRT3 / 4.0, fourth=9.0 / 5.0,
                    diff_abs3=12.0 * _SQRT3 / 5.0)


def two_point(p: float = 0.2) -> IIDModel:
    """Two-point law with P(X = sqrt(q/p)) = p, P(X = -sqrt(p/q)) = q = 1-p.
    A sum of m copies is m lo + (hi - lo) Binomial(m, p), with the declared p."""
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"two_point needs 0 < p < 1, got {p}")
    q = 1.0 - p
    hi = math.sqrt(q / p)
    lo = -math.sqrt(p / q)
    # u = k 2^-24 < float32(p) exactly when the integer k < ceil(float32(p) 2^24).
    threshold = math.ceil(float(np.float32(p)) * 2.0**24)
    lo_bits = int(np.float32(lo).view(np.int32))
    flip_bits = lo_bits ^ int(np.float32(hi).view(np.int32))

    def sample(rng, size):
        # Exact bitwise select: k - threshold < 0 becomes an all-ones mask
        # that turns the bits of lo into those of hi.
        bits = _top24(rng, size)
        bits -= threshold
        bits >>= 31
        bits &= flip_bits
        bits ^= lo_bits
        return bits.view(np.float32).reshape(size)

    support = (np.array([lo, hi]), np.array([q, p]))
    return IIDModel(
        f"two_point({p!r})",
        sample,
        abs3=p * hi**3 + q * (-lo) ** 3,
        fourth=p * hi**4 + q * lo**4,
        support=support,
        sum_sampler=_two_valued_sums(lo, hi, p),
    )


def _sample_exponential(rng, size):
    # Inverse CDF at (w + 1/2) 2^-32: the largest draw is 33 ln 2 - 1 ~ 21.9.
    u = np.multiply(_words32(rng, size), np.float32(2.0**-32), dtype=np.float32)
    u += np.float32(2.0**-33)
    np.log(u, out=u)
    np.subtract(-1.0, u, out=u)
    return u.reshape(size)


def _sum_exponential(rng, m, size):
    # A sum of m Exp(1) is Gamma(m), drawn by numpy (Marsaglia & Tsang 2000).
    return rng.standard_gamma(m, size) - m


def centered_exponential() -> IIDModel:
    """Exp(1) minus its mean: E|X|^3 = 12/e - 2, EX^4 = 9, and
    E|X - X'|^3 = 3! = 6, since X - X' is standard Laplace.  A sum of m
    copies is Gamma(m) - m."""
    return IIDModel(
        "exponential", _sample_exponential, abs3=12.0 / math.e - 2.0, fourth=9.0, diff_abs3=6.0,
        sum_sampler=_sum_exponential,
    )


CATALOG: dict[str, Callable[[], IIDModel]] = {
    "rademacher": rademacher,
    "uniform": uniform,
    "two_point": two_point,
    "exponential": centered_exponential,
}


def user_model(name, sampler, abs3=None, fourth=None, support=None, diff_abs3=None) -> IIDModel:
    """Wrap a user-supplied standardized sampler; moments must be declared
    before the model can feed a bound.

    ``sampler(rng, size)`` draws ``size`` (an int or a shape tuple) values
    from the generator ``rng`` and returns them as float32."""
    return IIDModel(name, sampler, abs3=abs3, fourth=fourth, support=support, diff_abs3=diff_abs3)


# --------------------------------------------------------------------------
# Moment constants

def iid_moments(model: IIDModel) -> MomentSummary:
    """Declared E|X|^3 and EX^4 of a scalar law."""
    if model.abs3 is None or model.fourth is None:
        raise MissingMomentsError(
            f"model {model.name!r} does not declare abs3/fourth; bounds refuse to "
            "estimate constants that enter a proved inequality"
        )
    return MomentSummary(
        abs3=model.abs3, fourth=model.fourth, abs3_max=model.abs3, fourth_max=model.fourth
    )


def diff_abs3(model: IIDModel) -> float:
    """E|X - X'|^3 for independent copies X, X' of a scalar law: declared
    where given, else enumerated over a finite support."""
    return _constant(model, "diff_abs3", "E|X - X'|^3")


def fourth_moment(model: IIDModel) -> float:
    """EX^4 of a scalar law: declared where given, else enumerated over a
    finite support."""
    return _constant(model, "fourth", "EX^4")


def _constant(model: IIDModel, name: str, formula: str) -> float:
    declared = getattr(model, name)
    if declared is None and model.support is None:
        raise MissingMomentsError(f"model {model.name!r} does not declare {name} = {formula}")
    return declared if declared is not None else _ENUMERATED[name](*model.support)


def independent_moments(model: IndependentModel) -> MomentSummary:
    per = [iid_moments(law) for law in model.laws]  # the first is the first coordinate's
    return MomentSummary(
        abs3=per[0].abs3,
        fourth=per[0].fourth,
        abs3_max=max(m.abs3 for m in per),
        fourth_max=max(m.fourth for m in per),
    )


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
        abs3_max=float(np.mean(np.abs(a) ** 3)),
        fourth_max=p4 / n,
        mixed_4=mixed_4,
        mixed_var=mixed_var,
    )


def moment_summary(model: Model) -> MomentSummary:
    if isinstance(model, IIDModel):
        return iid_moments(model)
    if isinstance(model, IndependentModel):
        return independent_moments(model)
    if isinstance(model, ExchangeableModel):
        return exchangeable_moments(model)
    raise InvalidInputError(f"unknown model type {type(model).__name__}")


# --------------------------------------------------------------------------
# Sampling

def model_dim(model: Model) -> Optional[int]:
    """Intrinsic vector length, or None for a scalar i.i.d. law."""
    return None if family(model) == IID else model.n


def _resolve_n(model: Model, n: Optional[int]) -> int:
    intrinsic = model_dim(model)
    if intrinsic is not None:
        if n is not None and n != intrinsic:
            raise InvalidInputError(f"model has n={intrinsic}, got n={n}")
        return intrinsic
    if n is None:
        raise InvalidInputError("an i.i.d. scalar law needs an explicit vector length n")
    if n < 1:
        raise InvalidInputError(f"vector length must be positive, got {n}")
    return n


def _sorted_keys(rng, pop: np.ndarray, rows: int) -> np.ndarray:
    """(rows, n) uint64 sort keys, each row sorted.  Before the sort, key j
    of a row holds the row's j-th 32-bit stream half-word (low half of
    each word first) in its high half and the bits of the float32 value
    pop[j] in its low half; a row reads ceil(n/2) words."""
    keys = np.empty((rows, pop.size), dtype=np.uint64)
    halves = keys.view(np.uint32)
    words = rng.bit_generator.random_raw((rows, (pop.size + 1) // 2))
    halves[:, _HIGH_HALF::2] = words.view(np.uint32)[:, :pop.size]
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


def sample_tiles(
    model: Model,
    seed: int,
    start: int,
    count: int,
    n: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """The float32 rows of the block for sample indices start..start+count-1,
    in order, as (TILE_ROWS, n) tiles, the last one possibly shorter.

    The block consumes the stream keyed by (seed, start) strictly in order,
    tile after tile.  The tile height is part of the determinism contract:
    an exchangeable tile redraws its tied rows before the next tile starts.
    Callers that fix their block boundaries therefore get identical totals
    no matter how blocks are distributed across workers.  An independent
    model groups its coordinates by law object (laws in order of first
    appearance, coordinates in index order), draws each group LAW_ROWS
    rows per sampler call into an (n, LAW_ROWS) column buffer, and hands
    the buffer out as tiles.
    """
    n = _resolve_n(model, n)
    if count < 1:
        raise InvalidInputError("block count must be positive")
    if family(model) == EXCHANGEABLE and n > MAX_PERMUTATION_N:
        raise InvalidInputError(
            f"exchangeable sampling supports populations of at most {MAX_PERMUTATION_N} "
            f"values, got {n}"
        )
    rng = stream(seed, start)
    if isinstance(model, IndependentModel):
        groups = [(law, np.flatnonzero(model.law_index == j)) for j, law in enumerate(model.laws)]
        for lo in range(0, count, LAW_ROWS):
            m = min(LAW_ROWS, count - lo)
            cols = np.empty((n, m), dtype=np.float32)
            for law, index in groups:
                cols[index] = law.sampler(rng, (index.size, m))
            for t in range(0, m, TILE_ROWS):
                yield cols[:, t:t + TILE_ROWS].T
        return
    pop = model.population.astype(np.float32) if isinstance(model, ExchangeableModel) else None
    for lo in range(0, count, TILE_ROWS):
        m = min(TILE_ROWS, count - lo)
        if pop is None:
            yield model.sampler(rng, (m, n))
        else:
            yield _permuted_rows(rng, pop, m)


def sample_class_sums(
    laws: tuple[IIDModel, ...],
    sizes: tuple[int, ...],
    seed: int,
    start: int,
    count: int,
) -> np.ndarray:
    """(count, G) float64 sums for sample indices start..start+count-1:
    column j holds sums of sizes[j] copies of laws[j], drawn by its
    ``sum_sampler``.

    The block consumes the stream keyed by (seed, start) group after
    group, in the order given, count sums per group, so that, as for
    :func:`sample_tiles`, fixed block boundaries give identical draws no
    matter how blocks are distributed across workers.
    """
    if count < 1:
        raise InvalidInputError("block count must be positive")
    rng = stream(seed, start)
    sums = np.empty((count, len(laws)))
    for j, (law, m) in enumerate(zip(laws, sizes)):
        sums[:, j] = law.sum_sampler(rng, m, count)
    return sums


def sample_block(
    model: Model,
    seed: int,
    start: int,
    count: int,
    n: Optional[int] = None,
) -> np.ndarray:
    """(count, n) float32 matrix of draws for sample indices
    start..start+count-1: the tiles of :func:`sample_tiles`, concatenated.

    Every family draws through the tiles.  An i.i.d. tile ends on a whole
    stream word, so an i.i.d. block holds the draws of one sampler call on
    the same stream, in row order: a (count, 1) block and a
    (count / 64, 64) block hold the same draws, the second in 64 times
    fewer tiles.
    """
    tiles = list(sample_tiles(model, seed, start, count, n=n))
    return tiles[0] if len(tiles) == 1 else np.concatenate(tiles)


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
