import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projclt import sources
from projclt.errors import InvalidInputError, InvalidMomentsError, MissingMomentsError
from projclt.sources import (
    ExchangeableModel,
    IIDModel,
    IndependentModel,
    centered_exponential,
    exchangeable_moments,
    iid,
    load_population,
    moment_summary,
    LAW_ROWS,
    TILE_ROWS,
    rademacher,
    sample_class_sums,
    sample_rank_bins,
    sample_tiles,
    standardize_population,
    stream,
    two_point,
    uniform,
)

from conftest import pattern, sample_block

SQRT3 = math.sqrt(3.0)


def enumerated_mixed_4(pop):
    """Average of a_i a_j a_k a_l over ordered distinct 4-tuples."""
    n = len(pop)
    total = math.fsum(
        pop[i] * pop[j] * pop[k] * pop[l]
        for i, j, k, l in itertools.permutations(range(n), 4)
    )
    return total / (n * (n - 1) * (n - 2) * (n - 3))


def enumerated_mixed_var(pop):
    n = len(pop)
    total = math.fsum(
        (pop[i] ** 2 - 1.0) * (pop[j] ** 2 - 1.0)
        for i, j in itertools.permutations(range(n), 2)
    )
    return total / (n * (n - 1))


class TestCatalogMoments:
    def test_rademacher(self):
        m = moment_summary(iid(rademacher(), 1))
        assert m.abs3 == 1.0 and m.fourth == 1.0
        assert rademacher().constant("diff_abs3") == 4.0

    def test_uniform_closed_forms(self):
        m = moment_summary(iid(uniform(), 1))
        assert m.fourth == pytest.approx(9.0 / 5.0, abs=1e-15)
        assert m.abs3 == pytest.approx(3.0 * SQRT3 / 4.0, abs=1e-15)
        assert uniform().constant("diff_abs3") == pytest.approx((2.0 * SQRT3) ** 3 / 10.0,
                                                                abs=1e-14)

    def test_uniform_against_quadrature_oracle(self):
        # direct numeric integration of |x|^3 and x^4 over [-sqrt(3), sqrt(3)]
        xs = np.linspace(-SQRT3, SQRT3, 2_000_001)
        density = 1.0 / (2.0 * SQRT3)
        abs3 = np.trapezoid(np.abs(xs) ** 3 * density, xs)
        fourth = np.trapezoid(xs**4 * density, xs)
        m = moment_summary(iid(uniform(), 1))
        assert m.abs3 == pytest.approx(abs3, abs=1e-9)
        assert m.fourth == pytest.approx(fourth, abs=1e-9)
        # X - X' has the triangular density (2 sqrt(3) - |d|) / 12 on [-2 sqrt(3), 2 sqrt(3)]
        ds = np.linspace(-2.0 * SQRT3, 2.0 * SQRT3, 2_000_001)
        diff3 = np.trapezoid(np.abs(ds) ** 3 * (2.0 * SQRT3 - np.abs(ds)) / 12.0, ds)
        assert uniform().constant("diff_abs3") == pytest.approx(diff3, abs=1e-9)

    def test_two_point_values(self):
        model = two_point(0.2)
        vals, probs = model.support
        np.testing.assert_allclose(sorted(vals), [-0.5, 2.0], atol=1e-15)
        assert float(vals @ probs) == pytest.approx(0.0, abs=1e-15)
        assert float(vals**2 @ probs) == pytest.approx(1.0, abs=1e-15)
        assert model.constant("diff_abs3") == pytest.approx(2 * 0.2 * 0.8 * 2.5**3, rel=1e-14)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_two_point_outside_the_open_unit_interval_is_refused(self, p):
        with pytest.raises(InvalidInputError, match="two_point needs 0 < p < 1"):
            two_point(p)

    def test_two_point_against_monte_carlo_oracle(self):
        model = two_point(0.2)
        draws = model.sampler(stream(1234), 10_000_000)
        m = moment_summary(iid(model, 1))
        pairs = np.abs(draws[::2] - draws[1::2]) ** 3
        for vals, declared in [(np.abs(draws) ** 3, m.abs3), (draws**4, m.fourth),
                               (pairs, model.constant("diff_abs3"))]:
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - declared) <= 4 * se

    def test_exponential_closed_forms(self):
        m = moment_summary(iid(centered_exponential(), 1))
        assert m.fourth == pytest.approx(9.0, abs=1e-12)
        assert m.abs3 == pytest.approx(12.0 / math.e - 2.0, abs=1e-12)

    def test_exponential_against_monte_carlo_oracle(self):
        model = centered_exponential()
        draws = model.sampler(stream(77), 2_000_000)
        m = moment_summary(iid(model, 1))
        pairs = np.abs(draws[::2] - draws[1::2]) ** 3
        for vals, declared in [(np.abs(draws) ** 3, m.abs3), (pairs, model.constant("diff_abs3"))]:
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - declared) <= 4 * se

    @pytest.mark.parametrize("factory", [rademacher, uniform, two_point, centered_exponential])
    def test_standardization_at_one_million_samples(self, factory):
        model = factory()
        draws = model.sampler(stream(5), 1_000_000)
        for stat, target in [(draws, 0.0), (draws**2, 1.0)]:
            se = stat.std(ddof=1) / math.sqrt(stat.size)
            assert abs(stat.mean() - target) <= 4 * se + 1e-12


MASK64 = (1 << 64) - 1
INV9 = pow(9, -1, 1 << 64)


def fmix64_reference(k):
    """The MurmurHash3 64-bit finalizer."""
    for mult in (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53):
        k ^= k >> 33
        k = (k * mult) & MASK64
    return k ^ (k >> 33)


def rotl(x, r):
    return ((x << r) | (x >> (64 - r))) & MASK64


def sfc64_step(state):
    """One SFC64 step on a state tuple: (next state, output)."""
    a, b, c, d = state
    out = (a + b + d) & MASK64
    return (b ^ (b >> 11), (9 * c) & MASK64, (rotl(c, 24) + out) & MASK64, (d + 1) & MASK64), out


def sfc64_unstep(state):
    """The state one SFC64 step before ``state``."""
    a, b, c, d = state
    d = (d - 1) & MASK64
    prev_b = a
    for _ in range(6):  # x = a ^ (x >> 11) is exact after ceil(64 / 11) rounds
        prev_b = a ^ (prev_b >> 11)
    prev_c = (b * INV9) & MASK64
    out = (c - rotl(prev_c, 24)) & MASK64
    return ((out - prev_b - d) & MASK64, prev_b, prev_c, d)


def generator_state(rng):
    return tuple(int(w) for w in rng.bit_generator.state["state"]["state"])


# Pairs of (seed, index) keys that simple key maps confuse: swapped seed and
# index, a seed and its neighbour, an index and its neighbour.
ADVERSARIAL_PAIRS = [
    ((0, 8192), (8192, 0)),
    ((12345, 678), (678, 12345)),
    ((7, 0), (8, 0)),
    ((7, 8192), (7, 8193)),
    ((2**64 - 1, 0), (0, 2**64 - 1)),
]


class TestStream:
    def test_known_answers(self):
        # The first words of three streams, so that a change of the stream
        # cannot pass silently.
        for key, words in [
            ((0, 0), [0xD94D111F0250108B, 0x0B46C9C6CCCE4E71, 0xC34886B589625FC3]),
            ((1, 8192), [0x480FEBD5BB5B5540, 0x0BDDF946127A67FC, 0x7DD456ADBF634E3F]),
            ((2**64 - 1, 2**64 - 1), [0x5868C75CC3EF666D, 0x9E671F5B2CBE3386,
                                      0x49BC0815F37628E5]),
        ]:
            assert stream(*key).bit_generator.random_raw(3).tolist() == words

    def test_words_follow_the_documented_state_map(self):
        # The state (fmix64(seed), fmix64(index), odd constant, 1), then 12
        # discarded outputs; the constant is read back from stream(0, 0).
        state = generator_state(stream(0, 0))
        for _ in range(12):
            state = sfc64_unstep(state)
        constant = state[2]
        assert constant % 2 == 1
        seed, index = 2024, 3 * 8192
        state = (fmix64_reference(seed), fmix64_reference(index), constant, 1)
        want = []
        for _ in range(12 + 5):
            state, out = sfc64_step(state)
            want.append(out)
        assert stream(seed, index).bit_generator.random_raw(5).tolist() == want[12:]

    def test_reference_step_inverts(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            state = tuple(int(w) for w in rng.integers(0, 2**64, 4, dtype=np.uint64))
            assert sfc64_unstep(sfc64_step(state)[0]) == state

    @pytest.mark.parametrize("pair", ADVERSARIAL_PAIRS, ids=str)
    def test_distinct_keys_start_apart_in_lockstep(self, pair):
        # The non-collision proof in the stream docstring: equal counters and
        # distinct states, and the 12 discarded steps undo to the state map.
        states = [generator_state(stream(*key)) for key in pair]
        assert states[0][3] == states[1][3] == 13
        assert states[0] != states[1]
        starts = []
        for state, (seed, index) in zip(states, pair):
            for _ in range(12):
                state = sfc64_unstep(state)
            assert state[:2] == (fmix64_reference(seed), fmix64_reference(index))
            assert state[3] == 1
            starts.append(state)
        assert starts[0][2] == starts[1][2] and starts[0][:2] != starts[1][:2]

    @pytest.mark.parametrize("pair", ADVERSARIAL_PAIRS, ids=str)
    def test_streams_of_adversarial_keys_look_independent(self, pair):
        count = 1 << 20
        a, b = (stream(*key).bit_generator.random_raw(count) for key in pair)
        u, v = ((w >> np.uint64(11)) * 2.0**-53 for w in (a, b))
        assert abs(np.corrcoef(u, v)[0, 1]) < 5.0 / math.sqrt(count)
        bits = 64 * count
        ones = int(np.bitwise_count(a ^ b).sum())
        assert abs(ones / bits - 0.5) < 5.0 * 0.5 / math.sqrt(bits)


def rademacher_reference(rng, size):
    """Unpack the stream's 64-bit words bit by bit, least significant bit
    first, convert to float32, then map {0, 1} to {-1, 1}."""
    total = int(np.prod(size))
    words = rng.bit_generator.random_raw((total + 63) // 64)
    bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    out = bits.reshape(-1)[:total].astype(np.float32)
    out *= 2.0
    out -= 1.0
    return out.reshape(size)


def uniform_reference(rng, size):
    """Split each 64-bit word into 32-bit halves, low half first, keep the
    top 23 bits j of each, and round (j - 2^22) 2^-23 float32(2 sqrt(3)),
    exact in float64, once to float32."""
    total = int(np.prod(size))
    words = rng.bit_generator.random_raw((total + 1) // 2)
    halves = np.stack([words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)], axis=1)
    j = (halves.reshape(-1)[:total] >> np.uint64(9)).astype(np.float64)
    return ((j - 2.0**22) * 2.0**-23 * float(np.float32(2.0 * SQRT3))).astype(
        np.float32).reshape(size)


def two_point_reference(p):
    """Draw c is hi when the 24-bit k < t = ceil(float32(p) 2^24).  The top
    8 bits of k are byte c of the call's 64-bit words, least significant
    byte first; a byte equal to t's top byte takes k's low 16 bits from the
    next 16-bit quarter, least significant first, of the words after the
    call's bytes, and any other byte decides alone."""
    hi, lo = math.sqrt((1.0 - p) / p), -math.sqrt(p / (1.0 - p))
    t = math.ceil(float(np.float32(p)) * 2**24)

    def draw(rng, size):
        total = int(np.prod(size))
        words = rng.bit_generator.random_raw((total + 7) // 8).tolist()
        top = [(w >> (8 * i)) & 0xFF for w in words for i in range(8)][:total]
        ties = top.count(t >> 16)
        rest = rng.bit_generator.random_raw((ties + 3) // 4).tolist() if ties else []
        low = iter([(w >> (16 * i)) & 0xFFFF for w in rest for i in range(4)])
        k = [b << 16 | (next(low) if b == t >> 16 else 0) for b in top]
        return np.array([hi if v < t else lo for v in k], dtype=np.float32).reshape(size)

    return draw


class _FixedWords:
    """Stands in for a generator whose stream is one repeated 64-bit word."""

    def __init__(self, word):
        self.bit_generator = self
        self.word = word

    def random_raw(self, size):
        return np.full(size, self.word, dtype=np.uint64)


class TestSamplerFormulas:
    @pytest.mark.parametrize("law,reference", [
        (rademacher(), rademacher_reference),
        (uniform(), uniform_reference),
        *[(two_point(p), two_point_reference(p)) for p in (0.2, 0.5, 0.01, 1.0 / 3.0, 0.7, 0.9999)],
    ], ids=lambda v: getattr(v, "name", ""))
    @pytest.mark.parametrize("size", [1, 7, 1000, 1001, (3, 5), (64, 33)])
    def test_bit_identical_to_the_numpy_formulas(self, law, reference, size):
        got = law.sampler(stream(9, 3), size)
        want = reference(stream(9, 3), size)
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.01, 1.0 / 3.0, 0.7, 0.9999, 1e-6, 1.0 - 2.0**-30])
    def test_two_point_law_is_the_threshold_by_enumeration(self, p):
        # Every top byte once (65536 values of k each) and, where t's top
        # byte is a byte, that byte 65536 times with every low quarter-word
        # (one value of k each): P(hi) = t 2^-24 exactly.  At p = 1e-6 the
        # top byte is 0; at p = 1 - 2^-30, float32(p) = 1, t = 2^24, and no
        # byte ties.
        t = math.ceil(float(np.float32(p)) * 2**24)
        high, low = divmod(t, 1 << 16)
        if p == 1e-6:
            assert (high, low) == (0, 17)
        if p == 1.0 - 2.0**-30:
            assert (high, low) == (256, 0)
        top = [b for b in range(256) if b != high] + [high] * (1 << 16 if high < 256 else 0)
        count = len(top)
        padded = np.array(top + [0] * (-count % 8), dtype=np.uint8)
        script = [np.frombuffer(padded.tobytes(), dtype="<u8").astype(np.uint64)]
        if high < 256:
            quarters = np.arange(1 << 16, dtype="<u2")
            script.append(np.frombuffer(quarters.tobytes(), dtype="<u8").astype(np.uint64))
        law = two_point(p)
        rng = _ScriptedWords(*script)
        x = law.sampler(rng, count)
        assert rng.draws == []  # ceil(count/8) words, then ceil(ties/4)
        lo_value, hi_value = np.float32(law.support[0][0]), np.float32(law.support[0][1])
        assert x.dtype == np.float32 and set(np.unique(x)) <= {lo_value, hi_value}
        first = 255 if high < 256 else 256
        assert 65536 * np.count_nonzero(x[:first] == hi_value) + np.count_nonzero(
            x[first:] == hi_value) == t

    def test_uniform_draws_lie_on_the_lattice(self):
        # 2^23 points float32(i 2^-23 float32(2 sqrt(3))), -2^22 <= i < 2^22
        x = uniform().sampler(stream(5, 1), 1_000_000).astype(np.float64)
        step = 2.0**-23 * float(np.float32(2.0 * SQRT3))
        i = np.rint(x / step)
        assert np.all((-2.0**22 <= i) & (i < 2.0**22))
        np.testing.assert_array_equal((i * step).astype(np.float32), x.astype(np.float32))
        assert np.all((-SQRT3 <= x) & (x < SQRT3))
        assert uniform().sampler(_FixedWords(0), 2)[0] == -np.float32(SQRT3)
        assert uniform().sampler(_FixedWords(2**64 - 1), 2)[0] == np.float32((2**22 - 1) * step)

    def test_float32_exponential_moments(self):
        model = centered_exponential()
        x = model.sampler(stream(2024), 1_000_000).astype(np.float64)
        m = moment_summary(iid(model, 1))
        for vals, declared in [(x, 0.0), (x * x, 1.0), (np.abs(x) ** 3, m.abs3), (x**4, m.fourth)]:
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - declared) <= 4 * se

    def test_float32_exponential_follows_the_exp1_cdf(self):
        x = np.sort(centered_exponential().sampler(stream(2025), 1_000_000))
        cdf = -np.expm1(-(x.astype(np.float64) + 1.0))
        ranks = np.arange(1, x.size + 1) / x.size
        ks = max(float(np.max(ranks - cdf)), float(np.max(cdf - (ranks - 1.0 / x.size))))
        assert ks <= 1.95 / math.sqrt(x.size)  # the 0.1 % Kolmogorov quantile
        assert x.max() <= 33.0 * math.log(2.0) - 1.0 + 1e-5

    def test_float32_exponential_extremes(self):
        sample = centered_exponential().sampler
        top = sample(_FixedWords(0), 4)
        np.testing.assert_allclose(top, 33.0 * math.log(2.0) - 1.0, rtol=1e-6)
        assert np.all(sample(_FixedWords(2**64 - 1), 4) == np.float32(-1.0))


CATALOG_LAWS = [rademacher(), uniform(),
                *[two_point(p) for p in (0.2, 0.5, 0.01, 1.0 / 3.0, 0.7, 0.9999)],
                centered_exponential()]


@functools.lru_cache(maxsize=None)
def catalog_draws(name):
    """1,000,000 float32 draws of the catalog law ``name``, as float64."""
    law = next(law for law in CATALOG_LAWS if law.name == name)
    x = law.sampler(stream(77, 0), 1_000_000)
    assert x.dtype == np.float32
    return x.astype(np.float64)


class TestFloat32Draws:
    """Every catalog law draws float32 only, so its statistics are pinned
    here on the float32 values themselves."""

    @pytest.mark.parametrize("law", CATALOG_LAWS, ids=lambda law: law.name)
    @pytest.mark.parametrize("moment", ["mean", "second", "abs3", "fourth"])
    def test_draws_have_the_declared_moments(self, law, moment):
        x = catalog_draws(law.name)
        m = moment_summary(iid(law, 1))
        vals, declared = {
            "mean": (x, 0.0),
            "second": (x * x, 1.0),
            "abs3": (np.abs(x) ** 3, m.abs3),
            "fourth": (x**4, m.fourth),
        }[moment]
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - declared) <= 5 * se + 1e-9

    @pytest.mark.parametrize("law", CATALOG_LAWS, ids=lambda law: law.name)
    def test_draws_lie_in_the_support(self, law):
        x = catalog_draws(law.name)
        if law.support is not None:
            vals, _ = law.support
            assert set(np.unique(x)) == set(vals.astype(np.float32).astype(np.float64))
        elif law.name == "uniform":
            assert np.all(np.abs(x) <= float(np.float32(SQRT3)))
            assert x.min() < -SQRT3 + 1e-4 and x.max() > SQRT3 - 1e-4
        else:
            assert np.all(np.isfinite(x)) and x.min() >= -1.0


# E X^3 of each law with a sum sampler: the third central moment of a sum
# of m copies is m E X^3.
SUM_LAWS = [(rademacher(), 0.0), (two_point(0.2), (0.8 - 0.2) / math.sqrt(0.2 * 0.8)),
            (centered_exponential(), 2.0)]


class TestSumSamplers:
    @pytest.mark.parametrize("m", [1, 2, 7, 64, 2048])
    @pytest.mark.parametrize("law,third", SUM_LAWS, ids=lambda v: getattr(v, "name", ""))
    def test_sums_have_mean_zero_variance_m_and_third_moment_m_ex3(self, law, third, m):
        x = law.sum_sampler(stream(m, 5), m, 200_000)
        assert x.dtype == np.float64 and x.shape == (200_000,)
        for vals, want in [(x, 0.0), (x * x, float(m)), (x**3, m * third)]:
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - want) <= 5 * se

    @pytest.mark.parametrize("law", [law for law, _ in SUM_LAWS], ids=lambda law: law.name)
    def test_one_copy_lies_in_the_support(self, law):
        x = law.sum_sampler(stream(1, 6), 1, 100_000)
        if law.support is not None:
            assert set(np.unique(x)) == set(law.support[0])
        else:
            assert x.min() > -1.0

    @pytest.mark.parametrize("law", [uniform(), IIDModel("u", uniform().sampler, 1.3, 1.8)],
                             ids=["uniform", "user"])
    def test_other_laws_declare_none(self, law):
        assert law.sum_sampler is None

    def test_class_sums_read_the_block_stream_group_after_group(self):
        laws = (rademacher(), centered_exponential(), two_point(0.2))
        sums = sample_class_sums(laws, (5, 3, 9), 4, 8192, 100)
        rng = stream(4, 8192)
        want = np.column_stack([law.sum_sampler(rng, m, 100) for law, m in zip(laws, (5, 3, 9))])
        assert sums.shape == (100, 3) and sums.dtype == np.float64
        np.testing.assert_array_equal(sums, want)
        np.testing.assert_array_equal(sample_class_sums(laws, (5, 3, 9), 4, 8192, 100), sums)
        assert not np.array_equal(sample_class_sums(laws, (5, 3, 9), 4, 0, 100), sums)


class TestMomentSummaryInvariants:
    def test_fourth_below_one_rejected(self):
        # the law refuses it, so no summary can carry it
        with pytest.raises(InvalidMomentsError, match="declares fourth = 0.5; below 1"):
            IIDModel("low", uniform().sampler, abs3=1.0, fourth=0.5)

    @pytest.mark.parametrize("model,mixed", [
        (iid(uniform(), 8), False), (pattern((rademacher(), uniform()), 8), False),
        (ExchangeableModel(standardize_population(np.arange(1.0, 9.0))), True),
    ], ids=["iid", "independent", "exchangeable"])
    def test_mixed_fields_come_together(self, model, mixed):
        m = moment_summary(model)
        assert (m.mixed_4 is not None, m.mixed_var is not None) == (mixed, mixed)

    def test_user_model_without_moments_is_rejected(self):
        model = IIDModel("custom", lambda rng, size: rng.standard_normal(size, dtype=np.float32))
        with pytest.raises(MissingMomentsError, match="declares no abs3 "):
            moment_summary(iid(model, 1))
        with pytest.raises(MissingMomentsError, match="declares no diff_abs3 "):
            model.constant("diff_abs3")

    @pytest.mark.parametrize("name,value", [("abs3", 1.5), ("fourth", 2.0),
                                            ("diff_abs3", 3.0), ("fourth", 1.0 + 1e-11)])
    def test_a_declaration_its_support_contradicts_is_refused(self, name, value):
        # Rademacher's support gives abs3 = fourth = 1 and diff_abs3 = 4
        with pytest.raises(InvalidMomentsError, match=f"declares {name} = "):
            IIDModel("signs", rademacher().sampler,
                     **{"abs3": 1.0, "fourth": 1.0, name: value},
                     support=rademacher().support)

    def test_a_declaration_is_read_as_declared(self):
        law = two_point(0.3)
        vals, probs = law.support
        assert law.fourth != float(probs @ vals**4)  # they differ in the last bit
        assert law.constant("fourth") == law.fourth == moment_summary(iid(law, 1)).fourth
        diff3 = float(probs @ np.abs(vals[:, None] - vals) ** 3 @ probs)
        assert law.constant("diff_abs3") == diff3
        assert uniform().constant("diff_abs3") == uniform().diff_abs3

    def test_independent_moments_take_worst_coordinate(self):
        # whichever law the first coordinate draws from
        for index in ([0, 1], [1, 0]):
            m = moment_summary(IndependentModel((rademacher(), uniform()), np.array(index)))
            assert m.fourth == pytest.approx(9.0 / 5.0)
            assert m.abs3 == pytest.approx(3.0 * SQRT3 / 4.0)


class TestStandardizedLaws:
    @pytest.mark.parametrize("values,probs", [
        ([-2.0, 2.0], [0.5, 0.5]),  # second moment 4
        ([-1.0, 1.0], [0.25, 0.75]),  # mean 1/2
        ([-1.0, 1.0], [0.5, 0.6]),  # probabilities sum to 1.1
        ([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5]),  # a zero probability
        ([-1.0, 0.0, 1.0], [0.6, -0.2, 0.6]),  # a negative probability
        ([-1.0, 1.0 + 1e-11], [0.5, 0.5]),  # mean and second moment off by 5e-12, 1e-11
    ], ids=["wide", "shifted", "overweight", "zero-probability", "negative-probability",
            "beyond-rounding"])
    def test_a_support_that_is_not_standardized_is_refused(self, values, probs):
        with pytest.raises(InvalidMomentsError, match="needs a standardized support"):
            IIDModel("law", rademacher().sampler, support=(np.array(values), np.array(probs)))

    @pytest.mark.parametrize("name", ["abs3", "fourth"])
    def test_a_declared_constant_below_one_is_refused(self, name):
        with pytest.raises(InvalidMomentsError, match=f"declares {name} = 0.99; below 1"):
            IIDModel("law", uniform().sampler, **{name: 0.99})
        # EX^4 >= 1 and E|X|^3 >= 1 may miss by rounding, 1e-9
        assert getattr(IIDModel("law", uniform().sampler, **{name: 1.0 - 1e-10}), name) < 1.0

    @pytest.mark.parametrize("p", [1e-9, 1e-3, 0.2, 0.3, 0.5, 0.77, 1.0 - 1e-9])
    def test_catalog_supports_are_standardized(self, p):
        for law in (rademacher(), two_point(p)):
            vals, probs = law.support
            assert abs(float(probs @ vals)) <= sources.SUPPORT_TOL
            assert abs(float(probs @ vals**2) - 1.0) <= sources.SUPPORT_TOL

    def test_a_standardized_support_within_rounding_is_accepted(self):
        third = 1.0 / 3.0
        law = IIDModel("three", rademacher().sampler,
                       support=(np.array([-math.sqrt(1.5), 0.0, math.sqrt(1.5)]),
                                np.array([third, third, third])))
        assert law.constant("fourth") == pytest.approx(1.5, rel=1e-15)


class TestExchangeableMoments:
    def test_sign_population(self):
        m = exchangeable_moments(ExchangeableModel(np.array([-1.0, -1.0, 1.0, 1.0])))
        assert m.mixed_4 == 1.0
        assert m.mixed_var == 0.0

    def test_three_against_one_population(self):
        pop = standardize_population([-SQRT3, 1 / SQRT3, 1 / SQRT3, 1 / SQRT3])
        m = exchangeable_moments(ExchangeableModel(pop))
        assert m.mixed_4 == pytest.approx(-1.0 / 3.0, abs=1e-14)
        assert m.mixed_4 == pytest.approx(enumerated_mixed_4(pop), abs=1e-14)

    def test_ramp_population_against_enumeration(self):
        pop = standardize_population(np.arange(1.0, 9.0))
        m = exchangeable_moments(ExchangeableModel(pop))
        assert m.mixed_4 == pytest.approx(enumerated_mixed_4(pop), abs=1e-13)
        assert m.mixed_var == pytest.approx(enumerated_mixed_var(pop), abs=1e-13)

    def test_irregular_population_against_enumeration(self):
        pop = standardize_population([-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0])
        m = exchangeable_moments(ExchangeableModel(pop))
        want = (enumerated_mixed_4(pop), enumerated_mixed_var(pop))
        assert (m.mixed_4, m.mixed_var) == pytest.approx(want, abs=1e-13)

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=8), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_power_sum_route_equals_enumeration(self, vals, salt):
        vals = np.array(vals) + np.random.default_rng(salt).standard_normal(len(vals))
        if np.ptp(vals) < 1e-3:
            return
        pop = standardize_population(vals)
        m = exchangeable_moments(ExchangeableModel(pop))
        assert m.mixed_4 == pytest.approx(enumerated_mixed_4(pop), abs=1e-12)
        assert m.mixed_var == pytest.approx(enumerated_mixed_var(pop), abs=1e-12)

    def test_unit_square_population_kills_mixed_var(self):
        # a_r^2 = 1 for every r forces E (X1^2-1)(X2^2-1) = 0 exactly
        pop = np.tile([-1.0, 1.0], 4)
        m = exchangeable_moments(ExchangeableModel(pop))
        assert m.mixed_var == 0.0

    def test_small_population_rejected(self):
        with pytest.raises(InvalidInputError):
            exchangeable_moments(ExchangeableModel(np.array([-1.0, 1.0])))

    def test_empirical_mixed_moments(self):
        # permutation sampling reproduces the closed-form mixed moments
        pop = standardize_population(np.arange(1.0, 9.0))
        model = ExchangeableModel(pop)
        m = exchangeable_moments(model)
        perms = sample_block(model, seed=31, start=0, count=1_000_000)
        prod4 = perms[:, 0] * perms[:, 1] * perms[:, 2] * perms[:, 3]
        se4 = prod4.std(ddof=1) / math.sqrt(prod4.size)
        assert abs(prod4.mean() - m.mixed_4) <= 4 * se4
        prod_var = (perms[:, 0] ** 2 - 1.0) * (perms[:, 1] ** 2 - 1.0)
        se_var = prod_var.std(ddof=1) / math.sqrt(prod_var.size)
        assert abs(prod_var.mean() - m.mixed_var) <= 4 * se_var


class TestSampling:
    @pytest.mark.parametrize("draw", [
        lambda count: next(sample_tiles(iid(rademacher(), 8), 1, 0, count)),
        lambda count: sample_class_sums((rademacher(),), (8,), 1, 0, count),
        lambda count: sample_rank_bins(np.ones((8, 1), dtype=np.float32), (4, 4), 1, 0, count),
    ], ids=["tiles", "class-sums", "rank-bins"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_is_refused(self, draw, count):
        with pytest.raises(InvalidInputError, match="block count must be positive"):
            draw(count)

    def test_rademacher_support(self):
        x = sample_block(iid(rademacher(), 64), seed=3, start=0, count=1)
        assert set(np.unique(x)) <= {-1.0, 1.0}

    def test_exchangeable_samples_are_permutations(self):
        pop = np.array([-1.0, -1.0, 1.0, 1.0])
        model = ExchangeableModel(pop)
        for start in range(10):
            x = sample_block(model, seed=9, start=start, count=1)[0]
            assert sorted(x) == sorted(pop)

    def test_fixed_seed_reproduces(self):
        model = iid(uniform(), 32)
        np.testing.assert_array_equal(
            sample_block(model, seed=5, start=0, count=1),
            sample_block(model, seed=5, start=0, count=1),
        )

    def test_iid_needs_length(self):
        # a bare law has no n: iid(law, n) is its model of n coordinates
        with pytest.raises(InvalidInputError, match=r"iid\(law, n\)"):
            sample_block(rademacher(), seed=0, start=0, count=1)

    @pytest.mark.parametrize("model", [iid(uniform(), 8),
                                       ExchangeableModel(np.tile([-1.0, 1.0], 4))],
                             ids=["uniform", "exchangeable"])
    def test_streams_keyed_by_seed_and_index_do_not_collide(self, model):
        # seed XOR index keys made these two blocks identical
        a = sample_block(model, seed=0, start=8192, count=4)
        b = sample_block(model, seed=8192, start=0, count=4)
        assert not np.array_equal(a, b)

    def test_stream_rejects_seeds_outside_the_key_range(self):
        for seed, index in [(-1, 0), (2**64, 0), (0, 2**64)]:
            with pytest.raises(InvalidInputError):
                stream(seed, index)

    def test_block_shape_and_determinism(self):
        model = iid(uniform(), 16)
        a = sample_block(model, seed=7, start=4096, count=100)
        b = sample_block(model, seed=7, start=4096, count=100)
        assert a.shape == (100, 16)
        np.testing.assert_array_equal(a, b)

    def test_block_dtype(self):
        x = sample_block(iid(rademacher(), 24), seed=1, start=0, count=8)
        assert x.dtype == np.float32
        assert set(np.unique(x)) <= {np.float32(-1.0), np.float32(1.0)}

    def test_exchangeable_block_rows_are_permutations(self):
        pop = standardize_population(np.arange(1.0, 7.0))
        block = sample_block(ExchangeableModel(pop), seed=2, start=0, count=50)
        for row in block:
            np.testing.assert_allclose(np.sort(row), np.sort(pop), atol=0)

    def test_independent_block_columns_follow_their_law(self):
        model = IndependentModel((rademacher(), uniform()), np.array([0, 1, 0]))
        block = sample_block(model, seed=11, start=0, count=200)
        assert set(np.unique(block[:, 0])) <= {-1.0, 1.0}
        assert np.all(np.abs(block[:, 1]) <= SQRT3)

    def test_model_dimension_mismatch_rejected(self):
        pop = standardize_population(np.arange(1.0, 7.0))
        with pytest.raises(InvalidInputError, match="model dimension does not match"):
            sources.projections(np.eye(5)[:2], ExchangeableModel(pop))


def stream_keys(words, n, key=np.uint32):
    """The first n keys of the unsigned ``key`` type in each row of 64-bit
    stream words: 32-bit halves or 16-bit quarters, least significant
    first (all of them for n = None)."""
    bits = 8 * np.dtype(key).itemsize
    parts = (words[:, :, None] >> np.arange(0, 64, bits, dtype=np.uint64)) & np.uint64(
        (1 << bits) - 1)
    return parts.astype(key).reshape(words.shape[0], -1)[:, :n]


def stream_words(keys):
    """Rows of 32- or 16-bit keys packed back into 64-bit words, least
    significant first; the inverse of stream_keys for whole words."""
    bits = 8 * keys.dtype.itemsize
    parts = keys.astype(np.uint64).reshape(keys.shape[0], -1, 64 // bits)
    return np.bitwise_or.reduce(parts << np.arange(0, 64, bits, dtype=np.uint64), axis=2)


def sort_key_permutations(halves):
    """The permutations that tie-free rows of 32-bit half-words stand for:
    each row orders its coordinates by their half-words."""
    assert np.all(np.diff(np.sort(halves, axis=1), axis=1) > 0), "a row ties"
    return np.argsort(halves, axis=1)


def whole_block_reference(model, seed, start, count, n):
    """The block drawn into one (count, n) array.  Exchangeable rows take
    ceil(n/2) stream words, one 32-bit half per coordinate, and sort by
    those halves.  A model of one law is one row-major sampler call per
    TILE_ROWS rows, as the reads of a two-point law's tied bytes follow
    each call's bytes.  Models of several laws go LAW_ROWS rows at a time
    and, within those rows, law by law in the order of ``laws``, one
    sampler call per law for all of its coordinates in index order."""
    rng = stream(seed, start)
    if isinstance(model, ExchangeableModel):
        words = rng.bit_generator.random_raw((count, (n + 1) // 2))
        return model.population.astype(np.float32)[sort_key_permutations(stream_keys(words, n))]
    if len(model.laws) == 1:
        return np.concatenate([model.laws[0].sampler(rng, (min(TILE_ROWS, count - lo), n))
                               for lo in range(0, count, TILE_ROWS)])
    out = np.empty((count, n), dtype=np.float32)
    for lo in range(0, count, LAW_ROWS):
        rows = slice(lo, min(lo + LAW_ROWS, count))
        for j, law in enumerate(model.laws):
            index = [r for r in range(n) if model.law_index[r] == j]
            out[rows, index] = law.sampler(rng, (len(index), rows.stop - lo)).T
    return out


def tile_test_model(kind, n):
    if kind == "independent":
        laws = (rademacher(), uniform(), two_point(0.3), centered_exponential())
        return IndependentModel(laws, np.arange(n) % len(laws))
    if kind == "exchangeable":
        return ExchangeableModel(standardize_population(np.arange(1.0, n + 1.0)))
    if kind == "exchangeable-repeated":
        return ExchangeableModel(standardize_population(np.arange(n) % 3))
    return iid({"rademacher": rademacher, "uniform": uniform, "two_point": two_point,
                "exponential": centered_exponential}[kind](), n)


class TestTiles:
    @pytest.mark.parametrize("kind", ["rademacher", "uniform", "two_point", "exponential",
                                      "independent", "exchangeable", "exchangeable-repeated"])
    @pytest.mark.parametrize("n", [7, 24, 33])
    def test_tiles_concatenate_to_the_whole_block(self, kind, n):
        model = tile_test_model(kind, n)
        count = 2 * TILE_ROWS + 22
        ref = whole_block_reference(model, 13, 8192, count, n)
        tiles = list(sample_tiles(model, 13, 8192, count))
        assert all(t.dtype == np.float32 and t.shape[1] == n for t in tiles)
        assert [t.shape[0] for t in tiles] == [TILE_ROWS, TILE_ROWS, 22]
        np.testing.assert_array_equal(np.concatenate(tiles), ref)

    def test_independent_laws_are_drawn_in_fixed_row_pieces(self):
        # 47 rademacher, 47 two_point(0.3) and 45 exponential coordinates;
        # coordinate 5 holds a second two_point(0.3) object, which is a law
        # of its own; 300 rows take a full LAW_ROWS piece and a short one
        laws = (rademacher(), two_point(0.3), centered_exponential(), two_point(0.3))
        index = np.arange(140) % 3
        index[5] = 3
        model = IndependentModel(laws, index)
        count = LAW_ROWS + 44
        ref = whole_block_reference(model, 21, 0, count, 140)
        tiles = list(sample_tiles(model, 21, 0, count))
        full = LAW_ROWS // TILE_ROWS
        assert [t.shape for t in tiles] == [(TILE_ROWS, 140)] * full + [(44, 140)]
        np.testing.assert_array_equal(np.concatenate(tiles), ref)

    def test_one_law_model_is_one_row_major_sampler_call(self):
        # the draw order of the i.i.d. model, not the LAW_ROWS column pieces
        # of a model of several laws
        model = IndependentModel((uniform(),), np.zeros(16, dtype=np.intp))
        block = sample_block(model, 4, 64, LAW_ROWS + 100)
        np.testing.assert_array_equal(block, uniform().sampler(stream(4, 64), (LAW_ROWS + 100, 16)))
        rng = stream(4, 64)
        first = uniform().sampler(rng, (16, LAW_ROWS))
        rest = uniform().sampler(rng, (16, 100))
        assert not np.array_equal(block, np.concatenate([first.T, rest.T]))


class _CountingWords:
    """Stands in for a generator: reads a real stream, recording the number
    of words each random_raw call takes."""

    def __init__(self, rng):
        self.bit_generator = self
        self.rng = rng
        self.reads = []

    def random_raw(self, size):
        words = self.rng.bit_generator.random_raw(size)
        self.reads.append(words.size)
        return words


class TestStreamBudget:
    @pytest.mark.parametrize("law", [rademacher(), two_point(0.2), uniform(),
                                     centered_exponential()], ids=lambda law: law.name)
    @pytest.mark.parametrize("path", ["projections", "tiles"])
    def test_a_tile_reads_only_the_words_its_law_needs(self, monkeypatch, law, path):
        # A 64-row tile of n coordinates reads n words under Rademacher, 8n
        # and then ceil(ties/4) under a two-point law, 32n under the uniform
        # and the exponential.
        n, streams = 1000, []

        def counting(seed, index):
            streams.append(_CountingWords(stream(seed, index)))
            return streams[-1]

        monkeypatch.setattr(sources, "stream", counting)
        model = iid(law, n)
        if path == "projections":
            rows = np.random.default_rng(1).standard_normal((2, n))
            sources.projections(rows, model).draw(4, 0, TILE_ROWS)
        else:
            next(sample_tiles(model, 4, 0, TILE_ROWS))
        want = [{"rademacher": n, "uniform": 32 * n, "exponential": 32 * n}.get(law.name, 8 * n)]
        if law.name == "two_point(0.2)":
            top = stream(4, 0).bit_generator.random_raw(8 * n).astype("<u8").view(np.uint8)
            ties = np.count_nonzero(top == math.ceil(float(np.float32(0.2)) * 2**24) >> 16)
            assert ties > 0
            want.append((ties + 3) // 4)
        assert [rng.reads for rng in streams] == [want]

    @pytest.mark.parametrize("n, sizes, redrawn", [(1000, (500, 500), False),
                                                   (8192, (2048,) * 4, True),
                                                   (16385, (5000, 5000, 6385), False)],
                             ids=["16-bit", "16-bit-redrawn", "32-bit"])
    def test_a_rank_bin_tile_reads_one_row_of_words_per_row_drawn(self, monkeypatch, n, sizes,
                                                                   redrawn):
        # A 64-row tile of n items in G bins reads 64 ceil(n/4) words while
        # (G - 1) n <= 2^15 (16-bit keys) and 64 ceil(n/2) above (32-bit),
        # then one row's words per redrawn row
        per_row = -(-n // 4) if (len(sizes) - 1) * n <= 2**15 else -(-n // 2)
        streams = []

        def counting(seed, index):
            streams.append(_CountingWords(stream(seed, index)))
            return streams[-1]

        monkeypatch.setattr(sources, "stream", counting)
        sample_rank_bins(np.ones((n, 1), dtype=np.float32), sizes, 4, 0, TILE_ROWS)
        _, rows = rank_bin_draws(stream(4, 0), n, sizes, TILE_ROWS)
        assert rows[0] == TILE_ROWS and (len(rows) > 1) == redrawn
        assert [rng.reads for rng in streams] == [[per_row * m for m in rows]]


class _ScriptedWords:
    """Stands in for a generator: random_raw hands out the given word arrays
    in order, checking that each request has the shape of the next one."""

    def __init__(self, *draws):
        self.bit_generator = self
        self.draws = list(draws)

    def random_raw(self, size):
        words = self.draws.pop(0)
        assert words.shape == (size if isinstance(size, tuple) else (size,))
        return words.copy()


class TestPermutationSampler:
    def test_all_permutations_of_five_are_equally_likely(self):
        n, count = 5, 120 * 500
        pop = standardize_population(np.arange(1.0, n + 1.0))
        block = sample_block(ExchangeableModel(pop), 41, 0, count)
        perms = np.searchsorted(pop.astype(np.float32), block)  # pop is increasing
        assert np.all(np.sort(perms, axis=1) == np.arange(n))
        codes = perms @ (n ** np.arange(n))
        counts = np.array([np.count_nonzero(codes == np.dot(p, n ** np.arange(n)))
                           for p in itertools.permutations(range(n))])
        assert counts.sum() == count
        expected = count / 120
        chi2 = float(np.sum((counts - expected) ** 2) / expected)
        assert chi2 <= 172.4  # the 0.1 % upper quantile of chi^2 with 119 dof

    @pytest.mark.parametrize("values", ["distinct", "repeated"])
    @pytest.mark.parametrize("n", [2, 5, 64, 1000])
    def test_rows_are_permutations_of_the_float32_population(self, n, values):
        base = np.arange(1.0, n + 1.0) if values == "distinct" else np.arange(n) % 3
        pop = standardize_population(base)
        block = sample_block(ExchangeableModel(pop), 6, 8192, 3 * TILE_ROWS + 5)
        assert block.dtype == np.float32 and block.shape == (3 * TILE_ROWS + 5, n)
        want = np.sort(pop.astype(np.float32))
        np.testing.assert_array_equal(np.sort(block, axis=1), np.broadcast_to(want, block.shape))

    def test_tied_rows_are_redrawn_from_the_next_words(self, monkeypatch):
        n = 6  # three stream words per row
        pop = standardize_population(np.arange(1.0, n + 1.0))
        first = stream_keys(stream(3).bit_generator.random_raw((4, 3)), n)
        first[1, 5] = first[1, 2]  # indices 2 and 5 tie
        first[3] = first[3, 0]  # one half-word throughout: ties everywhere
        first[2, 5] = first[2, 1] ^ np.uint32(1)  # differs in the lowest bit only
        second = stream_keys(stream(4).bit_generator.random_raw((2, 3)), n)  # rows 1 and 3
        second[1, 0] = second[1, 3]  # row 3 ties again
        third = stream_keys(stream(5).bit_generator.random_raw((1, 3)), n)
        script = _ScriptedWords(*map(stream_words, (first, second, third)))
        monkeypatch.setattr(sources, "stream", lambda seed, index: script)
        (tile,) = sample_tiles(ExchangeableModel(pop), 0, 0, 4)
        assert script.draws == []
        kept = np.vstack([first[0], second[0], first[2], third[0]])
        np.testing.assert_array_equal(tile, pop.astype(np.float32)[sort_key_permutations(kept)])

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 1500), rows=st.integers(1, 70), seed=st.integers(0, 2**32),
           ties=st.integers(0, 4), near=st.integers(0, 4),
           gap_keys=st.sampled_from([1, 7, 1000, sources._GAP_KEYS]))
    def test_tied_rows_are_the_rows_with_equal_neighbouring_high_halves(self, n, rows, seed,
                                                                       ties, near, gap_keys):
        rng = np.random.default_rng(seed)
        pop = np.arange(n, dtype=np.float32)
        keys = sources._sorted_keys(stream(seed), pop, rows)
        high = keys.view(np.uint32)[:, sources._HIGH_HALF::2]
        for _ in range(ties):  # equal high halves
            r, j = rng.integers(rows), rng.integers(n - 1)
            high[r, j + 1] = high[r, j]
        for _ in range(near):  # high halves one apart: a gap below 2^32, no tie
            r, j = rng.integers(rows), rng.integers(n - 1)
            high[r, j + 1] = high[r, j] + np.uint32(1)
        keys.sort(axis=1)
        every_pair = np.flatnonzero((high[:, 1:] == high[:, :-1]).any(axis=1))
        with pytest.MonkeyPatch.context() as patch:  # the gaps in pieces of gap_keys keys
            patch.setattr(sources, "_GAP_KEYS", gap_keys)
            np.testing.assert_array_equal(sources._tied_rows(keys), every_pair)

    def test_populations_above_the_limit_are_refused_before_drawing(self, monkeypatch):
        limit = sources.MAX_PERMUTATION_N
        assert limit == 65_536
        pop = standardize_population(np.arange(1.0, limit + 1.0))
        (row,) = sample_block(ExchangeableModel(pop), 2, 0, 1)
        np.testing.assert_array_equal(np.sort(row), pop.astype(np.float32))
        model = ExchangeableModel(standardize_population(np.arange(1.0, limit + 2.0)))
        monkeypatch.setattr(sources, "stream", lambda seed, index: _ScriptedWords())
        with pytest.raises(InvalidInputError, match="at most 65536 values, got 65537"):
            sample_block(model, 0, 0, 1)
        with pytest.raises(InvalidInputError, match="at most 65536"):
            next(sample_tiles(model, 0, 0, TILE_ROWS))


def rank_bin_reference(halves, weights, sizes):
    """Per-bin weight sums of tie-free rows of keys: each row orders its
    items by key, and bin c takes the items of rank sizes[0] + ... +
    sizes[c-1] up to the next cut."""
    edges = np.concatenate([[0], np.cumsum(sizes)])
    order = np.argsort(halves, axis=1, kind="stable")
    return np.stack([np.stack([weights[row[lo:hi]].astype(np.float64).sum(axis=0)
                               for lo, hi in zip(edges[:-1], edges[1:])])
                     for row in order])


def rank_key(n, sizes):
    """The key type of rank bins of n items in G = len(sizes) bins: 16-bit
    while (G - 1) n <= 2^15, where a row ties across a cut with probability
    at most about 1 - exp(-1/4), else 32-bit."""
    return np.uint16 if (len(sizes) - 1) * n <= 2**15 else np.uint32


def rank_bin_draws(rng, n, sizes, count):
    """The tie-free key rows of a rank-bin block, drawn TILE_ROWS rows at a
    time: a row reads ceil(n/4) stream words for 16-bit keys and ceil(n/2)
    for 32-bit ones, and the rows of a tile whose sorted keys tie across a
    cut are redrawn, in row order, until none does.  Also the number of
    rows each read of the stream drew."""
    key = rank_key(n, sizes)
    per_row = -(-n // (8 // np.dtype(key).itemsize))
    cuts = np.cumsum(sizes)[:-1]
    rows, reads = [], []
    for lo in range(0, count, TILE_ROWS):
        tile = [None] * min(TILE_ROWS, count - lo)
        pending = list(range(len(tile)))
        while pending:
            reads.append(len(pending))
            keys = stream_keys(rng.bit_generator.random_raw((len(pending), per_row)), n, key)
            tied = []
            for r, row in zip(pending, keys):
                ordered = np.sort(row)
                if np.any(ordered[cuts - 1] == ordered[cuts]):
                    tied.append(r)
                else:
                    tile[r] = row
            pending = tied
        rows.extend(tile)
    return np.array(rows), reads


def force_tie(row, low_rank, high_rank):
    """Set the key of rank ``high_rank`` in a row to the key of rank
    ``low_rank``."""
    order = np.argsort(row, kind="stable")
    row[order[high_rank]] = row[order[low_rank]]


class TestRankBins:
    # 2^j: every set of items has its own weight sum, the sum of its bits
    BITS = (2.0 ** np.arange(6)).astype(np.float32)[:, None]

    @pytest.mark.parametrize("n", [7, 24, 33, 16384, 16385])
    @pytest.mark.parametrize("sizes", [(3, None), (1, 2, None)], ids=["two-bins", "three-bins"])
    def test_bins_are_the_ranks_of_the_stream_keys(self, n, sizes):
        # 16-bit keys up to (G - 1) n = 2^15, three bins of 16384 items at
        # the limit, where about a fifth of the rows are redrawn; 32-bit
        # keys for three bins of 16385 items
        sizes = (*sizes[:-1], n - sum(sizes[:-1]))
        weights = np.random.default_rng(n).standard_normal((n, 2)).astype(np.float32)
        count = 2 * TILE_ROWS + 22
        keys, _ = rank_bin_draws(stream(13, 8192), n, sizes, count)
        want = rank_bin_reference(keys, weights, sizes)
        got = sample_rank_bins(weights, sizes, 13, 8192, count)
        assert got.shape == (count, len(sizes), 2) and got.dtype == np.float64
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * math.sqrt(n))

    def test_every_ordered_partition_of_six_values_is_equally_likely(self):
        # subset sums of 1, 2, 4, ..., 32 are distinct, so each bin's sum of
        # standardized values gives back its set of values
        values = 2.0 ** np.arange(6)
        pop = standardize_population(values)
        count = 90 * 200
        sums = sample_rank_bins(pop.astype(np.float32)[:, None], (2, 2, 2), 41, 0, count)[:, :, 0]
        members = sums * values.std() + 2 * values.mean()  # each bin's sum of 2^j
        codes = np.rint(members).astype(np.int64)
        assert np.max(np.abs(members - codes)) < 1e-4
        assert np.all(codes.sum(axis=1) == 63)
        assert all(bin(code).count("1") == 2 for code in codes.ravel())
        _, counts = np.unique(codes[:, 0] * 64 + codes[:, 1], return_counts=True)
        assert counts.size == 90 and counts.sum() == count
        expected = count / 90
        assert float(np.sum((counts - expected) ** 2) / expected) <= 136.0  # chi^2_89, 0.1 %

    def test_every_three_subset_of_six_positions_is_equally_likely(self):
        # the positions that take the upper of two values, weighted by 2^j
        count = 20 * 200
        sums = sample_rank_bins(self.BITS, (3, 3), 42, 0, count)[:, :, 0]
        codes = np.rint(sums).astype(np.int64)
        np.testing.assert_array_equal(sums, codes)
        assert np.all(codes.sum(axis=1) == 63)
        _, counts = np.unique(codes[:, 1], return_counts=True)
        assert counts.size == 20 and counts.sum() == count
        expected = count / 20
        assert float(np.sum((counts - expected) ** 2) / expected) <= 43.8  # chi^2_19, 0.1 %

    @pytest.mark.parametrize("sizes", [(300, 724), (128, 384, 256, 256)])
    def test_bin_sums_have_the_exact_moments(self, sizes):
        # Y_c, the sum of a standardized population over bin c: E Y_c = 0,
        # Var Y_c = m_c (n - m_c) / (n - 1), Cov(Y_c, Y_d) = -m_c m_d / (n - 1)
        n, blocks = 1024, 25
        pop = standardize_population(np.arange(1.0, n + 1.0) ** 2)
        weights = pop.astype(np.float32)[:, None]
        y = np.concatenate([sample_rank_bins(weights, sizes, 3, 8192 * b, 8192)[:, :, 0]
                            for b in range(blocks)])
        m = np.array(sizes, dtype=float)
        cov = -np.outer(m, m) / (n - 1) + np.diag(m) * n / (n - 1)
        np.testing.assert_allclose(cov.sum(axis=1), 0.0, atol=1e-9)
        root = math.sqrt(y.shape[0])
        assert np.all(np.abs(y.mean(axis=0)) <= 5 * y.std(axis=0) / root)
        products = y[:, :, None] * y[:, None, :]
        se = products.std(axis=0) / root
        assert np.all(np.abs(products.mean(axis=0) - cov) <= 5 * se)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 300), rows=st.integers(1, 70), seed=st.integers(0, 2**32),
           spread=st.sampled_from([3, 50, 2**32]), bins=st.integers(2, 6),
           key=st.sampled_from([np.uint16, np.uint32]), data=st.data())
    def test_boundary_ties_are_the_rows_with_equal_keys_across_a_cut(self, n, rows, seed,
                                                                   spread, bins, key, data):
        # keys from a narrow range tie often, inside bins and across cuts
        spread = min(spread, np.iinfo(key).max + 1)
        keys = np.random.default_rng(seed).integers(0, spread, (rows, n), dtype=np.uint64)
        keys = keys.astype(key)
        cuts = np.array(sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=1,
                                                 max_size=min(bins - 1, n - 1)))))
        high, tied = sources._rank_thresholds(keys, cuts)
        ordered = np.sort(keys, axis=1)
        assert high.dtype == key
        np.testing.assert_array_equal(high, ordered[:, cuts])
        np.testing.assert_array_equal(tied, (ordered[:, cuts - 1] == ordered[:, cuts]).any(axis=1))

    @pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 3), (3, 16379, 3)],
                             ids=["16-bit-three-bins", "16-bit-two-bins", "32-bit"])
    def test_rows_tied_across_a_cut_are_redrawn_from_the_next_words(self, monkeypatch, sizes):
        n, key = sum(sizes), rank_key(sum(sizes), sizes)
        per_row = -(-n // (8 // np.dtype(key).itemsize))  # 2 words for n = 6
        cut, last = sizes[0], n - sizes[-1]
        first = stream_keys(stream(3).bit_generator.random_raw((4, per_row)), None, key)
        force_tie(first[1, :n], cut - 1, cut)  # across the first cut
        force_tie(first[2, :n], 0, 1)  # inside the first bin: kept
        force_tie(first[3, :n], last - 1, last)  # across the last cut
        second = stream_keys(stream(4).bit_generator.random_raw((2, per_row)), None, key)
        force_tie(second[1, :n], cut - 1, cut)  # row 3 ties again
        third = stream_keys(stream(5).bit_generator.random_raw((1, per_row)), None, key)
        script = _ScriptedWords(*map(stream_words, (first, second, third)))
        monkeypatch.setattr(sources, "stream", lambda seed, index: script)
        weights = np.random.default_rng(n).standard_normal((n, 1)).astype(np.float32)
        sums = sample_rank_bins(weights, sizes, 0, 0, 4)
        assert script.draws == []
        kept = np.vstack([first[0], second[0], first[2], third[0]])[:, :n]
        np.testing.assert_allclose(sums, rank_bin_reference(kept, weights, sizes),
                                   rtol=0, atol=1e-5 * math.sqrt(n))

    def test_populations_above_the_limit_are_refused_before_drawing(self, monkeypatch):
        monkeypatch.setattr(sources, "stream", lambda seed, index: _ScriptedWords())
        weights = np.ones((sources.MAX_PERMUTATION_N + 1, 1), dtype=np.float32)
        with pytest.raises(InvalidInputError, match="at most 65536 values, got 65537"):
            sample_rank_bins(weights, (1, sources.MAX_PERMUTATION_N), 0, 0, 1)


class TestPopulations:
    def test_standardization_is_exact(self):
        pop = standardize_population(np.random.default_rng(3).standard_normal(100) * 7 + 2)
        assert abs(pop.sum()) <= 1e-12
        assert abs(pop @ pop - 100) <= 1e-12

    def test_two_valued_sum_of_squares_is_within_a_few_ulps(self):
        # a dot product of many equal squares misses n by tens of ulps here
        for n in range(2, 4000):
            for m in {1, max(1, n // 3)}:
                raw = np.zeros(n)
                raw[:m] = 1.0
                pop = standardize_population(raw)
                assert abs(math.fsum(pop * pop) - n) <= 8 * np.spacing(float(n)), (n, m)

    def test_constant_population_rejected(self):
        with pytest.raises(InvalidInputError):
            standardize_population([2.0, 2.0, 2.0])

    @pytest.mark.parametrize("values", [
        [1e200, -1e200, 3e200, 0.0],
        [1e154, -1e154, 0.0],  # the squares overflow, the values do not
        [1.7e308, 1.7e308, -1.7e308, -1.7e308],  # so does the sum
    ])
    def test_population_whose_squares_overflow_is_rejected(self, values):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="too large"):
                standardize_population(values)

    def test_large_population_below_the_overflow_is_standardized(self):
        pop = standardize_population([1e153, -1e153, 0.0])
        assert list(pop) == [math.sqrt(1.5), -math.sqrt(1.5), 0.0]

    def test_exchangeable_model_requires_standardized(self):
        with pytest.raises(InvalidInputError):
            ExchangeableModel(np.array([1.0, 2.0, 3.0, 4.0]))

    @pytest.mark.parametrize("n", [4096, 8192])
    def test_large_ramp_is_accepted(self, n):
        # the sum of squares misses n by 1.8e-12 at n = 4096
        ExchangeableModel(standardize_population(np.arange(1.0, n + 1.0)))

    @pytest.mark.parametrize("n", [2, 4096, 8192])
    def test_slightly_off_population_is_rejected(self, n):
        pop = standardize_population(np.arange(1.0, n + 1.0))
        for off in (pop + 1e-9, pop * (1.0 + 1e-9)):
            with pytest.raises(InvalidInputError, match="standardized"):
                ExchangeableModel(off)

    def test_load_population_warns_on_adjustment(self, tmp_path):
        path = tmp_path / "pop.txt"
        path.write_text("1.0\n2.0\n3.0\n4.0\n")
        with pytest.warns(UserWarning, match="standardization"):
            pop = load_population(path)
        assert abs(pop.sum()) <= 1e-12

    def test_load_population_quiet_when_already_standard(self, tmp_path):
        pop = standardize_population(np.arange(1.0, 9.0))
        path = tmp_path / "pop.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in pop))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_population(path)
        np.testing.assert_allclose(loaded, pop, atol=1e-14)

    def test_load_population_too_short(self, tmp_path):
        path = tmp_path / "pop.txt"
        path.write_text("1.0\n")
        with pytest.raises(InvalidInputError):
            load_population(path)


class TestIndependentModel:
    def test_laws_and_law_index_are_kept(self):
        laws = (rademacher(), uniform())
        model = IndependentModel(laws, [1, 0, 1])
        assert model.laws == laws and model.n == 3
        assert model.law_index.dtype == np.intp and model.law_index.tolist() == [1, 0, 1]
        with pytest.raises(ValueError):
            model.law_index[0] = 0

    def test_the_caller_keeps_a_writable_index(self):
        index = np.zeros(4, dtype=np.intp)
        IndependentModel((uniform(),), index)
        index[0] = 0

    @pytest.mark.parametrize("laws, index, message", [
        ((rademacher(),) * 2, [0, 1], "distinct law objects"),
        ((rademacher(), uniform()), [0, 0], "every position in 0..1"),
        ((rademacher(),), [0, 1], "every position in 0..0"),
        ((rademacher(),), [0, -1], "every position in 0..0"),
        ((rademacher(),), [], "non-empty 1-D array of integers"),
        ((rademacher(),), [[0, 0], [0, 0]], "non-empty 1-D array of integers"),
        ((rademacher(),), [0.0, 0.0], "non-empty 1-D array of integers"),
    ], ids=["repeated-law", "unused-law", "index-past-the-end", "negative-index",
            "empty-index", "2-d-index", "float-index"])
    def test_malformed_model_is_refused(self, laws, index, message):
        with pytest.raises(InvalidInputError, match=message):
            IndependentModel(laws, np.array(index))

    @pytest.mark.parametrize("n", [0, -3])
    def test_iid_needs_a_coordinate(self, n):
        with pytest.raises(InvalidInputError, match="n >= 1"):
            iid(uniform(), n)

    def test_family_is_measured(self):
        law = uniform()
        assert sources.family(iid(law, 5)) == sources.IID
        assert sources.family(IndependentModel((law,), np.zeros(3, dtype=int))) == sources.IID
        assert sources.family(IndependentModel((law, uniform()), [0, 1])) == sources.INDEPENDENT
        assert sources.family(ExchangeableModel(np.array([-1.0, 1.0]))) == sources.EXCHANGEABLE

    @pytest.mark.parametrize("call", [
        lambda law: sources.family(law),
        lambda law: moment_summary(law),
        lambda law: sources.projections(np.eye(4)[:2], law),
    ], ids=["family", "moment_summary", "projections"])
    def test_a_bare_law_is_not_a_model(self, call):
        with pytest.raises(InvalidInputError, match=r"iid\(law, n\)"):
            call(rademacher())


class TestDispatch:
    def test_moment_summary_dispatch(self):
        assert moment_summary(iid(rademacher(), 4)).fourth == 1.0
        assert moment_summary(IndependentModel((rademacher(),), np.array([0]))).fourth == 1.0
        pop = standardize_population(np.arange(1.0, 7.0))
        assert moment_summary(ExchangeableModel(pop)).mixed_4 is not None

    def test_iid_model_is_frozen(self):
        model = rademacher()
        with pytest.raises(AttributeError):
            model.abs3 = 2.0
