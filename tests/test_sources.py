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
    MomentSummary,
    centered_exponential,
    diff_abs3,
    exchangeable_moments,
    fourth_moment,
    iid_moments,
    independent_moments,
    load_population,
    moment_summary,
    LAW_ROWS,
    TILE_ROWS,
    rademacher,
    sample_block,
    sample_class_sums,
    sample_tiles,
    standardize_population,
    stream,
    two_point,
    uniform,
    user_model,
)

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
        m = iid_moments(rademacher())
        assert m.abs3 == 1.0 and m.fourth == 1.0
        assert diff_abs3(rademacher()) == 4.0

    def test_uniform_closed_forms(self):
        m = iid_moments(uniform())
        assert m.fourth == pytest.approx(9.0 / 5.0, abs=1e-15)
        assert m.abs3 == pytest.approx(3.0 * SQRT3 / 4.0, abs=1e-15)
        assert diff_abs3(uniform()) == pytest.approx((2.0 * SQRT3) ** 3 / 10.0, abs=1e-14)

    def test_uniform_against_quadrature_oracle(self):
        # direct numeric integration of |x|^3 and x^4 over [-sqrt(3), sqrt(3)]
        xs = np.linspace(-SQRT3, SQRT3, 2_000_001)
        density = 1.0 / (2.0 * SQRT3)
        abs3 = np.trapezoid(np.abs(xs) ** 3 * density, xs)
        fourth = np.trapezoid(xs**4 * density, xs)
        m = iid_moments(uniform())
        assert m.abs3 == pytest.approx(abs3, abs=1e-9)
        assert m.fourth == pytest.approx(fourth, abs=1e-9)
        # X - X' has the triangular density (2 sqrt(3) - |d|) / 12 on [-2 sqrt(3), 2 sqrt(3)]
        ds = np.linspace(-2.0 * SQRT3, 2.0 * SQRT3, 2_000_001)
        diff3 = np.trapezoid(np.abs(ds) ** 3 * (2.0 * SQRT3 - np.abs(ds)) / 12.0, ds)
        assert diff_abs3(uniform()) == pytest.approx(diff3, abs=1e-9)

    def test_two_point_values(self):
        model = two_point(0.2)
        vals, probs = model.support
        np.testing.assert_allclose(sorted(vals), [-0.5, 2.0], atol=1e-15)
        assert float(vals @ probs) == pytest.approx(0.0, abs=1e-15)
        assert float(vals**2 @ probs) == pytest.approx(1.0, abs=1e-15)
        assert diff_abs3(model) == pytest.approx(2 * 0.2 * 0.8 * 2.5**3, rel=1e-14)

    def test_two_point_against_monte_carlo_oracle(self):
        model = two_point(0.2)
        draws = model.sampler(stream(1234), 10_000_000)
        m = iid_moments(model)
        pairs = np.abs(draws[::2] - draws[1::2]) ** 3
        for vals, declared in [(np.abs(draws) ** 3, m.abs3), (draws**4, m.fourth),
                               (pairs, diff_abs3(model))]:
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - declared) <= 4 * se

    def test_exponential_closed_forms(self):
        m = iid_moments(centered_exponential())
        assert m.fourth == pytest.approx(9.0, abs=1e-12)
        assert m.abs3 == pytest.approx(12.0 / math.e - 2.0, abs=1e-12)

    def test_exponential_against_monte_carlo_oracle(self):
        model = centered_exponential()
        draws = model.sampler(stream(77), 2_000_000)
        m = iid_moments(model)
        pairs = np.abs(draws[::2] - draws[1::2]) ** 3
        for vals, declared in [(np.abs(draws) ** 3, m.abs3), (pairs, diff_abs3(model))]:
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
    hi, lo = math.sqrt((1.0 - p) / p), -math.sqrt(p / (1.0 - p))
    return lambda rng, size: np.where(rng.random(size, dtype=np.float32) < p,
                                      np.float32(hi), np.float32(lo))


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
        m = iid_moments(model)
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
        m = iid_moments(law)
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

    @pytest.mark.parametrize("law", [uniform(), user_model("u", uniform().sampler, 1.3, 1.8)],
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
        with pytest.raises(InvalidMomentsError):
            MomentSummary(abs3=1.0, fourth=0.5, abs3_max=1.0, fourth_max=0.5)

    def test_mixed_fields_come_together(self):
        with pytest.raises(InvalidMomentsError):
            MomentSummary(abs3=1.0, fourth=1.0, abs3_max=1.0, fourth_max=1.0, mixed_4=0.1)

    def test_user_model_without_moments_is_rejected(self):
        model = user_model("custom", lambda rng, size: rng.standard_normal(size, dtype=np.float32))
        with pytest.raises(MissingMomentsError):
            iid_moments(model)
        with pytest.raises(MissingMomentsError):
            diff_abs3(model)

    @pytest.mark.parametrize("name,value", [("abs3", 1.5), ("fourth", 2.0),
                                            ("diff_abs3", 3.0), ("fourth", 1.0 + 1e-11)])
    def test_a_declaration_its_support_contradicts_is_refused(self, name, value):
        # Rademacher's support gives abs3 = fourth = 1 and diff_abs3 = 4
        with pytest.raises(InvalidMomentsError, match=f"declares {name} = "):
            user_model("signs", rademacher().sampler,
                       **{"abs3": 1.0, "fourth": 1.0, name: value},
                       support=rademacher().support)

    def test_a_declaration_is_read_as_declared(self):
        law = two_point(0.3)
        vals, probs = law.support
        assert law.fourth != float(probs @ vals**4)  # they differ in the last bit
        assert fourth_moment(law) == law.fourth == iid_moments(law).fourth
        assert diff_abs3(law) == float(probs @ np.abs(vals[:, None] - vals) ** 3 @ probs)
        assert diff_abs3(uniform()) == uniform().diff_abs3

    def test_independent_moments_take_worst_coordinate(self):
        model = IndependentModel(coords=(rademacher(), uniform()))
        m = independent_moments(model)
        assert m.fourth_max == pytest.approx(9.0 / 5.0)
        assert m.abs3_max == pytest.approx(3.0 * SQRT3 / 4.0)
        assert m.fourth == 1.0  # first coordinate


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
    def test_rademacher_support(self):
        x = sample_block(rademacher(), seed=3, start=0, count=1, n=64)
        assert set(np.unique(x)) <= {-1.0, 1.0}

    def test_exchangeable_samples_are_permutations(self):
        pop = np.array([-1.0, -1.0, 1.0, 1.0])
        model = ExchangeableModel(pop)
        for start in range(10):
            x = sample_block(model, seed=9, start=start, count=1)[0]
            assert sorted(x) == sorted(pop)

    def test_fixed_seed_reproduces(self):
        model = uniform()
        np.testing.assert_array_equal(
            sample_block(model, seed=5, start=0, count=1, n=32),
            sample_block(model, seed=5, start=0, count=1, n=32),
        )

    def test_iid_needs_length(self):
        with pytest.raises(InvalidInputError):
            sample_block(rademacher(), seed=0, start=0, count=1)

    @pytest.mark.parametrize("model", [uniform(), ExchangeableModel(np.tile([-1.0, 1.0], 4))],
                             ids=["uniform", "exchangeable"])
    def test_streams_keyed_by_seed_and_index_do_not_collide(self, model):
        # seed XOR index keys made these two blocks identical
        a = sample_block(model, seed=0, start=8192, count=4, n=8)
        b = sample_block(model, seed=8192, start=0, count=4, n=8)
        assert not np.array_equal(a, b)

    def test_stream_rejects_seeds_outside_the_key_range(self):
        for seed, index in [(-1, 0), (2**64, 0), (0, 2**64)]:
            with pytest.raises(InvalidInputError):
                stream(seed, index)

    def test_block_shape_and_determinism(self):
        model = uniform()
        a = sample_block(model, seed=7, start=4096, count=100, n=16)
        b = sample_block(model, seed=7, start=4096, count=100, n=16)
        assert a.shape == (100, 16)
        np.testing.assert_array_equal(a, b)

    def test_block_dtype(self):
        x = sample_block(rademacher(), seed=1, start=0, count=8, n=24)
        assert x.dtype == np.float32
        assert set(np.unique(x)) <= {np.float32(-1.0), np.float32(1.0)}

    def test_exchangeable_block_rows_are_permutations(self):
        pop = standardize_population(np.arange(1.0, 7.0))
        block = sample_block(ExchangeableModel(pop), seed=2, start=0, count=50)
        for row in block:
            np.testing.assert_allclose(np.sort(row), np.sort(pop), atol=0)

    def test_independent_block_columns_follow_their_law(self):
        model = IndependentModel(coords=(rademacher(), uniform(), rademacher()))
        block = sample_block(model, seed=11, start=0, count=200)
        assert set(np.unique(block[:, 0])) <= {-1.0, 1.0}
        assert np.all(np.abs(block[:, 1]) <= SQRT3)

    def test_model_dimension_mismatch_rejected(self):
        pop = standardize_population(np.arange(1.0, 7.0))
        with pytest.raises(InvalidInputError):
            sample_block(ExchangeableModel(pop), seed=0, start=0, count=1, n=5)


def half_words(words, n):
    """The first n 32-bit halves of each row of 64-bit stream words, low
    half of each word first."""
    low = (words & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high = (words >> np.uint64(32)).astype(np.uint32)
    return np.stack([low, high], axis=2).reshape(words.shape[0], -1)[:, :n]


def stream_words(halves):
    """Rows of 32-bit halves packed back into 64-bit words, low half first;
    the inverse of half_words for even row lengths."""
    pairs = halves.astype(np.uint64).reshape(halves.shape[0], -1, 2)
    return pairs[:, :, 0] | (pairs[:, :, 1] << np.uint64(32))


def sort_key_permutations(halves):
    """The permutations that tie-free rows of 32-bit half-words stand for:
    each row orders its coordinates by their half-words."""
    assert np.all(np.diff(np.sort(halves, axis=1), axis=1) > 0), "a row ties"
    return np.argsort(halves, axis=1)


def whole_block_reference(model, seed, start, count, n):
    """The block drawn into one (count, n) array.  Exchangeable rows take
    ceil(n/2) stream words, one 32-bit half per coordinate, and sort by
    those halves.  Independent
    models go LAW_ROWS rows at a time and, within those rows, law object by
    law object in order of first appearance, one sampler call per law for
    all of its coordinates in index order."""
    rng = stream(seed, start)
    if isinstance(model, ExchangeableModel):
        words = rng.bit_generator.random_raw((count, (n + 1) // 2))
        return model.population.astype(np.float32)[sort_key_permutations(half_words(words, n))]
    if isinstance(model, IndependentModel):
        out = np.empty((count, n), dtype=np.float32)
        laws = list({id(c): c for c in model.coords}.values())
        for lo in range(0, count, LAW_ROWS):
            rows = slice(lo, min(lo + LAW_ROWS, count))
            for law in laws:
                index = [j for j, c in enumerate(model.coords) if c is law]
                out[rows, index] = law.sampler(rng, (len(index), rows.stop - lo)).T
        return out
    return model.sampler(rng, (count, n))


def tile_test_model(kind, n):
    if kind == "independent":
        laws = (rademacher(), uniform(), two_point(0.3), centered_exponential())
        return IndependentModel(coords=tuple(laws[j % len(laws)] for j in range(n)))
    if kind == "exchangeable":
        return ExchangeableModel(standardize_population(np.arange(1.0, n + 1.0)))
    if kind == "exchangeable-repeated":
        return ExchangeableModel(standardize_population(np.arange(n) % 3))
    return {"rademacher": rademacher, "uniform": uniform, "two_point": two_point,
            "exponential": centered_exponential}[kind]()


class TestTiles:
    @pytest.mark.parametrize("kind", ["rademacher", "uniform", "two_point", "exponential",
                                      "independent", "exchangeable", "exchangeable-repeated"])
    @pytest.mark.parametrize("n", [7, 24, 33])
    def test_tiles_concatenate_to_the_whole_block(self, kind, n):
        model = tile_test_model(kind, n)
        count = 2 * TILE_ROWS + 22
        ref = whole_block_reference(model, 13, 8192, count, n)
        tiles = list(sample_tiles(model, 13, 8192, count, n=n))
        assert all(t.dtype == np.float32 and t.shape[1] == n for t in tiles)
        assert [t.shape[0] for t in tiles] == [TILE_ROWS, TILE_ROWS, 22]
        np.testing.assert_array_equal(np.concatenate(tiles), ref)
        np.testing.assert_array_equal(sample_block(model, 13, 8192, count, n=n), ref)

    def test_independent_laws_are_drawn_in_fixed_row_pieces(self):
        # 47 rademacher, 47 two_point(0.3) and 45 exponential coordinates;
        # coordinate 5 holds a second two_point(0.3) object, which is a law
        # of its own; 300 rows take a full LAW_ROWS piece and a short one
        laws = (rademacher(), two_point(0.3), centered_exponential())
        coords = [laws[j % 3] for j in range(140)]
        coords[5] = two_point(0.3)
        model = IndependentModel(coords=tuple(coords))
        count = LAW_ROWS + 44
        ref = whole_block_reference(model, 21, 0, count, 140)
        np.testing.assert_array_equal(sample_block(model, 21, 0, count), ref)
        tiles = list(sample_tiles(model, 21, 0, count))
        full = LAW_ROWS // TILE_ROWS
        assert [t.shape for t in tiles] == [(TILE_ROWS, 140)] * full + [(44, 140)]
        np.testing.assert_array_equal(np.concatenate(tiles), ref)

    def test_one_law_piece_is_one_sampler_call(self):
        model = IndependentModel(coords=(uniform(),) * 16)
        block = sample_block(model, 4, 64, LAW_ROWS + 100)
        rng = stream(4, 64)
        first = uniform().sampler(rng, (16, LAW_ROWS))
        rest = uniform().sampler(rng, (16, 100))
        np.testing.assert_array_equal(block, np.concatenate([first.T, rest.T]))


class _ScriptedWords:
    """Stands in for a generator: random_raw hands out the given word arrays
    in order, checking that each request has the shape of the next one."""

    def __init__(self, *draws):
        self.bit_generator = self
        self.draws = list(draws)

    def random_raw(self, size):
        words = self.draws.pop(0)
        assert words.shape == size
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
        first = half_words(stream(3).bit_generator.random_raw((4, 3)), n)
        first[1, 5] = first[1, 2]  # indices 2 and 5 tie
        first[3] = first[3, 0]  # one half-word throughout: ties everywhere
        first[2, 5] = first[2, 1] ^ np.uint32(1)  # differs in the lowest bit only
        second = half_words(stream(4).bit_generator.random_raw((2, 3)), n)  # rows 1 and 3
        second[1, 0] = second[1, 3]  # row 3 ties again
        third = half_words(stream(5).bit_generator.random_raw((1, 3)), n)
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


class TestDispatch:
    def test_moment_summary_dispatch(self):
        assert moment_summary(rademacher()).fourth == 1.0
        assert moment_summary(IndependentModel(coords=(rademacher(),))).fourth == 1.0
        pop = standardize_population(np.arange(1.0, 7.0))
        assert moment_summary(ExchangeableModel(pop)).mixed_4 is not None

    def test_iid_model_is_frozen(self):
        model = rademacher()
        with pytest.raises(AttributeError):
            model.abs3 = 2.0
