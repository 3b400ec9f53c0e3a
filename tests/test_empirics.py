import itertools
import math
import multiprocessing
import threading

import numpy as np
import pytest

from projclt.bounds import (
    RESAMPLING,
    TRANSPOSITION,
    ExchangeableConstants,
    _mean_abs3_diff,
    compute_bound,
    eij_second_moments,
    stein_lambda,
    third_moment_sum,
)
from projclt.directions import (
    DirectionSet,
    hypercube_directions,
    random_orthonormal,
)
from projclt.empirics import (
    _Moments,
    estimate_discrepancy,
    verify_bound,
)
from projclt.errors import InvalidInputError, InvalidMomentsError, MissingMomentsError
from projclt.sources import (
    CLASS_SUMS,
    COLUMN_BINS,
    COORDINATES,
    TILE_ROWS,
    VALUE_BINS,
    ExchangeableModel,
    IIDModel,
    IndependentModel,
    centered_exponential,
    iid,
    moment_summary,
    projections,
    rademacher,
    sample_class_sums,
    sample_rank_bins,
    standardize_population,
    two_point,
    uniform,
)
from projclt.testfuncs import (
    Expectation,
    GaussianSpec,
    TestFunction,
    bump_testfn,
    cosine_testfn,
    gaussian_expectation,
)

from conftest import pattern, sample_block
from pair_reference import (
    conditional_mean_enumerated,
    eij_closed_form,
    eij_enumerated,
    mean_abs3_diff_pairs,
    project,
    resample_pair,
    transpose_pair,
)

# a = b = c = 1: T4/T5 with unit constants, for tests that compare terms.
UNIT_CONSTANTS = ExchangeableConstants(a=1.0, b=1.0, c=1.0)
# Two unit rows in R^2 with inner product 1/2: linearly independent, not orthonormal.
OVERLAPPING_ROWS = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)]])


def unit_cosine(k):
    return cosine_testfn(np.full(k, 1.0 / math.sqrt(k)))


def ramp_model(n):
    return ExchangeableModel(standardize_population(np.arange(1.0, n + 1.0)))


# Models whose blocks draw coordinates on random rows, by the number of
# coordinates n.
COORDINATE_MODELS = {
    "iid": lambda n: iid(uniform(), n),
    "independent": lambda n: pattern((uniform(), centered_exponential()), n),
    "exchangeable": ramp_model,
    "two_point": lambda n: iid(two_point(0.2), n),
    "exponential": lambda n: iid(centered_exponential(), n),
    "three-law": lambda n: pattern((two_point(0.2), uniform(), centered_exponential()), n),
}


def float64_projection(ds, model, seed, count):
    """The float64 product of the block's float32 draws with the rows, in
    row chunks, to keep a float64 copy of the block out of memory."""
    block = sample_block(model, seed, 0, count)
    return np.concatenate([x.astype(np.float64) @ ds.vectors.T for x in np.split(block, 8)])


def one_state(model, seed):
    """One state: the first row of a one-state block."""
    return sample_block(model, seed, 0, 1)[0]


def ks_statistic(x, y):
    """Two-sample Kolmogorov-Smirnov statistic."""
    x, y = np.sort(x), np.sort(y)
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


class TestProject:
    def test_projecting_a_direction_gives_basis_vector(self):
        ds = hypercube_directions(16, 3)
        s = project(ds.vectors[0], ds)
        np.testing.assert_allclose(s, [1.0, 0.0, 0.0], atol=1e-14)

    def test_zero_maps_to_zero(self):
        ds = hypercube_directions(8, 2)
        np.testing.assert_array_equal(project(np.zeros(8), ds), np.zeros(2))

    def test_against_naive_double_loop(self):
        rng = np.random.default_rng(3)
        ds = random_orthonormal(6, 2, seed=1)
        x = rng.standard_normal(6)
        naive = np.array(
            [math.fsum(ds.vectors[i, r] * x[r] for r in range(6)) for i in range(2)]
        )
        np.testing.assert_allclose(project(x, ds), naive, atol=1e-12)

    def test_dimension_mismatch(self):
        ds = hypercube_directions(8, 2)
        with pytest.raises(InvalidInputError):
            project(np.zeros(7), ds)


class TestResamplePair:
    def test_update_formula(self):
        ds = random_orthonormal(12, 3, seed=0)
        model = iid(uniform(), 12)
        x = one_state(model, seed=5)
        draw = resample_pair(x, ds, model, seed=17)
        manual = x.copy()
        manual[draw.index] = draw.replacement
        np.testing.assert_allclose(draw.s_prime, project(manual, ds), atol=1e-12)
        np.testing.assert_allclose(draw.s, project(x, ds), atol=0)

    def test_collision_leaves_projection_unchanged(self):
        # two-point law: sooner or later the replacement equals the old value
        ds = hypercube_directions(8, 2)
        model = iid(two_point(0.5), 8)
        x = one_state(model, seed=1)
        hits = 0
        for seed in range(50):
            draw = resample_pair(x, ds, model, seed=seed)
            if draw.replacement == x[draw.index]:
                np.testing.assert_array_equal(draw.s_prime, draw.s)
                hits += 1
        assert hits > 0

    def test_exchangeable_model_rejected(self):
        ds = hypercube_directions(8, 2)
        with pytest.raises(InvalidInputError):
            resample_pair(np.zeros(8), ds, ramp_model(8), seed=0)

    def test_deterministic(self):
        ds = hypercube_directions(8, 2)
        model = iid(uniform(), 8)
        x = one_state(model, seed=3)
        a = resample_pair(x, ds, model, seed=9)
        b = resample_pair(x, ds, model, seed=9)
        assert a.index == b.index and a.replacement == b.replacement


class TestTransposePair:
    def test_swapping_equal_values_is_identity(self):
        pop = np.array([-1.0, -1.0, 1.0, 1.0])
        model = ExchangeableModel(pop)
        ds = hypercube_directions(4, 2, centered=True)
        x = one_state(model, seed=0)
        hits = 0
        for seed in range(60):
            draw = transpose_pair(x, ds, model, seed=seed)
            if x[draw.index_i] == x[draw.index_j]:
                np.testing.assert_array_equal(draw.s_prime, draw.s)
                hits += 1
        assert hits > 0

    def test_difference_formula(self):
        n = 10
        model = ramp_model(n)
        ds = random_orthonormal(n, 2, seed=4, centered=True)
        x = one_state(model, seed=2)
        draw = transpose_pair(x, ds, model, seed=11)
        swapped = x.copy()
        swapped[[draw.index_i, draw.index_j]] = swapped[[draw.index_j, draw.index_i]]
        np.testing.assert_allclose(draw.s_prime, project(swapped, ds), atol=1e-12)

    def test_non_centered_directions_rejected(self):
        ds = hypercube_directions(8, 2)  # constant row included
        with pytest.raises(InvalidInputError):
            transpose_pair(np.zeros(8), ds, ramp_model(8), seed=0)

    def test_independent_model_rejected(self):
        ds = hypercube_directions(8, 2, centered=True)
        with pytest.raises(InvalidInputError):
            transpose_pair(np.zeros(8), ds, iid(uniform(), 8), seed=0)

    def test_pair_is_exchangeable(self):
        # (u, v) with u = phi(S, S') and v = phi(S', S) must share one law
        n, draws = 32, 100_000
        model = ramp_model(n)
        ds = hypercube_directions(n, 2, centered=True)
        u = np.empty(draws)
        v = np.empty(draws)
        for t, x in enumerate(sample_block(model, seed=7, start=0, count=draws)):
            pair = transpose_pair(x, ds, model, seed=10_000_019 + t)
            u[t] = pair.s[0] + 2.0 * pair.s_prime[0]
            v[t] = pair.s_prime[0] + 2.0 * pair.s[0]
        # classical alpha = 0.01 critical value for two samples of this size
        critical = 1.63 * math.sqrt(2.0 / draws)
        assert ks_statistic(u, v) <= critical


def skewed_model(n):
    """The standardized population [0, ..., 0, 1, 5], whose float32 sum is
    not 0."""
    return ExchangeableModel(standardize_population(np.r_[np.zeros(n - 2), [1.0, 5.0]]))


class TestConditionalLinearity:
    def test_non_centered_counterexample(self):
        # at a generic (non-zero-sum) state, a non-centered direction breaks
        # the shrinkage identity by 2 (sum_r theta^r) (sum_r x_r) / (n(n-1))
        ds = DirectionSet(np.array([[1.0, 0.0, 0.0]]))
        x = np.array([1.0, 2.0, 3.0])
        cond = conditional_mean_enumerated(x, ds, None, TRANSPOSITION)
        resid = float(np.max(np.abs(cond + 2.0 / (3 - 1) * project(x, ds))))
        assert resid == pytest.approx(2.0 * 1.0 * 6.0 / (3 * 2), abs=1e-12)

    @pytest.mark.parametrize(
        "model, ds",
        [
            (iid(two_point(0.3), 7), random_orthonormal(7, 3, seed=1)),
            (pattern((rademacher(), uniform(), two_point(0.2)), 6),
             random_orthonormal(6, 2, seed=2)),
            (ramp_model(6), random_orthonormal(6, 2, seed=3, centered=True)),
            (ramp_model(7), random_orthonormal(7, 3, seed=4)),
            (skewed_model(16), random_orthonormal(16, 3, seed=0)),
        ],
        ids=["resampling-two-point", "resampling-independent", "transposition-centered",
             "transposition-non-centered", "transposition-skewed"],
    )
    def test_closed_form_matches_enumeration(self, model, ds):
        # The enumerated residual E[S' - S | x] + lambda S is rounding at
        # random float64 states: permutations of the population under the
        # transposition, generic vectors under resampling (whose residual,
        # theta E[X] / n, does not depend on x).  No row need sum to zero.
        rng = np.random.default_rng(17)
        if isinstance(model, ExchangeableModel):
            pair, states = TRANSPOSITION, rng.permuted(np.tile(model.population, (40, 1)), axis=1)
        else:
            pair, states = RESAMPLING, rng.standard_normal((40, ds.n))
        lam = stein_lambda(model)
        for x in states:
            cond = conditional_mean_enumerated(x, ds, model, pair)
            resid = float(np.max(np.abs(cond + lam * project(x, ds))))
            assert resid <= 1e-12

    def test_lambda_values(self):
        assert stein_lambda(iid(uniform(), 100)) == 0.01
        assert stein_lambda(ramp_model(5)) == 0.5
        # the transposition needs n >= 2, which every exchangeable model has
        assert stein_lambda(ramp_model(2)) == 2.0
        with pytest.raises(InvalidInputError, match="at least two values"):
            ExchangeableModel(np.array([0.0]))


class TestEijClosedForm:
    def test_sign_states_make_resampling_errors_vanish(self):
        ds = hypercube_directions(16, 3)
        x = one_state(iid(rademacher(), 16), seed=4)
        np.testing.assert_array_equal(eij_closed_form(x, ds, RESAMPLING), np.zeros((3, 3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_resampling_matches_enumeration(self, seed):
        ds = random_orthonormal(8, 3, seed=100 + seed)
        model = iid(two_point(0.2), 8)
        x = one_state(model, seed=seed)
        closed = eij_closed_form(x, ds, RESAMPLING)
        enum = eij_enumerated(x, ds, model, RESAMPLING)
        assert np.max(np.abs(closed - enum)) <= 1e-12

    @pytest.mark.parametrize("model", [
        *(iid(law, 8) for law in (rademacher(), uniform(), centered_exponential())),
        pattern((rademacher(), uniform(), two_point(0.7), centered_exponential()), 8),
    ], ids=["rademacher", "uniform", "exponential", "independent"])
    def test_resampling_matches_enumeration_for_every_law(self, model):
        # finite supports are enumerated; continuous laws use E(X* - x)^2 = 1 + x^2
        ds = random_orthonormal(8, 3, seed=31)
        for seed in range(5):
            x = one_state(model, seed=seed)
            closed = eij_closed_form(x, ds, RESAMPLING)
            enum = eij_enumerated(x, ds, model, RESAMPLING)
            assert np.max(np.abs(closed - enum)) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_transposition_matches_enumeration(self, seed):
        n = 6
        ds = random_orthonormal(n, 3, seed=200 + seed, centered=True)
        model = ramp_model(n)
        x = one_state(model, seed=seed)
        closed = eij_closed_form(x, ds, TRANSPOSITION)
        enum = eij_enumerated(x, ds, model, TRANSPOSITION)
        assert np.max(np.abs(closed - enum)) <= 1e-12

    @pytest.mark.parametrize(
        "pair_kind,model,ds",
        [
            (RESAMPLING, iid(two_point(0.2), 8), random_orthonormal(8, 3, seed=7)),
            (TRANSPOSITION, ramp_model(6), random_orthonormal(6, 3, seed=8, centered=True)),
        ],
    )
    def test_block_input_matches_per_state_calls(self, pair_kind, model, ds):
        block = sample_block(model, seed=3, start=0, count=40)
        batched = eij_closed_form(block, ds, pair_kind)
        assert batched.shape == (40, ds.k, ds.k)
        for x, e in zip(block, batched):
            np.testing.assert_allclose(e, eij_closed_form(x, ds, pair_kind), rtol=0, atol=1e-15)
            assert np.max(np.abs(e - eij_enumerated(x, ds, model, pair_kind))) <= 1e-12

    def test_requires_orthonormal_rows(self):
        ds = DirectionSet(OVERLAPPING_ROWS)
        with pytest.raises(InvalidInputError):
            eij_closed_form(np.zeros(2), ds, RESAMPLING)


class TestPairStatistics:
    def test_sign_model_gives_exactly_zero_error_terms(self):
        ds = hypercube_directions(64, 2)
        second = eij_second_moments(ds, iid(rademacher(), 64))
        np.testing.assert_array_equal(second, np.zeros((2, 2)))

    def test_resampling_envelopes(self):
        # the exact statistics stay below the analytic envelopes
        n = 128
        rows = np.full((1, n), 1.0 / math.sqrt(n))
        ds = DirectionSet(rows)
        law = uniform()
        model = iid(law, n)
        m = moment_summary(iid(law, 1))
        env_sq = (1.0 / n) * ds.sum_l4_sq * math.sqrt(m.fourth - 1.0)
        assert math.sqrt(eij_second_moments(ds, model).sum()) <= env_sq * (1 + 1e-12)
        env_third = (8.0 / n) * m.abs3 * ds.sum_l3_cubed
        assert third_moment_sum(ds, model) <= env_third

    def test_transposition_third_moment_envelope(self):
        n, k = 32, 2
        ds = hypercube_directions(n, k, centered=True)
        model = ramp_model(n)
        abs3 = float(np.mean(np.abs(model.population) ** 3))
        l1 = np.sum(np.abs(ds.vectors), axis=1)
        l3 = np.sum(np.abs(ds.vectors) ** 3, axis=1)
        env = (8.0 * abs3 / (n * (n - 1))) * float(np.sum(2 * n * l3 + 6 * l1))
        assert third_moment_sum(ds, model) <= env

    @pytest.mark.parametrize(
        "model",
        [
            *(iid(law, 32) for law in (uniform(), centered_exponential(), two_point(0.2))),
            pattern((uniform(), rademacher(), centered_exponential(), two_point(0.2)), 32),
        ],
        ids=["uniform", "exponential", "two_point", "mixed"],
    )
    def test_exact_resampling_third_moment_calibrates(self, model):
        # Per state x the statistic is (1/n) sum_r (sum_i |theta_i^r|^3) E|X*_r - x_r|^3,
        # its inner expectation sub-sampled over independent replacement draws.
        n, states, copies = 32, 4000, 16
        ds = random_orthonormal(n, 2, seed=21)
        weights = np.sum(np.abs(ds.vectors) ** 3, axis=0)
        x = sample_block(model, seed=1, start=0, count=states)
        x_star = sample_block(model, seed=2, start=0, count=states * copies)
        w = np.mean(np.abs(x_star.reshape(states, copies, n) - x[:, None, :]) ** 3, axis=1)
        per_state = w @ weights / n
        se = per_state.std(ddof=1) / math.sqrt(states)
        exact = third_moment_sum(ds, model)
        assert abs(per_state.mean() - exact) <= 4 * se

    def test_exact_transposition_third_moment_calibrates(self):
        # Per state x the statistic is sum_{r,s} A_rs |x_r - x_s|^3 / (n(n-1)),
        # A_rs = sum_i |theta_i^r - theta_i^s|^3.
        n, states = 24, 4000
        ds = random_orthonormal(n, 2, seed=22, centered=True)
        model = ramp_model(n)
        a = np.sum(np.abs(ds.vectors[:, :, None] - ds.vectors[:, None, :]) ** 3, axis=0)
        x = sample_block(model, seed=3, start=0, count=states)
        per_state = np.einsum("rs,mrs->m", a, np.abs(x[:, :, None] - x[:, None, :]) ** 3)
        per_state /= n * (n - 1)
        se = per_state.std(ddof=1) / math.sqrt(states)
        exact = third_moment_sum(ds, model)
        assert abs(per_state.mean() - exact) <= 4 * se

    def test_transposition_third_moment_matches_full_matrix_formula(self):
        # the direct double sums over all n^2 pairs, at an n large enough for
        # rounding in the sorted prefix sums to show
        n = 300
        ds = random_orthonormal(n, 2, seed=23, centered=True)
        pop = ramp_model(n).population
        d3 = np.sum(np.abs(pop[:, None] - pop[None, :]) ** 3) / (n * (n - 1))
        dtheta3 = np.sum(np.abs(ds.vectors[:, :, None] - ds.vectors[:, None, :]) ** 3)
        exact = third_moment_sum(ds, ramp_model(n))
        assert exact == pytest.approx(d3 * dtheta3 / (n * (n - 1)), rel=1e-12)

    def test_continuous_law_without_diff_abs3_is_rejected(self):
        law = IIDModel("custom", uniform().sampler, abs3=1.3, fourth=1.8)
        with pytest.raises(MissingMomentsError, match="diff_abs3"):
            compute_bound("abstract", hypercube_directions(8, 1), iid(law, 8), unit_cosine(1))

    def test_continuous_law_without_fourth_is_rejected(self):
        law = IIDModel("custom", uniform().sampler, abs3=1.3,
                       diff_abs3=12.0 * math.sqrt(3.0) / 5.0)
        with pytest.raises(MissingMomentsError, match="fourth"):
            eij_second_moments(hypercube_directions(8, 1), iid(law, 8))

    def test_abstract_bound_needs_no_moments_it_does_not_use(self):
        # abs3 feeds T1-T5 only; the abstract route needs diff_abs3 and fourth
        law = IIDModel("custom", uniform().sampler, fourth=9.0 / 5.0,
                       diff_abs3=12.0 * math.sqrt(3.0) / 5.0)
        with pytest.raises(MissingMomentsError):
            compute_bound("T2", hypercube_directions(16, 1), iid(law, 16), unit_cosine(1))
        report = compute_bound("abstract", hypercube_directions(16, 1), iid(law, 16),
                               unit_cosine(1))
        assert report.total > 0 and (report.n, report.k, report.lam) == (16, 1, 1 / 16)

    def test_abstract_fourth_term_is_the_min_of_the_exact_envelopes(self):
        ds = random_orthonormal(64, 2, seed=12)
        model, g = iid(uniform(), 64), unit_cosine(2)
        second = eij_second_moments(ds, model)
        report = compute_bound("abstract", ds, model, g)
        lam = stein_lambda(model)
        expected = min(g.g1 / (2 * lam) * float(np.sqrt(second).sum()),
                       math.sqrt(2) * g.grad_sup / (2 * lam) * math.sqrt(float(second.sum())))
        assert report.term_fourth == pytest.approx(expected, rel=1e-14)
        assert report.term_third == pytest.approx(
            2 * 2 * g.g2 / (6 * lam) * third_moment_sum(ds, model), rel=1e-14)


def repeated_population(n):
    """A standardized population in which one value occurs n - 2 times."""
    return standardize_population(np.r_[np.zeros(n - 2), [1.0, 3.0]])


class TestEijSecondMoments:
    # n = 3 has no four distinct positions: those partitions add nothing
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("population", [ramp_model, lambda n: ExchangeableModel(
        repeated_population(n))], ids=["ramp", "repeated"])
    def test_transposition_matches_enumeration(self, n, population):
        model = population(n)
        ds = random_orthonormal(n, min(n - 1, 3), seed=30 + n, centered=True)
        perms = np.array(list(itertools.permutations(range(n))))
        e = eij_closed_form(model.population[perms], ds, TRANSPOSITION)
        exact = eij_second_moments(ds, model)
        np.testing.assert_allclose(exact, np.mean(e * e, axis=0), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_resampling_matches_enumeration(self, n):
        model = pattern((two_point(0.3), rademacher()), n)
        coords = [model.laws[j] for j in model.law_index]
        ds = random_orthonormal(n, 2, seed=40 + n)
        states = np.array(list(itertools.product(*(c.support[0] for c in coords))))
        probs = np.prod(list(itertools.product(*(c.support[1] for c in coords))), axis=1)
        e = eij_closed_form(states, ds, RESAMPLING)
        exact = eij_second_moments(ds, model)
        np.testing.assert_allclose(exact, np.einsum("m,mij->ij", probs, e * e),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "model,pair_kind,centered",
        [
            (iid(uniform(), 32), RESAMPLING, False),
            (iid(centered_exponential(), 32), RESAMPLING, False),
            (pattern((uniform(), rademacher(), centered_exponential(), two_point(0.2)), 32),
             RESAMPLING, False),
            (ramp_model(32), TRANSPOSITION, True),
            (ExchangeableModel(np.tile([-1.0, 1.0], 16)), TRANSPOSITION, True),
        ],
        ids=["uniform", "exponential", "mixed", "ramp", "alternating"],
    )
    def test_matches_sampled_means(self, model, pair_kind, centered):
        n, states = 32, 20_000
        ds = random_orthonormal(n, 2, seed=50, centered=centered)
        e = eij_closed_form(sample_block(model, seed=6, start=0, count=states), ds, pair_kind)
        sq = e * e
        se = sq.std(axis=0, ddof=1) / math.sqrt(states)
        exact = eij_second_moments(ds, model)
        assert np.all(np.abs(sq.mean(axis=0) - exact) <= 4 * se)

    def test_resampling_reads_the_declared_fourth_moment(self):
        law = two_point(0.3)
        ds = random_orthonormal(16, 2, seed=8)
        t2 = ds.vectors**2
        expected = t2 * (moment_summary(iid(law, 1)).fourth - 1.0) @ t2.T / 16**2
        np.testing.assert_array_equal(eij_second_moments(ds, iid(law, 16)), expected)

    def test_declared_fourth_moment_below_one_is_rejected(self):
        # the law refuses it on construction, before any statistic reads it
        with pytest.raises(InvalidMomentsError, match="declares fourth = 0.5; below 1"):
            IIDModel("custom", uniform().sampler, fourth=0.5)

    def test_linearly_independent_rows_are_rejected(self):
        ds = DirectionSet(OVERLAPPING_ROWS)
        with pytest.raises(InvalidInputError, match="orthonormal"):
            eij_second_moments(ds, iid(uniform(), 2))

    def test_uncentered_rows_are_rejected_for_transposition(self):
        with pytest.raises(InvalidInputError, match="centered"):
            eij_second_moments(hypercube_directions(8, 2), ramp_model(8))


class TestRepeatedLawObjects:
    """An independent model reads each of its distinct laws once; every
    consumer agrees with a coordinate-by-coordinate reference."""

    @staticmethod
    def coords():
        shared, other = two_point(0.3), centered_exponential()
        # the same object at many coordinates, and an equal law as a second object
        return (shared, uniform(), shared, other, two_point(0.3), shared, other, rademacher()) * 4

    @staticmethod
    def model(coords):
        laws = tuple(dict.fromkeys(coords))  # law objects compare by identity
        return IndependentModel(laws, np.array([laws.index(c) for c in coords]))

    def test_laws_are_distinct_objects_in_order_of_first_appearance(self):
        coords = self.coords()
        model = self.model(coords)
        assert len(model.laws) == 5
        assert all(model.laws[j] is c for j, c in zip(model.law_index, coords))
        assert [c.name for c in model.laws] == [
            "two_point(0.3)", "uniform", "exponential", "two_point(0.3)", "rademacher"]

    def test_consumers_match_a_per_coordinate_reference(self):
        coords = self.coords()
        model = self.model(coords)
        ds = random_orthonormal(model.n, 3, seed=9)
        per = [moment_summary(iid(c, 1)) for c in coords]
        m = moment_summary(model)
        assert m.abs3 == max(x.abs3 for x in per)
        assert m.fourth == max(x.fourth for x in per)

        weights = np.sum(np.abs(ds.vectors) ** 3, axis=0)
        third = float(weights @ np.array([c.constant("diff_abs3") for c in coords])) / model.n
        # the library sums the weights law by law, so the two differ in rounding
        assert third_moment_sum(ds, model) == pytest.approx(third, rel=1e-15, abs=0)

        t2 = ds.vectors**2
        fourth = np.array([c.constant("fourth") for c in coords])
        np.testing.assert_array_equal(eij_second_moments(ds, model),
                                      (t2 * (fourth - 1.0)) @ t2.T / model.n**2)


def abs3_kernel_cases():
    rng = np.random.default_rng(31)
    cases = {f"normal-{n}": rng.standard_normal(n) for n in (2, 3, 300)}
    cases["ramp-300"] = ramp_model(300).population
    cases["hypercube-row"] = hypercube_directions(256, 2, centered=True).vectors[1]
    cases["alternating"] = np.tile([-1.0, 1.0], 150)
    cases["offset"] = 1000.0 + 1e-3 * rng.standard_normal(300)
    cases["cauchy"] = rng.standard_cauchy(300)
    return cases


class TestMeanAbs3Diff:
    @pytest.mark.parametrize("name", sorted(abs3_kernel_cases()))
    def test_matches_the_sum_over_all_pairs(self, name):
        v = abs3_kernel_cases()[name]
        assert _mean_abs3_diff(v) == pytest.approx(mean_abs3_diff_pairs(v), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 300])
    def test_constant_vector_gives_zero(self, n):
        assert _mean_abs3_diff(np.full(n, 0.1)) == 0.0


class TestEstimateDiscrepancy:
    def test_deterministic_across_worker_counts(self):
        ds = hypercube_directions(64, 2)
        g = unit_cosine(2)
        gauss = gaussian_expectation(g, GaussianSpec.identity(2))
        model = iid(rademacher(), 64)
        one = estimate_discrepancy(ds, model, g, gauss, 20_000, seed=3, workers=1)
        two = estimate_discrepancy(ds, model, g, gauss, 20_000, seed=3, workers=2)
        assert one.mean_g == two.mean_g
        assert one.discrepancy == two.discrepancy

    def test_partial_last_block_and_tile_across_worker_counts(self):
        # 1000 = 15 full tiles + 40 rows: the last block and its last tile are partial
        ds = random_orthonormal(48, 2, seed=6)
        g = unit_cosine(2)
        gauss = gaussian_expectation(g, GaussianSpec.identity(2))
        samples = 8192 + 1000
        assert 1000 % TILE_ROWS
        model = iid(uniform(), 48)
        one = estimate_discrepancy(ds, model, g, gauss, samples, seed=4, workers=1)
        two = estimate_discrepancy(ds, model, g, gauss, samples, seed=4, workers=2)
        assert (one.mean_g, one.se, one.discrepancy, one.ci_halfwidth) == (
            two.mean_g, two.se, two.discrepancy, two.ci_halfwidth)
        assert (one.blocks, one.workers, two.blocks, two.workers) == (2, 1, 2, 2)

    @pytest.mark.parametrize("family", list(COORDINATE_MODELS))
    @pytest.mark.parametrize("k", [1, 2, 3, 5])  # k = 1 may take BLAS's gemv path
    def test_projection_is_bitwise_equal_across_worker_counts(self, family, k):
        # two full blocks and a 100-row block, whose last tile is short; the
        # independent patterns' law blocks are transposed views, projected
        # one by one
        n = 257
        model = COORDINATE_MODELS[family](n)
        ds = random_orthonormal(n, k, seed=k)
        g = unit_cosine(k)
        gauss = gaussian_expectation(g, GaussianSpec.identity(k))
        runs = [estimate_discrepancy(ds, model, g, gauss, 2 * 8192 + 100, seed=9, workers=workers)
                for workers in (1, 2, 3)]
        assert [run.workers for run in runs] == [1, 2, 3]
        assert len({(run.mean_g.hex(), run.se.hex()) for run in runs}) == 1

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("kind", ["cosine", "bump"])
    @pytest.mark.parametrize("family", list(COORDINATE_MODELS))
    def test_projection_matches_a_float64_projection(self, family, kind, n):
        # the projected variates, mapped affinely per row, against X itself
        ds = random_orthonormal(n, 3, seed=2)
        model = COORDINATE_MODELS[family](n)
        g = unit_cosine(3) if kind == "cosine" else bump_testfn(2.0, 3)
        est = estimate_discrepancy(ds, model, g, gaussian_expectation(g, GaussianSpec.identity(3)),
                                   8192, seed=5)
        assert est.sampler == COORDINATES
        s = float64_projection(ds, model, 5, 8192)
        assert abs(est.mean_g - g.evaluate(s).mean()) <= 1e-6

    def test_uniform_fold_on_uncentred_sign_rows_matches_a_float64_projection(self):
        # The fold's worst case: uniform variates in [1, 2) on a row of equal
        # signs, sum theta = sqrt(n), so that the offset -1.5 W sqrt(n) and
        # W (Y theta) nearly cancel.
        n = 4096
        ds = hypercube_directions(n, 2)
        assert ds.vectors[0].sum() == pytest.approx(math.sqrt(n))
        model = iid(uniform(), n)
        plan = projections(ds.vectors, model)
        assert plan.sampler == COORDINATES
        s, s64 = plan.draw(5, 0, 8192), float64_projection(ds, model, 5, 8192)
        assert np.all(np.abs((s - s64).mean(axis=0)) <= 1e-6)
        assert np.sqrt(np.mean((s - s64) ** 2)) <= 1e-4
        g = unit_cosine(2)
        assert abs(g.evaluate(s).mean() - g.evaluate(s64).mean()) <= 1e-6

    def test_repeated_calls_reuse_one_pool(self):
        ds = random_orthonormal(64, 2, seed=8)
        g = unit_cosine(2)
        gauss = gaussian_expectation(g, GaussianSpec.identity(2))
        counts, estimates = [], []
        for _ in range(5):
            estimates.append(estimate_discrepancy(ds, iid(uniform(), 64), g, gauss, 4 * 8192,
                                                  seed=7, workers=2))
            counts.append(threading.active_count())
        assert counts == [counts[0]] * 5
        assert len({est.mean_g.hex() for est in estimates}) == 1

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
    def test_forked_child_makes_its_own_pool(self):
        ds = random_orthonormal(64, 2, seed=8)
        g = unit_cosine(2)
        gauss = gaussian_expectation(g, GaussianSpec.identity(2))

        def estimate():
            return estimate_discrepancy(ds, iid(uniform(), 64), g, gauss, 4 * 8192, seed=7,
                                        workers=2).mean_g

        parent = estimate()  # the parent's pool now holds two threads

        def child(conn):
            conn.send(estimate())
            conn.close()

        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=child, args=(send,))
        proc.start()
        try:
            # a child that reused the parent's pool would wait forever
            assert receive.poll(60), "the forked child's estimate did not finish"
            assert receive.recv() == parent
        finally:
            proc.kill()
            proc.join()

    def test_test_function_of_another_dimension_is_rejected(self):
        g = unit_cosine(3)
        with pytest.raises(InvalidInputError, match="test function dimension 3 != k = 2"):
            estimate_discrepancy(hypercube_directions(16, 2), iid(rademacher(), 16), g,
                                 gaussian_expectation(g, GaussianSpec.identity(3)), 2000, seed=0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_are_rejected(self, workers):
        with pytest.raises(InvalidInputError, match="workers must be a positive integer"):
            g = unit_cosine(2)
            estimate_discrepancy(hypercube_directions(16, 2), iid(rademacher(), 16), g,
                                 gaussian_expectation(g, GaussianSpec.identity(2)), 2000,
                                 seed=0, workers=workers)

    def test_block_moments_merge_to_those_of_the_concatenation(self):
        rng = np.random.default_rng(0)
        parts = [rng.standard_normal(m) + shift for m, shift in [(5, 0.0), (7, 1e3), (3, -2.0)]]

        def moments(v):
            return _Moments(count=v.size, mean=float(v.mean()), m2=float(np.sum((v - v.mean()) ** 2)))

        merged = moments(parts[0]).merge(moments(parts[1])).merge(moments(parts[2]))
        whole = moments(np.concatenate(parts))
        assert merged.count == whole.count == 15
        assert merged.mean == pytest.approx(whole.mean, rel=1e-13)
        assert merged.m2 == pytest.approx(whole.m2, rel=1e-13)

    def test_nearly_constant_function_keeps_its_standard_error(self):
        # g = cos(<a, S>) with |a|_2 = 1e-4 stays within 1e-7 of 1; the
        # one-pass formula (sum g^2 - N mean^2) / (N - 1) cancels to se = 0 here
        ds = random_orthonormal(32, 2, seed=4)
        g = cosine_testfn(np.full(2, 1e-4 / math.sqrt(2)))
        samples = 20_000
        model = iid(uniform(), 32)
        est = estimate_discrepancy(ds, model, g, gaussian_expectation(g, GaussianSpec.identity(2)),
                                   samples, seed=8)
        blocks = [sample_block(model, 8, lo, min(8192, samples - lo))
                  for lo in range(0, samples, 8192)]
        x = np.concatenate(blocks).astype(np.float64)
        vals = g.evaluate(x @ ds.vectors.T)
        assert est.se > 0
        assert est.se == pytest.approx(vals.std(ddof=1) / math.sqrt(samples), rel=1e-3)

    def test_large_n_is_close_to_gaussian(self):
        ds = hypercube_directions(4096, 1)
        g = cosine_testfn([1.0])
        est = estimate_discrepancy(
            ds, iid(rademacher(), 4096), g, gaussian_expectation(g, GaussianSpec.identity(1)),
            200_000, seed=1
        )
        assert est.discrepancy <= est.ci_halfwidth + 2e-4

    def test_constant_function_has_zero_discrepancy(self):
        const = TestFunction(
            kind="bump", dimension=2,
            evaluate=lambda pts: np.full(np.asarray(pts).shape[0], 3.7),
            g1=0.0, g2=0.0, grad_sup=0.0, hess_op_sup=0.0,
        )
        ds = hypercube_directions(16, 2)
        est = estimate_discrepancy(
            ds, iid(rademacher(), 16), const, Expectation(3.7, 0.0, "closed-form"), 65_536, seed=0
        )
        assert est.discrepancy <= 5e-15

    def test_sample_floor(self):
        ds = hypercube_directions(16, 2)
        g = unit_cosine(2)
        with pytest.raises(InvalidInputError):
            estimate_discrepancy(
                ds, iid(rademacher(), 16), g, gaussian_expectation(g, GaussianSpec.identity(2)),
                500, seed=0
            )


def exact_cosine_mean(ds, log_cf, g_a, phase):
    """E cos(<a, S> + phase) = Re[e^{i phase} prod_r phi_r(<a, theta^r>)], the
    product summed as complex logs; ``log_cf(w)`` gives log phi_r(w_r) per
    coordinate."""
    return float(np.real(np.exp(1j * phase + np.sum(log_cf(np.asarray(g_a) @ ds.vectors)))))


def _log_two_point(p):
    q = 1.0 - p
    hi, lo = math.sqrt(q / p), -math.sqrt(p / q)
    return lambda w: np.log(p * np.exp(1j * hi * w) + q * np.exp(1j * lo * w))


LOG_CF = {
    "rademacher": lambda w: np.log(np.cos(w).astype(complex)),
    "two_point": _log_two_point(0.2),
    "exponential": lambda w: -1j * w - np.log(1.0 - 1j * w),
}
LOG_CF["pattern"] = lambda w: np.where(np.arange(w.size) % 2 == 0, LOG_CF["rademacher"](w),
                                       LOG_CF["exponential"](w))


def class_law(name, n):
    if name == "pattern":
        return pattern((rademacher(), centered_exponential()), n)
    return iid({"rademacher": rademacher, "two_point": lambda: two_point(0.2),
                "exponential": centered_exponential}[name](), n)


class TestClassSums:
    @pytest.mark.parametrize("centered,groups", [(False, [1, 2, 4, 4]), (True, [2, 4, 4, 8])])
    def test_sign_rows_have_few_classes(self, centered, groups):
        plans = [projections(hypercube_directions(4096, k, centered=centered).vectors,
                             iid(rademacher(), 4096)) for k in (1, 2, 3, 4)]
        assert [plan.groups for plan in plans] == groups

    def test_classes_split_by_column_and_law(self):
        n = 384
        signs = rademacher()
        laws = (signs, centered_exponential(), signs)
        model = IndependentModel(laws[:2], np.array([0, 1, 0])[np.arange(n) % 3])
        rows = np.tile(np.repeat([1.0, -1.0], 2), n // 4) / math.sqrt(n)  # + + - - + + ...
        class_laws, sizes, columns = projections(DirectionSet(rows[None, :]).vectors,
                                                 model).draw.args
        theta = rows[None, :]
        assert sizes == (128, 128, 64, 64)  # by law, then by sign: + before -
        assert class_laws == (signs, signs, laws[1], laws[1])
        for law, size, column in zip(class_laws, sizes, columns):
            members = [r for r in range(n)
                       if model.laws[model.law_index[r]] is law and theta[0, r] == column[0]]
            assert len(members) == size

    @pytest.mark.parametrize("case", ["random-rows", "uniform", "user-law", "exchangeable",
                                      "exchangeable-small-bins", "mixed-pattern",
                                      "too-many-classes"])
    def test_other_cells_take_the_coordinate_path(self, case):
        n = 256
        ds = hypercube_directions(n, 2, centered=case.startswith("exchangeable"))
        model = iid(rademacher(), n)
        if case == "random-rows":
            ds = random_orthonormal(n, 2, seed=1)
        elif case == "uniform":
            model = iid(uniform(), n)
        elif case == "user-law":
            model = iid(IIDModel("signs", rademacher().sampler, abs3=1.0, fourth=1.0), n)
        elif case == "exchangeable":  # 1024 distinct values on 1024 distinct columns
            ds = random_orthonormal(1024, 2, seed=1, centered=True)
            model = ramp_model(1024)
        elif case == "exchangeable-small-bins":  # 8 column classes of 32 < _BIN_SIZE
            ds = hypercube_directions(n, 4, centered=True)
            model = ramp_model(n)
        elif case == "mixed-pattern":
            model = pattern((rademacher(), uniform()), n)
        else:
            ds = hypercube_directions(n, 5)  # 8 classes > 256 / 64
        assert projections(ds.vectors, model)[:2] == (COORDINATES, None)
        g = unit_cosine(ds.k)
        est = estimate_discrepancy(ds, model, g,
                                   gaussian_expectation(g, GaussianSpec.identity(ds.k)), 2000,
                                   seed=1)
        assert (est.sampler, est.groups) == (COORDINATES, None)

    def test_random_rows_are_turned_away_after_their_first_row(self, monkeypatch):
        calls = []
        real_sort = np.sort
        monkeypatch.setattr(np, "sort", lambda a, *args, **kw: calls.append(a) or
                            real_sort(a, *args, **kw))
        assert projections(random_orthonormal(4096, 3, seed=2).vectors,
                           iid(rademacher(), 4096)).sampler == COORDINATES
        assert len(calls) == 1

    @pytest.mark.parametrize("law", ["rademacher", "two_point", "exponential", "pattern"])
    def test_projection_is_the_class_sums_times_the_distinct_columns(self, law):
        n, k = 1024, 3
        ds = hypercube_directions(n, k)
        model = class_law(law, n)
        laws, sizes, columns = projections(ds.vectors, model).draw.args
        g = cosine_testfn([0.9, -0.4, 0.7], phase=0.3)
        gauss = gaussian_expectation(g, GaussianSpec.identity(k))
        est = estimate_discrepancy(ds, model, g, gauss, 8192 + 1000, seed=12)
        assert (est.sampler, est.groups) == (CLASS_SUMS, len(laws))
        blocks = [sample_class_sums(laws, sizes, 12, start, count)
                  for start, count in ((0, 8192), (8192, 1000))]
        vals = [g.evaluate(sums @ columns) for sums in blocks]
        want = (vals[0].mean() * 8192 + vals[1].mean() * 1000) / 9192
        assert est.mean_g == pytest.approx(want, rel=1e-14, abs=1e-15)
        # the classes stand for the coordinates: column c of a class is theta^r of its members
        for column in columns:
            assert np.any(np.all(ds.vectors.T == column, axis=1))

    @pytest.mark.parametrize("law", ["rademacher", "exponential", "pattern"])
    def test_class_path_is_bitwise_equal_across_worker_counts(self, law):
        ds = hypercube_directions(512, 3, centered=True)
        model = class_law(law, 512)
        g = unit_cosine(3)
        gauss = gaussian_expectation(g, GaussianSpec.identity(3))
        runs = [estimate_discrepancy(ds, model, g, gauss, 2 * 8192 + 100, seed=9, workers=w)
                for w in (1, 2, 3)]
        assert {run.sampler for run in runs} == {CLASS_SUMS}
        assert len({(run.mean_g.hex(), run.se.hex()) for run in runs}) == 1

    @pytest.mark.parametrize("law", ["rademacher", "two_point", "exponential", "pattern"])
    def test_class_path_calibrates_against_the_exact_mean(self, law):
        # z = (mean g - E g(S)) / se over 20 seeds in each of 6 cells, with the
        # exact E g(S) from the laws' characteristic functions
        pooled = []
        for n, k in itertools.product((256, 4096), (1, 2, 3)):
            ds = hypercube_directions(n, k)
            model = class_law(law, n)
            # |a| = 1.3, near the worst frequency, and no column orthogonal to a
            a = np.array([1.0, 0.6, -0.8][:k])
            a *= 1.3 / np.linalg.norm(a)
            g = cosine_testfn(a, phase=0.4)
            exact = exact_cosine_mean(ds, LOG_CF[law], a, 0.4)
            gauss = gaussian_expectation(g, GaussianSpec.identity(k))
            z = []
            for seed in range(20):
                est = estimate_discrepancy(ds, model, g, gauss, 2 * 8192,
                                           seed=100_000 * n + 1000 * k + seed)
                assert est.sampler == CLASS_SUMS
                z.append((est.mean_g - exact) / est.se)
            assert abs(np.mean(z)) <= 4.5 / math.sqrt(len(z)), (n, k)
            pooled.extend(z)
        assert abs(np.mean(pooled)) <= 4.0 / math.sqrt(len(pooled))
        assert 0.6 <= np.var(pooled, ddof=1) <= 1.5

    @pytest.mark.parametrize("side", ["columns", "values"])
    def test_rank_bins_calibrate_against_the_exact_mean(self, side):
        # z = (mean g - E g(S)) / se over 120 seeds, with the exact E g(S) of
        # a two-group partition (exact_two_group_cosine).  Columns: ramp on
        # centred sign rows, k = 1, n = 256 (at n = 64 the two classes of 32
        # are below _BIN_SIZE); the items are the population values, and
        # those on the upper column form a uniform subset.  Values:
        # alternating on random centred rows, n = 1024, k = 2; the items are
        # the coordinates, and those that take the upper value form one.
        if side == "columns":
            n, k = 256, 1
            ds, model = hypercube_directions(n, k, centered=True), ramp_model(n)
        else:
            n, k = 1024, 2
            ds, model = random_orthonormal(n, k, seed=8, centered=True), alternating_model(n)
        a = np.array([1.0, 0.6][:k])
        a *= 1.3 / np.linalg.norm(a)
        g = cosine_testfn(a, phase=0.4)
        if side == "columns":
            lo, hi = ds.vectors[0].min() * a[0], ds.vectors[0].max() * a[0]
            w, m = model.population, int(np.count_nonzero(ds.vectors[0] * a[0] == hi))
        else:
            lo, hi = -1.0, 1.0
            w, m = a @ ds.vectors, n // 2
        exact = exact_two_group_cosine(w, lo, hi, m, 0.4)
        gauss = gaussian_expectation(g, GaussianSpec(ds.gram))
        z = []
        for seed in range(120):
            est = estimate_discrepancy(ds, model, g, gauss, 2 * 8192, seed=7000 + seed)
            assert est.sampler == (COLUMN_BINS if side == "columns" else VALUE_BINS)
            z.append((est.mean_g - exact) / est.se)
        assert abs(np.mean(z)) <= 4.5 / math.sqrt(len(z))
        # An exact sampler's sample variance is chi^2_119 / 119, outside the
        # band with probability 0.05 % (16 % with 20 seeds, chi^2_19 / 19).
        assert 0.6 <= np.var(z, ddof=1) <= 1.5


def _log_uniform_lattice(w):
    """log E exp(i w X) of the uniform draws: X = (Y - 1.5) W on the 2^23
    lattice points Y of [1, 2), W = float32(2 sqrt(3)), h = W 2^-23, a
    geometric sum e^(-i w h/2) sin(w W/2) / (2^23 sin(w h/2))."""
    width = float(np.float32(2.0 * math.sqrt(3.0)))
    h = width * 2.0**-23
    return -0.5j * w * h + np.log((np.sin(w * width / 2.0) / (2.0**23 * np.sin(w * h / 2.0)))
                                  .astype(complex))


def _log_two_point_draws(p):
    """log E exp(i w X) of two_point(p)'s draws, P(hi) = t 2^-24 with
    t = ceil(float32(p) 2^24)."""
    hi, lo = two_point(p).support[0][::-1]
    drawn = math.ceil(float(np.float32(p)) * 2**24) / 2**24
    return lambda w: np.log(drawn * np.exp(1j * hi * w) + (1.0 - drawn) * np.exp(1j * lo * w))


# The draws' own laws on the coordinate path, keyed as COORDINATE_MODELS.
COORDINATE_LOG_CF = {
    "iid": _log_uniform_lattice,
    "two_point": _log_two_point_draws(0.2),
    "exponential": LOG_CF["exponential"],
}
COORDINATE_LOG_CF["three-law"] = lambda w: np.choose(
    np.arange(w.size) % 3, [COORDINATE_LOG_CF[name](w) for name in ("two_point", "iid",
                                                                    "exponential")])


class TestCoordinateCalibration:
    @pytest.mark.parametrize("family", ["iid", "two_point", "exponential", "three-law"])
    def test_coordinate_path_calibrates_against_the_exact_mean(self, family):
        # z = (mean g - E g(S)) / se over 64 seeds on random rows, n = 256,
        # with the exact E g(S) of the draws' own laws: the uniform lattice,
        # the two-point law's P(hi) = t 2^-24, the exponential
        n = 256
        ds = random_orthonormal(n, 2, seed=21)
        model = COORDINATE_MODELS[family](n)
        a = np.array([1.0, 0.6])
        a *= 1.3 / np.linalg.norm(a)
        g = cosine_testfn(a, phase=0.4)
        exact = exact_cosine_mean(ds, COORDINATE_LOG_CF[family], a, 0.4)
        gauss = gaussian_expectation(g, GaussianSpec.identity(2))
        z = []
        for seed in range(64):
            est = estimate_discrepancy(ds, model, g, gauss, 2048, seed=300 + seed, workers=1)
            assert est.sampler == COORDINATES
            z.append((est.mean_g - exact) / est.se)
        assert abs(np.mean(z)) <= 0.5
        assert 0.5 <= np.var(z, ddof=1) <= 1.7


def exact_two_group_cosine(w, lo, hi, m, phase):
    """E cos(sum_j w_j x_j + phase) when x_j = hi on a uniform m-subset of
    the items and lo on the rest: Re[e^(i phase) e^(i lo sum w) [z^m]
    prod_j (1 + z e^(i (hi - lo) w_j)) / C(n, m)].  The coefficient comes
    from a dynamic programme over the items, every subset sum weighed by
    its phase, with the coefficients halved at each step to keep them
    bounded, so they carry the factor 2^-n."""
    n = w.size
    coef = np.zeros(m + 1, dtype=complex)
    coef[0] = 1.0
    for u in np.exp(1j * (hi - lo) * w):
        coef[1:] = 0.5 * (coef[1:] + u * coef[:-1])
        coef[0] *= 0.5
    log_scale = n * math.log(2.0) - math.lgamma(n + 1) + math.lgamma(m + 1) + math.lgamma(n - m + 1)
    return float(np.real(np.exp(1j * (phase + lo * w.sum()) + log_scale) * coef[m]))


def alternating_model(n):
    return ExchangeableModel(np.tile([-1.0, 1.0], n // 2))


class TestRankBinPath:
    @pytest.mark.parametrize("case", [
        # (n, k, rows, population, the side and the number of bins or None)
        (1024, 3, "sign", "ramp", (COLUMN_BINS, 4)),
        (256, 1, "sign", "ramp", (COLUMN_BINS, 2)),
        (1024, 2, "random", "alternating", (VALUE_BINS, 2)),
        (1024, 3, "sign", "alternating", (VALUE_BINS, 2)),  # 2 values < 4 classes
        (1024, 2, "sign", "four-values", (COLUMN_BINS, 4)),  # 4 and 4: columns
        (1024, 2, "random", "four-values", (VALUE_BINS, 4)),
        (1024, 2, "random", "five-values", (VALUE_BINS, 5)),
        (1024, 2, "random", "eight-values", (VALUE_BINS, 8)),
        (1024, 2, "random", "nine-values", None),  # 9 bins > _MAX_BINS
        (256, 2, "sign", "alternating", (VALUE_BINS, 2)),
        (256, 2, "random", "four-values", (VALUE_BINS, 4)),
        (128, 2, "random", "four-values", None),  # bins of 32 < _BIN_SIZE
        (128, 1, "sign", "alternating", (COLUMN_BINS, 2)),  # 2 and 2: columns
        (64, 1, "sign", "alternating", None),  # bins of 32 < _BIN_SIZE
    ], ids=lambda case: "-".join(map(str, case[:4])))
    def test_the_rows_and_the_population_select_the_side(self, case):
        n, k, rows, population, want = case
        ds = (hypercube_directions(n, k, centered=True) if rows == "sign"
              else random_orthonormal(n, k, seed=3, centered=True))
        values = {"ramp": np.arange(n), "alternating": np.arange(n) % 2,
                  "four-values": np.arange(n) % 4, "five-values": np.arange(n) % 5,
                  "eight-values": np.arange(n) % 8, "nine-values": np.arange(n) % 9}
        model = ExchangeableModel(standardize_population(values[population] ** 2))
        assert projections(ds.vectors, model)[:2] == (want or (COORDINATES, None))
        g = unit_cosine(ds.k)
        est = estimate_discrepancy(ds, model, g,
                                   gaussian_expectation(g, GaussianSpec.identity(ds.k)), 1000,
                                   seed=1)
        assert (est.sampler, est.groups) == (want or (COORDINATES, None))

    @pytest.mark.parametrize("side", ["columns", "values"])
    def test_projection_is_the_bin_sums_times_their_factors(self, side):
        n, k = 1024, 3
        if side == "columns":
            ds, model = hypercube_directions(n, k, centered=True), ramp_model(n)
        else:
            ds, model = random_orthonormal(n, k, seed=4, centered=True), alternating_model(n)
        weights, sizes, factors = projections(ds.vectors, model).draw.args
        g = cosine_testfn([0.9, -0.4, 0.7], phase=0.3)
        est = estimate_discrepancy(ds, model, g, gaussian_expectation(g, GaussianSpec(ds.gram)),
                                   8192 + 1000, seed=12)
        vals = []
        for start, count in ((0, 8192), (8192, 1000)):
            sums = sample_rank_bins(weights, sizes, 12, start, count)
            if side == "columns":  # the population values that land on each column
                s = sums[:, :, 0] @ factors
                for column, size in zip(factors, sizes):
                    assert np.count_nonzero(np.all(ds.vectors.T == column, axis=1)) == size
            else:  # the columns of the coordinates that take each value
                s = np.einsum("d,bdk->bk", np.unique(model.population), sums)
            vals.append(g.evaluate(s))
        want = (vals[0].mean() * 8192 + vals[1].mean() * 1000) / 9192
        assert est.mean_g == pytest.approx(want, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("side", ["columns", "values"])
    def test_bin_path_is_bitwise_equal_across_worker_counts(self, side):
        n = 512
        ds = hypercube_directions(n, 3, centered=True)
        model = ramp_model(n) if side == "columns" else alternating_model(n)
        g = unit_cosine(3)
        gauss = gaussian_expectation(g, GaussianSpec.identity(3))
        runs = [estimate_discrepancy(ds, model, g, gauss, 2 * 8192 + 100, seed=9, workers=w)
                for w in (1, 2, 3)]
        assert {run.sampler for run in runs} == {COLUMN_BINS if side == "columns" else VALUE_BINS}
        assert len({(run.mean_g.hex(), run.se.hex()) for run in runs}) == 1


@pytest.mark.parametrize("call", [
    lambda ds, law, g: compute_bound("T2", ds, law, g),
    lambda ds, law, g: verify_bound("T2", ds, law, g, samples=2000, seed=0),
    lambda ds, law, g: estimate_discrepancy(ds, law, g, Expectation(0.0, 0.0, "closed-form"),
                                            2000, seed=0),
    lambda ds, law, g: third_moment_sum(ds, law),
    lambda ds, law, g: eij_second_moments(ds, law),
    lambda ds, law, g: stein_lambda(law),
], ids=["compute_bound", "verify_bound", "estimate_discrepancy", "third_moment_sum",
        "eij_second_moments", "stein_lambda"])
def test_a_bare_law_is_refused_with_the_iid_model(call):
    # a scalar law has no n: the i.i.d. model of n of its coordinates is iid(law, n)
    with pytest.raises(InvalidInputError, match=r"iid\(law, n\)"):
        call(hypercube_directions(16, 2), uniform(), unit_cosine(2))


@pytest.mark.parametrize("model", [iid(uniform(), 8), ramp_model(8)], ids=["iid", "exchangeable"])
def test_third_moment_sum_checks_the_dimension(model):
    with pytest.raises(InvalidInputError, match="model dimension does not match"):
        third_moment_sum(hypercube_directions(16, 2, centered=True), model)


def support_only(law):
    """A copy of a finitely supported law that declares no constant."""
    return IIDModel(law.name, law.sampler, support=law.support)


class TestLawConstants:
    @pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "abstract"])
    def test_a_support_only_law_gets_every_bound(self, theorem):
        ds = random_orthonormal(64, 2, seed=3)
        reports = [compute_bound(theorem, ds, iid(law, 64), unit_cosine(2))
                   for law in (rademacher(), support_only(rademacher()))]
        assert repr(reports[0]) == repr(reports[1])

    def test_a_support_only_law_has_the_declared_moments(self):
        declared, enumerated = (moment_summary(iid(law, 8))
                                for law in (rademacher(), support_only(rademacher())))
        assert enumerated == declared
        assert all(type(value) is float for value in vars(enumerated).values()
                   if value is not None)

    @pytest.mark.parametrize("theorem, constant", [("T1", "abs3"), ("abstract", "fourth")])
    def test_a_law_with_neither_declarations_nor_support_is_refused(self, theorem, constant):
        law = IIDModel("bare", uniform().sampler)
        with pytest.raises(MissingMomentsError, match=f"declares no {constant} "):
            compute_bound(theorem, hypercube_directions(16, 2), iid(law, 16), unit_cosine(2))

    def test_an_unknown_constant_is_refused(self):
        with pytest.raises(InvalidInputError, match="'third'"):
            rademacher().constant("third")
        with pytest.raises(InvalidInputError, match="'sum_sampler'"):
            rademacher().constant("sum_sampler")


class TestVerifyBound:
    def test_desk_scale_pass(self):
        rep = verify_bound("T2", hypercube_directions(256, 2), iid(uniform(), 256), unit_cosine(2),
                           samples=50_000, seed=21)
        assert rep.passed
        assert rep.bound_total > 0
        assert rep.estimate.gaussian.method == "closed-form"

    def test_report_explains_the_sampling(self):
        rep = verify_bound("T1", hypercube_directions(64, 2), iid(rademacher(), 64), unit_cosine(2),
                           samples=20_000, seed=2, workers=2)
        meta, est = rep.metadata, rep.estimate
        assert (est.workers, est.blocks, meta["tile_rows"]) == (2, 3, TILE_ROWS)
        assert (est.sampler, est.groups) == (COORDINATES, None)
        assert set(meta["stage_seconds"]) == {"bound", "gaussian", "discrepancy"}
        assert meta["samples_per_s"] == pytest.approx(
            20_000 / meta["stage_seconds"]["discrepancy"])

    def test_negative_control(self):
        rep = verify_bound("T2", hypercube_directions(16, 2), iid(rademacher(), 16), unit_cosine(2),
                           samples=400_000, seed=11, bound_scale=1e-6)
        assert not rep.passed

    def test_report_reads_its_estimate_and_scaled_bound(self):
        rep = verify_bound("T1", hypercube_directions(64, 2), iid(rademacher(), 64), unit_cosine(2),
                           samples=20_000, seed=2, bound_scale=0.5)
        assert rep.bound_total == rep.bound_report.total * 0.5
        assert rep.estimate.samples == 20_000
        assert rep.passed == (rep.estimate.discrepancy
                              <= rep.bound_total + rep.estimate.ci_halfwidth)

    def test_exchangeable_pass(self):
        n = 64
        rep = verify_bound("T4", hypercube_directions(n, 2, centered=True), ramp_model(n),
                           unit_cosine(2), samples=20_000, seed=5, constants=UNIT_CONSTANTS)
        assert rep.passed

    def test_abstract_theorem_pass(self):
        rep = verify_bound("abstract", hypercube_directions(128, 2), iid(uniform(), 128),
                           unit_cosine(2),
                           samples=20_000, seed=6)
        assert rep.passed
        assert rep.bound_report.min_branch in ("sum-abs", "sqrt-sum-sq")

    def test_stage_failure_is_named(self):
        with pytest.raises(InvalidInputError, match="stage 'bound'"):
            verify_bound("T4", hypercube_directions(16, 2), ramp_model(16),  # rows not centered
                         unit_cosine(2), samples=2_000, seed=0)
