import itertools
import math
import multiprocessing
import threading

import numpy as np
import pytest

from projclt.bounds import ExchangeableConstants
from projclt.directions import (
    DirectionSet,
    hypercube_directions,
    norm_summary,
    random_orthonormal,
)
from projclt.empirics import (
    CLASS_SUMS,
    COORDINATES,
    RESAMPLING,
    TRANSPOSITION,
    _classes,
    _mean_abs3_diff,
    _Moments,
    compute_bound,
    eij_second_moments,
    estimate_discrepancy,
    linearity_residual,
    stein_lambda,
    third_moment_sum,
    verify_bound,
)
from projclt.errors import InvalidInputError, InvalidMomentsError, MissingMomentsError
from projclt.sources import (
    TILE_ROWS,
    ExchangeableModel,
    IndependentModel,
    centered_exponential,
    diff_abs3,
    fourth_moment,
    iid_moments,
    moment_summary,
    rademacher,
    sample_block,
    sample_class_sums,
    standardize_population,
    two_point,
    uniform,
    user_model,
)
from projclt.testfuncs import (
    Expectation,
    GaussianSpec,
    TestFunction,
    bump_testfn,
    cosine_testfn,
    gaussian_expectation,
)

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


def one_state(model, seed, n=None):
    """One state: the first row of a one-state block."""
    return sample_block(model, seed, 0, 1, n=n)[0]


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
        model = uniform()
        x = one_state(model, seed=5, n=12)
        draw = resample_pair(x, ds, model, seed=17)
        manual = x.copy()
        manual[draw.index] = draw.replacement
        np.testing.assert_allclose(draw.s_prime, project(manual, ds), atol=1e-12)
        np.testing.assert_allclose(draw.s, project(x, ds), atol=0)

    def test_collision_leaves_projection_unchanged(self):
        # two-point law: sooner or later the replacement equals the old value
        ds = hypercube_directions(8, 2)
        model = two_point(0.5)
        x = one_state(model, seed=1, n=8)
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
        model = uniform()
        x = one_state(model, seed=3, n=8)
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
            transpose_pair(np.zeros(8), ds, uniform(), seed=0)

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


def shifted_law():
    """A two-point law of mean 1/2: it breaks the shrinkage identity."""
    return user_model("shifted", rademacher().sampler, abs3=0.5, fourth=0.5,
                      support=(np.array([0.0, 1.0]), np.array([0.5, 0.5])))


EVERY_LAW = [
    rademacher(), uniform(), two_point(0.3), centered_exponential(),
    IndependentModel(coords=tuple(
        (rademacher(), uniform(), two_point(0.2), centered_exponential())[j % 4]
        for j in range(33))),
]
LAW_IDS = ["rademacher", "uniform", "two_point", "exponential", "independent"]


class TestConditionalLinearity:
    def test_resampling_small_sign_model_is_exact(self):
        assert linearity_residual(hypercube_directions(4, 2), rademacher()) == 0.0

    @pytest.mark.parametrize("centered", [True, False])
    @pytest.mark.parametrize("model", EVERY_LAW, ids=LAW_IDS)
    def test_resampling_residual_is_rounding_for_every_law(self, model, centered):
        ds = random_orthonormal(33, 3, seed=5, centered=centered)
        assert linearity_residual(ds, model) <= 1e-15

    @pytest.mark.parametrize("centered", [True, False])
    @pytest.mark.parametrize("values", [
        np.arange(1.0, 34.0), np.arange(33) % 2, np.random.default_rng(9).lognormal(size=33),
        np.r_[np.zeros(31), [1.0, 5.0]], np.r_[np.zeros(14), [1.0, 5.0]],
    ], ids=["ramp", "alternating", "lognormal", "skewed", "skewed16"])
    def test_transposition_residual_is_rounding_for_every_population(self, values, centered):
        # W = sum_r x_r is the population sum at every state, so rows that do
        # not sum to zero leave the identity exact too
        ds = random_orthonormal(values.size, 3, seed=6, centered=centered)
        model = ExchangeableModel(standardize_population(values))
        assert linearity_residual(ds, model) <= 1e-15

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
            (two_point(0.3), random_orthonormal(7, 3, seed=1)),
            (IndependentModel(coords=(rademacher(), uniform(), two_point(0.2)) * 2),
             random_orthonormal(6, 2, seed=2)),
            (shifted_law(), random_orthonormal(7, 3, seed=5)),
            (IndependentModel(coords=(shifted_law(), uniform()) * 3),
             random_orthonormal(6, 2, seed=6)),
            (ramp_model(6), random_orthonormal(6, 2, seed=3, centered=True)),
            (ramp_model(7), random_orthonormal(7, 3, seed=4)),
            (skewed_model(16), random_orthonormal(16, 3, seed=0)),
        ],
        ids=["resampling-two-point", "resampling-independent", "resampling-shifted",
             "resampling-shifted-independent", "transposition-centered",
             "transposition-non-centered", "transposition-skewed"],
    )
    def test_closed_form_matches_enumeration(self, model, ds):
        # Random float64 states: permutations of the population under the
        # transposition, generic vectors under resampling (whose residual
        # does not depend on x either).
        rng = np.random.default_rng(17)
        if isinstance(model, ExchangeableModel):
            pair, states = TRANSPOSITION, rng.permuted(np.tile(model.population, (40, 1)), axis=1)
        else:
            pair, states = RESAMPLING, rng.standard_normal((40, ds.n))
        lam = stein_lambda(model, ds.n)
        for x in states:
            cond = conditional_mean_enumerated(x, ds, model, pair)
            resid = float(np.max(np.abs(cond + lam * project(x, ds))))
            assert abs(linearity_residual(ds, model) - resid) <= 1e-12

    def test_lambda_values(self):
        assert stein_lambda(uniform(), 100) == 0.01
        assert stein_lambda(ramp_model(5), 5) == 0.5
        with pytest.raises(InvalidInputError, match="n >= 2"):
            stein_lambda(ramp_model(2), 1)


class TestEijClosedForm:
    def test_sign_states_make_resampling_errors_vanish(self):
        ds = hypercube_directions(16, 3)
        x = one_state(rademacher(), seed=4, n=16)
        np.testing.assert_array_equal(eij_closed_form(x, ds, RESAMPLING), np.zeros((3, 3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_resampling_matches_enumeration(self, seed):
        ds = random_orthonormal(8, 3, seed=100 + seed)
        model = two_point(0.2)
        x = one_state(model, seed=seed, n=8)
        closed = eij_closed_form(x, ds, RESAMPLING)
        enum = eij_enumerated(x, ds, model, RESAMPLING)
        assert np.max(np.abs(closed - enum)) <= 1e-12

    @pytest.mark.parametrize("model", [
        rademacher(), uniform(), centered_exponential(),
        IndependentModel(coords=(rademacher(), uniform(), two_point(0.7), centered_exponential()) * 2),
    ], ids=["rademacher", "uniform", "exponential", "independent"])
    def test_resampling_matches_enumeration_for_every_law(self, model):
        # finite supports are enumerated; continuous laws use E(X* - x)^2 = 1 + x^2
        ds = random_orthonormal(8, 3, seed=31)
        for seed in range(5):
            x = one_state(model, seed=seed, n=8)
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
            (RESAMPLING, two_point(0.2), random_orthonormal(8, 3, seed=7)),
            (TRANSPOSITION, ramp_model(6), random_orthonormal(6, 3, seed=8, centered=True)),
        ],
    )
    def test_block_input_matches_per_state_calls(self, pair_kind, model, ds):
        block = sample_block(model, seed=3, start=0, count=40, n=ds.n)
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
        second = eij_second_moments(ds, rademacher())
        np.testing.assert_array_equal(second, np.zeros((2, 2)))

    def test_resampling_envelopes(self):
        # the exact statistics stay below the analytic envelopes
        n = 128
        rows = np.full((1, n), 1.0 / math.sqrt(n))
        ds = DirectionSet(rows)
        model = uniform()
        m = iid_moments(model)
        ns = norm_summary(ds)
        env_sq = (1.0 / n) * ns.sum_l4_sq * math.sqrt(m.fourth_max - 1.0)
        assert math.sqrt(eij_second_moments(ds, model).sum()) <= env_sq * (1 + 1e-12)
        env_third = (8.0 / n) * m.abs3_max * ns.sum_l3_cubed
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
            uniform(),
            centered_exponential(),
            two_point(0.2),
            IndependentModel(
                coords=(uniform(), rademacher(), centered_exponential(), two_point(0.2)) * 8
            ),
        ],
        ids=["uniform", "exponential", "two_point", "mixed"],
    )
    def test_exact_resampling_third_moment_calibrates(self, model):
        # Per state x the statistic is (1/n) sum_r (sum_i |theta_i^r|^3) E|X*_r - x_r|^3,
        # its inner expectation sub-sampled over independent replacement draws.
        n, states, copies = 32, 4000, 16
        ds = random_orthonormal(n, 2, seed=21)
        weights = np.sum(np.abs(ds.vectors) ** 3, axis=0)
        x = sample_block(model, seed=1, start=0, count=states, n=n)
        x_star = sample_block(model, seed=2, start=0, count=states * copies, n=n)
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
        law = user_model("custom", uniform().sampler, abs3=1.3, fourth=1.8)
        with pytest.raises(MissingMomentsError, match="diff_abs3"):
            compute_bound("abstract", hypercube_directions(8, 1), law, unit_cosine(1))

    def test_continuous_law_without_fourth_is_rejected(self):
        law = user_model("custom", uniform().sampler, abs3=1.3,
                         diff_abs3=12.0 * math.sqrt(3.0) / 5.0)
        with pytest.raises(MissingMomentsError, match="fourth"):
            eij_second_moments(hypercube_directions(8, 1), law)

    def test_abstract_bound_needs_no_moments_it_does_not_use(self):
        # abs3 feeds T1-T5 only; the abstract route needs diff_abs3 and fourth
        law = user_model("custom", uniform().sampler, fourth=9.0 / 5.0,
                         diff_abs3=12.0 * math.sqrt(3.0) / 5.0)
        with pytest.raises(MissingMomentsError):
            compute_bound("T2", hypercube_directions(16, 1), law, unit_cosine(1))
        report = compute_bound("abstract", hypercube_directions(16, 1), law, unit_cosine(1))
        assert report.total > 0 and (report.n, report.k, report.lam) == (16, 1, 1 / 16)

    def test_abstract_fourth_term_is_the_min_of_the_exact_envelopes(self):
        ds = random_orthonormal(64, 2, seed=12)
        model, g = uniform(), unit_cosine(2)
        second = eij_second_moments(ds, model)
        report = compute_bound("abstract", ds, model, g)
        lam = stein_lambda(model, 64)
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
        laws = (two_point(0.3), rademacher())
        model = IndependentModel(coords=tuple(laws[r % 2] for r in range(n)))
        ds = random_orthonormal(n, 2, seed=40 + n)
        states = np.array(list(itertools.product(*(c.support[0] for c in model.coords))))
        probs = np.prod(list(itertools.product(*(c.support[1] for c in model.coords))), axis=1)
        e = eij_closed_form(states, ds, RESAMPLING)
        exact = eij_second_moments(ds, model)
        np.testing.assert_allclose(exact, np.einsum("m,mij->ij", probs, e * e),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "model,pair_kind,centered",
        [
            (uniform(), RESAMPLING, False),
            (centered_exponential(), RESAMPLING, False),
            (IndependentModel(coords=(uniform(), rademacher(), centered_exponential(),
                                      two_point(0.2)) * 8), RESAMPLING, False),
            (ramp_model(32), TRANSPOSITION, True),
            (ExchangeableModel(np.tile([-1.0, 1.0], 16)), TRANSPOSITION, True),
        ],
        ids=["uniform", "exponential", "mixed", "ramp", "alternating"],
    )
    def test_matches_sampled_means(self, model, pair_kind, centered):
        n, states = 32, 20_000
        ds = random_orthonormal(n, 2, seed=50, centered=centered)
        e = eij_closed_form(sample_block(model, seed=6, start=0, count=states, n=n), ds, pair_kind)
        sq = e * e
        se = sq.std(axis=0, ddof=1) / math.sqrt(states)
        exact = eij_second_moments(ds, model)
        assert np.all(np.abs(sq.mean(axis=0) - exact) <= 4 * se)

    def test_resampling_reads_the_declared_fourth_moment(self):
        law = two_point(0.3)
        ds = random_orthonormal(16, 2, seed=8)
        t2 = ds.vectors**2
        expected = t2 * (iid_moments(law).fourth - 1.0) @ t2.T / 16**2
        np.testing.assert_array_equal(eij_second_moments(ds, law), expected)

    def test_declared_fourth_moment_below_one_is_rejected(self):
        law = user_model("custom", uniform().sampler, fourth=0.5)
        with pytest.raises(InvalidMomentsError, match="EX\\^4"):
            eij_second_moments(hypercube_directions(8, 2), law)

    def test_linearly_independent_rows_are_rejected(self):
        ds = DirectionSet(OVERLAPPING_ROWS)
        with pytest.raises(InvalidInputError, match="orthonormal"):
            eij_second_moments(ds, uniform())

    def test_uncentered_rows_are_rejected_for_transposition(self):
        with pytest.raises(InvalidInputError, match="centered"):
            eij_second_moments(hypercube_directions(8, 2), ramp_model(8))


class TestRepeatedLawObjects:
    """An independent model resolves its distinct law objects once; every
    consumer agrees with a coordinate-by-coordinate reference."""

    def model(self):
        shared, other = two_point(0.3), centered_exponential()
        # the same object at many coordinates, and an equal law as a second object
        return IndependentModel(coords=(shared, uniform(), shared, other, two_point(0.3),
                                        shared, other, rademacher()) * 4)

    def test_laws_are_distinct_objects_in_order_of_first_appearance(self):
        model = self.model()
        assert len(model.laws) == 5
        assert all(model.laws[j] is c for j, c in zip(model.law_index, model.coords))
        assert [c.name for c in model.laws] == [
            "two_point(0.3)", "uniform", "exponential", "two_point(0.3)", "rademacher"]

    def test_consumers_match_a_per_coordinate_reference(self):
        model = self.model()
        coords = model.coords
        ds = random_orthonormal(model.n, 3, seed=9)
        per = [iid_moments(c) for c in coords]
        m = moment_summary(model)
        assert (m.abs3, m.fourth) == (per[0].abs3, per[0].fourth)
        assert m.abs3_max == max(x.abs3 for x in per)
        assert m.fourth_max == max(x.fourth for x in per)

        weights = np.sum(np.abs(ds.vectors) ** 3, axis=0)
        third = float(weights @ np.array([diff_abs3(c) for c in coords])) / model.n
        assert third_moment_sum(ds, model) == third

        t2 = ds.vectors**2
        fourth = np.array([fourth_moment(c) for c in coords])
        np.testing.assert_array_equal(eij_second_moments(ds, model),
                                      (t2 * (fourth - 1.0)) @ t2.T / model.n**2)

        means = np.array([float(c.support[0] @ c.support[1]) if c.support is not None else 0.0
                          for c in coords])
        assert linearity_residual(ds, model) == stein_lambda(model, model.n) * float(
            np.max(np.abs(ds.vectors @ means)))


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
        one = estimate_discrepancy(ds, rademacher(), g, gauss, 20_000, seed=3, workers=1)
        two = estimate_discrepancy(ds, rademacher(), g, gauss, 20_000, seed=3, workers=2)
        assert one.mean_g == two.mean_g
        assert one.discrepancy == two.discrepancy

    def test_partial_last_block_and_tile_across_worker_counts(self):
        # 1000 = 15 full tiles + 40 rows: the last block and its last tile are partial
        ds = random_orthonormal(48, 2, seed=6)
        g = unit_cosine(2)
        gauss = gaussian_expectation(g, GaussianSpec.identity(2))
        samples = 8192 + 1000
        assert 1000 % TILE_ROWS
        one = estimate_discrepancy(ds, uniform(), g, gauss, samples, seed=4, workers=1)
        two = estimate_discrepancy(ds, uniform(), g, gauss, samples, seed=4, workers=2)
        assert (one.mean_g, one.se, one.discrepancy, one.ci_halfwidth) == (
            two.mean_g, two.se, two.discrepancy, two.ci_halfwidth)
        assert (one.blocks, one.workers, two.blocks, two.workers) == (2, 1, 2, 2)

    @pytest.mark.parametrize("family", ["iid", "independent", "exchangeable"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])  # k = 1 may take BLAS's gemv path
    def test_projection_is_bitwise_equal_across_worker_counts(self, family, k):
        # two full blocks and a 100-row block, whose last tile is short; the
        # independent pattern's tiles are transposed views of its law buffer
        n = 257
        model = {
            "iid": uniform(),
            "independent": IndependentModel(
                coords=tuple((uniform(), centered_exponential())[j % 2] for j in range(n))),
            "exchangeable": ramp_model(n),
        }[family]
        ds = random_orthonormal(n, k, seed=k)
        g = unit_cosine(k)
        gauss = gaussian_expectation(g, GaussianSpec.identity(k))
        runs = [estimate_discrepancy(ds, model, g, gauss, 2 * 8192 + 100, seed=9, workers=workers)
                for workers in (1, 2, 3)]
        assert [run.workers for run in runs] == [1, 2, 3]
        assert len({(run.mean_g.hex(), run.se.hex()) for run in runs}) == 1

    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("kind", ["cosine", "bump"])
    @pytest.mark.parametrize("family", ["iid", "exchangeable"])
    def test_projection_matches_a_float64_projection(self, family, kind, n):
        ds = random_orthonormal(n, 3, seed=2)
        model = uniform() if family == "iid" else ramp_model(n)
        g = unit_cosine(3) if kind == "cosine" else bump_testfn(2.0, 3)
        est = estimate_discrepancy(ds, model, g, gaussian_expectation(g, GaussianSpec.identity(3)),
                                   8192, seed=5)
        block = sample_block(model, 5, 0, 8192, n=n)
        # float64 in row chunks, to keep a float64 copy of the block out of memory
        s = np.concatenate([x.astype(np.float64) @ ds.vectors.T for x in np.split(block, 8)])
        assert abs(est.mean_g - g.evaluate(s).mean()) <= 1e-6

    def test_repeated_calls_reuse_one_pool(self):
        ds = random_orthonormal(64, 2, seed=8)
        g = unit_cosine(2)
        gauss = gaussian_expectation(g, GaussianSpec.identity(2))
        counts, estimates = [], []
        for _ in range(5):
            estimates.append(estimate_discrepancy(ds, uniform(), g, gauss, 4 * 8192, seed=7,
                                                  workers=2))
            counts.append(threading.active_count())
        assert counts == [counts[0]] * 5
        assert len({est.mean_g.hex() for est in estimates}) == 1

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
    def test_forked_child_makes_its_own_pool(self):
        ds = random_orthonormal(64, 2, seed=8)
        g = unit_cosine(2)
        gauss = gaussian_expectation(g, GaussianSpec.identity(2))

        def estimate():
            return estimate_discrepancy(ds, uniform(), g, gauss, 4 * 8192, seed=7,
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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_are_rejected(self, workers):
        with pytest.raises(InvalidInputError, match="workers must be a positive integer"):
            g = unit_cosine(2)
            estimate_discrepancy(hypercube_directions(16, 2), rademacher(), g,
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
        est = estimate_discrepancy(ds, uniform(), g, gaussian_expectation(g, GaussianSpec.identity(2)),
                                   samples, seed=8)
        blocks =[sample_block(uniform(), 8, lo, min(8192, samples - lo), n=32)
                  for lo in range(0, samples, 8192)]
        x = np.concatenate(blocks).astype(np.float64)
        vals = g.evaluate(x @ ds.vectors.T)
        assert est.se > 0
        assert est.se == pytest.approx(vals.std(ddof=1) / math.sqrt(samples), rel=1e-3)

    def test_large_n_is_close_to_gaussian(self):
        ds = hypercube_directions(4096, 1)
        g = cosine_testfn([1.0])
        est = estimate_discrepancy(
            ds, rademacher(), g, gaussian_expectation(g, GaussianSpec.identity(1)), 200_000, seed=1
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
            ds, rademacher(), const, Expectation(3.7, 0.0, "closed-form"), 65_536, seed=0
        )
        assert est.discrepancy <= 5e-15

    def test_sample_floor(self):
        ds = hypercube_directions(16, 2)
        g = unit_cosine(2)
        with pytest.raises(InvalidInputError):
            estimate_discrepancy(
                ds, rademacher(), g, gaussian_expectation(g, GaussianSpec.identity(2)), 500, seed=0
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
        laws = (rademacher(), centered_exponential())
        return IndependentModel(coords=tuple(laws[r % 2] for r in range(n)))
    return {"rademacher": rademacher, "two_point": lambda: two_point(0.2),
            "exponential": centered_exponential}[name]()


class TestClassSums:
    @pytest.mark.parametrize("centered,groups", [(False, [1, 2, 4, 4]), (True, [2, 4, 4, 8])])
    def test_sign_rows_have_few_classes(self, centered, groups):
        found = [len(_classes(hypercube_directions(4096, k, centered=centered), rademacher()).laws)
                 for k in (1, 2, 3, 4)]
        assert found == groups

    def test_classes_split_by_column_and_law(self):
        n = 384
        signs = rademacher()
        laws = (signs, centered_exponential(), signs)
        model = IndependentModel(coords=tuple(laws[r % 3] for r in range(n)))
        rows = np.tile(np.repeat([1.0, -1.0], 2), n // 4) / math.sqrt(n)  # + + - - + + ...
        classes = _classes(DirectionSet(rows[None, :]), model)
        theta = rows[None, :]
        assert classes.sizes == (128, 128, 64, 64)  # by law, then by sign: + before -
        assert classes.laws == (signs, signs, laws[1], laws[1])
        for law, size, column in zip(classes.laws, classes.sizes, classes.columns):
            members = [r for r in range(n) if model.coords[r] is law and theta[0, r] == column[0]]
            assert len(members) == size

    @pytest.mark.parametrize("case", ["random-rows", "uniform", "user-law", "exchangeable",
                                      "mixed-pattern", "too-many-classes"])
    def test_other_cells_take_the_coordinate_path(self, case):
        n = 256
        ds = hypercube_directions(n, 2, centered=case == "exchangeable")
        model = rademacher()
        if case == "random-rows":
            ds = random_orthonormal(n, 2, seed=1)
        elif case == "uniform":
            model = uniform()
        elif case == "user-law":
            model = user_model("signs", rademacher().sampler, abs3=1.0, fourth=1.0)
        elif case == "exchangeable":
            model = ramp_model(n)
        elif case == "mixed-pattern":
            model = IndependentModel(coords=tuple((rademacher(), uniform())[r % 2]
                                                  for r in range(n)))
        else:
            ds = hypercube_directions(n, 5)  # 8 classes > 256 / 64
        assert _classes(ds, model) is None
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
        assert _classes(random_orthonormal(4096, 3, seed=2), rademacher()) is None
        assert len(calls) == 1

    @pytest.mark.parametrize("law", ["rademacher", "two_point", "exponential", "pattern"])
    def test_projection_is_the_class_sums_times_the_distinct_columns(self, law):
        n, k = 1024, 3
        ds = hypercube_directions(n, k)
        model = class_law(law, n)
        classes = _classes(ds, model)
        g = cosine_testfn([0.9, -0.4, 0.7], phase=0.3)
        gauss = gaussian_expectation(g, GaussianSpec.identity(k))
        est = estimate_discrepancy(ds, model, g, gauss, 8192 + 1000, seed=12)
        assert (est.sampler, est.groups) == (CLASS_SUMS, len(classes.laws))
        blocks = [sample_class_sums(classes.laws, classes.sizes, 12, start, count)
                  for start, count in ((0, 8192), (8192, 1000))]
        vals = [g.evaluate(sums @ classes.columns) for sums in blocks]
        want = (vals[0].mean() * 8192 + vals[1].mean() * 1000) / 9192
        assert est.mean_g == pytest.approx(want, rel=1e-14, abs=1e-15)
        # the classes stand for the coordinates: column c of a class is theta^r of its members
        for column in classes.columns:
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


class TestVerifyBound:
    def test_desk_scale_pass(self):
        rep = verify_bound("T2", hypercube_directions(256, 2), uniform(), unit_cosine(2),
                           samples=50_000, seed=21)
        assert rep.passed
        assert rep.bound_total > 0
        assert rep.estimate.gaussian.method == "closed-form"

    def test_report_explains_the_sampling(self):
        rep = verify_bound("T1", hypercube_directions(64, 2), rademacher(), unit_cosine(2),
                           samples=20_000, seed=2, workers=2)
        meta, est = rep.metadata, rep.estimate
        assert (est.workers, est.blocks, meta["tile_rows"]) == (2, 3, TILE_ROWS)
        assert (est.sampler, est.groups) == (COORDINATES, None)
        assert set(meta["stage_seconds"]) == {"bound", "gaussian", "discrepancy"}
        assert meta["samples_per_s"] == pytest.approx(
            20_000 / meta["stage_seconds"]["discrepancy"])

    def test_negative_control(self):
        rep = verify_bound("T2", hypercube_directions(16, 2), rademacher(), unit_cosine(2),
                           samples=400_000, seed=11, bound_scale=1e-6)
        assert not rep.passed

    def test_report_reads_its_estimate_and_scaled_bound(self):
        rep = verify_bound("T1", hypercube_directions(64, 2), rademacher(), unit_cosine(2),
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
        rep = verify_bound("abstract", hypercube_directions(128, 2), uniform(), unit_cosine(2),
                           samples=20_000, seed=6)
        assert rep.passed
        assert rep.bound_report.min_branch in ("sum-abs", "sqrt-sum-sq")

    def test_stage_failure_is_named(self):
        with pytest.raises(InvalidInputError, match="stage 'bound'"):
            verify_bound("T4", hypercube_directions(16, 2), ramp_model(16),  # rows not centered
                         unit_cosine(2), samples=2_000, seed=0)
