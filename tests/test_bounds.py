import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projclt.bounds import (
    DEFAULT_EXCHANGEABLE_CONSTANTS,
    THEOREMS,
    ExchangeableConstants,
    bound_abstract,
    compute_bound,
    eij_second_moments,
)
from projclt.directions import (
    DirectionSet,
    hypercube_directions,
    random_orthonormal,
)
from projclt.errors import InvalidInputError, InvalidMomentsError
from projclt.sources import (
    EXCHANGEABLE,
    ExchangeableModel,
    IIDModel,
    IndependentModel,
    exchangeable_moments,
    iid,
    moment_summary,
    rademacher,
    standardize_population,
    uniform,
)
from projclt.testfuncs import cosine_testfn

from conftest import uniform_law

SQRT3 = math.sqrt(3.0)
# a = b = c = 1: T4/T5 with unit constants, for tests that compare terms.
UNIT_CONSTANTS = ExchangeableConstants(a=1.0, b=1.0, c=1.0)


def unit_cosine(k):
    return cosine_testfn(np.full(k, 1.0 / math.sqrt(k)))


def equicorrelated_set(k, n, beta, centered=False, seed=0):
    """Unit rows with Gram (1-beta) I + beta J, so lambda_max = 1 + (k-1) beta."""
    c = (1.0 - beta) * np.eye(k) + beta * np.ones((k, k))
    b = np.linalg.cholesky(c)
    base = random_orthonormal(n, k, seed=seed, centered=centered)
    return DirectionSet(b @ base.vectors)


def ramp_model(n):
    return ExchangeableModel(standardize_population(np.arange(1.0, n + 1.0)))


# Two centered unit rows in R^8 with inner product 1/2.
LININD_ROWS = np.array([[0.5, 0.5, -0.5, -0.5, 0.0, 0.0, 0.0, 0.0],
                        [0.5, 0.0, -0.5, 0.0, 0.5, 0.0, -0.5, 0.0]])


class TestIIDBound:
    def test_rademacher_kills_fourth_term(self):
        ds = hypercube_directions(64, 2)
        rep = compute_bound("T1", ds, iid(rademacher(), 64), unit_cosine(2))
        assert rep.term_fourth == 0.0
        assert rep.total == rep.term_third

    def test_hand_assembled_value(self):
        # k=1, all-coordinates direction at n=100, unit seminorms:
        # third term = 4/3 * 1 * 1 * 1 * (1/10)
        ds = DirectionSet(np.full((1, 100), 0.1))
        rep = compute_bound("T1", ds, iid(rademacher(), 100), cosine_testfn([1.0]))
        assert rep.total == pytest.approx(4.0 / 30.0, abs=1e-15)

    def test_doubling_n_scales_by_inverse_sqrt_two(self):
        g = unit_cosine(2)
        rep1 = compute_bound("T1", hypercube_directions(256, 2), iid(uniform(), 256), g)
        rep2 = compute_bound("T1", hypercube_directions(512, 2), iid(uniform(), 512), g)
        assert rep2.term_fourth / rep1.term_fourth == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert rep2.term_third / rep1.term_third == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_total_is_exact_sum_of_terms(self):
        ds = hypercube_directions(64, 3)
        rep = compute_bound("T1", ds, iid(uniform(), 64), unit_cosine(3))
        assert rep.total == rep.term_fourth + rep.term_third + rep.term_mixed

    def test_requires_orthonormal_rows(self):
        ds = DirectionSet(LININD_ROWS)
        with pytest.raises(InvalidInputError, match="T1 requires orthonormal directions; "
                           "these rows' Gram matrix is off the identity by 5.000e-01"):
            compute_bound("T1", ds, iid(uniform(), 8), unit_cosine(2))

    def test_orthonormal_rows_are_measured_not_declared(self):
        # off-diagonal 2.7e-17: orthonormal within the row tolerance
        ds = DirectionSet(np.array([[0.6, 0.8], [0.8, -0.6]]))
        assert ds.orthonormal
        assert compute_bound("T1", ds, iid(uniform(), 2), unit_cosine(2)).total > 0


class TestIndependentBound:
    def test_identical_laws_reduce_to_iid(self):
        ds = hypercube_directions(128, 3)
        g = unit_cosine(3)
        # two uniform law objects: an independent model whose laws are identical
        same = IndependentModel((uniform(), uniform()), np.arange(128) % 2)
        total = compute_bound("T1", ds, iid(uniform(), 128), g).total
        assert compute_bound("T2", ds, same, g).total == total

    def test_mixed_laws_use_worst_coordinate(self):
        # the first coordinate is Rademacher, the worst one uniform
        ds = hypercube_directions(64, 2)
        g = unit_cosine(2)
        model = IndependentModel((rademacher(), uniform()), np.arange(64) % 2)
        rep = compute_bound("T2", ds, model, g)
        expected_fourth = 0.5 * math.sqrt(2) * g.grad_sup * math.sqrt(9 / 5 - 1) * ds.sum_l4_sq
        expected_third = (4 / 3) * 4 * g.g2 * (3 * SQRT3 / 4) * ds.sum_l3_cubed
        assert rep.term_fourth == pytest.approx(expected_fourth, rel=1e-14)
        assert rep.term_third == pytest.approx(expected_third, rel=1e-14)

    @pytest.mark.parametrize("theorem,dimension", [("T2", 3), ("T2", 1), ("abstract", 5)])
    def test_test_function_of_another_dimension_rejected(self, theorem, dimension):
        with pytest.raises(InvalidInputError, match=f"test function dimension {dimension} != k = 2"):
            compute_bound(theorem, hypercube_directions(16, 2), iid(uniform(), 16),
                          unit_cosine(dimension))

    @pytest.mark.parametrize("theorem", ["T2", "abstract"])
    def test_fourth_moment_tolerance_is_one(self, theorem):
        # EX^4 >= 1 is allowed to miss by 1e-9, and no more: the law refuses it
        ds = hypercube_directions(16, 2)

        def law(fourth):
            return iid(IIDModel("near", rademacher().sampler, abs3=1.0, fourth=fourth,
                                diff_abs3=4.0), 16)

        assert compute_bound(theorem, ds, law(1.0 - 1e-10), unit_cosine(2)).total > 0
        with pytest.raises(InvalidMomentsError):
            law(1.0 - 1e-8)


class TestLinIndBound:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_orthonormal_third_term_uses_the_hessian_sup(self, k):
        # with lambda = 1 only G2 = hess_op_sup separates T3 from T2, and
        # g2 <= hess_op_sup <= k g2 places T3's third term between T2's and k times it
        ds = hypercube_directions(64, k)
        a = np.arange(1.0, k + 1.0)
        g = cosine_testfn(a / np.linalg.norm(a))  # hess_op_sup = 1 < k g2 once k > 1
        ceiling = replace(g, hess_op_sup=k * g.g2)
        model = iid(uniform(), 64)
        rep2 = compute_bound("T2", ds, model, g)
        rep3 = compute_bound("T3", ds, model, g)
        rep3_ceiling = compute_bound("T3", ds, model, ceiling)
        assert rep2.lam is None and rep3.lam == ds.lambda_max
        assert rep3.term_third / rep2.term_third == pytest.approx(g.hess_op_sup / g.g2, rel=1e-12)
        assert rep3_ceiling.term_third / rep2.term_third == pytest.approx(k, rel=1e-12)
        assert rep2.term_third <= rep3.term_third <= rep3_ceiling.term_third
        assert (rep3.term_third < rep3_ceiling.term_third) == (k > 1)

    def test_lambda_one_matches_hand_assembly(self):
        ds = hypercube_directions(64, 2)
        m = moment_summary(iid(uniform(), 1))
        g = unit_cosine(2)
        rep = compute_bound("T3", ds, iid(uniform(), 64), g)
        lam = ds.lambda_max
        expect_fourth = 0.5 * math.sqrt(lam * 2) * g.grad_sup * math.sqrt(0.8) * ds.sum_l4_sq
        expect_third = (4 / 3) * lam * 4 * g.hess_op_sup * m.abs3 * ds.sum_l3_cubed
        assert rep.term_fourth == pytest.approx(expect_fourth, rel=1e-12)
        assert rep.term_third == pytest.approx(expect_third, rel=1e-12)

    def test_lambda_scaling(self):
        # lambda_max 1.05 -> 4.2: fourth term doubles, third quadruples
        k, n = 5, 32
        g = unit_cosine(k)
        lo = equicorrelated_set(k, n, beta=0.0125, seed=3)
        hi = equicorrelated_set(k, n, beta=0.8, seed=3)
        assert hi.lambda_max / lo.lambda_max == pytest.approx(4.0, rel=1e-9)
        rep_lo = compute_bound("T3", lo, iid(uniform(), n), g)
        rep_hi = compute_bound("T3", hi, iid(uniform(), n), g)
        ratio_fourth = (rep_hi.term_fourth / rep_lo.term_fourth)
        ratio_third = (rep_hi.term_third / rep_lo.term_third)
        norm_ratio_4 = hi.sum_l4_sq / lo.sum_l4_sq
        norm_ratio_3 = hi.sum_l3_cubed / lo.sum_l3_cubed
        assert ratio_fourth / norm_ratio_4 == pytest.approx(2.0, rel=1e-9)
        assert ratio_third / norm_ratio_3 == pytest.approx(4.0, rel=1e-9)


class TestExchangeableBound:
    @staticmethod
    def setup_inputs(n=16, k=2):
        ds = hypercube_directions(n, k, centered=True)
        return ds, ramp_model(n), unit_cosine(k)

    def test_sign_population_kills_mixed_var_contribution(self):
        ds = hypercube_directions(8, 2, centered=True)
        model = ExchangeableModel(np.tile([-1.0, 1.0], 4))
        m = exchangeable_moments(model)
        assert m.mixed_var == 0.0
        rep = compute_bound("T4", ds, model, unit_cosine(2), constants=UNIT_CONSTANTS)
        expect_mixed = 2 * unit_cosine(2).g1 * math.sqrt(abs(m.mixed_4))
        assert rep.term_mixed == pytest.approx(expect_mixed, rel=1e-14)

    def test_vanishing_mixed_moments_leave_b_and_c_terms(self):
        # a standardized population cannot zero both mixed moments, so scale
        # the a term instead: the mixed moments enter it alone
        ds, model, g = self.setup_inputs()
        m = exchangeable_moments(model)
        rep = compute_bound("T4", ds, model, g, constants=UNIT_CONSTANTS)
        doubled = compute_bound("T4", ds, model, g, ExchangeableConstants(2.0, 1.0, 1.0))
        mixed = math.sqrt(abs(m.mixed_4)) + math.sqrt(abs(m.mixed_var))
        assert rep.term_mixed == 2 * g.g1 * mixed
        assert doubled.term_mixed == 2.0 * rep.term_mixed
        assert (doubled.term_fourth, doubled.term_third) == (rep.term_fourth, rep.term_third)
        assert rep.term_fourth > 0.0 and rep.term_third > 0.0

    def test_doubling_constants_doubles_total(self):
        ds, model, g = self.setup_inputs()
        rep1 = compute_bound("T4", ds, model, g, constants=ExchangeableConstants(1.0, 1.0, 1.0))
        rep2 = compute_bound("T4", ds, model, g, constants=ExchangeableConstants(2.0, 2.0, 2.0))
        assert rep2.total == pytest.approx(2.0 * rep1.total, rel=1e-14)

    def test_non_centered_rejected(self):
        ds = hypercube_directions(16, 2)  # includes the constant row
        with pytest.raises(InvalidInputError, match="T4 needs centered directions"):
            compute_bound("T4", ds, ramp_model(16), unit_cosine(2))

    def test_default_constants_documented_values(self):
        c = DEFAULT_EXCHANGEABLE_CONSTANTS
        assert (c.a, c.b, c.c) == (1.0, 12.0, 16.0 / 3.0)


class TestExchangeableLinIndBound:
    def test_lambda_one_reduces_to_exchangeable_shape(self):
        n, k = 16, 2
        ds = hypercube_directions(n, k, centered=True)
        model = ramp_model(n)
        m = exchangeable_moments(model)
        g = unit_cosine(k)
        rep5 = compute_bound("T5", ds, model, g, UNIT_CONSTANTS)
        # same assembly with g1 -> grad_sup and g2 -> hess_op_sup at lam = 1
        expect_mixed = k * g.grad_sup * (math.sqrt(abs(m.mixed_4)) + math.sqrt(abs(m.mixed_var)))
        expect_fourth = g.grad_sup * math.sqrt(m.fourth) * ds.sum_l4_all_sq
        expect_third = k * k * g.hess_op_sup * m.abs3 * ds.sum_l3_cubed
        assert rep5.term_mixed == pytest.approx(expect_mixed, rel=1e-10)
        assert rep5.term_fourth == pytest.approx(expect_fourth, rel=1e-10)
        assert rep5.term_third == pytest.approx(expect_third, rel=1e-10)

    def test_half_overlap_hand_assembly(self):
        # two centered unit vectors with inner product 1/2: lambda = 3/2
        n, k = 12, 2
        base = random_orthonormal(n, k, seed=5, centered=True)
        e1, e2 = base.vectors
        rows = np.array([e1, 0.5 * e1 + (math.sqrt(3) / 2) * e2])
        ds = DirectionSet(rows)
        assert ds.lambda_max == pytest.approx(1.5, abs=1e-12)
        assert ds.centered
        model = ramp_model(n)
        m = exchangeable_moments(model)
        g = unit_cosine(k)
        rep = compute_bound("T5", ds, model, g, UNIT_CONSTANTS)
        lam = ds.lambda_max
        expect_mixed = (
            k * math.sqrt(lam) * g.grad_sup
            * (math.sqrt(abs(m.mixed_4)) + math.sqrt(abs(m.mixed_var)))
        )
        expect_third = k * k * lam * g.hess_op_sup * m.abs3 * ds.sum_l3_cubed
        assert rep.term_mixed == pytest.approx(expect_mixed, rel=1e-12)
        assert rep.term_third == pytest.approx(expect_third, rel=1e-12)


class TestTheoremTable:
    @pytest.mark.parametrize("theorem", ["T7", 2, None])
    def test_unknown_theorem_rejected(self, theorem):
        with pytest.raises(InvalidInputError, match="unknown theorem"):
            compute_bound(theorem, hypercube_directions(16, 2), iid(uniform(), 16), unit_cosine(2))

    def test_model_of_another_dimension_rejected(self):
        with pytest.raises(InvalidInputError, match="model dimension"):
            compute_bound("T2", hypercube_directions(16, 2),
                          iid(uniform(), 8), unit_cosine(2))

    @pytest.mark.parametrize("theorem", [t for t, row in THEOREMS.items()
                                         if EXCHANGEABLE in row.families])
    def test_exchangeable_model_needs_centered_rows_under_every_theorem(self, theorem):
        ds = random_orthonormal(8, 2, seed=4)
        with pytest.raises(InvalidInputError, match=f"{theorem} needs centered directions"):
            compute_bound(theorem, ds, ramp_model(8), unit_cosine(2))

    @pytest.mark.parametrize("theorem,rows,model,message", [
        ("T1", LININD_ROWS, iid(rademacher(), 8), "orthonormal"),
        ("T2", LININD_ROWS, iid(rademacher(), 8), "orthonormal"),
        ("T4", LININD_ROWS, ramp_model(8), "orthonormal"),
        ("abstract", LININD_ROWS, iid(uniform(), 8), "orthonormal"),
        ("abstract", hypercube_directions(8, 2).vectors, ramp_model(8), "centered"),
    ], ids=["T1-linind", "T2-linind", "T4-linind", "abstract-linind", "abstract-uncentered"])
    def test_refused_inputs_are_refused_by_every_consumer(self, theorem, rows, model, message):
        ds = DirectionSet(rows)
        with pytest.raises(InvalidInputError, match=message):
            compute_bound(theorem, ds, model, unit_cosine(2))
        with pytest.raises(InvalidInputError, match=message):
            eij_second_moments(ds, model)


class TestAbstractBound:
    def test_degenerate_identity_pair(self):
        rep = bound_abstract(0.5, 0.0, 0.0, 0.0, unit_cosine(2), 2)
        assert rep.total == 0.0

    def test_assembly_identity_with_proof_envelopes(self):
        # feeding the analytic envelopes reproduces the independent-case bound
        n, k = 256, 3
        ds = hypercube_directions(n, k)
        m = moment_summary(iid(uniform(), 1))
        g = unit_cosine(k)
        lam = 1.0 / n
        env_sq = (1.0 / n) * ds.sum_l4_sq * math.sqrt(m.fourth - 1.0)
        env_third = (8.0 / n) * m.abs3 * ds.sum_l3_cubed
        rep_abs = bound_abstract(lam, math.inf, env_sq, env_third, g, k)
        rep_ind = compute_bound("T2", ds, iid(uniform(), n), g)
        assert rep_abs.min_branch == "sqrt-sum-sq"
        assert rep_abs.term_fourth == pytest.approx(rep_ind.term_fourth, abs=1e-12)
        assert rep_abs.term_third == pytest.approx(rep_ind.term_third, abs=1e-12)
        assert rep_abs.total == pytest.approx(rep_ind.total, abs=1e-12)

    def test_min_branch_reporting(self):
        g = unit_cosine(2)
        rep = bound_abstract(0.1, 0.001, math.inf, 0.0, g, 2)
        assert rep.min_branch == "sum-abs"
        rep2 = bound_abstract(0.1, math.inf, 0.001, 0.0, g, 2)
        assert rep2.min_branch == "sqrt-sum-sq"

    def test_inflating_one_branch_never_decreases_total(self):
        g = unit_cosine(2)
        base = bound_abstract(0.1, 0.5, 0.3, 0.2, g, 2)
        inflated = bound_abstract(0.1, 50.0, 0.3, 0.2, g, 2)
        assert inflated.total >= base.total
        capped = bound_abstract(0.1, math.inf, 0.3, 0.2, g, 2)
        assert inflated.total <= capped.total + 1e-15

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_lambda_rejected(self, lam):
        with pytest.raises(InvalidInputError, match="linearity constant"):
            bound_abstract(lam, 1.0, 1.0, 1.0, unit_cosine(2), 2)

    @pytest.mark.parametrize("stats", [
        (math.nan, math.nan, 1.0), (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0),
        (1.0, 1.0, math.nan), (-1.0, 1.0, 1.0), (1.0, 1.0, -1e-300),
    ])
    def test_nan_or_negative_statistic_rejected(self, stats):
        with pytest.raises(InvalidInputError, match="non-negative"):
            bound_abstract(0.5, *stats, unit_cosine(2), 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(InvalidInputError, match="need k >= 1"):
            bound_abstract(0.5, 1.0, 1.0, 1.0, unit_cosine(2), k)

    def test_infinite_statistics_are_allowed(self):
        rep = bound_abstract(0.5, math.inf, math.inf, math.inf, unit_cosine(2), 2)
        assert rep.total == math.inf


class TestMonotonicity:
    @given(
        st.floats(1.0, 4.0), st.floats(1.0, 4.0),
        st.floats(0.0, 2.0), st.floats(0.0, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_indep_bound_nondecreasing_in_moments(self, fourth, abs3, bump_f, bump_a):
        ds = hypercube_directions(64, 2)
        g = unit_cosine(2)

        def model(abs3, fourth):
            return iid(uniform_law("declared", abs3=abs3, fourth=fourth), 64)

        lo = compute_bound("T2", ds, model(abs3, fourth), g)
        hi = compute_bound("T2", ds, model(abs3 + bump_a, fourth + bump_f), g)
        assert hi.total >= lo.total - 1e-15

    @given(st.integers(4, 9), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_exch_bound_nondecreasing_in_norm_sums(self, exp, seed):
        # rows at n and 2n under a 16-value population tiled to each length:
        # E|X|^3 and EX^4 agree to rounding, while the mixed moments, which
        # read no norm sum, move with n, so the terms that read N3 and L4
        # are compared
        n = 2**exp
        k = 2
        ds_small = hypercube_directions(2 * n, k, centered=True)
        ds_big = hypercube_directions(n, k, centered=True)
        base = np.random.default_rng(seed).standard_normal(16)
        g = unit_cosine(k)

        def report(ds):
            pop = standardize_population(np.tile(base, ds.n // 16))
            return compute_bound("T4", ds, ExchangeableModel(pop), g, constants=UNIT_CONSTANTS)

        # larger n gives smaller norm sums, hence smaller fourth and third terms
        big, small = report(ds_big), report(ds_small)
        assert big.term_fourth >= small.term_fourth * (1 - 1e-12)
        assert big.term_third >= small.term_third * (1 - 1e-12)

    def test_bit_for_bit_reproducibility(self):
        ds = hypercube_directions(64, 2)
        g = unit_cosine(2)
        a = compute_bound("T2", ds, iid(uniform(), 64), g)
        b = compute_bound("T2", ds, iid(uniform(), 64), g)
        assert a.total == b.total
        assert a.term_fourth == b.term_fourth
