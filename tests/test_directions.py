import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from projclt.directions import (
    VALIDATION_TOL,
    DirectionSet,
    hypercube_directions,
    random_orthonormal,
)
from projclt.errors import (
    InvalidInputError,
    LinearDependenceError,
    UnsupportedDimensionError,
)

from direction_reference import (
    gram_schmidt,
    lp_norm,
    sphere_mean_l3_cubed,
    sphere_mean_l4_sq_bound,
)


def lambda_max_oracle(c):
    """Largest eigenvalue by repeated squaring (power iteration on C^(2^40))."""
    b = np.array(c, dtype=np.float64)
    for _ in range(40):
        b = b @ b
        b /= np.linalg.norm(b)
    probe = np.random.default_rng(123).standard_normal(c.shape[0])
    v = b @ probe
    v /= np.linalg.norm(v)
    return float(v @ c @ v)


class TestLpNorm:
    def test_hypercube_row_fourth_power(self):
        # all-coordinates-equal unit vector: ||v||_4^2 = n^(-1/2)
        n = 64
        v = np.full(n, 1.0 / math.sqrt(n))
        assert lp_norm(v, 4) ** 2 == pytest.approx(1.0 / math.sqrt(n), abs=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 2.5])
    def test_basis_vector_is_one(self, p):
        v = np.zeros(5)
        v[0] = 1.0
        assert lp_norm(v, p) == pytest.approx(1.0, abs=1e-15)

    def test_direct_arithmetic_oracle(self):
        expected = (0.6**3 + 0.8**3) ** (1.0 / 3.0)
        assert lp_norm([0.6, 0.8], 3) == pytest.approx(expected, abs=1e-15)

    def test_empty_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            lp_norm([], 2)

    def test_p_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            lp_norm([1.0], 0.5)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=12),
        st.sampled_from([1, 2, 3, 4]),
        st.floats(-4, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_absolute_homogeneity(self, vals, p, c):
        v = np.array(vals)
        assert lp_norm(c * v, p) == pytest.approx(abs(c) * lp_norm(v, p), rel=1e-12, abs=1e-12)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=12),
        st.lists(st.floats(-10, 10), min_size=1, max_size=12),
        st.sampled_from([1, 2, 3, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a_vals, b_vals, p):
        m = min(len(a_vals), len(b_vals))
        a, b = np.array(a_vals[:m]), np.array(b_vals[:m])
        assert lp_norm(a + b, p) <= lp_norm(a, p) + lp_norm(b, p) + 1e-9


class TestDirectionSetValidation:
    def test_non_unit_row_rejected(self):
        with pytest.raises(InvalidInputError, match="rows must be unit vectors"):
            DirectionSet(np.array([[1.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_row_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="rows must be unit vectors"):
            DirectionSet(np.array([[bad, 1.0]]))

    def test_non_orthogonal_rows_are_measured(self):
        rows = np.array([[1.0, 0.0], [1 / math.sqrt(2), 1 / math.sqrt(2)]])
        ds = DirectionSet(rows)
        assert not ds.orthonormal
        assert ds.lambda_max == pytest.approx(1.0 + 1 / math.sqrt(2), abs=1e-12)

    def test_linearly_dependent_rows_rejected(self):
        rows = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(LinearDependenceError):
            DirectionSet(rows)

    def test_row_sums_are_measured(self):
        assert not DirectionSet(np.array([[1.0, 0.0]])).centered
        assert DirectionSet(np.array([[math.sqrt(0.5), -math.sqrt(0.5)]])).centered

    @pytest.mark.parametrize("shape", [(0, 4), (2, 0), (0,)])
    def test_empty_array_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="non-empty"):
            DirectionSet(np.empty(shape))

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(InvalidInputError, match="need k <= n"):
            DirectionSet(np.eye(3, 2))

    def test_vectors_are_immutable(self):
        ds = hypercube_directions(4, 2)
        with pytest.raises(ValueError):
            ds.vectors[0, 0] = 2.0


class TestNormSummary:
    @pytest.mark.parametrize("n,k", [(16, 3), (16, 5), (64, 4), (256, 8)])
    def test_hypercube_norm_sums(self, n, k):
        ds = hypercube_directions(n, k)
        assert ds.sum_l4_sq == pytest.approx(k / math.sqrt(n), abs=1e-12)
        assert ds.sum_l3_cubed == pytest.approx(k / math.sqrt(n), abs=1e-12)

    def test_basis_vector_sums_are_one(self):
        ds = DirectionSet(np.eye(1, 8))
        assert ds.sum_l4_sq == pytest.approx(1.0, abs=1e-14)
        assert ds.sum_l3_cubed == pytest.approx(1.0, abs=1e-14)
        assert ds.sum_l4_all_sq == pytest.approx(1.0, abs=1e-14)

    def test_two_coordinate_example(self):
        ds = DirectionSet(np.array([[0.6, 0.8]]))
        assert ds.sum_l3_cubed == pytest.approx(0.728, abs=1e-15)

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_unit_row_sandwich(self, n, seed):
        # Hoelder forces n^(-1/2) <= ||theta||_4^2, ||theta||_3^3 <= 1 per row.
        v = np.random.default_rng(seed).standard_normal(n)
        v /= np.linalg.norm(v)
        ds = DirectionSet(v[None, :])
        lo = 1.0 / math.sqrt(n) - 1e-12
        assert lo <= ds.sum_l4_sq <= 1.0 + 1e-12
        assert lo <= ds.sum_l3_cubed <= 1.0 + 1e-12
        assert ds.sum_l4_all_sq <= 1.0 + 1e-12


class TestGram:
    def test_orthonormal_set_gives_identity(self):
        ds = hypercube_directions(16, 4)
        np.testing.assert_allclose(ds.gram, np.eye(4), atol=1e-12)
        assert ds.lambda_max == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.2, 0.7])
    def test_two_by_two_analytic_eigenvalue(self, rho):
        rows = np.array([[1.0, 0.0], [rho, math.sqrt(1 - rho * rho)]])
        ds = DirectionSet(rows)
        assert ds.gram[0, 1] == pytest.approx(rho, abs=1e-14)
        assert ds.lambda_max == pytest.approx(1.0 + abs(rho), abs=1e-12)

    def test_hand_example(self):
        rows = np.array([[1.0, 0.0, 0.0], [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0]])
        ds = DirectionSet(rows)
        assert ds.gram[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert ds.lambda_max == pytest.approx(1.0 + 1 / math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_lambda_max_matches_power_iteration(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((4, 12))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        ds = DirectionSet(rows)
        assert ds.lambda_max == pytest.approx(lambda_max_oracle(ds.gram), abs=1e-8)

    def test_lambda_max_bounds(self):
        rng = np.random.default_rng(99)
        rows = rng.standard_normal((5, 20))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        assert 1.0 - 1e-10 <= DirectionSet(rows).lambda_max <= 5.0 + 1e-10

    def test_gram_is_read_only(self):
        ds = hypercube_directions(8, 2)
        with pytest.raises(ValueError):
            ds.gram[0, 1] = 0.5


def _frame(n, k, seed, centered):
    return random_orthonormal(n, k, seed=seed, centered=centered).vectors.copy()


@st.composite
def row_sets(draw):
    """Unit rows of four shapes: orthonormal frames, centred frames,
    equicorrelated rows, and frames tilted by an angle near the row
    tolerance, either towards another row or out of the zero-sum plane."""
    n = draw(st.integers(3, 24))
    k = draw(st.integers(1, min(n - 1, 5)))
    seed = draw(st.integers(0, 2**32 - 1))
    shape = draw(st.sampled_from(["frame", "centered", "equicorrelated", "tilt-row", "tilt-sum"]))
    if shape in ("frame", "centered"):
        return _frame(n, k, seed, shape == "centered")
    if shape == "equicorrelated":
        # Gram (1-beta) I + beta J is positive definite for -1/(k-1) < beta < 1
        lo = -0.9 / (k - 1) if k > 1 else -0.9
        beta = draw(st.floats(lo, 0.95))
        c = (1.0 - beta) * np.eye(k) + beta * np.ones((k, k))
        return np.linalg.cholesky(c) @ _frame(n, k, seed, draw(st.booleans()))
    t = draw(st.floats(0.0, 3 * VALIDATION_TOL))
    rows = _frame(n, k, seed, True)
    if shape == "tilt-row" and k > 1:
        rows[1] = math.cos(t) * rows[1] + math.sin(t) * rows[0]
    else:
        # the unit all-ones vector is orthogonal to every centred row
        rows[0] = math.cos(t) * rows[0] + math.sin(t) / math.sqrt(n)
    return rows


class TestMeasuredStructure:
    @given(row_sets())
    @settings(max_examples=200, deadline=None)
    def test_flags_and_lambda_match_their_definitions(self, rows):
        g = rows @ rows.T
        off_identity = float(np.max(np.abs(g - np.eye(len(rows)))))
        row_sum = float(np.max(np.abs(rows.sum(axis=1))))
        # a flag exactly at the tolerance would depend on the last bit of g
        assume(abs(off_identity - VALIDATION_TOL) > 1e-15)
        assume(abs(row_sum - VALIDATION_TOL) > 1e-15)
        ds = DirectionSet(rows)
        assert ds.orthonormal == (off_identity <= VALIDATION_TOL)
        assert ds.centered == (row_sum <= VALIDATION_TOL)
        assert ds.lambda_max == pytest.approx(float(np.linalg.eigvalsh(g)[-1]), abs=1e-12)
        assert 1.0 - 1e-12 <= ds.lambda_max <= ds.k + 1e-12


class TestGramSchmidt:
    def test_orthonormal_input_is_fixed_point(self):
        ds = hypercube_directions(8, 3)
        res = gram_schmidt(ds)
        np.testing.assert_allclose(res.B, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(res.eta, ds.vectors, atol=1e-12)

    def test_hand_example(self):
        rows = np.array([[1.0, 0.0, 0.0], [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0]])
        ds = DirectionSet(rows)
        res = gram_schmidt(ds)
        np.testing.assert_allclose(res.eta, np.eye(2, 3), atol=1e-12)
        expected_b = np.array([[1.0, 0.0], [1 / math.sqrt(2), 1 / math.sqrt(2)]])
        np.testing.assert_allclose(res.B, expected_b, atol=1e-12)
        np.testing.assert_allclose(
            res.B @ res.B.T, np.array([[1, 1 / math.sqrt(2)], [1 / math.sqrt(2), 1]]), atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_recomposition_on_random_sets(self, seed):
        rng = np.random.default_rng(seed)
        k, n = rng.integers(2, 9), int(rng.integers(8, 65))
        k = min(int(k), n)
        rows = rng.standard_normal((k, n))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        ds = DirectionSet(rows)
        res = gram_schmidt(ds)
        c = ds.gram
        assert np.max(np.abs(res.B @ res.B.T - c)) <= 1e-8
        assert np.max(np.abs(res.B @ res.eta - ds.vectors)) <= 1e-8
        np.testing.assert_allclose(res.eta @ res.eta.T, np.eye(k), atol=1e-8)
        # triangular by construction
        assert np.max(np.abs(np.triu(res.B, 1))) == 0.0


class TestHypercubeDirections:
    def test_n4_full_basis_matches_doubling_construction(self):
        # explicit 4x4 sign design from one doubling step
        h2 = np.array([[1, 1], [1, -1]], dtype=float)
        h4 = np.block([[h2, h2], [h2, -h2]]) / 2.0
        ds = hypercube_directions(4, 4)
        np.testing.assert_allclose(ds.vectors, h4, atol=0)
        np.testing.assert_allclose(ds.vectors @ ds.vectors.T, np.eye(4), atol=1e-15)

    def test_entries_all_plus_minus_scale(self):
        ds = hypercube_directions(32, 7)
        np.testing.assert_allclose(np.abs(ds.vectors), 1 / math.sqrt(32), atol=0)

    def test_centered_rows_sum_to_zero(self):
        ds = hypercube_directions(4, 3, centered=True)
        assert ds.orthonormal and ds.centered
        np.testing.assert_allclose(ds.vectors.sum(axis=1), 0.0, atol=1e-15)

    def test_norm_summary_paper_value(self):
        ds = hypercube_directions(16, 5)
        assert ds.sum_l4_sq == pytest.approx(5.0 / 4.0, abs=1e-14)

    @pytest.mark.parametrize("bad_n", [0, 3, 12, 100])
    def test_non_power_of_two_rejected(self, bad_n):
        with pytest.raises(UnsupportedDimensionError):
            hypercube_directions(bad_n, 1)

    def test_centered_capacity_is_n_minus_one(self):
        with pytest.raises(InvalidInputError):
            hypercube_directions(4, 4, centered=True)


class TestRandomOrthonormal:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_construction_invariants(self, seed):
        ds = random_orthonormal(20, 4, seed=seed)
        assert ds.orthonormal

    @pytest.mark.parametrize("seed", [0, 5])
    def test_centered_construction(self, seed):
        ds = random_orthonormal(17, 3, seed=seed, centered=True)
        assert ds.orthonormal and ds.centered
        assert np.max(np.abs(ds.vectors.sum(axis=1))) <= 1e-12

    def test_deterministic_given_seed(self):
        a = random_orthonormal(30, 3, seed=42)
        b = random_orthonormal(30, 3, seed=42)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_k_above_n_rejected(self):
        with pytest.raises(InvalidInputError):
            random_orthonormal(4, 5, seed=0)

    def test_sphere_l3_moment(self):
        # reduced-size version of the acceptance run
        n, draws = 100, 2000
        vals = np.empty(draws)
        for s in range(draws):
            v = random_orthonormal(n, 1, seed=s).vectors[0]
            vals[s] = lp_norm(v, 3) ** 3
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - sphere_mean_l3_cubed(n)) <= 4 * se

    def test_sphere_l4_moment_bound(self):
        n, draws = 100, 2000
        vals = np.empty(draws)
        for s in range(draws):
            v = random_orthonormal(n, 1, seed=s).vectors[0]
            vals[s] = lp_norm(v, 4) ** 2
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert vals.mean() <= sphere_mean_l4_sq_bound(n) + 4 * se


class TestSphereMoments:
    def test_circle_value_in_closed_form(self):
        # n=2: E(|cos|^3 + |sin|^3) = 8/(3 pi)
        assert sphere_mean_l3_cubed(2) == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-14)

    def test_large_n_asymptotics(self):
        n = 10_000
        assert sphere_mean_l3_cubed(n) == pytest.approx(math.sqrt(8.0 / (n * math.pi)), rel=1e-3)

    def test_l4_bound_value(self):
        assert sphere_mean_l4_sq_bound(100) == pytest.approx(math.sqrt(3.0 / 102.0), rel=1e-15)


class TestSerialization:
    def test_round_trip(self):
        ds = random_orthonormal(12, 3, seed=9, centered=True)
        text = ds.to_csv()
        back = DirectionSet.from_csv(text)
        assert back.orthonormal and back.centered
        np.testing.assert_array_equal(back.vectors, ds.vectors)

    def test_header_first_line(self):
        ds = hypercube_directions(8, 2)
        assert ds.to_csv().splitlines()[0] == "# n=8 k=2"

    @pytest.mark.parametrize("kind", ["orthonormal", "linearly-independent",
                                      "centered-orthonormal"])
    def test_old_header_kind_is_not_read(self, kind):
        # rows that are independent but not orthonormal load whatever the kind says
        rows = DirectionSet(np.array([[1.0, 0.0], [0.6, 0.8]])).to_csv().splitlines()[1:]
        ds = DirectionSet.from_csv("\n".join([f"# n=2 k=2 kind={kind}", *rows]))
        assert not ds.orthonormal and ds.lambda_max == pytest.approx(1.6, abs=1e-12)

    @pytest.mark.parametrize("header", ["# n=2 k=2 extra", "# n=2 k=2 kind=orthonormal x",
                                        "# n=2 k=2 kind=", "# n=2 k=2k", "# n=2"])
    def test_trailing_header_text_rejected(self, header):
        with pytest.raises(InvalidInputError, match="malformed direction header"):
            DirectionSet.from_csv(f"{header}\n1.0,0.0\n0.0,1.0\n")

    def test_fewer_rows_than_the_header_k_rejected(self):
        with pytest.raises(InvalidInputError, match="1 direction rows, the header says k=2"):
            DirectionSet.from_csv("# n=2 k=2\n1.0,0.0\n")

    def test_save_load(self, tmp_path):
        ds = hypercube_directions(16, 4)
        path = tmp_path / "dirs.csv"
        ds.save(path)
        np.testing.assert_array_equal(DirectionSet.load(path).vectors, ds.vectors)

    def test_malformed_header_rejected(self):
        with pytest.raises(InvalidInputError):
            DirectionSet.from_csv("0.5,0.5\n")
