"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The end-to-end
soundness matrix (criterion 6) is the long pole; everything else is
seconds.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest

from projclt.bounds import (
    RESAMPLING,
    TRANSPOSITION,
    ExchangeableConstants,
    bound_abstract,
    compute_bound,
    stein_lambda,
)
from projclt.cli import main
from projclt.directions import (
    hypercube_directions,
    random_orthonormal,
)
from projclt.empirics import verify_bound
from projclt.sources import (
    ExchangeableModel,
    centered_exponential,
    exchangeable_moments,
    iid,
    moment_summary,
    rademacher,
    standardize_population,
    two_point,
    uniform,
)
from projclt.testfuncs import GaussianSpec, cosine_testfn, gaussian_expectation

from conftest import sample_block
from direction_reference import lp_norm, sphere_mean_l3_cubed, sphere_mean_l4_sq_bound
from gaussian_reference import gauss_hermite_expectation
from pair_reference import conditional_mean_enumerated, eij_closed_form

# a = b = c = 1: T4/T5 with unit constants, for tests that compare terms.
UNIT_CONSTANTS = ExchangeableConstants(a=1.0, b=1.0, c=1.0)

# One (num, name, status, seconds) entry per criterion; the conftest
# terminal-summary hook renders these after the run, outside capture.
RESULTS = []


def announce(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            status = "FAIL"
            try:
                fn(*args, **kwargs)
                status = "PASS"
            finally:
                elapsed = time.perf_counter() - start
                RESULTS.append((num, name, status, elapsed))
                print(f"criterion {num:2d} ({name}): {status} [{elapsed:.1f}s]")

        return wrapper

    return deco


def unit_cosine(k):
    return cosine_testfn(np.full(k, 1.0 / math.sqrt(k)))


@announce(1, "hypercube norm identities")
def test_criterion_01_hypercube_norm_identities():
    for n in (16, 64, 256):
        for k in range(1, 9):
            ds = hypercube_directions(n, k)
            target = k / math.sqrt(n)
            assert abs(ds.sum_l4_sq - target) <= 1e-12
            assert abs(ds.sum_l3_cubed - target) <= 1e-12


@announce(2, "sphere moments")
def test_criterion_02_sphere_moments():
    n, draws = 100, 10_000
    l3 = np.empty(draws)
    l4 = np.empty(draws)
    for s in range(draws):
        v = random_orthonormal(n, 1, seed=s).vectors[0]
        l3[s] = lp_norm(v, 3) ** 3
        l4[s] = lp_norm(v, 4) ** 2
    se3 = l3.std(ddof=1) / math.sqrt(draws)
    assert abs(l3.mean() - sphere_mean_l3_cubed(n)) <= 3 * se3
    se4 = l4.std(ddof=1) / math.sqrt(draws)
    assert l4.mean() <= sphere_mean_l4_sq_bound(n) + 3 * se4


@announce(3, "exchangeable-pair linearity")
def test_criterion_03_pair_linearity():
    trials = 1000
    cases = [
        (RESAMPLING, hypercube_directions(4, 2), iid(rademacher(), 4)),
        (RESAMPLING, random_orthonormal(100, 3, seed=1), iid(uniform(), 100)),
        (
            TRANSPOSITION,
            random_orthonormal(5, 2, seed=2, centered=True),
            ExchangeableModel(standardize_population(np.arange(1.0, 6.0))),
        ),
        (
            TRANSPOSITION,
            random_orthonormal(50, 3, seed=3, centered=True),
            ExchangeableModel(standardize_population(np.arange(1.0, 51.0))),
        ),
    ]
    for pair_kind, ds, model in cases:
        lam = stein_lambda(model)
        assert lam == (1.0 / ds.n if pair_kind == RESAMPLING else 2.0 / (ds.n - 1))
        # The identity at sampled states, from the pair enumerated at each.
        states = sample_block(model, 7, 0, trials).astype(np.float64)
        for x in states:
            cond = conditional_mean_enumerated(x, ds, model, pair_kind)
            sampled = float(np.max(np.abs(cond + lam * (ds.vectors @ x))))
            assert sampled <= 1e-10, f"{pair_kind} at n={ds.n}: residual {sampled:.3e}"


def brute_eij_resampling(x, theta, support):
    """Conditional second moments minus 2 lambda delta_ij, by full enumeration
    over the replaced index and the replacement support."""
    vals, probs = support
    n = x.size
    k = theta.shape[0]
    lam = 1.0 / n
    out = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            acc = 0.0
            for idx in range(n):
                for v, pr in zip(vals, probs):
                    diff = v - x[idx]
                    acc += pr * (theta[i, idx] * diff) * (theta[j, idx] * diff)
            out[i, j] = acc / n - 2.0 * lam * (i == j)
    return out


def brute_eij_transposition(x, theta):
    n = x.size
    k = theta.shape[0]
    lam = 2.0 / (n - 1)
    out = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            acc = 0.0
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    di = (theta[i, a] - theta[i, b]) * (x[b] - x[a])
                    dj = (theta[j, a] - theta[j, b]) * (x[b] - x[a])
                    acc += di * dj
            out[i, j] = acc / (n * (n - 1)) - 2.0 * lam * (i == j)
    return out


@announce(4, "conditional second-moment oracle")
def test_criterion_04_eij_oracle():
    states = 200
    law = two_point(0.2)
    ds_r = random_orthonormal(8, 3, seed=4)
    worst_r = 0.0
    xs = sample_block(iid(law, 8), seed=11, start=0, count=states)
    for x, closed in zip(xs, eij_closed_form(xs, ds_r, RESAMPLING)):
        brute = brute_eij_resampling(x, ds_r.vectors, law.support)
        worst_r = max(worst_r, float(np.max(np.abs(closed - brute))))
    assert worst_r <= 1e-12, f"resampling gap {worst_r:.3e}"

    pop = standardize_population(np.arange(1.0, 7.0))
    em = ExchangeableModel(pop)
    ds_t = random_orthonormal(6, 3, seed=5, centered=True)
    worst_t = 0.0
    xs = sample_block(em, seed=13, start=0, count=states)
    for x, closed in zip(xs, eij_closed_form(xs, ds_t, TRANSPOSITION)):
        brute = brute_eij_transposition(x, ds_t.vectors)
        worst_t = max(worst_t, float(np.max(np.abs(closed - brute))))
    assert worst_t <= 1e-12, f"transposition gap {worst_t:.3e}"


@announce(5, "bound-assembly identity")
def test_criterion_05_assembly_identity():
    rng = np.random.default_rng(6)
    factories = [uniform, centered_exponential, lambda: two_point(0.2)]
    for trial in range(50):
        n = int(rng.integers(8, 129))
        k = int(rng.integers(1, 5))
        ds = random_orthonormal(n, k, seed=1000 + trial)
        law = factories[trial % 3]()
        m = moment_summary(iid(law, 1))
        a = rng.uniform(0.1, 1.0, size=k) / k
        g = cosine_testfn(a, phase=float(rng.uniform(-1, 1)))
        lam = 1.0 / n
        env_sq = (1.0 / n) * ds.sum_l4_sq * math.sqrt(m.fourth - 1.0)
        env_third = (8.0 / n) * m.abs3 * ds.sum_l3_cubed
        via_abstract = bound_abstract(lam, math.inf, env_sq, env_third, g, k)
        direct = compute_bound("T2", ds, iid(law, n), g)
        assert abs(via_abstract.term_fourth - direct.term_fourth) <= 1e-12
        assert abs(via_abstract.term_third - direct.term_third) <= 1e-12
        assert abs(via_abstract.total - direct.total) <= 1e-12


@announce(6, "end-to-end soundness matrix")
def test_criterion_06_end_to_end_soundness():
    samples = 1_000_000
    failures = []
    cell = 0
    for model_maker, dir_kind, k, n in itertools.product(
        (rademacher, uniform), ("hypercube", "random"), (1, 2, 3), (256, 1024, 4096)
    ):
        cell += 1
        if dir_kind == "hypercube":
            ds = hypercube_directions(n, k)
        else:
            ds = random_orthonormal(n, k, seed=17 * k + n)
        rep = verify_bound("T2", ds, iid(model_maker(), n), unit_cosine(k), samples=samples,
                           seed=900_000 + cell)
        if not rep.passed:
            failures.append(
                f"{model_maker.__name__}/{dir_kind} k={k} n={n}: "
                f"disc={rep.estimate.discrepancy:.3e} bound={rep.bound_total:.3e} "
                f"ci={rep.estimate.ci_halfwidth:.3e}"
            )
    assert not failures, "violations:\n" + "\n".join(failures)


@announce(7, "bound scaling law")
def test_criterion_07_scaling_law(tmp_path):
    import json

    cfg = {
        "model": {"kind": "rademacher"},
        "directions": {"kind": "hypercube", "n": 16, "k": 2},
        "test_function": {"kind": "cosine", "a": "ones-normalized"},
        "theorem": "T2",
        "samples": 200_000,
        "seed": 29,
        "output": str(tmp_path / "scan.csv"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    values = ",".join(str(4**j) for j in range(2, 7))
    assert main(["scan", str(path), "--axis", "n", "--values", values]) == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert len(rows) == 5
    bounds = [float(r["bound"]) for r in rows]
    for a, b in zip(bounds, bounds[1:]):
        assert abs(b / a - 0.5) <= 0.005
    discs = [float(r["estimate"]) for r in rows]
    cis = [float(r["ci"]) for r in rows]
    for j in range(4):
        assert discs[j + 1] <= discs[j] + cis[j] + cis[j + 1]


@announce(8, "exchangeable mixed moments")
def test_criterion_08_exchangeable_moments():
    def enum_mixed(pop):
        n = pop.size
        m4 = math.fsum(
            pop[i] * pop[j] * pop[k] * pop[l]
            for i, j, k, l in itertools.permutations(range(n), 4)
        ) / (n * (n - 1) * (n - 2) * (n - 3))
        mv = math.fsum(
            (pop[i] ** 2 - 1) * (pop[j] ** 2 - 1)
            for i, j in itertools.permutations(range(n), 2)
        ) / (n * (n - 1))
        return m4, mv

    rng = np.random.default_rng(8)
    for trial in range(20):
        n = int(rng.integers(4, 9))
        pop = standardize_population(rng.standard_normal(n) * rng.uniform(0.5, 3.0))
        m = exchangeable_moments(ExchangeableModel(pop))
        m4, mv = enum_mixed(pop)
        assert abs(m.mixed_4 - m4) <= 1e-12
        assert abs(m.mixed_var - mv) <= 1e-12

    m = exchangeable_moments(ExchangeableModel(np.array([-1.0, -1.0, 1.0, 1.0])))
    assert m.mixed_4 == 1.0
    assert m.mixed_var == 0.0


@announce(9, "exchangeable-case scaling")
def test_criterion_09_exchangeable_scaling():
    samples = 100_000
    rows = []
    for n in (16, 64, 256):
        ds = hypercube_directions(n, 2, centered=True)
        model = ExchangeableModel(standardize_population(np.arange(1.0, n + 1.0)))
        rep = verify_bound("T4", ds, model, unit_cosine(2), samples=samples, seed=3000 + n,
                           constants=UNIT_CONSTANTS)
        rows.append(rep)
    for prev, cur in zip(rows, rows[1:]):
        assert cur.bound_report.term_mixed < prev.bound_report.term_mixed
        assert cur.bound_report.term_fourth < prev.bound_report.term_fourth
        assert cur.bound_report.term_third < prev.bound_report.term_third
    for rep in rows:
        assert rep.estimate.discrepancy <= 10.0 * rep.bound_total


@announce(10, "Gaussian expectation oracle")
def test_criterion_10_gaussian_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        a = rng.uniform(-1.5, 1.5, size=k)
        if not np.any(a):
            a[0] = 0.5
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        cov = (q * rng.uniform(0.3, 2.0, size=k)) @ q.T
        g = cosine_testfn(a, phase=float(rng.uniform(-math.pi, math.pi)))
        closed = gaussian_expectation(g, GaussianSpec(cov))
        assert abs(closed.value - gauss_hermite_expectation(g, cov, nodes=64)) <= 1e-10
