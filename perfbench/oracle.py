"""Exact reference values and the checks each operation's CSV must pass.

The references are computed here from the configs alone, not read from
the program's reports:

* ``cosine-exact`` (verify on independent coordinates): the exact mean
  E cos(<a,S> + phase) = Re[e^{i phase} prod_r phi_r(<a,theta^r>)] from
  the characteristic functions of the catalog laws, summed as complex
  logs so that products over thousands of coordinates cannot underflow.
  The CSV estimate must lie within 5 standard errors (se = ci/3, the
  cosine Gaussian side being exact) of the exact discrepancy.
* ``abstract-third`` (bound --theorem abstract): the expected third-moment
  statistic of the simulated pair is linear in per-state quantities, so
  term_third is compared with its exact expectation (1 % relative).
* ``exchangeable-bound`` (verify T4/T5): the bound column is recomputed
  from the published formula with analytic seminorms and power-sum mixed
  moments (1e-6 relative), and the run must pass.

Direction vectors come from the library's public builders, which the
oracle checks for orthonormality and centering before use.
"""

from __future__ import annotations

import math

import numpy as np

from projclt.directions import hypercube_directions, random_orthonormal

SCHEMA_LINE = "# schema=1"
VERIFY_COLUMNS = "digest,theorem,n,k,samples,estimate,ci,bound,pass".split(",")
BOUND_COLUMNS = ("theorem,n,k,lambda,term_fourth,term_third,term_mixed,total,"
                 "min_branch").split(",")

# E|X* - X|^3 for two independent copies of a standardized law.
PAIR_ABS3 = {"rademacher": 4.0, "uniform": (2.0 * math.sqrt(3.0)) ** 3 / 10.0}

# Default exchangeable constants a, b, c of T4/T5.
EXCH_CONSTANTS = (1.0, 12.0, 16.0 / 3.0)

Z_LIMIT = 5.0
THIRD_RTOL = 0.01
BOUND_RTOL = 1e-6


class CheckError(Exception):
    """An output that is malformed or disagrees with its reference."""


def parse_csv(text: str, columns: list[str]) -> dict:
    """The single data row of a ``projclt`` CSV, with numbers parsed."""
    lines = text.split("\n")
    if len(lines) != 4 or lines[0] != SCHEMA_LINE or lines[3] != "":
        raise CheckError(f"expected schema line, header and one row, got {len(lines) - 1} lines")
    if lines[1].split(",") != columns:
        raise CheckError(f"unexpected header {lines[1]!r}")
    fields = lines[2].split(",")
    if len(fields) != len(columns):
        raise CheckError(f"row has {len(fields)} fields, header has {len(columns)}")
    row = dict(zip(columns, fields))
    for key, value in row.items():
        if key in ("digest", "theorem", "min_branch", "pass"):
            continue
        if key == "lambda" and value == "":
            row[key] = None
            continue
        try:
            row[key] = int(value) if key in ("n", "k", "samples") else float(value)
        except ValueError as exc:
            raise CheckError(f"column {key}: {value!r} is not a number") from exc
        if key not in ("n", "k", "samples") and not math.isfinite(row[key]):
            raise CheckError(f"column {key} is not finite: {value}")
    return row


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def direction_vectors(spec: dict) -> np.ndarray:
    centered = bool(spec.get("centered", False))
    if spec["kind"] == "hypercube":
        ds = hypercube_directions(spec["n"], spec["k"], centered=centered)
    else:
        ds = random_orthonormal(spec["n"], spec["k"], seed=spec["seed"], centered=centered)
    v = np.array(ds.vectors)
    _expect(v.shape == (spec["k"], spec["n"]), f"direction builder returned shape {v.shape}")
    _expect(np.max(np.abs(v @ v.T - np.eye(spec["k"]))) <= 1e-10, "directions not orthonormal")
    if centered:
        _expect(np.max(np.abs(v.sum(axis=1))) <= 1e-10, "directions not centered")
    return v


def _cosine_vector(k: int) -> np.ndarray:
    return np.full(k, 1.0 / math.sqrt(k))


def _char_fn(law: dict, t: np.ndarray) -> np.ndarray:
    kind = law["kind"]
    if kind == "rademacher":
        return np.cos(t).astype(complex)
    if kind == "uniform":
        return np.sinc(math.sqrt(3.0) * t / math.pi).astype(complex)
    if kind == "two_point":
        p = float(law.get("p", 0.2))
        q = 1.0 - p
        return p * np.exp(1j * t * math.sqrt(q / p)) + q * np.exp(-1j * t * math.sqrt(p / q))
    if kind == "exponential":
        return np.exp(-1j * t) / (1.0 - 1j * t)
    raise ValueError(f"no characteristic function for {kind!r}")


def _population(model: dict, n: int) -> np.ndarray:
    if model["family"] == "ramp":
        a = np.arange(1.0, n + 1.0)
        a -= a.mean()
        return a / math.sqrt(float(a @ a) / n)
    return np.tile([-1.0, 1.0], n // 2)


def cosine_discrepancy(cfg: dict) -> float:
    """Exact |E cos(<a,S>+phase) - E cos(<a,Z>+phase)| for independent
    coordinates; Z has the Gram covariance for T3 and identity otherwise."""
    v = direction_vectors(cfg["directions"])
    k, n = v.shape
    a = _cosine_vector(k)
    phase = float(cfg["test_function"].get("phase", 0.0))
    t = a @ v
    model = cfg["model"]
    laws = model["pattern"] if model["kind"] == "independent" else [model]
    log_prod = 0j
    for offset, law in enumerate(laws):
        log_prod += np.sum(np.log(_char_fn(law, t[offset::len(laws)])))
    mean_s = (np.exp(log_prod + 1j * phase)).real
    cov = v @ v.T if cfg["theorem"] == "T3" else np.eye(k)
    mean_z = math.cos(phase) * math.exp(-float(a @ cov @ a) / 2.0)
    return abs(float(mean_s) - mean_z)


def abstract_term_third(cfg: dict) -> float:
    """Exact expectation of term_third = k^2 g2 / (6 lambda) * sum_i E|dS_i|^3."""
    v = direction_vectors(cfg["directions"])
    k, n = v.shape
    g2 = 1.0 / k  # max |a_i|^2 for the normalized all-ones cosine
    if cfg["pair"] == "resampling":
        lam = 1.0 / n
        third = float(np.sum(np.abs(v) ** 3)) / n * PAIR_ABS3[cfg["model"]["kind"]]
    else:
        lam = 2.0 / (n - 1)
        pop = _population(cfg["model"], n)
        d3 = float(np.sum(np.abs(pop[:, None] - pop[None, :]) ** 3)) / (n * (n - 1))
        dtheta3 = sum(float(np.sum(np.abs(row[:, None] - row[None, :]) ** 3)) for row in v)
        third = d3 * dtheta3 / (n * (n - 1))
    return k * k * g2 / (6.0 * lam) * third


def _mixed_moments(pop: np.ndarray) -> tuple[float, float]:
    """E X1X2X3X4 and E (X1^2-1)(X2^2-1) of a random permutation, from power sums."""
    n = pop.size
    p1, p2, p3, p4 = (float(np.sum(pop**m)) for m in (1, 2, 3, 4))
    falling4 = n * (n - 1) * (n - 2) * (n - 3)
    m4 = (p1**4 - 6 * p2 * p1**2 + 3 * p2**2 + 8 * p3 * p1 - 6 * p4) / falling4
    mv = (p2**2 - p4) / (n * (n - 1)) - 2 * p2 / n + 1
    return m4, mv


def exchangeable_bound(cfg: dict) -> float:
    """T4 (bump) or T5 (cosine) total with the default constants."""
    v = direction_vectors(cfg["directions"])
    k, n = v.shape
    pop = _population(cfg["model"], n)
    m4, mv = _mixed_moments(pop)
    fourth = float(np.mean(pop**4))
    abs3 = float(np.mean(np.abs(pop) ** 3))
    row_l4 = np.sum(v**4, axis=1) ** 0.25
    l4_all = float(np.sum(row_l4)) ** 2
    n3 = float(np.sum(np.abs(v) ** 3))
    ca, cb, cc = EXCH_CONSTANTS
    mixed = math.sqrt(abs(m4)) + math.sqrt(abs(mv))
    if cfg["theorem"] == "T4":
        r = float(cfg["test_function"]["radius"])
        g1 = 96.0 / (25.0 * math.sqrt(5.0) * r)  # max |phi'| at s = r / sqrt(5)
        g2 = 6.0 / r**2  # |phi''(0)| = |phi'(s)/s| at s -> 0
        return (ca * k * g1 * mixed + cb * g1 * math.sqrt(fourth) * l4_all
                + cc * k * k * g2 * abs3 * n3)
    lam = float(np.linalg.eigvalsh(v @ v.T)[-1])
    grad, hess = 1.0, 1.0  # |a|_2 and |a|_2^2 of the normalized cosine
    return (ca * k * math.sqrt(lam) * grad * mixed
            + cb * math.sqrt(lam) * grad * math.sqrt(fourth) * l4_all
            + cc * k * k * lam * hess * abs3 * n3)


REFERENCES = {
    "cosine-exact": cosine_discrepancy,
    "abstract-third": abstract_term_third,
    "exchangeable-bound": exchangeable_bound,
}


def reference(kind: str, cfg: dict) -> float:
    return REFERENCES[kind](cfg)


def check(kind: str, cfg: dict, text: str, exit_code: int, ref: float) -> None:
    """Raise CheckError unless the CSV text and exit code agree with the
    config and the reference value."""
    _expect(exit_code == 0, f"exit code {exit_code}, expected 0")
    spec = cfg["directions"]
    if kind == "abstract-third":
        row = parse_csv(text, BOUND_COLUMNS)
        n, k = spec["n"], spec["k"]
        lam = 1.0 / n if cfg["pair"] == "resampling" else 2.0 / (n - 1)
        _expect((row["theorem"], row["n"], row["k"]) == ("abstract", n, k),
                f"row echoes {row['theorem']},{row['n']},{row['k']}")
        _expect(row["lambda"] is not None and math.isclose(row["lambda"], lam, rel_tol=1e-12),
                f"lambda {row['lambda']} != {lam}")
        _expect(row["term_mixed"] == 0.0 and row["term_fourth"] >= 0.0, "bad term signs")
        _expect(row["min_branch"] in ("sum-abs", "sqrt-sum-sq"),
                f"min_branch {row['min_branch']!r}")
        parts = row["term_fourth"] + row["term_third"] + row["term_mixed"]
        _expect(math.isclose(row["total"], parts, rel_tol=1e-12),
                f"total {row['total']} != sum of terms {parts}")
        if cfg["model"]["kind"] == "rademacher":
            # x_r^2 = 1 makes every E_ij vanish.
            _expect(row["term_fourth"] == 0.0, f"term_fourth {row['term_fourth']} != 0")
        _expect(math.isclose(row["term_third"], ref, rel_tol=THIRD_RTOL),
                f"term_third {row['term_third']} vs exact {ref} "
                f"({row['term_third'] / ref - 1.0:+.2%})")
        return
    row = parse_csv(text, VERIFY_COLUMNS)
    _expect(len(row["digest"]) == 12 and all(c in "0123456789abcdef" for c in row["digest"]),
            f"digest {row['digest']!r}")
    echo = (row["theorem"], row["n"], row["k"], row["samples"])
    _expect(echo == (cfg["theorem"], spec["n"], spec["k"], cfg["samples"]),
            f"row echoes {echo}")
    _expect(row["estimate"] >= 0.0 and row["ci"] > 0.0 and row["bound"] > 0.0,
            "estimate, ci and bound must be non-negative with positive ci and bound")
    _expect(row["pass"] == "true", f"pass={row['pass']}")
    _expect(row["estimate"] <= row["bound"] + row["ci"], "estimate exceeds bound + ci")
    if kind == "cosine-exact":
        z = (row["estimate"] - ref) / (row["ci"] / 3.0)
        _expect(abs(z) <= Z_LIMIT, f"estimate {row['estimate']} vs exact {ref}: z = {z:+.2f}")
    else:
        _expect(math.isclose(row["bound"], ref, rel_tol=BOUND_RTOL),
                f"bound {row['bound']} vs formula {ref}")
