"""Golden outputs: the sha256 of ``projclt bound`` CSVs for T1-T5 on small
fixed configurations.  The bound assembly is deterministic arithmetic on
exact moments and norm sums, so any change to a digit of any term, or to
the lambda column, changes a digest.  The digests were recorded before the
theorems were assembled from one table, and must not move.

They have moved once, on purpose: the bump's g1 = grad_sup became the
closed form 96/(25 sqrt(5) r) in place of a grid maximum that sat 1-2 ulps
above it.  That moved the two bump digests, in term_fourth, term_mixed and
total only, by at most 4.2e-16 relative; term_third and lambda kept their
bytes."""

import hashlib
import json

import pytest

from projclt.cli import main

# Two centered unit rows with inner product 1/2 (largest Gram eigenvalue 3/2).
LININD_ROWS = "# n=8 k=2 kind=linearly-independent\n" + "\n".join(
    ",".join(repr(v) for v in row)
    for row in ([0.5, 0.5, -0.5, -0.5, 0.0, 0.0, 0.0, 0.0],
                [0.5, 0.0, -0.5, 0.0, 0.5, 0.0, -0.5, 0.0])
) + "\n"

COSINE = {"kind": "cosine", "a": "ones-normalized"}
RAMP = {"kind": "exchangeable", "family": "ramp"}

GOLDEN = {
    "iid-uniform-hypercube": (
        {"model": {"kind": "uniform"},
         "directions": {"kind": "hypercube", "n": 64, "k": 2},
         "test_function": COSINE, "theorem": ["T1", "T2", "T3"]},
        "af946cdf0905e59aa3ef84d580a94a30a582495c83755c06f0ad956d2859b09f",
    ),
    "iid-two-point-random-bump": (
        {"model": {"kind": "two_point", "p": 0.3},
         "directions": {"kind": "random", "n": 50, "k": 3, "seed": 7},
         "test_function": {"kind": "bump", "radius": 2.5}, "theorem": ["T1", "T2", "T3"]},
        "1955e325c850bf111e9a4d47ad1bae31fc5bd0ee50e65946f5f4af4a51c216d5",
    ),
    "independent-pattern": (
        {"model": {"kind": "independent",
                   "pattern": [{"kind": "uniform"}, {"kind": "exponential"},
                               {"kind": "two_point", "p": 0.2}]},
         "directions": {"kind": "random", "n": 40, "k": 2, "seed": 3},
         "test_function": {"kind": "cosine", "a": [0.6, -0.3], "phase": 0.4},
         "theorem": ["T2", "T3"]},
        "401a8f97dc7d96e3e31215f4021afc49a0ff90479e231fe0ebe2566334dbd3b6",
    ),
    "iid-linearly-independent-file": (
        {"model": {"kind": "exponential"},
         "directions": {"kind": "file", "path": "dirs.txt"},
         "test_function": COSINE, "theorem": ["T3"]},
        "0344ffef497711d89827d2b083ebf3b175b439f356f53e2cbefa6da8eb05b116",
    ),
    "exchangeable-ramp": (
        {"model": RAMP,
         "directions": {"kind": "hypercube", "n": 32, "k": 3, "centered": True},
         "test_function": COSINE, "theorem": ["T4", "T5"]},
        "6c3ce8b88a7971f9defe507314367a4cd1d034f4b9e4e721ad6f8e60add34524",
    ),
    "exchangeable-population-bump": (
        {"model": {"kind": "exchangeable",
                   "population": [-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0]},
         "directions": {"kind": "random", "n": 8, "k": 2, "seed": 1, "centered": True},
         "test_function": {"kind": "bump", "radius": 3.0},
         "constants": {"a": 1.0, "b": 2.0, "c": 0.5}, "theorem": ["T4", "T5"]},
        "e6bfdbb0b9cc9500e951929300a0311801171e65dcdf20d056f6100604e115be",
    ),
    "exchangeable-linearly-independent-file": (
        {"model": RAMP,
         "directions": {"kind": "file", "path": "dirs.txt"},
         "test_function": COSINE, "theorem": ["T5"]},
        "9cd60fd18f5706813d2c72542c99e235d55f5dce3857c92ece11bba54b53d3a6",
    ),
}


def bound_csv(tmp_path, config) -> bytes:
    config = json.loads(json.dumps(config))
    if config["directions"]["kind"] == "file":
        path = tmp_path / config["directions"]["path"]
        path.write_text(LININD_ROWS)
        config["directions"]["path"] = str(path)
    out = tmp_path / "bound.csv"
    config["output"] = str(out)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["bound", str(cfg_path)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bound_csv_digest(tmp_path, name):
    config, digest = GOLDEN[name]
    assert hashlib.sha256(bound_csv(tmp_path, config)).hexdigest() == digest
