"""The benchmark's workloads: fixed lists of ``projclt`` CLI operations.

Every operation is one ``projclt.cli.main([...])`` call on a JSON config
that the benchmark writes from its ``--seed``; the program sees nothing
but those files and the ``--workers``/``--output`` flags.  Sample counts
are sized so that one pass of a workload takes a few seconds on a 2-core
machine, which gives the median several passes per run.

This module imports only the standard library, so that the set-up timer
in ``run.py`` starts before numpy is loaded.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Optional

# Never more workers than cores: the benchmark is one closed-loop caller.
WORKERS = min(2, os.cpu_count() or 1)

COSINE = {"kind": "cosine", "a": "ones-normalized"}


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``config`` names the JSON file it reads; ops that
    share a config differ only in their flags.  ``work`` is the op's unit
    count for ``work_per_s``: Monte Carlo sample vectors for ``verify``,
    simulated pair states for ``bound --theorem abstract``.  ``check``
    selects the oracle in ``oracle.py``; ``same_as`` names an earlier op
    of the pass whose CSV must be byte-identical."""

    name: str
    command: str
    config: str
    work: int
    check: str
    flags: tuple = ()
    same_as: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    """Configs by name, the op list of one pass, and the small config of
    the warm-up call that ends set-up."""

    configs: dict
    ops: list
    warmup: dict
    warmup_command: str = "verify"


def derive(seed: int, *parts) -> int:
    """Non-negative 62-bit seed for one purpose, derived from ``--seed``."""
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 2


def _phase(seed: int, *parts) -> float:
    return (derive(seed, *parts, "phase") % 10_000) / 20_000.0


def _verify_iid(seed: int, smoke: bool) -> Workload:
    """Cosine verify on the four catalog laws and one independent pattern.
    Bulk sampling and the per-block projection do nearly all the work, and
    one op per law separates a gain on one law from a loss on another;
    pair statistics and quadrature are bypassed."""
    samples = 2048 if smoke else 32768
    workers = ("--workers", str(WORKERS))
    specs = [
        ("rademacher", {"kind": "rademacher"}, "hypercube", 4096, 2, "T1"),
        ("uniform", {"kind": "uniform"}, "random", 4096, 2, "T2"),
        ("two_point", {"kind": "two_point", "p": 0.2}, "random", 4096, 2, "T3"),
        ("exponential", {"kind": "exponential"}, "hypercube", 4096, 2, "T2"),
        ("independent",
         {"kind": "independent",
          "pattern": [{"kind": "rademacher"}, {"kind": "uniform"}, {"kind": "exponential"}]},
         "random", 1024, 3, "T2"),
    ]
    configs, ops = {}, []
    for name, model, dkind, n, k, theorem in specs:
        directions = {"kind": dkind, "n": n, "k": k}
        if dkind == "random":
            directions["seed"] = derive(seed, "verify-iid", name, "directions")
        configs[name] = {
            "model": model,
            "directions": directions,
            "test_function": dict(COSINE, phase=_phase(seed, "verify-iid", name)),
            "theorem": theorem,
            "samples": samples,
            "seed": derive(seed, "verify-iid", name),
        }
        ops.append(Op(name, "verify", name, samples, "cosine-exact", workers))
    warmup = {
        "model": {"kind": "rademacher"},
        "directions": {"kind": "hypercube", "n": 256, "k": 2},
        "test_function": COSINE,
        "theorem": "T1",
        "samples": 16384,
        "seed": derive(seed, "verify-iid", "warmup"),
    }
    return Workload(configs=configs, ops=ops, warmup=warmup)


def _abstract_pairs(seed: int, smoke: bool) -> Workload:
    """The abstract bound at n=1024 for both pair kinds.  The time is the
    per-state loop of pair_stats and the E_ij closed forms; sample_block
    is never called."""
    # The continuous uniform law keeps 1000 states even in smoke mode: its
    # third moment is sub-sampled, and the 1 % oracle tolerance needs them.
    states = {"uniform": 1000, "rademacher": 100 if smoke else 2000,
              "transposition": 100 if smoke else 200}
    configs = {
        "uniform": {
            "model": {"kind": "uniform"},
            "directions": {"kind": "random", "n": 1024, "k": 2,
                           "seed": derive(seed, "abstract-pairs", "uniform", "directions")},
            "pair": "resampling",
        },
        "rademacher": {
            "model": {"kind": "rademacher"},
            "directions": {"kind": "hypercube", "n": 1024, "k": 2},
            "pair": "resampling",
        },
        "transposition": {
            "model": {"kind": "exchangeable", "family": "ramp"},
            "directions": {"kind": "hypercube", "n": 1024, "k": 2, "centered": True},
            "pair": "transposition",
        },
    }
    for name, cfg in configs.items():
        cfg.update(test_function=COSINE, theorem="abstract", pair_samples=states[name],
                   seed=derive(seed, "abstract-pairs", name))
    ops = [Op(name, "bound", name, states[name], "abstract-third") for name in configs]
    warmup = {
        "model": {"kind": "uniform"},
        "directions": {"kind": "hypercube", "n": 64, "k": 2},
        "test_function": COSINE,
        "theorem": "abstract",
        "pair": "resampling",
        "pair_samples": 100,
        "seed": derive(seed, "abstract-pairs", "warmup"),
    }
    return Workload(configs=configs, ops=ops, warmup=warmup, warmup_command="bound")


def _verify_exch(seed: int, smoke: bool) -> Workload:
    """T4 (bump) and T5 (cosine) verify on exchangeable models.  It uses
    the permutation sampler, which is several times slower per coordinate
    than the i.i.d. laws, and it is the only workload where quadrature and
    bump evaluation carry weight."""
    samples = 2048 if smoke else 32768
    configs = {
        "T4-bump": {
            "model": {"kind": "exchangeable", "family": "ramp"},
            "directions": {"kind": "hypercube", "n": 1024, "k": 3, "centered": True},
            "test_function": {"kind": "bump", "radius": 2.0},
            "theorem": "T4",
        },
        "T5-cosine": {
            "model": {"kind": "exchangeable", "family": "alternating"},
            "directions": {"kind": "random", "n": 1024, "k": 2, "centered": True,
                           "seed": derive(seed, "verify-exch", "T5-cosine", "directions")},
            "test_function": dict(COSINE, phase=_phase(seed, "verify-exch", "T5-cosine")),
            "theorem": "T5",
        },
    }
    for name, cfg in configs.items():
        cfg.update(samples=samples, seed=derive(seed, "verify-exch", name))
    workers = ("--workers", str(WORKERS))
    ops = [
        Op("T4-bump", "verify", "T4-bump", samples, "exchangeable-bound", workers),
        Op("T5-cosine", "verify", "T5-cosine", samples, "exchangeable-bound", workers),
        # Same config on one worker: the CSV must not depend on the schedule.
        Op("T4-bump-w1", "verify", "T4-bump", samples, "exchangeable-bound",
           ("--workers", "1"), same_as="T4-bump"),
    ]
    warmup = {
        "model": {"kind": "exchangeable", "family": "ramp"},
        "directions": {"kind": "hypercube", "n": 64, "k": 3, "centered": True},
        "test_function": {"kind": "bump", "radius": 2.0},
        "theorem": "T4",
        "samples": 16384,
        "seed": derive(seed, "verify-exch", "warmup"),
    }
    return Workload(configs=configs, ops=ops, warmup=warmup)


BUILDERS = {
    "verify-iid": _verify_iid,
    "abstract-pairs": _abstract_pairs,
    "verify-exch": _verify_exch,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return BUILDERS[name](seed, smoke)
