"""The benchmark's configs load: every config and warm-up that
``perfbench/workloads.py`` writes passes the one configuration pass of
``ExperimentConfig.from_dict``, and the abstract-pairs configs, which set
the ``pair`` and ``pair_samples`` keys, run ``bound``.  A config change
that the benchmark's files still use is caught here, not in a benchmark
run.  ``workloads.py`` imports only the standard library and is read in
place."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from projclt.cli import ExperimentConfig, main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
SEEDS = (0, 3, 14035)


def configs(name, seed, smoke):
    wl = workloads.build(name, seed, smoke)
    return [*wl.configs.items(), ("warmup", wl.warmup)]


@pytest.mark.parametrize("smoke", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_every_config_and_warmup_loads(name, seed, smoke):
    for cname, raw in configs(name, seed, smoke):
        # the files hold the objects as run.py writes them
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(raw, sort_keys=True)))
        assert cfg.raw == raw, cname


@pytest.mark.parametrize("seed", SEEDS)
def test_abstract_pairs_configs_run_bound(tmp_path, seed):
    for cname, raw in configs("abstract-pairs", seed, smoke=False):
        assert {"pair", "pair_samples"} <= set(raw)
        path, out = tmp_path / f"{cname}.json", tmp_path / f"{cname}.csv"
        path.write_text(json.dumps(raw, sort_keys=True))
        assert main(["bound", str(path), "--output", str(out)]) == 0, cname
        lines = out.read_text().splitlines()
        assert len(lines) == 3 and lines[2].startswith("abstract,")
