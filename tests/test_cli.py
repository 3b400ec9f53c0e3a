import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from projclt import sources
from projclt.bounds import THEOREMS
from projclt.cli import ExperimentConfig, main
from projclt.directions import DirectionSet, hypercube_directions
from projclt.errors import ConfigError


SRC = Path(__file__).resolve().parents[1] / "src"


def run_projclt(*args):
    """``python -m projclt ARGS`` in a fresh interpreter that imports this
    checkout's package, installed or not."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "projclt", *args],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = {
        "model": {"kind": "rademacher"},
        "directions": {"kind": "hypercube", "n": 64, "k": 2},
        "test_function": {"kind": "cosine", "a": "ones-normalized"},
        "theorem": "T2",
        "samples": 20_000,
        "seed": 11,
    }
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema=1"
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


class TestConfigValidation:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.samples == 20_000 and cfg.seed == 11
        assert len(cfg.digest) == 12

    def test_digest_is_stable(self, tmp_path):
        a = ExperimentConfig.from_file(str(write_config(tmp_path, name="a.json")))
        b = ExperimentConfig.from_file(str(write_config(tmp_path, name="b.json")))
        assert a.digest == b.digest
        # a configuration without files keeps the digest of its JSON object
        assert a.digest == "8a838e2e7d48"

    @pytest.mark.parametrize("part", ["directions", "population"])
    def test_digest_follows_the_file_bytes_not_the_path(self, tmp_path, part):
        text = (hypercube_directions(8, 2, centered=True).to_csv() if part == "directions"
                else "1\n-1\n" * 4)
        name = "dirs.txt" if part == "directions" else "pop.txt"

        def digest(folder):
            if part == "directions":
                spec = {"directions": {"kind": "file", "path": str(folder / name)}}
            else:
                spec = {"model": {"kind": "exchangeable", "population_file": str(folder / name)},
                        "directions": {"kind": "hypercube", "n": 8, "k": 2, "centered": True},
                        "theorem": "T4"}
            return ExperimentConfig.from_dict(json.loads(write_config(tmp_path, spec)
                                                         .read_text())).digest

        one, two = tmp_path / "one", tmp_path / "two"
        for folder in (one, two):
            folder.mkdir()
            (folder / name).write_text(text)
        assert digest(one) == digest(two)
        before = digest(one)
        edited = "-1\n1\n" * 4 if part == "population" else text.replace(
            "0.35355339059327373", "0.3535533905932737")  # one ulp: still unit rows
        assert edited != text
        (one / name).write_text(edited)
        assert digest(one) != before
        assert digest(two) == before

    def test_equal_pattern_entries_share_one_law_object(self, tmp_path):
        pattern = [{"kind": "two_point", "p": 0.2}, {"kind": "uniform"},
                   {"p": 0.2, "kind": "two_point"}, {"kind": "two_point", "p": 0.3}]
        cfg = ExperimentConfig.from_file(str(write_config(
            tmp_path, {"model": {"kind": "independent", "pattern": pattern}})))
        assert [law.name for law in cfg.model.laws] == ["two_point(0.2)", "uniform",
                                                       "two_point(0.3)"]
        laws, index = cfg.model.laws, cfg.model.law_index
        assert laws[index[0]] is laws[index[2]] is laws[index[4]]

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": {}, "directions": {}, "test_function": {}, "bogus": 1}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(str(path))

    @pytest.mark.parametrize("overrides,key", [
        ({"model": {"kind": "rademacher", "p": 0.3}}, "model.p"),
        ({"model": {"kind": "independent", "pattern": [{"kind": "uniform", "p": 0.3}]}},
         "model.pattern.p"),
        ({"model": {"kind": "independent", "pattern": [{"kind": "uniform"}], "p": 0.3}},
         "model.p"),
        ({"theorem": "T4", "model": {"kind": "exchangeable", "family": "ramp", "p": 0.3},
          "directions": {"kind": "hypercube", "n": 16, "k": 2, "centered": True}}, "model.p"),
        ({"directions": {"kind": "hypercube", "n": 16, "k": 2, "seed": 5}}, "directions.seed"),
        ({"test_function": {"kind": "bump", "phase": 1.0}}, "test_function.phase"),
        ({"test_function": {"kind": "bump", "raduis": 0.5}}, "test_function.raduis"),
        ({"test_function": {"kind": "cosine", "radius": 2.0}}, "test_function.radius"),
        ({"constants": {"A": 3}}, "constants.A"),
        ({"directions": {"kind": "file", "path": "missing.txt", "centered": True}},
         "directions.centered"),
    ])
    def test_a_key_its_kind_does_not_read_is_two(self, tmp_path, capsys, overrides, key):
        # keys are checked before any file is opened
        assert main(["bound", str(write_config(tmp_path, overrides))]) == 2
        assert f"unknown configuration key {key} " in capsys.readouterr().err

    def test_every_key_a_kind_reads_loads(self, tmp_path):
        (tmp_path / "dirs.txt").write_text("# n=2 k=2 kind=orthonormal\n1.0,0.0\n0.0,1.0\n")
        for overrides in [
            {"directions": {"kind": "random", "n": 16, "k": 2, "centered": True, "seed": 5},
             "model": {"kind": "independent",
                       "pattern": [{"kind": "two_point", "p": 0.3}, {"kind": "uniform"}]},
             "test_function": {"kind": "cosine", "a": [0.6, 0.8], "phase": 0.5},
             "constants": {"a": 1.0, "b": 2.0, "c": 3.0}},
            {"directions": {"kind": "file", "path": str(tmp_path / "dirs.txt")},
             "test_function": {"kind": "bump", "radius": 2.0}},
        ]:
            assert main(["bound", str(write_config(tmp_path, overrides))]) == 0

    def test_exchangeable_theorem_cross_checks(self, tmp_path):
        path = write_config(tmp_path, {"theorem": "T4"})
        with pytest.raises(ConfigError, match="exchangeable"):
            ExperimentConfig.from_file(str(path))

    def test_t4_requires_centered_directions(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "theorem": "T4",
                "model": {"kind": "exchangeable", "family": "ramp"},
                "directions": {"kind": "hypercube", "n": 64, "k": 2, "centered": False},
            },
        )
        with pytest.raises(ConfigError, match="centered"):
            ExperimentConfig.from_file(str(path))


class TestExitCodes:
    def test_verify_pass_is_zero(self, tmp_path):
        path = write_config(tmp_path, {"output": str(tmp_path / "out.csv")})
        assert main(["verify", str(path)]) == 0

    def test_negative_control_is_one(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "directions": {"kind": "hypercube", "n": 16, "k": 2},
                "samples": 400_000,
                "output": str(tmp_path / "out.csv"),
            },
        )
        assert main(["verify", str(path), "--shrink-bound", "1e-6"]) == 1

    @pytest.mark.parametrize("factor", ["nan", "inf", "-1", "-inf", "1e400"])
    def test_shrink_bound_outside_zero_to_infinity_is_two(self, tmp_path, capsys, factor):
        # at the default 1.0 this config passes; nan once failed and inf always
        # passed; 1e400 overflows to inf when parsed
        path = write_config(tmp_path, {"output": str(tmp_path / "out.csv")})
        assert main(["verify", str(path), f"--shrink-bound={factor}"]) == 2
        assert "--shrink-bound must be a finite number >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("factor, code", [("0", 1), ("-0.0", 1), ("1e300", 0)])
    def test_shrink_bound_at_the_ends_of_its_range_runs(self, tmp_path, factor, code):
        # the negative control's config: a zero bound flags its discrepancy,
        # a huge one passes it
        path = write_config(
            tmp_path,
            {
                "directions": {"kind": "hypercube", "n": 16, "k": 2},
                "samples": 400_000,
                "output": str(tmp_path / "out.csv"),
            },
        )
        assert main(["verify", str(path), "--shrink-bound", factor]) == code
        assert len(read_rows(tmp_path / "out.csv")) == 1

    @pytest.mark.parametrize("command", ["bound", "verify"])
    @pytest.mark.parametrize("radius", [1e-200, 1e-160, 1e160])
    def test_bump_radius_outside_its_range_is_two(self, tmp_path, capsys, command, radius):
        # r^2 underflows to 0 at 1e-200, 6/r^2 overflows at 1e-160 and r^2 at 1e160
        path = write_config(tmp_path, {"test_function": {"kind": "bump", "radius": radius},
                                       "output": str(tmp_path / "out.csv")})
        assert main([command, str(path)]) == 2
        assert "bump radius must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["bound", "verify"])
    @pytest.mark.parametrize("radius", [1e-150, 1e150])
    def test_bump_radius_at_the_ends_of_its_range_runs(self, tmp_path, command, radius):
        path = write_config(tmp_path, {"test_function": {"kind": "bump", "radius": radius},
                                       "output": str(tmp_path / "out.csv")})
        assert main([command, str(path)]) == 0
        (row,) = read_rows(tmp_path / "out.csv")
        # T2 on Rademacher draws is all third-order term
        assert 0.0 < float(row["term_third" if command == "bound" else "bound"]) < math.inf

    def test_missing_config_is_two(self, capsys):
        assert main(["verify", "/definitely/not/here.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_theorem_is_two(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["bound", str(path), "--theorem", "T7"]) == 2
        assert "unknown theorem" in capsys.readouterr().err

    def test_missing_population_file_is_two(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "theorem": "T4",
                "model": {"kind": "exchangeable", "population_file": str(tmp_path / "gone.txt")},
                "directions": {"kind": "hypercube", "n": 16, "k": 2, "centered": True},
            },
        )
        assert main(["moments", str(path)]) == 2
        assert "not found" in capsys.readouterr().err

    def test_user_model_kind_is_two(self, tmp_path):
        path = write_config(tmp_path, {"model": {"kind": "user"}})
        proc = run_projclt("bound", str(path))
        assert proc.returncode == 2
        assert "unknown model kind 'user'" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_range_is_two(self, tmp_path, capsys, seed):
        path = write_config(tmp_path, {"seed": seed})
        assert main(["bound", str(path)]) == 2
        assert "seed must be an integer in [0, 2^64)" in capsys.readouterr().err
        assert main(["verify", str(write_config(tmp_path, name="ok.json")), "--seed", str(seed)]) == 2

    @pytest.mark.parametrize("command, flag", [
        ("bound", "--seed"), ("bound", "--samples"),
        ("check", "--samples"), ("check", "--theorem"),
        ("moments", "--seed"), ("moments", "--samples"), ("moments", "--theorem"),
    ])
    def test_override_the_command_does_not_read_is_two(self, tmp_path, capsys, command, flag):
        value = "T3" if flag == "--theorem" else "5"
        with pytest.raises(SystemExit) as exc:
            main([command, str(write_config(tmp_path)), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_non_integer_pair_samples_is_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"theorem": "abstract", "pair_samples": "abc"})
        assert main(["bound", str(path)]) == 2
        assert "pair_samples must be a positive integer" in capsys.readouterr().err

    def test_non_integer_direction_seed_is_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"directions": {"kind": "random", "n": 16, "k": 2,
                                                      "seed": "x"}})
        assert main(["bound", str(path)]) == 2
        assert "directions.seed must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem,family", [
        (theorem, family)
        for theorem, row in THEOREMS.items()
        for family in (sources.IID, sources.INDEPENDENT, sources.EXCHANGEABLE)
        if family not in row.families
    ])
    def test_theorem_with_model_family_it_does_not_admit_is_two(
        self, tmp_path, capsys, theorem, family
    ):
        model = {
            sources.IID: {"kind": "uniform"},
            sources.INDEPENDENT: {"kind": "independent",
                                  "pattern": [{"kind": "uniform"}, {"kind": "exponential"}]},
            sources.EXCHANGEABLE: {"kind": "exchangeable", "family": "ramp"},
        }[family]
        path = write_config(tmp_path, {
            "theorem": theorem, "model": model,
            "directions": {"kind": "hypercube", "n": 16, "k": 2, "centered": True},
        })
        assert main(["bound", str(path)]) == 2
        err = capsys.readouterr().err
        assert theorem in err and family in err

    @pytest.mark.parametrize("overrides,message", [
        ({"model": {"kind": "two_point", "p": "abc"}}, "model.p must be a number"),
        ({"model": {"kind": "independent", "pattern": [{"kind": "two_point", "p": "abc"}]}},
         "model.pattern.p must be a number"),
        ({"model": {"kind": "independent", "pattern": ["rademacher"]}},
         "pattern entries must be catalog law objects"),
        ({"theorem": "T4", "model": {"kind": "exchangeable", "population": ["a", "b"]},
          "directions": {"kind": "hypercube", "n": 2, "k": 1, "centered": True}},
         "model.population must be a list of numbers"),
        ({"theorem": "T4", "model": {"kind": "exchangeable", "population": [1, 2, None, 4]},
          "directions": {"kind": "hypercube", "n": 4, "k": 2, "centered": True}},
         "at least two finite values"),
        ({"theorem": "T4", "constants": {"a": "x"},
          "model": {"kind": "exchangeable", "family": "ramp"},
          "directions": {"kind": "hypercube", "n": 16, "k": 2, "centered": True}},
         "constants.a must be a number"),
        ({"test_function": {"kind": "cosine", "a": "ones-normalized", "phase": "x"}},
         "test_function.phase must be a number"),
        ({"test_function": {"kind": "cosine", "a": [1, "x"]}}, "test_function.a must be a list"),
        ({"test_function": {"kind": "cosine", "a": "ones-normalized", "phase": math.nan}},
         "finite phase"),
        ({"test_function": {"kind": "bump", "radius": math.nan}}, "positive and finite"),
        ({"test_function": {"kind": "bump", "radius": "x"}},
         "test_function.radius must be a number"),
        ({"theorem": []}, "non-empty list"),
        # JSON booleans are not numbers, nor strings booleans
        ({"test_function": {"kind": "bump", "radius": True}},
         "test_function.radius must be a number"),
        ({"test_function": {"kind": "cosine", "a": "ones-normalized", "phase": False}},
         "test_function.phase must be a number"),
        ({"test_function": {"kind": "cosine", "a": [True, 0.5]}},
         "test_function.a must be a list of numbers"),
        ({"test_function": {"kind": "cosine", "a": 0.5}},
         "test_function.a must be a list of numbers"),
        ({"model": {"kind": "two_point", "p": True}}, "model.p must be a number"),
        ({"theorem": "T4", "model": {"kind": "exchangeable", "population": [True, False, 0, 1]},
          "directions": {"kind": "hypercube", "n": 4, "k": 2, "centered": True}},
         "model.population must be a list of numbers"),
        ({"theorem": "T4", "constants": {"a": True},
          "model": {"kind": "exchangeable", "family": "ramp"},
          "directions": {"kind": "hypercube", "n": 16, "k": 2, "centered": True}},
         "constants.a must be a number"),
        ({"theorem": "T4", "model": {"kind": "exchangeable", "family": "ramp"},
          "directions": {"kind": "hypercube", "n": 16, "k": 2, "centered": "false"}},
         "directions.centered must be true or false"),
        ({"directions": {"kind": "random", "n": 16, "k": 2, "centered": 1}},
         "directions.centered must be true or false"),
        # the model's family fixes the pair
        ({"theorem": "abstract", "pair": "transposition"},
         "pair must be 'resampling', the pair of a model of family iid"),
        ({"pair": "transposition"}, "pair must be 'resampling'"),
        ({"model": {"kind": "independent", "pattern": [{"kind": "uniform"}]},
          "pair": "transposition"}, "pair must be 'resampling'"),
        ({"theorem": "T4", "model": {"kind": "exchangeable", "family": "ramp"},
          "directions": {"kind": "hypercube", "n": 16, "k": 2, "centered": True},
          "pair": "resampling"},
         "pair must be 'transposition', the pair of a model of family exchangeable"),
        ({"pair": "swap"}, "pair must be 'resampling'"),
        # a kind that is not a string names no law
        ({"model": {"kind": ["rademacher"]}}, "unknown model kind ['rademacher']"),
        ({"model": {"kind": "independent", "pattern": [{"kind": ["uniform"]}]}},
         "pattern entries must be catalog law objects"),
    ])
    def test_malformed_config_value_is_two(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, overrides)
        assert main(["bound", str(path)]) == 2
        assert message in capsys.readouterr().err

    EXCHANGEABLE_16 = {"theorem": "T4",
                       "directions": {"kind": "hypercube", "n": 16, "k": 2, "centered": True}}

    @pytest.mark.parametrize("config,args,message", [
        ("[1, 2]", [], "configuration must be a JSON object"),
        ("{", [], "configuration is not valid JSON"),
        (json.dumps({"directions": {"kind": "hypercube", "n": 16, "k": 2},
                     "test_function": {"kind": "cosine"}}), [],
         "configuration needs a 'model' object"),
        ({"output": 5}, [], "output must be a path string, got 5"),
        ({"directions": {"kind": "file", "path": ""}}, [],
         "directions.path must be a non-empty path string"),
        ({"directions": {"kind": "sphere"}}, [],
         "directions.kind must be hypercube|random|file, got 'sphere'"),
        ({**EXCHANGEABLE_16, "model": {"kind": "exchangeable", "family": "zigzag"}}, [],
         "unknown population family 'zigzag'"),
        ({"test_function": {"kind": "cosine", "a": "ones"}}, [],
         "unknown cosine direction token 'ones'"),
        ({"model": {"kind": "independent", "pattern": []}}, [],
         "independent model needs a non-empty 'pattern' list"),
        ({**EXCHANGEABLE_16, "model": {"kind": "exchangeable"}}, [],
         "exchangeable model needs exactly one of population, population_file, family"),
        ({**EXCHANGEABLE_16, "model": {"kind": "exchangeable", "family": "ramp",
                                       "population": [-1, 1] * 8}}, [],
         "exchangeable model needs exactly one of population, population_file, family"),
        ({"theorem": "T4", "model": {"kind": "exchangeable", "family": "alternating"},
          "directions": {"kind": "random", "n": 15, "k": 2, "centered": True}}, [],
         "alternating population needs even n"),
        ({**EXCHANGEABLE_16, "model": {"kind": "exchangeable", "population": [-1, 1, -1, 1]}},
         [], "population has 4 values but directions have n=16"),
        ({"directions": {"kind": "file", "path": "dirs.txt"}},
         ["scan", "--axis", "n", "--values", "16"], "scan cannot vary file-based directions"),
        ({}, ["scan", "--axis", "n", "--values", "16,x"], "scan values must be integers"),
    ], ids=["not-an-object", "invalid-json", "no-model", "non-string-output",
            "empty-directions-path", "unknown-directions-kind", "unknown-population-family",
            "unknown-cosine-token", "empty-pattern", "no-population", "two-populations",
            "alternating-odd-n", "population-size", "scan-file-directions",
            "non-integer-scan-values"])
    def test_refused_config_is_two_with_its_message(self, tmp_path, monkeypatch, capsys,
                                                     config, args, message):
        monkeypatch.chdir(tmp_path)
        Path("dirs.txt").write_text(hypercube_directions(16, 2).to_csv())
        if isinstance(config, str):
            path = tmp_path / "cfg.json"
            path.write_text(config)
        else:
            path = write_config(tmp_path, config)
        command, *flags = args or ["bound"]
        assert main([command, str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "moments", "bound", "verify"])
    @pytest.mark.parametrize("overrides,message", [
        ({"test_function": {"kind": "bump", "radius": 0}}, "bump radius must be positive"),
        ({"test_function": {"kind": "sine"}}, "test_function.kind must be cosine|bump"),
        ({"test_function": {"kind": "cosine", "a": [1.0, 0.0, 0.0]}},
         "cosine direction has length 3"),
        ({"constants": {"a": -1}}, "constants must be finite and positive"),
        ({"constants": {"b": "x"}}, "constants.b must be a number"),
        ({"constants": [1, 2, 3]}, "constants must be an object"),
        ({"model": {"kind": "exchangeable", "population": [1e200, -1e200, 3e200, 0]},
          "directions": {"kind": "hypercube", "n": 4, "k": 2, "centered": True},
          "theorem": "T4"}, "population values are too large"),
    ])
    def test_every_command_checks_the_whole_config(self, tmp_path, capsys, command,
                                                   overrides, message):
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, {**overrides, "output": str(out)})
        assert main([command, str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # Two centered unit rows in R^8 with inner product 1/2.
    LININD = DirectionSet(np.array([[0.5, 0.5, -0.5, -0.5, 0.0, 0.0, 0.0, 0.0],
                                    [0.5, 0.0, -0.5, 0.0, 0.5, 0.0, -0.5, 0.0]]))

    @pytest.mark.parametrize("theorem,directions,model,message", [
        ("T1", LININD, "rademacher", "T1 requires orthonormal directions"),
        ("T2", LININD, "rademacher", "T2 requires orthonormal directions"),
        ("T4", LININD, "ramp", "T4 requires orthonormal directions"),
        ("abstract", LININD, "uniform", "abstract requires orthonormal directions"),
        ("abstract", hypercube_directions(8, 2), "ramp", "abstract needs centered directions"),
    ], ids=["T1-linind", "T2-linind", "T4-linind", "abstract-linind", "abstract-uncentered"])
    def test_rows_a_theorem_refuses_are_two_from_every_command(
        self, tmp_path, capsys, theorem, directions, model, message
    ):
        (tmp_path / "dirs.txt").write_text(directions.to_csv())
        path = write_config(tmp_path, {
            "theorem": theorem,
            "model": ({"kind": "exchangeable", "family": "ramp"} if model == "ramp"
                      else {"kind": model}),
            "directions": {"kind": "file", "path": str(tmp_path / "dirs.txt")},
            "output": str(tmp_path / "out.csv"),
        })
        errors = set()
        for command in ("bound", "verify", "check", "moments"):
            assert main([command, str(path)]) == 2
            errors.add(capsys.readouterr().err)
        (err,) = errors
        assert message in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", [["verify"], ["scan", "--axis", "n", "--values", "16"]])
    @pytest.mark.parametrize("theorem", [["T2", "T1"], ["T2"]])
    def test_theorem_list_is_two_for_a_verification(self, tmp_path, capsys, command, theorem):
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, {"theorem": theorem, "output": str(out)})
        assert main([command[0], str(path), *command[1:]]) == 2
        assert "verify and scan take one theorem" in capsys.readouterr().err
        assert not out.exists()
        # a --theorem override names the one theorem
        assert main([command[0], str(path), *command[1:], "--theorem", "T1"]) == 0
        assert [row["theorem"] for row in read_rows(out)] == ["T1"]

    @pytest.mark.parametrize("entry,message", [
        ("np.float64(0.5)", "line 3: entries must be decimal numbers"),
        ("0.5,0.0", "line 3: 3 entries, the header says n=2"),
    ])
    def test_malformed_direction_file_is_two(self, tmp_path, capsys, entry, message):
        dirs = tmp_path / "dirs.txt"
        dirs.write_text(f"# n=2 k=2 kind=orthonormal\n1.0,0.0\n{entry},0.5\n")
        path = write_config(tmp_path, {"directions": {"kind": "file", "path": str(dirs)}})
        assert main(["bound", str(path)]) == 2
        err = capsys.readouterr().err
        assert repr(str(dirs)) in err and message in err

    def test_malformed_population_file_is_two(self, tmp_path, capsys):
        pop = tmp_path / "pop.txt"
        pop.write_text("# values\n1.0\nabc\n3.0\n")
        path = write_config(tmp_path, {
            "theorem": "T4",
            "model": {"kind": "exchangeable", "population_file": str(pop)},
            "directions": {"kind": "hypercube", "n": 16, "k": 2, "centered": True},
        })
        assert main(["bound", str(path)]) == 2
        assert f"population file {str(pop)!r}, line 3: 'abc' is not a number" in (
            capsys.readouterr().err)

    def test_exchangeable_sampling_above_the_permutation_limit_is_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "theorem": "T4",
            "model": {"kind": "exchangeable", "family": "ramp"},
            "directions": {"kind": "random", "n": sources.MAX_PERMUTATION_N + 1, "k": 2,
                           "centered": True},
            "samples": 1000,
            "output": str(tmp_path / "out.csv"),
        })
        assert main(["bound", str(path)]) == 0  # the bound draws nothing
        assert main(["verify", str(path)]) == 2
        assert "at most 65536 values, got 65537" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["verify"], ["scan", "--axis", "n", "--values", "16"]])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_two(self, tmp_path, capsys, command, workers):
        path = write_config(tmp_path, {"output": str(tmp_path / "out.csv")})
        assert main([command[0], str(path), *command[1:], "--workers", workers]) == 2
        assert f"--workers must be a positive integer, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_empty_scan_values_is_two(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["scan", str(path), "--axis", "n", "--values", ""]) == 2

    @staticmethod
    def _path_config(key, value):
        exchangeable = {
            "theorem": "T4",
            "directions": {"kind": "hypercube", "n": 16, "k": 2, "centered": True},
        }
        return {
            "output": {"output": value},
            "directions.path": {"directions": {"kind": "file", "path": value}},
            "model.population_file": {
                **exchangeable, "model": {"kind": "exchangeable", "population_file": value}},
        }[key]

    @pytest.mark.parametrize("key", ["output", "directions.path", "model.population_file"])
    @pytest.mark.parametrize("value", [9, 1])
    def test_integer_path_is_two(self, tmp_path, key, value):
        proc = run_projclt("bound", str(write_config(tmp_path, self._path_config(key, value))))
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"{key} must be" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key", ["output", "directions.path", "model.population_file"])
    def test_directory_path_is_two(self, tmp_path, capsys, key):
        folder = tmp_path / "folder"
        folder.mkdir()
        path = write_config(tmp_path, self._path_config(key, str(folder)))
        assert main(["bound", str(path)]) == 2
        err = capsys.readouterr().err
        assert repr(str(folder)) in err and "Is a directory" in err

    def test_directory_config_is_two(self, tmp_path, capsys):
        assert main(["bound", str(tmp_path)]) == 2
        assert repr(str(tmp_path)) in capsys.readouterr().err

    @pytest.mark.parametrize("name,value", [
        ("a", math.nan), ("b", math.inf), ("c", -math.inf),
    ])
    def test_non_finite_exchangeable_constant_is_two(self, tmp_path, capsys, name, value):
        path = write_config(tmp_path, {
            "theorem": "T4", "constants": {name: value},
            "model": {"kind": "exchangeable", "family": "ramp"},
            "directions": {"kind": "hypercube", "n": 16, "k": 2, "centered": True},
        })
        assert main(["bound", str(path)]) == 2
        assert "constants must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,message", [
        ({"samples": True}, "samples must be a positive integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"seed": False}, "seed must be an integer"),
        ({"directions": {"kind": "hypercube", "n": True, "k": 1}},
         "directions.n must be a positive integer"),
        ({"directions": {"kind": "hypercube", "n": 64, "k": True}},
         "directions.k must be a positive integer"),
        ({"directions": {"kind": "random", "n": 16, "k": 2, "seed": True}},
         "directions.seed must be a non-negative integer"),
        ({"pair_samples": True}, "pair_samples must be a positive integer"),
    ])
    def test_boolean_for_an_integer_is_two(self, tmp_path, capsys, overrides, message):
        assert main(["bound", str(write_config(tmp_path, overrides))]) == 2
        assert message in capsys.readouterr().err


class TestBoundCommand:
    def test_hand_value_row(self, tmp_path):
        out = tmp_path / "bound.csv"
        path = write_config(
            tmp_path,
            {
                "theorem": "T1",
                "model": {"kind": "rademacher"},
                "directions": {"kind": "hypercube", "n": 256, "k": 1},
                "test_function": {"kind": "cosine", "a": [1.0]},
                "output": str(out),
            },
        )
        assert main(["bound", str(path)]) == 0
        (row,) = read_rows(out)
        assert row["theorem"] == "T1"
        assert float(row["term_fourth"]) == 0.0
        # 4/3 * 1 * 1 * 1 * (1/16)
        assert float(row["total"]) == pytest.approx(4.0 / 48.0, abs=1e-15)

    @pytest.mark.parametrize("rows,law,theorems", [
        # |row| = 1 - 2e-11: outside the old norm-sum sandwich's 1e-12 slack
        (hypercube_directions(16, 2).vectors * (1 - 2e-11), "uniform", ["T1", "T2", "T3"]),
        # |row|^2 = 1 - 1.6e-10: outside the old 1e-10 Gram-diagonal check
        (np.array([[0.5, 0.5, -0.5, -0.5, 0.0, 0.0, 0.0, 0.0],
                   [0.5, 0.0, -0.5, 0.0, 0.5, 0.0, -0.5, 0.0]]) * (1 - 0.8e-10),
         "exponential", ["T3"]),
    ], ids=["sign-rows", "linind-rows"])
    def test_rows_the_direction_set_accepts_run(self, tmp_path, rows, law, theorems):
        k, n = rows.shape
        dirs = tmp_path / "dirs.txt"
        dirs.write_text(DirectionSet(rows).to_csv())
        out = tmp_path / "bound.csv"
        path = write_config(tmp_path, {
            "model": {"kind": law}, "theorem": theorems, "output": str(out),
            "directions": {"kind": "file", "path": str(dirs)}})
        assert main(["bound", str(path)]) == 0
        assert [row["n"] for row in read_rows(out)] == [str(n)] * len(theorems)

    def test_orthonormal_rows_under_an_old_header_run_t1(self, tmp_path):
        # The header's kind is not read: the sign-design rows are orthonormal
        # whatever an older file declares, so T1 gives the hypercube config's CSV.
        rows = hypercube_directions(8, 2).vectors
        dirs = tmp_path / "dirs.txt"
        dirs.write_text("# n=8 k=2 kind=linearly-independent\n"
                        + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        outputs = []
        for name, directions in [("file", {"kind": "file", "path": str(dirs)}),
                                 ("hypercube", {"kind": "hypercube", "n": 8, "k": 2})]:
            out = tmp_path / f"{name}.csv"
            path = write_config(tmp_path, {"model": {"kind": "uniform"}, "theorem": "T1",
                                           "directions": directions, "output": str(out)})
            assert main(["bound", str(path)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_multiple_theorems(self, tmp_path):
        out = tmp_path / "bound.csv"
        path = write_config(
            tmp_path, {"theorem": ["T1", "T2", "T3"], "output": str(out),
                       "model": {"kind": "uniform"}}
        )
        assert main(["bound", str(path)]) == 0
        rows = read_rows(out)
        assert [r["theorem"] for r in rows] == ["T1", "T2", "T3"]
        # orthonormal directions: T3 lambda column is 1
        assert float(rows[2]["lambda"]) == pytest.approx(1.0, abs=1e-9)

    def test_t4_bound_row(self, tmp_path):
        out = tmp_path / "bound.csv"
        path = write_config(
            tmp_path,
            {
                "theorem": "T4",
                "model": {"kind": "exchangeable", "family": "ramp"},
                "directions": {"kind": "hypercube", "n": 64, "k": 2, "centered": True},
                "constants": {"a": 1.0, "b": 1.0, "c": 1.0},
                "output": str(out),
            },
        )
        assert main(["bound", str(path)]) == 0
        (row,) = read_rows(out)
        assert float(row["term_mixed"]) > 0

    def test_abstract_on_a_population_too_small_for_mixed_moments(self, tmp_path):
        # T4/T5 need mixed fourth moments (n >= 4); the abstract bound does not
        out = tmp_path / "bound.csv"
        path = write_config(tmp_path, {
            "theorem": "abstract",
            "model": {"kind": "exchangeable", "population": [1, 2, 4]},
            "directions": {"kind": "random", "n": 3, "k": 1, "centered": True},
            "output": str(out),
        })
        assert main(["bound", str(path)]) == 0
        (row,) = read_rows(out)
        assert row["theorem"] == "abstract" and float(row["total"]) > 0


    def test_abstract_bound_ignores_pair_samples_and_seed(self, tmp_path):
        # the abstract bound is exact: no pair state is drawn
        outputs = []
        for i, extra in enumerate([{"pair_samples": 100, "seed": 1},
                                   {"pair_samples": 5000, "seed": 2}]):
            out = tmp_path / f"abstract{i}.csv"
            path = write_config(tmp_path, {"theorem": "abstract", "model": {"kind": "uniform"},
                                           "output": str(out), **extra}, name=f"c{i}.json")
            assert main(["bound", str(path)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestScanCommand:
    def test_hypercube_bound_ratios_halve(self, tmp_path):
        out = tmp_path / "scan.csv"
        path = write_config(tmp_path, {"samples": 5_000, "output": str(out)})
        assert main(["scan", str(path), "--axis", "n", "--values", "16,64,256,1024"]) == 0
        rows = read_rows(out)
        totals = [float(r["bound"]) for r in rows]
        for a, b in zip(totals, totals[1:]):
            assert b / a == pytest.approx(0.5, rel=1e-12)

    def test_k_scan_with_adaptive_direction(self, tmp_path):
        out = tmp_path / "scan.csv"
        path = write_config(
            tmp_path,
            {"samples": 5_000, "output": str(out),
             "directions": {"kind": "random", "n": 256, "k": 1, "seed": 3}},
        )
        assert main(["scan", str(path), "--axis", "k", "--values", "1,2,3"]) == 0
        rows = read_rows(out)
        assert [int(r["k"]) for r in rows] == [1, 2, 3]

    def test_k_scan_with_fixed_vector_rejected(self, tmp_path):
        path = write_config(
            tmp_path, {"test_function": {"kind": "cosine", "a": [1.0, 0.0]}}
        )
        assert main(["scan", str(path), "--axis", "k", "--values", "1,2"]) == 2


def check_names(out):
    """The check names of ``check`` output lines 'check NAME: ok (...)'."""
    return [line[len("check "):line.index(": ")] for line in out.splitlines()]


class TestCheckCommand:
    def test_default_config_passes(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 1
        assert check_names(out) == ["moments rademacher"]

    def test_exchangeable_config_passes(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "theorem": "T4",
                "model": {"kind": "exchangeable", "family": "ramp"},
                "directions": {"kind": "hypercube", "n": 16, "k": 2, "centered": True},
            },
        )
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("kind, name", [
        ("rademacher", "rademacher"), ("uniform", "uniform"),
        ("two_point", "two_point(0.2)"), ("exponential", "exponential"),
    ])
    def test_iid_config_checks_its_own_law(self, tmp_path, capsys, kind, name):
        path = write_config(tmp_path, {"model": {"kind": kind}})
        assert main(["check", str(path)]) == 0
        assert check_names(capsys.readouterr().out) == [f"moments {name}"]

    def independent_config(self, tmp_path):
        pattern = [{"kind": "rademacher"}, {"kind": "exponential"}]
        return write_config(tmp_path, {"model": {"kind": "independent", "pattern": pattern}})

    def test_independent_pattern_checks_every_law(self, tmp_path, capsys):
        assert main(["check", str(self.independent_config(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "check moments rademacher: ok" in out
        assert "check moments exponential: ok" in out
        assert check_names(out) == ["moments rademacher", "moments exponential"]

    def test_four_law_pattern_keeps_its_text(self, tmp_path, capsys):
        pattern = [{"kind": "rademacher"}, {"kind": "uniform"}, {"kind": "two_point", "p": 0.2},
                   {"kind": "exponential"}]
        path = write_config(tmp_path, {"model": {"kind": "independent", "pattern": pattern}})
        assert main(["check", str(path)]) == 0
        # moved once, when its first line, the pair's linearity residual, went;
        # the two-point line moved once more, when two-point draws began to
        # read one stream byte each (from abs3 1.68598, fourth 3.22163)
        assert capsys.readouterr().out == (
            "check moments rademacher: ok (abs3 1.00000 vs 1.00000, fourth 1.00000 vs 1.00000)\n"
            "check moments uniform: ok (abs3 1.30219 vs 1.29904, fourth 1.80438 vs 1.80000)\n"
            "check moments two_point(0.2): ok (abs3 1.69027 vs 1.70000, fourth 3.23032 vs 3.25000)\n"
            "check moments exponential: ok (abs3 2.44194 vs 2.41455, fourth 9.30219 vs 9.00000)\n")

    def test_wrong_moment_on_the_second_law_fails(self, tmp_path, monkeypatch, capsys):
        wrong = dataclasses.replace(sources.centered_exponential(), abs3=3.0)  # 12/e - 2 ~ 2.41
        monkeypatch.setitem(sources.CATALOG, "exponential", lambda: wrong)
        assert main(["check", str(self.independent_config(tmp_path))]) == 1
        out = capsys.readouterr().out
        assert "check moments rademacher: ok" in out
        assert "check moments exponential: FAIL" in out

    def test_law_with_a_nonzero_mean_is_refused_at_load(self, tmp_path, monkeypatch, capsys):
        # a support of mean 1/2 is refused when the law is built, so the
        # configuration exits 2 before any check runs
        monkeypatch.setitem(sources.CATALOG, "rademacher", lambda: dataclasses.replace(
            sources.rademacher(), support=(np.array([-1.0, 1.0]), np.array([0.25, 0.75]))))
        assert main(["check", str(write_config(tmp_path))]) == 2
        assert "needs a standardized support" in capsys.readouterr().err

    def skewed_config(self, tmp_path):
        """The standardized population [0, ..., 0, 1, 5] with centered random rows."""
        return write_config(tmp_path, {
            "theorem": "abstract",
            "model": {"kind": "exchangeable", "population": [0] * 14 + [1, 5]},
            "directions": {"kind": "random", "n": 16, "k": 3, "centered": True},
        })

    def test_exchangeable_model_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # an exchangeable model has no law to check, so no line and no draw
        def refuse(*args, **kwargs):
            raise AssertionError("a state was drawn")

        for name in ["sample_tiles", "sample_class_sums", "sample_rank_bins", "projections",
                     "stream"]:
            monkeypatch.setattr(sources, name, refuse)
        path = str(self.skewed_config(tmp_path))
        assert main(["check", path]) == 0
        assert capsys.readouterr().out == ""
        out = tmp_path / "check.txt"
        assert main(["check", path, "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == b""


class TestMomentsCommand:
    def test_uniform_row(self, tmp_path):
        out = tmp_path / "m.csv"
        path = write_config(tmp_path, {"model": {"kind": "uniform"}, "output": str(out)})
        assert main(["moments", str(path)]) == 0
        (row,) = read_rows(out)
        assert float(row["fourth"]) == pytest.approx(1.8, abs=1e-15)
        assert float(row["abs3"]) == pytest.approx(3 * math.sqrt(3) / 4, abs=1e-15)
        assert row["mixed_4"] == ""

    def test_pattern_row_reports_the_worst_coordinate(self, tmp_path):
        # coordinate 0 is Rademacher; the uniform law has the larger constants
        out = tmp_path / "m.csv"
        path = write_config(tmp_path, {"model": {"kind": "independent", "pattern": [
            {"kind": "rademacher"}, {"kind": "uniform"}]}, "output": str(out)})
        assert main(["moments", str(path)]) == 0
        (row,) = read_rows(out)
        assert float(row["abs3"]) == 3 * math.sqrt(3) / 4
        assert float(row["fourth"]) == 1.8
        assert row["model"] == "independent"
        assert list(row) == ["model", "abs3", "fourth", "mixed_4", "mixed_var"]

    def test_exchangeable_row_has_mixed_moments(self, tmp_path):
        out = tmp_path / "m.csv"
        path = write_config(
            tmp_path,
            {
                "theorem": "T4",
                "model": {"kind": "exchangeable", "population": [-1.0, -1.0, 1.0, 1.0]},
                "directions": {"kind": "hypercube", "n": 4, "k": 2, "centered": True},
                "output": str(out),
            },
        )
        assert main(["moments", str(path)]) == 0
        (row,) = read_rows(out)
        assert float(row["mixed_4"]) == 1.0
        assert float(row["mixed_var"]) == 0.0


class TestOverrides:
    def test_bound_theorem(self, tmp_path):
        out = tmp_path / "b.csv"
        path = write_config(tmp_path, {"output": str(out)})
        assert main(["bound", str(path), "--theorem", "T3"]) == 0
        assert [row["theorem"] for row in read_rows(out)] == ["T3"]

    def test_bound_output(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["bound", str(write_config(tmp_path)), "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert [row["theorem"] for row in read_rows(out)] == ["T2"]

    def test_check_seed(self, tmp_path, capsys):
        # the uniform law's sampled moments move with the seed
        uniform = {"model": {"kind": "uniform"}}
        assert main(["check", str(write_config(tmp_path, uniform)), "--seed", "5"]) == 0
        overridden = capsys.readouterr().out
        path = write_config(tmp_path, {**uniform, "seed": 5}, name="s5.json")
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == overridden
        assert main(["check", str(write_config(tmp_path, uniform))]) == 0
        assert capsys.readouterr().out != overridden

    def test_check_output(self, tmp_path, capsys):
        out = tmp_path / "check.txt"
        assert main(["check", str(write_config(tmp_path)), "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert check_names(out.read_text()) == ["moments rademacher"]

    def test_moments_output(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        path = write_config(tmp_path, {"model": {"kind": "uniform"}})
        assert main(["moments", str(path), "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        (row,) = read_rows(out)
        assert row["model"] == "uniform"


COSINE_PHASE = {"kind": "cosine", "a": "ones-normalized", "phase": 0.3}
# verify --workers 2 CSVs of configs that draw coordinates, each the same
# bytes as before class sums came in (20,000 samples, seed 11).  The uniform
# CSV moved once since, when uniform draws became a lattice of 2^23 points
# built in the stream words' buffer.  The exchangeable cell's rows and
# population have 1024 groups each, so it keeps the sorted-key permutation;
# its digest was taken before rank bins came in.  The independent pattern's
# uniform law declares no sum sampler, so it draws coordinates too; its
# digest was taken before the choice of sampler moved into sources.  The
# uniform and independent-pattern CSVs moved once more, in the last digits
# of estimate and ci, when each law's variate was projected and its affine
# map applied per projected row (uniform from 3330c4b6..., pattern from
# 983f5e29..., whose laws' blocks are now projected one by one).
COORDINATE_CSVS = {
    "random-rows": ({"model": {"kind": "rademacher"},
                     "directions": {"kind": "random", "n": 1024, "k": 2, "seed": 5},
                     "test_function": COSINE_PHASE, "theorem": "T2"},
                    "2a01509d473449a8b11ea4a6d626af0cc958ccef0d8bdf2f0bbe46c8ed9d9390"),
    "uniform": ({"model": {"kind": "uniform"},
                 "directions": {"kind": "hypercube", "n": 1024, "k": 2},
                 "test_function": COSINE_PHASE, "theorem": "T2"},
                "cc9fc6ff59cd58005872f6e429698343816cae138f6edd3c161413661b994d97"),
    "exchangeable": ({"model": {"kind": "exchangeable", "family": "ramp"},
                      "directions": {"kind": "random", "n": 1024, "k": 2, "centered": True,
                                     "seed": 5},
                      "test_function": {"kind": "bump", "radius": 2.0}, "theorem": "T4"},
                     "1c6acb3e9a2f97262d338d37eb3873af8b603dface501e5982e0ba1a2e8fa645"),
    "sign-rows-small-n": ({"model": {"kind": "rademacher"},
                           "directions": {"kind": "hypercube", "n": 64, "k": 2},
                           "test_function": COSINE_PHASE, "theorem": "T1"},
                          "291cc8171d23f634e019efd02772d452bdd17f82b03789af317e75da63cee0aa"),
    "independent-pattern": ({"model": {"kind": "independent", "pattern": [
                                 {"kind": "rademacher"}, {"kind": "uniform"},
                                 {"kind": "exponential"}]},
                             "directions": {"kind": "random", "n": 1024, "k": 3, "seed": 5},
                             "test_function": COSINE_PHASE, "theorem": "T2"},
                            "e999a330893d863ebbc1b05d6d16024aee7a684f61dc18984461140fb356093e"),
}
CLASS_SUM_CONFIG = {"model": {"kind": "exponential"},
                    "directions": {"kind": "hypercube", "n": 4096, "k": 3},
                    "test_function": COSINE_PHASE, "theorem": "T2"}
# verify --workers 2 CSV of CLASS_SUM_CONFIG, taken before the choice of
# sampler moved into sources.
CLASS_SUM_CSV = "e08e223d1b5d67b776bf56e2f6b009b66407c5fdc9a43bf7f5a3db161c954453"
# verify --workers 2 CSVs of exchangeable configs that draw rank bins, and
# the trace's sampler and groups: the ramp's 1024 values over the 4 column
# classes of centred sign rows, and the coordinates of random centred rows
# over the 2 values of the alternating population.  Both moved once, when
# rank bins of (G - 1) n <= 2^15 took 16-bit keys in place of 32-bit ones.
RANK_BIN_CSVS = {
    "column-bins": ({"model": {"kind": "exchangeable", "family": "ramp"},
                     "directions": {"kind": "hypercube", "n": 1024, "k": 3, "centered": True},
                     "test_function": {"kind": "bump", "radius": 2.0}, "theorem": "T4"},
                    "875e725cde78f9466c3c83010f8afbfb89aa385d0fddecd41f02359229216890", 4),
    "value-bins": ({"model": {"kind": "exchangeable", "family": "alternating"},
                    "directions": {"kind": "random", "n": 1024, "k": 2, "centered": True,
                                   "seed": 5},
                    "test_function": COSINE_PHASE, "theorem": "T5"},
                   "3296314c9e3bcc5955b3ea4652f688b8b87d0b907695f87f3b9df7a4b0c4459e", 2),
}
# bound --theorem abstract CSVs: i.i.d. uniform on random rows, i.i.d.
# Rademacher on sign rows, a three-law pattern on random rows and the ramp.
# They and the two below were taken while a bare law was still a model;
# the pattern's third-moment sum, now taken law by law, kept its bytes.
ABSTRACT_CSVS = {
    "iid-uniform": ({"model": {"kind": "uniform"},
                     "directions": {"kind": "random", "n": 1024, "k": 2, "seed": 5}},
                    "41a98fad0d997d63aaff6cf45ec7698a7c703eaf7140c3d226bfb28edb091d8b"),
    "iid-rademacher": ({"model": {"kind": "rademacher"},
                        "directions": {"kind": "hypercube", "n": 1024, "k": 2}},
                       "8bf6d669a42dfa739a892f484d3523580fb7222bd7fe56a817e99fa0d046ce1a"),
    "pattern": ({"model": {"kind": "independent", "pattern": [
                     {"kind": "rademacher"}, {"kind": "uniform"}, {"kind": "exponential"}]},
                 "directions": {"kind": "random", "n": 1024, "k": 3, "seed": 5}},
                "0d2dbed6f8bcb1366cfbe5f0e3adfdb55f556f1c7d56ffc730a4b94a86d4b7eb"),
    "ramp": ({"model": {"kind": "exchangeable", "family": "ramp"},
              "directions": {"kind": "random", "n": 1024, "k": 2, "centered": True, "seed": 5}},
             "692d58870897eb477955f368092e7ff0ce9462170c74f4793cc32f7e91bf8e20"),
}
# The moments CSV and the check text of one i.i.d. law.  The CSV moved once,
# from d6751ad3..., when its first-coordinate abs3 and fourth columns went
# and abs3_max and fourth_max took their names.  The check text moved once,
# when its first line, the pair's linearity residual, went, and once more
# when two-point draws began to read one stream byte each (from abs3
# 1.68598, fourth 3.22163).
IID_LAW_CONFIG = {"model": {"kind": "two_point", "p": 0.2}}
IID_MOMENTS_CSV = "28614a0d781916394e92da5eae0eed91f46781953fec60b6a68f66991c048bfc"
IID_CHECK_TEXT = (
    "check moments two_point(0.2): ok (abs3 1.69027 vs 1.70000, fourth 3.23032 vs 3.25000)\n")


class TestReproducibility:
    @pytest.mark.parametrize("config", [None, CLASS_SUM_CONFIG, *(
        config for config, _, _ in RANK_BIN_CSVS.values())],
        ids=["coordinates", "class-sums", *RANK_BIN_CSVS])
    def test_byte_identical_output_across_runs_and_workers(self, tmp_path, config):
        path = write_config(tmp_path, config)
        outputs = []
        for workers in (1, 2, 3):
            outputs.append(tmp_path / f"{workers}.csv")
            assert main(["verify", str(path), "--output", str(outputs[-1]),
                         "--workers", str(workers)]) == 0
        assert len({out.read_bytes() for out in outputs}) == 1

    @pytest.mark.parametrize("name", sorted(COORDINATE_CSVS))
    def test_coordinate_draws_keep_their_bytes(self, tmp_path, capsys, name):
        config, digest = COORDINATE_CSVS[name]
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, config)
        assert main(["verify", str(path), "--output", str(out), "--workers", "2", "--trace"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        record = json.loads(capsys.readouterr().err)
        assert (record["sampler"], record["groups"]) == ("coordinates", None)

    def test_class_sum_draws_keep_their_bytes(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, CLASS_SUM_CONFIG)
        assert main(["verify", str(path), "--output", str(out), "--workers", "2", "--trace"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CLASS_SUM_CSV
        record = json.loads(capsys.readouterr().err)
        assert (record["sampler"], record["groups"]) == ("class-sums", 4)

    @pytest.mark.parametrize("name", sorted(RANK_BIN_CSVS))
    def test_rank_bin_draws_keep_their_bytes(self, tmp_path, capsys, name):
        config, digest, groups = RANK_BIN_CSVS[name]
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, config)
        assert main(["verify", str(path), "--output", str(out), "--workers", "2", "--trace"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        record = json.loads(capsys.readouterr().err)
        assert (record["sampler"], record["groups"]) == (name, groups)

    @pytest.mark.parametrize("name", sorted(ABSTRACT_CSVS))
    def test_abstract_bound_keeps_its_bytes(self, tmp_path, name):
        config, digest = ABSTRACT_CSVS[name]
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, {**config, "test_function": COSINE_PHASE,
                                       "theorem": "abstract"})
        assert main(["bound", str(path), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_iid_moments_and_check_keep_their_bytes(self, tmp_path):
        out, text = tmp_path / "m.csv", tmp_path / "check.txt"
        path = write_config(tmp_path, IID_LAW_CONFIG)
        assert main(["moments", str(path), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == IID_MOMENTS_CSV
        assert main(["check", str(path), "--output", str(text)]) == 0
        assert text.read_text() == IID_CHECK_TEXT

    @pytest.mark.parametrize("pattern, law", [
        ([{"kind": "uniform"}], {"kind": "uniform"}),
        ([{"kind": "rademacher"}, {"kind": "rademacher"}], {"kind": "rademacher"}),
    ], ids=["uniform", "rademacher-twice"])
    @pytest.mark.parametrize("directions", [
        {"kind": "random", "n": 256, "k": 2, "seed": 5}, {"kind": "hypercube", "n": 256, "k": 2},
    ], ids=["random-rows", "sign-rows"])
    def test_a_pattern_of_one_law_is_the_iid_model(self, tmp_path, capsys, pattern, law,
                                                   directions):
        # the family is measured: T1 admits the pattern, which draws as the law does
        outputs = []
        for name, model in (("pattern", {"kind": "independent", "pattern": pattern}),
                            ("law", law)):
            path = write_config(tmp_path, {
                "model": model, "directions": directions,
                "theorem": ["T1", "T2", "T3", "abstract"]}, name=f"{name}.json")
            assert sources.family(ExperimentConfig.from_file(str(path)).model) == sources.IID
            csv = {command: tmp_path / f"{name}-{command}.csv"
                   for command in ("bound", "verify", "moments")}
            assert main(["bound", str(path), "--output", str(csv["bound"])]) == 0
            assert main(["verify", str(path), "--theorem", "T1", "--trace",
                         "--output", str(csv["verify"])]) == 0
            assert main(["moments", str(path), "--output", str(csv["moments"])]) == 0
            record = json.loads(capsys.readouterr().err)
            (verify,), (moments,) = read_rows(csv["verify"]), read_rows(csv["moments"])
            del verify["digest"]  # it names the configuration
            outputs.append((csv["bound"].read_bytes(), verify, moments,
                            record["sampler"], record["groups"]))
        assert outputs[0] == outputs[1]
        # the uniform law has no sum sampler; sign rows under Rademacher take class sums
        class_sums = (law["kind"], directions["kind"]) == ("rademacher", "hypercube")
        assert outputs[0][3] == ("class-sums" if class_sums else "coordinates")

    def test_seed_override_changes_digest_not_determinism(self, tmp_path):
        base, out1, out2 = tmp_path / "base.csv", tmp_path / "a.csv", tmp_path / "b.csv"
        path = write_config(tmp_path)
        assert main(["verify", str(path), "--output", str(base)]) == 0
        assert main(["verify", str(path), "--seed", "99", "--output", str(out1)]) == 0
        assert main(["verify", str(path), "--seed", "99", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        (row,), (overridden,) = read_rows(base), read_rows(out1)
        assert overridden["digest"] != row["digest"]
        assert overridden["estimate"] != row["estimate"]

    @staticmethod
    def verify_row(path, *flags, output):
        assert main(["verify", str(path), *flags, "--output", str(output)]) == 0
        (row,) = read_rows(output)
        return row

    @pytest.mark.parametrize("flag, value, key", [
        ("--seed", "99", "seed"), ("--samples", "30000", "samples"), ("--theorem", "T3", "theorem"),
    ])
    def test_an_override_is_the_config_with_the_value_merged_in(self, tmp_path, flag, value, key):
        path = write_config(tmp_path)
        base = self.verify_row(path, output=tmp_path / "base.csv")
        overridden = self.verify_row(path, flag, value, output=tmp_path / "a.csv")
        assert overridden["digest"] != base["digest"]
        # the same run, digest included, as a file that sets the value itself
        merged = write_config(tmp_path, {key: value if key == "theorem" else int(value)},
                              name="merged.json")
        assert self.verify_row(merged, output=tmp_path / "merged.csv") == overridden

    @pytest.mark.parametrize("flags", [
        ("--seed", "11"), ("--samples", "20000"), ("--theorem", "T2"), ("--workers", "2"),
        ("--seed", "11", "--samples", "20000", "--theorem", "T2", "--workers", "1"),
    ])
    def test_an_override_equal_to_the_file_value_keeps_the_digest(self, tmp_path, flags):
        path = write_config(tmp_path, {"output": str(tmp_path / "file.csv")})
        base = self.verify_row(path, output=tmp_path / "base.csv")
        assert self.verify_row(path, *flags, output=tmp_path / "a.csv") == base
        # an --output override does not count either: the file sets its own output
        assert main(["verify", str(path), *flags]) == 0
        assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "base.csv").read_bytes()

    def test_a_scan_cell_is_the_config_with_its_axis_value_and_seed(self, tmp_path):
        out = tmp_path / "scan.csv"
        path = write_config(tmp_path, {"samples": 5_000})
        assert main(["scan", str(path), "--axis", "n", "--values", "16,64",
                     "--output", str(out)]) == 0
        for value, row in zip((16, 64), read_rows(out)):
            cell = write_config(tmp_path, {
                "samples": 5_000, "directions": {"kind": "hypercube", "n": value, "k": 2},
                "seed": sources.derived_seed(11, value) & 0x7FFFFFFFFFFFFFFF,
            }, name=f"cell{value}.json")
            alone = self.verify_row(cell, output=tmp_path / f"cell{value}.csv")
            assert {key: row[key] for key in alone} == alone

    def test_trace_writes_json_to_stderr_and_leaves_the_csv(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        path = write_config(tmp_path)
        assert main(["verify", str(path), "--output", str(out1)]) == 0
        assert capsys.readouterr().err == ""
        assert main(["verify", str(path), "--output", str(out2), "--trace", "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert (record["theorem"], record["n"], record["k"], record["passed"]) == ("T2", 64, 2, True)
        assert (record["workers"], record["blocks"], record["tile_rows"]) == (2, 3, sources.TILE_ROWS)
        assert set(record["stage_seconds"]) == {"bound", "gaussian", "discrepancy"}
        assert record["samples_per_s"] > 0
        assert record["gaussian_method"] == "closed-form" and record["gaussian_error"] == 0.0
        assert list(record) == [
            "theorem", "n", "k", "passed", "seed", "samples", "mean_g", "se", "gaussian_value",
            "gaussian_error", "gaussian_method", "bound_scale", "digest", "workers", "blocks",
            "tile_rows", "stream", "stage_seconds", "samples_per_s", "dominant_term",
            "sampler", "groups"]
        (row,) = read_rows(out2)
        assert (record["seed"], record["samples"], record["bound_scale"], record["digest"]) == (
            11, 20_000, 1.0, row["digest"])
        assert (record["sampler"], record["groups"]) == ("coordinates", None)

    def test_trace_names_the_class_sums(self, tmp_path, capsys):
        path = write_config(tmp_path, {**CLASS_SUM_CONFIG, "samples": 5_000})
        assert main(["verify", str(path), "--output", str(tmp_path / "a.csv"), "--trace"]) == 0
        record = json.loads(capsys.readouterr().err)
        assert (record["sampler"], record["groups"]) == ("class-sums", 4)

    @pytest.mark.parametrize("model", [
        {"kind": "rademacher"},
        {"kind": "independent", "pattern": [{"kind": "rademacher"}, {"kind": "rademacher"}]},
    ], ids=["iid", "repeated-pattern-law"])
    def test_a_repeated_pattern_law_keeps_its_class_whole(self, tmp_path, capsys, model):
        path = write_config(tmp_path, {"model": model, "samples": 5_000,
                                       "directions": {"kind": "hypercube", "n": 64, "k": 1}})
        assert main(["verify", str(path), "--output", str(tmp_path / "a.csv"), "--trace"]) == 0
        record = json.loads(capsys.readouterr().err)
        assert (record["sampler"], record["groups"]) == ("class-sums", 1)

    def test_trace_names_the_dominant_bound_term(self, tmp_path, capsys):
        bound_out, out1, out2 = tmp_path / "bound.csv", tmp_path / "a.csv", tmp_path / "b.csv"
        path = write_config(tmp_path, {"model": {"kind": "uniform"}, "samples": 5_000})
        assert main(["bound", str(path), "--output", str(bound_out)]) == 0
        (row,) = read_rows(bound_out)
        terms = {name: float(row[name]) for name in ("term_fourth", "term_third", "term_mixed")}
        assert main(["verify", str(path), "--output", str(out1)]) == 0
        capsys.readouterr()
        assert main(["verify", str(path), "--output", str(out2), "--trace"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        record = json.loads(capsys.readouterr().err)
        assert record["dominant_term"] == max(terms, key=terms.get)

    def test_scan_trace_has_one_object_per_cell(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        path = write_config(tmp_path, {"samples": 5_000})
        args = ["scan", str(path), "--axis", "n", "--values", "16,64"]
        assert main([*args, "--output", str(out1)]) == 0
        capsys.readouterr()
        assert main([*args, "--output", str(out2), "--trace"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [r["n"] for r in records] == [16, 64]

    def test_console_entry_point(self, tmp_path):
        path = write_config(tmp_path, {"output": None})
        proc = run_projclt("moments", str(path))
        assert proc.returncode == 0
        assert proc.stdout.startswith("# schema=1")
