"""Configuration-driven command line for bounds, verification, and sweeps.

Commands
--------
bound    evaluate the selected bound(s), one CSV row per theorem
verify   Monte Carlo discrepancy vs. bound; exit 0 on pass, 1 on violation
scan     sweep n or k, emitting one verification row (with the bound
         decomposition) per value
moments  print the moment constants the bounds read: the worst coordinate's
         E|X|^3 and EX^4, and an exchangeable model's mixed moments

The experiment configuration is a single JSON file; a command takes only
the overrides it reads: ``--output`` (all), ``--theorem`` (bound, verify,
scan), ``--seed`` (verify, scan) and ``--samples`` (verify, scan).
:meth:`ExperimentConfig.from_file` merges them in, then builds and checks
the whole experiment in one pass, so every command refuses the same
configurations.  ``bound`` takes a list of theorems, ``verify`` and
``scan`` one.
``verify`` and ``scan`` take ``--workers N`` (N >= 1; wall time only) and
``--trace``, which writes one JSON object per run or scan cell to stderr:
theorem, n, k, pass/fail, the estimate and the report metadata (stage
seconds, samples/s, workers, blocks, the stream generator, Gaussian-side
method and error, the dominant bound term, and the sampler that drew the
projections -- coordinates, class sums, column bins or value bins -- with
the number of class sums or bins per sample).
All CSV output starts with a ``# schema=1`` line and renders floats at 17
significant digits, so identical configurations reproduce byte-identical
files.  Exit codes: 0 success/pass, 1 bound violation, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds as bounds_mod
from . import empirics, sources
from .directions import DirectionSet, hypercube_directions, random_orthonormal
from .errors import ConfigError, ProjcltError
from .testfuncs import TestFunction, bump_testfn, cosine_testfn

SCHEMA_LINE = "# schema=1"

BOUND_COLUMNS = "theorem,n,k,lambda,term_fourth,term_third,term_mixed,total,min_branch"
VERIFY_COLUMNS = "digest,theorem,n,k,samples,estimate,ci,bound,pass"
SCAN_COLUMNS = VERIFY_COLUMNS + ",lambda,term_fourth,term_third,term_mixed,min_branch"
MOMENTS_COLUMNS = "model,abs3,fourth,mixed_4,mixed_var"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv(header: str, rows: list[list]) -> str:
    lines = [SCHEMA_LINE, header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Configuration

def _number(value, name: str) -> float:
    # JSON true is a Python int, and float(True) is 1.0.
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc


def _is_count(value) -> bool:
    """An integer, and not a boolean (JSON true is a Python int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _open_path(action, path, name: str, what: str):
    """action(path) for a config path, with a bad path as a configuration error."""
    if not isinstance(path, str) or not path:
        raise ConfigError(f"{name} must be a non-empty path string, got {path!r}")
    try:
        return action(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot open {what} {path!r}: {exc.strerror}") from exc


def _numbers(value, name: str) -> np.ndarray:
    if not isinstance(value, list) or any(isinstance(v, bool) for v in value):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}") from exc


@contextlib.contextmanager
def _config_errors(where: str = ""):
    """Re-raise a library error inside the block as a configuration error
    about ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except ProjcltError as exc:
        raise ConfigError(f"{where}{exc}") from exc


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment, built and checked in a single pass.

    ``raw`` is the effective JSON object: the file's, with any override
    but ``output`` merged in, and ``digest`` fingerprints it, with the
    sha256 of a direction or population file's bytes in place of its
    path (:func:`_fingerprint`).  ``ds``,
    ``model``, ``g`` and ``constants`` are built from it once; ``theorem``
    is a name, or a list of names for ``bound``.
    """

    raw: dict
    ds: DirectionSet
    model: sources.Model
    g: TestFunction
    theorem: object
    samples: int
    seed: int
    constants: bounds_mod.ExchangeableConstants
    output: Optional[str]
    digest: str

    @classmethod
    def from_dict(cls, raw: dict, output: Optional[str] = None,
                  **overrides) -> "ExperimentConfig":
        """The experiment of ``raw`` with ``overrides`` (top-level keys; None
        keeps the object's value) merged in.  ``output`` replaces the output
        path without entering the digest."""
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        raw = {**raw, **{key: v for key, v in overrides.items() if v is not None}}
        unknown = set(raw) - {"model", "directions", "test_function", "theorem", "samples",
                              "seed", "constants", "pair", "pair_samples", "output"}
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        for key in ("model", "directions", "test_function"):
            if not isinstance(raw.get(key), dict):
                raise ConfigError(f"configuration needs a {key!r} object")
        theorem = raw.get("theorem", "T2")
        names = theorem if isinstance(theorem, list) else [theorem]
        if not names:
            raise ConfigError("theorem must be a name or a non-empty list of names")
        samples = raw.get("samples", 100_000)
        if not _is_count(samples) or samples < 1:
            raise ConfigError(f"samples must be a positive integer, got {samples!r}")
        seed = raw.get("seed", 0)
        if not _is_count(seed) or not 0 <= seed < sources.SEED_LIMIT:
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        # pair and pair_samples change no output: the model fixes the pair,
        # and the abstract bound samples no state.  They stay checked keys
        # so that configs that set them still load and keep their digests.
        pair_samples = raw.get("pair_samples", 2000)
        if not _is_count(pair_samples) or pair_samples < 1:
            raise ConfigError(f"pair_samples must be a positive integer, got {pair_samples!r}")
        output = raw.get("output") if output is None else output
        if output is not None and not isinstance(output, str):
            raise ConfigError(f"output must be a path string, got {output!r}")
        constants = _constants(raw.get("constants", {}))

        ds = build_directions(raw["directions"])
        model = build_model(raw["model"], ds.n)
        family = sources.family(model)
        pair = bounds_mod.pair_for(family)
        if raw.get("pair") not in (None, pair):
            raise ConfigError(f"pair must be {pair!r}, the pair of a model of family "
                              f"{family}, got {raw['pair']!r}")
        for name in names:
            with _config_errors():
                bounds_mod.theorem_spec(name, ds, model)
        g = build_test_function(raw["test_function"], ds.k)
        digest = hashlib.sha256(
            json.dumps(_fingerprint(raw), sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()[:12]
        return cls(raw=raw, ds=ds, model=model, g=g, theorem=theorem, samples=samples,
                   seed=seed, constants=constants, output=output, digest=digest)

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        try:
            raw = json.loads(_open_path(lambda p: Path(p).read_text(), path, "config",
                                        "configuration file"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
        return cls.from_dict(raw, **overrides)


def _fingerprint(raw: dict) -> dict:
    """``raw`` with the path of a direction file (``directions.path``) or
    population file (``model.population_file``) replaced by the sha256 of
    the file's bytes, so that the digest follows the rows, not where they
    are kept.  A configuration without files is returned as it is."""
    out = dict(raw)
    for part, key, what in (("directions", "path", "direction file"),
                            ("model", "population_file", "population file")):
        spec = raw[part]
        if key in spec:
            data = _open_path(lambda p: Path(p).read_bytes(), spec[key], f"{part}.{key}", what)
            out[part] = {**spec, key: "sha256:" + hashlib.sha256(data).hexdigest()}
    return out


# --------------------------------------------------------------------------
# Builders: each checks its own part of the configuration

def _check_keys(spec: dict, read: tuple, where: str) -> None:
    """Refuse the keys of the object ``spec`` at ``where`` outside ``read``."""
    unknown = [f"{where}.{key}" for key in spec if key not in read]
    if unknown:
        kind = f" of kind {spec['kind']}" if "kind" in read else ""
        raise ConfigError(f"unknown configuration key {', '.join(unknown)} "
                          f"({where}{kind} reads {', '.join(read)})")


def _constants(spec) -> bounds_mod.ExchangeableConstants:
    if not isinstance(spec, dict):
        raise ConfigError("constants must be an object with keys a, b, c")
    _check_keys(spec, ("a", "b", "c"), "constants")
    base = bounds_mod.DEFAULT_EXCHANGEABLE_CONSTANTS
    with _config_errors():
        return bounds_mod.ExchangeableConstants(
            **{key: _number(spec.get(key, getattr(base, key)), f"constants.{key}")
               for key in ("a", "b", "c")})


def build_directions(spec: dict) -> DirectionSet:
    kind = spec.get("kind")
    if kind not in ("hypercube", "random", "file"):
        raise ConfigError(f"directions.kind must be hypercube|random|file, got {kind!r}")
    _check_keys(spec, {"hypercube": ("kind", "n", "k", "centered"),
                       "random": ("kind", "n", "k", "centered", "seed"),
                       "file": ("kind", "path")}[kind], "directions")
    centered = spec.get("centered", False)
    if not isinstance(centered, bool):
        raise ConfigError(f"directions.centered must be true or false, got {centered!r}")
    if kind != "file":
        for key in ("n", "k"):
            if not _is_count(spec.get(key)) or spec[key] < 1:
                raise ConfigError(f"directions.{key} must be a positive integer")
    seed = spec.get("seed", 0)
    if kind == "random" and (not _is_count(seed) or seed < 0):
        raise ConfigError(f"directions.seed must be a non-negative integer, got {seed!r}")
    with _config_errors("directions: "):
        if kind == "hypercube":
            return hypercube_directions(spec["n"], spec["k"], centered=centered)
        if kind == "random":
            return random_orthonormal(spec["n"], spec["k"], seed=seed, centered=centered)
        return _open_path(DirectionSet.load, spec.get("path"), "directions.path",
                          "direction file")


def _catalog_law(spec, where: str) -> Optional[sources.IIDModel]:
    """The law of a catalog law object, or None if ``spec`` is not one."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in sources.CATALOG:
        return None
    _check_keys(spec, ("kind", "p") if kind == "two_point" else ("kind",), where)
    if kind == "two_point" and "p" in spec:
        return sources.two_point(_number(spec["p"], f"{where}.p"))
    return sources.CATALOG[kind]()


def build_model(spec: dict, n: int) -> sources.Model:
    kind = spec.get("kind")
    with _config_errors("model: "):
        law = _catalog_law(spec, "model")
        if law is not None:
            return sources.iid(law, n)
        if kind == sources.INDEPENDENT:
            _check_keys(spec, ("kind", "pattern"), "model")
            pattern = spec.get("pattern")
            if not isinstance(pattern, list) or not pattern:
                raise ConfigError("independent model needs a non-empty 'pattern' list")
            laws, keys = {}, []
            for entry in pattern:
                law = _catalog_law(entry, "model.pattern")
                if law is None:
                    raise ConfigError("independent pattern entries must be catalog law "
                                      f"objects, got {entry!r}")
                keys.append(json.dumps(entry, sort_keys=True))
                laws.setdefault(keys[-1], law)
            # One law per distinct entry (as canonical JSON) among the first n, in
            # order of first appearance: the sampler and class sums group by law.
            used = list(dict.fromkeys(keys[:n]))
            index = np.resize([used.index(key) for key in keys[:n]], n)
            return sources.IndependentModel(tuple(laws[key] for key in used), index)
        if kind == sources.EXCHANGEABLE:
            return sources.ExchangeableModel(population=_population(spec, n))
    raise ConfigError(f"unknown model kind {kind!r}")


def _population(spec: dict, n: int) -> np.ndarray:
    _check_keys(spec, ("kind", "population", "population_file", "family"), "model")
    given = sum(key in spec for key in ("population", "population_file", "family"))
    if given != 1:
        raise ConfigError(
            "exchangeable model needs exactly one of population, population_file, family"
        )
    if "population" in spec:
        pop = sources.standardize_population(_numbers(spec["population"], "model.population"))
    elif "population_file" in spec:
        pop = _open_path(sources.load_population, spec["population_file"],
                         "model.population_file", "population file")
    else:
        family = spec["family"]
        if family == "ramp":
            pop = sources.standardize_population(np.arange(1.0, n + 1.0))
        elif family == "alternating":
            if n % 2:
                raise ConfigError("alternating population needs even n")
            pop = np.tile([-1.0, 1.0], n // 2)
        else:
            raise ConfigError(f"unknown population family {family!r}")
    if pop.size != n:
        raise ConfigError(f"population has {pop.size} values but directions have n={n}")
    return pop


def build_test_function(spec: dict, k: int) -> TestFunction:
    kind = spec.get("kind")
    if kind not in ("cosine", "bump"):
        raise ConfigError(f"test_function.kind must be cosine|bump, got {kind!r}")
    _check_keys(spec, ("kind", "radius") if kind == "bump" else ("kind", "a", "phase"),
                "test_function")
    with _config_errors("test_function: "):
        if kind == "bump":
            return bump_testfn(_number(spec.get("radius", 2.0), "test_function.radius"), k)
        a = spec.get("a", "ones-normalized")
        if isinstance(a, str):
            if a != "ones-normalized":
                raise ConfigError(f"unknown cosine direction token {a!r}")
            vec = np.full(k, 1.0 / math.sqrt(k))
        else:
            vec = _numbers(a, "test_function.a")
            if vec.shape != (k,):
                raise ConfigError(
                    f"cosine direction has length {vec.size}, directions have k={k}"
                )
        return cosine_testfn(vec, phase=_number(spec.get("phase", 0.0), "test_function.phase"))


# --------------------------------------------------------------------------
# Commands

def _emit(text: str, output: Optional[str]) -> None:
    if output:
        _open_path(lambda path: Path(path).write_text(text), output, "output", "output file")
    else:
        sys.stdout.write(text)


def _bound_row(report: bounds_mod.BoundReport) -> list:
    return [
        report.theorem, report.n, report.k, report.lam,
        report.term_fourth, report.term_third, report.term_mixed, report.total,
        report.min_branch or "",
    ]


def _verify_row(rep: empirics.VerificationReport, digest: str) -> list:
    br = rep.bound_report
    return [
        digest, br.theorem, br.n, br.k, rep.estimate.samples,
        rep.estimate.discrepancy, rep.estimate.ci_halfwidth, rep.bound_total, rep.passed,
    ]


def cmd_bound(cfg: ExperimentConfig) -> int:
    rows = []
    for theorem in cfg.theorem if isinstance(cfg.theorem, list) else [cfg.theorem]:
        report = bounds_mod.compute_bound(theorem, cfg.ds, cfg.model, cfg.g,
                                          constants=cfg.constants)
        rows.append(_bound_row(report))
    _emit(_csv(BOUND_COLUMNS, rows), cfg.output)
    return 0


def _trace(rep: empirics.VerificationReport, digest: str) -> None:
    br, est = rep.bound_report, rep.estimate
    meta = dict(rep.metadata)
    record = {"theorem": br.theorem, "n": br.n, "k": br.k, "passed": rep.passed,
              "seed": meta.pop("seed"), "samples": est.samples, "mean_g": est.mean_g,
              "se": est.se, "gaussian_value": est.gaussian.value,
              "gaussian_error": est.gaussian.error, "gaussian_method": est.gaussian.method,
              "bound_scale": rep.bound_scale, "digest": digest, "workers": est.workers,
              "blocks": est.blocks, **meta, "sampler": est.sampler, "groups": est.groups}
    print(json.dumps(record), file=sys.stderr)


def _verify(cfg: ExperimentConfig, workers: Optional[int],
            bound_scale: float = 1.0) -> empirics.VerificationReport:
    if not isinstance(cfg.theorem, str):
        raise ConfigError(f"verify and scan take one theorem, got {cfg.theorem!r}")
    return empirics.verify_bound(
        cfg.theorem, cfg.ds, cfg.model, cfg.g, samples=cfg.samples, seed=cfg.seed,
        constants=cfg.constants, bound_scale=bound_scale, workers=workers)


def cmd_verify(cfg: ExperimentConfig, bound_scale: float = 1.0,
               workers: Optional[int] = None, trace: bool = False) -> int:
    rep = _verify(cfg, workers, bound_scale)
    if trace:
        _trace(rep, cfg.digest)
    _emit(_csv(VERIFY_COLUMNS, [_verify_row(rep, cfg.digest)]), cfg.output)
    return 0 if rep.passed else 1


def cmd_scan(cfg: ExperimentConfig, axis: str, values: list[int],
             workers: Optional[int] = None, trace: bool = False) -> int:
    if not values:
        raise ConfigError("scan needs a non-empty list of axis values")
    directions = cfg.raw["directions"]
    if directions["kind"] == "file":
        raise ConfigError("scan cannot vary file-based directions")
    if axis == "k" and not isinstance(cfg.raw["test_function"].get("a", "ones-normalized"), str):
        raise ConfigError("scanning k needs an adaptive cosine direction (a='ones-normalized')")
    rows = []
    all_pass = True
    for value in values:
        # Each cell is the configuration with the axis value and a seed of its own.
        cell = ExperimentConfig.from_dict(
            cfg.raw, directions={**directions, axis: value},
            seed=sources.derived_seed(cfg.seed, value) & 0x7FFFFFFFFFFFFFFF)
        rep = _verify(cell, workers)
        if trace:
            _trace(rep, cell.digest)
        all_pass &= rep.passed
        br = rep.bound_report
        rows.append(
            _verify_row(rep, cell.digest)
            + [br.lam, br.term_fourth, br.term_third, br.term_mixed, br.min_branch or ""]
        )
    _emit(_csv(SCAN_COLUMNS, rows), cfg.output)
    return 0 if all_pass else 1


def cmd_moments(cfg: ExperimentConfig) -> int:
    m = sources.moment_summary(cfg.model)
    # An i.i.d. pattern's row is that of its one law.
    spec = cfg.raw["model"]
    if sources.family(cfg.model) == sources.IID:
        spec = spec.get("pattern", [spec])[0]
    row = [spec["kind"], m.abs3, m.fourth, m.mixed_4, m.mixed_var]
    _emit(_csv(MOMENTS_COLUMNS, [row]), cfg.output)
    return 0


# --------------------------------------------------------------------------
# Entry point

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parser can parse
    any number of argument lists, and building one costs about a
    millisecond."""
    parser = argparse.ArgumentParser(
        prog="projclt",
        description="Gaussian-approximation error bounds for projections, with Monte Carlo verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sampled = ("seed", "samples", "theorem")
    for name, overrides, help_text in [
        ("bound", ("theorem",), "evaluate the configured bound(s)"),
        ("verify", sampled, "compare the Monte Carlo discrepancy against the bound"),
        ("scan", sampled, "sweep n or k and verify each cell"),
        ("moments", (), "print the moment constants of the configured model"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the JSON experiment configuration")
        for key in overrides:
            p.add_argument(f"--{key}", type=str if key == "theorem" else int, default=None)
        p.add_argument("--output", type=str, default=None)
        if name in ("verify", "scan"):
            p.add_argument("--workers", type=int, default=None)
            p.add_argument("--trace", action="store_true",
                           help="write one JSON object per run or scan cell to stderr")
        if name == "verify":
            p.add_argument(
                "--shrink-bound", type=float, default=1.0,
                help="multiply the bound by this factor before comparing (negative control)",
            )
        if name == "scan":
            p.add_argument("--axis", choices=("n", "k"), required=True)
            p.add_argument("--values", type=str, required=True,
                           help="comma-separated axis values")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Each command's parser defines only the overrides the command reads.
        cfg = ExperimentConfig.from_file(args.config, **{
            key: getattr(args, key, None) for key in ("seed", "samples", "theorem", "output")})
        workers = getattr(args, "workers", None)
        if workers is not None and workers < 1:
            raise ConfigError(f"--workers must be a positive integer, got {workers}")
        shrink = getattr(args, "shrink_bound", 1.0)
        if not (math.isfinite(shrink) and shrink >= 0.0):
            raise ConfigError(f"--shrink-bound must be a finite number >= 0, got {shrink}")
        if args.command == "verify":
            return cmd_verify(cfg, bound_scale=args.shrink_bound, workers=workers,
                              trace=args.trace)
        if args.command == "scan":
            try:
                values = [int(tok) for tok in args.values.split(",") if tok.strip()]
            except ValueError as exc:
                raise ConfigError(f"scan values must be integers: {args.values!r}") from exc
            return cmd_scan(cfg, args.axis, values, workers=workers, trace=args.trace)
        return {"bound": cmd_bound, "moments": cmd_moments}[args.command](cfg)
    except ProjcltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
