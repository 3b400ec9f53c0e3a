"""Configuration-driven command line for bounds, verification, and sweeps.

Commands
--------
bound    evaluate the selected bound(s), one CSV row per theorem
verify   Monte Carlo discrepancy vs. bound; exit 0 on pass, 1 on violation
scan     sweep n or k, emitting one verification row (with the bound
         decomposition) per value
check    run the invariant diagnostics of the configured directions and model
moments  print the moment constants of the configured model

The experiment configuration is a single JSON file; a command takes only
the overrides it reads: ``--output`` (all), ``--theorem`` (bound, verify,
scan), ``--seed`` (verify, scan, check) and ``--samples`` (verify, scan).
``verify`` and ``scan`` take ``--workers N`` (N >= 1; wall time only) and
``--trace``, which writes one JSON object per run or scan cell to stderr:
theorem, n, k, pass/fail and the report metadata (stage seconds,
samples/s, workers, blocks, tile rows, the stream generator,
Gaussian-side method and error, and the dominant bound term).
All CSV output starts with a ``# schema=1`` line and renders floats at 17
significant digits, so identical configurations reproduce byte-identical
files.  Exit codes: 0 success/pass, 1 bound or invariant violation, 2
configuration error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
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
MOMENTS_COLUMNS = "model,abs3,fourth,abs3_max,fourth_max,mixed_4,mixed_var"


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
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus its canonical digest."""

    model: dict
    directions: dict
    test_function: dict
    theorem: object  # str or list[str]
    samples: int
    seed: int
    constants: dict
    pair: Optional[str]
    pair_samples: int
    output: Optional[str]
    digest: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        known = {
            "model", "directions", "test_function", "theorem", "samples",
            "seed", "constants", "pair", "pair_samples", "output",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        for key in ("model", "directions", "test_function"):
            if key not in raw or not isinstance(raw[key], dict):
                raise ConfigError(f"configuration needs a {key!r} object")
        samples = raw.get("samples", 100_000)
        if not _is_count(samples) or samples < 1:
            raise ConfigError(f"samples must be a positive integer, got {samples!r}")
        constants = raw.get("constants", {})
        if not isinstance(constants, dict):
            raise ConfigError("constants must be an object with keys a, b, c")
        pair = raw.get("pair")
        if pair is not None and pair not in empirics.PAIR_KINDS:
            raise ConfigError(f"pair must be one of {empirics.PAIR_KINDS}, got {pair!r}")
        # pair_samples changes no output (the abstract bound samples no
        # state).  It stays a validated key so that configs that set it
        # still load and keep their digests.
        pair_samples = raw.get("pair_samples", 2000)
        digest = hashlib.sha256(
            json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()[:12]
        cfg = cls(
            model=raw["model"],
            directions=raw["directions"],
            test_function=raw["test_function"],
            theorem=raw.get("theorem", "T2"),
            samples=samples,
            seed=raw.get("seed", 0),
            constants=constants,
            pair=pair,
            pair_samples=pair_samples,
            output=raw.get("output"),
            digest=digest,
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            raw = json.loads(_open_path(lambda p: Path(p).read_text(), path, "config",
                                        "configuration file"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def theorems(self) -> list[str]:
        names = self.theorem if isinstance(self.theorem, list) else [self.theorem]
        if not names:
            raise ConfigError("theorem must be a name or a non-empty list of names")
        return names

    def validate(self) -> None:
        names = self.theorems()
        if not _is_count(self.seed) or not 0 <= self.seed < sources.SEED_LIMIT:
            raise ConfigError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        dirs = self.directions
        dkind = dirs.get("kind")
        if dkind not in ("hypercube", "random", "file"):
            raise ConfigError(f"directions.kind must be hypercube|random|file, got {dkind!r}")
        if dkind != "file":
            for key in ("n", "k"):
                val = dirs.get(key)
                if not _is_count(val) or val < 1:
                    raise ConfigError(f"directions.{key} must be a positive integer")
        if dkind == "random":
            dseed = dirs.get("seed", 0)
            if not _is_count(dseed) or dseed < 0:
                raise ConfigError(f"directions.seed must be a non-negative integer, got {dseed!r}")
        if not _is_count(self.pair_samples) or self.pair_samples < 1:
            raise ConfigError(
                f"pair_samples must be a positive integer, got {self.pair_samples!r}"
            )
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError(f"output must be a path string, got {self.output!r}")
        mkind = self.model.get("kind")
        families = (sources.INDEPENDENT, sources.EXCHANGEABLE)
        if mkind not in (*sources.CATALOG, *families):
            raise ConfigError(f"unknown model kind {mkind!r}")
        family = mkind if mkind in families else sources.IID
        for name in names:
            try:
                row = bounds_mod.theorem_spec(name, family)
            except ProjcltError as exc:
                raise ConfigError(str(exc)) from exc
            if row.centered and dkind != "file" and not dirs.get("centered", False):
                raise ConfigError(f"{name} needs centered directions (directions.centered=true)")
        tf = self.test_function
        if tf.get("kind") not in ("cosine", "bump"):
            raise ConfigError(f"test_function.kind must be cosine|bump, got {tf.get('kind')!r}")

    def exchangeable_constants(self) -> bounds_mod.ExchangeableConstants:
        base = bounds_mod.DEFAULT_EXCHANGEABLE_CONSTANTS
        try:
            return bounds_mod.ExchangeableConstants(
                a=_number(self.constants.get("a", base.a), "constants.a"),
                b=_number(self.constants.get("b", base.b), "constants.b"),
                c=_number(self.constants.get("c", base.c), "constants.c"),
            )
        except ProjcltError as exc:
            raise ConfigError(str(exc)) from exc


# --------------------------------------------------------------------------
# Builders

def build_directions(cfg: ExperimentConfig) -> DirectionSet:
    spec = cfg.directions
    kind = spec["kind"]
    try:
        if kind == "hypercube":
            return hypercube_directions(
                spec["n"], spec["k"], centered=bool(spec.get("centered", False))
            )
        if kind == "random":
            return random_orthonormal(
                spec["n"], spec["k"],
                seed=spec.get("seed", 0),
                centered=bool(spec.get("centered", False)),
            )
        return _open_path(DirectionSet.load, spec.get("path"), "directions.path",
                          "direction file")
    except ConfigError:
        raise
    except ProjcltError as exc:
        raise ConfigError(f"directions: {exc}") from exc


def _catalog_law(spec: dict, where: str) -> sources.IIDModel:
    if spec["kind"] == "two_point" and "p" in spec:
        return sources.two_point(_number(spec["p"], f"{where}.p"))
    return sources.CATALOG[spec["kind"]]()


def build_model(cfg: ExperimentConfig, n: int) -> sources.Model:
    spec = cfg.model
    kind = spec["kind"]
    try:
        if kind in sources.CATALOG:
            return _catalog_law(spec, "model")
        if kind == "independent":
            pattern = spec.get("pattern")
            if not isinstance(pattern, list) or not pattern:
                raise ConfigError("independent model needs a non-empty 'pattern' list")
            coords = []
            for entry in pattern:
                if not isinstance(entry, dict) or entry.get("kind") not in sources.CATALOG:
                    raise ConfigError(
                        f"independent pattern entries must be catalog law objects, got {entry!r}"
                    )
                coords.append(_catalog_law(entry, "model.pattern"))
            tiled = [coords[i % len(coords)] for i in range(n)]
            return sources.IndependentModel(coords=tuple(tiled))
        if kind == "exchangeable":
            return sources.ExchangeableModel(population=_population(spec, n))
        raise ConfigError(f"model kind {kind!r} cannot be built from configuration")
    except ConfigError:
        raise
    except ProjcltError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _population(spec: dict, n: int) -> np.ndarray:
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


def build_test_function(cfg: ExperimentConfig, k: int) -> TestFunction:
    spec = cfg.test_function
    try:
        if spec["kind"] == "cosine":
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
        return bump_testfn(_number(spec.get("radius", 2.0), "test_function.radius"), k)
    except ConfigError:
        raise
    except ProjcltError as exc:
        raise ConfigError(f"test_function: {exc}") from exc


def build_task(cfg: ExperimentConfig, theorem: str, bound_scale: float = 1.0,
               workers: Optional[int] = None) -> empirics.VerificationTask:
    ds = build_directions(cfg)
    model = build_model(cfg, ds.n)
    g = build_test_function(cfg, ds.k)
    return empirics.VerificationTask(
        ds=ds,
        model=model,
        g=g,
        theorem=theorem,
        samples=cfg.samples,
        seed=cfg.seed,
        constants=cfg.exchangeable_constants(),
        pair_kind=cfg.pair,
        bound_scale=bound_scale,
        digest=cfg.digest,
        workers=workers,
    )


# --------------------------------------------------------------------------
# Commands

def _emit(text: str, output: Optional[str]) -> None:
    if output:
        _open_path(lambda path: Path(path).write_text(text), output, "output", "output file")
    else:
        sys.stdout.write(text)


def _bound_row(report: bounds_mod.BoundReport) -> list:
    echo = report.inputs_echo
    return [
        report.theorem, echo.get("n"), echo.get("k"), echo.get("lambda"),
        report.term_fourth, report.term_third, report.term_mixed, report.total,
        report.min_branch or "",
    ]


def _verify_row(rep: empirics.VerificationReport) -> list:
    return [
        rep.digest, rep.theorem, rep.n, rep.k, rep.samples,
        rep.discrepancy_estimate, rep.ci_halfwidth, rep.bound_total, rep.passed,
    ]


def cmd_bound(cfg: ExperimentConfig) -> int:
    ds = build_directions(cfg)
    model = build_model(cfg, ds.n)
    g = build_test_function(cfg, ds.k)
    rows = []
    for theorem in cfg.theorems():
        report = empirics.compute_bound(
            theorem, ds, model, g,
            constants=cfg.exchangeable_constants(), pair_kind=cfg.pair,
        )
        rows.append(_bound_row(report))
    _emit(_csv(BOUND_COLUMNS, rows), cfg.output)
    return 0


def _trace(rep: empirics.VerificationReport) -> None:
    record = {"theorem": rep.theorem, "n": rep.n, "k": rep.k, "passed": rep.passed,
              **rep.metadata}
    print(json.dumps(record), file=sys.stderr)


def cmd_verify(cfg: ExperimentConfig, bound_scale: float = 1.0,
               workers: Optional[int] = None, trace: bool = False) -> int:
    theorem = cfg.theorems()[0]
    task = build_task(cfg, theorem, bound_scale=bound_scale, workers=workers)
    rep = empirics.verify_bound(task)
    if trace:
        _trace(rep)
    _emit(_csv(VERIFY_COLUMNS, [_verify_row(rep)]), cfg.output)
    return 0 if rep.passed else 1


def _scan_config(cfg: ExperimentConfig, axis: str, value: int) -> ExperimentConfig:
    dirs = dict(cfg.directions)
    dirs[axis] = value
    if dirs.get("kind") == "file":
        raise ConfigError("scan cannot vary file-based directions")
    raw = {
        "model": cfg.model,
        "directions": dirs,
        "test_function": cfg.test_function,
        "theorem": cfg.theorems()[0],
        "samples": cfg.samples,
        "seed": sources.derived_seed(cfg.seed, value) & 0x7FFFFFFFFFFFFFFF,
        "constants": cfg.constants,
        "pair_samples": cfg.pair_samples,
    }
    if cfg.pair is not None:
        raw["pair"] = cfg.pair
    return ExperimentConfig.from_dict(raw)


def cmd_scan(cfg: ExperimentConfig, axis: str, values: list[int],
             workers: Optional[int] = None, trace: bool = False) -> int:
    if axis not in ("n", "k"):
        raise ConfigError(f"scan axis must be 'n' or 'k', got {axis!r}")
    if not values:
        raise ConfigError("scan needs a non-empty list of axis values")
    if axis == "k" and not isinstance(cfg.test_function.get("a", "ones-normalized"), str):
        raise ConfigError("scanning k needs an adaptive cosine direction (a='ones-normalized')")
    rows = []
    all_pass = True
    for value in values:
        cell = _scan_config(cfg, axis, value)
        task = build_task(cell, cell.theorems()[0], workers=workers)
        rep = empirics.verify_bound(task)
        if trace:
            _trace(rep)
        all_pass &= rep.passed
        br = rep.bound_report
        rows.append(
            _verify_row(rep)
            + [br.inputs_echo.get("lambda"), br.term_fourth, br.term_third,
               br.term_mixed, br.min_branch or ""]
        )
    _emit(_csv(SCAN_COLUMNS, rows), cfg.output)
    return 0 if all_pass else 1


def cmd_moments(cfg: ExperimentConfig) -> int:
    ds_spec = cfg.directions
    n = ds_spec.get("n")
    if n is None:
        n = build_directions(cfg).n
    model = build_model(cfg, n)
    m = sources.moment_summary(model)
    name = cfg.model.get("kind")
    row = [name, m.abs3, m.fourth, m.abs3_max, m.fourth_max, m.mixed_4, m.mixed_var]
    _emit(_csv(MOMENTS_COLUMNS, [row]), cfg.output)
    return 0


def cmd_check(cfg: ExperimentConfig) -> int:
    """Invariant diagnostics for the configured directions and model: the
    shrinkage identity of the matching pair on sampled states and, for
    i.i.d. and independent models, the third and fourth moments of each
    law's draws against the declared values."""
    lines = []
    failed = False

    def record(name: str, ok: bool, detail: str) -> None:
        nonlocal failed
        failed |= not ok
        lines.append(f"check {name}: {'ok' if ok else 'FAIL'} ({detail})")

    ds = build_directions(cfg)
    model = build_model(cfg, ds.n)

    pair_kind = empirics.default_pair(model)
    resid = empirics.conditional_linearity_check(ds, model, pair_kind, trials=200, seed=cfg.seed)
    record("linearity", resid <= 1e-10, f"max residual {resid:.3e}, pair={pair_kind}")

    if not isinstance(model, sources.ExchangeableModel):
        # Every distinct law of an independent pattern, in order of first appearance.
        coords = model.coords if isinstance(model, sources.IndependentModel) else (model,)
        for law in {c.name: c for c in coords}.values():
            m = sources.iid_moments(law)
            # 200,000 draws as 3,125 rows of 64: the stream words of 200,000 rows of
            # one, in the same order, in 64 times fewer tiles.
            draws = sources.sample_block(law, cfg.seed, 0, 3125, n=64).ravel().astype(np.float64)
            est3 = float(np.mean(np.abs(draws) ** 3))
            se3 = float(np.std(np.abs(draws) ** 3, ddof=1) / math.sqrt(draws.size))
            est4 = float(np.mean(draws**4))
            se4 = float(np.std(draws**4, ddof=1) / math.sqrt(draws.size))
            ok = abs(est3 - m.abs3) <= 5 * se3 + 1e-9 and abs(est4 - m.fourth) <= 5 * se4 + 1e-9
            record(f"moments {law.name}", ok,
                   f"abs3 {est3:.5f} vs {m.abs3:.5f}, fourth {est4:.5f} vs {m.fourth:.5f}")

    text = "\n".join(lines) + "\n"
    _emit(text, cfg.output)
    return 1 if failed else 0


# --------------------------------------------------------------------------
# Entry point

def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    # Each command's parser defines only the overrides the command reads.
    updates = {key: getattr(args, key) for key in ("seed", "samples", "output", "theorem")
               if getattr(args, key, None) is not None}
    if not updates:
        return cfg
    cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


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
        ("check", ("seed",), "run invariant diagnostics"),
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
        cfg = _apply_overrides(ExperimentConfig.from_file(args.config), args)
        workers = getattr(args, "workers", None)
        if workers is not None and workers < 1:
            raise ConfigError(f"--workers must be a positive integer, got {workers}")
        shrink = getattr(args, "shrink_bound", 1.0)
        if not (math.isfinite(shrink) and shrink >= 0.0):
            raise ConfigError(f"--shrink-bound must be a finite number >= 0, got {shrink}")
        if args.command == "bound":
            return cmd_bound(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, bound_scale=args.shrink_bound, workers=workers,
                              trace=args.trace)
        if args.command == "scan":
            try:
                values = [int(tok) for tok in args.values.split(",") if tok.strip()]
            except ValueError as exc:
                raise ConfigError(f"scan values must be integers: {args.values!r}") from exc
            return cmd_scan(cfg, args.axis, values, workers=workers, trace=args.trace)
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "moments":
            return cmd_moments(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ProjcltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
