"""Benchmark of the projclt command line: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload verify-iid --seed 1 --seconds 30 --trace 0

The run imports ``projclt`` from ``src/`` of the checkout it sits in,
writes the workload's configs from ``--seed``, makes one small warm-up
call, and then repeats passes over the workload's operation list for
``--seconds`` seconds.  It is a closed loop with one caller: each
``projclt.cli.main`` call starts after the previous one returns.  Every
CSV is checked against the exact references in ``oracle.py``, hashed, and
compared with the same operation's CSV from every other pass.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes traced by ``tracing.py`` and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  Details (machine facts, per-pass
times, CSV digests, failures, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The run's own set-up plus six in fresh processes, spread over the run so
# that they sample the machine's slow drifts as the passes do; setup_s is
# their median.
SETUP_REPEATS = 7

END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_per_s"):
        return name.rsplit(".", 1)[1][: -len("_per_s")] + "/s"
    if name.endswith(".bytes_computed"):
        return "B"
    if name.endswith(".gbps_computed"):
        return "GB/s"
    if name.endswith(".concurrency") or name.startswith("self_share."):
        return "ratio"
    return "s"


# --------------------------------------------------------------------------
# Set-up

def set_up(name: str, seed: int, smoke: bool, work: Path):
    """Cold import, config writing and one small warm-up call, timed."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import projclt
    from projclt import cli

    if Path(projclt.__file__).resolve().parent != SRC / "projclt":
        raise RuntimeError(f"imported projclt from {projclt.__file__}, not from {SRC}")
    wl = workloads.build(name, seed, smoke)
    paths = {}
    for cname, cfg in [*wl.configs.items(), ("warmup", wl.warmup)]:
        paths[cname] = work / f"{cname}.json"
        paths[cname].write_text(json.dumps(cfg, sort_keys=True))
    code = cli.main([wl.warmup_command, str(paths["warmup"]),
                     "--output", str(work / "warmup.csv")])
    if code != 0:
        raise RuntimeError(f"warm-up call exited with {code}")
    return cli, wl, paths, time.perf_counter() - start


def probe_set_up(name: str, seed: int, smoke: bool) -> float:
    """set_up in a fresh interpreter, so that the import is cold."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# --------------------------------------------------------------------------
# Passes

class Ledger:
    """Attempted and failed operations, and the CSV digest each op must keep."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.csv: dict[str, str] = {}
        self.op_s: dict[str, list[float]] = {}


def run_op(cli, op, paths, work: Path):
    out = work / f"{op.name}.csv"
    out.unlink(missing_ok=True)
    argv = [op.command, str(paths[op.config]), *op.flags, "--output", str(out)]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return time.perf_counter() - start, None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if not out.is_file():
        return elapsed, None, f"exit code {code} and no CSV written"
    return elapsed, code, out.read_text()


def run_pass(cli, wl, paths, work: Path, refs: dict, ledger: Ledger, oracle,
             tracer=None) -> float:
    """One pass over the op list; returns the summed time of the CLI calls."""
    wall = 0.0
    this_pass = {}
    for op in wl.ops:
        if tracer is not None:
            tracer.op = op.name
        elapsed, code, text = run_op(cli, op, paths, work)
        wall += elapsed
        ledger.attempted += 1
        ledger.op_s.setdefault(op.name, []).append(elapsed)
        try:
            if code is None:
                raise oracle.CheckError(text)
            oracle.check(op.check, wl.configs[op.config], text, code, refs[op.config])
            digest = hashlib.sha256(text.encode()).hexdigest()
            if ledger.digests.setdefault(op.name, digest) != digest:
                raise oracle.CheckError("CSV differs from the same op in an earlier pass")
            if op.same_as and this_pass.get(op.same_as) != digest:
                raise oracle.CheckError(f"CSV differs from {op.same_as}")
            this_pass[op.name] = digest
            ledger.csv[op.name] = text
        except oracle.CheckError as exc:
            ledger.failures.append(f"{op.name}: {exc}")
    return wall


# --------------------------------------------------------------------------
# Machine facts

def _blas_threads():
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _caches() -> dict:
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    caches = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            caches[parts[0]] = int(parts[1])
    return caches


def machine_facts() -> dict:
    """Observed only: the benchmark sets no thread or BLAS variable."""
    import numpy
    from projclt import empirics

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = _caches()
    block = getattr(empirics, "_BLOCK", None)
    block_bytes = {}
    if block is not None:
        for n in (1024, 4096):
            size = block * n * 4
            block_bytes[str(n)] = {
                "bytes_computed": size,
                "vs_l2": size / caches["LEVEL2_CACHE_SIZE"] if caches.get("LEVEL2_CACHE_SIZE") else None,
                "vs_l3": size / caches["LEVEL3_CACHE_SIZE"] if caches.get("LEVEL3_CACHE_SIZE") else None,
            }
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "caches": caches,
        "sample_block": {"rows": block, "float32_bytes_by_n": block_bytes},
    }


# --------------------------------------------------------------------------
# Entry point

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sample counts, for the benchmark's own test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _metric_lines(metrics: dict) -> list[str]:
    return [f"{name:52s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]


def measure(args, work: Path) -> tuple[dict, list]:
    cli, wl, paths, own_setup = set_up(args.workload, args.seed, args.smoke, work)
    setups = [own_setup]

    import oracle
    import tracing

    refs = {op.config: oracle.reference(op.check, wl.configs[op.config]) for op in wl.ops}
    ledger = Ledger()
    untraced, traced, per_pass_layers, spans, absent = [], [], [], [], []
    start = time.perf_counter()
    probe_at = [] if args.trace else [
        start + args.seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)]
    while True:
        untraced.append(run_pass(cli, wl, paths, work, refs, ledger, oracle))
        if args.trace:
            with tracing.Tracer() as tracer:
                wall = run_pass(cli, wl, paths, work, refs, ledger, oracle, tracer)
            traced.append(wall)
            per_pass_layers.append(tracing.pass_metrics(tracer.spans, wall))
            spans.extend(tracer.spans)
            absent = tracer.absent
        now = time.perf_counter()
        if probe_at and now >= probe_at[0]:
            probe_at.pop(0)
            setups.append(probe_set_up(args.workload, args.seed, args.smoke))
        if now >= start + args.seconds:
            break
    setups += [probe_set_up(args.workload, args.seed, args.smoke) for _ in probe_at]

    if args.trace:
        values = tracing.median_metrics(per_pass_layers)
        values["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "wall_s": statistics.median(untraced),
            "work_per_s": statistics.median(sum(op.work for op in wl.ops) / w
                                            for w in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_facts(),
        "ops": [{"name": op.name, "command": op.command, "config": wl.configs[op.config],
                 "flags": list(op.flags), "work": op.work, "check": op.check,
                 "reference": refs[op.config], "sha256": ledger.digests.get(op.name),
                 "csv": ledger.csv.get(op.name)} for op in wl.ops],
        "setup_s": setups,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "op_s": ledger.op_s,
        "absent_spans": absent,
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "metrics": metrics,
    }, spans


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "projclt" / "__init__.py").is_file():
        print(f"error: no projclt sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": set_up(args.workload, args.seed, args.smoke, work)[3]}))
            return 0
        result, spans = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    if spans:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s._asdict()) + "\n" for s in spans)

    failed = len(result["failures"])
    attempted = result["attempted"]
    for line in result["failures"][:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['untraced_pass_s'])}+{len(result['traced_pass_s'])}")
    print("\n".join(_metric_lines(result["metrics"])))
    print(f"{'fail_frac':52s} {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
