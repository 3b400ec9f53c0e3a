import sys

import numpy as np

from projclt import sources
from projclt.sources import (
    LAW_ROWS,
    TILE_ROWS,
    ExchangeableModel,
    IIDModel,
    IndependentModel,
    uniform,
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Render one line per acceptance criterion after the run."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, status, seconds in sorted(results):
        terminalreporter.write_line(f"criterion {num:2d} ({name}): {status} [{seconds:.1f}s]")


def law_values(law, rng, size):
    """float32 values X = a + b Y of ``law`` for ``size`` draws from ``rng``:
    its sampler's variates Y, finished in float64 and rounded once."""
    y = law.sampler(rng, size)
    return (law.a + law.b * y.astype(np.float64)).astype(np.float32)


def stream_keys(words, n, key=np.uint32):
    """The first n keys of the unsigned ``key`` type in each row of 64-bit
    stream words: 32-bit halves or 16-bit quarters, least significant
    first (all of them for n = None)."""
    bits = 8 * np.dtype(key).itemsize
    parts = (words[:, :, None] >> np.arange(0, 64, bits, dtype=np.uint64)) & np.uint64(
        (1 << bits) - 1)
    return parts.astype(key).reshape(words.shape[0], -1)[:, :n]


def sort_key_permutations(halves):
    """The permutations that tie-free rows of 32-bit half-words stand for:
    each row orders its coordinates by their half-words."""
    assert np.all(np.diff(np.sort(halves, axis=1), axis=1) > 0), "a row ties"
    return np.argsort(halves, axis=1)


def sample_block(model, seed, start, count):
    """(count, n) float32 values X for sample indices start..start+count-1,
    drawn from the (seed, start) stream in the library's order by a loop of
    its own.  Exchangeable rows take ceil(n/2) stream words, one 32-bit half
    per coordinate, and sort by those halves, TILE_ROWS rows at a time; rows
    whose halves tie are redrawn from the next words, in row order, until
    none ties, before the next tile.  A model of one law is one row-major
    sampler call per TILE_ROWS rows, as the reads of a two-point law's tied
    bytes follow each call's bytes.  Models of several laws go LAW_ROWS
    rows at a time and, within those rows, law by law in the order of
    ``laws``, one sampler call per law for all of its coordinates in index
    order.  Each law's variates are finished into X by :func:`law_values`."""
    rng = sources.stream(seed, start)
    n = model.n
    if isinstance(model, ExchangeableModel):
        tiles = []
        for lo in range(0, count, TILE_ROWS):
            halves = stream_keys(rng.bit_generator.random_raw(
                (min(TILE_ROWS, count - lo), (n + 1) // 2)), n)
            tied = np.arange(halves.shape[0])
            while tied.size:
                tied = tied[(np.diff(np.sort(halves[tied], axis=1), axis=1) == 0).any(axis=1)]
                if tied.size:
                    halves[tied] = stream_keys(
                        rng.bit_generator.random_raw((tied.size, (n + 1) // 2)), n)
            tiles.append(model.population.astype(np.float32)[sort_key_permutations(halves)])
        return np.concatenate(tiles)
    if len(model.laws) == 1:
        return np.concatenate([law_values(model.laws[0], rng, (min(TILE_ROWS, count - lo), n))
                               for lo in range(0, count, TILE_ROWS)])
    out = np.empty((count, n), dtype=np.float32)
    for lo in range(0, count, LAW_ROWS):
        rows = slice(lo, min(lo + LAW_ROWS, count))
        for j, law in enumerate(model.laws):
            index = np.flatnonzero(model.law_index == j)
            out[rows, index] = law_values(law, rng, (index.size, rows.stop - lo)).T
    return out


def uniform_law(name, **constants):
    """A user law that draws the catalog uniform's values (its sampler and
    its (a, b)) and declares only ``constants``."""
    law = uniform()
    return IIDModel(name, law.sampler, a=law.a, b=law.b, **constants)


def pattern(laws, n):
    """The independent model of n coordinates whose coordinate r draws
    laws[r % len(laws)], as a configured pattern tiles them."""
    return IndependentModel(tuple(laws), np.arange(n) % len(laws))
