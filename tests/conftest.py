import sys

import numpy as np

from projclt import sources
from projclt.sources import IndependentModel


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Render one line per acceptance criterion after the run."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, status, seconds in sorted(results):
        terminalreporter.write_line(f"criterion {num:2d} ({name}): {status} [{seconds:.1f}s]")


def sample_block(model, seed, start, count):
    """(count, n) float32 draws for sample indices start..start+count-1: the
    tiles of :func:`projclt.sources.sample_tiles`, concatenated."""
    return np.concatenate(list(sources.sample_tiles(model, seed, start, count)))


def pattern(laws, n):
    """The independent model of n coordinates whose coordinate r draws
    laws[r % len(laws)], as a configured pattern tiles them."""
    return IndependentModel(tuple(laws), np.arange(n) % len(laws))
