"""The README's "Library tour" code block runs as written, and its
direction-file example is the form the library reads and writes."""

import contextlib
import io
import re
from pathlib import Path

from projclt.directions import DirectionSet

README = Path(__file__).resolve().parents[1] / "README.md"


def first_block(heading: str, language: str) -> str:
    """The first ```language block after ``heading`` in the README."""
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(first_block("## Library tour", "python"), str(README), "exec"), {})
    total, fourth, third, passed = out.getvalue().split()
    assert float(total) == float(fourth) + float(third) > 0
    assert passed == "True"


def test_direction_file_example_is_the_written_form():
    example = first_block("Direction files are plain text", "text")
    ds = DirectionSet.from_csv(example)
    assert (ds.n, ds.k) == (4, 2)
    assert ds.to_csv() == example
