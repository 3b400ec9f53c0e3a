"""The README's "Library tour" code block runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_tour(), str(README), "exec"), {})
    total, fourth, third, passed = out.getvalue().split()
    assert float(total) == float(fourth) + float(third) > 0
    assert passed == "True"
