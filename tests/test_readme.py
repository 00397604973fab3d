"""The README's Python blocks run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_python_blocks_run():
    """Every fenced python block runs, in order, in one namespace; the quick
    start prints the slice-0 anisotropy ratio, which the README says lies far
    above 1."""
    blocks = python_blocks(README.read_text())
    assert blocks
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert float(out.getvalue().split()[-1]) > 1.0
