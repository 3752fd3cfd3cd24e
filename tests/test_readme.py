"""The README's library quick start runs, and prints what its comments say."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_quick_start_runs_and_prints_its_stated_values():
    (quick_start,) = _python_blocks()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start, str(README), "exec"), {"__name__": "readme"})
    concurrence, verdict, tau = out.getvalue().splitlines()
    assert abs(float(concurrence) - math.exp(-1.0)) < 1e-12
    assert verdict == "PASS"
    assert float(tau) == 0.5
