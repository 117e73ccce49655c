"""The README's library quick start runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("RateFit(alpha=")
    # the two single runs and the three tolerances of the multi-plan run
    assert len(out.splitlines()) == 6
