"""The README's Python quick start runs as written.

The snippet is read from README.md and executed against a ``data.csv``
made by ``treegof generate``, so the documented API cannot be removed
without this test failing.
"""

from __future__ import annotations

import re
from pathlib import Path

from treegof.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["generate", "--setup", "1", "--m", "4", "--n", "200", "--out", "data.csv"]
    assert main(argv) == 0
    capsys.readouterr()

    exec(compile(_quick_start(), str(README), "exec"), {"__name__": "readme"})
    statistic, quantile, p_value, reject = capsys.readouterr().out.split()
    assert float(statistic) >= 0.0 and float(quantile) > 0.0
    assert 0.0 < float(p_value) <= 1.0
    assert reject in ("True", "False")
