"""The README's Python quick start runs as written, its command lines
parse, and the public API is no larger than its users.

The snippet is read from README.md and executed against a ``data.csv``
made by ``treegof generate``, so the documented API cannot be removed
without this test failing.  Every function exported by ``treegof`` must
be named by the README, the CLI, the benchmark's trace replay or the
acceptance tests.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import shlex
from pathlib import Path

import treegof
from treegof.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
API_USERS = (
    README,
    ROOT / "src" / "treegof" / "cli.py",
    ROOT / "perfbench" / "traced.py",
    ROOT / "tests" / "test_acceptance.py",
)


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


def test_every_exported_function_has_a_user():
    # classes are exempt: they are the functions' return types
    text = "\n".join(path.read_text(encoding="utf-8") for path in API_USERS)
    unused = [
        name
        for name in treegof.__all__
        if inspect.isfunction(getattr(treegof, name))
        and not re.search(rf"\b{name}\b", text)
    ]
    assert unused == []


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {title}\n", 1)[1]


def test_readme_command_lines_parse():
    block = re.search(r"```\n(.*?)```", _section("Command line"), re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert len(lines) == 5
    parser = build_parser()
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "treegof", line
        # an unknown flag or a missing required one exits
        assert parser.parse_args(argv).func.__name__ == "cmd_" + argv[0].replace("-", "_")


def test_readme_lists_the_test_report_in_order():
    # ``treegof test`` prints the ``TestResult`` fields, then alpha and seed
    listed = re.search(r"`test` prints a JSON report \((.*?)\)", _section("Command line"), re.DOTALL)
    keys = [f.name for f in dataclasses.fields(treegof.TestResult)] + ["alpha", "seed"]
    assert re.split(r",\s+", listed.group(1)) == keys
