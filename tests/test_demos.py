"""Every demo script, and README's library example, runs against the current API."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    [example] = re.findall(r"## Library overview\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "chef 3 ('kitchen', 'person')\n"
