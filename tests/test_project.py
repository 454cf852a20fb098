"""Checks on the project files: declared dependencies and the README."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_numpy_floor_covers_trapezoid():
    # ensemble.hole_area calls np.trapezoid, which NumPy added in 2.0
    text = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=([0-9.]+)"', text)
    assert floor is not None
    assert tuple(int(x) for x in floor.group(1).split(".")) >= (2, 0)


def test_readme_python_api_example_runs(capsys):
    text = (ROOT / "README.md").read_text()
    section = text.split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)
    assert code is not None
    exec(compile(code.group(1), "README.md", "exec"), {})
    rho1_res, ratio = capsys.readouterr().out.split()
    assert 0.0 < float(rho1_res) < 1.0
    assert float(ratio) > 1.0
