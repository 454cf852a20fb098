"""Checks on the project files and environment: dependencies, imports and the README."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

from holeburn import config
from holeburn.ensemble import PROFILE_SHAPES

ROOT = Path(__file__).resolve().parents[1]


def test_numpy_floor_covers_trapezoid():
    # ensemble.hole_area calls np.trapezoid, which NumPy added in 2.0
    text = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=([0-9.]+)"', text)
    assert floor is not None
    assert tuple(int(x) for x in floor.group(1).split(".")) >= (2, 0)


def test_a_run_imports_neither_scipy_nor_yaml(tmp_path):
    # only fits need SciPy and only YAML configs need PyYAML
    code = (
        "import sys, holeburn\n"
        "cfg = holeburn.parse_config(holeburn.preset('standard_pumping_pit'))\n"
        f"holeburn.run_scenario(cfg, {str(tmp_path)!r})\n"
        "print(sorted(m for m in ('scipy', 'yaml') if m in sys.modules))\n"
        "print('importlib.metadata' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    modules, metadata = done.stdout.splitlines()
    assert modules == "[]"
    # the manifest names only the packages a run uses, so it needs no metadata lookup
    assert metadata == "False"
    assert (tmp_path / "manifest.json").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["versions"]) == ["holeburn", "numpy"]


def test_readme_python_api_example_runs(capsys):
    text = (ROOT / "README.md").read_text()
    section = text.split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)
    assert code is not None
    exec(compile(code.group(1), "README.md", "exec"), {})
    rho1_res, ratio = capsys.readouterr().out.split()
    assert 0.0 < float(rho1_res) < 1.0
    assert float(ratio) > 1.0


def test_readme_configuration_lists_every_key():
    # the keys come from the dataclass fields the parser reads them from
    text = (ROOT / "README.md").read_text()
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]

    def bullet(name, indent=""):
        # a bullet runs to the next bullet at the same or a lower depth
        m = re.search(rf"^{indent}- `?{name}`?:(.*?)(?=^ {{0,{len(indent)}}}- |\Z)",
                      section, re.S | re.M)
        assert m is not None, f"no README bullet for {name}"
        return m.group(1)

    def assert_lists(text, cls, where):
        for f in fields(cls):
            assert f"`{f.name}`" in text, f"{where}.{f.name} missing from README"

    top = bullet("Top-level keys")
    for f in fields(config.ExperimentConfig):
        cls = getattr(config, f.type, None)
        if f.name == "sequence":
            for kind, pulse in config._PULSE_KINDS.items():
                assert_lists(bullet(kind, indent="  "), pulse, f"sequence.{kind}")
        elif is_dataclass(cls):
            assert_lists(bullet(f.name), cls, f.name)
        else:
            assert f"`{f.name}`" in top, f"{f.name} missing from README"
    assert_lists(bullet("outputs"), config.SweepSpec, "outputs.sweep")


def test_readme_configuration_names_exactly_the_config_keys():
    # Every field the parser reads is named in backticks, and every backticked
    # name is such a field, a pulse kind, a profile shape or a file a run
    # writes, so a deleted key cannot linger in the README.
    text = (ROOT / "README.md").read_text()
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", section, flags=re.S)))
    types = [config.ExperimentConfig, config.SweepSpec, *config._PULSE_KINDS.values()]
    types += [getattr(config, f.type) for f in fields(config.ExperimentConfig)
              if is_dataclass(getattr(config, f.type, None))]
    keys = {f.name for cls in types for f in fields(cls)}
    assert keys - named == set()
    words = {"kind", "null", *config._PULSE_KINDS, *PROFILE_SHAPES}
    assert {n for n in named if "." not in n} - keys - words == set()


def test_perfbench_tracer_patches_resolve():
    # The tracer swaps these module attributes from outside the package, so a
    # renamed or dropped name would otherwise show only in a traced benchmark.
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    patches = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["PATCHES"])
    pairs = [(module, attr) for module, attr, _ in patches if module.split(".")[0] == "holeburn"]
    assert pairs
    for module, attr in pairs:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
