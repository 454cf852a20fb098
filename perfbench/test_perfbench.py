"""Self-tests of the benchmark harness itself, not of holeburn.

    python3 -m pytest perfbench -q

They assert no absolute work counts, so a change that legitimately moves a
count (for example by sharing propagators) leaves them passing.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.pin_source()

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_two_traced_passes_give_identical_counts(tmp_path):
    raw, _ = workloads.workload_config("stim_spectrum", 0)
    _, first = tracer.traced_pass(raw, tmp_path / "first")
    _, second = tracer.traced_pass(raw, tmp_path / "second")
    assert tracer.count_mismatches([first, second]) == []
    assert first["engine.eig_matrices"] > 0
    assert first["ensemble.kernel_evals"] > 0


def _originals():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in tracer.PATCHES
    }


def test_tracing_restores_every_patched_attribute(tmp_path):
    before = _originals()
    raw, _ = workloads.workload_config("stim_spectrum", 0)
    tracer.traced_pass(raw, tmp_path / "ok")
    assert _originals() == before

    bad = dict(raw, target_od="not a number")
    with pytest.raises(Exception):
        tracer.traced_pass(bad, tmp_path / "bad")
    after = _originals()
    assert all(after[key] is fn for key, fn in before.items())


def test_corrupted_reference_fails_every_run(tmp_path):
    good = tmp_path / "good"
    bad = tmp_path / "bad"
    src = workloads.REFERENCE_DIR / "stim_spectrum" / "sweep.csv"
    for ref_dir in (good, bad):
        (ref_dir / "stim_spectrum").mkdir(parents=True)
    (good / "stim_spectrum" / "sweep.csv").write_text(src.read_text())
    header, *rows = src.read_text().splitlines()
    value, area = rows[0].split(",")
    rows[0] = f"{value},{float(area) * (1 + 1e-6)!r}"
    (bad / "stim_spectrum" / "sweep.csv").write_text("\n".join([header, *rows]) + "\n")

    seed = 5  # a shifted, shuffled variant exercises the frame-shift check
    record = run.run_workload("stim_spectrum", seed, 0.5, False, ref_dir=good, setup_repeats=1)
    assert record["failed_frac"] == 0 and record["result"]["correct"]

    record = run.run_workload("stim_spectrum", seed, 0.5, False, ref_dir=bad, setup_repeats=1)
    assert record["failed_frac"] == 1
    assert record["result"]["failed"] == record["result"]["attempted"] >= 1
    assert not record["result"]["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.BENCH_DIR).glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "stim_spectrum",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
