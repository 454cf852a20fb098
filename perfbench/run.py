#!/usr/bin/env python3
"""holeburn benchmark: shipped-preset workloads through ``run_scenario``.

    python3 perfbench/run.py                                   # all workloads
    python3 perfbench/run.py --workload tailoring --seed 3 --seconds 36 --trace 0
    python3 perfbench/run.py --workload stim_spectrum --trace 1   # per-layer pass

With ``--trace 0`` a run times ``run_scenario`` calls (threads=1, one
process) for ``--seconds`` and prints the end-to-end metrics; with
``--trace 1`` it alternates untraced calls with traced passes and prints the
per-layer metrics.  Every output is checked against the committed reference.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
RESULTS_DIR = ROOT / ".perfbench_results"

# Fresh-interpreter set-ups per run; the first only warms the bytecode cache.
SETUP_REPEATS = 4

# run_s is in reference seconds: wall time rescaled by the speed probe (see
# SpeedProbe).  Its raw wall-time median is printed as run_wall_s.
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
END_TO_END_EXTRA = {"run_wall_s": "s", "probe_s": "s"}

PER_LAYER = {
    "engine.propagator_s": "s",
    "engine.propagator_calls": "count",
    "engine.eig_matrices": "count",
    "engine.eig_distinct": "count",
    "engine.eig_useful_ratio": "ratio",
    "engine.power_calls": "count",
    "engine.squarings": "count",
    "engine.expm_fallbacks": "count",
    "ensemble.readout_s": "s",
    "ensemble.readout_calls": "count",
    "ensemble.kernel_evals": "count",
    "ensemble.kernel_evals_per_s": "1/s",
    "ensemble.build_s": "s",
    "ensemble.build_calls": "count",
    "config.parse_s": "s",
    "config.parse_calls": "count",
    "sequence.compile_s": "s",
    "sequence.items": "count",
    "sequence.segments": "count",
    "sequence.run_s": "s",
    "sequence.run_self_s": "s",
    "analysis.metrics_calls": "count",
    "runner.scenario_s": "s",
    "runner.self_s": "s",
    "runner.bytes_written": "B",
    "runner.files_written": "count",
    "holeburn.import_s": "s",
    "trace.overhead_frac": "ratio",
}

# Measured and printed, but left out of the JSON metrics: on a workload that
# never calls the layer they read exactly 0 s on every run.
PER_LAYER_EXTRA = {"engine.power_s": "s", "analysis.metrics_s": "s"}

TIMING_SCOPE = (
    "only this benchmark's own processes are timed: no system-wide tracing, "
    "cache dropping or CPU pinning"
)


def pin_source():
    """Import holeburn from this checkout's src/, never from an installed copy."""
    if not (SRC / "holeburn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no holeburn sources in {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import holeburn

    package_file = Path(holeburn.__file__).resolve()
    if not package_file.is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: holeburn imported from {package_file}, outside {SRC}")
    return holeburn


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environment(load_before) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (AttributeError, KeyError, TypeError):
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "noisy": True,
        "timing_scope": TIMING_SCOPE,
    }


class SpeedProbe:
    """Fixed benchmark-owned work, timed between samples to track machine speed.

    Shared machines drift.  On the 2-core box this benchmark was written on,
    40 s medians of ``pit_sweep`` wall time moved between 2.2 s and 3.2 s
    over minutes of unchanged code.  Wall time divided by the probe time
    measured around each sample cut that spread by about half.  The probe
    repeats, on fixed data, the kinds of work holeburn does: exponentials of
    a 1001-class stack of 4x4 generators through eigendecomposition, a
    vectorised Lorentzian sum and interpreted Python.  Its temporaries stay
    under 2 MB, far below every workload's peak memory.
    """

    # Probe time taken as the reference speed: the probe's median on that
    # box, so reference seconds read close to its typical wall time.
    REF_S = 0.043

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._gens = -np.abs(rng.standard_normal((1001, 4, 4)))
        self._freqs = np.linspace(-45.0, 45.0, 200)
        self._centers = rng.uniform(-250.0, 250.0, 1000)
        self._amps = rng.standard_normal(1000)
        self._once()  # the first call in a process runs slow; warm up
        self.times = [self._once()]

    def _once(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for _ in range(3):
            w, v = np.linalg.eig(self._gens)
            ((v * np.exp(w * 0.01)[:, None, :]) @ np.linalg.inv(v)).real
        for _ in range(6):
            d = self._freqs[:, None] - self._centers[None, :]
            (self._amps * (0.0625 / (d * d + 0.0625))).sum(axis=1)
        acc = 0
        for i in range(150_000):
            acc += i % 7
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Probe again; the mean of the probes just before and after a sample."""
        self.times.append(self._once())
        return (self.times[-2] + self.times[-1]) / 2.0


def measure_setup(raw: dict, repeats: int) -> list[dict]:
    """Import-plus-parse timings, one fresh interpreter each, warm-up dropped."""
    setups = []
    payload = json.dumps(raw)
    for _ in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)],
            input=payload, capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return setups[1:]


class Runner:
    """Runs one workload's scenarios into fresh directories and checks them."""

    def __init__(self, name, raw, variant, ref_dir):
        import holeburn.config

        self.name, self.raw, self.variant, self.ref_dir = name, raw, variant, ref_dir
        self.cfg = holeburn.config.parse_config(raw)
        self.work = WORK_DIR / f"{name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def once(self, traced: bool):
        """One run_scenario call: (seconds or None if it raised, layer metrics)."""
        import holeburn.runner
        import tracer
        import workloads

        out = self.work / f"run_{self.attempted:05d}"
        self.attempted += 1
        elapsed, layers = None, None
        try:
            if traced:
                manifest, layers = tracer.traced_pass(self.raw, out)
                elapsed = layers["runner.scenario_s"]
            else:
                t0 = time.perf_counter()
                manifest = holeburn.runner.run_scenario(self.cfg, out, threads=1)
                elapsed = time.perf_counter() - t0
            errors = workloads.check_outputs(self.name, out, manifest, self.variant,
                                             self.ref_dir)
        except Exception:  # a failing run is counted, not fatal
            errors = [traceback.format_exc()]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if errors:
            self.failed += 1
            self.errors += errors
            print(f"{self.name}: run {self.attempted} failed:\n  " + "\n  ".join(errors),
                  file=sys.stderr)
        return elapsed, layers

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def _loop(seconds: float, step) -> None:
    """Call step() until the next call would end past ``seconds``; at least once."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 ref_dir: Path | None = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload; returns the result record (see README)."""
    import tracer
    import workloads

    ref_dir = ref_dir or workloads.REFERENCE_DIR
    workloads.reference_files(name, ref_dir)  # fail early without a reference
    load_before = os.getloadavg()
    raw, variant = workloads.workload_config(name, seed)
    setups = measure_setup(raw, setup_repeats)

    runner = Runner(name, raw, variant, ref_dir)
    times, scales, traced_times, passes = [], [], [], []
    try:
        if trace:
            def step():
                elapsed, _ = runner.once(traced=False)
                if elapsed is not None:
                    times.append(elapsed)
                elapsed, layers = runner.once(traced=True)
                if elapsed is not None:
                    traced_times.append(elapsed)
                    passes.append(layers)
        else:
            probe = SpeedProbe()

            def step():
                elapsed, _ = runner.once(traced=False)
                scale = probe.scale()
                if elapsed is not None:
                    times.append(elapsed)
                    scales.append(scale)
        _loop(seconds, step)
    finally:
        runner.close()

    if not times or (trace and not passes):
        raise RuntimeError(f"{name}: no run completed")
    samples = {"run_wall_s": times, "setup_s": [p["setup_s"] for p in setups]}
    if trace:
        mismatches = tracer.count_mismatches(passes)
        if mismatches:
            runner.errors += mismatches
            runner.failed += 1
        values = tracer.median_metrics(passes)
        values["holeburn.import_s"] = statistics.median(p["import_s"] for p in setups)
        values["trace.overhead_frac"] = (
            statistics.median(traced_times) / statistics.median(times) - 1.0
        )
        samples["traced_run_s"] = traced_times
        units, reported = {**PER_LAYER, **PER_LAYER_EXTRA}, PER_LAYER
    else:
        samples["probe_s"] = probe.times
        samples["run_s"] = [SpeedProbe.REF_S * t / p for t, p in zip(times, scales)]
        values = {k: statistics.median(samples[k]) for k in END_TO_END_EXTRA}
        values["run_s"] = statistics.median(samples["run_s"])
        values["setup_s"] = statistics.median(samples["setup_s"])
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units, reported = {**END_TO_END, **END_TO_END_EXTRA}, END_TO_END

    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "shift_MHz": variant.shift_MHz,
        "sweep_order": variant.sweep_order,
        "failed_frac": runner.failed / runner.attempted,
        "values": {k: values[k] for k in units},
        "units": units,
        "samples": samples,
        "errors": runner.errors,
        "env": environment(load_before),
        "result": {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": values[k], "unit": reported[k]} for k in reported},
        },
    }


def report(record: dict) -> None:
    name = record["workload"]
    for key, value in record["values"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        line = f"{name:<14} {key:<28} {shown} {record['units'][key]}"
        if key in record["samples"]:
            q1, q3 = quartiles(record["samples"][key])
            line += f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(record['samples'][key])})"
        print(line)
    res = record["result"]
    print(f"{name:<14} {'failed_frac':<28} {record['failed_frac']:.6g} ratio"
          f"  ({res['failed']}/{res['attempted']} runs)")
    print("env " + json.dumps(record["env"], sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    import workloads

    rows, status = [], 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark failed (exit {proc.returncode})")
            status = 1
            continue
        rows.append((name, json.loads(lines[-1])))
    if args.trace:
        return status
    print()
    print(f"{'workload':<14} {'run_s (s)':>10} {'setup_s (s)':>12} "
          f"{'peak_rss_mib (MiB)':>19} {'failed_frac':>12}")
    for name, res in rows:
        m = res["metrics"]
        print(f"{name:<14} {m['run_s']['value']:>10.4f} {m['setup_s']['value']:>12.4f} "
              f"{m['peak_rss_mib']['value']:>19.1f} {res['failed'] / res['attempted']:>12.3g}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="tailoring, pit_sweep, stim_spectrum, or all (default)")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs the presets as shipped (default)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measuring time per workload (default 36)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced per-layer pass instead of end-to-end timing")
    args = parser.parse_args(argv)

    pin_source()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    report(record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
