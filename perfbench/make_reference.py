#!/usr/bin/env python3
"""Write the reference outputs that every benchmark run is checked against.

    python3 perfbench/make_reference.py

Runs each workload at seed 0 (the preset as shipped) and stores its
artifacts, manifest.json aside, under perfbench/reference/<workload>/.  The
committed files were written from the commit that introduced the benchmark;
rewrite them only for a change that is meant to alter outputs, and say so in
that change.
"""

import shutil
import sys

from run import pin_source

pin_source()

import holeburn.config  # noqa: E402
import holeburn.runner  # noqa: E402
import workloads  # noqa: E402

for name in workloads.WORKLOADS:
    raw, _ = workloads.workload_config(name, 0)
    out = workloads.REFERENCE_DIR / name
    shutil.rmtree(out, ignore_errors=True)
    holeburn.runner.run_scenario(holeburn.config.parse_config(raw), out, threads=1)
    (out / "manifest.json").unlink()
    print(name, sorted(p.name for p in out.iterdir()), file=sys.stderr)
