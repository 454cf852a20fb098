"""Command-line interface.

Subcommands:

* ``run`` executes a config file or a named preset and writes artifacts;
* ``fit`` fits a two-column CSV with one of the bundled models;
* ``list-presets`` shows the scenario catalog.

The default output directory can be set with the HOLEBURN_OUTDIR
environment variable; --out always wins.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .analysis import (
    fit_double_exponential,
    fit_exponential_offset,
    fit_linear,
    fit_lorentzian,
)
from .config import parse_config, parse_config_file
from .errors import HoleburnError
from .presets import PRESETS, preset, preset_names
from .runner import run_scenario

OUTDIR_ENV = "HOLEBURN_OUTDIR"

_FIT_MODELS = {
    "doubleexp": fit_double_exponential,
    "lorentzian": fit_lorentzian,
    "linear": fit_linear,
    "expoffset": fit_exponential_offset,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="holeburn",
        description="Simulate Zeeman optical pumping and spectral hole burning.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config or preset")
    run_p.add_argument("config", nargs="?", help="path to a JSON or YAML config")
    run_p.add_argument("--preset", help="name of a bundled preset")
    run_p.add_argument("--out", help="output directory")

    fit_p = sub.add_parser("fit", help="fit a two-column CSV trace")
    fit_p.add_argument("csv", help="input CSV with a header row")
    fit_p.add_argument("--model", required=True, choices=sorted(_FIT_MODELS),
                       help="fit model")
    fit_p.add_argument("--out", help="write the fit JSON here as well")

    sub.add_parser("list-presets", help="list bundled scenario presets")
    return ap


def _default_outdir(stem: str) -> Path:
    root = os.environ.get(OUTDIR_ENV)
    if root:
        return Path(root) / stem
    return Path("holeburn-out") / stem


def _cmd_run(args) -> int:
    if bool(args.config) == bool(args.preset):
        print("run: give exactly one of a config path or --preset", file=sys.stderr)
        return 2
    if args.preset:
        cfg = parse_config(preset(args.preset))
        stem = args.preset
    else:
        cfg = parse_config_file(args.config)
        stem = Path(args.config).stem
    out = Path(args.out) if args.out else _default_outdir(stem)
    manifest = run_scenario(cfg, out)
    print(f"wrote {len(manifest['artifacts']) + 1} artifacts to {out}")
    return 0


def _cmd_fit(args) -> int:
    with warnings.catch_warnings():
        # An empty file is reported below, not as loadtxt's warning.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(args.csv, delimiter=",", skiprows=1, ndmin=2)
    if not len(data):
        print("fit: CSV has no data rows", file=sys.stderr)
        return 1
    if data.shape[1] < 2:
        print("fit: CSV needs at least two columns", file=sys.stderr)
        return 2
    result = _FIT_MODELS[args.model](data[:, 0], data[:, 1])
    text = result.to_json()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0 if result.converged else 1


def _cmd_list_presets() -> int:
    width = max(len(n) for n in preset_names())
    for name in preset_names():
        print(f"{name:<{width}}  {PRESETS[name][0]}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "fit":
            return _cmd_fit(args)
        return _cmd_list_presets()
    except (ArithmeticError, HoleburnError, KeyError, MemoryError, OSError, ValueError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
