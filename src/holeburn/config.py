"""Experiment configuration: schema, strict parsing, canonical serialisation.

Configs are plain nested mappings (JSON or YAML on disk).  Parsing is
strict: unknown keys and malformed values raise ConfigError with the path
of the offending field so batch users can locate mistakes.  Serialisation
is canonical JSON-ready data; parse(serialize(cfg)) reproduces cfg exactly.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path

from .ensemble import InhomogeneousProfile
from .errors import ConfigError
from .levels import RateParams, ZeemanConfig
from .sequence import (
    DriveCalibration,
    Pulse,
    PumpPulse,
    ReadoutPulse,
    RFPulse,
    StimulationPulse,
    WaitPulse,
)

__all__ = [
    "ExperimentConfig",
    "OutputSpec",
    "SweepSpec",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "apply_override",
]


@dataclass(frozen=True)
class SweepSpec:
    """Repeat the scenario with one config field stepped through values.

    path uses dotted keys with optional list indices, e.g.
    ``sequence[2].voltage_Vpp`` or ``drive.stim_detuning_MHz``.
    """

    path: str
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("sweep values must be non-empty")
        if re.match(r"outputs\.sweep\b", self.path):
            raise ValueError(f"cannot sweep {self.path}: each point runs without a sweep")


@dataclass(frozen=True)
class OutputSpec:
    spectra: bool = True
    trace_window_MHz: tuple | None = None
    metrics_window_MHz: tuple | None = None
    sweep: SweepSpec | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    zeeman: ZeemanConfig
    rates: RateParams
    profile: InhomogeneousProfile
    sequence: tuple[Pulse, ...]
    outputs: OutputSpec = OutputSpec()
    drive: DriveCalibration = DriveCalibration()
    target_od: float | None = 1.0
    probe_linewidth_MHz: float = 1.0
    dt_max_ms: float | None = None

    def __post_init__(self):
        if self.target_od is not None and self.target_od <= 0:
            raise ConfigError("target_od", "must be > 0")
        if self.probe_linewidth_MHz <= 0:
            raise ConfigError("probe_linewidth_MHz", "must be > 0")
        if self.dt_max_ms is not None and self.dt_max_ms <= 0:
            raise ConfigError("dt_max_ms", "must be > 0")


_PULSE_KINDS = {
    "pump": PumpPulse,
    "stimulation": StimulationPulse,
    "rf": RFPulse,
    "wait": WaitPulse,
    "readout": ReadoutPulse,
}


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _join(path, key):
    return f"{path}.{key}" if path else str(key)


def _check_keys(d, allowed, path):
    for key in d:
        if key not in allowed:
            raise ConfigError(_join(path, key), "unknown key")


def _number(value, path):
    # the comparison is exact, so NaN, +-inf and an int too large for a float fail it
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _string(value, path):
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def _boolean(value, path):
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {value!r}")
    return value


def _window(value, path):
    if (not isinstance(value, (list, tuple)) or len(value) != 2):
        raise ConfigError(path, "expected [low_MHz, high_MHz]")
    lo = _number(value[0], f"{path}[0]")
    hi = _number(value[1], f"{path}[1]")
    if not hi > lo:
        raise ConfigError(path, "window high must exceed low")
    return (lo, hi)


def _values(value, path):
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(path, "expected a non-empty list")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _pulse(value, path):
    raw = _require_mapping(value, path)
    kind = raw.get("kind")
    if kind not in _PULSE_KINDS:
        raise ConfigError(
            f"{path}.kind", f"expected one of {sorted(_PULSE_KINDS)}, got {kind!r}"
        )
    body = {k: v for k, v in raw.items() if k != "kind"}
    return _build_section(body, path, _PULSE_KINDS[kind])


def _sequence(value, path):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, "expected a list of pulses")
    return tuple(_pulse(p, f"{path}[{i}]") for i, p in enumerate(value))


def _build_section(raw, path, cls):
    """Build dataclass cls from a raw mapping; the fields of cls are the schema.

    A field without a default is a required key, a field with one may be
    omitted, and the field's annotation picks its coercion in _PARSERS.  A
    value the model type rejects raises ConfigError on the field path when
    the model's message starts with one of the section's field names, and on
    the section path otherwise.
    """
    raw = _require_mapping(raw, path)
    names = {f.name for f in fields(cls)}
    _check_keys(raw, names, path)
    kwargs = {}
    for f in fields(cls):
        key = _join(path, f.name)
        if f.name in raw:
            kwargs[f.name] = _PARSERS[f.type](raw[f.name], key)
        elif f.default is MISSING:
            raise ConfigError(key, "missing required key")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        first = str(exc).split(" ", 1)[0]
        raise ConfigError(_join(path, first) if first in names else path, str(exc)) from exc


def _section(cls):
    return lambda value, path: _build_section(value, path, cls)


def _optional(parse):
    return lambda value, path: None if value is None else parse(value, path)


# Coercion of a raw value, keyed by the annotation of the field it fills.
_PARSERS = {
    "float": _number,
    "float | None": _optional(_number),
    "int": _integer,
    "str": _string,
    "bool": _boolean,
    "tuple | None": _optional(_window),
    "tuple[float, ...]": _values,
    "tuple[Pulse, ...]": _sequence,
    "SweepSpec | None": _optional(_section(SweepSpec)),
    **{
        cls.__name__: _section(cls)
        for cls in (ZeemanConfig, RateParams, InhomogeneousProfile, DriveCalibration,
                    OutputSpec)
    },
}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping into an ExperimentConfig.

    Raises ConfigError with a dotted field path for unknown keys, missing
    required keys, type errors, and any value a model type rejects.
    """
    return _build_section(raw, "", ExperimentConfig)


def _parse_field(name: str, value):
    """One top-level ExperimentConfig field parsed from its raw value, as
    parse_config parses it."""
    (f,) = (f for f in fields(ExperimentConfig) if f.name == name)
    return _PARSERS[f.type](value, name)


def parse_config_file(path) -> ExperimentConfig:
    """Load a JSON or YAML config file."""
    text = Path(path).read_text()
    if str(path).endswith((".yaml", ".yml")):
        import yaml  # only YAML files need it; keep it off the import path
        raw = yaml.safe_load(text)
    else:
        raw = json.loads(text)
    return parse_config(raw)


_KIND_OF = {cls: kind for kind, cls in _PULSE_KINDS.items()}


def _to_raw(value):
    if is_dataclass(value):
        out = {"kind": _KIND_OF[type(value)]} if type(value) in _KIND_OF else {}
        out.update((f.name, _to_raw(getattr(value, f.name))) for f in fields(value))
        return out
    if isinstance(value, tuple):
        return [_to_raw(v) for v in value]
    return value


def serialize_config(cfg: ExperimentConfig) -> dict:
    """Canonical mapping representation; JSON- and YAML-serialisable."""
    return _to_raw(cfg)


_PATH_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)$")


def apply_override(raw: dict, path: str, value) -> dict:
    """Return a copy of a raw config mapping with one field replaced.

    Understands dotted paths with list indices, e.g.
    ``sequence[1].duration_ms``.
    """
    out = copy.deepcopy(raw)
    node = out
    parts = path.split(".")
    for i, part in enumerate(parts):
        m = _PATH_TOKEN.match(part)
        if not m:
            raise ConfigError(path, f"malformed override path near {part!r}")
        key, idx_part = m.group(1), m.group(2)
        last = i == len(parts) - 1
        indices = [int(s) for s in re.findall(r"\[(\d+)\]", idx_part)]
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(path, f"no such key {key!r}")
        if not indices and last:
            node[key] = value
            return out
        node = node[key]
        for j, ix in enumerate(indices):
            if not isinstance(node, list) or ix >= len(node):
                raise ConfigError(path, f"index {ix} out of range at {key!r}")
            if last and j == len(indices) - 1:
                node[ix] = value
                return out
            node = node[ix]
    raise ConfigError(path, "path resolved to nothing")
