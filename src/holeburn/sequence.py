"""Pulse sequences: timing types, compiler, and ensemble executor.

A sequence is a list of pulses on three drive channels (pump, stimulation,
RF mixing) plus snapshot readouts taken after the drives end.  The compiler
flattens the channels into piecewise-constant drive segments; a repeated
frequency sweep becomes a repeat block so the executor can build the
propagator of one sweep cycle and raise it to the repetition count instead
of stepping through every period.

Sharing propagators between ion classes is exact: a segment's generator
depends on the class only through the detuning of the pump from the class
centre, so every class and sweep step with the same detuning and duration
gets the one propagator computed for that detuning.  On the uniform class
grid the detunings form a lattice, indexed from the pump frequencies alone,
and a step's factor for class i + 1 is its factor for class i moved one slot:
a run of steps that moves a fixed number of slots per step gives every class
its product as one sliding window over the stack.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate

import numpy as np

from . import engine
from .ensemble import (DETUNING_KEY_MHZ, EnsembleState, Spectrum, kernel_key, on_lattice,
                       readout_scan, readout_stride)
from .errors import SequenceError

__all__ = [
    "PumpPulse",
    "StimulationPulse",
    "RFPulse",
    "WaitPulse",
    "ReadoutPulse",
    "DriveSegment",
    "RepeatBlock",
    "CompiledSequence",
    "DriveCalibration",
    "Readout",
    "RunResult",
    "Evolution",
    "compile_sequence",
    "advance",
    "scan",
    "run",
    "write_trace_csv",
]

# Default number of discretisation steps per sweep period.
SWEEP_STEPS_PER_PERIOD = 50

# Most sweep steps one period may take.  Every step of the one-period cycle is
# a DriveSegment: 1e5 steps compile in 1.5 s and 56 MiB, 1e6 in 15.5 s and
# 285 MiB, and a dt_max_ms of 1e-11 on a 0.1 ms period would ask for 1e10.
# fig7 takes 100 steps per period, stimulated_pumping at dt_max_ms 1e-5 takes 1e4.
MAX_SWEEP_STEPS = 100_000

# Times closer than this are one time: edges and cuts this close coincide, and
# durations this close share a propagator (sweep steps differ only by rounding).
TIME_TOL_MS = 1e-12


@dataclass(frozen=True, kw_only=True)
class PumpPulse:
    """Optical pump, optionally swept as a repeating sawtooth.

    Pulses are built by keyword; start_ms defaults to 0 on every timed pulse.

    With sweep_span_MHz > 0 the instantaneous frequency ramps linearly from
    center - span/2 to center + span/2 once per sweep_period_ms.  The pump
    is gated off whenever the instantaneous frequency lies within
    +- gate_gap_MHz / 2 of the sweep center.
    """

    start_ms: float = 0.0
    duration_ms: float
    center_MHz: float
    power_rate_per_ms: float
    sweep_span_MHz: float = 0.0
    sweep_period_ms: float = 0.0
    gate_gap_MHz: float = 0.0

    def __post_init__(self):
        _check_timing(self)
        if self.power_rate_per_ms < 0:
            raise ValueError("power_rate_per_ms must be >= 0")
        if self.sweep_span_MHz < 0:
            raise ValueError("sweep_span_MHz must be >= 0")
        if self.sweep_span_MHz > 0 and self.sweep_period_ms <= 0:
            raise ValueError("swept pump needs sweep_period_ms > 0")
        if self.gate_gap_MHz < 0:
            raise ValueError("gate_gap_MHz must be >= 0")
        if self.gate_gap_MHz > 0 and self.gate_gap_MHz >= self.sweep_span_MHz:
            raise ValueError("gate_gap_MHz must be smaller than sweep_span_MHz")


@dataclass(frozen=True, kw_only=True)
class StimulationPulse:
    """Stimulated de-excitation drive of constant power."""

    start_ms: float = 0.0
    duration_ms: float
    power_mW: float

    def __post_init__(self):
        _check_timing(self)
        if self.power_mW < 0:
            raise ValueError("power_mW must be >= 0")


@dataclass(frozen=True, kw_only=True)
class RFPulse:
    """Excited-doublet mixing drive swept over a frequency band.

    The sweep is much faster than every population timescale, so the drive
    is modelled as a constant mixing rate applied to any class whose excited
    splitting lies inside center +- bandwidth/2.
    """

    start_ms: float = 0.0
    duration_ms: float
    center_MHz: float
    bandwidth_MHz: float
    voltage_Vpp: float

    def __post_init__(self):
        _check_timing(self)
        if self.bandwidth_MHz <= 0:
            raise ValueError("bandwidth_MHz must be > 0")
        if self.voltage_Vpp < 0:
            raise ValueError("voltage_Vpp must be >= 0")


@dataclass(frozen=True, kw_only=True)
class WaitPulse:
    """Drive-free interval that extends the simulated horizon."""

    start_ms: float = 0.0
    duration_ms: float

    def __post_init__(self):
        _check_timing(self)


@dataclass(frozen=True, kw_only=True)
class ReadoutPulse:
    """Snapshot transmission scan taken at_delay_ms after the drives end."""

    f_start_MHz: float
    f_stop_MHz: float
    n_points: int
    at_delay_ms: float

    def __post_init__(self):
        if not self.f_stop_MHz > self.f_start_MHz:
            raise ValueError("f_stop_MHz must exceed f_start_MHz")
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")
        _check_time(self, "at_delay_ms")


Pulse = PumpPulse | StimulationPulse | RFPulse | WaitPulse | ReadoutPulse


def _check_time(pulse, name) -> None:
    # times are compared and counted in TIME_TOL_MS, so that count must be finite too
    value = getattr(pulse, name)
    if not math.isfinite(value / TIME_TOL_MS) or value < 0:
        raise ValueError(f"{name} must be >= 0 and finite in {TIME_TOL_MS} ms steps, got {value}")


def _check_timing(pulse) -> None:
    _check_time(pulse, "start_ms")
    _check_time(pulse, "duration_ms")
    # compile_sequence drops cuts of TIME_TOL_MS and _active shifts both pulse edges
    # by -TIME_TOL_MS, so a drive this short would be active at no segment's midpoint
    if not isinstance(pulse, WaitPulse) and 0 < pulse.duration_ms <= 2 * TIME_TOL_MS:
        raise ValueError(f"duration_ms must be 0 or more than {2 * TIME_TOL_MS} ms for a "
                         f"drive pulse, got {pulse.duration_ms}")


@dataclass(frozen=True)
class DriveSegment:
    """One interval of constant drive settings.

    pump_freq_MHz is None when the pump is off (including gated sweep
    steps).  RF settings are kept on the segment so the executor can decide
    band membership, once per ensemble, from its excited splitting.
    """

    t_start_ms: float
    t_end_ms: float
    pump_freq_MHz: float | None = None
    pump_rate_per_ms: float = 0.0
    stim_power_mW: float = 0.0
    rf_voltage_Vpp: float = 0.0
    rf_center_MHz: float = 0.0
    rf_bandwidth_MHz: float = 0.0

    @property
    def dt_ms(self) -> float:
        return self.t_end_ms - self.t_start_ms


@dataclass(frozen=True)
class RepeatBlock:
    """``count`` identical repetitions of a sweep cycle."""

    segments: tuple[DriveSegment, ...]
    count: int

    @property
    def dt_ms(self) -> float:
        return self.count * sum(s.dt_ms for s in self.segments)


@dataclass
class CompiledSequence:
    items: list  # DriveSegment | RepeatBlock, in time order
    readouts: list[ReadoutPulse]
    drives_end_ms: float

    def __post_init__(self):
        # run scans in this order, and the state only moves forward in time
        self.readouts = sorted(self.readouts, key=lambda r: r.at_delay_ms)

    @property
    def n_segments(self) -> int:
        """Unrolled segment count."""
        return sum(
            it.count * len(it.segments) if isinstance(it, RepeatBlock) else 1
            for it in self.items
        )

    @property
    def n_sweep_periods(self) -> int:
        """Full sweep repetitions executed through repeat blocks."""
        return sum(it.count for it in self.items if isinstance(it, RepeatBlock))


@dataclass(frozen=True)
class DriveCalibration:
    """Conversion from pulse settings to rates seen by the rate equations.

    The stimulation response falls off with a wide Lorentzian in the
    stimulating laser's detuning from its gain line; stim_detuning_MHz
    selects the operating point.
    """

    pump_linewidth_MHz: float = 1.0
    stim_slope_per_mW_ms: float = engine.DEFAULT_STIM_SLOPE_PER_MW_MS
    stim_detuning_MHz: float = 0.0
    stim_response_fwhm_MHz: float = 14000.0
    rf_coupling_per_V2_ms: float = engine.DEFAULT_RF_COUPLING_PER_V2_MS

    def __post_init__(self):
        if self.pump_linewidth_MHz <= 0:
            raise ValueError("pump_linewidth_MHz must be > 0")
        if self.stim_response_fwhm_MHz <= 0:
            raise ValueError("stim_response_fwhm_MHz must be > 0")
        if self.stim_slope_per_mW_ms < 0 or self.rf_coupling_per_V2_ms < 0:
            raise ValueError("calibration rates must be >= 0")

    def stim_rate(self, power_mW: float) -> float:
        base = engine.stimulation_rate(power_mW, self.stim_slope_per_mW_ms)
        hw2 = (0.5 * self.stim_response_fwhm_MHz) ** 2
        return base * hw2 / (self.stim_detuning_MHz ** 2 + hw2)


def _channel_pulses(pulses, kind):
    active = [p for p in pulses if isinstance(p, kind) and p.duration_ms > 0]
    active.sort(key=lambda p: (p.start_ms, p.duration_ms))
    for prev, nxt in zip(active, active[1:]):
        if nxt.start_ms < prev.start_ms + prev.duration_ms - TIME_TOL_MS:
            raise SequenceError(
                f"overlapping {kind.__name__} pulses at t = {nxt.start_ms} ms"
            )
    return active


def _active(pulses, t):
    for p in pulses:
        if p.start_ms - TIME_TOL_MS <= t < p.start_ms + p.duration_ms - TIME_TOL_MS:
            return p
    return None


def _sweep_steps(pump: PumpPulse, n_steps: int, base: DriveSegment,
                 t0: float, t1: float) -> list[DriveSegment]:
    """base driven by the pump's sweep over [t0, t1), one segment per step.

    Steps lie on the pump's own grid of n_steps per sweep period, so a
    segment cut by t0 or t1 covers only part of its step.  Step k sits at
    span * ((k mod n_steps + 0.5) / n_steps - 0.5) from the sweep centre; a
    step within gate_gap_MHz / 2 of the centre is gated off and leaves the
    pump off.  The step index counts up from t0's step, so the loop ends
    however the step edges round.
    """
    dt = pump.sweep_period_ms / n_steps
    steps = []
    k = math.floor((t0 - pump.start_ms) / dt)
    if pump.start_ms + (k + 1) * dt <= t0 + TIME_TOL_MS:  # t0 at its step's end starts the next
        k += 1
    t = t0
    while t < t1 - TIME_TOL_MS:
        # every field of base, with the step's times and pump, in one construction per step
        fields = dict(vars(base), t_start_ms=t, t_end_ms=min(pump.start_ms + (k + 1) * dt, t1))
        offset = pump.sweep_span_MHz * ((k % n_steps + 0.5) / n_steps - 0.5)
        if abs(offset) >= pump.gate_gap_MHz / 2.0:
            fields.update(pump_freq_MHz=pump.center_MHz + offset,
                          pump_rate_per_ms=pump.power_rate_per_ms)
        steps.append(DriveSegment(**fields))
        t, k = fields["t_end_ms"], k + 1
    return steps


def compile_sequence(pulses, dt_max_ms: float | None = None) -> CompiledSequence:
    """Flatten a pulse list into time-ordered drive segments.

    Swept pumps are discretised into at most dt_max_ms steps (default one
    fiftieth of the sweep period); whole sweep periods under unchanged
    stimulation and RF settings are folded into repeat blocks.  dt_max_ms
    bounds only the sweep step: a constant interval stays one segment,
    because its propagation is exact whatever its length.
    """
    if dt_max_ms is not None and dt_max_ms <= 0:
        raise ValueError("dt_max_ms must be > 0")

    pumps = _channel_pulses(pulses, PumpPulse)
    stims = _channel_pulses(pulses, StimulationPulse)
    rfs = _channel_pulses(pulses, RFPulse)
    waits = [p for p in pulses if isinstance(p, WaitPulse)]
    readouts = [p for p in pulses if isinstance(p, ReadoutPulse)]

    timed = pumps + stims + rfs + [w for w in waits if w.duration_ms > 0]
    drives_end = max((p.start_ms + p.duration_ms for p in timed), default=0.0)

    cuts = {0.0, drives_end}
    for p in timed:
        cuts.add(p.start_ms)
        cuts.add(p.start_ms + p.duration_ms)
    cuts = sorted(c for c in cuts if 0.0 <= c <= drives_end)

    items: list = []
    for a, b in zip(cuts, cuts[1:]):
        if b - a <= TIME_TOL_MS:
            continue
        mid = 0.5 * (a + b)
        pump = _active(pumps, mid)
        stim = _active(stims, mid)
        rf = _active(rfs, mid)
        base = DriveSegment(
            t_start_ms=a,
            t_end_ms=b,
            stim_power_mW=stim.power_mW if stim else 0.0,
            rf_voltage_Vpp=rf.voltage_Vpp if rf else 0.0,
            rf_center_MHz=rf.center_MHz if rf else 0.0,
            rf_bandwidth_MHz=rf.bandwidth_MHz if rf else 0.0,
        )

        if pump is None or pump.power_rate_per_ms == 0.0:
            items.append(base)
        elif pump.sweep_span_MHz == 0.0:
            items.append(replace(base, pump_freq_MHz=pump.center_MHz,
                                 pump_rate_per_ms=pump.power_rate_per_ms))
        else:
            period = pump.sweep_period_ms
            dt_eff = dt_max_ms if dt_max_ms is not None else period / SWEEP_STEPS_PER_PERIOD
            n_steps = max(1, int(math.ceil(period / dt_eff - 1e-9)))
            # a step outlasts the bound _check_timing puts on a drive pulse, for the
            # same reason, and a period compiles in bounded time and memory
            if period / n_steps <= 2 * TIME_TOL_MS or n_steps > MAX_SWEEP_STEPS:
                raise SequenceError(f"swept pump at t = {pump.start_ms} ms: sweep step "
                                    f"{period / n_steps} ms ({n_steps} per period) must be "
                                    f"more than {2 * TIME_TOL_MS} ms, with at most "
                                    f"{MAX_SWEEP_STEPS} steps per period")
            # Align on the pump's own period boundaries inside [a, b).
            k0 = math.ceil((a - pump.start_ms - TIME_TOL_MS) / period)
            head_end = min(pump.start_ms + k0 * period, b)
            n_full = math.floor((b - head_end + TIME_TOL_MS) / period)
            items += _sweep_steps(pump, n_steps, base, a, head_end)
            if n_full > 0:
                cycle = _sweep_steps(pump, n_steps, base, head_end, head_end + period)
                items.append(RepeatBlock(segments=tuple(cycle), count=n_full))
            items += _sweep_steps(pump, n_steps, base, head_end + n_full * period, b)

    return CompiledSequence(items=items, readouts=readouts, drives_end_ms=drives_end)


@dataclass(frozen=True)
class Readout:
    """A scan delay_ms after the drives end, with the initial-state scan on its grid."""

    delay_ms: float
    spectrum: Spectrum
    baseline: Spectrum


@dataclass
class RunResult:
    readouts: list[Readout]  # by increasing delay
    stats: dict


class _Propagators:
    """Propagators of drive items, one matrix exponential per distinct generator.

    Without the pump a segment's generator is the same for every class;
    with it, the generator varies only with the pump detuning from the
    class centre.  A pumped group's generators are its class-independent
    drive matrix plus the pump-rate stack of its slots (engine.add_pump_rates).
    n_expm counts the matrices exponentiated so far: 4x4, or 5x5 with a trap
    leak; residues holds each pumped group's residue count, in run order.

    store holds, as tuples of arrays, what items and runs share, each kind
    under keys of its own length:
    - the drive matrix of each distinct (params, stimulation rate, RF rate);
    - the propagator of an item with the pump off throughout, keyed by its
      groups;
    - a pumped group's lattice slot starts, slot pump rates and residue
      count, keyed by the ensemble's transition digest, pump linewidth, pump
      rate and pump frequencies.
    An entry counts in n_expm only where it is built.
    """

    def __init__(self, ens: EnsembleState, cal: DriveCalibration, store: dict | None = None):
        self.ens = ens
        self.cal = cal
        self.store = {} if store is None else store
        self.n_expm = 0
        self.n_rows = 0
        self.residues: list[int] = []

    def _expm(self, matrices: np.ndarray, dt_ms: float) -> np.ndarray:
        self.n_expm += len(matrices)
        return engine.propagator_batch(matrices, dt_ms)

    def _drive_matrix(self, seg: DriveSegment) -> np.ndarray:
        """The class-independent part of a segment's generator, built once per store for
        each distinct (params, stimulation rate, RF rate)."""
        stim = self.cal.stim_rate(seg.stim_power_mW)
        in_band = abs(self.ens.config.delta_e_MHz - seg.rf_center_MHz) <= seg.rf_bandwidth_MHz / 2.0
        rf = engine.rf_mix_rate(seg.rf_voltage_Vpp, self.cal.rf_coupling_per_V2_ms) if in_band else 0.0
        key = (self.ens.params, stim, rf)
        if key not in self.store:
            drive = engine.DriveRates(stim_rate=stim, rf_mix_rate=rf)
            self.store[key] = (engine.build_rate_matrix(self.ens.params, drive),)
        return self.store[key][0]

    def groups(self, item) -> tuple[tuple, int | None]:
        """An item's segments grouped for shared exponentials, and its repeat count.

        Segments whose drive settings are equal and whose durations agree to
        TIME_TOL_MS form one group (drive, rate, dt_ms, members, pump): the
        calibrated drive matrix's bytes, the pump rate (0 with the pump off),
        the first member's duration, the member indices in time order and
        their pump frequencies (None with the pump off).  The count is None
        for a single segment.  The result is its own key: with the class grid
        and pump linewidth, equal keys build equal generators, also when a
        pump frequency is -0.0 in one and 0.0 in the other, as a detuning
        enters only squared and the lattice takes the two zeros as one.
        """
        if isinstance(item, RepeatBlock):
            segments, count = item.segments, item.count
        else:
            segments, count = (item,), None
        keyed: dict = {}
        for i, seg in enumerate(segments):
            rate = seg.pump_rate_per_ms if seg.pump_freq_MHz is not None else 0.0
            key = (rate, seg.stim_power_mW, seg.rf_voltage_Vpp, seg.rf_center_MHz,
                   seg.rf_bandwidth_MHz, round(seg.dt_ms / TIME_TOL_MS))
            keyed.setdefault(key, []).append(i)
        groups = []
        for (rate, *_), members in keyed.items():
            first = segments[members[0]]
            pump = tuple(segments[i].pump_freq_MHz for i in members) if rate > 0.0 else None
            groups.append((self._drive_matrix(first).tobytes(), rate, first.dt_ms,
                           tuple(members), pump))
        return tuple(groups), count

    def _lattice(self, pump: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Each row's first slot in the stack of distinct detunings, each slot's first row,
        and the number of distinct residues.

        Class i sits at c0 + i·h, so (s, i) meets the detuning (m_s - i)·h + r_s, r_s
        being row s's offset modulo h keyed to DETUNING_KEY_MHZ.  Rows sorted by
        (r_s, -m_s) take runs of n slots that overlap as their lattice positions do,
        gaps compacted away; a slot's first row holds its first (row, class) by rows.
        """
        c, n, h = self.ens.centers_MHz, self.ens.n_classes, self.ens.class_step_MHz
        if not on_lattice(c, h):
            raise ValueError(f"centers_MHz must be a uniform grid to {DETUNING_KEY_MHZ} MHz")
        m, res = np.divmod(pump - c[0], h)
        # a residue that rounds up to h is the next lattice point's 0
        carry, res = np.divmod(np.rint(res / DETUNING_KEY_MHZ), round(h / DETUNING_KEY_MHZ))
        q = -(m + carry).astype(np.intp)
        order = np.lexsort((q, res))
        step = np.minimum(np.diff(q[order]), n)
        other = np.diff(res[order]) != 0
        step[other] = n
        starts = np.empty_like(q)
        starts[order] = np.concatenate(([0], np.cumsum(step)))
        first = np.empty(starts.max() + n, dtype=np.intp)
        for s in reversed(range(len(pump))):
            first[starts[s]:starts[s] + n] = s
        return starts, first, 1 + int(np.count_nonzero(other))

    def _pump_rates(self, rate: float, pump: tuple) -> tuple[np.ndarray, np.ndarray, int]:
        """A pumped group's slot starts on the lattice, the pump rates of its slots and
        its residue count."""
        key = (self.ens.transition_digest, self.cal.pump_linewidth_MHz, rate, pump)
        if key not in self.store:
            freqs = np.array(pump)
            starts, first, residues = self._lattice(freqs)
            trans = self.ens.transition_freqs[np.arange(len(first)) - starts[first]]
            rates = engine.pump_rate_profile(rate, self.cal.pump_linewidth_MHz,
                                             freqs[first, None] - trans)
            self.store[key] = starts, rates, residues
        return self.store[key]

    def propagator(self, grouped) -> np.ndarray:
        """Per-class propagator of a grouped item, shape (n_classes, k, k).

        Each group is exponentiated in one batch: one matrix for every class
        with the pump off, one per distinct pump detuning with it.  A pumped
        segment's factor is the slice of its row's slots (_lattice), a
        pump-off one its single matrix, and _time_ordered multiplies them in
        time order.  The shape is (1, k, k) when every factor is shared.  k
        is the generator's size, and the product's columns, raised to the
        item's count, are divided by their sums once.  An item with the pump
        off throughout depends on its groups alone, so the store keeps it.
        """
        if any(pump is not None for *_, pump in grouped[0]):
            return self._product(grouped)
        if grouped not in self.store:
            self.store[grouped] = (self._product(grouped),)
        return self.store[grouped][0]

    def _product(self, grouped) -> np.ndarray:
        groups, count = grouped
        factors: list = [None] * sum(len(group[3]) for group in groups)
        for drive, rate, dt_ms, members, pump in groups:
            k = math.isqrt(len(drive) // 8)
            g, starts = np.frombuffer(drive).reshape(1, k, k), [None] * len(members)
            if pump is not None:
                starts, rates, residues = self._pump_rates(rate, pump)
                starts = starts.tolist()
                g = engine.add_pump_rates(g, rates)
                self.residues.append(residues)
            props = self._expm(g, dt_ms)
            for i, a in zip(members, starts):
                factors[i] = props, a
        acc, rows = _time_ordered(factors, self.ens.n_classes)
        self.n_rows += rows
        acc = acc if count is None else engine.matrix_power_batch(acc, count)
        return engine.normalise_columns(acc)


def _periods(symbols) -> list[int]:
    """Every p < len(symbols) with symbols[k + p] == symbols[k] for all k, smallest first.

    A period is the length less a border of the whole; the prefix function
    chains the borders from the longest down.
    """
    border, b = [0], 0
    for x in symbols[1:]:
        while b and x != symbols[b]:
            b = border[b - 1]
        b += x == symbols[b]
        border.append(b)
    periods = []
    while b:
        periods.append(len(symbols) - b)
        b = border[b - 1]
    return periods


def _shift_period(factors) -> int | None:
    """The smallest p <= K / 2 for which factor k + p is factor k moved by a fixed number of slots.

    The stacks repeat with period p, and the steps between consecutive offsets
    with period c, the number of offsets among the first p.
    """
    lit = list(accumulate(a is not None for _, a in factors))
    offsets = [a for _, a in factors if a is not None]
    steps = [b - a for a, b in zip(offsets, offsets[1:])]
    steady = set(_periods(steps))
    for p in _periods([id(s) for s, _ in factors]):
        if 2 * p > len(factors):
            break
        if lit[p - 1] >= len(steps) or lit[p - 1] in steady:
            return p
    return None


def _mul(later, earlier, rows: list) -> np.ndarray:
    """later @ earlier, with the number of matrix products it takes appended to rows."""
    out = later @ earlier
    rows.append(math.prod(out.shape[:-2]))
    return out


def _fold(factors, width, rows) -> np.ndarray:
    """Left-to-right product of factors, each stack[offset:offset + width] or a shared stack."""
    return reduce(lambda acc, m: _mul(m, acc, rows),
                  (s if a is None else s[a:a + width] for s, a in factors))


def _chunked(factors, p, n, rows) -> list:
    """Factors with each whole chunk of p factors, a shift period, multiplied out.

    Chunk j is chunk 0 moved j·delta slots, so the lowest chunk folded over
    n + (c - 1)·|delta| slots gives each of the c chunks its product as a
    slice.  Chunks with no pumped factor, or more than n slots apart, would
    share nothing and are left as they are.
    """
    c = len(factors) // p
    chunks = [factors[j * p:(j + 1) * p] for j in range(c)]
    bases = [next((a for _, a in chunk if a is not None), None) for chunk in chunks]
    if bases[0] is None or abs(bases[1] - bases[0]) > n:
        return factors
    low = bases.index(min(bases))
    prod = _fold(chunks[low], n + abs(bases[-1] - bases[0]), rows)
    return [(prod, b - bases[low]) for b in bases] + factors[c * p:]


def _windows(stack, lo, width, size, d, rows) -> np.ndarray:
    """W[j] for j < width: the time-ordered product of stack[lo + j + t·|d|] over t < size.

    Slot lo + m·|d| + r is position m of residue r.  With the positions cut
    in blocks of size, a window from position m is the suffix of m's block
    from m, then the prefix of the next block up to m + size - 1 (van Herk,
    Pattern Recognit. Lett. 13 (1992) 517; Gil & Werman, IEEE TPAMI 15
    (1993) 504).  That takes at most 3·(P + size)·|d| products for
    P = ceil(width / |d|), whatever the size.  The slots run upward in time
    for d > 0 and downward for d < 0.
    """
    e, shape = abs(d), stack.shape[1:]
    starts = -(-width // e)  # window starts per residue
    blocks = -(-(starts + size - 1) // size)
    pre = np.zeros((blocks * size * e, *shape))
    avail = stack[lo:lo + len(pre)]
    pre[:len(avail)] = avail  # slots past the stack's end are read by no window kept
    pre = pre.reshape(blocks, size, e, *shape)
    suf = pre[:-(-starts // size)].copy()

    def mul(low, high):  # the product of lower positions, then higher ones, in time order
        return _mul(high, low, rows) if d > 0 else _mul(low, high, rows)

    for t in range(1, size):
        pre[:, t] = mul(pre[:, t - 1], pre[:, t])
    for t in range(size - 2, 0, -1):
        suf[:, t] = mul(suf[:, t], suf[:, t + 1])
    suf[:, 0] = np.eye(shape[-1])  # a window from a block's start is that block's prefix
    suf, pre = suf.reshape(-1, e, *shape), pre.reshape(-1, e, *shape)
    return mul(suf[:starts], pre[size - 1:size - 1 + starts]).reshape(-1, *shape)[:width]


def _windowed(factors, n, rows) -> list:
    """Factors with each run of pumped factors on one stack, d != 0 slots apart, multiplied out.

    A run of K such factors from lowest offset x gives class i the window of
    K slots |d| apart from slot x + i.  Runs with equal stack, K and d share
    one window stack (_windows) over the union of their n-slot spans, taken
    only where it costs fewer products than folding each run, (K - 1)·n.
    """
    runs: dict = {}  # (stack id, K, d) -> [(first factor, lowest offset)]
    i = 0
    while i < len(factors):
        s, a = factors[i]
        j, d = i + 1, None
        while a is not None and j < len(factors) and factors[j][0] is s:
            step = factors[j][1] - factors[j - 1][1]
            if step == 0 or d not in (None, step):
                break
            d, j = step, j + 1
        if d is not None:
            runs.setdefault((id(s), j - i, d), []).append((i, min(a, factors[j - 1][1])))
        i = j
    out = list(factors)
    for (_, size, d), members in runs.items():
        lo = min(x for _, x in members)
        width = max(x for _, x in members) + n - lo
        if 3 * (-(-width // abs(d)) + size) * abs(d) >= (size - 1) * n * len(members):
            continue
        w = _windows(factors[members[0][0]][0], lo, width, size, d, rows)
        for i, x in members:
            out[i:i + size] = [(w, x - lo)] + [None] * (size - 1)
    return [f for f in out if f is not None]


def _time_ordered(factors, n) -> tuple[np.ndarray, int]:
    """Product F[K-1] ... F[0] of (stack, offset) factors, each stack[offset:offset + n],
    and the number of matrix products it took.

    A factor with offset None is a (1, k, k) stack every class shares.  A
    cycle with a shift period (fig6: 5 steps) first multiplies its chunks
    (_chunked).  Each run of pumped factors on one stack that moves a fixed
    number of slots per factor is then one sliding window (_windowed), and
    consecutive shared factors one matrix, before the rest is folded.
    """
    rows: list = []
    p = _shift_period(factors)
    if p is not None and p > 1:
        factors = _chunked(factors, p, n, rows)
    merged: list = []
    for s, a in _windowed(factors, n, rows):
        if a is None and merged and merged[-1][1] is None:
            merged[-1] = _mul(s, merged[-1][0], rows), None
        else:
            merged.append((s, a))
    return _fold(merged, n, rows), sum(rows)


@dataclass
class Evolution:
    """A run's readouts with its populations before any drive and at each readout.

    keys holds an identity for each snapshot: the initial state's SHA-256
    digest, then a token of the evolution that made the snapshot with the
    number of propagators applied before it (the digest again while none
    is).  Snapshots with equal keys are byte-equal, so a scan reads each
    once: byte-equal initial states share their digest, and a memo hit takes
    the keys of the run it reuses.
    """

    readouts: list[ReadoutPulse]  # by increasing delay
    snapshots: list[np.ndarray]  # the initial state, then one per readout
    stats: dict
    keys: list  # one identity per snapshot


def advance(ens: EnsembleState,
            compiled: CompiledSequence,
            calibration: DriveCalibration | None = None,
            memo: dict | None = None,
            store: dict | None = None) -> Evolution:
    """Evolve an ensemble (mutated in place) to each readout's drives_end + at_delay_ms.

    Every item and readout gap is grouped once; the groups key the run in
    memo and build its propagators.  A run whose initial populations and
    transition frequencies (by their SHA-256 digests; the ensemble holds the
    second), pump linewidth, groups and readout gaps equal those of a run
    already in memo takes that run's snapshots, snapshot keys, final
    populations and residue counts, and exponentiates and applies nothing.
    Without a memo the run is keyed against an empty one.  Runs given one
    store build what they share once in it (_Propagators): drive matrices,
    pump-off propagators and pump-rate stacks; without one a run uses a
    fresh store, in which its equal drives and readout gaps still share.
    """
    cal = calibration or DriveCalibration()
    props = _Propagators(ens, cal, store)
    items = [props.groups(item) for item in compiled.items]
    t = sum(item.dt_ms for item in compiled.items)
    gaps = []  # per readout, the grouped drive-free segment before its snapshot, or None
    for r in compiled.readouts:
        target = compiled.drives_end_ms + r.at_delay_ms
        gap = None
        if target > t + TIME_TOL_MS:
            gap = props.groups(DriveSegment(t_start_ms=t, t_end_ms=target))
            t = target
        gaps.append(gap)

    # Digests stand in for the two arrays the size of the class grid, so a
    # key holds no copy of them; the first transition column is the class
    # centre itself.
    initial = hashlib.sha256(ens.populations).digest()
    key = (initial, ens.transition_digest, cal.pump_linewidth_MHz, tuple(items), tuple(gaps))
    memo = {} if memo is None else memo
    if key in memo:
        snapshots, keys, final, residues = memo[key]
        ens.populations[:] = final
    else:
        snapshots, keys, token = [ens.populations.copy()], [initial], object()
        for grouped in items:
            engine.apply_batch(props.propagator(grouped), ens.populations)
        applied = len(items)
        for gap in gaps:
            if gap is not None:
                engine.apply_batch(props.propagator(gap), ens.populations)
                applied += 1
            snapshots.append(ens.populations.copy())
            keys.append((token, applied) if applied else initial)
        # with a readout, the last snapshot is the final state
        residues = props.residues
        memo[key] = snapshots, keys, snapshots[-1] if gaps else ens.populations.copy(), residues

    stats = {
        "n_items": len(compiled.items),
        "n_segments": compiled.n_segments,
        "n_sweep_periods": compiled.n_sweep_periods,
        "drives_end_ms": compiled.drives_end_ms,
        "n_expm_matrices": props.n_expm,
        "n_product_rows": props.n_rows,
        "class_step_MHz": ens.class_step_MHz,
        "pump_residues": list(residues),
    }
    return Evolution(compiled.readouts, snapshots, stats, keys)


def scan(runs: list[tuple[EnsembleState, Evolution]]) -> list[RunResult]:
    """Read out evolved runs, given as (ensemble, Evolution) pairs.

    A readout's baseline is the scan of its run's initial state on its grid.
    Readouts on one grid whose ensembles have equal kernel keys share one
    kernel pass, a readout_scan over their distinct snapshots, told apart by
    their Evolution keys; the kernel key is computed once per distinct
    ensemble object.  A spectrum's bytes do not depend on the others in its
    pass.  A pass's kernel entries (probe points x 4 x classes: entries
    contracted, however few Lorentzians the lattice path evaluates) are
    counted in the stats of its first run, and each run's stats list the
    lattice stride of every pass its readouts read, in order of first use,
    as readout_q (0 for the dense kernel).
    """
    passes: dict = {}  # (kernel key, grid) -> (ensemble, first run, {snapshot key: (row, snap)})
    refs = []  # per run and readout: (pass key, baseline row, spectrum row)
    kernels: dict = {}  # id of each distinct ensemble -> its kernel key
    for r, (ens, evo) in enumerate(runs):
        if id(ens) not in kernels:
            kernels[id(ens)] = kernel_key(ens)
        kernel = kernels[id(ens)]
        refs.append([])
        for j, ro in enumerate(evo.readouts, 1):
            key = (kernel, (ro.f_start_MHz, ro.f_stop_MHz, ro.n_points))
            distinct = passes.setdefault(key, (ens, r, {}))[2]
            rows = [distinct.setdefault(evo.keys[i], (len(distinct), evo.snapshots[i]))[0]
                    for i in (0, j)]
            refs[-1].append((key, *rows))

    spectra, strides, evals = {}, {}, [0] * len(runs)
    for key, (ens, r, distinct) in passes.items():
        spectra[key] = readout_scan(ens, *key[1], [s for _, s in distinct.values()])
        strides[key] = readout_stride(ens, *key[1])
        evals[r] += key[1][2] * 4 * ens.n_classes
    return [RunResult([Readout(ro.at_delay_ms, spectra[key][i], spectra[key][b])
                       for ro, (key, b, i) in zip(evo.readouts, ref)],
                      dict(evo.stats, n_kernel_evals=n,
                           readout_q=[strides[key] for key in dict.fromkeys(k for k, *_ in ref)]))
            for (_, evo), ref, n in zip(runs, refs, evals)]


def run(ens: EnsembleState,
        compiled: CompiledSequence,
        calibration: DriveCalibration | None = None) -> RunResult:
    """Execute a compiled sequence on an ensemble (mutated in place): scan its advance."""
    return scan([(ens, advance(ens, compiled, calibration))])[0]


def write_trace_csv(trace, path) -> None:
    with open(path, "w") as fh:
        fh.write("delay_ms,hole_area\n")
        for delay, area in trace:
            fh.write(f"{delay!r},{area!r}\n")
