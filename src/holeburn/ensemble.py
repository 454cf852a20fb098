"""Inhomogeneous ensemble of ion classes and its absorption spectrum.

A class is the set of ions whose g1 -> e1 transition sits at one frequency
offset from the optical line center.  Classes are laid out on a uniform
grid; their statistical weights follow a configurable inhomogeneous profile.
The optical depth seen by a weak probe is the weighted sum, over classes and
over the four transitions of each class, of the lower-minus-upper population
difference times a Lorentzian line of the probe-limited width.

That sum is linear in the populations: OD = sigma * K @ amp, where the
kernel K depends only on the probe grid, the transition frequencies and the
probe linewidth.  When the probe step divides the class step h, q times, the
entry of probe j and class i depends only on j - q*i: each residue j mod q
and transition reads one Lorentzian line sampled h apart, convolved with the
snapshot's amplitudes, and no kernel matrix is built.  Other probe grids
evaluate K in blocks of probe rows small enough to stay in cache and
contract each block with every population snapshot they are given.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GridMismatchError
from .levels import RateParams, TransitionSet, ZeemanConfig, transition_set

__all__ = [
    "InhomogeneousProfile",
    "EnsembleState",
    "Spectrum",
    "SpectralFeature",
    "GridResolutionWarning",
    "build_ensemble",
    "absorbance",
    "readout_scan",
    "readout_stride",
    "write_spectra",
    "kernel_key",
    "hole_area",
    "predicted_features",
]

PROFILE_SHAPES = ("gaussian", "lorentzian", "flat")

# Kernel entries per block of probe rows: 512 KiB, which stays in a core's L2 cache.
_BLOCK_ENTRIES = 1 << 16

# Class centres and probe points may stray this far from their lattice, and pump
# residues modulo the class step closer than this share a propagator.  Rounding of
# both is about 1e-14 MHz on the bundled grids; the narrowest pump line is 0.25 MHz wide.
DETUNING_KEY_MHZ = 1e-11


def line_error(name: str, value: float, width: bool = True) -> str | None:
    """Why a Lorentzian line refuses value as its width (or, without width, detuning), else
    None: it squares a detuning and half a width, and a width is > 0."""
    if not np.isfinite(value * value) or width and not (value > 0 and (0.5 * value) ** 2 > 0):
        return (f"{name} must {'be > 0 and ' * width}square to a finite number"
                f"{', its half to > 0' * width}, got {value!r}")


class GridResolutionWarning(UserWarning):
    """The class grid is too coarse to resolve the level splittings."""


@dataclass(frozen=True)
class InhomogeneousProfile:
    """Shape and discretisation of the inhomogeneous line.

    The class grid spans center +- grid_span/2 with uniform step grid_step,
    the span a whole number of steps; fwhm_MHz is ignored for the flat shape.
    """

    center_MHz: float = 0.0
    fwhm_MHz: float = 1000.0
    shape: str = "flat"
    grid_span_MHz: float = 500.0
    grid_step_MHz: float = 0.5

    def __post_init__(self):
        if self.shape not in PROFILE_SHAPES:
            raise ValueError(f"shape must be one of {PROFILE_SHAPES}, got {self.shape!r}")
        if self.grid_step_MHz <= 0:
            raise ValueError("grid_step_MHz must be > 0")
        if self.grid_span_MHz < 10.0 * self.grid_step_MHz:
            raise ValueError("grid_span_MHz must be at least 10 grid steps")
        steps = self.grid_span_MHz / self.grid_step_MHz
        if not abs(self.grid_span_MHz - np.rint(steps) * self.grid_step_MHz) <= DETUNING_KEY_MHZ:
            raise ValueError(f"grid_span_MHz must be a whole number of grid steps to "
                             f"{DETUNING_KEY_MHZ} MHz, got {steps!r} steps")
        if self.shape != "flat" and (error := line_error("fwhm_MHz", self.fwhm_MHz)):
            raise ValueError(error)

    def weights(self, centers_MHz: np.ndarray) -> np.ndarray:
        x = np.asarray(centers_MHz, dtype=float) - self.center_MHz
        if self.shape == "flat":
            return np.ones_like(x)
        if self.shape == "gaussian":
            sigma = self.fwhm_MHz / (2.0 * np.sqrt(2.0 * np.log(2.0)))
            return np.exp(-0.5 * (x / sigma) ** 2)
        hw2 = (0.5 * self.fwhm_MHz) ** 2
        return hw2 / (x * x + hw2)


@dataclass
class Spectrum:
    """Optical depth and transmission on a frequency grid."""

    freqs_MHz: np.ndarray
    optical_depth: np.ndarray

    def __post_init__(self):
        self.freqs_MHz = np.asarray(self.freqs_MHz, dtype=float)
        self.optical_depth = np.asarray(self.optical_depth, dtype=float)
        if self.freqs_MHz.shape != self.optical_depth.shape:
            raise ValueError("frequency and optical-depth grids differ in shape")

    @property
    def transmission(self) -> np.ndarray:
        return np.exp(-self.optical_depth)

    def check_grid(self, baseline: Spectrum) -> None:
        """Raise GridMismatchError unless baseline is on this spectrum's frequency grid."""
        if not np.array_equal(self.freqs_MHz, baseline.freqs_MHz):
            raise GridMismatchError("spectrum and baseline are on different frequency grids")

    def to_csv(self, path) -> None:
        write_spectra([(path, self)])

    @classmethod
    def from_csv(cls, path) -> "Spectrum":
        with warnings.catch_warnings():
            # An empty file is reported below, not as loadtxt's warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if not len(data):
            raise ValueError("spectrum CSV has no data rows")
        if data.shape[1] != 3:
            raise ValueError("spectrum CSV must have 3 columns")
        spec = cls(data[:, 0], data[:, 1])
        if np.max(np.abs(data[:, 2] - spec.transmission)) > 1e-12:
            raise ValueError("transmission is not exp(-optical_depth)")
        return spec


def write_spectra(named) -> None:
    """Write each (path, spectrum) pair as CSV, formatting each distinct frequency grid once.

    Every row is the repr of its frequency, optical depth and transmission,
    so a file's bytes do not depend on the spectra written with it.
    """
    grids: dict = {}  # frequency bytes -> the formatted first column
    for path, spec in named:
        key = spec.freqs_MHz.tobytes()
        if key not in grids:
            grids[key] = [f"{f!r}," for f in spec.freqs_MHz.tolist()]
        # each row's frequency, then the rest of the row
        cells = [""] * (2 * len(grids[key]))
        cells[::2] = grids[key]
        cells[1::2] = [f"{od!r},{tr!r}\n" for od, tr in zip(spec.optical_depth.tolist(),
                                                            spec.transmission.tolist())]
        with open(path, "w") as fh:
            fh.write("freq_MHz,optical_depth,transmission\n" + "".join(cells))


@dataclass(frozen=True)
class SpectralFeature:
    """A predicted hole or antihole position for a single pumped class."""

    freq_MHz: float
    kind: str  # "hole" or "antihole"
    overlapping: bool = False


@dataclass
class EnsembleState:
    """Mutable population bookkeeping for the whole class grid.

    populations has shape (n_classes, 5) with columns (g1, g2, e1, e2,
    persistent_bleached); rows sum to one.  probe_linewidth_MHz is the
    Lorentzian FWHM of the readout; the pump response has its own width,
    DriveCalibration.pump_linewidth_MHz.

    transition_freqs, shape (n_classes, 4), and its SHA-256
    transition_digest are no arguments: each state derives them from its own
    centers_MHz and config, a replace() included.
    """

    config: ZeemanConfig
    params: RateParams
    centers_MHz: np.ndarray
    weights: np.ndarray
    populations: np.ndarray
    probe_linewidth_MHz: float = 1.0
    transition_freqs: np.ndarray = field(init=False, repr=False)
    transition_digest: bytes = field(init=False, repr=False)

    def __post_init__(self):
        ts = transition_set(self.centers_MHz, self.config)
        self.transition_freqs = np.stack(ts.as_tuple(), axis=1)
        self.transition_digest = hashlib.sha256(self.transition_freqs).digest()

    @property
    def n_classes(self) -> int:
        return len(self.centers_MHz)

    @property
    def class_step_MHz(self) -> float:
        """The step the class centres use: their span over n_classes - 1."""
        c = self.centers_MHz
        return float((c[-1] - c[0]) / (len(c) - 1))


def build_ensemble(profile: InhomogeneousProfile,
                   config: ZeemanConfig,
                   params: RateParams,
                   target_od: float | None = 1.0,
                   probe_linewidth_MHz: float = 1.0) -> EnsembleState:
    """Construct a thermal ensemble on the profile's class grid.

    Every class starts with both ground sublevels equally occupied.  When
    ``target_od`` is given, the cross-section scale is recalibrated so the
    unpumped optical depth at the profile center equals it; pass None to
    keep ``params.sigma_scale`` as supplied.
    """
    if probe_linewidth_MHz <= 0:
        raise ValueError("probe_linewidth_MHz must be > 0")
    half = profile.grid_span_MHz / 2.0
    n = int(round(profile.grid_span_MHz / profile.grid_step_MHz)) + 1
    centers = profile.center_MHz + np.linspace(-half, half, n)
    weights = profile.weights(centers)

    pops = np.zeros((n, 5))
    pops[:, 0] = 0.5
    pops[:, 1] = 0.5

    ens = EnsembleState(
        config=config,
        params=params,
        centers_MHz=centers,
        weights=weights,
        populations=pops,
        probe_linewidth_MHz=probe_linewidth_MHz,
    )
    step, de = ens.class_step_MHz, config.delta_e_MHz
    if de > 0 and step > de / 4.0:
        warnings.warn(
            f"grid step {step} MHz exceeds a quarter of the "
            f"excited splitting {de} MHz; side structure will be aliased",
            GridResolutionWarning,
            stacklevel=2,
        )
    if target_od is not None:
        if target_od <= 0:
            raise ValueError("target_od must be > 0")
        base = absorbance(ens, profile.center_MHz)
        if base <= 0:
            raise ValueError("thermal ensemble has no absorption at the profile center")
        ens.params = replace(params, sigma_scale=params.sigma_scale * target_od / base)
    return ens


def kernel_key(ens: EnsembleState) -> bytes:
    """The bytes of every ensemble field _optical_depth reads, the transition
    table by its digest.

    Scans of two ensembles with equal keys on one grid evaluate the same
    kernel, so they can share a pass; a field read there belongs here.
    """
    rest = np.concatenate((ens.weights, [ens.probe_linewidth_MHz, ens.params.sigma_scale]))
    return ens.transition_digest + rest.tobytes()


def on_lattice(points: np.ndarray, step: float) -> bool:
    """Whether every point lies within DETUNING_KEY_MHZ of points[0] + k·step."""
    return bool(np.abs(points[0] + step * np.arange(len(points)) - points).max()
                <= DETUNING_KEY_MHZ)


def _probe_stride(centers: np.ndarray, freqs: np.ndarray) -> int:
    """Probe points per class step when the probe grid lies on the class lattice, else 0.

    That is q = h / (probe step) for a class grid uniform to DETUNING_KEY_MHZ
    with step h, when every probe point lies on the lattice of step h / q
    (one point lies on any, with q = 1).  A grid of fewer than q² points,
    fewer than q rows per residue, is refused too: its lines are too short to
    pay for themselves.  Only the two grids are read, never the snapshots.
    """
    n, rows = len(centers), len(freqs)
    if n < 2:
        return 0
    h = (centers[-1] - centers[0]) / (n - 1)
    q = 1 if rows == 1 else round(h * (rows - 1) / (freqs[-1] - freqs[0]))
    if q < 1 or rows < q * q or not (on_lattice(centers, h) and on_lattice(freqs, h / q)):
        return 0
    return q


def _lattice_depth(out, amps, freqs, f0, hw2, q) -> None:
    """Unscaled depths on the lattice: one line and convolution per residue and transition.

    Probe row rho + q·m meets class i's transition t at the detuning
    (freqs[rho] - f0[0, t]) + (m - i)·h, so each residue's line holds m - i
    from 1 - n up to its last row, and the valid part of its convolution with
    a snapshot's amplitudes is that residue's depths.
    """
    n = len(f0)
    # f0[:, 0], each class's g1 -> e1 line, is its centre
    steps = (f0[-1, 0] - f0[0, 0]) / (n - 1) * np.arange(1 - n, len(freqs[::q]))
    for rho in range(q):
        rows = out[:, rho::q]
        lines = (freqs[rho] - f0[0])[:, None] + steps[:rows.shape[1] + n - 1]
        np.square(lines, out=lines)
        lines += hw2
        np.divide(hw2, lines, out=lines)
        for row, amp in zip(rows, amps):
            row[:] = sum(np.convolve(line, a, "valid") for line, a in zip(lines, amp.T))


def _dense_depth(out, amps, freqs, f0, hw2) -> None:
    """Unscaled depths from the kernel, built in blocks of probe rows."""
    f0 = f0.ravel()
    amps = [amp.ravel() for amp in amps]
    step = max(1, _BLOCK_ENTRIES // max(len(f0), 1))
    buf = np.empty((min(step, len(freqs)), len(f0)))
    for i in range(0, len(freqs), step):
        probe = freqs[i:i + step]
        k = buf[:len(probe)]
        np.subtract(probe[:, None], f0, out=k)
        np.square(k, out=k)
        k += hw2
        np.divide(hw2, k, out=k)
        for row, amp in zip(out, amps):
            row[i:i + step] = k @ amp


def _optical_depth(ens: EnsembleState, freqs: np.ndarray, snapshots) -> np.ndarray:
    """Weak-probe optical depth of each population snapshot, shape (k, n_freq).

    Computed as sigma * sum over classes and transitions of
    weight * (N_lower - N_upper) * unit-peak Lorentzian.  Inverted
    transitions contribute negative depth (gain).  A probe grid on the class
    lattice (_probe_stride) is read out by convolution, any other from dense
    kernel blocks; the path is chosen from the two grids alone, and each
    snapshot is contracted on its own, so a snapshot's depths do not depend
    on how many others share the scan.
    """
    f0 = ens.transition_freqs
    amps = [ens.weights[:, None] * (p[:, TransitionSet.LOWER] - p[:, TransitionSet.UPPER])
            for p in snapshots]
    hw2 = (0.5 * ens.probe_linewidth_MHz) ** 2
    out = np.empty((len(amps), len(freqs)))
    q = _probe_stride(ens.centers_MHz, freqs)
    if q:
        _lattice_depth(out, amps, freqs, f0, hw2, q)
    else:
        _dense_depth(out, amps, freqs, f0, hw2)
    return ens.params.sigma_scale * out


def readout_stride(ens: EnsembleState, f_start_MHz: float, f_stop_MHz: float,
                   n_points: int) -> int:
    """The lattice stride q a readout_scan of this grid reads out with, 0 for the dense kernel."""
    return _probe_stride(ens.centers_MHz, np.linspace(f_start_MHz, f_stop_MHz, n_points))


def absorbance(ens: EnsembleState, probe_MHz: float) -> float:
    """Optical depth alpha-L at a single probe frequency."""
    return float(_optical_depth(ens, np.array([float(probe_MHz)]), [ens.populations])[0, 0])


def readout_scan(ens: EnsembleState, f_start_MHz: float, f_stop_MHz: float,
                 n_points: int, snapshots=None):
    """Snapshot transmission spectrum over a frequency window.

    The probe is treated as non-perturbative: populations are read, not
    driven, so the scan has no duration.  Without snapshots the ensemble's
    current populations are scanned and one Spectrum is returned; given a
    sequence of (n_classes, 5) population snapshots, one kernel pass scans
    them all and a list with one Spectrum per snapshot is returned.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if not f_stop_MHz > f_start_MHz:
        raise ValueError("f_stop_MHz must exceed f_start_MHz")
    freqs = np.linspace(f_start_MHz, f_stop_MHz, n_points)
    if snapshots is None:
        return Spectrum(freqs, _optical_depth(ens, freqs, [ens.populations])[0])
    return [Spectrum(freqs, od) for od in _optical_depth(ens, freqs, snapshots)]


def hole_area(spectrum: Spectrum, baseline: Spectrum,
              window_MHz: tuple[float, float]) -> float:
    """Integrated depth of a hole: trapezoid of (baseline - current) depth.

    Positive for a hole, negative over an antihole.  Both spectra must share
    the same frequency grid.
    """
    spectrum.check_grid(baseline)
    lo, hi = window_MHz
    if not hi > lo:
        raise ValueError("window must satisfy hi > lo")
    mask = (spectrum.freqs_MHz >= lo) & (spectrum.freqs_MHz <= hi)
    if mask.sum() < 2:
        raise ValueError("window contains fewer than two grid points")
    f = spectrum.freqs_MHz[mask]
    d = baseline.optical_depth[mask] - spectrum.optical_depth[mask]
    return float(np.trapezoid(d, f))


def predicted_features(pump_MHz: float, config: ZeemanConfig) -> list[SpectralFeature]:
    """Hole and antihole positions for the class pumped on its g1 -> e1 line.

    Holes appear on both transitions sharing the depleted ground level,
    antiholes on the two transitions from the enriched one.  When the two
    splittings coincide, the antihole at pump - (dg - de) lands on the pump
    hole and both entries are flagged as overlapping.
    """
    ts = transition_set(pump_MHz, config)
    feats = [
        SpectralFeature(ts.f1_MHz, "hole"),
        SpectralFeature(ts.f2_MHz, "hole"),
        SpectralFeature(ts.f3_MHz, "antihole"),
        SpectralFeature(ts.f4_MHz, "antihole"),
    ]
    freqs = [f.freq_MHz for f in feats]
    out = []
    for i, feat in enumerate(feats):
        overlap = any(
            j != i and abs(freqs[j] - feat.freq_MHz) < 1e-9 for j in range(len(feats))
        )
        out.append(replace(feat, overlapping=overlap))
    return out
