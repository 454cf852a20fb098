"""Inhomogeneous ensemble of ion classes and its absorption spectrum.

A class is the set of ions whose g1 -> e1 transition sits at one frequency
offset from the optical line center.  Classes are laid out on a uniform
grid; their statistical weights follow a configurable inhomogeneous profile.
The optical depth seen by a weak probe is the weighted sum, over classes and
over the four transitions of each class, of the lower-minus-upper population
difference times a Lorentzian line of the probe-limited width.

That sum is linear in the populations: OD = sigma * K @ amp, where the
kernel K depends only on the probe grid, the transition frequencies and the
probe linewidth.  A scan therefore evaluates K once, in blocks of probe rows
small enough to stay in cache, and contracts each block with every
population snapshot it is given.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

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
    "kernel_key",
    "hole_area",
    "predicted_features",
]

PROFILE_SHAPES = ("gaussian", "lorentzian", "flat")

# Kernel entries per block of probe rows: 512 KiB, which stays in a core's L2 cache.
_BLOCK_ENTRIES = 1 << 16


class GridResolutionWarning(UserWarning):
    """The class grid is too coarse to resolve the level splittings."""


@dataclass(frozen=True)
class InhomogeneousProfile:
    """Shape and discretisation of the inhomogeneous line.

    The class grid spans center +- grid_span/2 with uniform step grid_step;
    fwhm_MHz is ignored for the flat shape.
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
        if self.shape != "flat" and self.fwhm_MHz <= 0:
            raise ValueError("fwhm_MHz must be > 0")

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
        rows = zip(self.freqs_MHz.tolist(), self.optical_depth.tolist(), self.transmission.tolist())
        text = "".join(f"{f!r},{od!r},{tr!r}\n" for f, od, tr in rows)
        with open(path, "w") as fh:
            fh.write("freq_MHz,optical_depth,transmission\n" + text)

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
    """

    config: ZeemanConfig
    params: RateParams
    centers_MHz: np.ndarray
    weights: np.ndarray
    populations: np.ndarray
    probe_linewidth_MHz: float = 1.0

    @property
    def n_classes(self) -> int:
        return len(self.centers_MHz)

    def transition_freqs(self) -> np.ndarray:
        """Transition frequencies, shape (n_classes, 4)."""
        return np.stack(transition_set(self.centers_MHz, self.config).as_tuple(), axis=1)


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
    de = config.delta_e_MHz
    if de > 0 and profile.grid_step_MHz > de / 4.0:
        warnings.warn(
            f"grid step {profile.grid_step_MHz} MHz exceeds a quarter of the "
            f"excited splitting {de} MHz; side structure will be aliased",
            GridResolutionWarning,
            stacklevel=2,
        )

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
    if target_od is not None:
        if target_od <= 0:
            raise ValueError("target_od must be > 0")
        base = absorbance(ens, profile.center_MHz)
        if base <= 0:
            raise ValueError("thermal ensemble has no absorption at the profile center")
        ens.params = replace(params, sigma_scale=params.sigma_scale * target_od / base)
    return ens


def kernel_key(ens: EnsembleState) -> bytes:
    """The bytes of every ensemble field _optical_depth reads.

    Scans of two ensembles with equal keys on one grid evaluate the same
    kernel, so they can share a pass; a field read there belongs here.
    """
    fields = (ens.transition_freqs().ravel(), ens.weights,
              [ens.probe_linewidth_MHz, ens.params.sigma_scale])
    return np.concatenate(fields, dtype=float).tobytes()


def _optical_depth(ens: EnsembleState, freqs: np.ndarray, snapshots) -> np.ndarray:
    """Weak-probe optical depth of each population snapshot, shape (k, n_freq).

    Computed as sigma * sum over classes and transitions of
    weight * (N_lower - N_upper) * unit-peak Lorentzian.  Inverted
    transitions contribute negative depth (gain).  Each kernel block is
    contracted with one snapshot at a time, so a snapshot's depths do not
    depend on how many others share the scan.
    """
    f0 = ens.transition_freqs().ravel()
    amps = [(ens.weights[:, None] * (p[:, TransitionSet.LOWER] - p[:, TransitionSet.UPPER])).ravel()
            for p in snapshots]
    hw2 = (0.5 * ens.probe_linewidth_MHz) ** 2

    out = np.empty((len(amps), len(freqs)))
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
    return ens.params.sigma_scale * out


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
