"""Rate-equation engine for one ion class.

Populations live in a fixed basis (g1, g2, e1, e2) plus a persistent-trap
bucket that collects any population lost through non-recovering holes.  All
dynamics are generated by a 4x4 rate matrix M with column sums <= 0; the
deficit of a column is the trap leak.  Propagation over a piecewise-constant
drive segment is exact through the matrix exponential, so results do not
depend on how a constant segment is subdivided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSteadyStateError
from .levels import RateParams, TransitionSet

__all__ = [
    "IonClassState",
    "DriveRates",
    "build_rate_matrix",
    "add_pump_rates",
    "apply_batch",
    "evolve",
    "propagator",
    "propagator_batch",
    "matrix_power_batch",
    "steady_state",
    "ratio_standard",
    "ratio_effective",
    "ratio_stimulated",
    "pump_rate_profile",
    "stimulation_rate",
    "rf_mix_rate",
]

POPULATION_TOL = 1e-9

# Stimulation rate obtained per mW of stimulating power, on resonance.
# Anchored so the full available power of 20 mW produces 7 events per ms.
DEFAULT_STIM_SLOPE_PER_MW_MS = 0.35

# Excited-doublet mixing rate per squared volt of RF drive.  Calibrated so
# the full 10 Vpp drive brings the remaining total fraction of the
# stimulated pit to 8 % (the rf_pumping preset's target).
DEFAULT_RF_COUPLING_PER_V2_MS = 0.4


@dataclass(frozen=True)
class IonClassState:
    """Populations of one ion class; all five entries sum to one."""

    g1: float
    g2: float
    e1: float
    e2: float
    persistent_bleached: float = 0.0

    def __post_init__(self):
        vals = (self.g1, self.g2, self.e1, self.e2, self.persistent_bleached)
        if any(v < -POPULATION_TOL for v in vals):
            raise ValueError(f"negative population in {vals}")
        total = sum(vals)
        if abs(total - 1.0) > POPULATION_TOL:
            raise ValueError(f"populations must sum to 1, got {total!r}")

    @classmethod
    def thermal(cls) -> "IonClassState":
        """Both ground sublevels equally occupied (high-temperature limit)."""
        return cls(0.5, 0.5, 0.0, 0.0, 0.0)

    def as_vector(self) -> np.ndarray:
        """The four dynamical populations as an array (trap bucket excluded)."""
        return np.array([self.g1, self.g2, self.e1, self.e2], dtype=float)


@dataclass(frozen=True)
class DriveRates:
    """Drive strengths applied to one class during one segment.

    pump_rate holds the bidirectional optical pump rate (1/ms) on each of
    the four transitions in (g1-e1, g1-e2, g2-e1, g2-e2) order.
    """

    pump_rate: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    stim_rate: float = 0.0
    rf_mix_rate: float = 0.0

    def __post_init__(self):
        if len(self.pump_rate) != 4:
            raise ValueError("pump_rate must have one entry per transition")
        if any(r < 0 for r in self.pump_rate):
            raise ValueError("pump rates must be >= 0")
        if self.stim_rate < 0 or self.rf_mix_rate < 0:
            raise ValueError("drive rates must be >= 0")


NO_DRIVE = DriveRates()


def build_rate_matrix(params: RateParams, drive: DriveRates = NO_DRIVE) -> np.ndarray:
    """Assemble the 4x4 generator for the given relaxation and drive rates.

    Columns are source levels in (g1, g2, e1, e2) order.  Included processes:

    * ground spin flips g1 <-> g2 at 1 / (2 tz);
    * spontaneous decay from each excited level at 1 / t1 total, split into
      a spin-preserving branch (beta) and a spin-flipping branch (1 - beta);
    * bidirectional optical pumping on each driven transition (equal rates
      up and down, so a saturating drive equalises the pair);
    * stimulated de-excitation at stim_rate, returned to the ground doublet
      with spin-preserving weight beta_z2 after adiabatic elimination of the
      intermediate level;
    * excited-state mixing e1 <-> e2 at rf_mix_rate;
    * a trap leak from the excited levels proportional to
      persistent_fraction, which makes the column sums negative.
    """
    w = 0.5 / params.tz_ms
    a_same = params.beta / params.t1_ms
    a_flip = (1.0 - params.beta) / params.t1_ms

    m = np.zeros((4, 4))

    # Ground spin flips.
    m[0, 1] += w
    m[1, 0] += w
    m[0, 0] -= w
    m[1, 1] -= w

    # Spontaneous decay; e1 pairs with g1, e2 with g2.
    m[0, 2] += a_same
    m[1, 2] += a_flip
    m[1, 3] += a_same
    m[0, 3] += a_flip
    m[2, 2] -= a_same + a_flip
    m[3, 3] -= a_same + a_flip

    if any(drive.pump_rate):
        add_pump_rates(m, np.asarray(drive.pump_rate, dtype=float))

    # Stimulated emission from e1, then e2, through the eliminated
    # intermediate level; e1 pairs with g1, e2 with g2.
    if drive.stim_rate:
        rate, bz = drive.stim_rate, params.beta_z2
        for up, g_same, g_other in ((2, 0, 1), (3, 1, 0)):
            m[g_same, up] += rate * bz
            m[g_other, up] += rate * (1.0 - bz)
            m[up, up] -= rate

    # Excited-state mixing.
    if drive.rf_mix_rate > 0.0:
        r = drive.rf_mix_rate
        m[2, 3] += r
        m[3, 2] += r
        m[2, 2] -= r
        m[3, 3] -= r

    # Persistent-trap leak; the only process that breaks conservation.
    if params.persistent_fraction > 0.0:
        leak = params.persistent_fraction * params.persistent_leak_scale
        m[2, 2] -= leak
        m[3, 3] -= leak

    return m


def add_pump_rates(matrices: np.ndarray, rates: np.ndarray) -> None:
    """Add bidirectional optical pumping to generators, in place.

    matrices has shape (..., 4, 4) and rates shape (..., 4), one rate per
    transition in (g1-e1, g1-e2, g2-e1, g2-e2) order.
    """
    for k, (lo, up) in enumerate(zip(TransitionSet.LOWER, TransitionSet.UPPER)):
        r = rates[..., k]
        matrices[..., up, lo] += r
        matrices[..., lo, lo] -= r
        matrices[..., lo, up] += r
        matrices[..., up, up] -= r


def propagator(matrix: np.ndarray, dt_ms: float) -> np.ndarray:
    """exp(M dt) for a single generator."""
    return propagator_batch(matrix[None, :, :], dt_ms)[0]


# Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179: degree-13 Pade b0..b13 and theta_13.
_B13 = (64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800, 129060195264000,
        10559470521600, 670442572800, 33522128640, 1323241920, 40840800, 960960, 16380, 182, 1)
_THETA13 = 5.371920351148152


def propagator_batch(matrices: np.ndarray, dt_ms: float) -> np.ndarray:
    """exp(M dt) for a stack of generators, shape (n, 4, 4), by Pade scaling and squaring.

    Each M dt is scaled by its own power of two to a 1-norm of at most theta_13
    and squared back, so a propagator's bytes do not depend on the batch.
    """
    if dt_ms < 0:
        raise ValueError(f"dt_ms must be >= 0, got {dt_ms}")
    mats = np.asarray(matrices, dtype=float)
    if not np.all(np.isfinite(mats)):
        raise ValueError("rate matrix contains non-finite entries")
    eye = np.eye(mats.shape[-1])
    if dt_ms == 0.0:
        return np.broadcast_to(eye, mats.shape).copy()

    s = np.maximum(np.frexp(np.abs(mats).sum(axis=-2).max(axis=-1) * dt_ms / _THETA13)[1], 0)
    a = np.ldexp(mats * dt_ms, -s[:, None, None])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _B13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    out = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):  # square each matrix its own s times
        sq = s > k
        if sq.all():
            out = out @ out
        else:
            out[sq] = out[sq] @ out[sq]
    return out


def matrix_power_batch(propagators: np.ndarray, n: int) -> np.ndarray:
    """Stacked integer matrix power by repeated squaring."""
    if n < 0:
        raise ValueError("power must be >= 0")
    result = np.broadcast_to(np.eye(propagators.shape[-1]), propagators.shape).copy()
    base = propagators.copy()
    k = n
    while k:
        if k & 1:
            result = base @ result
        base = base @ base
        k >>= 1
    return result


def apply_batch(props: np.ndarray, pops: np.ndarray) -> None:
    """Advance populations in place, crediting any leak to the trap bucket.

    props has shape (n, 4, 4), or (1, 4, 4) for one propagator shared by
    every row; pops has shape (n, 5) with the trap bucket last.
    Round-off can leave a population or a leak a hair below zero; values
    down to -1e-10 are clamped to zero, and anything lower raises.
    """
    v = pops[:, :4]
    old = v.sum(axis=1)
    new = np.matmul(props, v[:, :, None])[:, :, 0]
    tiny = (new < 0.0) & (new > -1e-10)
    new[tiny] = 0.0
    if np.any(new < 0.0):
        raise ArithmeticError("propagation produced a negative population")
    leaked = old - new.sum(axis=1)
    leaked[(leaked < 0.0) & (leaked > -1e-10)] = 0.0
    if np.any(leaked < 0.0):
        raise ArithmeticError("propagation created population")
    pops[:, :4] = new
    pops[:, 4] += leaked


def evolve(state: IonClassState, matrix: np.ndarray, dt_ms: float) -> IonClassState:
    """Propagate a class state exactly over a constant-drive interval.

    Population lost by the four dynamical levels (the trap leak) is credited
    to persistent_bleached, so the five-entry total is conserved.
    """
    pops = np.array([[state.g1, state.g2, state.e1, state.e2, state.persistent_bleached]])
    apply_batch(propagator(matrix, dt_ms)[None], pops)
    return IonClassState(*(float(x) for x in pops[0]))


def steady_state(matrix: np.ndarray) -> IonClassState:
    """Stationary distribution of a conservative generator.

    Raises DegenerateSteadyStateError when the kernel is not one-dimensional
    (disconnected level sets) and ValueError when the matrix leaks
    population and therefore admits no stationary distribution.
    """
    m = np.asarray(matrix, dtype=float)
    colsums = m.sum(axis=0)
    scale = np.abs(m).max() + 1.0
    if np.any(colsums < -1e-9 * scale):
        raise ValueError("matrix leaks population; no steady state exists")

    _, s, vt = np.linalg.svd(m)
    if s[-2] < 1e-9 * scale:
        raise DegenerateSteadyStateError("rate matrix has a degenerate null space")
    vec = vt[-1]
    total = vec.sum()
    if abs(total) < 1e-12:
        raise DegenerateSteadyStateError("null vector has zero total population")
    vec = vec / total
    if np.any(vec < -1e-9):
        raise DegenerateSteadyStateError("null vector is not a population distribution")
    vec = np.clip(vec, 0.0, None)
    vec /= vec.sum()
    return IonClassState(g1=vec[0], g2=vec[1], e1=vec[2], e2=vec[3])


def ratio_standard(t1_ms: float, tz_ms: float) -> float:
    """Saturated ground-population ratio 1 + 2 tz / t1.

    Limit of perfectly spin-preserving optical cycling, where only
    spontaneous spin-flip decay transfers population.
    """
    if t1_ms <= 0 or tz_ms <= 0:
        raise ValueError("lifetimes must be > 0")
    return 1.0 + 2.0 * tz_ms / t1_ms


def ratio_effective(t1_ms: float, tz_ms: float, beta: float) -> float:
    """Saturated ratio with branching: 1 + 2 tz (1 - beta) / t1."""
    if t1_ms <= 0 or tz_ms <= 0:
        raise ValueError("lifetimes must be > 0")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return 1.0 + 2.0 * tz_ms * (1.0 - beta) / t1_ms


def ratio_stimulated(beta: float, gamma_per_ms: float, tz_ms: float) -> float:
    """Saturated ratio when stimulated de-excitation at rate gamma dominates.

    Every stimulated return carries the same spin-flip probability (1 - beta)
    as spontaneous decay, so the achievable ratio grows linearly with the
    stimulation rate: 1 + 2 (1 - beta) gamma tz.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if gamma_per_ms < 0 or tz_ms <= 0:
        raise ValueError("gamma must be >= 0 and tz > 0")
    return 1.0 + 2.0 * (1.0 - beta) * gamma_per_ms * tz_ms


def pump_rate_profile(peak_rate_per_ms: float, linewidth_MHz: float,
                      detuning_MHz) -> np.ndarray | float:
    """Lorentzian pump-rate response, unit peak at zero detuning.

    rate = peak * (hw)^2 / (detuning^2 + (hw)^2) with hw = linewidth / 2.
    Accepts scalar or array detunings.
    """
    if peak_rate_per_ms < 0:
        raise ValueError("peak rate must be >= 0")
    if linewidth_MHz <= 0:
        raise ValueError("linewidth must be > 0")
    hw2 = (0.5 * linewidth_MHz) ** 2
    d = np.asarray(detuning_MHz, dtype=float)
    out = peak_rate_per_ms * hw2 / (d * d + hw2)
    return float(out) if out.ndim == 0 else out


def stimulation_rate(power_mW: float,
                     slope_per_mW_ms: float = DEFAULT_STIM_SLOPE_PER_MW_MS) -> float:
    """Stimulated de-excitation rate (1/ms), linear in the applied power."""
    if power_mW < 0:
        raise ValueError("power must be >= 0")
    if slope_per_mW_ms < 0:
        raise ValueError("slope must be >= 0")
    return slope_per_mW_ms * power_mW


def rf_mix_rate(voltage_Vpp: float, coupling_per_V2_ms: float) -> float:
    """Excited-doublet mixing rate (1/ms), quadratic in the drive voltage."""
    if voltage_Vpp < 0:
        raise ValueError("voltage must be >= 0")
    if coupling_per_V2_ms < 0:
        raise ValueError("coupling must be >= 0")
    return coupling_per_V2_ms * voltage_Vpp ** 2
