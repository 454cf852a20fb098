"""Rate-equation engine for one ion class.

Populations live in a fixed basis (g1, g2, e1, e2) plus a persistent trap
that collects any population lost through non-recovering holes.  All dynamics
are generated by a rate matrix M whose columns sum to zero: 4x4 over the four
levels, or 5x5 when a trap leak makes the trap an absorbing fifth state.
Propagation over a piecewise-constant drive segment is exact through the
matrix exponential, so results do not depend on how a constant segment is
subdivided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce

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
    "normalise_columns",
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
        # r >= 0 is False for NaN, so a NaN rate is refused too
        for name, rates in (("pump_rate", self.pump_rate), ("stim_rate", (self.stim_rate,)),
                            ("rf_mix_rate", (self.rf_mix_rate,))):
            if not all(r >= 0 for r in rates):
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")


NO_DRIVE = DriveRates()


def build_rate_matrix(params: RateParams, drive: DriveRates = NO_DRIVE) -> np.ndarray:
    """Assemble the generator for the given relaxation and drive rates.

    Columns are source levels in (g1, g2, e1, e2) order, followed by the
    persistent trap when the params leak; the generator is then 5x5, else
    4x4.  Every column sums to zero.  Included processes:

    * ground spin flips g1 <-> g2 at 1 / (2 tz);
    * spontaneous decay from each excited level at 1 / t1 total, split into
      a spin-preserving branch (beta) and a spin-flipping branch (1 - beta);
    * stimulated de-excitation at stim_rate, returned to the ground doublet
      with spin-preserving weight beta_z2 after adiabatic elimination of the
      intermediate level;
    * excited-state mixing e1 <-> e2 at rf_mix_rate;
    * a trap leak from each excited level proportional to
      persistent_fraction, into the trap, which nothing leaves;
    * bidirectional optical pumping on each driven transition (equal rates
      up and down, so a saturating drive equalises the pair).

    The pump goes last, through add_pump_rates, as the ensemble path adds a
    stack of pump rates to one pump-free generator, so one drive gives the
    same bytes either way.
    """
    w = 0.5 / params.tz_ms
    a_same = params.beta / params.t1_ms
    a_flip = (1.0 - params.beta) / params.t1_ms
    s_same = drive.stim_rate * params.beta_z2
    s_flip = drive.stim_rate * (1.0 - params.beta_z2)
    r = drive.rf_mix_rate
    leak = params.persistent_fraction * params.persistent_leak_scale

    m = np.zeros((5, 5) if leak else (4, 4))

    def flow(*rows):
        # each (from, to, rate) is gained at (to, from) and lost at (from, from);
        # a zero rate would change no entry, so it is skipped
        for src, dst, rate in rows:
            if rate:
                m[dst, src] += rate
                m[src, src] -= rate

    # Ground spin flips, then spontaneous decay; e1 pairs with g1, e2 with g2.
    flow((0, 1, w), (1, 0, w), (2, 0, a_same), (2, 1, a_flip), (3, 1, a_same), (3, 0, a_flip))
    # Stimulated return through the eliminated intermediate level, then
    # excited-state mixing.
    flow((2, 0, s_same), (2, 1, s_flip), (3, 1, s_same), (3, 0, s_flip), (2, 3, r), (3, 2, r))
    # Persistent-trap leak into the fifth state.
    flow((2, 4, leak), (3, 4, leak))
    if any(drive.pump_rate):
        m = add_pump_rates(m, np.asarray(drive.pump_rate, dtype=float))
    return m


def add_pump_rates(generators: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Generators with bidirectional optical pumping added, as a new array.

    rates has shape (..., 4), one rate per transition in (g1-e1, g1-e2, g2-e1, g2-e2)
    order, and the result (..., k, k): one product of the rates with the fixed (4, k^2)
    pattern of _pump_pattern, plus generators, (k, k) or broadcast against the result.
    Every pattern entry is 0 or +-1, and each generator entry takes at most two nonzero
    exact products, so no entry's bytes depend on the rows beside it or on the order BLAS
    sums them in: one generator plus a stack of rates gives each row the bytes
    build_rate_matrix gives its drive.
    """
    k = generators.shape[-1]
    out = (rates @ _pump_pattern(k)).reshape(*rates.shape[:-1], k, k)
    out += generators
    return out


@cache
def _pump_pattern(k: int) -> np.ndarray:
    """Row t of the (4, k*k) pattern adds transition t's rate to its (upper, lower) and
    (lower, upper) entries and takes it from its two diagonal entries; read-only, as
    every call with one k shares it."""
    p = np.zeros((4, k, k))
    for t, (lo, up) in enumerate(zip(TransitionSet.LOWER, TransitionSet.UPPER)):
        p[t, [up, lo], [lo, up]] = 1.0
        p[t, [lo, up], [lo, up]] = -1.0
    p = p.reshape(4, k * k)
    p.flags.writeable = False
    return p


def propagator(matrix: np.ndarray, dt_ms: float) -> np.ndarray:
    """exp(M dt) for a single generator."""
    return propagator_batch(matrix[None, :, :], dt_ms)[0]


# Every M dt takes the degree-12 Taylor coefficients 1/k!, scaled below a 1-norm of 1/4
# (_THETA12): the series' tail is 2.4e-18 there, under 1/40 ulp of ||exp(A)||_1 >= exp(-1/4);
# degree 11: 1.3e-16.  The rows are the Paterson-Stockmeyer partial sums hi, mid and low of
# exp(A) ~ A^4 (A^4 hi + mid) + low, the columns the powers I, A, A^2, A^3, A^4 they weigh.
_TAYLOR12 = np.array([[1.0 / math.factorial(k) for k in range(8, 13)],
                      [1.0 / math.factorial(k) for k in range(4, 8)] + [0.0],
                      [1.0 / math.factorial(k) for k in range(0, 4)] + [0.0]])
_THETA12 = 0.25

# Matrices exponentiated per block.  512 x 16 doubles is 64 KiB per 4x4 stack, and a block's
# working set (five powers, three partial sums and a product: about 0.6 MiB, 0.9 MiB at 5x5)
# stays in a core's 2 MiB L2.  The stacked powers and sums outgrow glibc's default 128 KiB
# mmap threshold, but freeing the first mmapped one raises the threshold to its size, so
# later blocks take theirs from the heap instead of faulting fresh pages in.
_BLOCK_MATRICES = 512


def propagator_batch(matrices: np.ndarray, dt_ms: float) -> np.ndarray:
    """exp(M dt) for a stack of generators, shape (n, k, k).

    Every M dt takes the degree-12 Taylor polynomial: it is scaled by its own power of two,
    2^-s, to a 1-norm below 1/4, the polynomial is squared back exactly s times, and the
    columns are divided by their sums after the last squaring and every 32nd, so they sum
    to 1 within a few ulp at any dt.  That is right for a conservative M, each column sum
    within 4 ulp of its absolute sum, as every generator of build_rate_matrix is.  A matrix
    that must be squared and is not conservative raises ValueError, as renormalising would
    erase its leak; below a 1-norm of 1/4 nothing is squared, and the polynomial holds for
    any M.
    The rule is per matrix, so no byte depends on the batch or on the blocks of
    _BLOCK_MATRICES that keep a block's working set in L2.
    """
    if dt_ms < 0:
        raise ValueError(f"dt_ms must be >= 0, got {dt_ms}")
    mats = np.asarray(matrices, dtype=float)
    if not np.all(np.isfinite(mats)):
        raise ValueError("rate matrix contains non-finite entries")
    if dt_ms == 0.0:
        return np.broadcast_to(np.eye(mats.shape[-1]), mats.shape).copy()

    props = np.empty(mats.shape)
    for lo in range(0, len(mats), _BLOCK_MATRICES):
        m = mats[lo:lo + _BLOCK_MATRICES]
        c = _column_sums(np.abs(m))  # column 1-norms
        norm = reduce(np.maximum, c.T) * dt_ms
        small = norm < _THETA12
        if not small.all():
            kept = np.abs(_column_sums(m)) <= 2.0**-50 * c  # within 4 ulp: 4 eps is 2**-50
            if not (kept | small[:, None]).all():
                raise ValueError("a generator whose columns do not sum to 0 cannot be squared")
        props[lo:lo + _BLOCK_MATRICES] = _taylor12(m, dt_ms, norm)
    return props


def _column_sums(x: np.ndarray) -> np.ndarray:
    """The column sums of a (n, k, k) stack: einsum adds over axis 1 in index order, as
    NumPy's reduction over an axis of 4 or 5 does, without its small-axis overhead."""
    return np.einsum("nij->nj", x)


def normalise_columns(p: np.ndarray) -> np.ndarray:
    """A (n, k, k) stack with each matrix's columns divided by their sums."""
    return p / _column_sums(p)[:, None]


def _taylor12(m: np.ndarray, dt_ms: float, norm: np.ndarray) -> np.ndarray:
    """exp(m dt) by the degree-12 Taylor polynomial in Paterson-Stockmeyer form (five matmuls),
    scaled below a 1-norm of 1/4 and squared back with renormalised columns.

    The partial sums hi, mid and low are one product: _TAYLOR12 times the stacked powers
    I, A, A^2, A^3, A^4, each power's entries one column of it, so an entry's sums do not
    depend on the matrices beside it.  The scaling multiplies by 2^-s, exact as ldexp is;
    a block with no matrix to square is not scaled.
    """
    n, k = m.shape[:2]
    s = np.maximum(np.frexp(norm / _THETA12)[1], 0)
    powers = np.empty((5, n, k, k))
    powers[0] = np.eye(k)
    _, a, a2, a3, a4 = powers
    np.multiply(m, dt_ms, out=a)
    if s.any():
        a *= np.ldexp(1.0, -s)[:, None, None]
    np.matmul(a, a, out=a2)
    np.matmul(a2, a, out=a3)
    np.matmul(a2, a2, out=a4)
    sums = np.empty((3, n, k, k))
    np.matmul(_TAYLOR12, powers.reshape(5, -1), out=sums.reshape(3, -1))
    hi, mid, low = sums
    inner = a4 @ hi
    inner += mid
    np.matmul(a4, inner, out=hi)
    hi += low
    return _square(hi, s)


def _square(p: np.ndarray, s: np.ndarray, done: int = 0) -> np.ndarray:
    """Square each matrix of p its own s times, in place, dividing its columns by their sums
    after its last squaring and every 32nd: each squaring doubles their drift from 1, which
    would overflow in the 66 squarings of a 1e20 ms step.

    Every matrix is squared to the least s, from the done squarings it has had, and then
    only the rows that need more are gathered and squared on, one recursion level per
    distinct s: the squared rows total sum(s) - done.  A matrix at s = 0 is returned as
    it came.
    """
    if not s.any():
        return p
    least = s.min()
    q = np.empty_like(p)
    for j in range(done + 1, least + 1):
        np.matmul(p, p, out=q)
        p, q = q, p
        if j % 32 == 0:
            p /= _column_sums(p)[:, None]
    more = s > least
    rest = p[more]  # taken before the rows that end here are divided
    if least % 32:
        p /= _column_sums(p)[:, None]
    if len(rest):
        p[more] = _square(rest, s[more], least)
    return p


def matrix_power_batch(propagators: np.ndarray, n: int) -> np.ndarray:
    """Stacked integer matrix power; n < 0 is refused, as NumPy would invert."""
    if n < 0:
        raise ValueError("power must be >= 0")
    return np.linalg.matrix_power(propagators, n)


def apply_batch(props: np.ndarray, pops: np.ndarray) -> None:
    """Advance populations in place: pops[:, :k] = props @ pops[:, :k].

    props has shape (n, k, k), or (1, k, k) for one propagator shared by
    every row; pops has shape (n, 5) with the trap last.  A 4x4 propagator
    leaves the trap as it is, and a 5x5 one, of a leaky generator, fills it.
    einsum adds each row's k products in index order, as matmul does at k = 4,
    so no row's bytes depend on the rows beside it; one GEMM for a shared
    propagator would make them depend on how many rows share it.  Round-off
    can leave a population a hair below zero; values down to -1e-10 are
    clamped to zero, and anything lower raises.
    """
    k = props.shape[-1]
    new = np.einsum("...ij,...j->...i", props, pops[:, :k])
    new[(new < 0.0) & (new > -1e-10)] = 0.0
    if not np.all(new >= 0.0):
        raise ArithmeticError("propagation produced a NaN or negative population")
    pops[:, :k] = new


def evolve(state: IonClassState, matrix: np.ndarray, dt_ms: float) -> IonClassState:
    """Propagate a class state exactly over a constant-drive interval.

    A leaky generator's fifth state is persistent_bleached, so what the
    four levels lose to the trap is credited there and the five-entry total
    is conserved.
    """
    pops = np.array([[state.g1, state.g2, state.e1, state.e2, state.persistent_bleached]])
    apply_batch(propagator(matrix, dt_ms)[None], pops)
    return IonClassState(*(float(x) for x in pops[0]))


def steady_state(matrix: np.ndarray) -> IonClassState:
    """Stationary distribution of a conservative generator.

    Raises DegenerateSteadyStateError when the kernel is not one-dimensional
    (disconnected level sets) and ValueError when the four levels leak
    population, to a trap state or otherwise, and therefore admit no
    stationary distribution.
    """
    m = np.asarray(matrix, dtype=float)
    colsums = m[:4, :4].sum(axis=0)
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
