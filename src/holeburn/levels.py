"""Zeeman level structure of a Kramers ion with split ground and excited doublets.

The model tracks four optically coupled levels: two ground sublevels (g1
below g2 by the ground splitting) and two excited sublevels (e1 below e2 by
the excited splitting).  Splittings are linear in the applied field and are
expressed directly in MHz; all times are in ms and fields in mT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoDecayChannelError

# Bohr magneton over the Planck constant, in MHz per mT.
BOHR_MHZ_PER_MT = 13.996

# Excited-state trapping rate per unit persistent_fraction (1/ms), calibrated
# so that a 100 ms saturating pump leaves a normalized persistent hole equal
# to persistent_fraction; see RateParams.persistent_leak_scale.
PERSISTENT_LEAK_SCALE = 0.0262


def line_error(name: str, value: float, width: bool = True) -> str | None:
    """Why a Lorentzian line refuses value as its width (or, without width, detuning), else
    None: it squares a detuning and half a width, and a width is > 0."""
    if not math.isfinite(value * value) or width and not (value > 0 and (0.5 * value) ** 2 > 0):
        return (f"{name} must {'be > 0 and ' * width}square to a finite number"
                f"{', its half to > 0' * width}, got {value!r}")


@dataclass(frozen=True)
class ZeemanConfig:
    """Magnetic configuration defining the level splittings.

    The g factors are the effective ones at the field orientation used, so
    the orientation itself enters no rate.
    """

    field_mT: float
    g_ground: float = 12.0
    g_excited: float = 8.0

    def __post_init__(self):
        if self.field_mT < 0:
            raise ValueError(f"field_mT must be >= 0, got {self.field_mT}")
        if self.g_ground <= 0 or self.g_excited <= 0:
            raise ValueError("g factors must be > 0")
        # a line shape squares a detuning across a splitting, which is field times g:
        # the error names the larger factor
        for g in ("g_ground", "g_excited"):
            name = g if getattr(self, g) > self.field_mT else "field_mT"
            if error := line_error(f"{name} sets the {g[2:]} splitting, which",
                                   zeeman_splitting(getattr(self, g), self), False):
                raise ValueError(error)

    @property
    def delta_g_MHz(self) -> float:
        """Ground doublet splitting in MHz."""
        return zeeman_splitting(self.g_ground, self)

    @property
    def delta_e_MHz(self) -> float:
        """Excited doublet splitting in MHz."""
        return zeeman_splitting(self.g_excited, self)


@dataclass(frozen=True)
class RateParams:
    """Relaxation and branching parameters of one ion class.

    t1_ms
        Excited-state lifetime.
    tz_ms
        Ground Zeeman (spin-lattice) lifetime; each directional flip rate is
        1 / (2 tz_ms).
    beta
        Fraction of spontaneous decay that preserves the spin projection.
    beta_z2
        Spin-preserving fraction for population returned through the
        stimulated-emission channel.  Defaults to ``beta``.
    sigma_scale
        Absorption cross-section scale, in per-class optical-depth units.
    persistent_fraction
        Non-recovering hole fraction in [0, 1].  Zero disables the
        persistent-trap leak entirely.
    persistent_leak_scale
        Trapping rate per unit persistent_fraction (1/ms) applied to excited
        population.  The default is calibrated so a long saturated burn
        leaves a persistent remnant matching persistent_fraction when the
        hole is read out through the bundled stimulation-rate preset.
    """

    t1_ms: float
    tz_ms: float
    beta: float
    beta_z2: float | None = None
    sigma_scale: float = 1.0
    persistent_fraction: float = 0.0
    persistent_leak_scale: float = PERSISTENT_LEAK_SCALE

    def __post_init__(self):
        for name in ("t1_ms", "tz_ms"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
            # the generator holds 1 / t1 and 1 / (2 tz); a subnormal lifetime overflows them
            if not math.isfinite(1.0 / value):
                raise ValueError(f"{name} must have a finite inverse, got {value}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.beta_z2 is None:
            object.__setattr__(self, "beta_z2", self.beta)
        elif not 0.0 <= self.beta_z2 <= 1.0:
            raise ValueError(f"beta_z2 must lie in [0, 1], got {self.beta_z2}")
        if self.sigma_scale <= 0:
            raise ValueError("sigma_scale must be > 0")
        if not 0.0 <= self.persistent_fraction < 1.0:
            raise ValueError("persistent_fraction must lie in [0, 1)")
        if self.persistent_leak_scale < 0:
            raise ValueError("persistent_leak_scale must be >= 0")


@dataclass(frozen=True)
class TransitionSet:
    """Frequencies (MHz) of the four optical transitions of one ion class.

    The fields are scalars for one class, or arrays for a grid of classes.
    f1: g1 -> e1, f2: g1 -> e2, f3: g2 -> e1, f4: g2 -> e2.  By construction
    f2 - f1 equals the excited splitting, f1 - f3 the ground splitting, and
    f4 - f1 the (negative) difference of the two.
    """

    f1_MHz: float
    f2_MHz: float
    f3_MHz: float
    f4_MHz: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.f1_MHz, self.f2_MHz, self.f3_MHz, self.f4_MHz)

    # Lower / upper level index of each transition, in the (g1, g2, e1, e2)
    # population basis used by the engine; the one home of the pair table.
    LOWER = (0, 0, 1, 1)
    UPPER = (2, 3, 2, 3)


def zeeman_splitting(g: float, config: ZeemanConfig) -> float:
    """Linear Zeeman splitting in MHz for effective g factor ``g``."""
    if g <= 0:
        raise ValueError(f"g must be > 0, got {g}")
    return BOHR_MHZ_PER_MT * g * config.field_mT


def transition_set(class_center_MHz: float, config: ZeemanConfig) -> TransitionSet:
    """Transition frequencies of the class whose g1 -> e1 line sits at ``class_center_MHz``.

    Frequencies are offsets from the optical line center, so they may be
    negative.  An array of centres gives arrays of frequencies, one per class.
    """
    dg = config.delta_g_MHz
    de = config.delta_e_MHz
    f1 = class_center_MHz
    return TransitionSet(f1, f1 + de, f1 - dg, f1 - (dg - de))


def effective_lifetime(params: RateParams) -> float:
    """Effective ground-state feeding time t1 / (1 - beta), in ms.

    With strongly spin-preserving decay the rare spin-flip events set the
    pumping timescale, which diverges as beta approaches 1.
    """
    if params.beta >= 1.0:
        raise NoDecayChannelError(
            "beta = 1 leaves no spin-flip decay channel; effective lifetime diverges"
        )
    return params.t1_ms / (1.0 - params.beta)
