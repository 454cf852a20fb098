"""Rate-equation toolkit for Zeeman optical pumping and spectral hole burning.

The package simulates frequency-selective pumping of an inhomogeneously
broadened four-level system: hole and antihole spectra, pumping enhanced by
stimulated de-excitation, excited-doublet mixing, and swept-pump spectral
tailoring, plus the fitting helpers used to analyse the resulting traces.
"""

__version__ = "0.1.0"

from .analysis import (
    FitResult,
    ResidualMetrics,
    add_noise,
    fit_double_exponential,
    fit_exponential_offset,
    fit_linear,
    fit_lorentzian,
    residual_metrics,
)
from .config import (
    ExperimentConfig,
    OutputSpec,
    SweepSpec,
    apply_override,
    parse_config,
    parse_config_file,
    serialize_config,
)
from .engine import (
    DriveRates,
    IonClassState,
    build_rate_matrix,
    evolve,
    pump_rate_profile,
    ratio_effective,
    ratio_standard,
    ratio_stimulated,
    rf_mix_rate,
    steady_state,
    stimulation_rate,
)
from .ensemble import (
    EnsembleState,
    InhomogeneousProfile,
    Spectrum,
    SpectralFeature,
    absorbance,
    build_ensemble,
    hole_area,
    predicted_features,
    readout_scan,
)
from .errors import (
    ConfigError,
    DegenerateSteadyStateError,
    GridMismatchError,
    HoleburnError,
    NoDecayChannelError,
)
from .levels import (
    RateParams,
    TransitionSet,
    ZeemanConfig,
    effective_lifetime,
    transition_set,
    zeeman_splitting,
)
from .presets import preset, preset_names
from .runner import run_scenario, run_single
from .sequence import (
    CompiledSequence,
    DriveCalibration,
    DriveSegment,
    PumpPulse,
    Readout,
    ReadoutPulse,
    RepeatBlock,
    RFPulse,
    RunResult,
    StimulationPulse,
    WaitPulse,
    compile_sequence,
    run,
)
