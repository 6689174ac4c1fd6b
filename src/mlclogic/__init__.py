"""Logic gates and a set-reset latch in a driven bistable circuit.

The package simulates a piecewise-linear bistable oscillator in its
cell-network form, encodes logic inputs as two-level drive streams,
and decodes gate outputs from which well (or how large an orbit) the
state settles into. It quantifies reliability under noise with the
P(logic) probability that whole input programs decode correctly.
"""

__version__ = "0.1.0"

from .decode import (
    GATES,
    INDETERMINATE,
    XNOR_BAND_HALF_WIDTH,
    BitOutcome,
    DecodeRule,
    DecodeSettings,
    GateSpec,
    Indicator,
    TrialOutcome,
    decode_bit,
    gate_spec,
    oracle,
    score_residences,
    score_trial,
)
from .dynamics import drift_circuit, drift_network, h_piecewise, saturation
from .errors import (
    ArityMismatchError,
    ConfigError,
    DivergedError,
    EmptySegmentError,
    ForbiddenInputError,
    MlcLogicError,
)
from .experiments import (
    LATCH_DELTA,
    LatchResult,
    PhasePortrait,
    PLogicEstimate,
    PLogicReport,
    calibrate_xnor_band,
    estimate_plogic,
    export_phase_portrait,
    gate_params,
    run_latch_experiment,
    sweep,
    wilson_interval,
)
from .integrator import (
    DEFAULT_X0,
    BatchResult,
    IntegratorConfig,
    Trajectory,
    batch_bit_residences,
    integrate,
)
from .params import CANONICAL, CircuitParams, CnnWeights, derive_weights
from .seeding import derive_seed
from .signals import (
    DEFAULT_BIT_DURATION,
    DEFAULT_TRANSIENT,
    LogicProgram,
    combine,
    encode_channel,
    level_for_bits,
    random_program,
    read_program_csv,
)

__all__ = [
    "__version__",
    "ArityMismatchError",
    "BatchResult",
    "BitOutcome",
    "CANONICAL",
    "CircuitParams",
    "CnnWeights",
    "ConfigError",
    "DecodeRule",
    "DecodeSettings",
    "DEFAULT_BIT_DURATION",
    "DEFAULT_TRANSIENT",
    "DEFAULT_X0",
    "DivergedError",
    "EmptySegmentError",
    "ForbiddenInputError",
    "GATES",
    "GateSpec",
    "INDETERMINATE",
    "Indicator",
    "IntegratorConfig",
    "LATCH_DELTA",
    "LatchResult",
    "LogicProgram",
    "MlcLogicError",
    "PhasePortrait",
    "PLogicEstimate",
    "PLogicReport",
    "Trajectory",
    "TrialOutcome",
    "XNOR_BAND_HALF_WIDTH",
    "batch_bit_residences",
    "calibrate_xnor_band",
    "combine",
    "decode_bit",
    "derive_seed",
    "derive_weights",
    "drift_circuit",
    "drift_network",
    "encode_channel",
    "estimate_plogic",
    "export_phase_portrait",
    "gate_params",
    "gate_spec",
    "h_piecewise",
    "integrate",
    "level_for_bits",
    "oracle",
    "random_program",
    "read_program_csv",
    "run_latch_experiment",
    "saturation",
    "score_residences",
    "score_trial",
    "sweep",
    "wilson_interval",
]
