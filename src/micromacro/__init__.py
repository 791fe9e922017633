"""Models for a displaced-single-photon light-matter entanglement experiment.

Submodules
----------
fock            truncated Fock-space states, transforms, loss, click POVMs
polarization    two-qubit states, CHSH, PPT and concurrence witnesses
tomography      joint-setting counts and maximum-likelihood reconstruction
noise           displacement-noise model for the witness-vs-size curves
spdc            detailed double-pair source model with a sampling oracle
macro           macroscopic distinguishability and effective size
hom             two-photon interference visibility and temporal overlap
memory          storage-loop pulse bookkeeping and back-displacement nulling
cli             command-line entry point producing CSV/SVG result tables
"""

__version__ = "0.1.0"

from .fock import (  # noqa: E402,F401
    ClickDetector,
    DensityOperator,
    ModeTransform,
    TruncatedState,
    TruncationError,
    beam_splitter,
    coherent_state,
    displaced_single_photon,
    displacement_operator,
    loss_channel,
)
from .polarization import (  # noqa: F401
    DEFAULT_CHSH_SETTINGS,
    MeasurementSetting,
    TwoQubitDensity,
    bell_state,
    chsh_maximum,
    chsh_value,
    concurrence,
    ppt_min_eigenvalue,
    werner_state,
)
from .tomography import (  # noqa: F401
    ConvergenceError,
    RankDeficiencyError,
    TomographyRecord,
    reconstruct_mle,
    simulate_tomography,
)
from .noise import (  # noqa: F401
    ExperimentParams,
    WitnessCurve,
    excitations_from_alpha,
    noise_fraction,
    predict_werner_visibility,
    predict_witness_curves,
)
from .spdc import (  # noqa: F401
    DetailedParams,
    JointProbabilities,
    ModelInconsistencyError,
    chsh_from_detailed,
    joint_probabilities,
    monte_carlo_oracle,
)
from .macro import (  # noqa: F401
    SizeResult,
    UnattainableTargetError,
    guessing_probability,
    macro_components,
    sigma_max,
    size_analysis,
)
from .hom import (  # noqa: F401
    HomParams,
    TemporalProfiles,
    UndefinedVisibilityError,
    hom_visibility,
    overlap_ratio,
    temporal_overlap,
)
from .memory import (  # noqa: F401
    MemoryParams,
    PulseTrain,
    back_displacement_residual,
    three_pulse_train,
    visibility_from_errors,
)
