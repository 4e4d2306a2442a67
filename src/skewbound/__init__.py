"""skewbound: skew-information uncertainty quantities and spectral bounds.

Library + CLI for computing standard deviations and (generalized) skew
informations of arbitrary operators in mixed states, verifying the related
uncertainty equalities to machine residual, and computing state-independent
lower bounds from eigenvalue minimization on a doubled space.
"""

from .errors import (
    ConvergenceFailure,
    DegenerateDenominator,
    DimensionMismatch,
    DomainError,
    IncompleteChannel,
    NegativeRadicand,
    NoFeasibleChiWarning,
    NotHermitian,
    NotOrthonormal,
    OrthogonalSelection,
    SkewboundError,
    StateValidationError,
    ZeroDeviation,
    ZeroSkew,
)
from .linalg import (
    DEFAULT_TOL,
    DensityOperator,
    DensityStack,
    Tolerances,
    density,
    density_stack,
    haar_unitary,
    hermitian_eigen,
    matrix_power,
    maximally_mixed,
    partial_trace_second,
    pure_state,
    random_density,
    random_hermitian,
    random_operator,
    random_pure_vector,
    sqrt_trace,
)
from .moments import (
    HermitianSplit,
    MeanOrder,
    as_mean_order,
    fisher_information,
    gen_skew,
    generalized_mean,
    hermitian_split,
    std_dev,
    variance,
    wyd_skew,
)
from .equalities import (
    EqualityReport,
    deviation_skew_chain,
    intelligent_state_check,
    product_equality,
    product_equality_nontrivial,
    skew_product_correction_identity,
    skew_product_equality,
    sum_equality,
    three_observable_product_equality,
    three_observable_sum_equality,
)
from .bounds import (
    EmbeddingVectors,
    OperatorSet,
    SpectralBound,
    SpectralData,
    WitnessResult,
    bound_wy,
    bound_wyd,
    embedding,
    empirical_minimum,
    h_tot,
    pure_variance_bound,
    sample_stacks,
    separability_witness,
    tighten_alpha_scan,
)
from .channels import (
    KrausChannel,
    amplitude_damping,
    channel_bound,
    channel_skew,
    luders_channel,
    phase_damping,
    pooled_set,
)
from .qubit import (
    BlochState,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_vector,
    direction_op,
    direction_variance_fisher_identity,
    direction_variance_skew_identity,
    fisher_variance_direction_bound,
    fisher_wy_ratio,
    mixed_triple_equalities,
    order_ratio,
    orthogonal_triple_skew_equality,
    qubit_bracket,
    qubit_gen_skew_closed,
    scaled_skew_sum,
    skew_variance_mix_check,
    triple_purity_identity,
)
from .weakvalue import (
    ReconstructionResult,
    SubsystemReport,
    WeakValueTable,
    reconstruct_skew,
    subsystem_weak_values,
    weak_value,
)

__version__ = "0.1.0"
