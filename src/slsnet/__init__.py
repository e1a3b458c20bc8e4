"""Analysis toolkit for switched linear systems driven by logical control networks.

The logical layer (a finite network emitting a switching signal) and
the linear layer (one (A, B, C) triple per mode) are combined through
the semi-tensor product into a single block-structured system, on which
reachability, controllability, observability and reconstructibility are
decided by exact subspace computations with witness input sequences.
Signal-constraint realizability (operating times, dwell times,
reference tracking) works on the logical layer alone.
"""

__version__ = "0.1.0"

from .algebra import (
    BooleanMatrix,
    DimensionError,
    LogicalMatrix,
    Matrix,
    Numeric,
    SizingError,
    Subspace,
    basis_vector,
    boolean_power,
    boolean_product,
    column_space,
    hstack,
    kronecker,
    khatri_rao,
    power_reducing_matrix,
    rank,
    stp,
    stp_all,
    subspace_contains,
    subspace_is_full,
    subspace_sum,
    swap_matrix,
    vstack,
)
from .analysis import (
    AlphaDetail,
    FeasibleSequence,
    PropertyVerdict,
    ReachableSet,
    check_controllability,
    check_observability,
    check_reachability,
    check_reconstructibility,
    dual_reachable_set,
    feasible_input_sequences,
    kalman_oracle,
    reachable_set,
    switching_trajectory,
)
from .fileio import ParseError, SystemDescription, dumps, load, loads, save
from .lcn import (
    Attractor,
    ControlAttractorReport,
    InputStateSubset,
    LogicalNetwork,
    SetReachabilityVerdicts,
    SubsetClass,
    build_from_functions,
    control_attractors,
    decode_pair,
    dot_graph,
    encode_pair,
    input_state_matrix,
    set_reachability_matrix,
    set_reachability_verdicts,
    step,
)
from .oracle import (
    BudgetExceededError,
    controllability_matrix,
    count_paths,
    enumerate_switching_sequences,
    kalman_rank,
    mode_chain,
    observability_matrix,
    obsv_rank,
)
from .realize import (
    INFINITY,
    FotSpec,
    RealizabilityVerdict,
    SignalDiagnostic,
    SignalPreimage,
    TrackVerdict,
    TrackingProblem,
    check_dwell_time_realizable,
    check_fot_realizable,
    check_trackable,
    signal_preimages,
)
from .sls import (
    DualMergedSystem,
    MergedSystem,
    SwitchedLinearSystem,
    merge,
    merge_dual,
    step_merged,
)
