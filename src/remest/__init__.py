"""Remote estimation stability toolkit.

Computes whether a set of LTI plants monitored over shared semi-Markov
fading channels admits a stabilizing transmission schedule, and validates
the verdicts with a slot-level Monte Carlo simulator.
"""

__version__ = "0.1.0"

from .channel import (
    CascadedChain,
    SemiMarkovChannelModel,
    build_cascaded_chain,
    chain_stationary,
    drop_matrix,
    greedy_selection,
    hazard,
    sample_path,
    sample_paths,
)
from .errors import (
    DimensionMismatchError,
    DivergentSeriesError,
    FrequencyOutOfRangeError,
    InvalidActionError,
    InvalidChainError,
    NonConvergentError,
    NotIrreducibleError,
    PeriodicChainError,
    RemestError,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    UnreachableHoldingTimeError,
)
from .process import (
    CostFunction,
    ProcessModel,
    SteadyStateKF,
    propagate_covariance,
    spectral_radius,
    steady_state_covariance,
)
from .scenario import (
    LoadedScenario,
    load_bundled_scenario,
    load_scenario,
    parse_scenario_dict,
)
from .sim import (
    GreedyTopKPolicy,
    PersistentSerialPolicy,
    RoundRobinPolicy,
    Scenario,
    SimSummary,
    full_physics_run,
    make_policy,
    run,
    step,
)
from .stability import (
    CycleAnalysis,
    CyclePmf,
    ExpectedCycleCost,
    StabilityReport,
    current_csi_factor,
    cycle_chain,
    cycle_length_pmf,
    delayed_csi_factor,
    delayed_failure_matrix,
    evaluate_current_csi,
    evaluate_delayed_csi,
    expected_cycle_cost_lower_bound,
    tuple_spectral_factor,
)
