"""Two-player coordination game with shared-sequence and singlet-based strategies.

Two separated players each receive a private binary state and answer with
a binary move; the payoff is the mismatch probability at joint state
(0, 0) divided by the worst mismatch probability over the other three
joint states.  Shared classical randomness caps the payoff at 3, which
the shared-sequence construction attains; measuring shared spin singlets
approaches 9.  The package provides the match arbiter, both strategy
families, the bound inequalities separating them, exhaustive enumeration
of the deterministic strategies, a payoff sweep and an angle search, plus
a CLI.
"""

from .bounds import (
    BOUND_TOLERANCE,
    AngleSearchResult,
    BoundVerdict,
    DeterministicStrategyPair,
    LhvMixture,
    SweepTable,
    classical_bound,
    enumerate_deterministic_pairs,
    lhv_profile,
    lhv_supremum_payoff,
    optimize_general_angles,
    quantum_bound,
    sweep_quantum_payoff,
)
from .classical import (
    MODES,
    BitSequenceSet,
    ClassicalConfig,
    InfeasibleFlipCount,
    LengthMismatch,
    SequenceStrategy,
    analytic_classical_profile,
    classical_strategy,
    generate_sequences,
    hamming_distance,
)
from .game import (
    STATE_PAIRS,
    ConstantStrategy,
    DegenerateProfile,
    MatchRecords,
    MismatchProfile,
    MissingStatePair,
    Move,
    PayoffReport,
    PlayerState,
    PlayerStrategy,
    RoundRecord,
    StatePair,
    analytic_report,
    empirical_profile,
    empirical_report,
    match_profile,
    payoff,
    run_match,
    uniform_schedule,
)
from .quantum import (
    GeneralAnglePlan,
    JointOutcomeCounts,
    SingletSampler,
    general_quantum_profile,
    mismatch_probability,
    quantum_player_strategy,
    quantum_profile,
    sample_joint_outcomes,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # game core
    "PlayerState",
    "Move",
    "StatePair",
    "STATE_PAIRS",
    "MismatchProfile",
    "RoundRecord",
    "MatchRecords",
    "PayoffReport",
    "PlayerStrategy",
    "ConstantStrategy",
    "DegenerateProfile",
    "MissingStatePair",
    "payoff",
    "empirical_profile",
    "match_profile",
    "run_match",
    "uniform_schedule",
    "analytic_report",
    "empirical_report",
    # shared-sequence strategies
    "BitSequenceSet",
    "ClassicalConfig",
    "SequenceStrategy",
    "InfeasibleFlipCount",
    "LengthMismatch",
    "MODES",
    "generate_sequences",
    "hamming_distance",
    "classical_strategy",
    "analytic_classical_profile",
    # singlet strategies
    "GeneralAnglePlan",
    "JointOutcomeCounts",
    "SingletSampler",
    "mismatch_probability",
    "quantum_profile",
    "general_quantum_profile",
    "sample_joint_outcomes",
    "quantum_player_strategy",
    # bounds and searches
    "BOUND_TOLERANCE",
    "BoundVerdict",
    "DeterministicStrategyPair",
    "LhvMixture",
    "SweepTable",
    "AngleSearchResult",
    "classical_bound",
    "quantum_bound",
    "enumerate_deterministic_pairs",
    "lhv_profile",
    "lhv_supremum_payoff",
    "sweep_quantum_payoff",
    "optimize_general_angles",
]
