"""Two-player coordination game with shared-sequence and singlet-based strategies.

Two separated players each receive a private binary state and answer with
a binary move; the payoff is the mismatch probability at joint state
(0, 0) divided by the worst mismatch probability over the other three
joint states.  Shared classical randomness caps the payoff at 3, which
the shared-sequence construction attains; measuring shared spin singlets
approaches 9.  The package provides the match arbiter, both strategy
families, the bound inequalities separating them, exhaustive enumeration
of the deterministic strategies and a payoff sweep, plus a CLI.
"""

from .bounds import (
    BOUND_TOLERANCE,
    BoundVerdict,
    DeterministicStrategyPair,
    LhvMixture,
    classical_bound,
    enumerate_deterministic_pairs,
    lhv_profile,
    lhv_supremum_payoff,
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
    DegenerateProfile,
    MismatchProfile,
    Move,
    PayoffReport,
    PlayerStrategy,
    analytic_report,
    empirical_report,
    match_profile,
    payoff,
    play_match,
)
from .quantum import (
    GeneralAnglePlan,
    general_quantum_profile,
    mismatch_probability,
    quantum_player_strategy,
    quantum_profile,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # game core
    "Move",
    "STATE_PAIRS",
    "MismatchProfile",
    "PayoffReport",
    "PlayerStrategy",
    "DegenerateProfile",
    "payoff",
    "match_profile",
    "play_match",
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
    "mismatch_probability",
    "quantum_profile",
    "general_quantum_profile",
    "quantum_player_strategy",
    # bounds and the sweep
    "BOUND_TOLERANCE",
    "BoundVerdict",
    "DeterministicStrategyPair",
    "LhvMixture",
    "classical_bound",
    "quantum_bound",
    "enumerate_deterministic_pairs",
    "lhv_profile",
    "lhv_supremum_payoff",
    "sweep_quantum_payoff",
]
