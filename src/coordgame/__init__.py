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

from . import bounds, classical, game, quantum
from .bounds import *  # noqa: F401,F403
from .classical import *  # noqa: F401,F403
from .game import *  # noqa: F401,F403
from .quantum import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *game.__all__, *classical.__all__, *quantum.__all__, *bounds.__all__]
