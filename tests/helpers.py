"""Test-only code shared by the test modules."""

from dataclasses import dataclass

import numpy as np

from coordgame.game import Move


@dataclass(frozen=True)
class ConstantStrategy:
    """Plays the same move in every round regardless of state."""

    move: Move

    def moves(self, states, round_indices, shared):
        return np.full(len(states), int(self.move), dtype=np.uint8)
