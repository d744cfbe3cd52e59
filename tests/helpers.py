"""Test-only code shared by the test modules."""

from dataclasses import dataclass

import numpy as np

from coordgame.classical import ClassicalConfig, classical_strategy, generate_sequences
from coordgame.game import STATE_PAIRS, MismatchProfile, play_match
from coordgame.quantum import GeneralAnglePlan, quantum_player_strategy


@dataclass(frozen=True)
class ConstantStrategy:
    """Plays the same move (0 for A, 1 for B) in every round regardless of state."""

    move: int

    def moves(self, start, n, state):
        return np.full(n, int(self.move), dtype=np.uint8)


def block_schedule(r: int) -> np.ndarray:
    """The schedule that ``play_match`` plays: row k holds round k's (state one, state two)."""
    return np.repeat(np.array(STATE_PAIRS, dtype=np.uint8), r, axis=0)


@dataclass(frozen=True, eq=False)
class Recorded:
    """Every round of a reference match: the schedule and both move columns."""

    states: np.ndarray  # (n, 2) uint8
    move_one: np.ndarray  # (n,) uint8
    move_two: np.ndarray  # (n,) uint8


def reference_match(strategy_one, strategy_two, r: int) -> Recorded:
    """The reference arbiter: one call per player for each whole block of the block schedule.

    Block k asks each player ``moves(k * r, r, state)`` with its own state
    of ``STATE_PAIRS[k]``, whatever the arbiter's chunk size.
    """
    move_one, move_two = [], []
    for k, (i, j) in enumerate(STATE_PAIRS):
        move_one.append(np.asarray(strategy_one.moves(k * r, r, i), dtype=np.uint8))
        move_two.append(np.asarray(strategy_two.moves(k * r, r, j), dtype=np.uint8))
    return Recorded(block_schedule(r), np.concatenate(move_one), np.concatenate(move_two))


def reference_profile(recorded: Recorded) -> MismatchProfile:
    """Mismatch frequencies per state pair, counted with one bincount over all rounds."""
    # round counts indexed by 4*s1 + 2*s2 + (moves differ); states are 0/1
    index = recorded.states[:, 0] * np.uint8(4)
    index += recorded.states[:, 1] * np.uint8(2)
    index += recorded.move_one != recorded.move_two
    table = np.bincount(index, minlength=8).reshape(4, 2).tolist()
    return MismatchProfile(*(float(differ) / (same + differ) for same, differ in table))


def played(strategy_one, strategy_two, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Both move columns of ``play_match``, joined over its chunks in round order."""
    chunks = list(play_match(strategy_one, strategy_two, r))
    return np.concatenate([c[1] for c in chunks]), np.concatenate([c[2] for c in chunks])


def shipped_pair(family: str):
    """A fresh player pair of one shipped strategy family, "classical" or "quantum"."""
    if family == "classical":
        sequences = generate_sequences(ClassicalConfig(n=5_000, q=0.1, seed=2))
        return classical_strategy(1, sequences), classical_strategy(2, sequences)
    return quantum_player_strategy(GeneralAnglePlan.equally_spaced(0.3), 2)
