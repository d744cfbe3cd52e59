"""Test-only code shared by the test modules."""

from dataclasses import dataclass

import numpy as np

from coordgame.game import STATE_PAIRS, MismatchProfile, Move, play_match


@dataclass(frozen=True)
class ConstantStrategy:
    """Plays the same move in every round regardless of state."""

    move: Move

    def moves(self, states, round_indices):
        return np.full(len(states), int(self.move), dtype=np.uint8)


def block_schedule(r: int) -> np.ndarray:
    """The schedule that ``play_match`` plays: row k holds round k's (state one, state two)."""
    return np.repeat(np.array(STATE_PAIRS, dtype=np.uint8), r, axis=0)


@dataclass(frozen=True, eq=False)
class Recorded:
    """Every round of a reference match: the schedule and both move columns."""

    states: np.ndarray  # (n, 2) uint8
    move_one: np.ndarray  # (n,) uint8
    move_two: np.ndarray  # (n,) uint8


def reference_match(strategy_one, strategy_two, schedule) -> Recorded:
    """The reference arbiter: one call per player for a whole, arbitrary schedule.

    It hands each player its own state column and the read-only round
    indices 0..n-1.
    """
    states = np.asarray(schedule, dtype=np.uint8)
    rounds = np.arange(len(states), dtype=np.int64)
    rounds.setflags(write=False)
    move_one = np.asarray(strategy_one.moves(states[:, 0].copy(), rounds), dtype=np.uint8)
    move_two = np.asarray(strategy_two.moves(states[:, 1].copy(), rounds), dtype=np.uint8)
    return Recorded(states, move_one, move_two)


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
