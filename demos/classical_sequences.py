"""Walk through the shared-sequence strategy from construction to payoff.

Builds the four pre-agreed bit sequences, checks their pairwise Hamming
distances, plays a full-cycle match through the arbiter, and shows that
the empirical mismatch profile lands exactly on (3q, q, q, q) with
payoff 3.
"""

import numpy as np

import coordgame as cg

N = 2000
Q = 0.1
SEED = 7
MOVE = ("A", "B")


def main():
    print("= Shared-sequence construction =")
    config = cg.ClassicalConfig(n=N, q=Q, seed=SEED)
    sequences = cg.generate_sequences(config)
    f = round(Q * N)
    print(f"n={N} positions, flip fraction q={Q}, {f} flips per step\n")

    print("pairwise Hamming distances (rows/cols are sequence indices):")
    for a in range(4):
        row = " ".join(f"{sequences.distance(a, b):4d}" for b in range(4))
        print(f"  X{a}: {row}")
    print(f"every distance equals {f} * |index difference|, by disjoint flip sets\n")

    print("= Full-cycle match =")
    one = cg.classical_strategy(1, sequences)  # reads X0 in state 0, X2 in state 1
    two = cg.classical_strategy(2, sequences)  # reads X3 in state 0, X1 in state 1
    # N rounds per state pair: each pair walks the whole sequence once; SEED
    # only fixed the sequences, and the arbiter adds no randomness of its own
    print(f"{N} rounds per state pair, {4 * N} in all; the first three records:")
    start, move_one, move_two = next(cg.play_match(one, two, N))
    s1, s2 = cg.STATE_PAIRS[start // N]  # one state pair for the whole chunk
    for k in range(3):
        print(f"  round {start + k}: states ({s1}, {s2}), moves {MOVE[move_one[k]]} {MOVE[move_two[k]]}")

    profile = cg.match_profile(one, two, N)
    analytic = cg.analytic_classical_profile(Q)
    print("\nempirical profile:", np.round(profile.as_array(), 6))
    print("analytic profile: ", np.round(analytic.as_array(), 6))
    print(f"payoff: {cg.payoff(profile):.12f} (classical optimum is 3)\n")

    print("= Feasibility edge =")
    try:
        cg.ClassicalConfig(n=N, q=0.4)
    except cg.InfeasibleFlipCount as exc:
        print(f"q=0.4 rejected: {exc}")


if __name__ == "__main__":
    main()
