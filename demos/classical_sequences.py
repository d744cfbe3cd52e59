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
    schedule = cg.uniform_schedule(N)  # each state pair walks the whole sequence once
    records = cg.run_match(one, two, schedule, seed=SEED)
    print(f"played {len(records)} rounds; first three records:")
    for k in range(3):
        s1, s2 = records.states[k]
        m1, m2 = MOVE[records.move_one[k]], MOVE[records.move_two[k]]
        print(f"  round {k}: states ({s1}, {s2}), moves {m1} {m2}")

    profile = cg.empirical_profile(records)
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
