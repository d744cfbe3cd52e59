"""Trace the quantum payoff across angle spacings and the channel-chain variant.

Sweeps the singlet-strategy payoff over a spacing grid, prints the
small-spacing limit behavior, and contrasts it with the binary symmetric
channel variant of the classical construction, whose payoff climbs back
to 3 as the crossover probability shrinks.
"""

import numpy as np

import coordgame as cg


def main():
    print("= Quantum payoff sweep =")
    deltas, profile = cg.sweep_quantum_payoff(0.01, 1.0, 100)
    print(f"{'delta':>7} {'q00':>10} {'q01':>10} {'payoff':>9} {'classical slack':>16}")
    payoffs = cg.payoff(profile)
    slack = cg.classical_bound(profile).slack
    for k in range(0, len(deltas), 11):
        print(
            f"{deltas[k]:7.3f} {profile.q00[k]:10.6f} {profile.q01[k]:10.6f} "
            f"{payoffs[k]:9.4f} {slack[k]:16.6f}"
        )
    print("payoff decreases monotonically in delta; slack stays negative,")
    print("so every profile on the grid is classically unreachable\n")

    print("= Small-spacing limit =")
    for delta in (0.1, 0.03, 0.01, 0.003):
        payoff = cg.payoff(cg.quantum_profile(delta))
        print(f"  delta={delta:<6} payoff={payoff:.6f}  (9 - payoff = {9 - payoff:.2e})")
    print("the supremum 9 is approached but never attained\n")

    print("= Channel-chain classical variant =")
    n = 200_000
    print(f"{'q':>6} {'payoff emp':>11} {'3-6q+4q^2':>10}")
    for q in (0.2, 0.1, 0.05, 0.01):
        sequences = cg.generate_sequences(
            cg.ClassicalConfig(n=n, q=q, mode="bsc-chain", seed=3)
        )
        profile = cg.match_profile(
            cg.classical_strategy(1, sequences),
            cg.classical_strategy(2, sequences),
            cg.uniform_schedule(n),
            seed=3,
        )
        emp = cg.payoff(profile)
        print(f"{q:6.2f} {emp:11.4f} {3 - 6 * q + 4 * q**2:10.4f}")
    print("the independent-flip chain only reaches 3 in the q -> 0 limit;")
    print("the disjoint-flip construction reaches it at any feasible q")


if __name__ == "__main__":
    main()
