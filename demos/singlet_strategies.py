"""Demonstrate the entanglement-assisted strategy and its payoff near 9.

Counts raw singlet mismatches against the closed-form joint law, then
counts full matches at several angle spacings and compares the empirical
mismatch profiles and payoffs against the cosine formulas.  A count
needs only player two's coins, so both use ``quantum_match_profile``.
Finishes by playing a match, with both players' moves, to check that
player one's move statistics do not react to the partner's state.
"""

import numpy as np

import coordgame as cg

ROUNDS = 50_000
SEED = 11


def main():
    print("= Raw singlet outcomes =")
    theta = 2.0
    # one direction per player in both states (a0 = a1, b0 = b1): every
    # round, whatever its state pair, measures along 0 and theta
    plan = cg.GeneralAnglePlan(0.0, 0.0, theta, theta)
    # SEED fixes every singlet's outcome coins; the moves differ where player
    # two's coin reaches the threshold, so the count draws no coin of player one's
    differ = cg.quantum_match_profile(plan, SEED, 25_000).q.mean()  # over 4 equal blocks
    print(f"directions separated by theta={theta}")
    print(f"  observed mismatch fraction: {differ:.5f}")
    print(f"  (1 + cos theta) / 2:        {(1 + np.cos(theta)) / 2:.5f}")
    corr = 1 - 2 * differ  # equal signs count +1, differing signs -1
    print(f"  observed correlator:        {corr:+.5f}")
    print(f"  -cos theta:                 {-np.cos(theta):+.5f}\n")

    print("= Matches at decreasing angle spacing =")
    print(f"{'delta':>7} {'q00 emp':>10} {'q00 exact':>10} {'payoff emp':>11} {'payoff exact':>13}")
    for delta in (0.8, 0.4, 0.2, 0.1):
        emp = cg.quantum_match_profile(cg.GeneralAnglePlan.equally_spaced(delta), SEED, ROUNDS)
        exact = cg.quantum_profile(delta)
        print(
            f"{delta:7.2f} {emp.q00:10.5f} {exact.q00:10.5f} "
            f"{cg.payoff(emp):11.4f} {cg.payoff(exact):13.4f}"
        )
    print("the exact payoff (1 - cos 3d)/(1 - cos d) climbs toward 9 as d shrinks")
    print("(the empirical ratio gets noisy at small d, where all four mismatch")
    print(" probabilities are tiny; more rounds tighten it)\n")

    print("= No signaling =")
    n = 40_000
    # the pair owns its randomness, and the arbiter that plays the match draws none
    one, two = cg.quantum_player_strategy(cg.GeneralAnglePlan.equally_spaced(0.1), SEED)
    moves_b = [0, 0, 0, 0]  # player one's B moves per state-pair block
    for start, move_one, _ in cg.play_match(one, two, n):
        moves_b[start // n] += np.count_nonzero(move_one)
    # blocks (0,0) and (0,1): player one is in state 0 in both, the partner's state changes
    for partner_state in (0, 1):
        freq = moves_b[partner_state] / n
        print(f"player one's move-B frequency with partner in state {partner_state}: {freq:.4f}")
    print("both frequencies sit at 1/2; the partner's state is invisible")


if __name__ == "__main__":
    main()
