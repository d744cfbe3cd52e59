"""Establish the classical payoff cap by enumeration and the quantum cap by proof.

Lists all 16 deterministic strategy pairs with their mismatch indicator
profiles, checks the vertex inequality that caps every shared-randomness
mixture at payoff 3, evaluates the witness mixture that attains the cap,
then states why no singlet plan passes payoff 9 and shows the paper's
plan approaching it in closed form.
"""

import numpy as np

import coordgame as cg

MOVE = ("A", "B")


def main():
    print("= The 16 deterministic strategy pairs =")
    print(f"{'idx':>3}  m1(0) m1(1)  m2(0) m2(1)   d00 d01 d10 d11   d00 <= d01+d10+d11")
    moves, vertices = cg.enumerate_deterministic_pairs()
    names = np.array(MOVE)[moves]  # row k is k in binary: m1(0) m1(1) m2(0) m2(1)
    d = vertices.q.T.astype(int)  # row k: (d00, d01, d10, d11)
    holds = cg.classical_bound(vertices).holds
    for k in range(len(moves)):
        print(
            f"{k:3d}   {names[k, 0]:>4} {names[k, 1]:>5} "
            f"{names[k, 2]:>6} {names[k, 3]:>5}   "
            f"{d[k, 0]:3d} {d[k, 1]:3d} {d[k, 2]:3d} {d[k, 3]:3d}   {holds[k]}"
        )
    print("all 16 vertices satisfy the inequality; mixtures inherit it by linearity\n")

    print("= Exact classical optimum with witness =")
    supremum, weights = cg.lhv_supremum_payoff()
    profile = cg.lhv_profile(weights)
    print(f"supremum payoff: {supremum}")
    active = {k: float(w) for k, w in enumerate(weights) if w > 0}
    print(f"witness weights (vertex index: weight): {active}")
    print(f"witness profile: {np.round(profile.q, 6)}")
    print(f"witness payoff:  {cg.payoff(profile):.12f}\n")

    print("= The singlet cap of 9 =")
    print("for any directions, phi_ij = b_j - a_i - pi gives q_ij = sin^2(phi_ij / 2)")
    print("and phi_00 = phi_01 + phi_10 - phi_11; |sin| is subadditive, so")
    print("sqrt(q00) <= sqrt(q01) + sqrt(q10) + sqrt(q11) <= 3 sqrt(max(q01, q10, q11))")
    print("and no plan passes payoff 9.  The equally-spaced plan reaches (1 + 2 cos d)^2:")
    print(f"{'d':>7} {'payoff':>12} {'(1+2cos d)^2':>13} {'sqrt-bound slack':>17}")
    for delta in (1.0, 0.3, 0.1, 0.01, 0.001):
        profile = cg.quantum_profile(delta)
        closed = (1 + 2 * np.cos(delta)) ** 2
        slack = cg.quantum_bound(profile).slack
        print(f"{delta:7.3f} {cg.payoff(profile):12.9f} {closed:13.9f} {slack:17.3e}")
    print("the payoff rises toward 9 as d shrinks and never reaches it\n")

    print("= Bound verdicts on the two flagship profiles =")
    for label, profile in (
        ("classical (3q, q, q, q) at q=0.1", cg.analytic_classical_profile(0.1)),
        ("quantum at spacing 0.1", cg.quantum_profile(0.1)),
    ):
        cb, qb = cg.classical_bound(profile), cg.quantum_bound(profile)
        print(f"{label}:")
        print(f"  classical bound: holds={cb.holds}  slack={cb.slack:+.6f}")
        print(f"  quantum bound:   holds={qb.holds}  slack={qb.slack:+.6f}")
    print("the quantum profile breaks the classical bound, there is no classical model")


if __name__ == "__main__":
    main()
