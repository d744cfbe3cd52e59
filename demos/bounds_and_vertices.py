"""Establish the classical payoff cap by enumeration and probe the quantum cap.

Lists all 16 deterministic strategy pairs with their mismatch indicator
profiles, checks the vertex inequality that caps every shared-randomness
mixture at payoff 3, evaluates the witness mixture that attains the cap,
and probes the quantum cap numerically with a measurement-angle search.
"""

import numpy as np

import coordgame as cg

MOVE = ("A", "B")


def main():
    print("= The 16 deterministic strategy pairs =")
    print(f"{'idx':>3}  m1(0) m1(1)  m2(0) m2(1)   d00 d01 d10 d11   d00 <= d01+d10+d11")
    for k, (pair, prof) in enumerate(cg.enumerate_deterministic_pairs()):
        d = [int(v) for v in prof.as_array()]
        ok = cg.classical_bound(prof).holds
        print(
            f"{k:3d}   {MOVE[pair.m1[0]]:>4} {MOVE[pair.m1[1]]:>5} "
            f"{MOVE[pair.m2[0]]:>6} {MOVE[pair.m2[1]]:>5}   "
            f"{d[0]:3d} {d[1]:3d} {d[2]:3d} {d[3]:3d}   {ok}"
        )
    print("all 16 vertices satisfy the inequality; mixtures inherit it by linearity\n")

    print("= Exact classical optimum with witness =")
    supremum, witness = cg.lhv_supremum_payoff()
    profile = cg.lhv_profile(witness)
    print(f"supremum payoff: {supremum}")
    active = {k: float(w) for k, w in enumerate(witness.weights) if w > 0}
    print(f"witness weights (vertex index: weight): {active}")
    print(f"witness profile: {np.round(profile.as_array(), 6)}")
    print(f"witness payoff:  {cg.payoff(profile):.12f}\n")

    print("= Measurement-angle search =")
    result = cg.optimize_general_angles()
    print(f"best measurement-angle plan found: payoff {result.payoff:.6f} (cap is 9)")
    print(f"  a1={result.plan.a1:.4f}  b0={result.plan.b0:.4f}  b1={result.plan.b1:.4f}")
    print(f"  near-degenerate flag: {result.near_degenerate}\n")

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
