"""How the eight-parameter family degenerates onto the seven-parameter ones.

Push one parameter of the eight-slot function toward infinity along a
label's direction and, after dividing out a gamma/sine normalizer, the
value converges to pi/2 times a seven-slot target.  Each row states this as
a relation, normalizer·M - (pi/2)·target, whose residual is its relative
error.  Doubling the shift roughly quarters the error, which is the
convergence signature this demo prints from the evidence of catalog
check 13.

Two extras round out the story: the twelve blue/red label pairs share one
target (the collapse behind the 44-label union space), and every three-term
relation among the seven-slot functions is a limit of the eight-slot
relation roy463.  Catalog check 15 moves roy463 onto one triple of each of
the eight colour classes its translates fill and divides each coefficient
by its row's normalizer.  Under the shift b -> b + it, Stirling's formula
and the sine's exponential give each quotient's log exactly as
A·it·log t + B·t + C·log t + D + o(1).  The terms of largest Re B survive;
where they grow alike, the limit is the t-free relation sum exp(D)·target
= 0.  The demo prints each class's surviving terms, their common growth
and the residual of that relation.

Run:  python3 demos/degeneration_walkthrough.py
"""

from hyperweyl.coxeter import jl_label, parse_label
from hyperweyl.selftest import run_check

SEED = 7


def main():
    # catalog check 13 drives four rows through the shifts, then the first
    # two, a blue/red pair, at one shared point
    limits = run_check("13-limit-checks", SEED).evidence
    *rows, blue, red = limits["reports"]

    print("shift-doubling convergence (error after shift 8, 16, 32):")
    for rep in rows:
        errs = "  ->  ".join(f"{e:.3e}" for e in rep["errors"])
        color, target = jl_label(parse_label(rep["label"]))
        print(f"  {rep['label']}:  {errs}   ({color}, target {target}, "
              f"{'PASS' if rep['verdict'] else 'FAIL'})")

    print("\na blue and a red label aim at the same seven-slot target:")
    for rep in (blue, red):
        color, target = jl_label(parse_label(rep["label"]))
        print(f"  {rep['label']} is {color}, target {target} "
              f"(final shift error {rep['errors'][-1]:.1e})")
    print(f"  normalized shifted values differ by at most {limits['pair_gap']:.3e} "
          f"(within {limits['pair_bound']:.1e}, the sum of the final shift errors)")

    print("\nroy463's translates degenerate onto a t-free relation per colour class")
    print("(surviving terms, their growth A·it·log t + B·t, residual of sum exp(D)·target):")
    result = run_check("15-degeneration-pipeline", SEED)
    for rep in result.evidence["reports"]:
        live = rep["survivors"]
        growth = rep["growth"][live[0]]
        note = "  (blue and red share the target; the third term dies)" if len(live) == 2 else ""
        print(f"  {rep['class']:<15} onto {', '.join(rep['targets']):<12} terms {live}: "
              f"A = {growth['A']}, B = {growth['B']}, residual {rep['residual']:.1e}{note}")
    print(f"verdict: {'PASS' if result.passed else 'FAIL'}")

if __name__ == "__main__":
    main()
