"""How the eight-parameter family degenerates onto the seven-parameter ones.

Push one parameter of the eight-slot function toward infinity along a
label's direction and, after dividing out a gamma/sine normalizer, the
value converges to a seven-slot target.  Doubling the shift roughly
quarters the error, which is the convergence signature this demo prints.

Two extras round out the story: the twelve blue/red label pairs share one
target (the collapse behind the 44-label union space), and every three-term
relation among the seven-slot functions is a limit of the eight-slot
relation roy463.  Catalog check 15 moves roy463 onto one triple of each of
the eight colour classes its translates fill, divides each coefficient by
its row's normalizer at a shift t of b, and evaluates the resulting
seven-slot relation; the demo prints how its residual falls with t.

Run:  python3 demos/degeneration_walkthrough.py
"""

import random

from hyperweyl.correspond import (
    appendix_row,
    check_limit,
    gen_point,
    limit_probe_args,
    limit_target_template,
)
from hyperweyl.selftest import run_check

SEED = 7


def main():
    rng = random.Random(SEED)

    print("shift-doubling convergence (error after shift 8, 16, 32):")
    for label in ("+v(0,7)", "+v(1,7)", "+v(0,1)", "+v(2,7)"):
        p = gen_point(rng, "W", probe=lambda q: limit_probe_args(label, q))
        rep = check_limit(label, p)
        errs = "  ->  ".join(f"{e:.3e}" for e in rep.errors)
        tmpl = limit_target_template(label)
        print(f"  {label}:  {errs}   (target kind {tmpl.kind}, "
              f"{'PASS' if rep.verdict else 'FAIL'})")

    print("\na blue and a red label aim at the same seven-slot target:")
    blue, red = appendix_row("+v(0,7)"), appendix_row("+v(1,7)")
    print(f"  +v(0,7) is {blue.target_color}, target {blue.target_label}; "
          f"+v(1,7) is {red.target_color}, target {red.target_label}")

    def both(q):
        g1, s1 = limit_probe_args("+v(0,7)", q)
        g2, s2 = limit_probe_args("+v(1,7)", q)
        return tuple(g1) + tuple(g2), tuple(s1) + tuple(s2)

    p = gen_point(rng, "W", probe=both)
    r1, r2 = check_limit("+v(0,7)", p), check_limit("+v(1,7)", p)
    t1 = r1.target_log.to_complex()
    t2 = r2.target_log.to_complex()
    print(f"  limits at a shared point: {t1:.9g} vs {t2:.9g}")
    gap = max(abs((v1 - v2).to_complex() - 1) for v1, v2 in zip(r1.values, r2.values))
    print(f"  normalized shifted values differ by at most {gap:.3e} "
          f"(final shift errors {r1.errors[-1]:.1e}, {r2.errors[-1]:.1e})")

    print("\nroy463's translates degenerate onto a three-term relation per colour class")
    print("(residual at t = 1e2, 1e3, 1e4):")
    result = run_check("15-degeneration-pipeline", SEED)
    for rep in result.evidence["reports"]:
        decay = "  ->  ".join(f"{r:.1e}" for r in rep.get("residuals", ()))
        note = "  (blue and red share the target; the third term dies)" if "third_slope" in rep else ""
        print(f"  {rep['class']:<15} onto {', '.join(rep['targets']):<12} {decay}{note}")
    print(f"verdict: {'PASS' if result.passed else 'FAIL'}")

if __name__ == "__main__":
    main()
