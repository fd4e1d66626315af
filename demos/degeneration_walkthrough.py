"""How the eight-parameter family degenerates onto the seven-parameter ones.

Push one parameter of the eight-slot function toward infinity along a
label's direction and, after dividing out a gamma/sine normalizer, the
value converges to a seven-slot target.  Doubling the shift roughly
quarters the error, which is the convergence signature this demo prints.

Two extras round out the story: the twelve blue/red label pairs share one
target (the collapse behind the 44-label union space), and the 2-2-2
pipeline replays a full degeneration — seed relation, normalization,
shift-doubling, and target relation — end to end.

Run:  python3 demos/degeneration_walkthrough.py
"""

import random

from hyperweyl.correspond import (
    appendix_row,
    check_limit,
    gen_point,
    limit222_pipeline,
    limit_probe_args,
    limit_target_template,
    pipeline_probe_args,
)

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

    print("\nfull 2-2-2 degeneration pipeline:")
    p = gen_point(rng, "W", probe=pipeline_probe_args)
    result = limit222_pipeline(p)
    for name, step in result["steps"].items():
        mark = "PASS" if step.get("pass") else "FAIL"
        extra = ""
        if "residual" in step:
            extra = f"  residual {step['residual']:.3e}"
        elif "ratios" in step:
            extra = "  error ratios " + ", ".join(
                f"{r:.2f}" for r in step["ratios"]
            )
        print(f"  {mark} {name}{extra}")
    print(f"verdict: {result['verdict']}")


if __name__ == "__main__":
    main()
