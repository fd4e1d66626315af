"""Three-term relations, their residuals, and transport around the group.

Each built-in relation states that three weighted function values sum to
zero.  The weights are ratios of gamma and sine factors, so individual
terms can differ by many orders of magnitude while the sum still cancels
to near machine precision — the residual below is |sum| / max|term|.
Acting on every term with a group generator produces a new, equally valid
relation between different members of the family; the loop at the end
checks a full ring of single-generator translations.

Run:  python3 demos/relation_translation.py
"""

import random

from hyperweyl.coxeter import matching_generator
from hyperweyl.correspond import (
    builtin_relations,
    draw_point,
    eval_relation,
    relation_report,
    translate_relation,
)
from hyperweyl.exactalg import Q_GENERATOR_NAMES

SEED = 7


def show(rel, side, rng, also=()):
    """Print rel's terms at a random point where rel and every relation in
    `also` can be evaluated, and return the residuals of `also` there."""
    _, (rep, residuals) = draw_point(rng, side, lambda q: (
        relation_report(rel, q), [eval_relation(other, q) for other in also]
    ))
    labels = rel.term_labels()
    print(f"\n{rel.name}  (labels {', '.join(str(x) for x in labels)})")
    for lab, term in zip(labels, rep["terms"]):
        print(f"  term {str(lab):>8}: log-magnitude {term['log_mag']:+9.3f}  "
              f"phase {term['phase']:+6.3f}")
    mags = [t["log_mag"] for t in rep["terms"]]
    print(f"  log-magnitude spread {max(mags) - min(mags):.2f}, "
          f"residual {rep['residual']:.3e}")
    return residuals


def main():
    rng = random.Random(SEED)
    rels = builtin_relations()

    moved_w = [translate_relation(rels["roy463"], (g,), "w") for g in Q_GENERATOR_NAMES]
    moved_v = [
        translate_relation(rels["orbit1jll"], (matching_generator(g),), "v")
        for g in Q_GENERATOR_NAMES
    ]

    res_w = show(rels["roy463"], "W", rng, also=moved_w)
    show(rels["roy463b"], "W", rng)
    res_v = show(rels["orbit1jll"], "V", rng, also=moved_v)

    print("\ntranslating roy463 by each generator of the stabilizer Q:")
    for moved, res in zip(moved_w, res_w):
        labels = ", ".join(str(x) for x in moved.term_labels())
        print(f"  {moved.name:>12}: labels [{labels}]  residual {res:.3e}")

    print("\nand orbit1jll by the matching generators on the other side:")
    for moved, res in zip(moved_v, res_v):
        labels = ", ".join(str(x) for x in moved.term_labels())
        print(f"  {moved.name:>15}: labels [{labels}]  residual {res:.3e}")


if __name__ == "__main__":
    main()
