"""Fixed catalog of end-to-end checks, one pass/fail verdict each.

Every check is seed-reproducible and self-contained, and the catalog order
never changes, so reports are comparable across runs.  Each check returns
its verdict, a one-line detail and its evidence: a JSON-ready dict of the
values it measured, the bounds it held them to and the reports it built.
Stated time budgets are part of the verdict: a correct answer arriving too
late fails.  The only setting is the seed.  Every bound is fixed: the
residual tolerances correspond.ROY463_TOL (1e-5, eight-slot) and
ORBIT1JLL_TOL (1e-7, seven-slot), ten times those for translated relations,
ROY463B_SHIFTED_TOL (1e-4) at shifted points, LIMIT_DECAY (0.6), the
final/initial error ratio a limit must reach, and check 15's bounds below.
"""

import cmath
import math
import random
import time
import tracemalloc
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement

import numpy as np

from .coxeter import (
    Color,
    M_BFS_GENERATOR_ORDER,
    act_m,
    act_t,
    all_m_labels,
    all_t_labels,
    color_orbits,
    d6_certificate,
    dd_by_cases,
    distance_table,
    full_group_census,
    group_order,
    jl_label,
    matching_generator,
    orbit_color,
    representative_words,
    triple_orbits,
    triple_words,
)
from .exactalg import (
    SUBGROUP_GENERATORS,
    V_GENERATOR_NAMES,
    W_GENERATOR_NAMES,
    coxeter_order,
    generator,
)
from .hypnum import (
    DegeneratePointError,
    combine_exponentials,
    eval_J_log,
    eval_L_7f6_log,
    eval_L_log,
    eval_M_log,
    lgamma,
    log_sin_pi,
)
from . import correspond
from .correspond import (
    Relation,
    appendix_table,
    bfs_m_args,
    builtin_relations,
    check_limit,
    draw_point,
    PointSearchError,
    relation_limit,
    relation_report,
    translate_relation,
    xfromw,
)

__all__ = [
    "CheckResult", "CATALOG", "EXPECTED_ORDERS", "LIMIT_LABELS",
    "group_orders", "run_check", "run_all",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    evidence: dict

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.name} ({self.seconds:.2f}s): {self.detail}"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
            "evidence": self.evidence,
        }


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


# orders of the five named subgroups and of the full eight-slot-side group
# W(E7), shared by check 02 and the groups verb
EXPECTED_ORDERS = {"G_J": 720, "G_L": 1920, "H1": 23040, "Q": 23040, "G": 51840, "full": 2903040}


def group_orders() -> dict:
    """Every order named in EXPECTED_ORDERS, computed."""
    return {k: full_group_census() if k == "full" else group_order(k) for k in EXPECTED_ORDERS}


def _coset_census(seed):
    labels = set(representative_words("M"))
    ok = len(labels) == 56 and labels == set(all_m_labels())
    return ok, f"{len(labels)} labels reached from the base label", {"labels": len(labels)}


# ceiling on the memory the group orders and the W(D6) certificate allocate,
# measured by tracemalloc.  The peak reads 0.198 MB as the first call in a
# process (about 0.03 MB of it the label permutations cached on that call),
# 0.183 MB after check 01 and in the full catalog, and 0.159 MB on a second
# call in one process
GROUP_ORDERS_PEAK_MB = 16.0


def _group_orders(seed):
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        got = group_orders()
        cert = d6_certificate()
        peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()
    iso = cert["even"] and cert["order"] == EXPECTED_ORDERS["H1"] and (
        cert["bridged_order"] == EXPECTED_ORDERS["Q"]
    )
    ok = got == EXPECTED_ORDERS and iso and peak_mb < GROUP_ORDERS_PEAK_MB
    parts = " ".join(f"{k}={v}" for k, v in sorted(got.items()))
    return ok, (
        f"{parts}; {'Q isomorphic to W(D6)' if iso else 'no isomorphism Q -> W(D6)'} "
        f"(generators {'' if cert['even'] else 'not all '}even signed permutations, "
        f"order {cert['order']}, bridged order {cert['bridged_order']}); "
        f"peak memory {peak_mb:.2f} MB (ceiling {GROUP_ORDERS_PEAK_MB:g} MB)"
    ), {
        "orders": got, "expected": EXPECTED_ORDERS, "d6_certificate": cert,
        "peak_mb": peak_mb, "ceiling_mb": GROUP_ORDERS_PEAK_MB,
    }


def _coxeter_presentation(seed):
    pairs = 0
    for side, names in (("w", W_GENERATOR_NAMES), ("v", V_GENERATOR_NAMES)):
        for g1, g2 in combinations_with_replacement(names, 2):
            m = coxeter_order(side, g1, g2)
            prod = generator(side, g1) @ generator(side, g2)
            if not (prod**m).is_identity():
                return False, f"({g1} {g2})^{m} is not the identity on side {side}", {}
            pairs += 1
    return True, f"{pairs} generator pairs verified exactly on both sides", {"pairs": pairs}


def _index_orbits(seed):
    bycolor = {}
    for members in color_orbits():
        colors = {orbit_color(lab) for lab in members}
        if len(colors) != 1:
            return False, f"the orbit of {members[0]} mixes colors {', '.join(sorted(colors))}", {}
        bycolor[colors.pop()] = set(members)
    want = {}
    for lab in all_m_labels():
        want.setdefault(orbit_color(lab), set()).add(lab)
    if bycolor != want:
        return False, "orbit membership differs from the color classifier", {}
    sizes = {str(c): len(m) for c, m in bycolor.items()}
    ok = sorted(sizes.values()) == [12, 12, 32]
    return ok, " ".join(f"{k}:{v}" for k, v in sorted(sizes.items())), {"sizes": sizes}


def _equivariance(seed):
    gens = ("s1", "s2", "s3", "s4", "s5", "s3'")
    count = 0
    for lab in all_m_labels():
        c0, t0 = jl_label(lab)
        for g in gens:
            c1, t1 = jl_label(act_m(g, lab))
            if c1 != c0 or t1 != act_t(matching_generator(g), t0):
                return False, f"label map does not intertwine {g} at {lab}", {}
            count += 1
    return True, f"{count} generator/label pairs intertwine exactly", {"pairs": count}


def _metric_suite(seed):
    labels = all_m_labels()
    index = {lab: k for k, lab in enumerate(labels)}
    d = distance_table("M")
    cases = np.array([[dd_by_cases(u, v) for v in labels] for u in labels])
    neg = np.array([index[-lab] for lab in labels])
    faults = [
        (~np.isin(d, (0, 2, 4, 6)), "dd({},{}) = {} outside the value set"),
        (d != cases, "case table disagrees at ({},{})"),
        (d + d[:, neg] != 6, "antipode sum fails at ({},{})"),
    ]
    for g in M_BFS_GENERATOR_ORDER:
        p = np.array([index[act_m(g, lab)] for lab in labels])
        faults.append((d[p][:, p] != d, g + " does not preserve dd at ({},{})"))
    for bad, message in faults:
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return False, message.format(labels[i], labels[j], d[i, j]), {"dd": int(d[i, j])}
    return True, "value set, case table, antipode sum, 7 isometries on all pairs", {
        "pairs": len(labels) ** 2, "isometries": len(M_BFS_GENERATOR_ORDER),
    }


def _compression(seed):
    labels = all_m_labels()
    t_index = {lab: k for k, lab in enumerate(all_t_labels())}
    colors, images = zip(*map(jl_label, labels))
    tm = np.array([t_index[lab] for lab in images])
    blue, red = (np.array([c == color for c in colors]) for color in (Color.BLUE, Color.RED))
    drop = 2 * (np.outer(blue, red) | np.outer(red, blue))
    bad = distance_table("T")[tm][:, tm] != distance_table("M") - drop
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return False, f"compression fails at ({labels[i]},{labels[j]})", {}
    return True, f"distance compression exact on all {bad.size} pairs", {"pairs": bad.size}


def _triple_censuses(seed):
    orbs = {space: triple_orbits(space) for space in ("M", "J", "L", "T")}
    census = {
        space: {"triples": sum(o["size"] for o in found), "orbits": len(found)}
        for space, found in orbs.items()
    }
    if census["M"] != {"triples": 27720, "orbits": 5}:
        return False, f"eight-slot census {census['M']['orbits']} orbits", census
    if {o["type"] for o in orbs["M"]} != {"222", "224", "244", "246", "444"}:
        return False, "eight-slot type classes wrong", census
    if census["J"] != {"triples": 4960, "orbits": 5}:
        return False, f"sign-string census {census['J']['orbits']} orbits", census
    bytag = {o["type"]: o["size"] for o in orbs["L"]}
    if bytag != {"coherent": 160, "incoherent": 60}:
        return False, f"second-family census {bytag}", census
    comp = {}
    for o in orbs["T"]:
        mix = o["type"].split(":")[0]
        comp[mix] = comp.get(mix, 0) + 1
    if census["T"] != {"triples": 13244, "orbits": 18}:
        return False, f"union census {census['T']['orbits']} orbits", census
    if comp != {"JJJ": 5, "JJL": 7, "JLL": 4, "LLL": 2}:
        return False, f"union composition {comp}", census
    return True, "27720->5, 4960->5, 220->160+60, 13244->18 (2/4/7/5 by mixture)", census


def _mod_2pi(d: complex) -> float:
    k = round(d.imag / (2 * math.pi))
    return abs(complex(d.real, d.imag - 2 * math.pi * k))


def _stirling_log(z: complex) -> complex:
    return (
        (z - 0.5) * cmath.log(z)
        - z
        + 0.5 * math.log(2 * math.pi)
        + 1 / (12 * z)
        - 1 / (360 * z**3)
    )


def _gamma_layer(seed):
    rng = random.Random(seed)
    worst_ref = worst_rec = 0.0
    count = 0
    while count < 1000:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z - round(z.real)) < 0.1 or abs(z) < 0.1:
            continue
        count += 1
        lhs = lgamma(z).as_log() + lgamma(1 - z).as_log()
        rhs = math.log(math.pi) - log_sin_pi(z, margin=1e-9).as_log()
        ref = _mod_2pi(lhs - rhs) / max(1.0, abs(lhs))
        rec = _mod_2pi(
            lgamma(z + 1).as_log() - lgamma(z).as_log() - cmath.log(z)
        ) / max(1.0, abs(lgamma(z + 1).as_log()))
        worst_ref = max(worst_ref, ref)
        worst_rec = max(worst_rec, rec)
        if ref > 1e-12 or rec > 1e-12:
            return False, f"reflection {ref:.2e}, recursion {rec:.2e} at {z}", {
                "reflection": ref, "recursion": rec, "bound": 1e-12,
            }
    worst_st = 0.0
    for _ in range(100):
        z = cmath.rect(1000.0, rng.uniform(-1.4, 1.4))
        st = _stirling_log(z)
        err = _mod_2pi(lgamma(z).as_log() - st) / abs(st)
        worst_st = max(worst_st, err)
        if err > 1e-10:
            return False, f"asymptotic mismatch {err:.2e} at {z}", {
                "asymptotics": err, "bound": 1e-10,
            }
    return True, (
        f"1000 points: reflection {worst_ref:.1e}, recursion {worst_rec:.1e}; "
        f"|z|=1000 asymptotics {worst_st:.1e}"
    ), {
        "reflection": worst_ref, "recursion": worst_rec, "asymptotics": worst_st,
        "bounds": {"reflection": 1e-12, "recursion": 1e-12, "asymptotics": 1e-10},
    }


def _function_invariance(seed):
    rng = random.Random(seed)
    worst = {}
    bounds = {"J": correspond.ORBIT1JLL_TOL, "L": correspond.ORBIT1JLL_TOL,
              "M": correspond.ROY463_TOL}
    evidence = {"worst": worst, "bounds": bounds}
    jobs = (
        ("J", "G_J", eval_J_log, "V", 5),
        ("L", "G_L", eval_L_log, "V", 5),
        ("M", "G", eval_M_log, "W", 3),
    )
    for kind, gens_key, evaluator, side, npts in jobs:
        mats = SUBGROUP_GENERATORS[gens_key]
        worst[kind] = 0.0

        def images(p):
            return evaluator(p.args()), [evaluator(mat.apply_values(p.args())) for mat in mats]

        for _ in range(npts):
            _, (base, moved) = draw_point(rng, side, images)
            for value in moved:
                err = abs((value - base).to_complex() - 1.0)
                worst[kind] = max(worst[kind], err)
                if err > bounds[kind]:
                    return False, f"{kind} moves by {err:.2e} under a generator", evidence
    return True, (
        f"J {worst['J']:.1e} (5 gens), L {worst['L']:.1e} (5 gens), "
        f"M {worst['M']:.1e} (6 gens)"
    ), evidence


def _l_dual_route(seed):
    rng = random.Random(seed)
    tol = correspond.ORBIT1JLL_TOL

    def routes(p):
        args = p.args()
        if (args[5] - args[3]).real <= 0.05:
            raise DegeneratePointError("thin half-plane margin for the 7F6 route")
        return eval_L_log(args), eval_L_7f6_log(args)

    worst = 0.0
    for _ in range(3):
        _, logs = draw_point(rng, "V", routes)
        a, b = (lg.to_complex() for lg in logs)
        err = abs(a - b) / abs(a)
        worst = max(worst, err)
        if err > tol:
            return False, f"routes differ by {err:.2e}", {"worst": worst, "bound": tol}
    return True, f"two evaluation routes agree to {worst:.1e} at 3 points", {
        "worst": worst, "bound": tol,
    }


def _relations(seed):
    rng = random.Random(seed)
    rels = builtin_relations()
    reports = []

    def drawn(rel, side):
        return draw_point(rng, side, lambda q: relation_report(rel, q))[1]

    def measure(rep, bound):
        mags = [t["log_mag"] for t in rep["terms"] if "log_mag" in t]
        rep["bound"] = bound
        rep["passed"] = rep["residual"] <= bound
        rep["log_mag_spread"] = max(mags) - min(mags) if mags else 0.0
        reports.append(rep)
        return rep["residual"]

    summary = []
    for name, side, gens, tol in (
        ("roy463", "W", ("s1", "s2", "s3", "s4", "s5", "s3'"), correspond.ROY463_TOL),
        ("orbit1jll", "V", ("a1", "a2", "a3", "a4", "a5", "a1'"), correspond.ORBIT1JLL_TOL),
    ):
        base = rels[name]
        worst = max(measure(drawn(base, side), tol) for _ in range(3))
        moved = [translate_relation(base, (g,), side.lower()) for g in gens]
        worst_t = max(measure(drawn(rel, side), 10 * tol) for rel in moved)
        summary.append(f"{name} {worst:.1e} (translated {worst_t:.1e})")
    # roy463b is drawn last, so the points above do not move; it must vanish
    # at its point and with b shifted by each of SHIFTS
    royb = rels["roy463b"]
    _, (at_p, *shifted) = draw_point(rng, "W", lambda q: [
        relation_report(royb, x) for x in [q] + [replace(q, b=q.b + 1j * t) for t in correspond.SHIFTS]
    ])
    res = measure(at_p, correspond.ROY463_TOL)
    res_t = max(measure(r, correspond.ROY463B_SHIFTED_TOL) for r in shifted)
    summary.append(f"roy463b {res:.1e} (shifted {res_t:.1e})")
    evidence = {"reports": reports}
    for rep in reports:
        if not rep["passed"]:
            return False, (
                f"{rep['relation']} residual {rep['residual']:.2e} "
                f"beyond its bound {rep['bound']:.0e}"
            ), evidence
    return True, "; ".join(summary), evidence


# the rows check 13 drives through the limit; the first two are a blue/red
# pair aiming at one target
LIMIT_LABELS = ("+v(0,7)", "+v(1,7)", "+v(0,1)", "+v(2,7)")


def _limits(seed):
    rng = random.Random(seed)
    decay = correspond.LIMIT_DECAY
    rows = []
    for lab in LIMIT_LABELS:
        rows.append(draw_point(rng, "W", lambda q: check_limit(lab, q))[1])

    # at a common point, the pair's normalized shifted values must agree at
    # every shift to within the sum of the two final shift errors
    _, pair = draw_point(rng, "W", lambda q: [check_limit(lab, q) for lab in LIMIT_LABELS[:2]])
    gaps = [
        abs((v1 - v2).to_complex() - 1.0)
        for v1, v2 in zip(pair[0].values, pair[1].values)
    ]
    gap = max(gaps)
    combined = sum(rep.errors[-1] for rep in pair)
    evidence = {
        "decay": decay,
        "reports": [rep.to_dict() for rep in rows + pair],
        "pair_gap": gap,
        "pair_bound": combined,
    }
    for rep in rows:
        if not rep.verdict:
            errs = " -> ".join(f"{e:.1e}" for e in rep.errors)
            return False, (
                f"{rep.label}: errors {errs} must decrease strictly to at most "
                f"{decay:g} of the first"
            ), evidence
    if not all(rep.verdict for rep in pair):
        return False, "blue/red pair fails to contract at the shared point", evidence
    if gap > combined:
        t = pair[0].shifts[gaps.index(gap)]
        return False, f"pair values differ by {gap:.2e} > {combined:.2e} at shift {t:g}", evidence
    worst = max(rep.errors[-1] / rep.errors[0] for rep in rows)
    return True, (
        f"4 rows contract (worst final/initial {worst:.2f}); "
        f"blue/red value gap {gap:.1e} within {combined:.1e}"
    ), evidence


def _appendix(seed):
    rng = random.Random(seed)
    # appendix_table refuses a fixture row whose target kind or label is not
    # jl_label's, so here only the fixture's target arguments remain to
    # check.  Each row draws its own two points: one point shared by all 56
    # rows is refused by some row about nine draws in ten
    def row_values(row, p):
        vals = p.args()
        return (
            eval_M_log([x.evaluate(vals) for x in row.m_args]),
            eval_M_log([x.evaluate(vals) for x in bfs_m_args(row.label)]),
            row.target.eval_log(vals),
            row.printed.eval_log(vals),
        )

    worst_m = worst_t = 0.0
    for row in appendix_table():
        for _ in range(2):
            _, (a, b, target, printed) = draw_point(rng, "W", lambda q: row_values(row, q))
            err = abs((a - b).to_complex() - 1.0)
            worst_m = max(worst_m, err)
            if err > 1e-8:
                return False, f"{row.label}: representatives disagree by {err:.2e}", {
                    "label": str(row.label), "coset_agreement": err, "bound": 1e-8,
                }
            err = abs((target - printed).to_complex() - 1.0)
            worst_t = max(worst_t, err)
            if err > 1e-8:
                return False, f"{row.label}: target lists disagree by {err:.2e}", {
                    "label": str(row.label), "target_agreement": err, "bound": 1e-8,
                }
    return True, (
        f"56 rows structural; coset agreement {worst_m:.1e}, "
        f"target agreement {worst_t:.1e} at 2 points per row"
    ), {"rows": 56, "coset_agreement": worst_m, "target_agreement": worst_t, "bound": 1e-8}


# check 15 reads each derived limit relation at these shifts of b.  The
# worst values at seeds 1-20, against these bounds: three-term residual 1.2e-8
# at the last shift, fall 59x per decade; blue/red residual 8.1e-13 at the
# first, slope 3.3e-11 off -2 pi; orbit1jll coefficient ratios 1.2e-8
DERIVED_SHIFTS = (1e2, 1e3, 1e4)
RESIDUAL_TOL = 5e-8
DECADE_FALL = 30.0
COLLAPSE_TOL = 5e-12
SLOPE_TOL = 1e-9
MATCH_TOL = 5e-8


def _class_limit(rng, cls, size, word, jll_words):
    """One colour class of roy463's translates through the limit.  Where its
    targets lie on orbit1jll's orbit, orbit1jll moved onto them must have
    the targets as functions and the limit coefficient ratios, and vanish."""
    rels = builtin_relations()
    rel = translate_relation(rels["roy463"], word, "w")
    t_labels = [jl_label(lab)[1] for lab in rel.term_labels()]
    rep = {"class": cls, "triples": size, "word": list(word),
           "targets": [str(lab) for lab in t_labels], "passed": False}
    vword, jll = jll_words.get(frozenset(t_labels)), None
    if vword is not None:
        moved = translate_relation(rels["orbit1jll"], vword, "v")
        by_label = dict(zip(moved.term_labels(), moved.terms))
        jll = Relation(moved.name, tuple(
            (coef.substitute(xfromw()), fun.substitute(xfromw()))
            for coef, fun in map(by_label.get, t_labels)
        ))

    def limit_values(q):
        lims = [relation_limit(rel, q, t) for t in DERIVED_SHIFTS]
        tlogs = [target.eval_log(q.args()) for _, target in lims[0]]
        return lims, tlogs, jll and (
            [coef.eval_log(q.args()) for coef, _ in jll.terms],
            [fun.eval_log(q.args()) for _, fun in jll.terms],
        )

    _, (lims, tlogs, jll_logs) = draw_point(rng, "W", limit_values)
    # the values are logs; an overflow can come only from the arithmetic
    # below, and fails this class alone
    try:
        logs = [[q + x for (q, _), x in zip(lim, tlogs)] for lim in lims]
        res = rep["residuals"] = [combine_exponentials(terms)[1] for terms in logs]
        if len(set(t_labels)) == 3:
            rep["falls"] = [a / b for a, b in zip(res, res[1:])]
            passed = res[-1] <= RESIDUAL_TOL and min(rep["falls"]) >= DECADE_FALL
        else:
            # a blue and a red row share one target; the third term must
            # die like exp(-2 pi t), leaving a two-term identity
            odd = next(k for k, lab in enumerate(t_labels) if t_labels.count(lab) == 1)
            mags = [terms[odd].log_mag - max(x.log_mag for x in terms) for terms in logs]
            slope = rep["third_slope"] = (mags[2] - mags[1]) / (DERIVED_SHIFTS[2] - DERIVED_SHIFTS[1])
            passed = res[0] <= COLLAPSE_TOL and abs(slope + 2 * math.pi) <= SLOPE_TOL
        if jll is not None:
            coefs, funs = jll_logs
            match = rep["orbit1jll"] = {
                "word": list(vword),
                "function_agreement": max(abs((f - t).to_complex() - 1) for f, t in zip(funs, tlogs)),
                "residual": combine_exponentials([c + f for c, f in zip(coefs, funs)])[1],
                "ratio_errors": [
                    max(abs(((q - lim[0][0]) - (c - coefs[0])).to_complex() - 1)
                        for (q, _), c in zip(lim[1:], coefs[1:]))
                    for lim in lims
                ],
            }
            passed = passed and match["ratio_errors"][-1] <= MATCH_TOL and max(
                match["function_agreement"], match["residual"]) <= correspond.ORBIT1JLL_TOL
        rep["passed"] = passed
    except OverflowError as exc:
        rep["failure"] = f"{type(exc).__name__}: {exc}"
    return rep


def _relation_limits(seed):
    rng = random.Random(seed)
    rels = builtin_relations()
    classes = {}
    for members, word in triple_words("M", rels["roy463"].term_labels()).items():
        cls = ",".join(sorted(orbit_color(lab) for lab in members))
        classes.setdefault(cls, [0, word])[0] += 1
    jll_words = triple_words("T", rels["orbit1jll"].term_labels())
    reports = [_class_limit(rng, cls, size, word, jll_words) for cls, (size, word) in classes.items()]
    triples = sum(size for size, _ in classes.values())
    evidence = {"triples": triples, "shifts": DERIVED_SHIFTS, "reports": reports, "bounds": {
        "residual": RESIDUAL_TOL, "decade_fall": DECADE_FALL, "collapse": COLLAPSE_TOL,
        "slope": SLOPE_TOL, "orbit1jll": correspond.ORBIT1JLL_TOL, "match": MATCH_TOL,
    }}
    failed = [rep["class"] + (f" ({rep['failure']})" if "failure" in rep else "")
              for rep in reports if not rep["passed"]]
    three = [rep for rep in reports if "falls" in rep]
    matched = [rep["orbit1jll"] for rep in reports if "orbit1jll" in rep]
    if failed or (triples, len(reports), len(three), len(matched)) != (4032, 8, 7, 2):
        return False, f"classes out of bounds: {'; '.join(failed)}" if failed else (
            f"{triples} triples, {len(reports)} classes, {len(three)} three-term, {len(matched)} matched"
        ), evidence
    return True, (
        f"{triples} triples in 8 classes; 7 three-term limits within "
        f"{max(rep['residuals'][-1] for rep in three):.1e} at t=1e4, falling at least "
        f"{min(min(rep['falls']) for rep in three):.0f}x a decade; blue/red collapses to two "
        f"terms ({next(r for r in reports if 'third_slope' in r)['residuals'][0]:.1e}); "
        f"orbit1jll matches 2 classes within {max(m['ratio_errors'][-1] for m in matched):.1e}"
    ), evidence


# name, implementation, time budget in seconds.  Checks 03-07 and 09-14 get
# about ten times their median in a fresh process, and at least 0.1 s, below
# which a budget would measure scheduling noise (06 and 07 take 0.01 s); check
# 15 takes 0.11-0.15 s in a fresh process, a third of its budget.
CATALOG = (
    ("01-coset-census", _coset_census, 1.0),
    ("02-group-orders", _group_orders, 1.0),
    ("03-coxeter-presentation", _coxeter_presentation, 0.1),
    ("04-index-orbits", _index_orbits, 0.1),
    ("05-equivariance", _equivariance, 0.1),
    ("06-metric-suite", _metric_suite, 0.1),
    ("07-distance-compression", _compression, 0.1),
    ("08-triple-censuses", _triple_censuses, 2.0),
    ("09-gamma-layer", _gamma_layer, 0.5),
    ("10-function-invariance", _function_invariance, 0.7),
    ("11-l-dual-route", _l_dual_route, 0.1),
    ("12-relations", _relations, 0.7),
    ("13-limit-checks", _limits, 1.1),
    ("14-appendix-fidelity", _appendix, 5.5),
    ("15-degeneration-pipeline", _relation_limits, 0.5),
)


def run_check(name: str, seed: int = 7) -> CheckResult:
    """Run one catalog entry by name; seed drives every random point draw.

    Each check draws its points with correspond.draw_point, passing the
    evaluation it makes there, and a draw is redrawn only when that
    evaluation raises DegeneratePointError.  Any other exception, from a
    draw or after it, is the check's failure.  A point search that exhausts
    correspond.POINT_BUDGET is not a verdict on the check: its
    PointSearchError propagates to the caller.
    """
    for entry_name, fn, budget in CATALOG:
        if entry_name == name:
            t0 = time.perf_counter()
            try:
                passed, detail, evidence = fn(seed)
            except PointSearchError:
                raise
            except Exception as exc:
                detail = f"{type(exc).__name__}: {exc}"
                passed, evidence = False, {"error": detail}
            dt = time.perf_counter() - t0
            if passed and dt > budget:
                passed = False
                detail += f" [exceeded {budget:g}s budget]"
            return CheckResult(name, passed, detail, dt, evidence)
    raise KeyError(f"no check named {name!r}")


def run_all(seed: int = 7) -> list:
    """Run the whole catalog in fixed order."""
    return [run_check(name, seed) for name, _, _ in CATALOG]
