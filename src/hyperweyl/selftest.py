"""Fixed catalog of end-to-end checks, one pass/fail verdict each.

Every check is seed-reproducible and self-contained, and the catalog order
never changes, so reports are comparable across runs.  Each check returns
its verdict, a one-line detail and its evidence: a JSON-ready dict of the
values it measured, the bounds it held them to and the reports it built.
Stated time budgets are part of the verdict: a correct answer arriving too
late fails.  The two named residual tolerances (the eight-slot 1e-5 and the
seven-slot 1e-7) are engineering margins, adjustable through RunConfig.
"""

import cmath
import math
import random
import time
import tracemalloc
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .coxeter import (
    Color,
    M_BFS_GENERATOR_ORDER,
    act_m,
    act_t,
    all_m_labels,
    color_orbits,
    d6_certificate,
    dd,
    dd_by_cases,
    full_group_census,
    group_order,
    jl_label,
    matching_generator,
    orbit_color,
    representative_words,
    t_distance,
    triple_orbits,
)
from .exactalg import (
    SUBGROUP_GENERATORS,
    V_GENERATOR_NAMES,
    W_GENERATOR_NAMES,
    coxeter_order,
    generator,
)
from .hypnum import (
    EvaluationDomainError,
    eval_J_log,
    eval_L_7f6_log,
    eval_L_log,
    eval_M_log,
    j_probe_args,
    l7f6_probe_args,
    l_probe_args,
    lgamma,
    log_sin_pi,
    m_probe_args,
)
from . import correspond
from .correspond import (
    appendix_table,
    bfs_m_args,
    builtin_relations,
    check_limit,
    fixture_rows,
    gen_point,
    limit222_pipeline,
    limit_probe_args,
    PointSearchError,
    pipeline_probe_args,
    relation_probe_args,
    relation_report,
    translate_relation,
)

__all__ = [
    "RunConfig", "CheckResult", "CATALOG", "EXPECTED_ORDERS", "LIMIT_LABELS",
    "group_orders", "run_check", "run_all",
]


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the command line and the check catalog; seed drives
    every random point draw."""

    seed: int = 7
    tol_m: float = correspond.ROY463_TOL
    tol_jl: float = correspond.ORBIT1JLL_TOL
    limit_decay: float = correspond.LIMIT_DECAY
    budget: int = 10_000


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


def _coset_census(cfg):
    labels = set(representative_words("M"))
    ok = len(labels) == 56 and labels == set(all_m_labels())
    return ok, f"{len(labels)} labels reached from the base label", {"labels": len(labels)}


# ceiling on the memory the group orders and the W(D6) certificate allocate,
# measured by tracemalloc; they need about 0.36 MB in a fresh process, most
# of it permutation tuples that Python keeps on its free lists, and less
# once earlier work has filled those lists
GROUP_ORDERS_PEAK_MB = 16.0


def _group_orders(cfg):
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


def _coxeter_presentation(cfg):
    pairs = 0
    for side, names in (("w", W_GENERATOR_NAMES), ("v", V_GENERATOR_NAMES)):
        for g1, g2 in combinations_with_replacement(names, 2):
            m = coxeter_order(side, g1, g2)
            prod = generator(side, g1) @ generator(side, g2)
            if not (prod**m).is_identity():
                return False, f"({g1} {g2})^{m} is not the identity on side {side}", {}
            pairs += 1
    return True, f"{pairs} generator pairs verified exactly on both sides", {"pairs": pairs}


def _index_orbits(cfg):
    bycolor = {}
    for members in color_orbits():
        colors = {orbit_color(lab) for lab in members}
        if len(colors) != 1:
            return False, f"an orbit mixes colors {colors}", {}
        bycolor[colors.pop()] = set(members)
    want = {}
    for lab in all_m_labels():
        want.setdefault(orbit_color(lab), set()).add(lab)
    if bycolor != want:
        return False, "orbit membership differs from the color classifier", {}
    sizes = {str(c): len(m) for c, m in bycolor.items()}
    ok = sorted(sizes.values()) == [12, 12, 32]
    return ok, " ".join(f"{k}:{v}" for k, v in sorted(sizes.items())), {"sizes": sizes}


def _equivariance(cfg):
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


def _metric_suite(cfg):
    labels = all_m_labels()
    for u in labels:
        for v in labels:
            d = dd(u, v)
            if d not in (0, 2, 4, 6):
                return False, f"dd({u},{v}) = {d} outside the value set", {"dd": d}
            if d != dd_by_cases(u, v):
                return False, f"case table disagrees at ({u},{v})", {"dd": d}
            if d + dd(u, -v) != 6:
                return False, f"antipode sum fails at ({u},{v})", {"dd": d}
    for g in M_BFS_GENERATOR_ORDER:
        for u in labels:
            for v in labels:
                if dd(act_m(g, u), act_m(g, v)) != dd(u, v):
                    return False, f"{g} does not preserve dd at ({u},{v})", {}
    return True, "value set, case table, antipode sum, 7 isometries on all pairs", {
        "pairs": len(labels) ** 2, "isometries": len(M_BFS_GENERATOR_ORDER),
    }


def _compression(cfg):
    for u in all_m_labels():
        cu, tu = jl_label(u)
        for v in all_m_labels():
            cv, tv = jl_label(v)
            drop = 2 if {cu, cv} == {Color.BLUE, Color.RED} else 0
            if t_distance(tu, tv) != dd(u, v) - drop:
                return False, f"compression fails at ({u},{v})", {}
    return True, "distance compression exact on all 3136 pairs", {"pairs": 3136}


def _triple_censuses(cfg):
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


def _gamma_layer(cfg):
    rng = random.Random(cfg.seed)
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
            return False, f"residuals {ref:.2e}/{rec:.2e} at {z}", {
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


def _function_invariance(cfg):
    rng = random.Random(cfg.seed)
    worst = {}
    bounds = {"J": cfg.tol_jl, "L": cfg.tol_jl, "M": cfg.tol_m}
    evidence = {"worst": worst, "bounds": bounds}
    jobs = (
        ("J", "G_J", eval_J_log, j_probe_args, "V", 5),
        ("L", "G_L", eval_L_log, l_probe_args, "V", 5),
        ("M", "G", eval_M_log, m_probe_args, "W", 3),
    )
    for kind, gens_key, evaluator, probe, side, npts in jobs:
        mats = SUBGROUP_GENERATORS[gens_key]
        worst[kind] = 0.0

        def probe_all(p):
            vals = p.args()
            g, s = [list(x) for x in probe(vals)]
            for mat in mats:
                pg, ps = probe(mat.apply_values(vals))
                g.extend(pg)
                s.extend(ps)
            return g, s

        for _ in range(npts):
            p = gen_point(rng, side, probe_all, budget=cfg.budget)
            base = evaluator(p.args())
            for mat in mats:
                moved = evaluator(mat.apply_values(p.args()))
                err = abs((moved - base).to_complex() - 1.0)
                worst[kind] = max(worst[kind], err)
                if err > bounds[kind]:
                    return False, f"{kind} moves by {err:.2e} under a generator", evidence
    return True, (
        f"J {worst['J']:.1e} (5 gens), L {worst['L']:.1e} (5 gens), "
        f"M {worst['M']:.1e} (6 gens)"
    ), evidence


def _l_dual_route(cfg):
    rng = random.Random(cfg.seed)

    def probe(p):
        args = p.args()
        if (args[5] - args[3]).real <= 0.05:
            raise EvaluationDomainError("thin half-plane margin for the 7F6 route")
        g1, s1 = l_probe_args(args)
        g2, s2 = l7f6_probe_args(args)
        return tuple(g1) + tuple(g2), tuple(s1) + tuple(s2)

    worst = 0.0
    for _ in range(3):
        p = gen_point(rng, "V", probe, budget=cfg.budget)
        a = eval_L_log(p.args()).to_complex()
        b = eval_L_7f6_log(p.args()).to_complex()
        err = abs(a - b) / abs(a)
        worst = max(worst, err)
        if err > cfg.tol_jl:
            return False, f"routes differ by {err:.2e}", {"worst": worst, "bound": cfg.tol_jl}
    return True, f"two evaluation routes agree to {worst:.1e} at 3 points", {
        "worst": worst, "bound": cfg.tol_jl,
    }


def _relations(cfg):
    rng = random.Random(cfg.seed)
    rels = builtin_relations()
    reports = []

    def measure(rel, side, bound):
        p = gen_point(rng, side, lambda q: relation_probe_args(rel, q), budget=cfg.budget)
        rep = relation_report(rel, p)
        mags = [t["log_mag"] for t in rep["terms"] if "log_mag" in t]
        rep["bound"] = bound
        rep["passed"] = rep["residual"] <= bound
        rep["log_mag_spread"] = max(mags) - min(mags) if mags else 0.0
        reports.append(rep)
        return rep["residual"]

    summary = []
    for name, side, gens, tol in (
        ("roy463", "W", ("s1", "s2", "s3", "s4", "s5", "s3'"), cfg.tol_m),
        ("orbit1jll", "V", ("a1", "a2", "a3", "a4", "a5", "a1'"), cfg.tol_jl),
    ):
        base = rels[name]
        worst = max(measure(base, side, tol) for _ in range(3))
        worst_t = max(
            measure(translate_relation(base, (g,), side.lower()), side, 10 * tol)
            for g in gens
        )
        summary.append(f"{name} {worst:.1e} (translated {worst_t:.1e})")
    # unshifted roy463b is drawn last, so the points above do not move
    summary.append(f"roy463b {measure(rels['roy463b'], 'W', cfg.tol_m):.1e}")
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


def _limits(cfg):
    rng = random.Random(cfg.seed)
    rows = []
    for lab in LIMIT_LABELS:
        p = gen_point(
            rng, "W", lambda q: limit_probe_args(lab, q), budget=cfg.budget
        )
        rows.append(check_limit(lab, p, decay=cfg.limit_decay))

    # at a common point, the pair's normalized shifted values must agree at
    # every shift to within the sum of the two final shift errors
    def pair_probe(q):
        g1, s1 = limit_probe_args(LIMIT_LABELS[0], q)
        g2, s2 = limit_probe_args(LIMIT_LABELS[1], q)
        return tuple(g1) + tuple(g2), tuple(s1) + tuple(s2)

    p = gen_point(rng, "W", pair_probe, budget=cfg.budget)
    pair = [check_limit(lab, p, decay=cfg.limit_decay) for lab in LIMIT_LABELS[:2]]
    gaps = [
        abs((v1 - v2).to_complex() - 1.0)
        for v1, v2 in zip(pair[0].values, pair[1].values)
    ]
    gap = max(gaps, default=None)
    combined = sum(rep.errors[-1] for rep in pair if rep.errors)
    evidence = {
        "decay": cfg.limit_decay,
        "reports": [rep.to_dict() for rep in rows + pair],
        "pair_gap": gap,
        "pair_bound": combined,
    }
    for rep in rows:
        if rep.failure is not None:
            return False, f"{rep.label}: {rep.failure}", evidence
        if not rep.verdict:
            errs = " -> ".join(f"{e:.1e}" for e in rep.errors)
            return False, (
                f"{rep.label}: errors {errs} must decrease strictly to at most "
                f"{cfg.limit_decay:g} of the first"
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


def _appendix(cfg):
    rng = random.Random(cfg.seed)
    # appendix_table refuses a fixture row whose target kind or label is not
    # jl_label's, so here only the fixture's target arguments remain to check
    rows = appendix_table()
    fixed = {f.label: f for f in fixture_rows()}

    def probe(p):
        vals = p.args()
        g, s = [], []
        for row in rows:
            for args in (row.m_args, bfs_m_args(row.label)):
                pg, ps = m_probe_args([a.evaluate(vals) for a in args])
                g.extend(pg)
                s.extend(ps)
            for term in (
                row.target_term(),
                correspond.FunTerm(fixed[row.label].target_kind,
                                   fixed[row.label].target_args),
            ):
                pg, ps = term.probe_args(vals)
                g.extend(pg)
                s.extend(ps)
        return g, s

    worst_m = worst_t = 0.0
    for _ in range(2):
        p = gen_point(rng, "W", probe, budget=cfg.budget)
        vals = p.args()
        for row in rows:
            a = eval_M_log([x.evaluate(vals) for x in row.m_args])
            b = eval_M_log([x.evaluate(vals) for x in bfs_m_args(row.label)])
            err = abs((a - b).to_complex() - 1.0)
            worst_m = max(worst_m, err)
            if err > 1e-8:
                return False, f"{row.label}: representatives disagree by {err:.2e}", {
                    "label": str(row.label), "coset_agreement": err, "bound": 1e-8,
                }
            t1 = row.target_term().eval_log(vals)
            t2 = correspond.FunTerm(
                fixed[row.label].target_kind, fixed[row.label].target_args
            ).eval_log(vals)
            err = abs((t1 - t2).to_complex() - 1.0)
            worst_t = max(worst_t, err)
            if err > 1e-8:
                return False, f"{row.label}: target lists disagree by {err:.2e}", {
                    "label": str(row.label), "target_agreement": err, "bound": 1e-8,
                }
    return True, (
        f"56 rows structural; coset agreement {worst_m:.1e}, "
        f"target agreement {worst_t:.1e} at 2 points per row"
    ), {"rows": 56, "coset_agreement": worst_m, "target_agreement": worst_t, "bound": 1e-8}


def _pipeline(cfg):
    rng = random.Random(cfg.seed)
    p = gen_point(rng, "W", pipeline_probe_args, budget=cfg.budget)
    out = limit222_pipeline(p)
    evidence = {"reports": [out]}
    if out["verdict"] != "PASS":
        bad = [k for k, v in out["steps"].items() if not v.get("pass")]
        return False, f"verdict {out['verdict']}, failing steps {bad}", evidence
    ratios = [
        r
        for factor in out["steps"]["bracket_to_one"]["factors"]
        for r in factor["ratios"]
    ]
    lo, hi = min(ratios), max(ratios)
    evidence["shrink_ratios"] = [lo, hi]
    return True, f"all 5 steps pass; shrink ratios in [{lo:.2f}, {hi:.2f}]", evidence


# name, implementation, time budget in seconds.  Checks 03-07 and 09-15 get
# about ten times their median in a fresh process, and at least 0.1 s, below
# which a budget would measure scheduling noise rather than the check.
CATALOG = (
    ("01-coset-census", _coset_census, 1.0),
    ("02-group-orders", _group_orders, 1.0),
    ("03-coxeter-presentation", _coxeter_presentation, 0.1),
    ("04-index-orbits", _index_orbits, 0.1),
    ("05-equivariance", _equivariance, 0.1),
    ("06-metric-suite", _metric_suite, 6.0),
    ("07-distance-compression", _compression, 1.1),
    ("08-triple-censuses", _triple_censuses, 2.0),
    ("09-gamma-layer", _gamma_layer, 0.5),
    ("10-function-invariance", _function_invariance, 0.7),
    ("11-l-dual-route", _l_dual_route, 0.1),
    ("12-relations", _relations, 0.7),
    ("13-limit-checks", _limits, 1.1),
    ("14-appendix-fidelity", _appendix, 5.5),
    ("15-degeneration-pipeline", _pipeline, 0.5),
)


def run_check(name: str, cfg: RunConfig = None) -> CheckResult:
    """Run one catalog entry by name.

    A point search that exhausts cfg.budget is not a verdict on the check:
    its PointSearchError propagates to the caller.
    """
    cfg = cfg or RunConfig()
    for entry_name, fn, budget in CATALOG:
        if entry_name == name:
            t0 = time.perf_counter()
            try:
                passed, detail, evidence = fn(cfg)
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


def run_all(cfg: RunConfig = None) -> list:
    """Run the whole catalog in fixed order."""
    return [run_check(name, cfg) for name, _, _ in CATALOG]
