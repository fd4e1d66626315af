"""Coset table, limit targets, relations, translations, and the pipeline.

Numeric tolerances sit far above measured headroom: the fixture-vs-walk
agreement comes in around 1e-12 and the translated-relation residuals
around 1e-12, against contract bounds of 1e-8 and 1e-4/1e-6.
"""

import json
import math
import random

import pytest

from hyperweyl.coxeter import MLabel, all_m_labels, parse_label
from hyperweyl.exactalg import LinForm, V_SYMBOLS, W_SYMBOLS
from hyperweyl.hypnum import (
    LogC,
    PrecisionWarning,
    eval_M_log,
    m_probe_args,
    margins_ok,
)
from hyperweyl.correspond import (
    AppendixRow,
    FunTerm,
    GammaSinExpr,
    HALVING_WINDOW,
    Relation,
    appendix_row,
    appendix_table,
    bfs_m_args,
    builtin_relations,
    check_limit,
    eval_relation,
    gamma2_target,
    gen_point,
    l_coset_args,
    limit222_pipeline,
    limit_normalizer,
    limit_probe_args,
    limit_target_template,
    pipeline_probe_args,
    relation_probe_args,
    relation_report,
    table_json,
    table_text,
    translate_relation,
    xfromw,
)

B = W_SYMBOLS.index("b")

Q_GENERATORS_W = ("s1", "s2", "s3", "s4", "s5", "s3'")
Q_GENERATORS_V = ("a1", "a2", "a3", "a4", "a5", "a1'")


def form_key(f):
    r = f.reduced()
    return (r.const, r.coefs)


# ---------------------------------------------------------------------------
# table structure
# ---------------------------------------------------------------------------


def test_table_census():
    rows = appendix_table()
    assert len(rows) == 56
    assert {row.label for row in rows} == set(all_m_labels())
    kinds = [row.target_kind for row in rows]
    assert kinds.count("J") == 32
    assert kinds.count("L") == 24
    colors = [row.target_color for row in rows]
    assert colors.count("blue") == 12
    assert colors.count("red") == 12


def test_row_structure():
    for row in appendix_table():
        bcoefs = [a.reduced().coefs[B] for a in row.m_args]
        if row.target_color == "J":
            assert bcoefs == [0, 0, 0, 0, 0, 0, 1, -1]
        else:
            s = 1 if row.target_color == "blue" else -1
            assert bcoefs == [0, s, 0, 0, 0, 0, 0, -s]
        for a in row.target_args:
            assert a.reduced().coefs[B] == 0
        assert str(appendix_row(str(row.label)).label) == str(row.label)


def test_blue_red_collapse():
    groups = {}
    for row in appendix_table():
        if row.target_kind != "L":
            continue
        key = str(row.target_label)
        groups.setdefault(key, []).append(row)
    assert len(groups) == 12
    for key, pair in groups.items():
        assert len(pair) == 2
        assert {r.target_color for r in pair} == {"blue", "red"}
        assert {r.label.i for r in pair} == {0, 1}
        args0 = [form_key(a) for a in pair[0].target_args]
        args1 = [form_key(a) for a in pair[1].target_args]
        assert args0 == args1


def test_fixture_and_walk_agree_numerically():
    # Same coset, generally different representatives: the eight-slot
    # function must not see the difference.
    rng = random.Random(14007)

    def probe(p):
        vals = p.args()
        g, s = [], []
        for row in appendix_table():
            for args in (row.m_args, bfs_m_args(row.label)):
                pg, ps = m_probe_args([f.evaluate(vals) for f in args])
                g.extend(pg)
                s.extend(ps)
        return g, s

    for _ in range(2):
        p = gen_point(rng, "W", probe)
        vals = p.args()
        for row in appendix_table():
            fixed = eval_M_log([f.evaluate(vals) for f in row.m_args])
            walked = eval_M_log([f.evaluate(vals) for f in bfs_m_args(row.label)])
            assert abs((fixed - walked).to_complex() - 1.0) <= 1e-8


def test_template_matches_primary_targets():
    rng = random.Random(9120)
    rows = appendix_table()

    def probe(p):
        vals = p.args()
        g, s = [], []
        for row in rows:
            for term in (row.target_term(), limit_target_template(row.label)):
                pg, ps = term.probe_args(vals)
                g.extend(pg)
                s.extend(ps)
        return g, s

    p = gen_point(rng, "W", probe)
    vals = p.args()
    for row in rows:
        tmpl = limit_target_template(row.label)
        assert tmpl.kind == row.target_kind
        a = row.target_term().eval_log(vals)
        b = tmpl.eval_log(vals)
        assert abs((a - b).to_complex() - 1.0) <= 1e-7


def test_gamma2_target_accepts_label_text():
    t = gamma2_target("+v(0,7)")
    assert t.kind == "L"
    assert len(t.args) == 7


def test_l_coset_args_all_classify():
    for k in range(1, 7):
        for name in (str(k), f"{k}bar"):
            args = l_coset_args(name)
            assert len(args) == 7


def test_xfromw_satisfies_target_constraint():
    x = xfromw()
    total = x[4] + x[5] + x[6]
    for k in range(4):
        total = total - x[k]
    r = (total - LinForm.const_form(W_SYMBOLS, 1)).reduced()
    assert r.const == 0 and not any(r.coefs)


def test_table_serializations():
    data = json.loads(table_json())
    assert len(data) == 56
    assert all(list(d) == sorted(d) for d in data)
    text = table_text()
    assert len([ln for ln in text.splitlines() if ln.strip()]) >= 56


# ---------------------------------------------------------------------------
# expression objects
# ---------------------------------------------------------------------------


def test_gamma_sin_expr_evaluates():
    e = GammaSinExpr.build(
        W_SYMBOLS, 2, gamma_num=("a",), gamma_den=("b",), sin_num=("c",)
    )
    vals = [complex(x) for x in (0.3, 0.7, 0.4, 0.1, 0.1, 0.1, 0.1, 0.1)]
    got = e.eval_log(vals).to_complex()
    want = (
        2.0
        * math.gamma(0.3)
        / math.gamma(0.7)
        * math.sin(math.pi * 0.4)
    )
    assert abs(got - want) <= 1e-12 * abs(want)


def test_gamma_sin_expr_product_and_zero_prefactor():
    e = GammaSinExpr.build(W_SYMBOLS, 3, gamma_num=("a",))
    f = GammaSinExpr.build(W_SYMBOLS, "1/2", gamma_den=("a",))
    prod = e * f
    vals = [complex(0.4)] * 8
    assert abs(prod.eval_log(vals).to_complex() - 1.5) <= 1e-13
    zero = GammaSinExpr.build(W_SYMBOLS, 0)
    with pytest.raises(ZeroDivisionError):
        zero.eval_log(vals)


def test_fun_term_hyperplane_enforcement():
    w = [LinForm.symbol(W_SYMBOLS, s) for s in W_SYMBOLS]
    FunTerm("M", tuple(w))
    with pytest.raises(ValueError):
        FunTerm("M", tuple(w[:7]) + (w[7] + 1,))
    v = [LinForm.symbol(V_SYMBOLS, s) for s in V_SYMBOLS]
    FunTerm("J", tuple(v))
    with pytest.raises(ValueError):
        FunTerm("J", (v[0] + 1,) + tuple(v[1:]))
    with pytest.raises(ValueError):
        FunTerm("Q", tuple(w))


def test_relation_term_labels():
    rels = builtin_relations()
    assert [str(t) for t in rels["roy463"].term_labels()] == [
        "+v(0,7)",
        "+v(6,7)",
        "+v(0,6)",
    ]
    assert [str(t) for t in rels["orbit1jll"].term_labels()] == ["p0", "4", "5"]


# ---------------------------------------------------------------------------
# relations and translations
# ---------------------------------------------------------------------------


def seeded_points(rng, rel_names, n):
    rels = builtin_relations()
    picked = [rels[name] for name in rel_names]
    side = "W" if picked[0].alphabet == W_SYMBOLS else "V"

    def probe(p):
        g, s = [], []
        for r in picked:
            pg, ps = relation_probe_args(r, p)
            g.extend(pg)
            s.extend(ps)
        return g, s

    return [gen_point(rng, side, probe) for _ in range(n)]


def test_roy463_residuals():
    rng = random.Random(463)
    for p in seeded_points(rng, ("roy463", "roy463b"), 3):
        assert eval_relation(builtin_relations()["roy463"], p) <= 1e-5
        assert eval_relation(builtin_relations()["roy463b"], p) <= 1e-5


def test_orbit1jll_residuals():
    rng = random.Random(610)
    for p in seeded_points(rng, ("orbit1jll",), 3):
        assert eval_relation(builtin_relations()["orbit1jll"], p) <= 1e-7


def test_relation_report_shape():
    rng = random.Random(11)
    (p,) = seeded_points(rng, ("roy463",), 1)
    rep = relation_report(builtin_relations()["roy463"], p)
    assert rep["relation"] == "roy463"
    assert len(rep["terms"]) == 3
    assert all("log_mag" in t for t in rep["terms"])
    assert rep["residual"] <= 1e-5


def test_translations_stay_sound():
    rng = random.Random(55)
    rels = builtin_relations()
    for gen_names, name, side, bound in (
        (Q_GENERATORS_W, "roy463", "w", 1e-4),
        (Q_GENERATORS_V, "orbit1jll", "v", 1e-6),
    ):
        base = rels[name]
        for g in gen_names:
            moved = translate_relation(base, (g,), side)
            assert moved.name == f"{name}.{g}"
            p = gen_point(
                rng, side.upper(), lambda q: relation_probe_args(moved, q)
            )
            assert eval_relation(moved, p) <= bound


def test_translation_by_empty_word_is_identity():
    base = builtin_relations()["roy463"]
    same = translate_relation(base, (), "w")
    assert same.name == "roy463"
    assert [str(t) for t in same.term_labels()] == [
        str(t) for t in base.term_labels()
    ]


def test_translated_labels_move_with_the_action():
    base = builtin_relations()["orbit1jll"]
    moved = translate_relation(base, ("a1'",), "v")
    assert [str(t) for t in moved.term_labels()] == ["p3", "4", "5"]


def test_all_zero_coefficients_warn():
    term = builtin_relations()["roy463"].terms[0][1]
    zero = GammaSinExpr.build(W_SYMBOLS, 0)
    r = Relation("null", ((zero, term),))
    with pytest.warns(PrecisionWarning):
        assert eval_relation(r, [0.2 + 0j] * 8) == 0.0


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", ["+v(0,7)", "+v(1,7)", "+v(0,1)", "+v(2,7)"])
def test_check_limit_converges(label):
    rng = random.Random(sum(ord(ch) for ch in label))
    p = gen_point(rng, "W", lambda q: limit_probe_args(label, q))
    report = check_limit(label, p)
    assert report.failure is None
    assert report.verdict
    assert all(b < a for a, b in zip(report.errors, report.errors[1:]))
    assert report.errors[-1] <= 0.6 * report.errors[0]
    d = report.to_dict()
    assert d["label"] == label and d["verdict"] is True


def test_collapsed_rows_share_the_target_value():
    # +v(0,7) and +v(1,7) carry the same L target; the reference values
    # their limits aim at must coincide.
    rng = random.Random(77)

    def probe(q):
        g1, s1 = limit_probe_args("+v(0,7)", q)
        g2, s2 = limit_probe_args("+v(1,7)", q)
        return tuple(g1) + tuple(g2), tuple(s1) + tuple(s2)

    p = gen_point(rng, "W", probe)
    r1 = check_limit("+v(0,7)", p)
    r2 = check_limit("+v(1,7)", p)
    assert r1.verdict and r2.verdict
    diff = abs((r1.target_log - r2.target_log).to_complex() - 1.0)
    assert diff <= 1e-10
    # the two rows are distinct representatives, and their normalized
    # shifted values agree at every shift, not only in the limit
    assert len(r1.values) == len(r2.values) == len(r1.shifts)
    combined = r1.errors[-1] + r2.errors[-1]
    for v1, v2 in zip(r1.values, r2.values):
        assert abs((v1 - v2).to_complex() - 1.0) <= combined


def test_normalizer_is_b_aware():
    # The normalizer must involve the shifted letter; otherwise nothing
    # cancels the divergence.
    for label in ("+v(0,7)", "+v(0,1)"):
        norm = limit_normalizer(label)
        touched = False
        for kind, f in norm.numerator + norm.denominator:
            if f.reduced().coefs[B] != 0:
                touched = True
        assert touched


def test_limit222_pipeline_passes():
    rng = random.Random(222)
    p = gen_point(rng, "W", pipeline_probe_args)
    out = limit222_pipeline(p)
    assert out["verdict"] == "PASS"
    steps = out["steps"]
    for key in (
        "base_relation",
        "shifted_relation",
        "bracket_to_one",
        "terms_to_limit",
        "limit_relation",
    ):
        assert steps[key]["pass"], key
    lo, hi = HALVING_WINDOW
    for factor in steps["bracket_to_one"]["factors"]:
        assert all(lo <= r <= hi for r in factor["ratios"])
    errs = steps["bracket_to_one"]["errors"]
    assert all(b < a for a, b in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# point generation
# ---------------------------------------------------------------------------


def test_gen_point_budget_exhaustion():
    rng = random.Random(1)
    with pytest.raises(RuntimeError):
        gen_point(rng, "W", lambda p: ((complex(0.0),), ()), budget=5)


def test_gen_point_sides():
    rng = random.Random(2)
    assert len(gen_point(rng, "W").args()) == 8
    assert len(gen_point(rng, "V").args()) == 7
