"""Coset table, limit targets, relations, translations, and the limit of
a relation.

Numeric tolerances sit far above measured headroom: the fixture-vs-walk
agreement comes in around 1e-12 and the translated-relation residuals
around 1e-12, against contract bounds of 1e-8 and 1e-4/1e-6.  The limit of
roy463 falls about 100x per decade of the shift, against a floor of 30x.
"""

import json
import math
import random

import pytest

from hyperweyl import correspond
from hyperweyl.coxeter import (
    all_m_labels, jl_label, orbit_color, parse_label, triple_orbits, triple_words,
)
from hyperweyl.exactalg import LinForm, V_SYMBOLS, W_SYMBOLS
from hyperweyl.hypnum import (
    DegeneratePointError,
    DivergentSeriesError,
    PointW,
    PrecisionWarning,
    combine_exponentials,
    eval_M_log,
    margins_ok,
)
from hyperweyl.correspond import (
    FunTerm,
    GammaSinExpr,
    PointSearchError,
    Relation,
    appendix_row,
    appendix_table,
    bfs_m_args,
    builtin_relations,
    check_limit,
    draw_point,
    eval_relation,
    gamma2_target,
    gen_point,
    l_coset_args,
    limit_normalizer,
    limit_probe_args,
    relation_limit,
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
    kinds = [row.target.kind for row in rows]
    assert kinds.count("J") == 32
    assert kinds.count("L") == 24
    colors = [jl_label(row.label)[0] for row in rows]
    assert colors.count("blue") == 12
    assert colors.count("red") == 12


def test_row_structure():
    for row in appendix_table():
        bcoefs = [a.reduced().coefs[B] for a in row.m_args]
        color, _ = jl_label(row.label)
        if color == "J":
            assert bcoefs == [0, 0, 0, 0, 0, 0, 1, -1]
        else:
            s = 1 if color == "blue" else -1
            assert bcoefs == [0, s, 0, 0, 0, 0, 0, -s]
        for a in row.target.args:
            assert a.reduced().coefs[B] == 0
        assert str(appendix_row(str(row.label)).label) == str(row.label)


def test_blue_red_collapse():
    groups = {}
    for row in appendix_table():
        if row.target.kind != "L":
            continue
        key = str(jl_label(row.label)[1])
        groups.setdefault(key, []).append(row)
    assert len(groups) == 12
    for key, pair in groups.items():
        assert len(pair) == 2
        assert {jl_label(r.label)[0] for r in pair} == {"blue", "red"}
        assert {r.label.i for r in pair} == {0, 1}
        args0 = [form_key(a) for a in pair[0].target.args]
        args1 = [form_key(a) for a in pair[1].target.args]
        assert args0 == args1


def test_fixture_and_walk_agree_numerically():
    # Same coset, generally different representatives: the eight-slot
    # function must not see the difference.
    rng = random.Random(14007)

    def both(row, p):
        vals = p.args()
        return [eval_M_log([f.evaluate(vals) for f in args]) for args in (row.m_args, bfs_m_args(row.label))]

    for row in appendix_table():
        for _ in range(2):
            _, (fixed, walked) = draw_point(rng, "W", lambda q: both(row, q))
            assert abs((fixed - walked).to_complex() - 1.0) <= 1e-8


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


def seeded_reports(rng, rel_names, n):
    """n drawn points, each as the reports of the named relations there."""
    rels = builtin_relations()
    picked = [rels[name] for name in rel_names]
    side = "W" if picked[0].alphabet == W_SYMBOLS else "V"
    return [draw_point(rng, side, lambda q: [relation_report(r, q) for r in picked])[1] for _ in range(n)]


def test_roy463_residuals():
    rng = random.Random(463)
    for roy, royb in seeded_reports(rng, ("roy463", "roy463b"), 3):
        assert roy["residual"] <= 1e-5
        assert royb["residual"] <= 1e-5


def test_orbit1jll_residuals():
    rng = random.Random(610)
    for (rep,) in seeded_reports(rng, ("orbit1jll",), 3):
        assert rep["residual"] <= 1e-7


def test_relation_report_shape():
    rng = random.Random(11)
    ((rep,),) = seeded_reports(rng, ("roy463",), 1)
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
            _, residual = draw_point(rng, side.upper(), lambda q: eval_relation(moved, q))
            assert residual <= bound


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
    # the report that checks 12 and the relations verb read says so too
    with pytest.warns(PrecisionWarning):
        assert relation_report(r, [0.2 + 0j] * 8)["residual"] == 0.0


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", ["+v(0,7)", "+v(1,7)", "+v(0,1)", "+v(2,7)"])
def test_check_limit_converges(label):
    rng = random.Random(sum(ord(ch) for ch in label))
    _, report = draw_point(rng, "W", lambda q: check_limit(label, q))
    assert report.verdict
    assert all(b < a for a, b in zip(report.errors, report.errors[1:]))
    assert report.errors[-1] <= 0.6 * report.errors[0]
    d = report.to_dict()
    assert d["label"] == label and d["verdict"] is True


def test_collapsed_rows_share_the_target_value():
    # +v(0,7) and +v(1,7) carry the same L target; the reference values
    # their limits aim at must coincide.
    rng = random.Random(77)
    _, (r1, r2) = draw_point(rng, "W", lambda q: [check_limit(lab, q) for lab in ("+v(0,7)", "+v(1,7)")])
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


def test_pochhammer_bracket_tends_to_one():
    # roy463b's third coefficient carries the bracket
    # (b)_{c-a}(h)_{c-a}/((1+a-b)_{c-a}(1+a-h)_{c-a}) as two ratios, each with
    # arguments along one imaginary direction: each tends to 1 with its error
    # halving per doubled shift, and in the product the leading corrections
    # cancel (b+h does not move)
    up = GammaSinExpr.build(W_SYMBOLS, 1, gamma_num=("b+c-a", "1+a-h"), gamma_den=("b", "1+c-h"))
    down = GammaSinExpr.build(W_SYMBOLS, 1, gamma_num=("h+c-a", "1+a-b"), gamma_den=("h", "1+c-b"))

    def errors(q):
        shifted = [PointW(q.a, q.b + 1j * t, q.c, q.d, q.e, q.f, q.g).args() for t in correspond.SHIFTS]
        return [[abs(expr.eval_log(vals).to_complex() - 1.0) for vals in shifted] for expr in (up, down, up * down)]

    _, (err_up, err_down, both) = draw_point(random.Random(222), "W", errors)
    for errs in (err_up, err_down):
        assert all(0.3 <= b / a <= 0.7 for a, b in zip(errs, errs[1:]))
    assert all(b < a for a, b in zip(both, both[1:]))
    assert both[-1] < min(err_up[-1], err_down[-1])


def test_relation_limit_of_roy463():
    # each term pairs with its row's target, and the derived seven-slot
    # relation closes about 100x per decade of the shift
    roy = builtin_relations()["roy463"]

    def limits(q):
        lims = [relation_limit(roy, q, t) for t in (1e2, 1e3, 1e4)]
        return lims, [target.eval_log(q.args()) for _, target in lims[0]]

    _, (lims, targets) = draw_point(random.Random(463), "W", limits)
    assert [target for _, target in lims[0]] == [
        appendix_row(lab).target for lab in roy.term_labels()
    ]
    res = [combine_exponentials([q + x for (q, _), x in zip(lim, targets)])[1] for lim in lims]
    assert res[-1] <= 5e-8
    assert all(a >= 30 * b for a, b in zip(res, res[1:]))


# roy463's translates under W(E7), by the colours of their three labels
ROY463_CLASSES = {
    "J,blue,blue": 480, "J,red,red": 480, "J,J,blue": 960, "J,J,red": 960,
    "J,J,J": 640, "blue,blue,blue": 160, "red,red,red": 160, "J,blue,red": 192,
}


def test_roy463_translates_fill_eight_colour_classes():
    roy = builtin_relations()["roy463"]
    words = triple_words("M", roy.term_labels())
    assert len(words) == 4032
    classes = {}
    for members, word in words.items():
        cls = ",".join(sorted(orbit_color(lab) for lab in members))
        classes.setdefault(cls, []).append((members, word))
    assert {cls: len(found) for cls, found in classes.items()} == ROY463_CLASSES
    # the first word into each class translates roy463 onto that triple
    for cls, [(members, word), *_] in classes.items():
        assert set(translate_relation(roy, word, "w").term_labels()) == members
    # through jl_label each class but the blue/red one is one type-222 T orbit
    t_orbits = {o["type"]: o for o in triple_orbits("T") if o["type"].endswith(":222")}
    assert {mix: o["size"] for mix, o in t_orbits.items()} == {
        "JLL:222": 480, "JJL:222": 960, "JJJ:222": 640, "LLL:222": 160,
    }
    for cls, found in classes.items():
        images = {frozenset(jl_label(lab)[1] for lab in members) for members, _ in found}
        if cls == "J,blue,red":
            # its blue and red members share their target
            assert {len(image) for image in images} == {2}
            continue
        mix = "".join(sorted("J" if c == "J" else "L" for c in cls.split(","))) + ":222"
        rep = [parse_label(text) for text in t_orbits[mix]["representative"]]
        assert images == set(triple_words("T", rep))


# ---------------------------------------------------------------------------
# point generation
# ---------------------------------------------------------------------------


def test_gen_point_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(correspond, "POINT_BUDGET", 5)
    draws = []

    def probe(p):
        draws.append(p)
        return (complex(0.0),), ()

    with pytest.raises(PointSearchError, match="in 5 draws"):
        gen_point(random.Random(1), "W", probe)
    assert len(draws) == 5


def test_draw_point_gives_up_after_the_budget(monkeypatch):
    monkeypatch.setattr(correspond, "POINT_BUDGET", 5)
    draws = []

    def refuse(p):
        draws.append(p)
        raise DegeneratePointError("always too close to a pole")

    with pytest.raises(PointSearchError, match="in 5 draws"):
        draw_point(random.Random(1), "W", refuse)
    assert len(draws) == 5


@pytest.mark.parametrize("error", [DivergentSeriesError, OverflowError])
def test_draw_point_redraws_only_for_a_degenerate_point(error):
    # any other failure of the work is a fault at the point, not a reason
    # to draw another
    draws = []

    def fail(p):
        draws.append(p)
        raise error("not a margin")

    with pytest.raises(error, match="not a margin"):
        draw_point(random.Random(1), "W", fail)
    assert len(draws) == 1


def test_draw_point_returns_the_point_with_its_work():
    point, args = draw_point(random.Random(4), "V", lambda q: q.args())
    assert args == point.args()
    assert point == gen_point(random.Random(4), "V")


def test_gamma_factors_refuse_a_point_near_a_pole():
    # the coefficient gamma factors hold the same margin as the evaluators
    gamma_a = GammaSinExpr.build(W_SYMBOLS, 1, gamma_num=("a",))
    rest = [0.3 + 0.1j] * 7
    with pytest.raises(DegeneratePointError, match="within 0.1 of a pole"):
        gamma_a.eval_log([-1 + 0.05] + rest)
    near = gamma_a.eval_log([-1 + 0.11] + rest)
    assert abs(near.to_complex() - math.gamma(-1 + 0.11)) <= 1e-12 * abs(math.gamma(-1 + 0.11))


def _admitted(work, q):
    try:
        work(q)
    except DegeneratePointError:
        return False
    return True


def test_kept_probes_admit_what_the_evaluations_admit():
    # the benchmark still screens its points with relation_probe_args and
    # limit_probe_args: each must accept a draw exactly when the evaluation
    # it stands for does
    rng = random.Random(2024)
    rels = builtin_relations()
    seen = {}
    for name, side, count in (("roy463", "W", 40), ("roy463b", "W", 40), ("orbit1jll", "V", 60)):
        r = rels[name]
        for _ in range(count):
            q = gen_point(rng, side)
            admitted = _admitted(lambda x: relation_report(r, x), q)
            assert margins_ok(*relation_probe_args(r, q)) == admitted, (name, q)
            seen.setdefault(name, set()).add(admitted)
    for label in ("+v(0,7)", "+v(1,7)", "+v(0,1)", "+v(2,7)"):
        for _ in range(15):
            q = gen_point(rng, "W")
            admitted = _admitted(lambda x: check_limit(label, x), q)
            assert margins_ok(*limit_probe_args(label, q)) == admitted, (label, q)
            seen.setdefault(label, set()).add(admitted)
    # every probe met both verdicts
    assert all(verdicts == {False, True} for verdicts in seen.values()), seen


def test_gen_point_sides():
    rng = random.Random(2)
    assert len(gen_point(rng, "W").args()) == 8
    assert len(gen_point(rng, "V").args()) == 7


def test_gen_point_rejects_an_unknown_side():
    with pytest.raises(ValueError, match="side must be W or V"):
        gen_point(random.Random(3), "X")
