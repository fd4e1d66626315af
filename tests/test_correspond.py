"""Coset table, limit targets, relations, translations, and the limit of
a relation.

Numeric tolerances sit far above measured headroom: the fixture-vs-walk
agreement comes in around 1e-12 and the translated-relation residuals
around 1e-12, against contract bounds of 1e-8 and 1e-4/1e-6.  The t-free
limit of roy463 closes to about 1e-14, against check 15's 1e-12.
"""

import cmath
import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from hyperweyl import correspond
from hyperweyl.coxeter import (
    all_m_labels, jl_label, orbit_color, parse_label, triple_orbits, triple_words,
)
from hyperweyl.exactalg import LinForm, Q_GENERATOR_NAMES, V_GENERATOR_NAMES, V_SYMBOLS, W_SYMBOLS
from hyperweyl.hypnum import (
    DegeneratePointError,
    DivergentSeriesError,
    PointV,
    PointW,
    PrecisionWarning,
    combine_exponentials,
    eval_J_log,
    eval_M_log,
    lgamma,
    log_sin_pi,
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
    contracts,
    draw_point,
    eval_relation,
    gamma2_target,
    gen_point,
    l_coset_args,
    limit_normalizer,
    limit_probe_args,
    relation_limit,
    relation_limit_gaps,
    relation_probe_args,
    relation_report,
    table_json,
    table_text,
    translate_relation,
    xfromw,
)

B = W_SYMBOLS.index("b")


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


def test_a_cold_table_walks_each_space_once(monkeypatch):
    # 32 rows read representative words for their J target while the table
    # is built, and each of the 56 rows reads the words of its M label for
    # its independent representative; the words of each space come from
    # one orbit walk
    from collections import Counter

    from hyperweyl import coxeter

    walk, walks = coxeter._orbit_words, Counter()

    def counted(perms, start):
        words = walk(perms, start)
        walks[len(words)] += 1
        return words

    cached = (coxeter.representative_words, correspond.bfs_m_args, correspond.gamma2_target,
              correspond.appendix_table, correspond._rows_by_label)
    for f in cached:
        f.cache_clear()
    monkeypatch.setattr(coxeter, "_orbit_words", counted)
    assert len(appendix_table()) == 56
    for row in appendix_table():
        bfs_m_args(row.label)
    assert walks == {56: 1, 32: 1}


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
        (Q_GENERATOR_NAMES, "roy463", "w", 1e-4),
        (V_GENERATOR_NAMES, "orbit1jll", "v", 1e-6),
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


def _shifted_residuals(rel, q):
    """The relation's residual at q with b shifted by each of SHIFTS."""
    return [eval_relation(rel, replace(q, b=q.b + 1j * t)) for t in correspond.SHIFTS]


@pytest.mark.parametrize("label", ["+v(0,7)", "+v(1,7)", "+v(0,1)", "+v(2,7)"])
def test_check_limit_converges(label):
    # a row's limit relation, normalizer·M - (pi/2)·target, closes as b
    # moves up the imaginary axis
    rng = random.Random(sum(ord(ch) for ch in label))
    row = appendix_row(label)
    _, errors = draw_point(rng, "W", lambda q: _shifted_residuals(row.limit, q))
    assert contracts(errors)
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 0.6 * errors[0]
    (norm, m), (_, target) = row.limit.terms
    assert norm is row.normalizer and m.args == row.m_args and target is row.target


def test_collapsed_rows_share_the_target_value():
    # +v(0,7) and +v(1,7) carry the same L target; the reference values
    # their limits aim at must coincide.
    rng = random.Random(77)
    r1, r2 = map(appendix_row, ("+v(0,7)", "+v(1,7)"))
    (norm, m2), _ = r2.limit.terms
    pair = Relation("pair", (r1.limit.terms[0], (GammaSinExpr(-norm.prefactor, norm.numerator, norm.denominator), m2)))
    one_target = Relation.equal("one target", r1.target, r2.target)
    _, (e1, e2, gaps, diff) = draw_point(rng, "W", lambda q: [
        *(_shifted_residuals(rel, q) for rel in (r1.limit, r2.limit, pair)), eval_relation(one_target, q)])
    assert contracts(e1) and contracts(e2)
    assert diff <= 1e-10
    # the two rows are distinct representatives, and their normalized
    # shifted values agree at every shift, not only in the limit
    assert len(e1) == len(e2) == len(gaps) == len(correspond.SHIFTS)
    combined = e1[-1] + e2[-1]
    assert all(gap <= combined for gap in gaps)


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
    # each term pairs with its row's target; all three grow alike exactly,
    # the t-free relation among the targets closes, and every term's gap to
    # its expansion contracts over the shifts
    roy = builtin_relations()["roy463"]

    def limits(q):
        lim = relation_limit(roy, q)
        return lim, [target.eval_log(q.args()) for *_, target in lim], relation_limit_gaps(roy, q)

    _, (lim, targets, gaps) = draw_point(random.Random(463), "W", limits)
    assert [target for *_, target in lim] == [appendix_row(lab).target for lab in roy.term_labels()]
    assert lim[0][0] == lim[1][0] == lim[2][0]
    assert combine_exponentials([d + x for (_, d, _), x in zip(lim, targets)])[1] <= 1e-12
    assert all(map(contracts, gaps))


@pytest.mark.parametrize("beta", [-2, -1, 1])
@pytest.mark.parametrize("kind", ["gamma", "sine"])
def test_growth_of_one_factor(kind, beta):
    # log Gamma(x + i beta t) and log sin pi(x + i beta t) against their
    # expansions: the gamma gap shrinks like 1/t over the shifts; the sine's,
    # exp(-2 pi |beta| t), shrinks over the shifts / 32 and lies below
    # rounding at the shifts themselves
    p = PointW(0.3 + 0.1j, 0.45 - 0.2j, 0.6, 0.2, 0.7 + 0.05j, 0.35, 0.55)
    form = LinForm.parse(f"a{beta:+d}b", W_SYMBOLS)
    key = "gamma_num" if kind == "gamma" else "sin_num"
    growth, rest = GammaSinExpr.build(W_SYMBOLS, 1, **{key: (form,)}).growth(p.args())
    exact = lgamma if kind == "gamma" else log_sin_pi

    def gaps(shifts):
        return [abs(cmath.exp((exact(form.evaluate(replace(p, b=p.b + 1j * t).args())) - rest).as_log()
                              - growth.at(t, p.args())) - 1) for t in shifts]

    if kind == "gamma":
        assert (growth.a, growth.b_re, growth.b_pow) == (beta, -Fraction(abs(beta), 2), Fraction(abs(beta)) ** beta)
        assert growth.c == form - Fraction(1, 2)
        assert contracts(gaps(correspond.SHIFTS))
    else:
        assert (growth.a, growth.b_re, growth.b_pow, growth.c.is_zero()) == (0, abs(beta), 1, True)
        assert contracts(gaps([t / 32 for t in correspond.SHIFTS]))
        assert max(gaps(correspond.SHIFTS)) < 1e-13


def test_growth_refuses_a_seven_slot_expression():
    # growth shifts b, a letter of the eight-slot alphabet only: a seven-slot
    # coefficient is refused with a message naming its alphabet
    coef = builtin_relations()["orbit1jll"].terms[0][0]
    assert {form.alphabet for _, form in coef.numerator + coef.denominator} == {V_SYMBOLS}
    message = "growth is defined under b -> b + it on the letters a..h, not on ABCDEFG"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        coef.growth(PointV(-1 + 0.07, 0.4, 0.5, 0.6, 0.3, 0.2).args())


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


def test_gamma_sine_factors_hold_their_margins_in_factor_order():
    # the numerator's sine is read before the denominator's gamma, and the
    # gamma's margin is held before its log is taken in one batch
    expr = GammaSinExpr.build(W_SYMBOLS, -2, gamma_den=("a",), sin_num=("b",))
    rest = [0.3 + 0.1j] * 6
    with pytest.raises(DegeneratePointError, match=re.escape("gamma argument (-0.95+0j) within 0.1 of a pole")):
        expr.eval_log([-0.95, 0.3 + 0.1j] + rest)
    with pytest.raises(DegeneratePointError, match="sine margin violated"):
        expr.eval_log([-0.95, 1.01] + rest)
    got = expr.eval_log([-0.85, 0.3 + 0.1j] + rest).to_complex()
    want = -2 * cmath.sin(math.pi * (0.3 + 0.1j)) / math.gamma(-0.85)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_repeated_factors_cancel_exactly_and_keep_their_margins():
    # Gamma(a) Gamma(b) / Gamma(b) is Gamma(a) bit for bit, yet the point
    # must still clear Gamma(b)'s margin
    both = GammaSinExpr.build(W_SYMBOLS, 1, gamma_num=("a", "b"), gamma_den=("b",))
    alone = GammaSinExpr.build(W_SYMBOLS, 1, gamma_num=("a",))
    rng = random.Random(1)
    for _ in range(200):
        vals = [complex(rng.uniform(0.5, 30), rng.uniform(-20, 20)) for _ in range(8)]
        assert both.eval_log(vals) == alone.eval_log(vals)
    near = [0.3 + 0.1j, -2 + 0.05] + [0.4] * 6
    alone.eval_log(near)
    with pytest.raises(DegeneratePointError, match="within 0.1 of a pole"):
        both.eval_log(near)


def test_one_message_per_violation():
    # a family and a product say the same of the same gamma argument, and
    # M's sine argument b - a says which margin it missed
    p = PointV(-1 + 0.07, 0.4, 0.5, 0.6, 0.3, 0.2)
    with pytest.raises(DegeneratePointError, match="within 0.1 of a pole") as family:
        eval_J_log(p)
    with pytest.raises(DegeneratePointError) as product:
        GammaSinExpr.build(V_SYMBOLS, 1, gamma_num=("A",)).eval_log(p.args())
    assert str(family.value) == str(product.value)
    q = PointW(0.3 + 0.1j, 0.32 + 0.1j, 0.6, 0.2, 0.7 + 0.05j, 0.35, 0.55)
    with pytest.raises(DegeneratePointError, match="sine margin violated"):
        eval_M_log(q)


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
            admitted = _admitted(lambda x: _shifted_residuals(appendix_row(label).limit, x), q)
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
