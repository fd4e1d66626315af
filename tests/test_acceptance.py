"""Acceptance gate: every shipped guarantee, one pass/fail line each.

The fifteen checks live in the fixed catalog in ``hyperweyl.selftest`` —
the same catalog the ``hyperweyl selftest`` verb runs — so the command
line surface and this gate cannot drift apart.  Each check enforces its
own numeric tolerance, its stated wall-clock budget, and (where one
applies) the memory ceiling; this file only asserts the verdicts.

Run with ``pytest -v tests/test_acceptance.py`` to see the individual
criterion lines.
"""

import time

import pytest

from hyperweyl.selftest import CATALOG, run_check

CHECK_NAMES = [name for name, _, _ in CATALOG]


def test_catalog_lists_all_fifteen_checks():
    assert len(CHECK_NAMES) == 15
    assert len(set(CHECK_NAMES)) == 15
    # the two-digit prefixes fix the execution order
    assert CHECK_NAMES == sorted(CHECK_NAMES)


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_acceptance(name):
    result = run_check(name)
    assert result.passed, result.line()


def test_group_orders_check_fails_past_its_memory_ceiling(monkeypatch):
    # check 02 bounds what the group orders themselves allocate, not the
    # process's peak: orders that are right but allocate twice the ceiling
    # fail it
    from hyperweyl import selftest

    def hungry_orders():
        block = bytearray(int(2 * selftest.GROUP_ORDERS_PEAK_MB * 1e6))
        del block
        return dict(selftest.EXPECTED_ORDERS)

    monkeypatch.setattr(selftest, "group_orders", hungry_orders)
    result = run_check("02-group-orders")
    assert not result.passed
    assert f"peak memory {2 * selftest.GROUP_ORDERS_PEAK_MB:.2f} MB" in result.detail


@pytest.fixture
def fresh_tables():
    """Clear the cached label permutations, triple actions, distance tables
    and words on both sides of a test, so that a planted fault is read and
    does not leak."""
    from hyperweyl import coxeter

    caches = (coxeter._space, coxeter._triples, coxeter.distance_table, coxeter.representative_words,
              coxeter.representative_rows)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


@pytest.fixture
def planted_images(monkeypatch, fresh_tables):
    """Give one generator of a space other images of some labels: its
    permutation, read off the matrices, is replaced with one in which label
    a goes where the derived permutation sends label b."""
    from hyperweyl import coxeter

    def plant(space, gen, images):
        _, index, perms = coxeter._space(space)
        perm = perms[gen].copy()
        for a, b in images.items():
            perm[index[a]] = perms[gen][index[b]]
        monkeypatch.setitem(perms, gen, perm)

    return plant


def test_group_orders_check_fails_on_an_odd_generator(planted_images):
    # a1' that bars only one of its two images is an odd signed permutation;
    # with it the six generators reach all 2^6 * 6! signed permutations.
    # a1' sends 1 to 2bar and 2 to 1bar; here 2 goes to 1 and 2bar to 1bar
    from hyperweyl.coxeter import LLabel, d6_certificate

    planted_images("L", "a1'", {LLabel(2): LLabel(2, True), LLabel(2, True): LLabel(2)})
    cert = d6_certificate()
    assert cert["signed_permutations"]["a1'"] == ["2bar", "1", "3", "4", "5", "6"]
    assert not cert["even"]
    assert cert["order"] == 46080
    result = run_check("02-group-orders")
    assert not result.passed
    assert "no isomorphism Q -> W(D6) (generators not all even" in result.detail


def test_group_orders_check_fails_on_a_generator_that_ignores_the_bar(planted_images):
    # swapping 1 with 2bar alone does not commute with the bar: here a1'
    # keeps 2 and 1bar in place instead of swapping them too
    from hyperweyl.coxeter import LLabel, d6_certificate

    planted_images("L", "a1'", {LLabel(2): LLabel(1, True), LLabel(1, True): LLabel(2)})
    with pytest.raises(ValueError, match="a1' is not a signed permutation"):
        d6_certificate()
    result = run_check("02-group-orders")
    assert not result.passed
    assert result.detail == "ValueError: a1' is not a signed permutation of the six coordinates"


def test_a_check_past_its_budget_fails(monkeypatch):
    # a right answer that arrives late fails, and the detail names the budget
    from hyperweyl import selftest

    def late(seed):
        time.sleep(0.15)
        return True, "right but late", {}

    monkeypatch.setattr(selftest, "CATALOG", (("99-late", late, 0.1),))
    result = run_check("99-late")
    assert not result.passed
    assert result.detail == "right but late [exceeded 0.1s budget]"


def test_appendix_check_fails_on_an_altered_slot_vector(monkeypatch):
    # one row's slot vector moved off its coset, keeping the classifying
    # second slot, the hyperplane and the shifted letter's slots: check 14
    # must notice
    from hyperweyl import correspond

    row = "+v(0,7) | a; b; c; d; e; f; g; h |"
    assert row in correspond.FIXTURE_TEXT
    altered = correspond.FIXTURE_TEXT.replace(row, "+v(0,7) | a; b; c+1/3; d-1/3; e; f; g; h |")
    caches = (correspond.appendix_table, correspond._rows_by_label)
    monkeypatch.setattr(correspond, "FIXTURE_TEXT", altered)
    for cached in caches:
        cached.cache_clear()
    try:
        result = run_check("14-appendix-fidelity")
    finally:
        monkeypatch.undo()
        for cached in caches:
            cached.cache_clear()
    assert not result.passed
    assert result.detail.startswith("+v(0,7): representatives disagree")


def test_appendix_check_fails_on_swapped_target_arguments(monkeypatch):
    # two slots of +v(0,7)'s printed target swapped: the kind, the label and
    # the hyperplane still hold, but the function value moves
    from hyperweyl import correspond

    row = "| L 6 | e; f; g; 1+a-c-d; e+f+g-a; 1+a-c; 1+a-d"
    assert row in correspond.FIXTURE_TEXT
    altered = correspond.FIXTURE_TEXT.replace(row, "| L 6 | e; f; g; 1+a-c-d; 1+a-c; e+f+g-a; 1+a-d")
    caches = (correspond.appendix_table, correspond._rows_by_label)
    monkeypatch.setattr(correspond, "FIXTURE_TEXT", altered)
    for cached in caches:
        cached.cache_clear()
    try:
        result = run_check("14-appendix-fidelity")
    finally:
        monkeypatch.undo()
        for cached in caches:
            cached.cache_clear()
    assert not result.passed
    assert result.detail == "+v(0,7): target lists disagree by 9.07e-01"


def test_appendix_check_fails_on_an_altered_target_label(monkeypatch):
    # +v(0,7) degenerates onto L 6; a table that names another label, the
    # wrong kind or an unknown kind is refused while the table is built, and
    # check 14 reports that refusal
    from hyperweyl import correspond

    row = "+v(0,7) | a; b; c; d; e; f; g; h | L 6 |"
    assert row in correspond.FIXTURE_TEXT
    caches = (correspond.appendix_table, correspond._rows_by_label)
    for target, detail in (
        ("L 5", "AssertionError: +v(0,7): target label mismatch"),
        ("J 6", "AssertionError: +v(0,7): target kind mismatch"),
        ("K 6", "ValueError: +v(0,7): target kind 'K' is neither J nor L"),
    ):
        altered = correspond.FIXTURE_TEXT.replace(
            row, f"+v(0,7) | a; b; c; d; e; f; g; h | {target} |"
        )
        monkeypatch.setattr(correspond, "FIXTURE_TEXT", altered)
        for cached in caches:
            cached.cache_clear()
        try:
            result = run_check("14-appendix-fidelity")
        finally:
            monkeypatch.undo()
            for cached in caches:
                cached.cache_clear()
        assert not result.passed, target
        assert result.detail == detail


def _failing_classes(result):
    # a failing check 15 still reports every colour class
    assert not result.passed
    assert result.detail.startswith("classes out of bounds: ")
    reports = result.evidence["reports"]
    assert len(reports) == 8
    return {rep["class"] for rep in reports if not rep["passed"]}


def test_pipeline_check_fails_on_a_dropped_roy463_factor(monkeypatch):
    # roy463 with Gamma(c-a+d) dropped from its first coefficient still
    # translates onto every class, but in none does the t-free relation of
    # its surviving terms close
    from hyperweyl import correspond

    roy = correspond._roy463()
    (coef, fun), *rest = roy.terms
    lossy = correspond.GammaSinExpr(coef.prefactor, coef.numerator, coef.denominator[1:])
    monkeypatch.setattr(correspond, "_roy463", lambda: correspond.Relation(roy.name, ((lossy, fun), *rest)))
    correspond.builtin_relations.cache_clear()
    try:
        result = run_check("15-degeneration-pipeline")
    finally:
        monkeypatch.undo()
        correspond.builtin_relations.cache_clear()
    assert len(_failing_classes(result)) == 8
    assert all("residual" in rep["failed"] for rep in result.evidence["reports"])


def test_pipeline_check_fails_on_a_lossy_normalizer(monkeypatch):
    # +v(0,7)'s normalizer without its Gamma(1+a-h): roy463 itself, the
    # J,blue,blue translate, no longer closes
    from hyperweyl import correspond

    normalizer = correspond.limit_normalizer

    def lossy(t):
        norm = normalizer(t)
        if str(t) != "+v(0,7)":
            return norm
        return correspond.GammaSinExpr(norm.prefactor, norm.numerator[1:], norm.denominator)

    monkeypatch.setattr(correspond, "limit_normalizer", lossy)
    result = run_check("15-degeneration-pipeline")
    assert "J,blue,blue" in _failing_classes(result)
    [rep] = [rep for rep in result.evidence["reports"] if rep["class"] == "J,blue,blue"]
    assert "deficit" in rep["failed"]


def test_pipeline_check_fails_on_a_growth_without_its_linear_gamma_term(monkeypatch):
    # Stirling's -i beta t left out of every gamma factor moves Im B by A,
    # alike in every term: growths still agree and every t-free residual
    # still closes, but the expansions drift from the shifted values by
    # exp(i A t), so the cross-check fails each class with A != 0
    from dataclasses import replace

    from hyperweyl import correspond

    growth = correspond.GammaSinExpr.growth

    def without_linear_term(self, values):
        g, rest = growth(self, values)
        return replace(g, b_im=g.b_im + g.a), rest

    monkeypatch.setattr(correspond.GammaSinExpr, "growth", without_linear_term)
    result = run_check("15-degeneration-pipeline")
    reports = result.evidence["reports"]
    moving = {rep["class"] for rep in reports if rep["growth"][rep["survivors"][0]]["A"] != "0"}
    assert len(moving) == 6
    assert _failing_classes(result) == moving
    assert all(rep["failed"] == ["expansion"] for rep in reports if rep["class"] in moving)


def test_index_orbits_check_fails_on_a_mislabelled_color(monkeypatch, fresh_tables):
    # +v(0,2) is blue; called red, its orbit mixes two colors
    from hyperweyl import selftest
    from hyperweyl.coxeter import Color, MLabel, orbit_color

    def mislabel(label):
        return Color.RED if label == MLabel(1, 0, 2) else orbit_color(label)

    monkeypatch.setattr(selftest, "orbit_color", mislabel)
    result = run_check("04-index-orbits")
    assert not result.passed
    assert result.detail == "the orbit of +v(0,2) mixes colors blue, red"


def test_index_orbits_check_fails_when_red_reads_blue(monkeypatch, fresh_tables):
    # every red label called blue: no orbit mixes colors, but the orbits
    # hold 12 blue labels where the classifier names 24
    from hyperweyl import selftest
    from hyperweyl.coxeter import Color, orbit_color

    def red_reads_blue(label):
        color = orbit_color(label)
        return Color.BLUE if color == Color.RED else color

    monkeypatch.setattr(selftest, "orbit_color", red_reads_blue)
    result = run_check("04-index-orbits")
    assert not result.passed
    assert result.detail == "orbit membership differs from the color classifier"


def test_equivariance_check_fails_on_a_wrong_partner(monkeypatch, fresh_tables):
    # s1 matches a5; matched with a4 the label map stops intertwining
    from hyperweyl import selftest
    from hyperweyl.coxeter import matching_generator

    monkeypatch.setattr(selftest, "matching_generator", lambda g: "a4" if g == "s1" else matching_generator(g))
    result = run_check("05-equivariance")
    assert not result.passed
    assert result.detail.startswith("label map does not intertwine s1 at ")


@pytest.mark.parametrize(
    "fault, detail",
    [
        pytest.param("swap", "s1 does not preserve dd at (+v(0,1),-v(0,1))", id="swapped-images"),
        pytest.param("cases", "case table disagrees at (+v(2,5),-v(3,6))", id="case-table"),
    ],
)
def test_metric_suite_check_fails_on_a_planted_fault(monkeypatch, planted_images, fault, detail):
    # s1 fixes +v(0,1) and sends +v(0,6) to +v(0,7); with the two images
    # exchanged it is no isometry.  A case table wrong on one pair
    # disagrees with the distance matrix there
    from hyperweyl import selftest
    from hyperweyl.coxeter import MLabel, dd_by_cases

    if fault == "swap":
        a, b = MLabel(1, 0, 1), MLabel(1, 0, 6)
        planted_images("M", "s1", {a: b, b: a})
    else:
        bad = (MLabel(1, 2, 5), MLabel(-1, 3, 6))
        monkeypatch.setattr(selftest, "dd_by_cases", lambda u, v: 0 if (u, v) == bad else dd_by_cases(u, v))
    result = run_check("06-metric-suite")
    assert not result.passed
    assert result.detail == detail


def test_compression_check_fails_on_a_red_preimage(monkeypatch, fresh_tables):
    # L 3 read at its red preimage +v(1,4) instead of the blue +v(0,4):
    # its T distances are those of the wrong M label
    from hyperweyl import coxeter
    from hyperweyl.coxeter import Color, LLabel, jl_preimage

    def red_three(label, color=None):
        return jl_preimage(label, Color.RED if label == LLabel(3) else color)

    monkeypatch.setattr(coxeter, "jl_preimage", red_three)
    result = run_check("07-distance-compression")
    assert not result.passed
    assert result.detail == "compression fails at (+v(0,2),+v(0,4))"


def test_triple_census_check_fails_on_a_wrong_distance(monkeypatch, fresh_tables):
    # one pair of the M table read at 4 instead of 2: the triples through
    # it no longer share a type with the rest of their orbits
    from hyperweyl import coxeter

    table = coxeter.distance_table

    def wrong(space):
        if space != "M":
            return table(space)
        d = table("M").copy()
        assert d[0, 2] == 2
        d[0, 2] = d[2, 0] = 4
        return d

    monkeypatch.setattr(coxeter, "distance_table", wrong)
    result = run_check("08-triple-censuses")
    assert not result.passed
    assert result.detail == "AssertionError: M: type tag not orbit-constant"


def test_triple_census_check_fails_on_swapped_images(planted_images):
    # s1 with the images of +v(0,1) and +v(0,6) exchanged (the metric-suite
    # fault) is no isometry, so the triple action built from it carries
    # sets to sets of another type
    from hyperweyl.coxeter import MLabel

    a, b = MLabel(1, 0, 1), MLabel(1, 0, 6)
    planted_images("M", "s1", {a: b, b: a})
    result = run_check("08-triple-censuses")
    assert not result.passed
    assert result.detail == "AssertionError: M: type tag not orbit-constant"


def test_coset_census_check_fails_without_s6(monkeypatch, fresh_tables):
    # s6 is the one generator that leaves the index orbits; without its
    # permutation only the 12-label orbit of the base label +v(0,7) is reached
    from hyperweyl import coxeter

    monkeypatch.delitem(coxeter._space("M")[2], "s6")
    result = run_check("01-coset-census")
    assert not result.passed
    assert result.detail == "12 labels reached from the base label"


def test_representative_rows_fail_on_a_word_that_leads_elsewhere(monkeypatch, fresh_tables):
    # +v(0,5) handed its parent's word s1, which leads to +v(0,6): the fold
    # asserts that each label's rows classify to it and names the label
    from hyperweyl import coxeter
    from hyperweyl.coxeter import MLabel

    words = {**coxeter.representative_words("M"), MLabel(1, 0, 5): ("s1",)}
    monkeypatch.setattr(coxeter, "representative_words", lambda space: words)
    with pytest.raises(AssertionError, match=r"^M: the word for \+v\(0,5\) classifies elsewhere$"):
        coxeter.representative_rows("M")


def test_coxeter_presentation_check_fails_on_a_wrong_generator(monkeypatch):
    # s2 as the transposition (3,5) no longer commutes with s4 = (5,6)
    from hyperweyl import exactalg

    a, b, c, d, e, *rest = exactalg.symbol_forms("w")
    monkeypatch.setitem(exactalg.W_GENERATORS, "s2", (a, b, e, d, c, *rest))
    result = run_check("03-coxeter-presentation")
    assert not result.passed
    assert result.detail == "(s2 s4)^2 is not the identity on side w"


def test_gamma_layer_check_fails_on_a_perturbed_stirling_coefficient(monkeypatch):
    # a relative error of 1e-6 in 1/12 breaks both the duplication formula
    # and the recursion past 1e-12
    from hyperweyl import hypnum

    first, *rest = hypnum._STIRLING
    monkeypatch.setattr(hypnum, "_STIRLING", (first * (1 + 1e-6), *rest))
    result = run_check("09-gamma-layer")
    assert not result.passed
    assert result.detail.startswith("duplication 5.99e-11, recursion 5.21e-12 at ")
    assert result.evidence["duplication"] > result.evidence["bound"]
    assert result.evidence["recursion"] > result.evidence["bound"]


def test_function_invariance_check_fails_on_a_foreign_generator(monkeypatch):
    # a1' swaps A and D, which J is not symmetric in
    from hyperweyl.exactalg import SUBGROUP_GENERATORS, generator

    monkeypatch.setitem(SUBGROUP_GENERATORS, "G_J", [*SUBGROUP_GENERATORS["G_J"], generator("v", "a1'")])
    result = run_check("10-function-invariance")
    assert not result.passed
    assert result.detail.startswith("J moves by ")


def test_l_dual_route_check_fails_on_a_scaled_route(monkeypatch):
    # the 7F6 route's coefficient scaled by 1 + 1e-6, in the family every
    # L7F6 term compiles from
    from fractions import Fraction

    from hyperweyl import hypnum

    desc = hypnum._descriptions()["L7F6"]
    (route,) = desc.halves
    scaled = route._replace(coef=route.coef * hypnum.GammaSinExpr(Fraction(1_000_001, 1_000_000), (), ()))
    monkeypatch.setitem(hypnum._families(), "L7F6", hypnum._Family(desc._replace(halves=(scaled,))))
    result = run_check("11-l-dual-route")
    assert not result.passed
    assert result.detail == "routes differ by 1.00e-06"


def test_relations_check_fails_on_a_dropped_orbit1jll_factor(monkeypatch):
    # orbit1jll with Gamma(1-A) dropped from its first coefficient
    from hyperweyl import correspond

    jll = correspond._orbit1jll()
    (coef, fun), *rest = jll.terms
    lossy = correspond.GammaSinExpr(coef.prefactor, coef.numerator, coef.denominator[1:])
    monkeypatch.setattr(correspond, "_orbit1jll", lambda: correspond.Relation(jll.name, ((lossy, fun), *rest)))
    correspond.builtin_relations.cache_clear()
    try:
        result = run_check("12-relations")
    finally:
        monkeypatch.undo()
        correspond.builtin_relations.cache_clear()
    assert not result.passed
    assert result.detail.startswith("orbit1jll residual ")
    assert result.detail.endswith(" beyond its bound 1e-07")


def test_warm_limit_checks_rebuild_no_row(monkeypatch):
    # each coset row holds its printed and derived targets and its
    # normalizer, built once with the table: warm checks 13 and 14 build no
    # function term and no gamma quotient, and warm check 15 builds only the
    # terms of its translated relations
    from hyperweyl import correspond
    from hyperweyl.coxeter import all_m_labels

    names = ("13-limit-checks", "14-appendix-fidelity", "15-degeneration-pipeline")
    for name in names:
        run_check(name)
    post_init, build = correspond.FunTerm.__post_init__, correspond.GammaSinExpr.build
    counts = {}

    def counted_post_init(self):
        counts["FunTerm"] += 1
        post_init(self)

    def counted_build(cls, *args, **kwargs):
        counts["GammaSinExpr"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(correspond.FunTerm, "__post_init__", counted_post_init)
    monkeypatch.setattr(correspond.GammaSinExpr, "build", classmethod(counted_build))
    built = {}
    for name in names:
        counts.update(FunTerm=0, GammaSinExpr=0)
        assert run_check(name).passed, name
        built[name] = dict(counts)
    assert built["13-limit-checks"] == {"FunTerm": 0, "GammaSinExpr": 0}
    assert built["14-appendix-fidelity"] == {"FunTerm": 0, "GammaSinExpr": 0}
    assert built["15-degeneration-pipeline"]["GammaSinExpr"] == 0
    for label in all_m_labels():
        assert correspond.limit_normalizer(label) is correspond.appendix_row(label).normalizer
