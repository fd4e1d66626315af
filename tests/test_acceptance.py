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
def l_action(monkeypatch):
    """Replace the generator action behind the L label space; the cached
    label permutations are rebuilt on both sides of the test."""
    from hyperweyl import coxeter

    def patch(act):
        labels_fn, gens, _ = coxeter._SPACES["L"]
        monkeypatch.setitem(coxeter._SPACES, "L", (labels_fn, gens, act))
        coxeter._space.cache_clear()

    yield patch
    monkeypatch.undo()
    coxeter._space.cache_clear()


def test_group_orders_check_fails_on_an_odd_generator(l_action):
    # a1' that bars only one of its two images is an odd signed permutation;
    # with it the six generators reach all 2^6 * 6! signed permutations
    from hyperweyl.coxeter import LLabel, act_l, d6_certificate

    def one_sign(gen, label):
        if gen == "a1'" and label.index in (1, 2):
            return LLabel(3 - label.index, label.barred != (label.index == 1))
        return act_l(gen, label)

    l_action(one_sign)
    cert = d6_certificate()
    assert cert["signed_permutations"]["a1'"] == ["2bar", "1", "3", "4", "5", "6"]
    assert not cert["even"]
    assert cert["order"] == 46080
    result = run_check("02-group-orders")
    assert not result.passed
    assert "no isomorphism Q -> W(D6) (generators not all even" in result.detail


def test_group_orders_check_fails_on_a_generator_that_ignores_the_bar(l_action):
    # swapping 1 with 2bar alone does not commute with the bar
    from hyperweyl.coxeter import LLabel, act_l, d6_certificate

    def half_swap(gen, label):
        if gen == "a1'":
            return {LLabel(1): LLabel(2, True), LLabel(2, True): LLabel(1)}.get(label, label)
        return act_l(gen, label)

    l_action(half_swap)
    with pytest.raises(ValueError, match="a1' is not a signed permutation"):
        d6_certificate()
    result = run_check("02-group-orders")
    assert not result.passed
    assert result.detail == "ValueError: a1' is not a signed permutation of the six coordinates"


def test_a_check_past_its_budget_fails(monkeypatch):
    # a right answer that arrives late fails, and the detail names the budget
    from hyperweyl import selftest

    def late(cfg):
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
    caches = (correspond.fixture_rows, correspond.appendix_table, correspond._rows_by_label)
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


def test_appendix_check_fails_on_an_altered_target_label(monkeypatch):
    # +v(0,7) degenerates onto L 6; a table that names another label, the
    # wrong kind or an unknown kind is refused while the table is built, and
    # check 14 reports that refusal
    from hyperweyl import correspond

    row = "+v(0,7) | a; b; c; d; e; f; g; h | L 6 |"
    assert row in correspond.FIXTURE_TEXT
    caches = (correspond.fixture_rows, correspond.appendix_table, correspond._rows_by_label)
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
