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
