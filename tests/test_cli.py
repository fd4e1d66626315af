"""Command-line surface: verbs, output formats, exit codes, determinism.

These tests drive ``dispatch`` directly with a captured stream, so they
exercise exactly what the ``hyperweyl`` console script runs without
spawning subprocesses.  Exit-code contract: 0 success, 1 failed check,
2 file/parse/usage error.
"""

import io
import json
import math
import random
from pathlib import Path

import pytest

from hyperweyl import cli, correspond, selftest
from hyperweyl.cli import CHECK_SUITES, dispatch, main
from hyperweyl.correspond import draw_point
from hyperweyl.coxeter import dd, parse_label
from hyperweyl.hypnum import eval_J_log, eval_M_log
from hyperweyl.selftest import CATALOG, CheckResult


def run_cli(*argv):
    buf = io.StringIO()
    code = dispatch(list(argv), out=buf)
    return code, buf.getvalue()


def run_json(*argv):
    code, text = run_cli("--format", "json", *argv)
    return code, (json.loads(text) if text.strip() else None)


@pytest.fixture(scope="session")
def w_point_file(tmp_path_factory):
    """An admissible eight-slot point, written the way the eval verb reads it."""
    p, _ = draw_point(random.Random(7), "W", lambda q: eval_M_log(q.args()))
    path = tmp_path_factory.mktemp("points") / "w.json"
    data = {k: [getattr(p, k).real, getattr(p, k).imag] for k in "abcdefg"}
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="session")
def v_point_file(tmp_path_factory):
    """An admissible seven-slot point for the V-side functions."""
    p, _ = draw_point(random.Random(7), "V", lambda q: eval_J_log(q.args()))
    path = tmp_path_factory.mktemp("points") / "v.json"
    data = {k: [getattr(p, k).real, getattr(p, k).imag] for k in "ABCDEF"}
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# orbits / table / distance / classify
# ---------------------------------------------------------------------------


def test_orbits_json_census():
    code, data = run_json("orbits")
    assert code == 0
    assert {(d["color"], d["size"]) for d in data} == {
        ("blue", 12),
        ("red", 12),
        ("J", 32),
    }
    labels = [lab for d in data for lab in d["labels"]]
    assert len(labels) == 56 and len(set(labels)) == 56


def test_orbits_text_mentions_every_color():
    code, text = run_cli("orbits")
    assert code == 0
    for word in ("blue", "red", "J"):
        assert word in text


def test_distance_accepts_signed_labels():
    # the minus-prefixed label must not be eaten as an option
    code, text = run_cli("distance", "+v(0,1)", "-v(0,1)")
    assert code == 0
    assert text.strip() == "6"


def test_distance_json_union_metric():
    code, data = run_json("distance", "p0", "p15")
    assert code == 0
    assert data == {"label1": "p0", "label2": "p15", "metric": "t", "distance": 4}


def test_distance_json_index_metric():
    code, data = run_json("distance", "+v(0,1)", "+v(0,7)")
    assert code == 0
    assert data["metric"] == "dd"
    assert data["distance"] == dd(parse_label("+v(0,1)"), parse_label("+v(0,7)"))


def test_distance_mixed_sides_is_usage_error():
    code, _ = run_cli("distance", "+v(0,1)", "p0")
    assert code == 2


def test_distance_bad_label_is_usage_error():
    code, _ = run_cli("distance", "q9", "p0")
    assert code == 2


def test_unknown_verb_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        dispatch(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "space, triples, orbits",
    [("M", 27720, 5), ("J", 4960, 5), ("L", 220, 2), ("T", 13244, 18)],
)
def test_classify_censuses(space, triples, orbits):
    code, data = run_json("classify", "--space", space)
    assert code == 0
    assert data["space"] == space
    assert data["triples"] == triples
    assert len(data["orbits"]) == orbits
    assert sum(o["size"] for o in data["orbits"]) == triples


def test_classify_union_mixture_composition():
    code, data = run_json("classify", "--space", "T")
    assert code == 0
    prefixes = [o["type"].split(":")[0] for o in data["orbits"]]
    counts = {p: prefixes.count(p) for p in set(prefixes)}
    assert counts == {"JJJ": 5, "JJL": 7, "JLL": 4, "LLL": 2}


def test_table_json_has_all_rows():
    code, data = run_json("table")
    assert code == 0
    assert len(data) == 56
    labels = [row["label"] for row in data]
    assert len(set(labels)) == 56
    assert "+v(0,7)" in labels


def test_table_text_renders():
    code, text = run_cli("table")
    assert code == 0
    assert "+v(0,7)" in text


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_identity_arrangement(w_point_file):
    code, data = run_json("eval", "--func", "M", "--point", w_point_file)
    assert code == 0
    assert data["func"] == "M"
    assert len(data["args"]) == 8
    assert data["value"] is not None
    value = complex(*data["value"])
    assert value == value  # finite, not NaN


def test_eval_explicit_args_match_default(w_point_file):
    _, default = run_cli("eval", "--func", "M", "--point", w_point_file)
    code, explicit = run_cli(
        "eval",
        "--func",
        "M",
        "--point",
        w_point_file,
        "--args",
        "a; b; c; d; e; f; g; h",
    )
    assert code == 0
    assert explicit == default


def test_eval_reads_a_point_file_named_distance(w_point_file, tmp_path, monkeypatch):
    # only the verb distance shields what follows it; a point file that
    # happens to be called distance is an ordinary option value
    monkeypatch.chdir(tmp_path)
    (tmp_path / "distance").write_text(Path(w_point_file).read_text())
    code, text = run_cli("eval", "--point", "distance", "--func", "M")
    assert code == 0
    assert text == run_cli("eval", "--func", "M", "--point", w_point_file)[1]


def test_eval_v_side_function(v_point_file):
    code, data = run_json("eval", "--func", "J", "--point", v_point_file)
    assert code == 0
    assert len(data["args"]) == 7
    assert data["value"] is not None


def test_eval_missing_file_is_usage_error(tmp_path):
    code, _ = run_cli("eval", "--func", "M", "--point", str(tmp_path / "nope.json"))
    assert code == 2


def test_eval_unparsable_forms_are_usage_errors(w_point_file):
    code, _ = run_cli(
        "eval", "--func", "M", "--point", w_point_file, "--args", "a; @@nonsense"
    )
    assert code == 2


def test_eval_wrong_arity_is_usage_error(w_point_file):
    code, _ = run_cli(
        "eval", "--func", "M", "--point", w_point_file, "--args", "a; b"
    )
    assert code == 2


def test_eval_pole_point_is_usage_error(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({k: [0.0, 0.0] for k in "abcdefg"}))
    code, _ = run_cli("eval", "--func", "M", "--point", str(path))
    assert code == 2


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
@pytest.mark.parametrize("side", ["W", "V"])
def test_eval_non_finite_point_is_usage_error(tmp_path, capsys, side, bad):
    keys = "abcdefg" if side == "W" else "ABCDEF"
    text = json.dumps({k: [0.5, 0.0] for k in keys}).replace("0.0]", f"{bad}]", 1)
    path = tmp_path / "non_finite.json"
    path.write_text(text)
    code, _ = run_cli("eval", "--func", "M" if side == "W" else "J", "--point", str(path))
    assert code == 2
    assert "is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("func, key, part", [("M", "a", 1e300), ("J", "E", 1e200)])
def test_eval_point_too_large_to_sum_is_usage_error(tmp_path, capsys, func, key, part):
    # finite but huge: the series would overflow its terms to NaN, so the
    # evaluation refuses the point instead of printing a NaN value
    keys = "abcdefg" if func == "M" else "ABCDEF"
    data = {k: [0.5, 0.0] for k in keys}
    data[key] = [0.5, part]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code, text = run_cli("--format", "json", "eval", "--func", func, "--point", str(path))
    assert code == 2
    assert "NaN" not in text
    assert "too large to sum" in capsys.readouterr().err


def test_eval_rejects_supplied_derived_slot(tmp_path, w_point_file):
    data = json.loads(open(w_point_file).read())
    data["h"] = [0.5, 0.0]
    path = tmp_path / "overdetermined.json"
    path.write_text(json.dumps(data))
    code, _ = run_cli("eval", "--func", "M", "--point", str(path))
    assert code == 2


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


def test_check_relations_passes():
    code, data = run_json("check", "relations")
    assert code == 0
    names = {r["relation"] for r in data["reports"]}
    assert {"roy463", "roy463b", "orbit1jll"} <= names
    for rep in data["reports"]:
        assert rep["passed"]
        assert rep["residual"] <= rep["bound"]
        assert rep["log_mag_spread"] >= 0.0


# check 13 drives its rows, then the blue/red pair at one shared point
LIMIT_REPORT_LABELS = list(selftest.LIMIT_LABELS + selftest.LIMIT_LABELS[:2])


def test_check_limits_passes():
    code, data = run_json("check", "limits")
    assert code == 0
    assert [r["label"] for r in data["reports"]] == LIMIT_REPORT_LABELS
    for rep in data["reports"]:
        assert rep["verdict"]
        errs = rep["errors"]
        assert all(b < a for a, b in zip(errs, errs[1:]))


def test_a_tighter_decay_bound_fails_the_limit_checks(monkeypatch):
    # no shift-doubling run shrinks its error by nine orders of magnitude,
    # and a failing check still lists every report it built
    monkeypatch.setattr(correspond, "LIMIT_DECAY", 1e-9)
    code, data = run_json("check", "limits")
    assert code == 1
    assert [r["label"] for r in data["reports"]] == LIMIT_REPORT_LABELS
    assert not any(rep["verdict"] for rep in data["reports"])
    only13 = [e for e in CATALOG if e[0] == "13-limit-checks"]
    monkeypatch.setattr("hyperweyl.selftest.CATALOG", only13)
    code, text = run_cli("selftest")
    assert code == 1
    assert "FAIL 13-limit-checks" in text
    assert "at most 1e-09 of the first" in text


def test_check_pipeline_passes():
    # one report per colour class of roy463's translates: seven three-term
    # limits that close, one blue/red class that collapses to two terms, and
    # the two classes on orbit1jll's orbit matched with it
    code, data = run_json("check", "pipeline")
    assert code == 0
    reports, bounds = data["reports"], data["bounds"]
    assert data["triples"] == 4032
    assert len({rep["class"] for rep in reports}) == 8
    assert all(rep["passed"] for rep in reports)
    three = [rep for rep in reports if "falls" in rep]
    assert len(three) == 7
    for rep in three:
        assert rep["residuals"][-1] <= bounds["residual"]
        assert min(rep["falls"]) >= bounds["decade_fall"]
    [collapsed] = [rep for rep in reports if "third_slope" in rep]
    assert collapsed["class"] == "J,blue,red"
    assert collapsed["residuals"][0] <= bounds["collapse"]
    assert abs(collapsed["third_slope"] + 2 * math.pi) <= bounds["slope"]
    matched = [rep for rep in reports if "orbit1jll" in rep]
    assert {rep["class"] for rep in matched} == {"J,blue,blue", "J,red,red"}
    for rep in matched:
        assert rep["orbit1jll"]["ratio_errors"][-1] <= bounds["match"]
        assert rep["orbit1jll"]["residual"] <= bounds["orbit1jll"]
    code, text = run_cli("check", "pipeline")
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("PASS 15-degeneration-pipeline")
    assert len(lines) == 9 and all(line.startswith("PASS ") for line in lines[1:])


@pytest.mark.parametrize("seed", ["7", "11"])
@pytest.mark.parametrize("suite", sorted(CHECK_SUITES))
def test_check_verb_is_a_view_of_its_catalog_entry(monkeypatch, suite, seed):
    code, verb_text = run_cli("--format", "json", "--seed", seed, "check", suite)
    assert code == 0
    assert "seconds" not in verb_text
    entry = [e for e in CATALOG if e[0] == CHECK_SUITES[suite]]
    monkeypatch.setattr("hyperweyl.selftest.CATALOG", entry)
    code, [record] = run_json("--seed", seed, "selftest")
    assert code == 0
    assert json.loads(verb_text) == record["evidence"]


def test_check_invariance_plumbing(monkeypatch):
    seen = {}

    def fake(name, seed=7):
        seen["name"] = name
        return CheckResult(name, True, "stub", 0.0, {})

    monkeypatch.setattr(cli, "run_check", fake)
    code, text = run_cli("check", "invariance")
    assert code == 0
    assert seen["name"] == "10-function-invariance"
    assert "PASS" in text

    monkeypatch.setattr(
        cli, "run_check", lambda name, seed=7: CheckResult(name, False, "stub", 0.0, {})
    )
    code, _ = run_cli("check", "invariance")
    assert code == 1


# ---------------------------------------------------------------------------
# selftest / groups
# ---------------------------------------------------------------------------


def test_selftest_verb_runs_catalog_subset(monkeypatch):
    fast = [e for e in CATALOG if e[0] in ("01-coset-census", "04-index-orbits")]
    monkeypatch.setattr("hyperweyl.selftest.CATALOG", fast)
    code, text = run_cli("selftest")
    assert code == 0
    assert "2/2 checks passed" in text
    assert text.count("PASS") == 2


def test_selftest_verb_reports_failures(monkeypatch):
    broken = [("00-stub", lambda seed: (False, "boom", {}), None)]
    monkeypatch.setattr("hyperweyl.selftest.CATALOG", broken)
    code, text = run_cli("selftest")
    assert code == 1
    assert "0/1 checks passed, 1 FAILED" in text
    assert "FAIL 00-stub" in text


def test_groups_verb_matches_expected_orders():
    code, data = run_json("groups")
    assert code == 0
    assert data["orders"] == data["expected"]


def test_groups_text_is_the_check_line_and_the_orders():
    code, text = run_cli("groups")
    assert code == 0
    first, *orders = text.splitlines()
    assert first.startswith("PASS 02-group-orders")
    assert "Q isomorphic to W(D6)" in first
    assert orders == ["G: 51840", "G_J: 720", "G_L: 1920", "H1: 23040", "Q: 23040", "full: 2903040"]


def test_groups_full_census():
    code, data = run_json("groups")
    assert code == 0
    assert data["orders"]["full"] == 2903040
    assert data["orders"] == data["expected"]


# ---------------------------------------------------------------------------
# determinism, point budget, entry point
# ---------------------------------------------------------------------------


def test_same_seed_means_identical_output():
    _, first = run_json("check", "relations")
    _, second = run_json("check", "relations")
    assert first == second


def test_different_seed_moves_the_probe_point():
    _, base = run_cli("--format", "json", "check", "relations")
    _, moved = run_cli("--format", "json", "--seed", "11", "check", "relations")
    assert base != moved


def test_exhausted_point_budget_is_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(correspond, "POINT_BUDGET", 0)
    code, _ = run_cli("check", "relations")
    assert code == 2
    assert "no admissible point found in 0 draws" in capsys.readouterr().err


def test_main_exits_with_dispatch_code():
    with pytest.raises(SystemExit) as exc:
        main(["groups"])
    assert exc.value.code == 0
