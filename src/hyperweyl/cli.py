"""Batch command line: orbit, table and distance queries, function
evaluation at file-supplied points, and the verification catalog.

Each `check` verb, and `groups`, runs one catalog entry through
selftest.run_check, under that entry's time budget, and prints its
evidence.  Exit status: 0 when everything requested succeeds, 1 when a
verification check fails, 2 on file, parse, or usage errors, and when the
admissible-point search exhausts its budget.  All randomness derives from
--seed (default 7), the only setting, so any two runs with the same flags
agree.
"""

import argparse
import json
import sys

from .coxeter import (
    JLabel,
    LLabel,
    MLabel,
    color_orbits,
    dd,
    orbit_color,
    parse_label,
    t_distance,
    triple_orbits,
)
from .exactalg import LinForm, V_SYMBOLS, W_SYMBOLS
from .hypnum import EvaluationDomainError, PointV, PointW
from .correspond import FunTerm, PointSearchError, table_json, table_text
from .selftest import run_all, run_check

__all__ = ["dispatch", "main"]

# the catalog entry behind each `check` suite
CHECK_SUITES = {
    "invariance": "10-function-invariance",
    "relations": "12-relations",
    "limits": "13-limit-checks",
    "pipeline": "15-degeneration-pipeline",
}


class CliError(Exception):
    """Bad input: unreadable file, unparsable label or form, wrong space."""


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hyperweyl",
        description="coset tables, distances, and numerical verification "
        "for the two hypergeometric families",
    )
    top.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output rendering (default: text); json output is key-sorted",
    )
    top.add_argument(
        "--seed",
        type=int,
        default=7,
        help="random point seed (default: %(default)s)",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    sub.add_parser("orbits", help="the three orbits of the 56 labels")

    sub.add_parser("table", help="the full 56-row correspondence table")

    p = sub.add_parser("distance", help="distance between two labels")
    p.add_argument("label1")
    p.add_argument("label2")

    p = sub.add_parser("classify", help="orbit census of three-element sets")
    p.add_argument("--space", choices=("M", "J", "L", "T"), required=True)

    p = sub.add_parser("eval", help="evaluate a function at a point file")
    p.add_argument("--func", choices=("M", "J", "L"), required=True)
    p.add_argument(
        "--point", required=True, help="JSON file of coordinates {letter: [re, im]}"
    )
    p.add_argument(
        "--args",
        default=None,
        help="semicolon-separated argument forms (default: the plain letters)",
    )

    p = sub.add_parser("check", help="run one catalog entry and print its evidence")
    p.add_argument("suite", choices=tuple(CHECK_SUITES))

    sub.add_parser("selftest", help="run the full fixed check catalog")

    sub.add_parser(
        "groups", help="check 02: the group orders and the Q = W(D6) certificate"
    )

    return top


def _emit(payload, fmt: str, text: str, out) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2), file=out)
    else:
        print(text, file=out)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _cmd_orbits(ns, out):
    data = []
    for members in color_orbits():
        data.append(
            {
                "color": str(orbit_color(members[0])),
                "size": len(members),
                "labels": [str(lab) for lab in members],
            }
        )
    lines = [
        f"{d['color']:>4} ({d['size']:2d}): {' '.join(d['labels'])}" for d in data
    ]
    _emit(data, ns.format, "\n".join(lines), out)
    return 0


def _cmd_table(ns, out):
    if ns.format == "json":
        print(table_json(), file=out)
    else:
        print(table_text(), file=out)
    return 0


def _cmd_distance(ns, out):
    try:
        u = parse_label(ns.label1)
        v = parse_label(ns.label2)
    except ValueError as exc:
        raise CliError(str(exc))
    if isinstance(u, MLabel) and isinstance(v, MLabel):
        metric, d = "dd", dd(u, v)
    elif isinstance(u, (JLabel, LLabel)) and isinstance(v, (JLabel, LLabel)):
        metric, d = "t", t_distance(u, v)
    else:
        raise CliError("labels live on different sides; no distance is defined")
    payload = {"label1": str(u), "label2": str(v), "metric": metric, "distance": d}
    _emit(payload, ns.format, str(d), out)
    return 0


def _cmd_classify(ns, out):
    orbs = triple_orbits(ns.space)
    data = {
        "space": ns.space,
        "triples": sum(o["size"] for o in orbs),
        "orbits": [
            {
                "size": o["size"],
                "type": o["type"],
                "representative": [str(lab) for lab in o["representative"]],
            }
            for o in orbs
        ],
    }
    lines = [f"{ns.space}: {data['triples']} triples, {len(orbs)} orbits"]
    for o in data["orbits"]:
        lines.append(
            f"  {o['type']:>10}  size {o['size']:5d}  "
            f"rep {{{', '.join(o['representative'])}}}"
        )
    _emit(data, ns.format, "\n".join(lines), out)
    return 0


def _load_point(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read point file {path}: {exc}")
    try:
        if "a" in data:
            return PointW.from_mapping(data), W_SYMBOLS
        if "A" in data:
            return PointV.from_mapping(data), V_SYMBOLS
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad point file {path}: {exc}")
    raise CliError(f"point file {path} has neither eight- nor seven-slot keys")


def _cmd_eval(ns, out):
    point, alphabet = _load_point(ns.point)
    if ns.args is None:
        forms = tuple(LinForm.symbol(alphabet, s) for s in alphabet)
    else:
        try:
            forms = tuple(
                LinForm.parse(t.strip(), alphabet) for t in ns.args.split(";")
            )
        except ValueError as exc:
            raise CliError(f"bad argument forms: {exc}")
    try:
        term = FunTerm(ns.func, forms)
    except ValueError as exc:
        raise CliError(str(exc))
    try:
        lg = term.eval_log(point.args())
    except EvaluationDomainError as exc:
        raise CliError(f"point is inadmissible for this evaluation: {exc}")
    try:
        value = lg.to_complex()
        value_pair = [value.real, value.imag]
    except OverflowError:
        value_pair = None
    payload = {
        "func": ns.func,
        "args": [str(f) for f in term.args],
        "log_mag": lg.log_mag,
        "phase": lg.phase,
        "value": value_pair,
    }
    if value_pair is None:
        text = f"exp({lg.log_mag:.12g} + {lg.phase:.12g}i)  [beyond double range]"
    else:
        text = f"{value:.12g}"
    _emit(payload, ns.format, text, out)
    return 0


def _mark(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _report_line(rep: dict) -> str:
    """One text line for a report in a check's evidence: a relation report,
    a limit report or one colour class of check 15."""
    if "relation" in rep:
        return (
            f"{_mark(rep['passed'])} {rep['relation']}: residual {rep['residual']:.3e} "
            f"(bound {rep['bound']:.0e}, log-magnitude spread "
            f"{rep['log_mag_spread']:.2f})"
        )
    if "label" in rep:
        errs = " -> ".join(f"{e:.3e}" for e in rep["errors"])
        return f"{_mark(rep['verdict'])} {rep['label']}: {errs}"
    res = " -> ".join(f"{r:.3e}" for r in rep.get("residuals", ())) or rep.get("failure", "")
    slope = f"; third term log-magnitude slope {rep['third_slope']:.9f}" if "third_slope" in rep else ""
    match = f"; orbit1jll ratios {rep['orbit1jll']['ratio_errors'][-1]:.1e}" if "orbit1jll" in rep else ""
    return (f"{_mark(rep['passed'])} {rep['class']} ({rep['triples']} triples) onto "
            f"{', '.join(rep['targets'])}: {res}{slope}{match}")


def _emit_check(name, seed, fmt, out, evidence_lines) -> int:
    """Run one catalog entry and print its evidence: in text, the check's
    line and then evidence_lines(evidence)."""
    res = run_check(name, seed)
    lines = [res.line()] + evidence_lines(res.evidence)
    _emit(res.evidence, fmt, "\n".join(lines), out)
    return 0 if res.passed else 1


def _cmd_check(ns, out):
    return _emit_check(
        CHECK_SUITES[ns.suite], ns.seed, ns.format, out,
        lambda ev: [_report_line(r) for r in ev.get("reports", ())],
    )


def _cmd_selftest(ns, out):
    results = run_all(ns.seed)
    payload = [r.to_dict() for r in results]
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        + (f", {failed} FAILED" if failed else "")
    )
    _emit(payload, ns.format, "\n".join(lines), out)
    return 0 if failed == 0 else 1


def _cmd_groups(ns, out):
    return _emit_check(
        "02-group-orders", ns.seed, ns.format, out,
        lambda ev: [f"{name}: {order}" for name, order in sorted(ev.get("orders", {}).items())],
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_VERBS = {
    "orbits": _cmd_orbits,
    "table": _cmd_table,
    "distance": _cmd_distance,
    "classify": _cmd_classify,
    "eval": _cmd_eval,
    "check": _cmd_check,
    "selftest": _cmd_selftest,
    "groups": _cmd_groups,
}


def _preprocess(argv):
    """Shield signed labels like -v(0,1) from option parsing, after the verb
    distance only: the first token naming a verb (no option value names one)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    i = next((k for k, a in enumerate(argv) if a in _VERBS), None)
    if i is not None and argv[i] == "distance" and "--" not in argv:
        rest = argv[i + 1 :]
        if rest and not any(a in ("-h", "--help") for a in rest):
            argv.insert(i + 1, "--")
    return argv


def dispatch(argv=None, out=sys.stdout) -> int:
    ns = build_parser().parse_args(_preprocess(argv))
    try:
        return _VERBS[ns.verb](ns, out)
    except (CliError, PointSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
