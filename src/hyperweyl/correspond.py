"""Limits tying the eight-slot cosets to the seven-slot functions.

Every coset row degenerates, after normalization by an explicit gamma
quotient and a large imaginary shift of the b coordinate, onto one of the
seven-slot functions evaluated at a fixed rational-linear change of letters.
This module holds that table (``appendix_table``), one record per row
holding its targets, its normalizer and its three claims as Relations (sums
of function terms that vanish, each compiled on first use into one family
evaluator, which eval_relation, relation_report and the probes read); the
three built-in contiguous relations and their exact translations;
relation_limit, which carries any eight-slot relation through the limit onto
the seven-slot relation among its rows' targets; and draw_point, which draws
a random point together with the evaluation to be done there, redrawing
wherever that evaluation refuses the point as too close to a pole.
"""

from __future__ import annotations

import cmath
import json
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .appendix_fixture import FIXTURE_TEXT
from .coxeter import (
    JLabel,
    LLabel,
    MLabel,
    classify_j,
    classify_l,
    classify_m,
    jl_label,
    orbit_color,
    parse_label,
    representative_rows,
)
from .exactalg import (
    LinForm,
    V_SYMBOLS,
    W_SYMBOLS,
    apply,
    pretty_str,
    word_to_matrix,
)
from .hypnum import (
    DegeneratePointError,
    GammaSinExpr,
    Growth,
    LogC,
    PointV,
    PointW,
    PrecisionWarning,
    combine_exponentials,
    require_margins,
    _families,
    _joined,
)

__all__ = [
    "GammaSinExpr",
    "Growth",
    "FunTerm",
    "Relation",
    "AppendixRow",
    "xfromw",
    "l_coset_args",
    "appendix_table",
    "appendix_row",
    "bfs_m_args",
    "gamma2_target",
    "limit_normalizer",
    "contracts",
    "builtin_relations",
    "translate_relation",
    "eval_relation",
    "relation_report",
    "relation_limit",
    "relation_limit_gaps",
    "relation_probe_args",
    "limit_probe_args",
    "PointSearchError",
    "gen_point",
    "draw_point",
    "table_json",
    "table_text",
]

ROY463_TOL = 1e-5
ORBIT1JLL_TOL = 1e-7
ROY463B_SHIFTED_TOL = 1e-4
LIMIT_DECAY = 0.6
# rejected draws after which draw_point gives up
POINT_BUDGET = 10_000
# imaginary shifts of b for the rows' limits and for roy463b in check 12
SHIFTS = (8.0, 16.0, 32.0)


# ---------------------------------------------------------------------------
# function terms and relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunTerm:
    """One of the function families with symbolic argument slots: M, J, L,
    or L7F6, the 7F6 route to L.

    Construction verifies the defining hyperplane identity of the argument
    list symbolically, so off-surface terms are unrepresentable.
    """

    kind: str
    args: tuple

    def __post_init__(self):
        family = _families().get(self.kind)
        if family is None:
            raise ValueError(f"unknown function kind {self.kind!r}")
        if len(self.args) != family.arity:
            raise ValueError(f"{self.kind} takes {family.arity} arguments")
        if not family.desc.plane.substitute(self.args).reduced().is_zero():
            raise ValueError(f"{self.kind} arguments leave the defining hyperplane")

    @property
    def alphabet(self):
        return self.args[0].alphabet

    @cached_property
    def _family(self):
        """The term alone, compiled as a relation of one term is."""
        return _joined([(_ONE, self.kind, self.args)], len(self.alphabet))

    def eval_log(self, values) -> LogC:
        return self._family.evaluate(values)

    def substitute(self, forms: Sequence[LinForm]) -> "FunTerm":
        return FunTerm(self.kind, tuple(a.substitute(forms) for a in self.args))

    def classify(self):
        """Coset label of the argument arrangement (group images only)."""
        if self.kind == "M":
            return classify_m(self.args)
        if self.kind == "J":
            return classify_j(self.args)
        return classify_l(self.args)


_ONE, _MINUS_ONE = (GammaSinExpr(Fraction(k), (), ()) for k in (1, -1))


@dataclass(frozen=True)
class Relation:
    """Sum of coefficient-weighted function terms asserted to vanish."""

    name: str
    terms: tuple  # of (GammaSinExpr, FunTerm)

    @classmethod
    def equal(cls, name, first: FunTerm, second: FunTerm) -> "Relation":
        """first - second = 0, residual |first - second| / max(|first|, |second|)."""
        return cls(name, ((_ONE, first), (_MINUS_ONE, second)))

    @property
    def alphabet(self):
        return self.terms[0][1].alphabet

    @cached_property
    def _family(self):
        """The terms whose coefficient is not zero, compiled into one family."""
        return _joined([(coef, fun.kind, fun.args) for coef, fun in self.terms if coef.prefactor],
                       len(self.alphabet))

    def term_labels(self):
        out = []
        for _, fun in self.terms:
            try:
                out.append(fun.classify())
            except ValueError:
                out.append(None)
        return tuple(out)


# ---------------------------------------------------------------------------
# the letter change and the L arrangements
# ---------------------------------------------------------------------------

_XFROMW_TEXTS = (
    "2+2a-c-d-e-f-g", "1+a-e-f", "1+a-e-g", "1+a-f-g",
    "2+2a-d-e-f-g", "2+2a-c-e-f-g", "2+a-e-f-g",
)

_L_COSET_TEXTS = {
    "6": ("A", "B", "C", "D", "G", "F", "E"),
    "5": ("A", "B", "C", "D", "F", "E", "G"),
    "4": ("A", "B", "C", "D", "E", "F", "G"),
    "3": ("A", "1+A-E", "1+A-F", "1+A-G", "1+A-D", "1+A-B", "1+A-C"),
    "2": ("A", "1+A-E", "1+A-F", "1+A-G", "1+A-C", "1+A-B", "1+A-D"),
    "1": ("A", "1+A-E", "1+A-F", "1+A-G", "1+A-B", "1+A-C", "1+A-D"),
    "6bar": ("1-A", "1-B", "1-C", "1-D", "2-G", "2-F", "2-E"),
    "5bar": ("1-A", "1-B", "1-C", "1-D", "2-F", "2-E", "2-G"),
    "4bar": ("1-A", "1-B", "1-C", "1-D", "2-E", "2-F", "2-G"),
    "3bar": ("1-A", "E-A", "F-A", "G-A", "1+D-A", "1+B-A", "1+C-A"),
    "2bar": ("1-A", "E-A", "F-A", "G-A", "1+C-A", "1+B-A", "1+D-A"),
    "1bar": ("1-A", "E-A", "F-A", "G-A", "1+B-A", "1+C-A", "1+D-A"),
}


@lru_cache(maxsize=1)
def xfromw() -> tuple:
    """The seven-slot letters written in the eight-slot letters.

    The b and h coordinates do not appear: these are exactly the letters
    that survive the limit.
    """
    return tuple(LinForm.parse(t, W_SYMBOLS) for t in _XFROMW_TEXTS)


@lru_cache(maxsize=None)
def l_coset_args(label) -> tuple:
    """Canonical argument arrangement of one of the twelve L cosets."""
    label = parse_label(label) if isinstance(label, str) else label
    if not isinstance(label, LLabel):
        raise ValueError("need an L label")
    texts = _L_COSET_TEXTS[str(label)]
    args = tuple(LinForm.parse(t, V_SYMBOLS) for t in texts)
    assert classify_l(args) == label
    return args


# ---------------------------------------------------------------------------
# the appendix table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AppendixRow:
    """One coset row, built once: its transcribed M arguments and target
    (printed), the target gamma2_target derives and the limit normalizer."""

    label: MLabel
    m_args: tuple
    printed: FunTerm
    target: FunTerm
    normalizer: GammaSinExpr

    def __post_init__(self):
        if classify_m(self.m_args) != self.label:
            raise ValueError("second slot does not classify to the row label")
        color = orbit_color(self.label)
        bcoefs = [a.reduced().coef("b") for a in self.m_args]
        if color == "J":
            want = [0, 0, 0, 0, 0, 0, 1, -1]
        else:
            s = 1 if color == "blue" else -1
            want = [0, s, 0, 0, 0, 0, 0, -s]
        if bcoefs != want:
            raise ValueError(
                "normal form unreachable (would indicate a bug): "
                f"b pattern {bcoefs} for {self.label}"
            )
        for a in self.target.args:
            if a.reduced().coef("b") != 0:
                raise ValueError("target arguments must be free of the shifted letter")

    @cached_property
    def limit(self) -> Relation:
        """normalizer·M(m_args) - (pi/2)·target, pi/2 written as Gamma(1/2)^2
        / 2: its residual at b + it tends to zero as t grows."""
        half_pi = GammaSinExpr.build(W_SYMBOLS, Fraction(-1, 2), gamma_num=(_HALF, _HALF))
        m = FunTerm("M", self.m_args)
        return Relation(f"{self.label} limit", ((self.normalizer, m), (half_pi, self.target)))

    @cached_property
    def cosets(self) -> Relation:
        """M(m_args) - M(bfs_m_args): two representatives of one coset."""
        return Relation.equal(f"{self.label} cosets", FunTerm("M", self.m_args),
                              FunTerm("M", bfs_m_args(self.label)))

    @cached_property
    def targets(self) -> Relation:
        """The derived target minus the transcribed one."""
        return Relation.equal(f"{self.label} targets", self.target, self.printed)

    def to_dict(self):
        color, t_label = jl_label(self.label)
        return {
            "label": str(self.label),
            "color": color,
            "m_args": [pretty_str(a) for a in self.m_args],
            "target_kind": self.target.kind,
            "target_label": str(t_label),
            "target_args": [pretty_str(a) for a in self.target.args],
        }


@lru_cache(maxsize=None)
def bfs_m_args(label) -> tuple:
    """Independent coset representative: the slot vector of the label's
    breadth-first representative word, read from representative_rows("M")
    (which asserts that it classifies to the label), reduced.

    Generally a different representative than the table row (the function
    stabilizer mixes all slots under left multiplication), but the same
    coset, so the eight-slot function values agree everywhere.
    """
    label = parse_label(label) if isinstance(label, str) else label
    return tuple(e.reduced() for e in representative_rows("M")[label])


@lru_cache(maxsize=1)
def _rows_by_label():
    return {row.label: row for row in appendix_table()}


def _parse_forms(text) -> tuple:
    return tuple(LinForm.parse(t, W_SYMBOLS).reduced() for t in text.split(";"))


@lru_cache(maxsize=1)
def appendix_table() -> tuple:
    """All 56 rows of the checked-in table, in source order, one record per
    row, cross-checked against group data.

    Each row's printed target must carry the kind and label jl_label gives
    its coset, and the construction invariants of AppendixRow hold: its slot
    vector classifies to its label.  Targets come from gamma2_target,
    normalizers from the slot vector.
    """
    rows = []
    for line in FIXTURE_TEXT.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        lab_text, m_text, t_text, ta_text = (part.strip() for part in line.split("|"))
        label = parse_label(lab_text)
        m_args = _parse_forms(m_text)
        kind, t_lab = t_text.split()
        if kind not in ("J", "L"):
            raise ValueError(f"{label}: target kind {kind!r} is neither J nor L")
        _, t_label = jl_label(label)
        if (kind == "J") != isinstance(t_label, JLabel):
            raise AssertionError(f"{label}: target kind mismatch")
        if t_label != parse_label(t_lab):
            raise AssertionError(f"{label}: target label mismatch")
        rows.append(AppendixRow(
            label, m_args, FunTerm(kind, _parse_forms(ta_text)), gamma2_target(label),
            _limit_normalizer(kind, m_args),
        ))
    if len(rows) != 56:
        raise AssertionError("fixture must hold 56 rows")
    return tuple(rows)


def appendix_row(label) -> AppendixRow:
    label = parse_label(label) if isinstance(label, str) else label
    return _rows_by_label()[label]


# ---------------------------------------------------------------------------
# limit targets and normalizers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gamma2_target(t) -> FunTerm:
    """Limit target of a coset row: the matching seven-slot function with
    its arguments written in the surviving eight-slot letters.

    L-labelled rows instantiate the canonical arrangement of their L coset
    at the letter change; J-labelled rows apply the rows of their J coset's
    breadth-first representative, read from representative_rows("J"), to
    it.
    """
    _, t_label = jl_label(parse_label(t) if isinstance(t, str) else t)
    x = xfromw()
    if isinstance(t_label, LLabel):
        args = tuple(f.substitute(x) for f in l_coset_args(t_label))
        kind = "L"
    else:
        args = apply(representative_rows("J")[t_label], x)
        kind = "J"
    return FunTerm(kind, tuple(a.reduced() for a in args))


def _limit_normalizer(kind, m) -> GammaSinExpr:
    """Gamma quotient multiplying a row's M, with slot vector m and target
    kind, so that the shifted product converges."""
    one = LinForm.const_form(W_SYMBOLS, 1)
    if kind == "L":
        num = [one + m[0] - m[7]] + [m[1] - m[0] + m[k] for k in range(2, 7)]
        den = [m[1] - m[0]]
    else:
        num = [
            one - m[1],
            one + m[0] - m[6],
            one + m[0] - m[7],
            m[1] - m[0] + m[6],
            m[1] - m[0] + m[7],
        ]
        den = []
    return GammaSinExpr.build(W_SYMBOLS, 1, gamma_num=num, gamma_den=den)


def limit_normalizer(t) -> GammaSinExpr:
    """Gamma quotient multiplying the row's M so the shifted product converges."""
    return appendix_row(t).normalizer


def contracts(errors) -> bool:
    """The verdict on errors at SHIFTS: strictly decreasing, with the last
    at most LIMIT_DECAY times the first."""
    return all(b < a for a, b in zip(errors, errors[1:])) and errors[-1] <= LIMIT_DECAY * errors[0]


# ---------------------------------------------------------------------------
# built-in relations
# ---------------------------------------------------------------------------

_HALF = "1/2"


def _m_term(texts) -> FunTerm:
    return FunTerm("M", tuple(LinForm.parse(t, W_SYMBOLS) for t in texts))


def _roy463() -> Relation:
    t1 = (
        GammaSinExpr.build(
            W_SYMBOLS, 1, sin_num=("b-a",),
            gamma_den=("c-a+d", "c-a+e", "c-a+f", "c-a+g", "c-a+h"),
        ),
        _m_term(("a", "b", "c", "d", "e", "f", "g", "h")),
    )
    t2 = (
        GammaSinExpr.build(
            W_SYMBOLS, 1, sin_num=("a-c",),
            gamma_den=("b-a+d", "b-a+e", "b-a+f", "b-a+g", "b-a+h"),
        ),
        _m_term(("a", "c", "b", "d", "e", "f", "g", "h")),
    )
    t3 = (
        GammaSinExpr.build(
            W_SYMBOLS, 1, sin_num=("c-b",), gamma_den=("d", "e", "f", "g", "h"),
        ),
        _m_term(("2c-a", "c+b-a", "c", "c+d-a", "c+e-a", "c+f-a", "c+g-a", "c+h-a")),
    )
    return Relation("roy463", (t1, t2, t3))


def _roy463b() -> Relation:
    c1 = GammaSinExpr.build(
        W_SYMBOLS, 2, sin_num=("c+g-a",),
        gamma_den=(_HALF, _HALF, "1-g", "c-a+d", "c-a+e", "c-a+f"),
    ) * GammaSinExpr.build(
        W_SYMBOLS, 1,
        gamma_num=("1+a-h", "b-a+c", "b-a+d", "b-a+e", "b-a+f", "b-a+g"),
        gamma_den=("b-a",),
    )
    t1 = (c1, _m_term(("a", "b", "c", "d", "e", "f", "g", "h")))
    c2 = GammaSinExpr.build(
        W_SYMBOLS, 2, sin_num=("a-c",),
        gamma_den=(_HALF, _HALF, "1-c", "2+2a-c-d-e-f-g", "1-g", "1+a-c-g"),
    ) * GammaSinExpr.build(
        W_SYMBOLS, 1,
        gamma_num=("1-c", "1+a-b", "1+a-h", "c-a+b", "c-a+h"),
    )
    t2 = (c2, _m_term(("a", "c", "g", "d", "e", "f", "b", "h")))
    # numerators 1-4 over denominators 1-4 are the Pochhammer bracket
    # (b)_{c-a}(h)_{c-a}/((1+a-b)_{c-a}(1+a-h)_{c-a}); numerators 5-6 cancel
    # its Gamma(b) and Gamma(1+c-h) exactly: the evaluation takes neither
    # log, though it holds both margins
    c3 = GammaSinExpr.build(
        W_SYMBOLS, -2, sin_num=("g",),
        gamma_den=(_HALF, _HALF, "1+a-c-g", "d", "e", "f"),
    ) * GammaSinExpr.build(
        W_SYMBOLS, 1,
        gamma_num=("b+c-a", "1+a-h", "h+c-a", "1+a-b",
                   "1+c-h", "b", "b-a+d", "b-a+e", "b-a+f", "b-a+g"),
        gamma_den=("b", "1+c-h", "h", "1+c-b", "b-c"),
    )
    t3 = (
        c3,
        _m_term(("2c-a", "c+b-a", "c", "c+d-a", "c+e-a", "c+f-a", "c+g-a", "c+h-a")),
    )
    return Relation("roy463b", (t1, t2, t3))


def _orbit1jll() -> Relation:
    def v_term(kind, texts):
        return FunTerm(kind, tuple(LinForm.parse(t, V_SYMBOLS) for t in texts))

    t1 = (
        GammaSinExpr.build(
            V_SYMBOLS, 1, sin_num=("F-E",), gamma_den=("1-A", "E-A", "F-A", "G-A"),
        ),
        v_term("J", ("A", "B", "C", "D", "E", "F", "G")),
    )
    t2 = (
        GammaSinExpr.build(
            V_SYMBOLS, 1, sin_num=("F-A",), gamma_den=("E-A", "E-B", "E-C", "E-D"),
        ),
        v_term("L", ("A", "B", "C", "D", "E", "F", "G")),
    )
    t3 = (
        GammaSinExpr.build(
            V_SYMBOLS, -1, sin_num=("E-A",), gamma_den=("F-A", "F-B", "F-C", "F-D"),
        ),
        v_term("L", ("A", "B", "C", "D", "F", "E", "G")),
    )
    return Relation("orbit1jll", (t1, t2, t3))


@lru_cache(maxsize=1)
def builtin_relations() -> dict:
    """The three transcribed relations, keyed by their tags."""
    return {r.name: r for r in (_roy463(), _roy463b(), _orbit1jll())}


# ---------------------------------------------------------------------------
# translation and evaluation
# ---------------------------------------------------------------------------


def translate_relation(r: Relation, word, side: str) -> Relation:
    """Exact substitution of a group word into every symbolic form."""
    side = side.lower()
    word = tuple(word)
    forms = word_to_matrix(word, side)
    terms = tuple(
        (coef.substitute(forms), fun.substitute(forms)) for coef, fun in r.terms
    )
    name = r.name if not word else f"{r.name}.{'.'.join(word)}"
    return Relation(name, terms)


def _logs_and_residual(r: Relation, p) -> tuple:
    """(log of each term whose coefficient is not zero, scaled residual
    |sum| / max |term|) at p; warns, and reads 0.0, when none is left."""
    logs = r._family.term_logs(p)
    if not logs:
        warnings.warn("all relation coefficients vanish; residual is trivially zero", PrecisionWarning)
        return logs, 0.0
    return logs, combine_exponentials(logs)[1]


def eval_relation(r: Relation, p) -> float:
    """Scaled residual |sum| / max |term| of the relation at a point."""
    return _logs_and_residual(r, p)[1]


def relation_report(r: Relation, p) -> dict:
    """Per-term log magnitudes and phases plus the scaled residual."""
    logs, residual = _logs_and_residual(r, p)
    logs, terms = iter(logs), []
    for (coef, fun), lab in zip(r.terms, r.term_labels()):
        lg = coef.prefactor and next(logs)
        terms.append({"kind": fun.kind, "label": lab and str(lab),
                      **({"log_mag": lg.log_mag, "phase": lg.phase} if lg else {"zero": True})})
    return {"relation": r.name, "residual": residual, "terms": terms}


def relation_probe_args(r: Relation, p):
    """All gamma and sine arguments the relation's evaluation touches at p;
    only bench/ calls it."""
    return r._family.probe_args(p)


# ---------------------------------------------------------------------------
# the limit of a relation
# ---------------------------------------------------------------------------


def _limit_quotients(r: Relation) -> list:
    """(coefficient / limit_normalizer of its row, the row's target) per term
    of r; the row is the coset fun.classify() names."""
    rows = [appendix_row(fun.classify()) for _, fun in r.terms]
    return [(coef / limit_normalizer(row.label), row.target) for (coef, _), row in zip(r.terms, rows)]


def relation_limit(r: Relation, p: PointW) -> list:
    """The seven-slot relation an eight-slot relation degenerates onto.

    One (Growth, D, target) per term: the growth and t-free rest of the log
    of the term's coefficient / normalizer under b -> b + it at p, and the
    row's target.  The normalized M of each row tends to pi/2 times its
    target, so where the terms of largest Re B grow alike, the sum of
    exp(D) times the target over them vanishes at p.
    """
    return [(*q.growth(p.args()), target) for q, target in _limit_quotients(r)]


def relation_limit_gaps(r: Relation, p: PointW) -> list:
    """Per term, |q(p + it) / exp(growth + D) - 1| at each of SHIFTS, q the
    term's coefficient / normalizer."""
    vals, gaps = p.args(), []
    for q, _ in _limit_quotients(r):
        growth, rest = q.growth(vals)
        gaps.append([abs(cmath.exp((q.eval_log(replace(p, b=p.b + 1j * t).args()) - rest).as_log()
                                   - growth.at(t, vals)) - 1) for t in SHIFTS])
    return gaps


# ---------------------------------------------------------------------------
# point generation
# ---------------------------------------------------------------------------


def limit_probe_args(t, p: PointW, shifts=SHIFTS):
    """Gamma/sine arguments the row's limit relation evaluates at p shifted by
    each of shifts; only bench/ calls it."""
    limit = appendix_row(t).limit
    probes = [relation_probe_args(limit, replace(p, b=p.b + 1j * float(t_im))) for t_im in shifts]
    return tuple(z for g, _ in probes for z in g), tuple(z for _, s in probes for z in s)


class PointSearchError(RuntimeError):
    """No admissible point within the draw budget."""


def draw_point(rng, side: str, work):
    """(point, work(point)) at the first random point where the work raises
    no DegeneratePointError: every evaluation refuses the points within its
    margins of a pole, so the work screens its own point.  Real parts are
    U(0.1, 0.9) and imaginary parts U(-0.3, 0.3).  Any other error from the
    work propagates at once.

    Raises PointSearchError after POINT_BUDGET rejected draws, and
    ValueError for a side other than W or V.
    """
    side = side.upper()
    if side not in ("W", "V"):
        raise ValueError(f"side must be W or V, not {side!r}")
    count = 7 if side == "W" else 6
    cls = PointW if side == "W" else PointV
    for _ in range(POINT_BUDGET):
        p = cls(*(complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3)) for _ in range(count)))
        try:
            return p, work(p)
        except DegeneratePointError:
            continue
    raise PointSearchError(f"no admissible point found in {POINT_BUDGET} draws")


def gen_point(rng, side: str = "W", probe=None):
    """draw_point's point, redrawn until the (gamma args, sine args) that
    `probe` returns clear their margins; None accepts the first draw.  Only
    bench/ passes its own probes."""
    return draw_point(rng, side, lambda p: probe and require_margins(*probe(p)))[0]


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def table_json() -> str:
    return json.dumps(
        [row.to_dict() for row in appendix_table()], indent=2, sort_keys=True
    )


def table_text() -> str:
    """Aligned rendering of the table, one row per label."""
    heads = ("label", "M arguments", "", "target")
    lines = []
    rows = [
        (d["label"], d["m_args"], f"{d['target_kind']} {d['target_label']}", d["target_args"])
        for d in (row.to_dict() for row in appendix_table())
    ]
    lab_w = max(len(r[0]) for r in rows)
    m_w = max(len("; ".join(r[1])) for r in rows)
    t_w = max(len(r[2]) for r in rows)
    lines.append(f"{heads[0]:<{lab_w}}  {heads[1]:<{m_w}}  {heads[3]}")
    for lab, margs, tlab, targs in rows:
        lines.append(
            f"{lab:<{lab_w}}  {'; '.join(margs):<{m_w}}  {tlab:<{t_w}}  {'; '.join(targs)}"
        )
    return "\n".join(lines)
