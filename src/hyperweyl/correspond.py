"""Limits tying the eight-slot cosets to the seven-slot functions.

Every coset row degenerates, after normalization by an explicit gamma
quotient and a large imaginary shift of the b coordinate, onto one of the
seven-slot functions evaluated at a fixed rational-linear change of letters.
This module holds that table (``appendix_table``), one record per row
holding the row's transcribed target, its derived target and its
normalizer, all built once; the numerical limit checks; the three built-in
contiguous relations and their exact translations; relation_limit, which
carries any eight-slot relation through the limit onto the seven-slot
relation among its rows' targets; and draw_point, which draws a random
point together with the evaluation to be done there, redrawing wherever
that evaluation refuses the point as too close to a pole.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    representative_words,
)
from .exactalg import (
    LinForm,
    V_SYMBOLS,
    W_SYMBOLS,
    pretty_str,
    symbol_forms,
    word_to_matrix,
)
from .hypnum import (
    GAMMA_MARGIN,
    DegeneratePointError,
    LogC,
    PointV,
    PointW,
    PrecisionWarning,
    combine_exponentials,
    eval_J_log,
    eval_L_log,
    eval_M_log,
    j_probe_args,
    l_probe_args,
    lgamma,
    log_sin_pi,
    m_probe_args,
    margins_ok,
    _near_nonpos_int,
)

__all__ = [
    "GammaSinExpr",
    "FunTerm",
    "Relation",
    "AppendixRow",
    "LimitReport",
    "xfromw",
    "l_coset_args",
    "appendix_table",
    "appendix_row",
    "bfs_m_args",
    "gamma2_target",
    "limit_normalizer",
    "check_limit",
    "builtin_relations",
    "translate_relation",
    "eval_relation",
    "relation_report",
    "relation_limit",
    "relation_probe_args",
    "limit_probe_args",
    "PointSearchError",
    "gen_point",
    "draw_point",
    "table_json",
    "table_text",
]

FACTOR_GAMMA = "Gamma"
FACTOR_SIN = "SinPi"

ROY463_TOL = 1e-5
ORBIT1JLL_TOL = 1e-7
ROY463B_SHIFTED_TOL = 1e-4
LIMIT_DECAY = 0.6
# rejected draws after which gen_point gives up
POINT_BUDGET = 10_000
# imaginary shifts of b for check_limit and for roy463b in check 12
SHIFTS = (8.0, 16.0, 32.0)


# ---------------------------------------------------------------------------
# coefficient expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaSinExpr:
    """Rational multiple of a product/quotient of Gamma and sin(pi .) factors.

    Everything multiplicative is kept symbolic: factors are (kind, form)
    pairs evaluated in log space and exponentiated once by the caller.
    A factor of pi itself is expressed as Gamma(1/2)^2.  Like the hypnum
    evaluators, evaluation holds every gamma argument GAMMA_MARGIN from a
    pole and every sine argument SIN_MARGIN from an integer.
    """

    prefactor: Fraction
    numerator: tuple
    denominator: tuple

    @classmethod
    def build(cls, alphabet, prefactor=1, gamma_num=(), gamma_den=(),
              sin_num=(), sin_den=()) -> "GammaSinExpr":
        def forms(items, kind):
            out = []
            for it in items:
                form = LinForm.parse(it, alphabet) if isinstance(it, str) else it
                out.append((kind, form))
            return out

        num = forms(gamma_num, FACTOR_GAMMA) + forms(sin_num, FACTOR_SIN)
        den = forms(gamma_den, FACTOR_GAMMA) + forms(sin_den, FACTOR_SIN)
        return cls(Fraction(prefactor), tuple(num), tuple(den))

    def eval_log(self, values) -> LogC:
        if self.prefactor == 0:
            raise ZeroDivisionError("zero prefactor has no logarithm")
        total = LogC.from_complex(complex(float(self.prefactor)))
        for kind, form in self.numerator:
            total = total + self._factor_log(kind, form, values)
        for kind, form in self.denominator:
            total = total - self._factor_log(kind, form, values)
        return total

    @staticmethod
    def _factor_log(kind, form, values) -> LogC:
        z = form.evaluate(values)
        if kind != FACTOR_GAMMA:
            return log_sin_pi(z)
        if _near_nonpos_int(z, GAMMA_MARGIN):
            raise DegeneratePointError(f"gamma argument {z} within {GAMMA_MARGIN} of a pole")
        return lgamma(z)

    def substitute(self, forms: Sequence[LinForm]) -> "GammaSinExpr":
        num = tuple((k, f.substitute(forms)) for k, f in self.numerator)
        den = tuple((k, f.substitute(forms)) for k, f in self.denominator)
        return GammaSinExpr(self.prefactor, num, den)

    def probe_args(self, values):
        """(gamma arguments, sine arguments) at values; only bench/ calls it."""
        gammas, sins = [], []
        for kind, form in self.numerator + self.denominator:
            (gammas if kind == FACTOR_GAMMA else sins).append(form.evaluate(values))
        return tuple(gammas), tuple(sins)

    def __mul__(self, other: "GammaSinExpr") -> "GammaSinExpr":
        return GammaSinExpr(
            self.prefactor * other.prefactor,
            self.numerator + other.numerator,
            self.denominator + other.denominator,
        )


# ---------------------------------------------------------------------------
# function terms and relations
# ---------------------------------------------------------------------------

_ARITY = {"M": 8, "J": 7, "L": 7}


@dataclass(frozen=True)
class FunTerm:
    """One of the three functions with symbolic argument slots.

    Construction verifies the defining hyperplane identity of the argument
    list symbolically, so off-surface terms are unrepresentable.
    """

    kind: str
    args: tuple

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown function kind {self.kind!r}")
        if len(self.args) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_ARITY[self.kind]} arguments")
        if self.kind == "M":
            combo = sum(self.args[1:], -self.args[0] * 3) - 2
        else:
            combo = sum(self.args[4:7], LinForm.const_form(self.args[0].alphabet, -1))
            combo = combo - sum(self.args[0:4], LinForm.const_form(self.args[0].alphabet, 0))
        if not combo.reduced().is_zero():
            raise ValueError(f"{self.kind} arguments leave the defining hyperplane")

    @property
    def alphabet(self):
        return self.args[0].alphabet

    def numeric_args(self, values):
        return tuple(form.evaluate(values) for form in self.args)

    def eval_log(self, values) -> LogC:
        nums = self.numeric_args(values)
        if self.kind == "M":
            return eval_M_log(nums)
        if self.kind == "J":
            return eval_J_log(nums)
        return eval_L_log(nums)

    def substitute(self, forms: Sequence[LinForm]) -> "FunTerm":
        return FunTerm(self.kind, tuple(a.substitute(forms) for a in self.args))

    def probe_args(self, values):
        """The evaluator's (gamma, sine) arguments; only bench/ calls it."""
        nums = self.numeric_args(values)
        if self.kind == "M":
            return m_probe_args(nums)
        if self.kind == "J":
            return j_probe_args(nums)
        return l_probe_args(nums)

    def classify(self):
        """Coset label of the argument arrangement (group images only)."""
        if self.kind == "M":
            return classify_m(self.args)
        if self.kind == "J":
            return classify_j(self.args)
        return classify_l(self.args)


@dataclass(frozen=True)
class Relation:
    """Sum of coefficient-weighted function terms asserted to vanish."""

    name: str
    terms: tuple  # of (GammaSinExpr, FunTerm)

    @property
    def alphabet(self):
        return self.terms[0][1].alphabet

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
    """Independent coset representative: the symbolic slot vector of the
    breadth-first representative word, reduced.

    Generally a different representative than the table row (the function
    stabilizer mixes all slots under left multiplication), but the same
    coset: slot 2 agrees symbolically and the eight-slot function values
    agree everywhere.
    """
    label = parse_label(label) if isinstance(label, str) else label
    word = representative_words("M")[label]
    forms = word_to_matrix(word, "w").apply(symbol_forms("w"))
    if classify_m(forms) != label:
        raise AssertionError(f"word for {label} classifies elsewhere")
    return tuple(e.reduced() for e in forms)


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
    its coset, and an independently computed representative word must land
    in the same coset as its slot vector (equal classifying slot); the
    construction invariants of AppendixRow hold.  Targets come from
    gamma2_target, normalizers from the slot vector.
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
        if bfs_m_args(label)[1] != m_args[1]:
            raise AssertionError(
                f"{label}: representative word lands in a different coset"
            )
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
    at the letter change; J-labelled rows apply a representative group word
    for their J coset to it.
    """
    _, t_label = jl_label(parse_label(t) if isinstance(t, str) else t)
    x = xfromw()
    if isinstance(t_label, LLabel):
        args = tuple(f.substitute(x) for f in l_coset_args(t_label))
        kind = "L"
    else:
        word = representative_words("J")[t_label]
        beta = word_to_matrix(word, "v")
        if classify_j(beta.apply(symbol_forms("v"))) != t_label:
            raise AssertionError(f"word for {t_label} classifies elsewhere")
        args = beta.apply(x)
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


@dataclass(frozen=True)
class LimitReport:
    """Outcome of driving one row through increasing shifts."""

    label: MLabel
    shifts: tuple
    errors: tuple
    verdict: bool
    target_log: LogC
    values: tuple

    def to_dict(self):
        return {
            "label": str(self.label),
            "shifts": list(self.shifts),
            "errors": list(self.errors),
            "verdict": self.verdict,
            "target_log_mag": self.target_log.log_mag,
            "target_phase": self.target_log.phase,
        }


def _shifted_point(p: PointW, t: float) -> PointW:
    return PointW(p.a, p.b + 1j * t, p.c, p.d, p.e, p.f, p.g)


def check_limit(t, p: PointW) -> LimitReport:
    """Drive the normalized row at p through SHIFTS and compare against
    pi/2 times the target value; the verdict wants strictly decreasing
    relative errors with the last at most LIMIT_DECAY times the first.  The
    report keeps the normalized shifted values, one per shift."""
    label = parse_label(t) if isinstance(t, str) else t
    row = appendix_row(label)
    norm = limit_normalizer(label)
    target_log = row.target.eval_log(p.args())
    ref = LogC.from_real(math.pi / 2) + target_log
    values = []
    for t_im in SHIFTS:
        vals = _shifted_point(p, t_im).args()
        values.append(norm.eval_log(vals) + eval_M_log([f.evaluate(vals) for f in row.m_args]))
    errors = [abs((val - ref).to_complex() - 1.0) for val in values]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    verdict = decreasing and errors[-1] <= LIMIT_DECAY * errors[0]
    return LimitReport(label, SHIFTS, tuple(errors), verdict, target_log, tuple(values))


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
    # its Gamma(b) and Gamma(1+c-h) exactly, though not in rounding
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
    forms = word_to_matrix(word, side).apply(symbol_forms(side))
    terms = tuple(
        (coef.substitute(forms), fun.substitute(forms)) for coef, fun in r.terms
    )
    name = r.name if not word else f"{r.name}.{'.'.join(word)}"
    return Relation(name, terms)


def _point_values(r: Relation, p):
    want = 8 if r.alphabet == W_SYMBOLS else 7
    if isinstance(p, (PointW, PointV)):
        vals = p.args()
    else:
        vals = tuple(complex(z) for z in p)
    if len(vals) != want:
        raise ValueError(f"need {want} coordinate values for this relation")
    return vals


def _term_logs(r: Relation, p) -> list:
    """Log of coefficient times function for each term at p; None for a term
    whose coefficient vanishes."""
    values = _point_values(r, p)
    return [
        None if coef.prefactor == 0 else coef.eval_log(values) + fun.eval_log(values)
        for coef, fun in r.terms
    ]


def _residual(logs) -> float:
    """Scaled residual |sum| / max |term| of the term logs that are not None;
    warns when none are left."""
    logs = [lg for lg in logs if lg is not None]
    if not logs:
        warnings.warn(
            "all relation coefficients vanish; residual is trivially zero",
            PrecisionWarning,
        )
        return 0.0
    return combine_exponentials(logs)[1]


def eval_relation(r: Relation, p) -> float:
    """Scaled residual |sum| / max |term| of the relation at a point."""
    return _residual(_term_logs(r, p))


def relation_report(r: Relation, p) -> dict:
    """Per-term log magnitudes and phases plus the scaled residual."""
    logs = _term_logs(r, p)
    terms = []
    for (_, fun), lab, lg in zip(r.terms, r.term_labels(), logs):
        term = {"kind": fun.kind, "label": lab and str(lab)}
        term.update({"zero": True} if lg is None else {"log_mag": lg.log_mag, "phase": lg.phase})
        terms.append(term)
    return {"relation": r.name, "residual": _residual(logs), "terms": terms}


def relation_probe_args(r: Relation, p):
    """All gamma and sine arguments the relation's evaluation touches at p;
    only bench/ calls it."""
    values = _point_values(r, p)
    return _join_probes(
        probe for coef, fun in r.terms if coef.prefactor != 0
        for probe in (coef.probe_args(values), fun.probe_args(values))
    )


# ---------------------------------------------------------------------------
# the limit of a relation
# ---------------------------------------------------------------------------


def relation_limit(r: Relation, p: PointW, t: float) -> list:
    """The seven-slot relation an eight-slot relation degenerates onto.

    One pair per term: the log of the term's coefficient divided by the
    limit_normalizer of its row (the coset fun.classify() names), at p with
    b shifted by i t, and that row's target term.  The normalized M of each
    row tends to pi/2 times its target at p, so the sum of exp(q) times the
    target at p tends to zero as t grows; only gamma and sine factors are
    evaluated at the shifted point, so t may be large.
    """
    vals = _shifted_point(p, t).args()
    rows = [appendix_row(fun.classify()) for _, fun in r.terms]
    return [(coef.eval_log(vals) - limit_normalizer(row.label).eval_log(vals), row.target)
            for (coef, _), row in zip(r.terms, rows)]


# ---------------------------------------------------------------------------
# point generation
# ---------------------------------------------------------------------------


def limit_probe_args(t, p: PointW, shifts=SHIFTS):
    """Gamma/sine arguments check_limit evaluates for this row at p; only
    bench/ calls it."""
    row = appendix_row(t)
    norm = limit_normalizer(t)
    return _join_probes([row.target.probe_args(p.args())] + [
        probe for vals in (_shifted_point(p, float(t_im)).args() for t_im in shifts)
        for probe in (norm.probe_args(vals), m_probe_args([f.evaluate(vals) for f in row.m_args]))
    ])


def _join_probes(probes) -> tuple:
    probes = list(probes)
    return tuple(z for g, _ in probes for z in g), tuple(z for _, s in probes for z in s)


class PointSearchError(RuntimeError):
    """No admissible point within the draw budget."""


def gen_point(rng, side: str = "W", probe=None):
    """Random point: real parts U(0.1, 0.9), imaginary parts U(-0.3, 0.3).

    Redrawn while `probe` raises DegeneratePointError or the (gamma args,
    sine args) it returns miss their margins; None accepts the first draw.
    Raises PointSearchError after POINT_BUDGET rejected draws, and ValueError
    for a side other than W or V.  Only bench/ passes its own probes; other
    callers use draw_point.
    """
    side = side.upper()
    if side not in ("W", "V"):
        raise ValueError(f"side must be W or V, not {side!r}")
    count = 7 if side == "W" else 6
    cls = PointW if side == "W" else PointV
    for _ in range(POINT_BUDGET):
        coords = [
            complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
            for _ in range(count)
        ]
        p = cls(*coords)
        if probe is None:
            return p
        try:
            gammas, sins = probe(p)
        except DegeneratePointError:
            continue
        if margins_ok(gammas, sins):
            return p
    raise PointSearchError(f"no admissible point found in {POINT_BUDGET} draws")


def draw_point(rng, side: str, work):
    """(point, work(point)) at the first of gen_point's draws where the work
    raises no DegeneratePointError: every evaluation refuses the points
    within its margins of a pole, so the work screens its own point.  Any
    other error from the work propagates at once."""
    done = []

    def probe(p):
        done.append(work(p))
        return (), ()

    return gen_point(rng, side, probe), done[-1]


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
