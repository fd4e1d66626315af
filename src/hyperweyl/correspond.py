"""Limits tying the eight-slot cosets to the seven-slot functions.

Every coset row degenerates, after normalization by an explicit gamma
quotient and a large imaginary shift of the b coordinate, onto one of the
seven-slot functions evaluated at a fixed rational-linear change of letters.
This module holds that table (``appendix_table``), the normalizers and
numerical limit checks, the three built-in contiguous relations and their
exact translations, and the end-to-end degeneration pipeline that follows
one relation through the limit onto its seven-slot image.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

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
    EvaluationDomainError,
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
    "fixture_rows",
    "gamma2_target",
    "limit_target_template",
    "limit_normalizer",
    "check_limit",
    "builtin_relations",
    "translate_relation",
    "eval_relation",
    "relation_report",
    "limit222_pipeline",
    "pipeline_x_args",
    "relation_probe_args",
    "pipeline_probe_args",
    "limit_probe_args",
    "PointSearchError",
    "gen_point",
    "table_json",
    "table_text",
]

FACTOR_GAMMA = "Gamma"
FACTOR_SIN = "SinPi"

ROY463_TOL = 1e-5
ORBIT1JLL_TOL = 1e-7
ROY463B_SHIFTED_TOL = 1e-4
HALVING_WINDOW = (0.3, 0.7)
LIMIT_DECAY = 0.6
# imaginary shifts of b that the limit checks and the pipeline step through
SHIFTS = (8.0, 16.0, 32.0)


# ---------------------------------------------------------------------------
# coefficient expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaSinExpr:
    """Rational multiple of a product/quotient of Gamma and sin(pi .) factors.

    Everything multiplicative is kept symbolic: factors are (kind, form)
    pairs evaluated in log space and exponentiated once by the caller.
    A factor of pi itself is expressed as Gamma(1/2)^2.
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
        return lgamma(z) if kind == FACTOR_GAMMA else log_sin_pi(z)

    def substitute(self, forms: Sequence[LinForm]) -> "GammaSinExpr":
        num = tuple((k, f.substitute(forms)) for k, f in self.numerator)
        den = tuple((k, f.substitute(forms)) for k, f in self.denominator)
        return GammaSinExpr(self.prefactor, num, den)

    def probe_args(self, values):
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
    """One coset row: normal-form M arguments plus the limit target."""

    label: MLabel
    m_args: tuple
    target_kind: str
    target_label: object
    target_color: str
    target_args: tuple

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
        for a in self.target_args:
            if a.reduced().coef("b") != 0:
                raise ValueError("target arguments must be free of the shifted letter")

    def target_term(self) -> FunTerm:
        return FunTerm(self.target_kind, self.target_args)

    def to_dict(self):
        return {
            "label": str(self.label),
            "color": self.target_color,
            "m_args": [pretty_str(a) for a in self.m_args],
            "target_kind": self.target_kind,
            "target_label": str(self.target_label),
            "target_args": [pretty_str(a) for a in self.target_args],
        }


class _FixtureRow:
    __slots__ = ("label", "m_args", "target_kind", "target_label", "target_args")

    def __init__(self, label, m_args, target_kind, target_label, target_args):
        self.label = label
        self.m_args = m_args
        self.target_kind = target_kind
        self.target_label = target_label
        self.target_args = target_args


@lru_cache(maxsize=1)
def fixture_rows() -> tuple:
    """The checked-in table rows, parsed (reduced forms, source order)."""
    rows = []
    for line in FIXTURE_TEXT.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        lab_text, m_text, t_text, ta_text = (part.strip() for part in line.split("|"))
        label = parse_label(lab_text)
        m_args = tuple(
            LinForm.parse(t, W_SYMBOLS).reduced() for t in m_text.split(";")
        )
        kind, t_lab = t_text.split()
        if kind not in ("J", "L"):
            raise ValueError(f"{label}: target kind {kind!r} is neither J nor L")
        target_args = tuple(
            LinForm.parse(t, W_SYMBOLS).reduced() for t in ta_text.split(";")
        )
        rows.append(_FixtureRow(label, m_args, kind, parse_label(t_lab), target_args))
    if len(rows) != 56:
        raise AssertionError("fixture must hold 56 rows")
    return tuple(rows)


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


@lru_cache(maxsize=1)
def appendix_table() -> tuple:
    """All 56 rows in source order, cross-checked against group data.

    The slot vectors are the checked-in canonical representatives; for each
    row an independently computed representative word must land in the same
    coset (equal classifying slot), and the construction invariants of
    AppendixRow hold.  Targets come from gamma2_target.
    """
    rows = []
    for fix in fixture_rows():
        color, t_label = jl_label(fix.label)
        if (fix.target_kind == "J") != isinstance(t_label, JLabel):
            raise AssertionError(f"{fix.label}: target kind mismatch")
        if t_label != fix.target_label:
            raise AssertionError(f"{fix.label}: target label mismatch")
        route = bfs_m_args(fix.label)
        if route[1] != fix.m_args[1].reduced():
            raise AssertionError(
                f"{fix.label}: representative word lands in a different coset"
            )
        target = gamma2_target(fix.label)
        rows.append(
            AppendixRow(
                fix.label, fix.m_args, target.kind, t_label, color, target.args
            )
        )
    return tuple(rows)


def appendix_row(label) -> AppendixRow:
    label = parse_label(label) if isinstance(label, str) else label
    return _rows_by_label()[label]


# ---------------------------------------------------------------------------
# limit targets and normalizers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gamma2_target(label: MLabel) -> FunTerm:
    color, t_label = jl_label(label)
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


def gamma2_target(t) -> FunTerm:
    """Limit target of a coset row: the matching seven-slot function with
    its arguments written in the surviving eight-slot letters.

    L-labelled rows instantiate the canonical arrangement of their L coset
    at the letter change; J-labelled rows apply a representative group word
    for their J coset to it.
    """
    t = parse_label(t) if isinstance(t, str) else t
    return _gamma2_target(t)


def limit_target_template(t) -> FunTerm:
    """The same target read off the limit formula applied to the row's
    normal-form M arguments; agrees with gamma2_target by the invariances."""
    row = appendix_row(t)
    m = row.m_args
    one = LinForm.const_form(W_SYMBOLS, 1)
    if row.target_kind == "L":
        args = (
            m[4], m[5], m[6],
            one + m[0] - m[2] - m[3],
            m[4] + m[5] + m[6] - m[0],
            one + m[0] - m[2],
            one + m[0] - m[3],
        )
    else:
        args = (
            m[1], m[2], m[3],
            one + m[0] - m[4] - m[5],
            m[1] + m[2] + m[3] - m[0],
            one + m[0] - m[4],
            one + m[0] - m[5],
        )
    return FunTerm(row.target_kind, tuple(a.reduced() for a in args))


def limit_normalizer(t) -> GammaSinExpr:
    """Gamma quotient multiplying the row's M so the shifted product converges."""
    row = appendix_row(t)
    m = row.m_args
    one = LinForm.const_form(W_SYMBOLS, 1)
    if row.target_kind == "L":
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


@dataclass(frozen=True)
class LimitReport:
    """Outcome of driving one row through increasing shifts."""

    label: MLabel
    shifts: tuple
    errors: tuple
    verdict: bool
    target_log: Optional[LogC] = None
    failure: Optional[str] = None
    values: tuple = ()

    def to_dict(self):
        out = {
            "label": str(self.label),
            "shifts": list(self.shifts),
            "errors": list(self.errors),
            "verdict": self.verdict,
        }
        if self.target_log is not None:
            out["target_log_mag"] = self.target_log.log_mag
            out["target_phase"] = self.target_log.phase
        if self.failure is not None:
            out["failure"] = self.failure
        return out


def _shifted_point(p: PointW, t: float) -> PointW:
    return PointW(p.a, p.b + 1j * t, p.c, p.d, p.e, p.f, p.g)


def check_limit(t, p: PointW, decay: float = LIMIT_DECAY) -> LimitReport:
    """Drive the normalized row at p through SHIFTS and compare against
    pi/2 times the target value; the verdict wants strictly decreasing
    relative errors with the last at most `decay` times the first.  The
    report keeps the normalized shifted values, one per shift."""
    label = parse_label(t) if isinstance(t, str) else t
    row = appendix_row(label)
    norm = limit_normalizer(label)
    try:
        target_log = row.target_term().eval_log(p.args())
        ref = LogC.from_real(math.pi / 2) + target_log
        values = []
        for t_im in SHIFTS:
            vals = _shifted_point(p, t_im).args()
            values.append(norm.eval_log(vals) + eval_M_log(
                [f.evaluate(vals) for f in row.m_args]
            ))
        errors = [abs((val - ref).to_complex() - 1.0) for val in values]
    except (EvaluationDomainError, OverflowError) as exc:
        return LimitReport(label, SHIFTS, (), False, failure=f"{type(exc).__name__}: {exc}")
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    verdict = decreasing and errors[-1] <= decay * errors[0]
    return LimitReport(label, SHIFTS, tuple(errors), verdict, target_log=target_log,
                       values=tuple(values))


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


def _poch_bracket_factors() -> tuple:
    # The curly-brace factor (b)_{c-a}(h)_{c-a}/((1+a-b)_{c-a}(1+a-h)_{c-a})
    # written as the product of two shifted-Pochhammer ratios, grouped so each
    # ratio's two arguments share one large-imaginary direction.  Each factor
    # tends to 1 with error O(1/T); in the product the leading corrections
    # cancel (b+h does not move under the shift), leaving O(1/T^2).
    up = GammaSinExpr.build(
        W_SYMBOLS, 1, gamma_num=("b+c-a", "1+a-h"), gamma_den=("b", "1+c-h"),
    )
    down = GammaSinExpr.build(
        W_SYMBOLS, 1, gamma_num=("h+c-a", "1+a-b"), gamma_den=("h", "1+c-b"),
    )
    return up, down


def _poch_bracket() -> GammaSinExpr:
    up, down = _poch_bracket_factors()
    return up * down


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
    c3 = GammaSinExpr.build(
        W_SYMBOLS, -2, sin_num=("g",),
        gamma_den=(_HALF, _HALF, "1+a-c-g", "d", "e", "f"),
    ) * _poch_bracket() * GammaSinExpr.build(
        W_SYMBOLS, 1,
        gamma_num=("1+c-h", "b", "b-a+d", "b-a+e", "b-a+f", "b-a+g"),
        gamma_den=("b-c",),
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
    if isinstance(p, PointW):
        vals = p.args()
    elif isinstance(p, PointV):
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


def eval_relation(r: Relation, p) -> float:
    """Scaled residual |sum| / max |term| of the relation at a point."""
    logs = [lg for lg in _term_logs(r, p) if lg is not None]
    if not logs:
        warnings.warn(
            "all relation coefficients vanish; residual is trivially zero",
            PrecisionWarning,
        )
        return 0.0
    return combine_exponentials(logs)[1]


def relation_report(r: Relation, p) -> dict:
    """Per-term log magnitudes and phases plus the scaled residual."""
    logs = _term_logs(r, p)
    terms = []
    for (_, fun), lab, lg in zip(r.terms, r.term_labels(), logs):
        term = {"kind": fun.kind, "label": lab and str(lab)}
        term.update({"zero": True} if lg is None else {"log_mag": lg.log_mag, "phase": lg.phase})
        terms.append(term)
    logs = [lg for lg in logs if lg is not None]
    residual = combine_exponentials(logs)[1] if logs else 0.0
    return {"relation": r.name, "residual": residual, "terms": terms}


def relation_probe_args(r: Relation, p):
    """All gamma and sine arguments the relation's evaluation touches at p."""
    values = _point_values(r, p)
    gammas, sins = [], []
    for coef, fun in r.terms:
        if coef.prefactor == 0:
            continue
        for probe in (coef.probe_args(values), fun.probe_args(values)):
            gammas.extend(probe[0])
            sins.extend(probe[1])
    return tuple(gammas), tuple(sins)


# ---------------------------------------------------------------------------
# the degeneration pipeline
# ---------------------------------------------------------------------------

_PIPELINE_X_TEXTS = (
    "c", "1+a-d-g", "1+a-e-g", "1+a-f-g", "1+c-g", "1+a-g", "2+2a-d-e-f-g",
)

# roy463b term -> orbit1jll term carrying its limit
_PIPELINE_TERM_MAP = (1, 0, 2)


@lru_cache(maxsize=1)
def _pipeline_x_forms() -> tuple:
    return tuple(LinForm.parse(t, W_SYMBOLS) for t in _PIPELINE_X_TEXTS)


def pipeline_x_args(p: PointW) -> tuple:
    """Seven-slot coordinates onto which the pipeline's relation degenerates."""
    return tuple(f.evaluate(p.args()) for f in _pipeline_x_forms())


def limit222_pipeline(p: PointW) -> dict:
    """Follow the rearranged three-term relation through the limit.

    Five stages: the base relation holds at p; the rearranged relation holds
    at every shifted point; the Pochhammer bracket tends to 1 with its error
    halving per doubled shift; each normalized term converges to the matching
    term of the three-term seven-slot relation at the changed letters; and
    that relation holds there.  The verdict is PASS only if all stages pass.
    The shifts are SHIFTS, which double at every step.
    """
    rels = builtin_relations()
    roy, royb, jll = rels["roy463"], rels["roy463b"], rels["orbit1jll"]
    shifted = [_shifted_point(p, t_im) for t_im in SHIFTS]
    report = {"point": _point_dict(p), "shifts": list(SHIFTS), "steps": {}}
    steps = report["steps"]

    try:
        r0 = eval_relation(roy, p)
        steps["base_relation"] = {
            "residual": r0, "bound": ROY463_TOL, "pass": r0 <= ROY463_TOL,
        }

        shifted_res = [eval_relation(royb, q) for q in shifted]
        steps["shifted_relation"] = {
            "residuals": shifted_res,
            "bound": ROY463B_SHIFTED_TOL,
            "pass": all(r <= ROY463B_SHIFTED_TOL for r in shifted_res),
        }

        bracket = _poch_bracket()
        errs = [abs(bracket.eval_log(q.args()).to_complex() - 1.0) for q in shifted]
        lo, hi = HALVING_WINDOW
        ok3 = all(b < a for a, b in zip(errs, errs[1:]))
        factors = []
        for expr in _poch_bracket_factors():
            es = [abs(expr.eval_log(q.args()).to_complex() - 1.0) for q in shifted]
            rats = [b / a for a, b in zip(es, es[1:])]
            factors.append({"errors": es, "ratios": rats})
            ok3 = ok3 and all(lo <= r <= hi for r in rats)
        steps["bracket_to_one"] = {
            "errors": errs,
            "factors": factors,
            "window": [lo, hi],
            "pass": ok3,
        }

        xvals = pipeline_x_args(p)
        term_errs = []
        term_pass = True
        for k, (coef, fun) in enumerate(royb.terms):
            lim_coef, lim_fun = jll.terms[_PIPELINE_TERM_MAP[k]]
            ref = lim_coef.eval_log(xvals) + lim_fun.eval_log(xvals)
            errs_k = []
            for q in shifted:
                vals = q.args()
                val = coef.eval_log(vals) + fun.eval_log(vals)
                errs_k.append(abs((val - ref).to_complex() - 1.0))
            term_errs.append(errs_k)
            term_pass = term_pass and all(
                b < a for a, b in zip(errs_k, errs_k[1:])
            )
        steps["terms_to_limit"] = {
            "errors": term_errs,
            "target_terms": [_PIPELINE_TERM_MAP.index(j) for j in range(3)],
            "pass": term_pass,
        }

        rx = eval_relation(jll, xvals)
        steps["limit_relation"] = {
            "residual": rx, "bound": ORBIT1JLL_TOL, "pass": rx <= ORBIT1JLL_TOL,
        }
    except (EvaluationDomainError, OverflowError) as exc:
        report["failure"] = f"{type(exc).__name__}: {exc}"
        report["verdict"] = "FAIL"
        return report

    report["verdict"] = (
        "PASS" if all(s["pass"] for s in steps.values()) else "FAIL"
    )
    return report


def _point_dict(p: PointW) -> dict:
    out = {}
    for name, z in zip("abcdefg", p.args()):
        out[name] = [z.real, z.imag]
    return out


# ---------------------------------------------------------------------------
# admissibility probes and point generation
# ---------------------------------------------------------------------------


def limit_probe_args(t, p: PointW, shifts=SHIFTS):
    """Gamma/sine arguments check_limit evaluates for this row at p."""
    row = appendix_row(t)
    norm = limit_normalizer(t)
    gammas, sins = [], []
    tg, ts = row.target_term().probe_args(p.args())
    gammas.extend(tg)
    sins.extend(ts)
    for t_im in shifts:
        vals = _shifted_point(p, float(t_im)).args()
        ng, ns = norm.probe_args(vals)
        mg, ms = m_probe_args([f.evaluate(vals) for f in row.m_args])
        gammas.extend(ng + mg)
        sins.extend(ns + ms)
    return tuple(gammas), tuple(sins)


def pipeline_probe_args(p: PointW):
    """Gamma/sine arguments the pipeline evaluates for a candidate point."""
    rels = builtin_relations()
    gammas, sins = [], []

    def extend(pair):
        gammas.extend(pair[0])
        sins.extend(pair[1])

    extend(relation_probe_args(rels["roy463"], p))
    for t_im in SHIFTS:
        q = _shifted_point(p, float(t_im))
        extend(relation_probe_args(rels["roy463b"], q))
        extend(_poch_bracket().probe_args(q.args()))
    xvals = pipeline_x_args(p)
    extend(relation_probe_args(rels["orbit1jll"], xvals))
    return tuple(gammas), tuple(sins)


class PointSearchError(RuntimeError):
    """No admissible point within the draw budget."""


def gen_point(rng, side: str = "W", probe=None, budget: int = 10_000):
    """Random admissible point: real parts U(0.1, 0.9), imaginary parts
    U(-0.3, 0.3), redrawn until the probe's margins hold.

    `probe` maps a candidate point to (gamma args, sine args); None accepts
    the first draw.  Raises PointSearchError after `budget` rejected draws.
    """
    side = side.upper()
    count = 7 if side == "W" else 6
    cls = PointW if side == "W" else PointV
    for _ in range(budget):
        coords = [
            complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
            for _ in range(count)
        ]
        p = cls(*coords)
        if probe is None:
            return p
        try:
            gammas, sins = probe(p)
        except (EvaluationDomainError, OverflowError):
            continue
        if margins_ok(gammas, sins):
            return p
    raise PointSearchError(f"no admissible point found in {budget} draws")


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
        (
            str(row.label),
            row.to_dict()["m_args"],
            f"{row.target_kind} {row.target_label}",
            row.to_dict()["target_args"],
        )
        for row in appendix_table()
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
