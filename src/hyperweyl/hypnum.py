"""Log-space complex gamma/sine arithmetic and unit-argument series evaluation.

Everything downstream needs quotients of many gamma and sine factors whose
individual magnitudes overflow doubles long before the quotient does, so the
building blocks here work in log space: a value is carried as log-magnitude
plus an unnormalized phase, products are additions, and a single
exponentiation happens at the end.  Log-gamma takes a whole array of
arguments at once, each evaluation's gamma factors in one call: it
reflects those below Re z = 1/2, steps every argument up six times, and
sums twelve Stirling terms, which at |z| > 6 already reach double
precision.

On top of that sits the summation engine for one-more-numerator
hypergeometric series at unit argument.  It sums the first N terms directly,
from their ratios with one complex division per term, and adds the tail
beyond them from its asymptotic expansion in 1/N, whose coefficients follow
exactly from the parameters, until its terms fall below the direct sum's
rounding; N is a few times the largest parameter modulus, so a sum takes 32
to a few hundred terms.  The evaluators for the three special functions of
interest sit on the engine: the 44-label pair (a sum and a difference of two
Saalschutzian 4F3(1) series, with a very-well-poised 7F6(1) as a second route
to the difference) and the eight-parameter function built from two
very-well-poised 9F8(1) series.  Each family is written once, as its
formula over linear forms (_descriptions): halves, each a GammaSinExpr
coefficient times a series.  One generic evaluator reads it, and evaluates
every GammaSinExpr too, as one half without a series: the margins, the
cancelled gamma/sine quotients and the series all come from that one
description.  A relation compiles into one such evaluator of several terms,
its log-gammas one call over its distinct rows.  Each evaluation issues a
PrecisionWarning when one of its series misses its tolerance, or when the
two halves of a term cancel to fewer than nine digits.
"""
from __future__ import annotations

import cmath
import math
import operator
import warnings
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Sequence

import numpy as np

from .exactalg import HYPERPLANES, V_SYMBOLS, W_SYMBOLS, LinForm, symbol_forms

__all__ = [
    "GAMMA_MARGIN",
    "SIN_MARGIN",
    "REL_TOL",
    "N_MAX",
    "EvaluationDomainError",
    "DegeneratePointError",
    "GammaPoleError",
    "DivergentSeriesError",
    "PrecisionWarning",
    "LogC",
    "Growth",
    "GammaSinExpr",
    "combine_exponentials",
    "lgamma_array",
    "series_sigma",
    "SeriesResult",
    "sum_pfq",
    "PointW",
    "PointV",
    "j_probe_args",
    "l_probe_args",
    "l7f6_probe_args",
    "m_probe_args",
    "require_margins",
    "margins_ok",
    "eval_J_log",
    "eval_L_log",
    "eval_L_7f6_log",
    "eval_M_log",
]

GAMMA_MARGIN = 0.1
SIN_MARGIN = 0.05
_POLE_MARGIN = 1e-12

# the two kinds of factor a GammaSinExpr holds
FACTOR_GAMMA = "Gamma"
FACTOR_SIN = "SinPi"

_LOG_PI = math.log(math.pi)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_TWO_I = complex(math.log(2.0), 0.5 * math.pi)


class EvaluationDomainError(ValueError):
    """A parameter combination outside the evaluators' domain."""


class DegeneratePointError(EvaluationDomainError):
    """A gamma argument or sine argument too close to its singular set."""


class GammaPoleError(DegeneratePointError):
    """Argument within the hard pole margin of a non-positive integer."""


class DivergentSeriesError(EvaluationDomainError):
    """Unit-argument series whose parameter sums give no convergence."""


class PrecisionWarning(RuntimeWarning):
    """Result kept fewer significant digits than the working tolerance."""


def _near_nonpos_int(z: complex, margin: float) -> bool:
    """Whether z lies within margin, at most 1/2, of a non-positive integer."""
    if z.real >= 0.5:
        return False
    n = round(z.real)
    return n <= 0 and abs(z - n) < margin


def _dist_to_int(z: complex) -> float:
    return abs(z - round(z.real))


def _hold_margins(kinds, args) -> None:
    """Raise at the first of args, each a gamma or a sine argument as kinds
    says, that is not finite, or that lies within GAMMA_MARGIN of a pole or
    SIN_MARGIN of an integer."""
    for kind, z in zip(kinds, args):
        if not cmath.isfinite(z):
            raise EvaluationDomainError(f"non-finite argument {z}")
        if kind == FACTOR_GAMMA:
            if _near_nonpos_int(z, GAMMA_MARGIN):
                raise DegeneratePointError(f"gamma argument {z} within {GAMMA_MARGIN} of a pole")
        elif _dist_to_int(z) < SIN_MARGIN:
            raise DegeneratePointError(f"sine argument {z} within {SIN_MARGIN} of an integer: sine margin violated")


# ---------------------------------------------------------------------------
# log-space values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogC:
    """A logarithm of a non-zero complex value: log-magnitude plus phase.

    The phase is not normalized; sums of these add winding freely, which is
    exactly what makes products of thousands of gamma factors safe.
    """

    log_mag: float
    phase: float

    def __add__(self, other: "LogC") -> "LogC":
        return LogC(self.log_mag + other.log_mag, self.phase + other.phase)

    def __sub__(self, other: "LogC") -> "LogC":
        return LogC(self.log_mag - other.log_mag, self.phase - other.phase)

    def __neg__(self) -> "LogC":
        return LogC(-self.log_mag, -self.phase)

    def to_complex(self) -> complex:
        if self.log_mag == -math.inf:
            return 0j
        if self.log_mag > 709.0:
            raise OverflowError("value exceeds double range; stay in log space")
        return cmath.exp(complex(self.log_mag, self.phase))

    def as_log(self) -> complex:
        return complex(self.log_mag, self.phase)


def _logc_from_log(w: complex) -> LogC:
    return LogC(w.real, w.imag)


def combine_exponentials(terms: Sequence[LogC]):
    """Log of sum(exp(term_i)), rescaled by the largest magnitude.

    Returns (LogC of the combination, cancellation ratio |combination| / max
    |term|), the ratio being the rescaled sum's modulus: the largest rescaled
    term has modulus 1.  A relation's residual is this ratio over its terms.
    """
    r = max(t.log_mag for t in terms)
    if r == -math.inf:
        return LogC(-math.inf, 0.0), 1.0
    s = sum(cmath.exp(complex(t.log_mag - r, t.phase)) for t in terms)
    if s == 0:
        return LogC(-math.inf, 0.0), 0.0
    return LogC(r + math.log(abs(s)), cmath.phase(s)), abs(s)


# ---------------------------------------------------------------------------
# gamma and sine in log space
# ---------------------------------------------------------------------------

# asymptotic series coefficients B_{2n} / (2n(2n-1))
_STIRLING = (
    1 / 12,
    -1 / 360,
    1 / 1260,
    -1 / 1680,
    1 / 1188,
    -691 / 360360,
    1 / 156,
    -3617 / 122400,
    43867 / 244188,
    -174611 / 125400,
    77683 / 5796,
    -236364091 / 1506960,
)

# six unit steps take every argument, reflected to Re z >= 1/2, past
# |z| = 6, where the twelve-term series above truncates below 1e-17
_STEPS = np.arange(6.0)


def _expm1_2pii(z: complex) -> complex:
    """exp(2*pi*i*z) - 1, accurate near the zeros (z near an integer)."""
    m = round(z.real)
    x = -2.0 * math.pi * z.imag
    y = 2.0 * math.pi * (z.real - m)
    if abs(x) <= 1.0 and abs(y) <= 1.0:
        return complex(
            math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2,
            math.exp(x) * math.sin(y),
        )
    return cmath.exp(complex(x, y)) - 1.0


def _log_sin_pi_c(z: complex) -> complex:
    """log sin(pi z), safe for |Im z| up to 1e4 and beyond."""
    if z.imag < 0:
        return _log_sin_pi_c(z.conjugate()).conjugate()
    # sin(pi z) = exp(-i pi z) (exp(2 pi i z) - 1) / (2 i); the extracted
    # exponential dominates for large Im z, so nothing overflows
    return -1j * math.pi * z + cmath.log(_expm1_2pii(z)) - _LOG_TWO_I


def lgamma_array(zs) -> np.ndarray:
    """log Gamma at every entry of zs, as a complex array of its shape.

    Entries below Re z = 1/2 are reflected through log sin(pi z); every
    entry then takes six unit steps up, one log over an (entries x 6) grid,
    and the twelve-term Stirling series at |z| > 6.  The branch is
    the principal one on Re z >= 1/2, continued through the reflection.
    A non-finite entry raises EvaluationDomainError, and an entry within
    the hard pole margin of a non-positive integer GammaPoleError, each
    naming the first such entry.
    """
    z = np.asarray(zs, dtype=complex)
    flat = z.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        raise EvaluationDomainError(f"non-finite gamma argument {flat[finite.argmin()]}")
    # only an entry below Re z = 1/2 can lie at a pole
    reflect = np.flatnonzero(flat.real < 0.5)
    low = flat[reflect].tolist()
    for v in low:
        if _near_nonpos_int(v, _POLE_MARGIN):
            raise GammaPoleError(f"gamma pole at z = {v}")
    w = flat.copy()
    w[reflect] = 1.0 - w[reflect]
    # each entry's logs and Stirling terms sit in one contiguous row, which
    # is summed the same way whatever the array's length
    steps = np.log(w[:, None] + _STEPS).sum(axis=1)
    w += len(_STEPS)
    # 1/w, 1/w^3, ..., 1/w^23 in each row, as one sequential product
    powers = np.empty((len(w), len(_STIRLING)), dtype=complex)
    powers[:, 0] = 1.0 / w
    powers[:, 1:] = (powers[:, 0] * powers[:, 0])[:, None]
    series = (powers.cumprod(axis=1) * _STIRLING).sum(axis=1)
    out = (w - 0.5) * np.log(w) - w + _HALF_LOG_TWO_PI + series - steps
    if low:
        out[reflect] = _LOG_PI - np.array([_log_sin_pi_c(v) for v in low]) - out[reflect]
    return out.reshape(z.shape)


# ---------------------------------------------------------------------------
# the convergence exponent
# ---------------------------------------------------------------------------


def series_sigma(nums: Sequence[complex], dens: Sequence[complex]) -> complex:
    """Parameter-sum difference controlling unit-argument convergence."""
    return sum(map(complex, dens)) - sum(map(complex, nums))


# ---------------------------------------------------------------------------
# the summation engine
# ---------------------------------------------------------------------------


# the relative accuracy every series sum aims at, and the most terms one sum
# may take; sum_pfq reads both when it is called
REL_TOL = 1e-12
N_MAX = 1 << 20
# the most terms of the tail's asymptotic expansion in 1/N one sum may take
_TAIL_TERMS = 20


# row m of the composition S(x) -> S(x / (1 + x)), m = 0 .. K: the coefficients
# (-1)^(m-l) C(m - 1, m - l) of c_l in that of x^m for l = 1 .. m - 2, all _tail reads
_COMPOSE_ROWS = [
    [(-1) ** (m - l) * math.comb(m - 1, m - l) for l in range(1, m - 1)]
    for m in range(_TAIL_TERMS + 1)
]


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    err_estimate: float
    converged: bool


# the most terms _direct_sum takes in one block: a 9F8's (18 x block) grid
# of parameter-plus-index sums then holds 2.4 MB
_BLOCK = 1 << 13


def _direct_sum(nums, all_dens, n: int):
    """(t_0 + ... + t_(n-1), |t_0| + ... + |t_(n-1)|, t_n) with t_0 = 1, from
    the term ratios, one complex division per term.

    The terms are taken in vectorized blocks of at most 2^13, each block's
    ratios from one (parameters x block) grid of sums and its first ratio
    multiplied by the running product, so every term is the same
    sequential product as in one pass.  A sum or t_n that overflows raises
    EvaluationDomainError.
    """
    params = np.array([*nums, *all_dens])[:, None]
    head, abs_head, t_n = 1.0, 1.0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK):
            grid = params + np.arange(start, min(n, start + _BLOCK), dtype=float)
            ratios = grid[: len(nums)].prod(axis=0)
            ratios /= grid[len(nums):].prod(axis=0)
            ratios[0] *= t_n
            terms = ratios.cumprod(out=ratios)
            t_n = complex(terms[-1])
            # t_n itself is summed only when a later block follows
            body = terms[:-1] if start + len(terms) == n else terms
            head += complex(body.sum())
            abs_head += float(np.abs(body).sum())
    if not (cmath.isfinite(head) and cmath.isfinite(t_n)):
        raise EvaluationDomainError(f"the terms of a {n}-term series overflow")
    return head, abs_head, t_n


def _tail(nums, dens, sigma: complex, n: int, t_n: complex, floor: float):
    """(R_n, size of its last two expansion terms) for R_n = sum of t_k, k >= n.

    R_n = t_n n S(x) with S(x) = c_0 + c_1 x + c_2 x^2 + ... and x = 1/n.
    Put into R_n - R_(n+1) = t_n, this reads S(x) - u(x) S(x / (1 + x)) = x
    with u(x) = prod(1 + a x) / prod(1 + b x) over nums and dens.  As
    u = 1 - sigma x + ..., order m fixes c_(m-1) through sigma + m - 1.
    The terms stop after two in a row below `floor`, or at _TAIL_TERMS.
    """
    # p, q: the coefficients of the two products; u's orders follow from
    # them as the expansion reaches each, u_i = p_i - sum_(j>=1) q_j u_(i-j)
    p, q = [1.0 + 0j], [1.0 + 0j]
    for poly, params in ((p, nums), (q, dens)):
        for a in params:
            poly.append(0j)
            for i in range(len(poly) - 1, 0, -1):
                poly[i] += a * poly[i - 1]
    p += [0j] * (_TAIL_TERMS + 1 - len(p))
    u, q = [p[0]], q[1:]
    x, scale = 1.0 / n, t_n * n
    # cs: c_1, c_2, ... as found; v: the coefficients of S(x / (1 + x))
    # they fix, newest first; x_k = x^k, exact as n is a power of two
    cs, v = [], []
    tail, x_k, before, last, row_k = 0, 1.0, 0.0, 0.0, 0
    for k in range(_TAIL_TERMS):
        u.append(p[k + 1] - sum(map(operator.mul, q, reversed(u))))
        # order k + 1 of the identity, whose right side x counts at k = 0
        # only; rows k and k + 1 are read without c_k and c_(k+1), and u_0 = 1
        row_next = sum(map(operator.mul, _COMPOSE_ROWS[k + 1], cs))
        c = (sum(map(operator.mul, u[2:], v), row_next + u[1] * row_k) + (k == 0)) / (sigma + k)
        if k:
            cs.append(c)
        v.insert(0, row_k + c)
        # row k + 1 without c_(k+1): row_next and its c_k term, -k c_k
        row_k = row_next - k * c
        term = scale * c * x_k
        tail += term
        before, last = last, abs(term)
        if k and before < floor and last < floor:
            break
        x_k *= x
    return tail, before + last


def sum_pfq(nums: Sequence[complex], dens: Sequence[complex]) -> SeriesResult:
    """Unit-argument series with one more numerator than denominator parameter.

    Sums the first N terms t_0 = 1, t_1, ... directly and adds the tail's
    asymptotic expansion R_N = t_N N sum_(k<K) c_k N^-k with K <= 20 (J.
    Willis, Numer. Algorithms 59 (2012), arXiv:1102.3003); c_0 = 1/sigma,
    with sigma = sum(dens) - sum(nums).  N is the least power of two at or
    past 32 and four times the largest parameter modulus, where the
    expansion has settled, and depends on nothing else.  A parameter too
    large for N <= N_MAX raises EvaluationDomainError, so no term ratio
    overflows: in the evaluators' series its numerator and denominator
    each multiply at most nine factors of modulus at most 1.25 N_MAX < 2^21.

    err_estimate is the size of the expansion's last two terms (a
    very-well-poised tail alternates in size, so the last alone can
    undershoot) plus a rounding floor sqrt(N) eps (sum_(n<N) |t_n| + |R_N|);
    K is where two successive terms first fall below the floor's first
    part.  converged means err_estimate <= REL_TOL * |value|.

    A numerator at a non-positive integer ends the series, whose at most
    N_MAX terms are summed directly, with that floor as err_estimate.
    Terms or a sum that overflow raise EvaluationDomainError.
    """
    nums = [complex(a) for a in nums]
    dens = [complex(b) for b in dens]
    if len(nums) != len(dens) + 1:
        raise ValueError("need one more numerator than denominator parameters")
    for b in dens:
        if _near_nonpos_int(b, _POLE_MARGIN):
            raise DegeneratePointError(f"denominator parameter {b} at a pole")

    ends = [1 - round(a.real) for a in nums if _near_nonpos_int(a, _POLE_MARGIN)]
    if ends:
        n = min(ends)
        if n > N_MAX:
            raise EvaluationDomainError(f"a series of {n} terms is too long to sum")
    else:
        sigma = series_sigma(nums, dens)
        if sigma.real <= 0:
            raise DivergentSeriesError(
                f"parameter sums give convergence exponent {sigma}; series diverges"
            )
        want = max(32, 4 * max(map(abs, nums + dens)))
        if want > N_MAX:
            raise EvaluationDomainError(f"a parameter is too large to sum within {N_MAX} terms")
        n = 1 << math.ceil(math.log2(want))
    head, abs_head, t_n = _direct_sum(nums, dens + [1.0 + 0j], n)
    rounding = math.sqrt(n) * math.ulp(1.0)
    tail, truncation = (0.0, 0.0) if ends else _tail(nums, dens, sigma, n, t_n, rounding * abs_head)
    value = head + tail
    err = truncation + rounding * (abs_head + abs(tail))
    return SeriesResult(value, n, err, err <= REL_TOL * abs(value))


# ---------------------------------------------------------------------------
# the point types
# ---------------------------------------------------------------------------


def _coords_from_mapping(data, keys, derived):
    """{key: complex} from {key: [re, im]}; ValueError for a non-finite part
    or a supplied derived coordinate."""
    if derived in data:
        raise ValueError("the last coordinate is derived; do not supply it")
    vals = {}
    for k in keys:
        re, im = data[k]
        vals[k] = complex(re, im)
        if not cmath.isfinite(vals[k]):
            raise ValueError(f"coordinate {k} is not finite: {vals[k]}")
    return vals


@dataclass(frozen=True)
class PointW:
    """Eight-slot parameter point; the last coordinate is always derived."""

    a: complex
    b: complex
    c: complex
    d: complex
    e: complex
    f: complex
    g: complex

    @property
    def h(self) -> complex:
        return 2 + 3 * self.a - (self.b + self.c + self.d + self.e + self.f + self.g)

    def args(self):
        return (self.a, self.b, self.c, self.d, self.e, self.f, self.g, self.h)

    @classmethod
    def from_mapping(cls, data) -> "PointW":
        return cls(**_coords_from_mapping(data, "abcdefg", "h"))


@dataclass(frozen=True)
class PointV:
    """Seven-slot parameter point; the last coordinate is always derived."""

    A: complex
    B: complex
    C: complex
    D: complex
    E: complex
    F: complex

    @property
    def G(self) -> complex:
        return 1 + self.A + self.B + self.C + self.D - self.E - self.F

    def args(self):
        return (self.A, self.B, self.C, self.D, self.E, self.F, self.G)

    @classmethod
    def from_mapping(cls, data) -> "PointV":
        return cls(**_coords_from_mapping(data, "ABCDEF", "G"))


# ---------------------------------------------------------------------------
# the arguments each evaluation holds to its margins
# ---------------------------------------------------------------------------


def require_margins(gammas, sins):
    """Raise unless every argument is finite, every gamma argument clears
    GAMMA_MARGIN from a pole and every sine argument clears SIN_MARGIN from
    an integer, the gamma arguments checked first, each list in order."""
    args = [complex(z) for z in (*gammas, *sins)]
    _hold_margins([FACTOR_GAMMA] * len(gammas) + [FACTOR_SIN] * len(sins), args)


def margins_ok(gammas, sins) -> bool:
    """require_margins as a verdict; outside the tests only bench/ reads it."""
    try:
        require_margins(gammas, sins)
    except EvaluationDomainError:
        return False
    return True


# ---------------------------------------------------------------------------
# gamma-sine products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Growth:
    """Exact growth A·it·log t + B·t + C·log t of a log under b -> b + it:
    A = a and B = pi·b_re + i(b_im + log b_pow) with a, b_re, b_im and b_pow
    rational, and C = c, a reduced LinForm read at the point."""

    a: Fraction
    b_re: Fraction
    b_im: Fraction
    b_pow: Fraction
    c: LinForm

    def at(self, t: float, values) -> complex:
        b = complex(math.pi * self.b_re, self.b_im + math.log(self.b_pow))
        return (1j * float(self.a) * math.log(t) + b) * t + self.c.evaluate(values) * math.log(t)

    def to_dict(self) -> dict:
        return {"A": str(self.a), "B": f"{self.b_re}*pi + ({self.b_im} + log({self.b_pow}))*i", "C": str(self.c)}


@dataclass(frozen=True)
class GammaSinExpr:
    """Rational multiple of a product/quotient of Gamma and sin(pi .) factors.

    Everything multiplicative is kept symbolic: factors are (kind, form)
    pairs, and a factor of pi itself is expressed as Gamma(1/2)^2.  An
    expression is evaluated by the family evaluator, as one half without a
    series, built once per distinct expression: it holds the families'
    margins at every factor that is not constant, in written order
    (numerator, then denominator), and a factor repeated above and below
    cancels exactly.
    """

    prefactor: Fraction
    numerator: tuple
    denominator: tuple

    @classmethod
    def build(cls, alphabet, prefactor=1, gamma_num=(), gamma_den=(),
              sin_num=(), sin_den=()) -> "GammaSinExpr":
        def forms(items, kind):
            return [(kind, LinForm.parse(it, alphabet) if isinstance(it, str) else it) for it in items]

        num = forms(gamma_num, FACTOR_GAMMA) + forms(sin_num, FACTOR_SIN)
        den = forms(gamma_den, FACTOR_GAMMA) + forms(sin_den, FACTOR_SIN)
        return cls(Fraction(prefactor), tuple(num), tuple(den))

    @cached_property
    def _family(self) -> "_Family":
        return _product_family(self)

    def eval_log(self, values) -> LogC:
        """Log of the expression at values; a zero prefactor raises
        ZeroDivisionError."""
        return self._family.evaluate(values)

    def growth(self, values) -> tuple:
        """(Growth, D) with log expr(p + it·e_b) = A·it·log t + B·t + C·log t
        + D + o(1), p the point of values and D a LogC.  Each factor whose
        reduced form has b-coefficient beta != 0, with value x at p, tends by
        Stirling's formula (up to O(1/t)) and the sine's exponential (up to
        O(exp(-2 pi |beta| t))) to
          log Gamma: (x + i beta t - 1/2)(log |beta| t + i pi sgn(beta)/2) - i beta t + log(2 pi)/2,
          log sin pi: pi |beta| t + log(i sgn(beta)/2) - i pi sgn(beta) x;
        the factors with beta = 0 go into D whole.  Other alphabets raise ValueError."""
        other = next((f.alphabet for _, f in self.numerator + self.denominator if f.alphabet != W_SYMBOLS), None)
        if other:
            raise ValueError(f"growth is defined under b -> b + it on the letters a..h, not on {''.join(other)}")

        def moves(factor):
            return factor[1].reduced().coef("b") != 0

        still = GammaSinExpr(self.prefactor, *(tuple(f for f in fs if not moves(f))
                                               for fs in (self.numerator, self.denominator)))
        d = still.eval_log(values).as_log()
        a, b_re, b_pow, c = Fraction(0), Fraction(0), Fraction(1), LinForm.const_form(W_SYMBOLS, 0)
        for sign, factors in ((1, self.numerator), (-1, self.denominator)):
            for kind, form in filter(moves, factors):
                form = form.reduced()
                beta = form.coef("b")
                x, s = form.evaluate(values), 1 if beta > 0 else -1
                if kind == FACTOR_GAMMA:
                    a += sign * beta
                    b_re -= sign * abs(beta) / 2
                    b_pow *= abs(beta) ** (sign * beta)
                    c += sign * (form - Fraction(1, 2))
                    d += sign * ((x - 0.5) * complex(math.log(abs(beta)), s * math.pi / 2) + _HALF_LOG_TWO_PI)
                else:
                    b_re += sign * abs(beta)
                    d += sign * (1j * s * math.pi * (0.5 - x) - math.log(2))
        return Growth(a, b_re, -a, b_pow, c), LogC(d.real, d.imag)

    def substitute(self, forms: Sequence[LinForm]) -> "GammaSinExpr":
        num = tuple((k, f.substitute(forms)) for k, f in self.numerator)
        den = tuple((k, f.substitute(forms)) for k, f in self.denominator)
        return GammaSinExpr(self.prefactor, num, den)

    def __mul__(self, other: "GammaSinExpr") -> "GammaSinExpr":
        return GammaSinExpr(self.prefactor * other.prefactor, self.numerator + other.numerator,
                            self.denominator + other.denominator)

    def __truediv__(self, other: "GammaSinExpr") -> "GammaSinExpr":
        return GammaSinExpr(self.prefactor / other.prefactor, self.numerator + other.denominator,
                            self.denominator + other.numerator)


# ---------------------------------------------------------------------------
# the three function families, each written once as its formula
# ---------------------------------------------------------------------------


# coef * pFq(nums; dens) at unit argument, coef a GammaSinExpr and every
# series parameter a LinForm over the family's letters; no nums, no series
_Half = namedtuple("_Half", "coef nums dens")
# a family as the paper writes it: the sum of its halves, on the hyperplane
# plane = 0 and where Re domain > 0 (None: anywhere, everywhere)
_Description = namedtuple("_Description", "name plane halves domain", defaults=(None,))


def _very_well_poised(head, params):
    """(numerators, denominators) of the very-well-poised series
    (head, 1 + head/2, params; head/2, 1 + head - params)."""
    half = head * Fraction(1, 2)
    return (head, 1 + half, *params), (half, *(1 + head - t for t in params))


def _descriptions() -> dict:
    A, B, C, D, E, F, G = symbol_forms("v")
    v_plane = HYPERPLANES[V_SYMBOLS]
    shifted = tuple(1 + A - t for t in (E, F, G))
    poised = tuple(1 + A - t for t in (B, C, D))
    moved = tuple(1 + t - E for t in (A, B, C, D))
    tops = (2 - E, 1 + F - E, 1 + G - E)
    v, w = partial(GammaSinExpr.build, V_SYMBOLS), partial(GammaSinExpr.build, W_SYMBOLS)
    # J and L: each half over sin(pi A) or sin(pi E) and eight gamma factors
    j_den = v(1, (), (A, B, C, D, A, *shifted), sin_den=(A,))
    l_den = v(1, (), (A, B, C, D, *moved), sin_den=(E,))
    first = (A, B, C, D), (E, F, G)
    # the 7F6 route: 1/pi Gamma[1+a / 1+a-b..f, 2+2a-b-c-d-e-f] 7F6 with
    # a = D+G-E and b..f = G-A, G-B, G-C, D, 1+D-E
    head = D + G - E
    nums, dens = _very_well_poised(head, (G - A, G - B, G - C, D, 1 + D - E))
    route = _Half(v(1, (1 + head,), (*dens[1:], 2 + 2 * head - sum(nums[2:]), "1/2", "1/2")), nums, dens)

    a, b, c, d, e, f, g, h = symbol_forms("w")
    rest = (c, d, e, f, g, h)
    rest_moved = tuple(b - a + t for t in rest)
    m_den = w(1, (), (b, *rest, *rest_moved), sin_den=(b - a,))
    m_halves = []
    # V(head; params) = pi/2 Gamma[1+head, params / 1+head-params] 9F8
    for sign, head, params in ((1, a, (b, *rest)), (-1, 2 * b - a, (b, *rest_moved))):
        nums, dens = _very_well_poised(head, params)
        coef = w(Fraction(sign, 2), ("1/2", "1/2", 1 + head, *params), dens[1:]) * m_den
        m_halves.append(_Half(coef, nums, dens))
    return {
        "J": _Description("J", v_plane, (_Half(v(1, *first) * j_den, *first),
                                         _Half(v(1, (A, *shifted), poised) * j_den, (A, *shifted), poised))),
        "L": _Description("L", v_plane, (
            _Half(v(1, *first) * l_den, *first), _Half(v(-1, moved, tops) * l_den, moved, tops))),
        "L7F6": _Description("L (7F6 route)", v_plane, (route,), F - D),
        "M": _Description("M", HYPERPLANES[W_SYMBOLS], tuple(m_halves)),
    }


# the name of the hyperplane each alphabet's points live on
_PLANE_NAMES = {V_SYMBOLS: "unit-shift", W_SYMBOLS: "defining"}


def _count_factors(coef: GammaSinExpr, index, margins: list) -> dict:
    """coef's signed count of each (kind, index(form)) factor; the key of each
    factor that is not constant goes onto margins, in written order."""
    count = {}
    for sign, factors in ((1, coef.numerator), (-1, coef.denominator)):
        for kind, form in factors:
            key = kind, index(form)
            count[key] = count.get(key, 0) + sign
            if any(form.row()[1:]):
                margins.append(key)
    return count


class _Family:
    """A sum of terms, each a sum of halves, turned into an evaluator: a
    description is one term, and a relation compiles into one (_joined).

    Every distinct form is one row of a matrix, constant first; each
    coefficient is a multiple of 1/2, so the rows are exact in floating
    point and a point's arguments are one matrix product.  Each half's
    gamma/sine quotient is one row of a signed incidence matrix over the
    distinct factors of all terms, so a factor a half has above and below
    cancels here, exactly and once.  The margins are held in written order:
    each half's numerator factors, its denominator factors, then its series
    denominators, cancelled or not; a constant factor holds none.
    """

    def __init__(self, desc: _Description):
        self.desc, rows = desc, {}

        def index(form):
            return rows.setdefault(form, len(rows))

        planes = () if desc.plane is None else (
            (index(desc.plane), f"parameters leave the {_PLANE_NAMES[desc.plane.alphabet]} hyperplane"),)
        domains = () if desc.domain is None else ((index(desc.domain), f"{desc.name} needs Re({desc.domain}) > 0"),)
        margins, counts, halves = [], [], []
        for half in desc.halves:
            if not half.coef.prefactor:
                raise ZeroDivisionError("zero prefactor has no logarithm")
            counts.append(_count_factors(half.coef, index, margins))
            dens = [index(form) for form in half.dens]
            margins += [(FACTOR_GAMMA, i) for i in dens]
            halves.append((cmath.log(half.coef.prefactor), [index(form) for form in half.nums], dens))
        keys = list(dict.fromkeys(k for count in counts for k in count))
        incidence = np.array([[count.get(key, 0) for key in keys] for count in counts], dtype=complex)
        self.forms = tuple(rows)
        # a constant product has no forms, arity 0, and reads no coordinates
        arity = len(self.forms[0].alphabet) if self.forms else 0
        matrix = np.array([f.row() for f in self.forms], dtype=complex).reshape(-1, 1 + arity)
        self._build(matrix, ((desc.name, halves),), keys, incidence, margins, planes, domains)

    def _build(self, matrix, terms, keys, incidence, margins, planes, domains):
        """terms: (name, halves), each half (log prefactor, series numerator
        rows, denominator rows); incidence: each half's count of each key."""
        self._matrix, self.arity = matrix, matrix.shape[1] - 1
        self._terms, self._planes, self._domains = terms, planes, domains
        self._margins = tuple(dict.fromkeys(margins))
        self._margin_kinds, self._margin_rows = tuple(k for k, _ in self._margins), tuple(i for _, i in self._margins)
        self._gammas = tuple(i for kind, i in self._margins if kind == FACTOR_GAMMA)
        self._sines = tuple(i for kind, i in self._margins if kind == FACTOR_SIN)
        # the factors whose log some half takes, gammas first (J's repeated A
        # counts twice)
        incidence = incidence.reshape(sum(len(halves) for _, halves in terms), len(keys))
        logged = sorted(np.flatnonzero(incidence.any(axis=0)).tolist(), key=lambda j: keys[j][0] != FACTOR_GAMMA)
        self._keys = [keys[j] for j in logged]
        self._incidence = np.ascontiguousarray(incidence[:, logged])
        self._lgamma_rows = np.array([i for kind, i in self._keys if kind == FACTOR_GAMMA], dtype=np.intp)
        self._sine_rows = [i for kind, i in self._keys if kind == FACTOR_SIN]

    def point(self, x) -> tuple:
        """The coordinates of x, a point or a sequence of numbers."""
        x = x.args() if isinstance(x, (PointV, PointW)) else tuple(x)
        if len(x) != self.arity and self.arity:
            raise ValueError(f"need {self.arity} parameter values")
        return x[: self.arity]

    def values(self, x) -> np.ndarray:
        """Every row's value at x, as a complex array."""
        return self._matrix @ np.array((1, *self.point(x)), dtype=complex)

    def probe_args(self, x):
        """(gamma arguments, sine arguments) whose margins the evaluation holds."""
        z = self.values(x).tolist()
        return tuple(z[i] for i in self._gammas), tuple(z[i] for i in self._sines)

    def evaluate(self, x) -> LogC:
        """Log of a family of one term at x."""
        (log,) = self.term_logs(x)
        return log

    def term_logs(self, x) -> list:
        """Each term's log at x: the arguments, then their domain, margins and
        hyperplane, then the series.  Each half is one complex log, its
        gamma/sine quotient one row of the incidence matrix times the logs of
        the factors, all log-gammas from one lgamma_array call, and a term's
        halves meet in one rescaled sum, with a warning if more than nine
        digits cancel or a series misses its tolerance."""
        values = self.values(x)
        z = values.tolist()
        for i, text in self._domains:
            if z[i].real <= 0:
                raise DegeneratePointError(f"{text}; got {z[i].real}")
        _hold_margins(self._margin_kinds, [z[i] for i in self._margin_rows])
        for i, text in self._planes:
            if abs(z[i]) > 1e-9:
                raise EvaluationDomainError(text)
        sines = [_log_sin_pi_c(z[i]) for i in self._sine_rows]
        quotients = iter((self._incidence @ np.concatenate((lgamma_array(values[self._lgamma_rows]), sines))).tolist())
        logs = []
        for name, halves in self._terms:
            terms = []
            for which, (const, nums, dens) in enumerate(halves, start=1):
                log = const + next(quotients)
                if nums:
                    res = sum_pfq([z[i] for i in nums], [z[i] for i in dens])
                    if not res.converged:
                        warnings.warn(f"{name} evaluation, {len(nums)}F{len(dens)} of half {which}: series summed "
                                      f"{res.terms_used} terms and its tail with error estimate "
                                      f"{res.err_estimate:.1e}, short of its tolerance", PrecisionWarning, stacklevel=4)
                    log += cmath.log(res.value)
                terms.append(_logc_from_log(log))
            combo, ratio = combine_exponentials(terms)
            if ratio < 1e-9:
                warnings.warn(f"{name} evaluation: terms cancel to {ratio:.1e} of their size; fewer than 9 "
                              "significant digits remain", PrecisionWarning, stacklevel=4)
            logs.append(combo)
        return logs


def _joined(terms, arity: int) -> _Family:
    """One family for a sum of terms, each (non-zero GammaSinExpr, family kind,
    argument forms over `arity` letters): its family's halves, the arguments
    composed into the family's rows as numbers (exact: both hold small
    multiples of 1/2) and the coefficient's factors added to each half's
    incidence row.  Rows equal as numbers are one row, so a factor shared by
    two terms, or by a coefficient and its function, is logged once.  Each
    term holds its coefficient's margins, then its family's."""
    rows, keys, blocks, out, margins, planes, domains = {}, {}, [], [], [], [], []

    def index(row):
        return rows.setdefault(tuple(row), len(rows))

    for coef, kind, args in terms:
        family = _families()[kind]
        arg_matrix = np.array([(1,) + (0,) * arity, *(f.row() for f in args)], dtype=complex)
        fun = [index(row) for row in (family._matrix @ arg_matrix).tolist()]
        own = _count_factors(coef, lambda form: index(form.row()), margins)
        margins += [(k, fun[i]) for k, i in family._margins]
        planes += [(fun[i], text) for i, text in family._planes]
        domains += [(fun[i], text) for i, text in family._domains]
        cols = [keys.setdefault((k, fun[i]), len(keys)) for k, i in family._keys]
        blocks.append((family._incidence, cols, {keys.setdefault(key, len(keys)): n for key, n in own.items()}))
        ((name, halves),) = family._terms
        const = cmath.log(coef.prefactor)
        out.append((name, [(const + c, [fun[i] for i in nums], [fun[i] for i in dens]) for c, nums, dens in halves]))
    incidence = np.zeros((sum(len(inc) for inc, _, _ in blocks), len(keys)), dtype=complex)
    at = 0
    for inc, cols, coef_cols in blocks:
        np.add.at(incidence, (slice(at, at + len(inc)), cols), inc)
        incidence[at: at + len(inc), list(coef_cols)] += list(coef_cols.values())
        at += len(inc)
    joined = _Family.__new__(_Family)
    joined._build(np.array(list(rows), dtype=complex).reshape(-1, 1 + arity), out,
                  list(keys), incidence, margins, planes, domains)
    return joined


@lru_cache(maxsize=1)
def _families() -> dict:
    """Each family's evaluator, built on first use."""
    return {kind: _Family(desc) for kind, desc in _descriptions().items()}


@lru_cache(maxsize=4096)
def _product_family(expr: GammaSinExpr) -> _Family:
    """The evaluator of a gamma-sine product, built once per distinct expression
    (of the last 4096 seen): a family of one half without a series or a plane."""
    return _Family(_Description("gamma-sine product", None, (_Half(expr, (), ()),)))


def j_probe_args(args7):
    """(gamma arguments, sine arguments) whose margins the J evaluation holds."""
    return _families()["J"].probe_args(args7)


def l_probe_args(args7):
    return _families()["L"].probe_args(args7)


def l7f6_probe_args(args7):
    return _families()["L7F6"].probe_args(args7)


def m_probe_args(args8):
    return _families()["M"].probe_args(args8)


def eval_J_log(x) -> LogC:
    """Log of the sum-of-complementary-series function J(A;B,C,D;E,F,G), two
    Saalschutzian 4F3(1) over sin(pi A) and eight gamma factors."""
    return _families()["J"].evaluate(x)


def eval_L_log(args) -> LogC:
    """Log of the difference-of-supplementary-series function L(A,B,C,D;E;F,G),
    two Saalschutzian 4F3(1) over sin(pi E) and eight gamma factors."""
    return _families()["L"].evaluate(args)


def eval_L_7f6_log(args) -> LogC:
    """Log of the very-well-poised 7F6 route to the same function, whose
    series converges for Re(F - D) > 0 only."""
    return _families()["L7F6"].evaluate(args)


def eval_M_log(w) -> LogC:
    """Log of the eight-parameter function M(a;b;c,d,e,f,g,h), two
    very-well-poised 9F8(1) over sin(pi(b-a)) and thirteen gamma factors."""
    return _families()["M"].evaluate(w)
