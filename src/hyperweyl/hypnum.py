"""Log-space complex gamma/sine arithmetic and unit-argument series evaluation.

Everything downstream needs quotients of many gamma and sine factors whose
individual magnitudes overflow doubles long before the quotient does, so the
building blocks here work in log space: a value is carried as log-magnitude
plus an unnormalized phase, products are additions, and a single
exponentiation happens at the end.  Log-gamma recurses upward only to
|z| > 10, where twelve Stirling terms already reach double precision.

On top of that sits the summation engine for one-more-numerator
hypergeometric series at unit argument.  It sums the first N terms
directly, from their ratios with one complex division per term, and adds
the tail beyond them from its asymptotic expansion in 1/N, whose
coefficients follow exactly from the parameters; N is a few times the
largest parameter modulus, so a sum takes 32 to a few hundred terms.  The
evaluators for the three special functions of interest sit on the engine:
the 44-label pair (a sum and a difference of two Saalschutzian 4F3(1)
series, with a very-well-poised 7F6(1) as a second route to the
difference) and the eight-parameter function built from two
very-well-poised 9F8(1) series.  Gamma factors that a series' prefactor
shares with the function's denominator are cancelled before any is
computed.  Each evaluator issues a PrecisionWarning when one of its series
falls short of its tolerance, or when its two halves cancel to fewer than
nine digits.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    "combine_exponentials",
    "lgamma",
    "log_sin_pi",
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
    n = round(z.real)
    return n <= 0 and abs(z - n) < margin


def _dist_to_int(z: complex) -> float:
    return abs(z - round(z.real))


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

    @classmethod
    def from_complex(cls, z: complex) -> "LogC":
        z = complex(z)
        if z == 0:
            return cls(-math.inf, 0.0)
        return cls(math.log(abs(z)), cmath.phase(z))

    @classmethod
    def from_real(cls, x: float) -> "LogC":
        if x <= 0:
            raise ValueError("need a positive real value")
        return cls(math.log(x), 0.0)

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


def combine_exponentials(terms: Sequence[LogC], coefs: Sequence[complex] = None):
    """Log of sum(coef_i * exp(term_i)), rescaled by the largest magnitude.

    Returns (LogC of the combination, cancellation ratio), where the ratio is
    |combination| / max |contribution| after rescaling.  A tiny ratio means
    the combination lost that many digits to cancellation.
    """
    if coefs is None:
        coefs = [1.0] * len(terms)
    if len(coefs) != len(terms) or not terms:
        raise ValueError("need one coefficient per term")
    mags = [
        t.log_mag + (math.log(abs(c)) if c != 0 else -math.inf)
        for t, c in zip(terms, coefs)
    ]
    r = max(mags)
    if r == -math.inf:
        return LogC(-math.inf, 0.0), 1.0
    contribs = [
        c * cmath.exp(complex(t.log_mag - r, t.phase)) for t, c in zip(terms, coefs)
    ]
    s = sum(contribs)
    biggest = max(abs(v) for v in contribs)
    ratio = abs(s) / biggest if biggest > 0 else 1.0
    if s == 0:
        return LogC(-math.inf, 0.0), 0.0
    return LogC(r + math.log(abs(s)), cmath.phase(s)), ratio


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

# at |z| > 10 the twelve-term series above truncates at about 2e-22; a
# larger radius only adds rounding, one log per recursion step
_SHIFT_RADIUS = 10.0


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
    if z.imag < 0:
        return _log_sin_pi_c(z.conjugate()).conjugate()
    # sin(pi z) = exp(-i pi z) (exp(2 pi i z) - 1) / (2 i); the extracted
    # exponential dominates for large Im z, so nothing overflows
    return -1j * math.pi * z + cmath.log(_expm1_2pii(z)) - _LOG_TWO_I


def log_sin_pi(z: complex, margin: float = SIN_MARGIN) -> LogC:
    """log sin(pi z) with the dominant exponential factored out.

    Safe for |Im z| up to 1e4 and beyond.  Rejects z closer than `margin`
    to an integer (callers that have already margin-checked may pass the
    hard pole margin explicitly).
    """
    z = complex(z)
    d = _dist_to_int(z)
    if d < _POLE_MARGIN:
        raise DegeneratePointError(f"sin(pi z) vanishes at z = {z}")
    if d < margin:
        raise DegeneratePointError(
            f"z = {z} within {margin} of an integer; sine margin violated"
        )
    return _logc_from_log(_log_sin_pi_c(z))


def _stirling_log_gamma(z: complex) -> complex:
    w = (z - 0.5) * cmath.log(z) - z + _HALF_LOG_TWO_PI
    zi = 1.0 / z
    z2 = zi * zi
    p = zi
    for c in _STIRLING:
        w += c * p
        p *= z2
    return w


def _lgamma_c(z: complex) -> complex:
    if _near_nonpos_int(z, _POLE_MARGIN):
        raise GammaPoleError(f"gamma pole at z = {z}")
    if z.real < 0.5:
        return _LOG_PI - _log_sin_pi_c(z) - _lgamma_c(1.0 - z)
    shift = 0j
    while abs(z) <= _SHIFT_RADIUS:
        shift += cmath.log(z)
        z = z + 1.0
    return _stirling_log_gamma(z) - shift


def lgamma(z: complex) -> LogC:
    """log Gamma(z) by upward recursion into |z| > 10 plus the asymptotic
    series, with reflection through log_sin_pi for Re z < 1/2."""
    return _logc_from_log(_lgamma_c(complex(z)))


def _lgamma_sum(args) -> LogC:
    total = 0j
    for z in args:
        total += _lgamma_c(complex(z))
    return _logc_from_log(total)


# ---------------------------------------------------------------------------
# the convergence exponent
# ---------------------------------------------------------------------------


def series_sigma(nums: Sequence[complex], dens: Sequence[complex]) -> complex:
    """Parameter-sum difference controlling unit-argument convergence."""
    return sum(complex(b) for b in dens) - sum(complex(a) for a in nums)


# ---------------------------------------------------------------------------
# the summation engine
# ---------------------------------------------------------------------------


# the relative accuracy every series sum aims at, and the most terms one sum
# may take; sum_pfq reads both when it is called
REL_TOL = 1e-12
N_MAX = 1 << 20
# terms kept of the tail's asymptotic expansion in 1/N
_TAIL_TERMS = 20


# column k of the composition S(x) -> S(x / (1 + x)), k = 1 .. K-1: the
# coefficients (-1)^j C(k - 1 + j, j) of x^(k+j) in (x / (1 + x))^k, to x^K
_COMPOSE = [
    [(-1) ** j * math.comb(k - 1 + j, j) for j in range(_TAIL_TERMS + 1 - k)]
    for k in range(1, _TAIL_TERMS)
]


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    err_estimate: float
    converged: bool


def _direct_sum(nums, all_dens, n: int):
    """(t_0 + ... + t_(n-1), |t_0| + ... + |t_(n-1)|, t_n) with t_0 = 1, from
    the term ratios in one vectorized pass, one complex division per term."""
    ks = np.arange(n, dtype=complex)
    num = ks + nums[0]
    den = ks + all_dens[0]
    tmp = np.empty_like(ks)
    for a in nums[1:]:
        num *= np.add(ks, a, out=tmp)
    for b in all_dens[1:]:
        den *= np.add(ks, b, out=tmp)
    num /= den
    terms = np.cumprod(num, out=num)
    head = terms[:-1]
    return 1.0 + complex(head.sum()), 1.0 + float(np.abs(head).sum()), complex(terms[-1])


def _tail(nums, dens, sigma: complex, n: int, t_n: complex):
    """(R_n, size of its last two expansion terms) for R_n = sum of t_k, k >= n.

    R_n = t_n n S(x) with S(x) = c_0 + c_1 x + c_2 x^2 + ... and x = 1/n.
    Put into R_n - R_(n+1) = t_n, this reads S(x) - u(x) S(x / (1 + x)) = x
    with u(x) = prod(1 + a x) / prod(1 + b x) over the numerators and the
    denominators.  As u = 1 - sigma x + ..., order m of that identity fixes
    c_(m-1) through the factor sigma + m - 1.
    """
    u = [1.0 + 0j] + [0j] * _TAIL_TERMS
    for j, a in enumerate(nums, start=1):
        for i in range(min(j, _TAIL_TERMS), 0, -1):
            u[i] += a * u[i - 1]
    for b in dens:
        for i in range(1, _TAIL_TERMS + 1):
            u[i] -= b * u[i - 1]
    # v: the coefficients of S(x / (1 + x)) from the c_k found so far
    c = 1 / sigma
    cs = [c]
    v = [c] + [0j] * _TAIL_TERMS
    for k, column in enumerate(_COMPOSE, start=1):
        # order k + 1 of the identity, with c_k still out of v
        c = sum(map(operator.mul, u[: k + 2], reversed(v[: k + 2]))) / (sigma + k)
        cs.append(c)
        for i, w in enumerate(column, start=k):
            v[i] += w * c
    x = 1.0 / n
    terms = [t_n * n * c * x**k for k, c in enumerate(cs)]
    return sum(terms), abs(terms[-2]) + abs(terms[-1])


def sum_pfq(nums: Sequence[complex], dens: Sequence[complex]) -> SeriesResult:
    """Unit-argument series with one more numerator than denominator parameter.

    Sums the first N terms t_0 = 1, t_1, ... directly and adds the tail's
    asymptotic expansion R_N = t_N N sum_(k<K) c_k N^-k with K = 20 (J.
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
    converged means err_estimate <= REL_TOL * |value|.

    A numerator at a non-positive integer ends the series, whose at most
    N_MAX terms are summed directly.
    """
    nums = [complex(a) for a in nums]
    dens = [complex(b) for b in dens]
    if len(nums) != len(dens) + 1:
        raise ValueError("need one more numerator than denominator parameters")
    for b in dens:
        if _near_nonpos_int(b, _POLE_MARGIN):
            raise DegeneratePointError(f"denominator parameter {b} at a pole")

    all_dens = dens + [1.0 + 0j]
    ends = [1 - round(a.real) for a in nums if _near_nonpos_int(a, _POLE_MARGIN)]
    if ends:
        n = min(ends)
        if n > N_MAX:
            raise EvaluationDomainError(f"a series of {n} terms is too long to sum")
        return SeriesResult(_direct_sum(nums, all_dens, n)[0], n, 0.0, True)

    sigma = series_sigma(nums, dens)
    if sigma.real <= 0:
        raise DivergentSeriesError(
            f"parameter sums give convergence exponent {sigma}; series diverges"
        )

    want = max(32, 4 * max(abs(p) for p in nums + dens))
    if want > N_MAX:
        raise EvaluationDomainError(f"a parameter is too large to sum within {N_MAX} terms")
    n = 1 << math.ceil(math.log2(want))
    head, abs_head, t_n = _direct_sum(nums, all_dens, n)
    tail, truncation = _tail(nums, dens, sigma, n, t_n)
    value = head + tail
    err = truncation + math.sqrt(n) * math.ulp(1.0) * (abs_head + abs(tail))
    return SeriesResult(value, n, err, err <= REL_TOL * abs(value))


# ---------------------------------------------------------------------------
# the unit-shift hyperplane and the point types
# ---------------------------------------------------------------------------


def _check_saalschutz_args(args7):
    A, B, C, D, E, F, G = args7
    if abs((E + F + G) - (A + B + C + D) - 1.0) > 1e-9:
        raise EvaluationDomainError("parameters leave the unit-shift hyperplane")


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


def _seven(x):
    if isinstance(x, PointV):
        return x.args()
    args = tuple(complex(z) for z in x)
    if len(args) != 7:
        raise ValueError("need seven parameter values")
    return args


def _eight(w):
    if isinstance(w, PointW):
        return w.args()
    args = tuple(complex(z) for z in w)
    if len(args) != 8:
        raise ValueError("need eight parameter values")
    return args


# ---------------------------------------------------------------------------
# the arguments each evaluation holds to its margins
# ---------------------------------------------------------------------------


def j_probe_args(args7):
    """(gamma arguments, sine arguments) whose margins the J evaluation needs."""
    A, B, C, D, E, F, G = args7
    gammas = (
        A, B, C, D, E, F, G,
        1 + A - E, 1 + A - F, 1 + A - G,
        1 + A - B, 1 + A - C, 1 + A - D,
    )
    return gammas, (A,)


def l_probe_args(args7):
    A, B, C, D, E, F, G = args7
    gammas = (
        A, B, C, D, E, F, G,
        1 - E + A, 1 - E + B, 1 - E + C, 1 - E + D,
        2 - E, 1 + F - E, 1 + G - E,
    )
    return gammas, (E,)


def l7f6_probe_args(args7):
    A, B, C, D, E, F, G = args7
    a = D + G - E
    b, c, d, e, f = G - A, G - B, G - C, D, 1 + D - E
    gammas = (
        1 + a, 0.5 * a,
        1 + a - b, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a - f,
        2 + 2 * a - b - c - d - e - f,
    )
    return gammas, ()


def m_probe_args(args8):
    a, b, c, d, e, f, g, h = args8
    rest = (c, d, e, f, g, h)
    gammas = [b, *rest]
    gammas += [b - a + t for t in rest]
    gammas += [1 + a, 0.5 * a]
    gammas += [1 + a - t for t in (b, *rest)]
    ap = 2 * b - a
    gammas += [1 + ap, 0.5 * ap, 1 + b - a]
    gammas += [1 + b - t for t in rest]
    return tuple(gammas), (b - a,)


def require_margins(gammas, sins):
    """Raise unless every argument is finite, every gamma argument clears
    GAMMA_MARGIN from a pole and every sine argument clears SIN_MARGIN from
    an integer."""
    for z in (*gammas, *sins):
        if not cmath.isfinite(z):
            raise EvaluationDomainError(f"non-finite argument {complex(z)}")
    for z in gammas:
        if _near_nonpos_int(complex(z), GAMMA_MARGIN):
            raise DegeneratePointError(
                f"gamma argument {complex(z)} within {GAMMA_MARGIN} of a pole"
            )
    for z in sins:
        if _dist_to_int(complex(z)) < SIN_MARGIN:
            raise DegeneratePointError(
                f"sine argument {complex(z)} within {SIN_MARGIN} of an integer"
            )


def margins_ok(gammas, sins) -> bool:
    """require_margins as a verdict; outside the tests only gen_point's probe
    screening, which bench/ uses, reads it."""
    try:
        require_margins(gammas, sins)
    except EvaluationDomainError:
        return False
    return True


# ---------------------------------------------------------------------------
# the three function families
# ---------------------------------------------------------------------------


def _warn_if_unconverged(res: SeriesResult, what: str, stacklevel: int):
    if not res.converged:
        warnings.warn(
            f"{what}: series summed {res.terms_used} terms and its tail with "
            f"error estimate {res.err_estimate:.1e}, short of its tolerance",
            PrecisionWarning,
            stacklevel=stacklevel,
        )


# the prefactor of a half that has none
_NO_PREFACTOR = LogC(0.0, 0.0)


def _two_series_log(what: str, sine_arg: complex, halves, coefs) -> LogC:
    """Log of (coefs[0] half0 + coefs[1] half1) / sin(pi sine_arg).

    Each half is (prefactor, numerators, denominators, gamma denominators):
    the log prefactor times the unit-argument series over the product of
    Gamma at the gamma denominators.  Warns when a series falls short of its
    tolerance or the two halves cancel to fewer than nine digits.
    """
    results = [sum_pfq(nums, dens) for _, nums, dens, _ in halves]
    for which, res, (_, nums, dens, _) in zip(("first", "second"), results, halves):
        _warn_if_unconverged(res, f"{what} evaluation, {which} {len(nums)}F{len(dens)}", 4)
    sin = log_sin_pi(sine_arg)
    terms = [
        pref + LogC.from_complex(res.value) - sin - _lgamma_sum(gamma_dens)
        for (pref, _, _, gamma_dens), res in zip(halves, results)
    ]
    combo, ratio = combine_exponentials(terms, coefs)
    if ratio < 1e-9:
        warnings.warn(
            f"{what} evaluation: terms cancel to {ratio:.1e} of their size; "
            "fewer than 9 significant digits remain",
            PrecisionWarning,
            stacklevel=3,
        )
    return combo


def eval_J_log(x) -> LogC:
    """Log of the sum-of-complementary-series function J(A;B,C,D;E,F,G).

    J = (Gamma[A,B,C,D / E,F,G] 4F3(A,B,C,D; E,F,G)
         + Gamma[A,1+A-E,1+A-F,1+A-G / 1+A-B,1+A-C,1+A-D]
           4F3(A,1+A-E,1+A-F,1+A-G; 1+A-B,1+A-C,1+A-D))
        / (sin(pi A) Gamma[A,B,C,D,A,1+A-E,1+A-F,1+A-G]);
    each term is assembled with the gamma factors it shares with the
    denominator already cancelled.
    """
    A, B, C, D, E, F, G = _seven(x)
    require_margins(*j_probe_args((A, B, C, D, E, F, G)))
    _check_saalschutz_args((A, B, C, D, E, F, G))
    shifted = (1 + A - E, 1 + A - F, 1 + A - G)
    poised = (1 + A - B, 1 + A - C, 1 + A - D)
    return _two_series_log("J", A, (
        (_NO_PREFACTOR, (A, B, C, D), (E, F, G), (E, F, G, A) + shifted),
        (_NO_PREFACTOR, (A,) + shifted, poised, poised + (A, B, C, D)),
    ), (1.0, 1.0))


def eval_L_log(args) -> LogC:
    """Log of the difference-of-supplementary-series function L(A,B,C,D;E;F,G)."""
    A, B, C, D, E, F, G = _seven(args)
    require_margins(*l_probe_args((A, B, C, D, E, F, G)))
    _check_saalschutz_args((A, B, C, D, E, F, G))
    shifted = (1 + A - E, 1 + B - E, 1 + C - E, 1 + D - E)
    dens = (2 - E, 1 + F - E, 1 + G - E)
    return _two_series_log("L", E, (
        (_NO_PREFACTOR, (A, B, C, D), (E, F, G), (E, F, G) + shifted),
        (_NO_PREFACTOR, shifted, dens, dens + (A, B, C, D)),
    ), (1.0, -1.0))


def eval_L_7f6_log(args) -> LogC:
    """Log of the very-well-poised 7F6 route to the same function."""
    A, B, C, D, E, F, G = _seven(args)
    if (F - D).real <= 0:
        raise DegeneratePointError(
            "the 7F6 route needs Re(F - D) > 0; "
            f"got {(F - D).real}"
        )
    a = D + G - E
    b, c, d, e, f = G - A, G - B, G - C, D, 1 + D - E
    require_margins(*l7f6_probe_args((A, B, C, D, E, F, G)))
    _check_saalschutz_args((A, B, C, D, E, F, G))
    nums = (a, 1 + 0.5 * a, b, c, d, e, f)
    dens = (0.5 * a, 1 + a - b, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a - f)
    res = sum_pfq(nums, dens)
    _warn_if_unconverged(res, "L evaluation by the 7F6 route", 3)
    pref = (
        lgamma(1 + a)
        - LogC.from_real(math.pi)
        - _lgamma_sum(
            (1 + a - b, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a - f,
             2 + 2 * a - b - c - d - e - f)
        )
    )
    return pref + LogC.from_complex(res.value)


def _vwp_half(head: complex, params, gamma_dens):
    # (pi/2) Gamma[1+head / 1+head-params] times a very-well-poised 9F8(1);
    # the Gamma[params] of the full half cancel against the denominator of M
    nums = (head, 1 + 0.5 * head) + params
    dens = (0.5 * head,) + tuple(1 + head - p for p in params)
    pref = LogC.from_real(0.5 * math.pi) + lgamma(1 + head) - _lgamma_sum(dens[1:])
    return pref, nums, dens, gamma_dens


def eval_M_log(w) -> LogC:
    """Log of the eight-parameter function M(a;b;c,d,e,f,g,h).

    M = (V(a; b, c..h) - V(2b-a; b, b-a+c..b-a+h))
        / (sin(pi(b-a)) Gamma[b, c..h, b-a+c..b-a+h]),
    with V(head; params) = (pi/2) Gamma[1+head, params / 1+head-params]
    times a very-well-poised 9F8(1).  Each half is assembled in log space
    with the Gamma[params] it shares with the denominator cancelled, so it
    divides only by the sine and the other half's six gamma factors; the two
    halves meet in one rescaled subtraction, with a warning if more than
    nine digits cancel or a series falls short of its tolerance.
    """
    a, b, c, d, e, f, g, h = _eight(w)
    if abs((2 + 3 * a) - (b + c + d + e + f + g + h)) > 1e-9:
        raise EvaluationDomainError("parameters leave the defining hyperplane")
    require_margins(*m_probe_args((a, b, c, d, e, f, g, h)))
    rest = (c, d, e, f, g, h)
    moved = tuple(b - a + t for t in rest)
    return _two_series_log("M", b - a, (
        _vwp_half(a, (b,) + rest, moved),
        _vwp_half(2 * b - a, (b,) + moved, rest),
    ), (1.0, -1.0))

