"""Log-space complex gamma/sine arithmetic and unit-argument series evaluation.

Everything downstream needs quotients of many gamma and sine factors whose
individual magnitudes overflow doubles long before the quotient does, so the
building blocks here work in log space: a value is carried as log-magnitude
plus an unnormalized phase, products are additions, and a single
exponentiation happens at the end.  Log-gamma recurses upward only to
|z| > 10, where twelve Stirling terms already reach double precision.

On top of that sits the summation engine for one-more-numerator
hypergeometric series at unit argument.  Such a series converges like
N^-sigma, with sigma the excess of the denominator over the numerator
parameters, and the tail of its partial sums expands in powers
N^-(sigma+i) with sigma known exactly; so a Richardson table over partial
sums at doubling lengths removes the tail term by term, and a few thousand
terms give near double-precision values.  Terms come from their ratios,
one complex division per term.  The evaluators for the three special
functions of interest sit on the engine: the 44-label pair (a sum and a
difference of two Saalschutzian 4F3(1) series, with a very-well-poised
7F6(1) as a second route to the difference) and the eight-parameter
function built from two very-well-poised 9F8(1) series.  Gamma factors
that a series' prefactor shares with the function's denominator are
cancelled before any is computed.  Each evaluator issues a
PrecisionWarning when one of its series falls short of its tolerance, or
when its two halves cancel to fewer than nine digits.
"""

from __future__ import annotations

import cmath
import math
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

_N0_MIN = 32
_BLOCK = 65536


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    err_estimate: float
    converged: bool


def _start_length(params, n_max: int) -> int:
    # the tail expansion in 1/N only settles once N is well past every
    # parameter; keep at least two partial sums under n_max
    want = max(_N0_MIN, 4 * max(abs(p) for p in params))
    n0 = 1 << math.ceil(math.log2(want))
    while 2 * n0 > n_max:
        n0 //= 2
    return n0


def _partial_sums(nums, all_dens, n0: int, n_max: int):
    """Yield (N, sum of the first N terms) for N = n0, 2 n0, 4 n0, ... <= n_max.

    Terms come from the multiplicative recurrence, in vectorized blocks of at
    most _BLOCK terms so that memory stays flat however long the sum runs.
    Each term ratio is the product of the numerator factors over the product
    of the denominator factors, one division per term.  For the 4F3, 7F6 and
    9F8 series of the evaluators each product has at most nine factors, each
    below 2^22 + 50 in modulus, so neither passes 1e60.
    """
    total = last = 1.0 + 0j
    count = 1
    n = n0
    while n <= n_max:
        while count < n:
            size = min(_BLOCK, n - count)
            ks = np.arange(count - 1, count - 1 + size, dtype=complex)
            num = ks + nums[0]
            den = ks + all_dens[0]
            tmp = np.empty_like(ks)
            for a in nums[1:]:
                num *= np.add(ks, a, out=tmp)
            for b in all_dens[1:]:
                den *= np.add(ks, b, out=tmp)
            num /= den
            terms = np.cumprod(num, out=num)
            terms *= last
            total += complex(np.sum(terms))
            last = complex(terms[-1])
            count += size
        yield n, total
        n *= 2


def sum_pfq(nums: Sequence[complex], dens: Sequence[complex]) -> SeriesResult:
    """Unit-argument series with one more numerator than denominator parameter.

    With sigma = sum(dens) - sum(nums), the partial sum of the first N terms
    misses the value by N^-sigma (d0 + d1/N + d2/N^2 + ...), and sigma is
    known exactly.  Partial sums are taken at N = N0, 2 N0, 4 N0, ... and
    fed to a Richardson table whose column i removes the N^-(sigma+i) term
    with the factor 2^(sigma+i).  N0 is a power of two past four times the
    largest parameter modulus (at least 32), where the expansion holds.

    The table grows until two successive diagonal entries agree to REL_TOL,
    until their difference has failed to shrink twice in a row (rounding
    noise, amplified by the table, has taken over; a single failure also
    happens while the expansion is still settling), or until the next
    partial sum would pass N_MAX.  The result is the diagonal entry that
    differed least from its predecessor; that difference is err_estimate,
    and converged means err_estimate <= REL_TOL * |value|.

    A numerator at a non-positive integer ends the series, whose finitely
    many terms are summed directly.
    """
    rel_tol, n_max = REL_TOL, N_MAX
    nums = [complex(a) for a in nums]
    dens = [complex(b) for b in dens]
    if len(nums) != len(dens) + 1:
        raise ValueError("need one more numerator than denominator parameters")
    for b in dens:
        if _near_nonpos_int(b, _POLE_MARGIN):
            raise DegeneratePointError(f"denominator parameter {b} at a pole")

    trunc = None
    for a in nums:
        n = round(a.real)
        if n <= 0 and abs(a - n) < _POLE_MARGIN:
            trunc = -n if trunc is None else min(trunc, -n)
    all_dens = dens + [1.0 + 0j]
    if trunc is not None:
        if trunc + 1 > (1 << 22):
            raise ValueError("terminating index too large to sum")
        _, total = next(_partial_sums(nums, all_dens, trunc + 1, trunc + 1))
        return SeriesResult(total, trunc + 1, 0.0, True)

    sigma = series_sigma(nums, dens)
    if sigma.real <= 0:
        raise DivergentSeriesError(
            f"parameter sums give convergence exponent {sigma}; series diverges"
        )

    n0 = _start_length(nums + dens, n_max)
    prev_row = []
    best = None
    prev_err = math.inf
    stalls = 0
    for big_n, partial in _partial_sums(nums, all_dens, n0, n_max):
        row = [partial]
        for i, r in enumerate(prev_row):
            f = 2.0 ** (sigma + i)
            row.append((f * row[i] - r) / (f - 1.0))
        if prev_row:
            err = abs(row[-1] - prev_row[-1])
            if best is None or err < best[1]:
                best = (row[-1], err)
            stalls = stalls + 1 if err >= prev_err else 0
            if err <= rel_tol * abs(row[-1]) or stalls == 2:
                break
            prev_err = err
        prev_row = row
    value, err = best
    return SeriesResult(value, big_n, err, err <= rel_tol * abs(value))


# ---------------------------------------------------------------------------
# the unit-shift hyperplane and the point types
# ---------------------------------------------------------------------------


def _check_saalschutz_args(args7):
    A, B, C, D, E, F, G = args7
    if abs((E + F + G) - (A + B + C + D) - 1.0) > 1e-9:
        raise EvaluationDomainError("parameters leave the unit-shift hyperplane")


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
        vals = {}
        for k in "abcdefg":
            re, im = data[k]
            vals[k] = complex(re, im)
        if "h" in data:
            raise ValueError("the last coordinate is derived; do not supply it")
        return cls(**vals)


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
        vals = {}
        for k in "ABCDEF":
            re, im = data[k]
            vals[k] = complex(re, im)
        if "G" in data:
            raise ValueError("the last coordinate is derived; do not supply it")
        return cls(**vals)


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
# degeneracy probes
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
    """Raise unless every gamma argument clears GAMMA_MARGIN from a pole and
    every sine argument clears SIN_MARGIN from an integer."""
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
    try:
        require_margins(gammas, sins)
    except DegeneratePointError:
        return False
    return True


# ---------------------------------------------------------------------------
# the three function families
# ---------------------------------------------------------------------------


def _warn_if_unconverged(res: SeriesResult, what: str, stacklevel: int):
    if not res.converged:
        warnings.warn(
            f"{what}: series stopped after {res.terms_used} terms with error "
            f"estimate {res.err_estimate:.1e}, short of its tolerance",
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

