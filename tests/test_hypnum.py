"""Numerics layer: log-gamma, log-sine, the series engine, and the three
function families with their symmetry groups.

Reference values marked as frozen were computed once with mpmath at 35
digits (log-gamma/gamma ratios directly; unit-argument series through
Richardson-extrapolated partial sums, cross-checked against mpmath.hyper
and against a 50-digit re-run) and pasted here as literals.
"""

import cmath
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hyperweyl import hypnum
from hyperweyl.exactalg import (
    LinForm,
    SUBGROUP_GENERATORS,
    V_SYMBOLS,
    W_SYMBOLS,
    generator,
)
from hyperweyl.hypnum import (
    DegeneratePointError,
    DivergentSeriesError,
    EvaluationDomainError,
    GammaPoleError,
    LogC,
    PointV,
    PointW,
    PrecisionWarning,
    combine_exponentials,
    eval_J_log,
    eval_L_7f6_log,
    eval_L_log,
    eval_M_log,
    j_probe_args,
    l7f6_probe_args,
    l_probe_args,
    lgamma,
    log_sin_pi,
    m_probe_args,
    margins_ok,
    require_margins,
    series_sigma,
    sum_pfq,
)

# frozen reference values (see module docstring)
LGAMMA_1_2I = complex(-1.8760787864309293412, 0.12964631630978831138)
LOG_SIN_03_40I_MAG = 124.97055896303178423
LOG_SIN_03_40I_PHASE = 0.62831853071795864769
POCH_C_3_15 = complex(5.8158641982837244646, 0.0)
PINNED_4F3 = complex(1.0875719198195207677, 0.0015366262926327931569)
PINNED_J = complex(0.38239832567088425904, 0.065238519690119300821)
PINNED_L = complex(0.20340401175767391872, 0.2824890484936075603)
PINNED_M = complex(0.27197589412488745434, 0.045860246344310993931)
# a very-well-poised 9F8(1) half of M met in the degeneration pipeline, with
# its head and parameters rounded to four places (mpmath.hyper, 30 digits)
SETTLING_9F8_HEAD = complex(0.5124, 0.0706)
SETTLING_9F8_PARAMS = (
    0.641 + 7.7324j, 0.8196 + 0.168j, 0.7996 + 0.1787j, 0.4139 - 0.0606j,
    0.1828 + 0.0806j, 0.1498 - 0.2596j, 0.5305 - 7.6278j,
)
PINNED_SETTLING_9F8 = complex(1.0579779188457552652, -0.025147658618128636752)

# the pinned sample points themselves (sixth / seventh coordinate derived)
V_POINT = PointV(
    complex(0.4396153513140112, 0.19611127480322282),
    complex(0.19904156891971647, -0.16605662123579126),
    complex(0.6019465779244715, 0.2686253654742034),
    complex(0.561682358893999, -0.061991715209531895),
    complex(0.8810040844743361, -0.27205039162934624),
    complex(0.7867747672389437, -0.12623442820099423),
)
W_POINT = PointW(
    complex(0.4619036428078549, 0.03586343164829758),
    complex(0.8393684672189835, -0.02060995794013598),
    complex(0.5062730184498169, 0.05243089730993816),
    complex(0.2477282750839013, 0.007145183425083301),
    complex(0.6039061761734416, 0.1757861235119716),
    complex(0.1752987649833748, -0.11795924242528469),
    complex(0.17253642999347152, 0.1857867206203065),
)


def sample_point_v(seed):
    rng = random.Random(seed)
    while True:
        vals = [complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3)) for _ in range(6)]
        p = PointV(*vals)
        args = p.args()
        if margins_ok(*j_probe_args(args)) and margins_ok(*l_probe_args(args)):
            return p


def sample_point_w(seed):
    rng = random.Random(seed)
    while True:
        vals = [complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3)) for _ in range(7)]
        p = PointW(*vals)
        if margins_ok(*m_probe_args(p.args())):
            return p


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y))


def gamma_ratio(a, y):
    """Gamma(a+y)/Gamma(a), through log-gamma differences."""
    return (lgamma(complex(a) + complex(y)) - lgamma(complex(a))).to_complex()


# ---------------------------------------------------------------------------
# LogC
# ---------------------------------------------------------------------------


def test_logc_roundtrip():
    z = 0.37 - 1.2j
    assert abs(LogC.from_complex(z).to_complex() - z) < 1e-15
    assert LogC.from_complex(0).to_complex() == 0


def test_logc_phase_not_normalized():
    big = LogC(0.0, 10 * math.pi)
    assert abs(big.to_complex() - 1.0) < 1e-12
    total = lgamma(3) + lgamma(4) + lgamma(5)
    assert abs(total.to_complex() - 2 * 6 * 24) < 1e-9


def test_logc_algebra():
    a = LogC.from_complex(2 + 1j)
    b = LogC.from_complex(0.3 - 0.4j)
    assert abs((a + b).to_complex() - (2 + 1j) * (0.3 - 0.4j)) < 1e-14
    assert abs((a - b).to_complex() - (2 + 1j) / (0.3 - 0.4j)) < 1e-14
    assert abs((-a).to_complex() - 1 / (2 + 1j)) < 1e-15


def test_logc_overflow_guard():
    with pytest.raises(OverflowError):
        LogC(800.0, 0.0).to_complex()
    with pytest.raises(ValueError):
        LogC.from_real(-1.0)


def test_combine_exponentials():
    a, b = LogC.from_complex(3 + 0.5j), LogC.from_complex(-1 + 2j)
    out, ratio = combine_exponentials([a, b], [2.0, -1.0])
    assert abs(out.to_complex() - (2 * (3 + 0.5j) - (-1 + 2j))) < 1e-13
    assert 0 < ratio <= 2
    # near-total cancellation reported through the ratio
    c = LogC.from_complex(1.0)
    d = LogC.from_complex(-(1.0 + 1e-11))
    _, ratio = combine_exponentials([c, d], [1.0, 1.0])
    assert ratio < 1e-9


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------


def test_lgamma_classic_values():
    assert abs(lgamma(5).to_complex() - 24.0) < 24 * 1e-13
    assert abs(lgamma(0.5).to_complex() - math.sqrt(math.pi)) < 1e-13


def test_lgamma_matches_real_axis():
    for x in (0.13, 0.77, 3.7, 12.0, 40.5, 97.3):
        assert abs(lgamma(x).as_log() - math.lgamma(x)) < 1e-12 * max(1, abs(math.lgamma(x)))


def test_lgamma_pinned_complex():
    got = lgamma(1 + 2j).as_log()
    assert abs(got - LGAMMA_1_2I) < 1e-13


def test_lgamma_poles_rejected():
    for z in (0, -3, -3 + 1e-13j, -17.0):
        with pytest.raises(GammaPoleError):
            lgamma(z)
    # just outside the hard margin is allowed
    lgamma(-3 + 1e-11)


def test_lgamma_reflection_residual():
    rng = random.Random(2024)
    count = 0
    while count < 1000:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z - round(z.real)) < 0.1:
            continue
        count += 1
        lhs = lgamma(z).as_log() + lgamma(1 - z).as_log()
        rhs = math.log(math.pi) - log_sin_pi(z, margin=1e-9).as_log()
        d = lhs - rhs
        k = round(d.imag / (2 * math.pi))
        residual = abs(complex(d.real, d.imag - 2 * math.pi * k))
        assert residual <= 1e-12 * max(1.0, abs(lhs))


def test_lgamma_mpmath_oracle():
    # Gamma itself, not one branch of its log, on |z| <= 13 outside 0.1 of
    # the poles: recursing to |z| > 10 keeps the error near 1.4e-14 here,
    # against 6.5e-14 when recursing to |z| > 40 (rounding over 40 logs) and
    # 1.1e-12 when stopping at |z| > 4 (the Stirling series truncates)
    mp = pytest.importorskip("mpmath")
    rng = random.Random(2024)
    worst = 0.0
    count = 0
    while count < 400:
        z = complex(rng.uniform(-13, 13), rng.uniform(-13, 13))
        if abs(z) > 13 or (round(z.real) <= 0 and abs(z - round(z.real)) < 0.1):
            continue
        count += 1
        with mp.workdps(30):
            d = complex(mp.mpc(lgamma(z).as_log()) - mp.loggamma(mp.mpc(z)))
        worst = max(worst, abs(cmath.exp(d) - 1))
    assert worst <= 3e-14


def test_lgamma_recursion_residual():
    rng = random.Random(55)
    for _ in range(300):
        z = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
        if abs(z - round(z.real)) < 0.1 or abs(z) < 0.1:
            continue
        d = lgamma(z + 1).as_log() - lgamma(z).as_log() - cmath.log(z)
        k = round(d.imag / (2 * math.pi))
        residual = abs(complex(d.real, d.imag - 2 * math.pi * k))
        assert residual <= 1e-13 * max(1.0, abs(lgamma(z + 1).as_log()))


# ---------------------------------------------------------------------------
# log sin(pi z)
# ---------------------------------------------------------------------------


def test_log_sin_pi_exact_points():
    assert abs(log_sin_pi(0.5).as_log()) < 1e-15
    assert abs(log_sin_pi(1 / 6).as_log() - math.log(0.5)) < 1e-14


def test_log_sin_pi_large_imag():
    v = log_sin_pi(0.3 + 40j)
    assert abs(v.log_mag - LOG_SIN_03_40I_MAG) < 1e-12 * LOG_SIN_03_40I_MAG
    assert abs(v.phase - LOG_SIN_03_40I_PHASE) < 1e-12
    # no overflow far beyond double range for the plain sine
    w = log_sin_pi(0.4 + 1e4j)
    assert abs(w.log_mag - (1e4 * math.pi - math.log(2))) < 1e-8 * w.log_mag


def test_log_sin_pi_conjugation():
    z = 0.27 + 3.1j
    a = log_sin_pi(z).as_log()
    b = log_sin_pi(z.conjugate()).as_log()
    assert abs(a.conjugate() - b) < 1e-14 * max(1, abs(a))


def test_log_sin_pi_margins():
    log_sin_pi(0.51)
    with pytest.raises(DegeneratePointError):
        log_sin_pi(1.02)
    # callers that have checked margins themselves may relax the guard
    log_sin_pi(1.02, margin=1e-6)
    with pytest.raises(DegeneratePointError):
        log_sin_pi(3.0, margin=1e-15)


# ---------------------------------------------------------------------------
# rising factorials as gamma ratios
# ---------------------------------------------------------------------------


def test_pochhammer_c_pinned():
    assert abs(gamma_ratio(3, 1.5) - POCH_C_3_15) < 1e-12 * abs(POCH_C_3_15)


def test_pochhammer_c_matches_integer_offsets():
    for a in (0.7 + 0.2j, 2.3 - 1.1j):
        for n in (1, 2, 5):
            rising = math.prod(a + k for k in range(n))
            assert rel(gamma_ratio(a, n), rising) < 1e-12


# ---------------------------------------------------------------------------
# the convergence exponent
# ---------------------------------------------------------------------------


def test_series_sigma_and_saalschutz():
    nums = (0.3, 0.4, 0.5, 0.6)
    dens = (0.9, 1.0, 0.9)
    assert abs(series_sigma(nums, dens) - 1.0) < 1e-15
    assert abs(series_sigma(nums, (0.9, 1.0, 1.2)) - 1.0) > 1e-9
    assert abs(series_sigma(nums[:3], dens[:2]) - 1.0) > 1e-9


def test_sigma_symbolic_on_hyperplanes():
    # both complementary 4F3 lists reduce to exponent 1 on the seven-slot
    # hyperplane, and both nine-parameter lists to exponent 2 on the
    # eight-slot hyperplane
    V = lambda name: LinForm.symbol(V_SYMBOLS, name)
    A, B, C, D, E, F, G = (V(s) for s in V_SYMBOLS)
    one = LinForm.const_form(V_SYMBOLS, 1)
    s1 = (E + F + G) - (A + B + C + D)
    s2 = ((1 + A - B) + (1 + A - C) + (1 + A - D)) - (
        A + (1 + A - E) + (1 + A - F) + (1 + A - G)
    )
    for s in (s1, s2):
        assert s.reduced() == one

    Wf = lambda name: LinForm.symbol(W_SYMBOLS, name)
    a, b, c, d, e, f, g, h = (Wf(s) for s in W_SYMBOLS)
    two = LinForm.const_form(W_SYMBOLS, 2)
    half = Fraction(1, 2)
    for head, params in (
        (a, (b, c, d, e, f, g, h)),
        (2 * b - a, (b, b - a + c, b - a + d, b - a + e, b - a + f, b - a + g, b - a + h)),
    ):
        nums = [head, 1 + half * head] + list(params)
        dens = [half * head] + [1 + head - p for p in params]
        sig = sum(dens[1:], dens[0]) - sum(nums[1:], nums[0])
        assert sig.reduced() == two


# ---------------------------------------------------------------------------
# the series engine
# ---------------------------------------------------------------------------


def test_sum_pfq_terminating():
    r = sum_pfq((-2, 1), (1,))
    assert r.value == 0 and r.converged and r.terms_used == 3
    r = sum_pfq((-1, 1, 1, 1), (2, 2, 2))
    assert abs(r.value - 0.875) < 1e-15
    r = sum_pfq((-3, 0.4 + 0.2j, 0.6, 0.9), (1.2, 0.8, 1.1))
    assert r.terms_used == 4 and r.converged


def test_sum_pfq_pinned_saalschutzian():
    args = V_POINT.args()
    r = sum_pfq(args[:4], args[4:])
    assert rel(r.value, PINNED_4F3) < 1e-11
    assert r.converged
    assert abs(r.value - PINNED_4F3) <= max(10 * r.err_estimate, 1e-12 * abs(PINNED_4F3))


def test_sum_pfq_error_preconditions():
    with pytest.raises(DivergentSeriesError):
        sum_pfq((0.5, 0.5), (0.4,))  # exponent 0.4 - 1.0 < 0
    with pytest.raises(DegeneratePointError):
        sum_pfq((0.5, 0.5), (-2.0,))
    with pytest.raises(ValueError):
        sum_pfq((0.5, 0.5, 0.5), (0.4,))


def test_sum_pfq_nmax_cutoff(monkeypatch):
    # two partial sums (32 and 64 terms) are all the table gets
    with monkeypatch.context() as m:
        m.setattr(hypnum, "N_MAX", 64)
        r = sum_pfq((0.3, 0.5, 0.7, 0.2), (1.1, 0.9, 0.7))
    assert not r.converged
    assert r.terms_used == 64
    assert r.err_estimate > 0
    full = sum_pfq((0.3, 0.5, 0.7, 0.2), (1.1, 0.9, 0.7))
    assert rel(r.value, full.value) < 1e-3
    assert full.converged


def test_sum_pfq_tolerance_consistency(monkeypatch):
    # a looser tolerance stops the table earlier, inside the reported error
    # bars, and the flag is exactly err_estimate <= REL_TOL * |value|
    nums, dens = (0.3 + 0.1j, 0.5, 0.7 - 0.2j, 0.2), (1.1, 0.9 + 0.05j, 0.7 + 0.05j)
    results = {}
    for tol in (1e-6, 1e-8, 1e-12):
        monkeypatch.setattr(hypnum, "REL_TOL", tol)
        results[tol] = sum_pfq(nums, dens)
    tight = results[1e-12]
    for tol, r in results.items():
        assert r.converged == (r.err_estimate <= tol * abs(r.value))
        assert r.converged
        assert r.terms_used <= tight.terms_used
        assert abs(tight.value - r.value) <= 10 * (tight.err_estimate + r.err_estimate)
    assert results[1e-6].terms_used < tight.terms_used


def test_sum_pfq_one_stall_is_not_the_rounding_floor():
    # the table's differences at 128 and 256 terms read 1.9e-8 and 2.5e-8
    # while the expansion settles, then fall to 2e-16 by 2048 terms
    a = SETTLING_9F8_HEAD
    nums = (a, 1 + a / 2) + SETTLING_9F8_PARAMS
    dens = (a / 2,) + tuple(1 + a - t for t in SETTLING_9F8_PARAMS)
    r = sum_pfq(nums, dens)
    assert r.converged and r.terms_used > 256
    assert rel(r.value, PINNED_SETTLING_9F8) < 1e-13


def _assert_matches_oracle(r, ref):
    assert abs(r.value - ref) <= 1e-12 * abs(ref)
    # the error estimate covers the true error
    assert abs(r.value - ref) <= 10 * r.err_estimate + 1e-15 * abs(ref)
    assert r.converged


@pytest.mark.parametrize("sigma", [1.0, 0.5, 0.1, 0.05 + 0.3j])
def test_sum_pfq_gauss_oracle(sigma):
    # 2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))
    mp = pytest.importorskip("mpmath")
    a, b = 0.3 + 0.1j, 0.45 - 0.2j
    c = a + b + sigma
    with mp.workdps(30):
        A, B, C = mp.mpc(a), mp.mpc(b), mp.mpc(c)
        ref = complex(mp.gammaprod([C, C - A - B], [C - A, C - B]))
    _assert_matches_oracle(sum_pfq((a, b), (c,)), ref)


@pytest.mark.parametrize("sigma", [0.6, 0.3 + 0.2j, 0.16])
def test_sum_pfq_dougall_oracle(sigma):
    # Dougall's very-well-poised
    # 5F4(a, 1+a/2, b, c, d; a/2, 1+a-b, 1+a-c, 1+a-d; 1), whose exponent
    # is 2(1 + a - b - c - d)
    mp = pytest.importorskip("mpmath")
    a, b, c = 0.7 + 0.1j, 0.35 - 0.05j, 0.25 + 0.15j
    d = 1 + a - b - c - sigma / 2
    nums = (a, 1 + a / 2, b, c, d)
    dens = (a / 2, 1 + a - b, 1 + a - c, 1 + a - d)
    assert abs(series_sigma(nums, dens) - sigma) < 1e-14
    with mp.workdps(30):
        A, B, C, D = (mp.mpc(z) for z in (a, b, c, d))
        ref = complex(mp.gammaprod(
            [1 + A - B, 1 + A - C, 1 + A - D, 1 + A - B - C - D],
            [1 + A, 1 + A - B - C, 1 + A - B - D, 1 + A - C - D],
        ))
    _assert_matches_oracle(sum_pfq(nums, dens), ref)


def test_sum_pfq_shifted_9f8_oracle():
    # the head = a half of M at the pinned point with b shifted by 32i, as a
    # limit check evaluates it; mpmath.hyper takes about 0.4 s here at 20
    # digits and over 5 s at 30, and 20 digits leave 8 to spare
    mp = pytest.importorskip("mpmath")
    p = W_POINT
    a, *params = PointW(p.a, p.b + 32j, p.c, p.d, p.e, p.f, p.g).args()
    nums = [a, 1 + a / 2] + params
    dens = [a / 2] + [1 + a - t for t in params]
    with mp.workdps(20):
        ref = complex(mp.hyper([mp.mpc(z) for z in nums], [mp.mpc(z) for z in dens], 1))
    _assert_matches_oracle(sum_pfq(nums, dens), ref)


def _partial_sums_per_factor(nums, all_dens, n0, n_max):
    # reference: the term ratios with one multiplication per numerator and
    # one division per denominator parameter
    total = last = 1.0 + 0j
    count = 1
    n = n0
    while n <= n_max:
        while count < n:
            size = min(hypnum._BLOCK, n - count)
            ks = np.arange(count - 1, count - 1 + size, dtype=float)
            ratios = np.ones(size, dtype=complex)
            for a in nums:
                ratios *= a + ks
            for b in all_dens:
                ratios /= b + ks
            terms = last * np.cumprod(ratios)
            total += complex(np.sum(terms))
            last = complex(terms[-1])
            count += size
        yield n, total
        n *= 2


def _series_shapes():
    A, B, C, D, E, F, G = V_POINT.args()
    a7 = D + G - E
    b, c, d, e, f = G - A, G - B, G - C, D, 1 + D - E
    p = W_POINT
    a9, *params = PointW(p.a, p.b + 32j, p.c, p.d, p.e, p.f, p.g).args()
    return {
        "4F3": ((A, B, C, D), (E, F, G)),
        "7F6": ((a7, 1 + a7 / 2, b, c, d, e, f),
                (a7 / 2, 1 + a7 - b, 1 + a7 - c, 1 + a7 - d, 1 + a7 - e, 1 + a7 - f)),
        "shifted 9F8": ([a9, 1 + a9 / 2] + params, [a9 / 2] + [1 + a9 - t for t in params]),
    }


@pytest.mark.parametrize("shape", ["4F3", "7F6", "shifted 9F8"])
def test_partial_sums_match_per_factor_ratios(shape):
    nums, dens = _series_shapes()[shape]
    nums = [complex(z) for z in nums]
    all_dens = [complex(z) for z in dens] + [1.0 + 0j]
    n0 = hypnum._start_length(nums + all_dens[:-1], 1 << 20)
    got = list(hypnum._partial_sums(nums, all_dens, n0, 1 << 17))
    ref = list(_partial_sums_per_factor(nums, all_dens, n0, 1 << 17))
    assert [n for n, _ in got] == [n for n, _ in ref]
    assert len(got) >= 3
    for (_, x), (_, y) in zip(got, ref):
        assert rel(x, y) <= 1e-13


# ---------------------------------------------------------------------------
# the Saalschutzian 4F3
# ---------------------------------------------------------------------------


def test_f43_star_terminating_series_identity():
    # with the first slot at -1 the series factor collapses to two terms
    B, C, D = 0.31 + 0.05j, 0.62, 0.44 - 0.1j
    E, F = 1.2, 0.8 + 0.1j
    G = B + C + D - E - F  # keeps the unit-shift identity with A = -1
    r = sum_pfq((-1, B, C, D), (E, F, G))
    assert abs(r.value - (1 - B * C * D / (E * F * G))) < 1e-14


def test_f43_star_symmetry():
    args = V_POINT.args()
    A, B, C, D, E, F, G = args
    base = sum_pfq(args[:4], args[4:]).value
    for perm in ((B, A, C, D, E, F, G), (D, C, B, A, E, F, G), (A, B, C, D, G, E, F)):
        assert rel(sum_pfq(perm[:4], perm[4:]).value, base) < 1e-12


def test_f43_star_requires_balance():
    with pytest.raises(EvaluationDomainError, match="unit-shift hyperplane"):
        eval_J_log((0.3, 0.4, 0.5, 0.6, 0.9, 1.0, 1.2))


# ---------------------------------------------------------------------------
# point types and probes
# ---------------------------------------------------------------------------


def test_point_w_derived_slot():
    p = W_POINT
    assert abs((2 + 3 * p.a) - (p.b + p.c + p.d + p.e + p.f + p.g + p.h)) < 1e-12
    data = {k: [0.2 * (i + 1), 0.01] for i, k in enumerate("abcdefg")}
    q = PointW.from_mapping(data)
    assert q.b == complex(0.4, 0.01)
    with pytest.raises(ValueError):
        PointW.from_mapping({**data, "h": [1.0, 0.0]})


def test_point_v_derived_slot():
    p = V_POINT
    A, B, C, D, E, F, G = p.args()
    assert abs((E + F + G) - (A + B + C + D) - 1) < 1e-12
    data = {k: [0.125 * (i + 2), -0.02] for i, k in enumerate("ABCDEF")}
    q = PointV.from_mapping(data)
    assert q.E == complex(0.75, -0.02)
    with pytest.raises(ValueError):
        PointV.from_mapping({**data, "G": [1.0, 0.0]})


def test_margin_checks():
    require_margins((0.5, 1 + 2j), (0.5,))
    with pytest.raises(DegeneratePointError):
        require_margins((-0.05,), ())
    with pytest.raises(DegeneratePointError):
        require_margins((), (2.01,))
    assert not margins_ok((0.02,), ())
    assert margins_ok((0.5,), (0.5,))


def test_probe_lists_cover_shifted_arguments():
    args = V_POINT.args()
    A, E = args[0], args[4]
    gammas, sins = j_probe_args(args)
    assert any(abs(g - (1 + A - E)) < 1e-15 for g in gammas)
    assert sins == (A,)
    gammas, sins = l_probe_args(args)
    assert any(abs(g - (2 - E)) < 1e-15 for g in gammas)
    assert sins == (E,)
    wargs = W_POINT.args()
    gammas, sins = m_probe_args(wargs)
    assert any(abs(g - (wargs[1] - wargs[0] + wargs[2])) < 1e-15 for g in gammas)
    assert abs(sins[0] - (wargs[1] - wargs[0])) < 1e-15


def test_evaluators_warn_on_unconverged_series(monkeypatch):
    for fn, x in (
        (eval_J_log, V_POINT),
        (eval_L_log, V_POINT),
        (eval_L_7f6_log, V_POINT),
        (eval_M_log, W_POINT),
    ):
        with monkeypatch.context() as m, pytest.warns(
            PrecisionWarning, match="stopped after 64 terms"
        ):
            m.setattr(hypnum, "N_MAX", 64)
            fn(x)
        # with the default budget the same evaluations are silent
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)
            fn(x)


def test_evaluators_match_mpmath_formulas():
    # J and L at the pinned point and M with b shifted by 32i, each written
    # from its defining formula (gamma prefactors, sine/gamma denominator,
    # mpmath.hyper for the series) at 20 digits
    mp = pytest.importorskip("mpmath")

    def gammas(zs):
        return mp.fprod(mp.gamma(z) for z in zs)

    def star(nums, dens):
        return gammas(nums) / gammas(dens) * mp.hyper(nums, dens, 1)

    def vwp_half(head, params):
        dens = [1 + head - t for t in params]
        series = mp.hyper([head, 1 + head / 2] + params, [head / 2] + dens, 1)
        return mp.pi / 2 * mp.gamma(1 + head) * gammas(params) / gammas(dens) * series

    p = W_POINT
    shifted = PointW(p.a, p.b + 32j, p.c, p.d, p.e, p.f, p.g)
    with mp.workdps(20):
        A, B, C, D, E, F, G = (mp.mpc(z) for z in V_POINT.args())
        first = star([A, B, C, D], [E, F, G])
        j_ref = (first + star([A, 1 + A - E, 1 + A - F, 1 + A - G], [1 + A - B, 1 + A - C, 1 + A - D])) / (
            mp.sinpi(A) * gammas([A, B, C, D, A, 1 + A - E, 1 + A - F, 1 + A - G]))
        l_ref = (first - star([1 + A - E, 1 + B - E, 1 + C - E, 1 + D - E], [2 - E, 1 + F - E, 1 + G - E])) / (
            mp.sinpi(E) * gammas([A, B, C, D, 1 - E + A, 1 - E + B, 1 - E + C, 1 - E + D]))
        a, b, *rest = (mp.mpc(z) for z in shifted.args())
        moved = [b - a + t for t in rest]
        m_ref = (vwp_half(a, [b] + rest) - vwp_half(2 * b - a, [b] + moved)) / (
            mp.sinpi(b - a) * gammas([b] + rest + moved))
    assert rel(eval_J_log(V_POINT).to_complex(), complex(j_ref)) <= 1e-12
    assert rel(eval_L_log(V_POINT).to_complex(), complex(l_ref)) <= 1e-12
    assert rel(eval_M_log(shifted).to_complex(), complex(m_ref)) <= 1e-12


def test_eval_rejects_degenerate_point():
    # E = 1 + A puts the shifted gamma argument 1 + A - E on a pole
    A = 0.3 + 0.002j
    bad = (A, 0.4, 0.5, 0.6, 1 + A, 0.8, 0.9)
    with pytest.raises(DegeneratePointError):
        eval_J_log(tuple(complex(z) for z in bad))


# ---------------------------------------------------------------------------
# the J family
# ---------------------------------------------------------------------------


def test_eval_j_pinned():
    got = eval_J_log(V_POINT).to_complex()
    assert rel(got, PINNED_J) < 1e-10
    assert rel(eval_J_log(V_POINT.args()).to_complex(), PINNED_J) < 1e-10


def test_eval_j_pair_swap():
    A, B, C, D, E, F, G = V_POINT.args()
    swapped = eval_J_log((A, C, B, D, E, F, G)).to_complex()
    assert rel(swapped, eval_J_log(V_POINT).to_complex()) < 1e-9


def test_eval_j_conjugation():
    got = eval_J_log(tuple(z.conjugate() for z in V_POINT.args())).to_complex()
    assert rel(got, eval_J_log(V_POINT).to_complex().conjugate()) < 1e-12


def test_eval_j_group_invariance():
    gens = SUBGROUP_GENERATORS["G_J"]
    for seed in range(41, 46):
        args = sample_point_v(seed).args()
        base = eval_J_log(args).to_complex()
        for g in gens:
            moved = g.apply_values(args)
            if not margins_ok(*j_probe_args(moved)):
                continue
            assert rel(eval_J_log(moved).to_complex(), base) < 1e-7


# ---------------------------------------------------------------------------
# the L family
# ---------------------------------------------------------------------------


def test_eval_l_pinned():
    assert rel(eval_L_log(V_POINT.args()).to_complex(), PINNED_L) < 1e-10


def test_eval_l_pair_swap():
    A, B, C, D, E, F, G = V_POINT.args()
    swapped = eval_L_log((B, A, C, D, E, F, G)).to_complex()
    assert rel(swapped, eval_L_log(V_POINT.args()).to_complex()) < 1e-9


def test_eval_l_group_invariance():
    gens = SUBGROUP_GENERATORS["G_L"]
    for seed in range(61, 66):
        args = sample_point_v(seed).args()
        base = eval_L_log(args).to_complex()
        for g in gens:
            moved = g.apply_values(args)
            if not margins_ok(*l_probe_args(moved)):
                continue
            assert rel(eval_L_log(moved).to_complex(), base) < 1e-7


def test_eval_l_7f6_agreement():
    checked = 0
    for seed in (7, 101, 102, 103, 104):
        args = sample_point_v(seed).args()
        if (args[5] - args[3]).real <= 0.05:
            continue
        if not margins_ok(*l7f6_probe_args(args)):
            continue
        route = eval_L_7f6_log(args).to_complex()
        assert rel(route, eval_L_log(args).to_complex()) < 1e-7
        checked += 1
        if checked >= 3:
            break
    assert checked >= 2


def test_eval_l_7f6_rejects_wrong_half_plane():
    args = list(V_POINT.args())
    # swapping F and D flips the sign of Re(F - D) at this point
    flipped = (args[0], args[1], args[2], args[5], args[4], args[3], args[6])
    assert (flipped[5] - flipped[3]).real < 0
    with pytest.raises(DegeneratePointError):
        eval_L_7f6_log(tuple(flipped))


def test_eval_l_7f6_rejects_points_off_the_hyperplane():
    # G 0.37 below its derived value, where the 7F6 series still converges:
    # both routes refuse the point
    args = list(V_POINT.args())
    args[6] -= 0.37
    for evaluator in (eval_L_log, eval_L_7f6_log):
        with pytest.raises(EvaluationDomainError, match="unit-shift hyperplane"):
            evaluator(tuple(args))


def test_eval_l_7f6_is_very_well_poised():
    A, B, C, D, E, F, G = V_POINT.args()
    a = D + G - E
    b, c, d, e, f = G - A, G - B, G - C, D, 1 + D - E
    nums = (a, 1 + a / 2, b, c, d, e, f)
    dens = (a / 2, 1 + a - b, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a - f)
    assert abs(nums[1] - (1 + a / 2)) < 1e-12
    assert all(abs(n + d - (1 + a)) < 1e-12 for n, d in zip(nums[1:], dens))
    assert abs(series_sigma(nums, dens) - 2 * (F - D)) < 1e-12


# ---------------------------------------------------------------------------
# the M family
# ---------------------------------------------------------------------------


def test_eval_m_pinned():
    assert rel(eval_M_log(W_POINT).to_complex(), PINNED_M) < 1e-9


def test_eval_m_pair_swap():
    args = W_POINT.args()
    g = generator("w", "s2")
    swapped = eval_M_log(g.apply_values(args)).to_complex()
    assert rel(swapped, eval_M_log(args).to_complex()) < 1e-8


def test_eval_m_conjugation():
    base = eval_M_log(W_POINT).to_complex()
    got = eval_M_log(tuple(z.conjugate() for z in W_POINT.args())).to_complex()
    assert rel(got, base.conjugate()) < 1e-12


def test_eval_m_group_invariance():
    names = ("s2", "s3", "s4", "s5", "s6", "s3'")
    for seed in (11, 31, 51):
        args = sample_point_w(seed).args()
        base = eval_M_log(args).to_complex()
        for name in names:
            moved = generator("w", name).apply_values(args)
            if not margins_ok(*m_probe_args(moved)):
                continue
            assert rel(eval_M_log(moved).to_complex(), base) < 1e-5


def test_eval_m_hyperplane_precondition():
    args = list(W_POINT.args())
    args[7] += 1e-6
    with pytest.raises(EvaluationDomainError):
        eval_M_log(tuple(args))


def test_eval_m_9f8_lists_very_well_poised():
    a, b, c, d, e, f, g, h = W_POINT.args()
    params = (b, c, d, e, f, g, h)
    nums = (a, 1 + a / 2) + params
    dens = (a / 2,) + tuple(1 + a - p for p in params)
    assert abs(nums[1] - (1 + a / 2)) < 1e-12
    assert all(abs(n + d - (1 + a)) < 1e-12 for n, d in zip(nums[1:], dens))
    assert abs(series_sigma(nums, dens) - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# the shifted-ratio limit rate
# ---------------------------------------------------------------------------


def test_pochhammer_ratio_limit_rate():
    for x, y in ((0.37 + 0.11j, 0.83 - 0.21j), (0.6 - 0.05j, 0.25 + 0.3j)):
        devs = []
        for im in (10, 20, 40, 80):
            g = 0.5 + 1j * im
            devs.append(abs(gamma_ratio(g + x, y) / gamma_ratio(g, y) - 1))
        for lo, hi in zip(devs[1:], devs):
            assert 0.4 <= lo / hi <= 0.6
        # deviation * |Im g| stays bounded: the rate really is 1/|Im g|
        products = [d * im for d, im in zip(devs, (10, 20, 40, 80))]
        assert max(products) <= 2 * min(products)
