"""M, J and L written from their defining formulas in mpmath.

Each function is the gamma-prefactored combination of two unit-argument
hypergeometric series over a sine/gamma denominator, as documented in
``hyperweyl.hypnum``; the series themselves come from ``mpmath.hyper``.
Nothing here imports hyperweyl, so the values are independent of its
log-space arithmetic and of its summation engine.  Arguments are mpmath
numbers (or anything ``mpmath.mpc`` accepts); set the working precision
with ``mpmath.mp.dps`` before calling.
"""

import mpmath as mp


def _gammas(zs):
    return mp.fprod(mp.gamma(z) for z in zs)


def f43_star(nums, dens):
    """Gamma[nums / dens] * 4F3(nums; dens; 1) for a Saalschutzian 4F3."""
    return _gammas(nums) / _gammas(dens) * mp.hyper(nums, dens, 1)


def J(A, B, C, D, E, F, G):
    """Sum of the two complementary starred 4F3(1) series over
    sin(pi A) Gamma[A, B, C, D, A, 1+A-E, 1+A-F, 1+A-G]."""
    first = f43_star((A, B, C, D), (E, F, G))
    second = f43_star(
        (A, 1 + A - E, 1 + A - F, 1 + A - G), (1 + A - B, 1 + A - C, 1 + A - D)
    )
    den = mp.sinpi(A) * _gammas((A, B, C, D, A, 1 + A - E, 1 + A - F, 1 + A - G))
    return (first + second) / den


def L(A, B, C, D, E, F, G):
    """Difference of the two supplementary starred 4F3(1) series over
    sin(pi E) Gamma[A, B, C, D, 1-E+A, 1-E+B, 1-E+C, 1-E+D]."""
    first = f43_star((A, B, C, D), (E, F, G))
    second = f43_star(
        (1 + A - E, 1 + B - E, 1 + C - E, 1 + D - E), (2 - E, 1 + F - E, 1 + G - E)
    )
    den = mp.sinpi(E) * _gammas((A, B, C, D, 1 - E + A, 1 - E + B, 1 - E + C, 1 - E + D))
    return (first - second) / den


def _vwp_half(head, params):
    # (pi/2) Gamma[1+head, params / 1+head-params] * 9F8(head, 1+head/2, params;
    #                                                     head/2, 1+head-params; 1)
    nums = [head, 1 + head / 2] + list(params)
    dens = [head / 2] + [1 + head - p for p in params]
    pref = mp.pi / 2 * mp.gamma(1 + head) * _gammas(params) / _gammas(dens[1:])
    return pref * mp.hyper(nums, dens, 1)


def M(a, b, c, d, e, f, g, h):
    """Difference of the two very-well-poised 9F8(1) halves over
    sin(pi(b-a)) Gamma[b, c..h, b-a+c .. b-a+h]."""
    rest = (c, d, e, f, g, h)
    moved = tuple(b - a + t for t in rest)
    first = _vwp_half(a, (b,) + rest)
    second = _vwp_half(2 * b - a, (b,) + moved)
    den = mp.sinpi(b - a) * _gammas((b,) + rest + moved)
    return (first - second) / den
