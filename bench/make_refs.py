"""Recompute bench/refs.json: the stored points and their mpmath values.

    python3 bench/make_refs.py            # about twenty seconds on one core

The points are drawn with hyperweyl's own ``gen_point`` and margin probes,
so that they lie in the evaluators' domain; the values come from mpmath
alone (``oracle.py``), at ``DPS`` significant digits.  The seeds are fixed
here.  Keeping the points as data, not redrawing them per run, keeps the
benchmark's heavy work the same whatever the run seed, and keeps it the same
when a later change alters how points are drawn.
"""

import json
import random
import sys
import time
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from hyperweyl import correspond, hypnum  # noqa: E402

DPS = 20
V_SEED = 1812
V_POINTS = 40
W_SEED = 11676


def _mp(z: complex):
    return mp.mpc(z.real, z.imag)


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _form_value(form, values):
    # exact rational coefficients, applied in mpmath arithmetic
    out = mp.mpf(form.const.numerator) / form.const.denominator
    for c, v in zip(form.coefs, values):
        if c:
            out += mp.mpf(c.numerator) / c.denominator * v
    return out


def v_pool():
    """Seven-slot points admissible for both J and L, with both values."""
    rng = random.Random(V_SEED)

    def probe(p):
        g1, s1 = hypnum.j_probe_args(p.args())
        g2, s2 = hypnum.l_probe_args(p.args())
        return tuple(g1) + tuple(g2), tuple(s1) + tuple(s2)

    out = []
    for _ in range(V_POINTS):
        p = correspond.gen_point(rng, "V", probe)
        coords = [_mp(z) for z in (p.A, p.B, p.C, p.D, p.E, p.F)]
        A, B, C, D, E, F = coords
        args = (A, B, C, D, E, F, 1 + A + B + C + D - E - F)
        out.append(
            {
                "coords": [_pair(z) for z in (p.A, p.B, p.C, p.D, p.E, p.F)],
                "J": _pair(oracle.J(*args)),
                "L": _pair(oracle.L(*args)),
            }
        )
        print(f"V point {len(out)}/{V_POINTS}", file=sys.stderr, flush=True)
    return out


def row_probe(row):
    """Margin probe for a coset row's point: both representatives at the
    point and everything the shifted limit values touch."""
    twin = correspond.bfs_m_args(row.label)

    def probe(q):
        vals = q.args()
        g1, s1 = hypnum.m_probe_args([f.evaluate(vals) for f in row.m_args])
        g2, s2 = hypnum.m_probe_args([f.evaluate(vals) for f in twin])
        g3, s3 = correspond.limit_probe_args(row.label, q, workloads.SHIFTS)
        return tuple(g1) + tuple(g2) + tuple(g3), tuple(s1) + tuple(s2) + tuple(s3)

    return probe


def w_rows():
    """One eight-slot point per coset row, admissible for both of the row's
    representatives and its shifted limit values, with the row's M there."""
    rng = random.Random(W_SEED)
    out = []
    for row in correspond.appendix_table():
        p = correspond.gen_point(rng, "W", row_probe(row))
        coords = [_mp(z) for z in (p.a, p.b, p.c, p.d, p.e, p.f, p.g)]
        coords.append(2 + 3 * coords[0] - sum(coords[1:]))
        args = [_form_value(f, coords) for f in row.m_args]
        out.append(
            {
                "row": str(row.label),
                "coords": [_pair(z) for z in (p.a, p.b, p.c, p.d, p.e, p.f, p.g)],
                "M": _pair(oracle.M(*args)),
            }
        )
        print(f"W row {len(out)}/56", file=sys.stderr, flush=True)
    return out


def _dump(refs) -> str:
    # one stored point per line
    parts = []
    for key, val in refs.items():
        if isinstance(val, list):
            body = ",\n".join("  " + json.dumps(e) for e in val)
            parts.append(f' "{key}": [\n{body}\n ]')
        else:
            parts.append(f' "{key}": {json.dumps(val)}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main():
    mp.mp.dps = DPS
    t0 = time.perf_counter()
    refs = {
        "dps": DPS,
        "v_seed": V_SEED,
        "v_points": v_pool(),
        "w_seed": W_SEED,
        "w_rows": w_rows(),
    }
    (HERE / "refs.json").write_text(_dump(refs))
    print(f"wrote refs.json in {time.perf_counter() - t0:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
