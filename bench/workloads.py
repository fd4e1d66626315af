"""One workload in one fresh interpreter: set up, run timed rounds, report.

    python3 bench/workloads.py --workload series-jl --seed 1 --seconds 15 \
        --t0 <CLOCK_MONOTONIC at spawn> [--trace] [--setup-only]

``bench/run.py`` starts this; it prints one JSON object on its last line.
A round is the workload's fixed list of operations on the inputs its seed
chose; rounds repeat until the next one would end after ``--seconds``, but at
least until the workload's ``min_ops`` operations are in (on the series
workloads, enough for the 90th percentile to have ten samples beyond it).
Every operation is checked as it completes: an operation fails if it raises
or fails its check.  Rounds repeat the same inputs, so caches the program
fills in set-up are warm, but a cache of numeric results across calls would
show up as a speed-up that is not one.
"""

import argparse
import inspect
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SHIFTS = (8.0, 16.0, 32.0)

# correctness bounds, fixed by the benchmark (not read from the program)
ORACLE_REL = 1e-10
ORBIT1JLL_RESIDUAL = 1e-7
COSET_AGREEMENT = 1e-8
ROY463_RESIDUAL = 1e-5
ROY463B_SHIFTED_RESIDUAL = 1e-4

F76_MARGIN = 0.05  # the 7F6 route needs Re(F - D) above this
# stored points at which eval_L_7f6_log misses the oracle by more than
# ORACLE_REL: its sums stop at n_max unconverged and the flag is dropped
KNOWN_7F6_MISSES = frozenset({15, 20, 21, 23, 28, 30, 31, 34})

# Coxeter group orders as products of the invariant degrees
E7_DEGREES = (2, 6, 8, 10, 12, 14, 18)
D6_DEGREES = (2, 4, 6, 6, 8, 10)
# labels per triple space, and the degrees of the group acting on it
TRIPLE_SPACES = {"M": (56, E7_DEGREES), "T": (44, D6_DEGREES)}


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tally:
    """Operation outcomes and latencies over the timed loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.op_ms = []
        self.worst_rel = 0.0

    def op(self, check, fn, *args, may_miss=False):
        """Run one operation and its check; return the value (None on failure).

        ``check(value)`` returns None when the value is right, else a reason.
        ``may_miss`` marks an operation whose check is known to fail because
        of a documented defect of the program; it is still counted as
        failed.  Any other failure, and any operation that raises, makes the
        run incorrect.
        """
        t0 = time.perf_counter()
        raised = False
        try:
            value = fn(*args)
            problem = check(value)
        except Exception as exc:  # an operation that raises has failed
            value, problem, raised = None, f"{type(exc).__name__}: {exc}", True
            # and has no correct digits
            self.worst_rel = max(self.worst_rel, 1.0)
        self.op_ms.append((time.perf_counter() - t0) * 1e3)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            value = None
            if (raised or not may_miss) and len(self.unexpected) < 20:
                self.unexpected.append(f"{getattr(fn, '__name__', fn)}: {problem}")
        return value

    def against(self, ref: complex):
        """Check of a log-space value against an oracle value."""
        def check(logc):
            rel = abs(logc.to_complex() - ref) / abs(ref)
            self.worst_rel = max(self.worst_rel, rel)
            return None if rel <= ORACLE_REL else f"off the oracle by {rel:.2e}"
        return check

    def exact(self, want):
        def check(got):
            rel = abs(got - want) / want
            self.worst_rel = max(self.worst_rel, rel)
            return None if rel == 0 else f"got {got}, want {want}"
        return check


def at_most(bound):
    def check(residual):
        return None if residual <= bound else f"residual {residual:.2e} > {bound:.0e}"
    return check


def accept(_value):
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class SeriesJL:
    """Seven-slot numerics: J, L and the 7F6 route against the oracle at the
    stored points, and orbit1jll with its six generator translations at
    points drawn from the seed.

    J and L run at every stored point in every run: a 4F3 takes anywhere
    from 0.5M to 2M terms, so a seed-chosen subset would move the round time
    by more than any bound worth keeping.
    """

    min_ops = 100

    def __init__(self, seed, refs):
        from hyperweyl import correspond, exactalg, hypnum

        self.hypnum, self.correspond = hypnum, correspond
        pool = [hypnum.PointV(*[complex(*c) for c in e["coords"]]) for e in refs["v_points"]]
        self.j_ref = [complex(*e["J"]) for e in refs["v_points"]]
        self.l_ref = [complex(*e["L"]) for e in refs["v_points"]]
        self.pool = pool
        # the 7F6 route runs on every stored point inside its half-plane,
        # whatever the seed, so its failures are the same in every run
        self.f76 = [
            i for i, p in enumerate(pool)
            if (p.F - p.D).real > F76_MARGIN
            and hypnum.margins_ok(*hypnum.l7f6_probe_args(p.args()))
        ]
        rng = random.Random(seed)
        base = correspond.builtin_relations()["orbit1jll"]
        self.relations = [base] + [
            correspond.translate_relation(base, (g,), "v")
            for g in exactalg.V_GENERATOR_NAMES
        ]
        self.points = [
            correspond.gen_point(rng, "V", lambda q, r=r: correspond.relation_probe_args(r, q))
            for r in self.relations
        ]

    def round(self, tally):
        hypnum, correspond = self.hypnum, self.correspond
        for i in range(len(self.pool)):
            tally.op(tally.against(self.j_ref[i]), hypnum.eval_J_log, self.pool[i])
            tally.op(tally.against(self.l_ref[i]), hypnum.eval_L_log, self.pool[i])
        for i in self.f76:
            tally.op(tally.against(self.l_ref[i]), hypnum.eval_L_7f6_log, self.pool[i],
                     may_miss=i in KNOWN_7F6_MISSES)
        for rel, p in zip(self.relations, self.points):
            tally.op(at_most(ORBIT1JLL_RESIDUAL), correspond.eval_relation, rel, p)


def _shifted(p, t):
    from hyperweyl.hypnum import PointW

    return PointW(p.a, p.b + 1j * t, p.c, p.d, p.e, p.f, p.g)


class SeriesM:
    """Eight-slot numerics at the stored point of every coset row: M on both
    representatives (the first against the oracle) and the normalized
    shifted values; roy463 with six translations and roy463b at shifted
    points, at points drawn from the seed."""

    ROY463_GENERATORS = ("s1", "s2", "s3", "s4", "s5", "s3'")
    min_ops = 100

    def __init__(self, seed, refs):
        from hyperweyl import correspond, hypnum

        self.hypnum, self.correspond = hypnum, correspond
        self.rows = []
        for e in refs["w_rows"]:
            row = correspond.appendix_row(e["row"])
            self.rows.append((
                row.m_args,
                correspond.bfs_m_args(row.label),
                correspond.limit_normalizer(row.label),
                hypnum.PointW(*[complex(*c) for c in e["coords"]]),
                complex(*e["M"]),
            ))
        rng = random.Random(seed)
        rels = correspond.builtin_relations()
        roy = rels["roy463"]
        self.roy = [roy] + [
            correspond.translate_relation(roy, (g,), "w") for g in self.ROY463_GENERATORS
        ]
        self.roy_points = [
            correspond.gen_point(rng, "W", lambda q, r=r: correspond.relation_probe_args(r, q))
            for r in self.roy
        ]
        self.royb = rels["roy463b"]

        def royb_probe(q):
            g, s = [], []
            for t in SHIFTS:
                pg, ps = correspond.relation_probe_args(self.royb, _shifted(q, t))
                g.extend(pg)
                s.extend(ps)
            return g, s

        self.royb_point = correspond.gen_point(rng, "W", royb_probe)

    def _m(self, forms, vals):
        return self.hypnum.eval_M_log([f.evaluate(vals) for f in forms])

    def _normalized(self, forms, norm, vals):
        return (norm.eval_log(vals) + self._m(forms, vals)).to_complex()

    def round(self, tally):
        correspond = self.correspond
        for forms, twin, norm, p, ref in self.rows:
            vals = p.args()
            first = tally.op(tally.against(ref), self._m, forms, vals)

            def agrees(second, first=first):
                if first is None:
                    return "first representative failed"
                gap = abs((second - first).to_complex() - 1.0)
                return None if gap <= COSET_AGREEMENT else f"representatives differ by {gap:.2e}"

            tally.op(agrees, self._m, twin, vals)
            v8 = tally.op(accept, self._normalized, forms, norm, _shifted(p, SHIFTS[0]).args())
            v16 = tally.op(accept, self._normalized, forms, norm, _shifted(p, SHIFTS[1]).args())

            def contracts(v32, v8=v8, v16=v16):
                if v8 is None or v16 is None:
                    return "an earlier shift failed"
                if abs(v32 - v16) < abs(v16 - v8):
                    return None
                return f"|v32-v16| = {abs(v32 - v16):.2e} >= |v16-v8| = {abs(v16 - v8):.2e}"

            tally.op(contracts, self._normalized, forms, norm, _shifted(p, SHIFTS[2]).args())
        for rel, p in zip(self.roy, self.roy_points):
            tally.op(at_most(ROY463_RESIDUAL), correspond.eval_relation, rel, p)
        for t in SHIFTS:
            tally.op(at_most(ROY463B_SHIFTED_RESIDUAL), correspond.eval_relation,
                     self.royb, _shifted(self.royb_point, t))


def _triples_check(tally, space):
    n, degrees = TRIPLE_SPACES[space]
    order = math.prod(degrees)
    total = math.comb(n, 3)

    def check(orbits):
        sizes = [o["size"] for o in orbits]
        problem = tally.exact(total)(sum(sizes))
        if problem:
            return f"census sizes: {problem}"
        bad = [s for s in sizes if order % s]
        return f"orbit sizes {bad} do not divide {order}" if bad else None
    return check


class Census:
    """The exact/group layer: the index orbits, the T- and M-space triple
    censuses, then the full W(E7) group.  One round outlasts a run, so every
    run is one round; the census comes last so that the memory it frees does
    not disturb the others.

    The T census runs T_REPEATS times, so that the median operation is the
    middle of five T censuses: one call moves by about 12% from call to call
    in one process, too much for a median that lands on a single call.
    """

    min_ops = 1
    T_REPEATS = 5

    def __init__(self, seed, refs):
        from hyperweyl import coxeter

        self.coxeter = coxeter

    def _census(self):
        fn = self.coxeter.full_group_census
        # pass the memory acknowledgement only while the function asks for it
        if "acknowledge_memory" in inspect.signature(fn).parameters:
            return fn(acknowledge_memory=True)
        return fn()

    @staticmethod
    def _orbit_check(orbits):
        sizes = sorted(len(o) for o in orbits)
        return None if sizes == [12, 12, 32] else f"orbit sizes {sizes}"

    def round(self, tally):
        tally.op(self._orbit_check, self.coxeter.color_orbits)
        for space in ("T",) * self.T_REPEATS + ("M",):
            tally.op(_triples_check(tally, space), self.coxeter.triple_orbits, space)
        tally.op(tally.exact(math.prod(E7_DEGREES)), self._census)


WORKLOADS = {"series-jl": SeriesJL, "series-m": SeriesM, "census": Census}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _import_program():
    sys.path.insert(0, str(SRC))
    import hyperweyl

    if Path(hyperweyl.__file__).resolve().parent != (SRC / "hyperweyl").resolve():
        raise ImportError(f"hyperweyl imported from {hyperweyl.__file__}, not {SRC}")
    from hyperweyl import correspond, coxeter, exactalg, hypnum  # noqa: F401


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before this process was started")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    opts = ap.parse_args()

    _import_program()
    tracer = None
    if opts.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    refs = json.loads((HERE / "refs.json").read_text())
    work = WORKLOADS[opts.workload](opts.seed, refs)
    setup_s = _clock() - opts.t0
    if opts.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    if tracer:
        tracer.phase = "loop"
    tally = Tally()
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        work.round(tally)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        elapsed = time.perf_counter() - start
        if tally.attempted >= work.min_ops and elapsed + walls[-1] > opts.seconds:
            break

    import numpy

    out = {
        "setup_s": setup_s,
        "rounds": len(walls),
        "wall_s": walls,
        "cpu_s": cpus,
        "op_ms": tally.op_ms,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected": tally.unexpected,
        "worst_rel": tally.worst_rel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics(len(walls))
        if opts.spans:
            tracer.write(opts.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
