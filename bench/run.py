"""Benchmark entry point: one workload, one seed, every metric on the last line.

    python3 bench/run.py --workload series-jl --seed 1 --seconds 15 --trace 0

Each workload runs closed-loop in a fresh single-threaded interpreter
(``workloads.py``), started from here with the hash seed and the BLAS/OpenMP
thread counts pinned.  With ``--trace 0`` four set-up-only processes run
before the timed process and four after it, and the set-up time is the
median of the nine (spread out in time, because machine speed can drift
over tens of seconds); the end-to-end metrics are printed.  With
``--trace 1`` one traced process runs, and its per-layer metrics are
printed with the tracing overhead (see ``tracer.py``).
Exit status is 0 with a result, 1 if a process failed or ran out of time,
2 if the program's sources are missing.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the longest child, one census round, takes about 50 s: a third of this
DEADLINE_S = 170.0
SETUP_REPEATS = 9

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# double precision caps the digits a relative error can show
DIGITS_CAP = -math.log10(2.0 ** -53)


class ChildFailed(RuntimeError):
    pass


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(opts, deadline, *extra) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", opts.workload,
           "--seed", str(opts.seed), "--seconds", str(opts.seconds), *extra]
    t0 = _clock()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - _clock()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{opts.workload} did not finish before the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{opts.workload} exited with status {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise ChildFailed(f"{opts.workload} printed no result") from None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(res, setups) -> dict:
    q = statistics.quantiles(res["op_ms"], n=100, method="inclusive")
    worst = max(res["worst_rel"], 2.0 ** -53)
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(res["wall_s"]), "s"),
        "cpu_s": _metric(statistics.median(res["cpu_s"]), "s"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        "op_ms.p50": _metric(q[49], "ms"),
        "op_ms.p90": _metric(q[89], "ms"),
        "min_digits": _metric(min(-math.log10(worst), DIGITS_CAP), "digits"),
    }


def per_layer(traced, names) -> dict:
    return {name: _metric(traced["layers"].get(name, 0), unit) for name, unit in names}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("series-jl", "series-m", "census"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    if not (ROOT / "src" / "hyperweyl" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = _clock() + DEADLINE_S
    try:
        if opts.trace:
            spans = HERE / "out" / f"spans-{opts.workload}-{opts.seed}.json"
            traced = run_child(opts, deadline, "--trace", "--spans", str(spans))
            names = [(m["name"], m["unit"])
                     for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
            runs, metrics = (traced,), per_layer(traced, names)
        else:
            setups = [run_child(opts, deadline, "--setup-only")["setup_s"]
                      for _ in range(SETUP_REPEATS // 2)]
            res = run_child(opts, deadline)
            setups += [res["setup_s"]] + [run_child(opts, deadline, "--setup-only")["setup_s"]
                                          for _ in range(SETUP_REPEATS // 2)]
            runs, metrics = (res,), end_to_end(res, setups)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    unexpected = [u for r in runs for u in r["unexpected"]]
    for line in unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={runs[0]['numpy']}")
    print(f"{opts.workload}: rounds={[r['rounds'] for r in runs]} "
          f"attempted={[r['attempted'] for r in runs]} failed={[r['failed'] for r in runs]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
