"""Benchmark of the subcont package, run from a plain checkout.

    python3 bench/run.py --workload polytope_sweep --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload (see workloads.py and README.md) for about
``--seconds`` seconds, at least one round, then checks every output of the
first round and that later rounds reproduced it.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run spends half its time untraced and half traced and
reports the per-layer figures of the traced rounds and the tracing overhead.
"""
import os

# One BLAS thread, set before numpy loads: the machine has 2 cores and other
# work on it, and no operation here is large enough to gain from a second.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# what a round after the first keeps of its records, so that the memory the
# benchmark holds does not grow with the number of rounds
_KEPT = ("op", "value", "x", "verdict", "solver", "seconds")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time the import and the instance build once, print seconds")
    return p.parse_args(argv)


def _setup_probe(args) -> int:
    start = perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[args.workload].build(args.seed, ROOT / ".bench_out" / "probe")
    print(repr(perf_counter() - start))
    return 0


def _setup_seconds(args) -> float:
    """Median over fresh interpreters of: import the package, build the instances."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _rounds(spec, w, rec, seconds):
    """Whole rounds until the next one would end past ``seconds``; at least one."""
    times, rounds = [], []
    start = perf_counter()
    with rec.installed():
        while True:
            t0 = perf_counter()
            records = spec.run_round(w, rec)
            times.append(perf_counter() - t0)
            rec.records.clear()
            if rounds:   # later rounds only feed the figures and the rerun check
                records = [{k: r[k] for k in _KEPT if k in r} for r in records]
            rounds.append(records)
            if perf_counter() - start + statistics.median(times) > seconds:
                return times, rounds


def _rerun_problems(rounds) -> list[str]:
    """Every round repeats the first round's operations and outputs."""
    first = rounds[0]
    problems = []
    for i, later in enumerate(rounds[1:], start=2):
        same = len(later) == len(first) and all(
            a["op"] == b["op"] and a["value"] == b["value"]
            and a.get("verdict") == b.get("verdict")
            and (a.get("x") is None) == (b.get("x") is None)
            and (a.get("x") is None or bool((a["x"] == b["x"]).all()))
            for a, b in zip(first, later))
        if not same:
            problems.append(f"round {i} did not reproduce round 1")
    return problems


def _lp_problems(rec) -> list[str]:
    import checks
    problems = []
    for P, c, objective in rec.lp_samples:
        bad = checks.lp_mismatch(P.A, P.b, P.upper, c, objective)
        if bad:
            problems.append(f"LP sample (n={P.dimension}, m={P.num_rows}): {bad}")
    return problems


def _solver_figures(rounds):
    """Per round: mean time and mean final value of the solver calls; median over rounds."""
    secs, vals = [], []
    for records in rounds:
        solved = [r for r in records if r["solver"]]
        if solved:
            secs.append(statistics.fmean(r["seconds"] for r in solved))
            vals.append(statistics.fmean(r["value"] for r in solved))
    if not secs:
        return float("nan"), float("nan")
    return statistics.median(secs), statistics.median(vals)


def _emit(correct, attempted, failed, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "subcont" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _setup_probe(args)
    from tracer import Recorder, layer_metrics
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    setup_s = None if args.trace else _setup_seconds(args)
    out = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        w = spec.build(args.seed, out)
        if args.trace:
            times0, rounds0 = _rounds(spec, w, Recorder(tracing=False), args.seconds / 2)
            traced = Recorder(tracing=True)
            times1, rounds1 = _rounds(spec, w, traced, args.seconds / 2)
            rounds = rounds0 + rounds1
        else:
            traced = None
            times0, rounds = _rounds(spec, w, Recorder(tracing=False), args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = spec.check(w, rounds[0]) + _rerun_problems(rounds)
        if traced is not None:
            problems += _lp_problems(traced)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    per_round = spec.ops_per_round(w)
    attempted = per_round * len(rounds)
    failed = attempted - sum(len(r) for r in rounds)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(traced.spans, len(rounds1))
        metrics["trace.wall_s"] = (statistics.median(times1), "s")
        metrics["trace.overhead_s"] = (statistics.median(times1) - statistics.median(times0),
                                       "s")
    else:
        solve_s, value_mean = _solver_figures(rounds)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(times0), "s"),
            "solve_s": (solve_s, "s"),
            "value_mean": (value_mean, "objective"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    _emit(not problems, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
