"""Paired benchmark runs of the working tree against a parent revision.

    python3 tools/bench_pairs.py --parent HEAD --label dg_lockstep \
        --workload box_sweep --workload desk_certify

Exports the parent revision's committed files with ``git archive`` into a
temporary directory (removed at the end), then for each workload runs the
command of ``BENCHMARK.json`` (``bench/run.py --trace 0``, ``run_seconds`` per
run) in both trees, one pair per seed 1, 2, ... (``--pairs``, at least 10).
The tree that runs first alternates from pair to pair, so a drift of the
machine falls on both sides alike.  Writes ``BENCH_<label>.json`` at the
repository root: every run's output, and per end-to-end metric the median and
quartiles of each side, the median change, on how many pairs the change came
out better, and a verdict against the metric's ``bound``:

* ``worse``: the change's median is worse than the parent's by more than the
  bound (a fraction of the parent's median);
* ``unresolved``: the parent's quartile spread exceeds the bound and not every
  change run beats every parent run, so the runs cannot tell;
* ``within bound`` otherwise.

A workload where the change failed more operations than the parent is
flagged with ``more_failures``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: the JSON object of its last output line."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _relative(diff: float, base: float) -> float:
    return diff / abs(base) if base else (0.0 if diff == 0 else float("inf"))


def _verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    sign = 1.0 if lower else -1.0   # positive = worse
    p = _spread(parent)
    if _relative(sign * (statistics.median(change) - p["median"]), p["median"]) > bound:
        return "worse"
    all_beat = max(change) < min(parent) if lower else min(change) > max(parent)
    if _relative(p["q3"] - p["q1"], p["median"]) > bound and not all_beat:
        return "unresolved"
    return "within bound"


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_mid, c_mid = statistics.median(parent), statistics.median(change)
        out[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                     "parent": _spread(parent), "change": _spread(change),
                     "median_change_pct": 100.0 * (c_mid - p_mid) / abs(p_mid) if p_mid else None,
                     "change_better_pairs": better, "pairs": len(runs),
                     "verdict": _verdict(parent, change, lower, spec["bound"])}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="revision to compare against")
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--workload", action="append", required=True,
                   help="a workload of BENCHMARK.json; repeat for more")
    p.add_argument("--pairs", type=int, default=10,
                   help="parent/change pairs per workload (default and minimum 10)")
    args = p.parse_args(argv)
    if args.pairs < 10:
        p.error("--pairs must be at least 10")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in bench["workloads"]}
    if not set(args.workload) <= known:
        p.error(f"unknown workload; choose from {sorted(known)}")
    seconds = bench["run_seconds"]
    parent_sha = _git("rev-parse", args.parent)
    report = {"parent": parent_sha, "change": f"working tree on {_git('rev-parse', 'HEAD')}",
              "command": bench["command"], "seconds_per_run": seconds,
              "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version()},
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent_sha],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        for workload in args.workload:
            runs = []
            for seed in range(1, args.pairs + 1):
                sides = [("parent", parent_tree), ("change", ROOT)]
                if seed % 2 == 0:
                    sides.reverse()
                run = {"seed": seed, "first": sides[0][0]}
                for side, tree in sides:
                    run[side] = _run(tree, bench["command"], workload, seed, seconds)
                runs.append(run)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} solve_s {run[side]['metrics']['solve_s']['value']:.4g}"
                    for side in ("parent", "change")), file=sys.stderr)
            failed = {s: sum(r[s]["failed"] for r in runs) for s in ("parent", "change")}
            metrics = _summary(runs, bench["end_to_end"])
            report["workloads"][workload] = {
                "metrics": metrics,
                "all_correct": all(r[s]["correct"] for r in runs for s in ("parent", "change")),
                "failed": failed, "more_failures": failed["change"] > failed["parent"],
                "runs": runs}
            for name, m in metrics.items():
                print(f"{workload} {name}: {m['verdict']}", file=sys.stderr)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
