"""Paired benchmark runs of the working tree against a parent revision.

    python3 tools/bench_pairs.py --parent HEAD --label dg_lockstep \
        --workload box_sweep --workload desk_certify

Checks the parent revision out with ``git worktree`` into a temporary
directory (removed at the end), then for each workload runs the command of
``BENCHMARK.json`` (``bench/run.py --trace 0``, ``run_seconds`` per run) in
both trees, one pair per seed 1, 2, ... (``--pairs``, at least 10).  The tree
that runs first alternates from pair to pair, so a drift of the machine falls
on both sides alike.  Writes ``BENCH_<label>.json``
at the repository root: every run's output, and per end-to-end metric the
median and quartiles of each side, the median change, and on how many pairs
the change came out better.
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


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_mid, c_mid = statistics.median(parent), statistics.median(change)
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     "parent": _spread(parent), "change": _spread(change),
                     "median_change_pct": 100.0 * (c_mid - p_mid) / abs(p_mid) if p_mid else None,
                     "change_better_pairs": better, "pairs": len(runs)}
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
        _git("worktree", "add", "--detach", str(parent_tree), parent_sha)
        try:
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
                report["workloads"][workload] = {
                    "metrics": _summary(runs, bench["end_to_end"]),
                    "all_correct": all(r[s]["correct"] for r in runs for s in ("parent", "change")),
                    "failed": {s: sum(r[s]["failed"] for r in runs) for s in ("parent", "change")},
                    "runs": runs}
        finally:
            _git("worktree", "remove", "--force", str(parent_tree))
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
