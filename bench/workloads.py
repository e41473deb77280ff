"""The benchmark's three workloads.

Each workload is a :class:`Workload`:

* ``build(seed, out)`` makes the instances from the seed (timed as set-up);
* ``run_round(w, rec)`` makes one round of library calls (timed) and returns
  one record per operation; every round makes the same calls on the same
  instances, so a round's figures do not depend on how many rounds fit;
* ``check(w, records)`` returns the problems found in one round's outputs,
  computed by :mod:`checks` apart from the program.

A record is a dict with at least ``op`` (a stable name), ``value`` (a number
the operation produced) and ``solver`` (True for Frank-Wolfe and
DoubleGreedy calls, whose time and value feed ``solve_s`` and
``value_mean``).
"""
from __future__ import annotations

import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from subcont import (CHECKERS, BipartiteInfluenceInstance, BoxDomain, DGConfig,
                     ExperimentConfig, FacilityInstance, FWConfig, QuadraticInstance,
                     RevenueInstance, SummarizationInstance, double_greedy,
                     frank_wolfe_variant, gen_bipartite_influence, gen_facility,
                     gen_monotone_nqp, gen_nonmonotone_nqp, gen_revenue, gen_sensor,
                     gen_summarization, grid_brute_force, run_experiment)
from subcont.harness import _expand_methods
from subcont.solvers import QUADRATIC_MODE

import checks
from tracer import Recorder, _count_grid_points

SOLVERS = ("frank_wolfe", "double_greedy")


@dataclass(frozen=True)
class Workload:
    build: Callable
    run_round: Callable
    check: Callable
    ops_per_round: Callable


def instance_seeds(seed: int, tag: int, k: int) -> list[int]:
    """k instance seeds drawn from the workload seed; tag keeps workloads apart."""
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(k)]


def _failed_op(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc()


# ---------------------------------------------------------------------------
# sweeps through run_experiment: polytope_sweep and box_sweep

def _sweep_round(w, rec: Recorder) -> list[dict]:
    start = len(rec.records)
    for cfg in w["configs"]:
        try:
            run_experiment(cfg)
        except Exception:
            _failed_op(f"run_experiment({cfg.experiment})")
    out = rec.records[start:]
    for r in out:
        P = r["ctx"]["polytope"]
        sweep = P.b[0] if P.num_rows else np.max(P.upper)
        r["op"] = f"{r['method']}@{r['seed']}:{sweep:g}"
        r["value"] = r["trace"].final_objective
        r["solver"] = r["method"] in SOLVERS
    return out


def _sweep_ops(w) -> int:
    return sum(len(c.seeds) * len(c.sweep) * len(_expand_methods(c)) for c in w["configs"])


def _own_value(inst, x) -> float:
    if isinstance(inst, QuadraticInstance):
        return checks.quadratic_value(inst.H, inst.h, inst.c, x)
    if isinstance(inst, RevenueInstance):
        return checks.revenue_value(inst.weights, inst.self_activation, inst.alpha,
                                    inst.beta, inst.gamma, x)
    if isinstance(inst, BipartiteInfluenceInstance):
        return checks.influence_value(inst.probs, inst.n_customers, x)
    raise TypeError(f"no independent formula for {type(inst).__name__}")


def _same_instance(used, own) -> bool:
    """The harness built the instance the benchmark generated from the seed."""
    if isinstance(own, QuadraticInstance):
        return (np.array_equal(used.H, own.H) and np.array_equal(used.h, own.h)
                and used.c == own.c)
    if isinstance(own, RevenueInstance):
        return (np.array_equal(used.weights, own.weights) and used.gamma == own.gamma
                and np.array_equal(used.self_activation, own.self_activation))
    return used.probs == own.probs


def _check_sweep(w, records) -> list[str]:
    problems = []
    for r in records:
        ctx, x, trace, method = r["ctx"], r["x"], r["trace"], r["method"]
        inst = ctx["instance"]
        where = r["op"]
        own = w["instances"].get((type(inst).__name__, r["seed"]))
        if own is None or not _same_instance(inst, own):
            problems.append(f"{where}: instance differs from the one generated from the seed")
        if method in ("double_greedy", "single_greedy") or not ctx["polytope"].num_rows:
            box = ctx["box"]
            bad = checks.infeasibility(x, box.upper, lower=box.lower)
        else:
            P = ctx["polytope"]
            rows = w.get("rows", {}).get(r["seed"])
            if rows is not None and not (np.array_equal(P.A, rows[0]) and np.all(P.b == rows[1])):
                problems.append(f"{where}: polytope differs from the generated one")
            bad = checks.infeasibility(x, P.upper, P.A, P.b)
        if bad:
            problems.append(f"{where}: {bad}")
        bad = checks.value_mismatch(r["value"], _own_value(inst, x))
        if bad:
            problems.append(f"{where}: {bad}")
        if method == "frank_wolfe":
            bad = checks.step_mass_error([row.t for row in trace.records])
            if bad:
                problems.append(f"{where}: {bad}")
        if method == "double_greedy":
            tx, ty = r["dg_traces"]
            box = ctx["box"]
            bad = checks.dg_trace_problem(tx.objectives(), ty.objectives(), r["value"],
                                          _own_value(inst, box.lower),
                                          _own_value(inst, box.upper))
            if bad:
                problems.append(f"{where}: {bad}")
    problems += _check_results_files(w, records)
    return problems


def _check_results_files(w, records) -> list[str]:
    """results.json of the last run holds the final values the methods returned."""
    problems = []
    captured = [r["value"] for r in records]
    written = []
    for cfg in w["configs"]:
        path = Path(cfg.output_dir) / "results.json"
        try:
            written += [rec["final_value"] for rec in json.loads(path.read_text())["records"]]
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"{path}: unreadable results ({e})")
    if not problems and written != captured:
        problems.append("results.json final values differ from the returned traces")
    return problems


# polytope_sweep: the paper's scale, n=100 variables, m=50 rows, K=50 steps,
# k_s=1000 samples.  Frank-Wolfe's time depends on the instance (the LP's
# pivot count), so it runs on six instances, one row budget each; the
# hit-and-run baseline, whose step count does not depend on the instance,
# runs on the first one only.
NQP_N, NQP_M, K, K_S = 100, 50, 50, 1000
POLY_BUDGETS = [0.5, 1.0, 1.5, 0.5, 1.0, 1.5]


def build_polytope(seed: int, out: Path) -> dict:
    *nqp_seeds, ba_seed = instance_seeds(seed, 1, len(POLY_BUDGETS) + 1)
    nqp = {s: gen_monotone_nqp(NQP_N, NQP_M, s) for s in nqp_seeds}
    configs = [
        ExperimentConfig(experiment="monotone_nqp", n=NQP_N, m=NQP_M, K=K, k_s=K_S,
                         seeds=[s], sweep=[b],
                         methods=["frank_wolfe", "random", "random_cube"] if i == 0
                         else ["frank_wolfe", "random_cube"],
                         output_dir=str(out / f"nqp_{i}"))
        for i, (s, b) in enumerate(zip(nqp_seeds, POLY_BUDGETS))]
    configs.append(ExperimentConfig(experiment="budget_allocation", n=20, K=K, k_s=K_S,
                                    seeds=[ba_seed], sweep=[1.0],
                                    output_dir=str(out / "budget_allocation")))
    instances = {("QuadraticInstance", s): inst for s, (inst, _) in nqp.items()}
    instances[("BipartiteInfluenceInstance", ba_seed)] = gen_bipartite_influence(20, 40, 80,
                                                                                 ba_seed)
    return {"configs": configs, "instances": instances,
            "rows": {s: (nqp[s][1].A, b) for s, b in zip(nqp_seeds, POLY_BUDGETS)}}


# box_sweep: revenue (n=100, golden-section 1-D search) and a non-monotone
# quadratic (n=200, closed-form 1-D search) with their default box methods.
def build_box(seed: int, out: Path) -> dict:
    r1, r2, q1, q2 = instance_seeds(seed, 2, 4)
    configs = [
        ExperimentConfig(experiment="revenue", n=100, seeds=[r1, r2], sweep=[1.0],
                         output_dir=str(out / "revenue")),
        ExperimentConfig(experiment="nonmonotone_nqp", n=200, seeds=[q1, q2], sweep=[1.0],
                         output_dir=str(out / "nonmonotone_nqp")),
    ]
    instances = {("RevenueInstance", s): gen_revenue(100, 300, s) for s in (r1, r2)}
    instances.update({("QuadraticInstance", s): gen_nonmonotone_nqp(200, s)[0]
                      for s in (q1, q2)})
    return {"configs": configs, "instances": instances}


# ---------------------------------------------------------------------------
# desk_certify: grid oracle, the property checkers and the two guarantees at
# desk scale (n=3 and n=4), where an exhaustive grid gives a reference optimum.

DESK_CASES = 80
FW_GRID, DG_GRID = 41, 21
BATCH_GRID, SCALAR_GRID = 31, 9
CHECK_TRIALS = 300


def _supermodular_quadratic(seed: int) -> QuadraticInstance:
    """A 4-dim quadratic with positive off-diagonal and diagonal entries, so
    the algebra says neither submodular nor coordinate-wise concave."""
    rng = np.random.default_rng(seed)
    up = np.triu(rng.uniform(0.2, 1.0, size=(4, 4)), 1)
    H = up + up.T + np.diag(rng.uniform(0.2, 1.0, size=4))
    return QuadraticInstance(H, rng.uniform(-1.0, 1.0, size=4))


def _families(s: int) -> list[tuple]:
    """(name, instance, handle, box, grid points) across the zoo at n=4."""
    unit = BoxDomain(np.zeros(4), np.ones(4))
    mono, P = gen_monotone_nqp(4, 2, s)
    nonmono, box = gen_nonmonotone_nqp(4, s)
    revenue = gen_revenue(4, 12, s)
    mixed = _supermodular_quadratic(s)
    out = [("monotone_nqp", mono, mono.handle(P.box()), P.box(), BATCH_GRID),
           ("nonmonotone_nqp", nonmono, nonmono.handle(box), box, BATCH_GRID),
           ("supermodular_quadratic", mixed, mixed.handle(unit), unit, BATCH_GRID)]
    for name, inst in (("influence", gen_bipartite_influence(4, 8, 16, s)),
                       ("facility", gen_facility(4, 8, s)),
                       ("summarization", gen_summarization(4, s))):
        out.append((name, inst, inst.handle(), unit, BATCH_GRID))
    out.append(("revenue", revenue, revenue.handle(), revenue.box(), SCALAR_GRID))
    sensor = gen_sensor(4, 2, s)
    out.append(("sensor", sensor, sensor.handle(), unit, SCALAR_GRID))
    return out


def build_desk(seed: int, out: Path) -> dict:
    seeds = instance_seeds(seed, 3, 2 * DESK_CASES + 1)
    fw_cases = []
    for s in seeds[:DESK_CASES]:
        inst, P = gen_monotone_nqp(3, 1, s)
        fw_cases.append({"seed": s, "inst": inst, "P": P, "handle": inst.handle(P.box())})
    dg_cases = []
    for s in seeds[DESK_CASES:2 * DESK_CASES]:
        inst, box = gen_nonmonotone_nqp(4, s)
        dg_cases.append({"seed": s, "inst": inst, "box": box, "handle": inst.handle(box)})
    return {"fw": fw_cases, "dg": dg_cases, "families": _families(seeds[-1]),
            "check_seed": seeds[-1]}


def _desk_ops(w) -> int:
    return 2 * (len(w["fw"]) + len(w["dg"])) + len(w["families"]) * (1 + len(CHECKERS))


def _timed(records, op, fn, *args, **kwargs):
    """Run one operation; on success append its record and return the result."""
    start = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception:
        _failed_op(op)
        return None
    records.append({"op": op, "seconds": perf_counter() - start, "solver": False})
    return result


def _desk_round(w, rec: Recorder) -> list[dict]:
    fw = rec.wrap("solvers.fw", frank_wolfe_variant)
    dg = rec.wrap("solvers.dg", double_greedy)
    grid = rec.wrap("harness.grid", grid_brute_force, _count_grid_points)
    lp = rec.lp_oracle()
    records: list[dict] = []
    for case in w["fw"]:
        h = rec.handle(case["handle"])
        got = _timed(records, f"fw@{case['seed']}", fw, h, case["P"], FWConfig(K=K), oracle=lp)
        if got:
            records[-1].update(solver=True, case=case, x=got[0], trace=got[1],
                               value=got[1].final_objective)
        got = _timed(records, f"fw_grid@{case['seed']}", grid, h, case["P"], FW_GRID)
        if got:
            records[-1].update(case=case, x=got[0], value=got[1])
    for case in w["dg"]:
        h = rec.handle(case["handle"])
        cfg = DGConfig(seed=case["seed"], mode=QUADRATIC_MODE)
        got = _timed(records, f"dg@{case['seed']}", dg, h, case["box"], cfg)
        if got:
            records[-1].update(solver=True, case=case, x=got[0], traces=got[1:],
                               value=got[1].final_objective)
        got = _timed(records, f"dg_grid@{case['seed']}", grid, h, case["box"], DG_GRID)
        if got:
            records[-1].update(case=case, x=got[0], value=got[1])
    for name, inst, handle, box, points in w["families"]:
        h = rec.handle(handle)
        got = _timed(records, f"grid:{name}", grid, h, box, points)
        if got:
            records[-1].update(family=name, x=got[0], value=got[1])
        for prop, checker in CHECKERS.items():
            got = _timed(records, f"{prop}:{name}", rec.wrap("properties.check", checker),
                         h, box, CHECK_TRIALS, 1e-9, seed=w["check_seed"])
            if got:
                records[-1].update(family=name, prop=prop, value=got.worst_violation,
                                   verdict=got.ok)
    return records


def _family_reference(inst, x) -> float | None:
    """Independent value of a zoo family at x, where the benchmark has one."""
    if isinstance(inst, FacilityInstance):
        return checks.facility_value(inst.weights, x)
    if isinstance(inst, SummarizationInstance):
        S = inst.similarity
        return float(np.sqrt(x) @ S.sum(axis=0) - x @ S @ x)
    if isinstance(inst, (QuadraticInstance, RevenueInstance, BipartiteInfluenceInstance)):
        return _own_value(inst, x)
    return None


def _check_desk(w, records) -> list[str]:
    problems = []
    by_op = {r["op"]: r for r in records}
    families = {f[0]: f for f in w["families"]}

    def note(op, bad):
        if bad:
            problems.append(f"{op}: {bad}")

    for r in records:
        op = r["op"]
        if op.startswith("fw@"):
            case = r["case"]
            inst, P = case["inst"], case["P"]
            note(op, checks.infeasibility(r["x"], P.upper, P.A, P.b))
            note(op, checks.value_mismatch(r["value"], _own_value(inst, r["x"])))
            note(op, checks.step_mass_error([row.t for row in r["trace"].records]))
            grid_rec = by_op.get(f"fw_grid@{case['seed']}")
            if grid_rec:
                L = float(np.max(np.abs(np.linalg.eigvalsh(inst.H))))
                note(op, checks.fw_bound_problem(r["value"], grid_rec["value"], L, K))
        elif op.startswith("dg@"):
            case = r["case"]
            inst, box = case["inst"], case["box"]
            note(op, checks.infeasibility(r["x"], box.upper, lower=box.lower))
            note(op, checks.value_mismatch(r["value"], _own_value(inst, r["x"])))
            tx, ty = r["traces"]
            note(op, checks.dg_trace_problem(tx.objectives(), ty.objectives(), r["value"],
                                             _own_value(inst, box.lower),
                                             _own_value(inst, box.upper)))
            grid_rec = by_op.get(f"dg_grid@{case['seed']}")
            if grid_rec:
                note(op, checks.dg_bound_problem(r["value"], grid_rec["value"]))
        elif op.startswith(("fw_grid@", "dg_grid@")):
            inst = r["case"]["inst"]
            P = r["case"].get("P")
            upper = P.upper if P is not None else r["case"]["box"].upper
            points = FW_GRID if P is not None else DG_GRID
            scan = checks.grid_max_quadratic(inst.H, inst.h, inst.c, upper, points,
                                             None if P is None else P.A,
                                             None if P is None else P.b)
            note(op, checks.value_mismatch(r["value"], scan))
        elif op.startswith("grid:"):
            _, inst, handle, box, points = families[r["family"]]
            if isinstance(inst, QuadraticInstance):
                scan = checks.grid_max_quadratic(inst.H, inst.h, inst.c, box.upper, points)
                note(op, checks.value_mismatch(r["value"], scan))
            ref = _family_reference(inst, r["x"])
            note(op, checks.value_mismatch(r["value"], handle.value(r["x"]) if ref is None
                                           else ref))
            for corner in (box.lower, box.upper):
                ref = _family_reference(inst, corner)
                ref = handle.value(corner) if ref is None else ref
                if r["value"] < ref - checks.VALUE_REL * max(1.0, abs(ref)):
                    problems.append(f"{op}: grid maximum {r['value']!r} below a corner "
                                    f"value {ref!r}")
        elif "prop" in r:
            _, inst, handle, _, _ = families[r["family"]]
            expected = None
            if isinstance(inst, QuadraticInstance) and r["prop"] in ("submodular",
                                                                     "coordconcave"):
                expected = checks.quadratic_verdicts(inst.H)[r["prop"]]
            elif r["prop"] in declared_passes(handle):
                expected = True
            if expected is not None and r["verdict"] != expected:
                problems.append(f"{op}: checker says {'pass' if r['verdict'] else 'fail'}, "
                                f"expected {'pass' if expected else 'fail'}")
    return problems


def declared_passes(handle) -> set[str]:
    """Checkers that cannot find a violation given the declared flags:
    submodularity is equivalent to weak DR, DR-submodularity implies DR and
    coordinate-wise concavity."""
    out = set()
    if handle.submodular:
        out |= {"submodular", "weak-dr"}
    if handle.dr_submodular:
        out |= {"dr", "coordconcave"}
    if handle.monotone:
        out.add("monotone")
    return out


WORKLOADS = {
    "polytope_sweep": Workload(build_polytope, _sweep_round, _check_sweep, _sweep_ops),
    "box_sweep": Workload(build_box, _sweep_round, _check_sweep, _sweep_ops),
    "desk_certify": Workload(build_desk, _desk_round, _check_desk, _desk_ops),
}
