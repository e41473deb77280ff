"""Comparison methods: best-of-random sampling, shrunken hypercube sampling,
projected gradient ascent, and a single-pass coordinate greedy.

All are bit-deterministic for a fixed seed and return feasible points.
"""
from __future__ import annotations

import numpy as np

from .core import (Array, BoxDomain, ObjectiveHandle, PolytopeDomain, SolverTrace,
                   as_point, check_positive_int, eval_batch)
from .geometry import (feasibility_residual, hit_and_run, project_box,
                       project_polytope, ratio_shrink)
from .solvers import CONCAVE_MODE, maximize_1d


def random_best_of(f: ObjectiveHandle, P: PolytopeDomain, k_s: int,
                   seed: int) -> tuple[Array, float]:
    """Best of k_s hit-and-run samples by objective value."""
    samples = hit_and_run(P, k_s, seed)
    values = eval_batch(f, samples)
    best = int(np.argmax(values))
    return samples[best].copy(), float(values[best])


def random_cube_baseline(f: ObjectiveHandle, P: PolytopeDomain, k_s: int,
                         seed: int) -> tuple[Array, float]:
    """Best of k_s uniform box samples, each shrunk into the polytope."""
    check_positive_int("sample count k_s", k_s)
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, P.upper, size=(k_s, P.dimension))
    shrunk = ratio_shrink(P, raw)
    values = eval_batch(f, shrunk)
    best = int(np.argmax(values))
    return shrunk[best].copy(), float(values[best])


def proj_grad_ascent(f: ObjectiveHandle, domain, step: float,
                     iters: int) -> tuple[Array, float, SolverTrace]:
    """Projected gradient ascent from the origin with a fixed step size."""
    if not f.differentiable:
        raise ValueError("projected gradient ascent needs a gradient")
    if isinstance(domain, BoxDomain):
        project = lambda z: project_box(domain, z)
    elif isinstance(domain, PolytopeDomain):
        project = lambda z: project_polytope(domain, z)
    else:
        raise TypeError("domain must be a BoxDomain or PolytopeDomain")
    x = np.zeros(f.dimension)
    trace = SolverTrace(meta={"algorithm": "proj_grad", "step": step})
    trace.append(0, 0.0, f.value(x), feasibility_residual(domain, x))
    for k in range(1, iters + 1):
        x = project(x + step * as_point(f.gradient(x), f.dimension))
        trace.append(k, k / iters, f.value(x), feasibility_residual(domain, x))
    return x, f.value(x), trace


def single_greedy(f: ObjectiveHandle, box: BoxDomain,
                  mode: str = CONCAVE_MODE) -> tuple[Array, float]:
    """One pass over the coordinates in natural order from the lower corner,
    taking each 1-D maximizer whenever its gain is positive.  No repeated
    sweeps."""
    x = box.lower.copy()
    fx = f.value(x)
    for j in range(box.dimension):
        z, val, _ = maximize_1d(f, x, j, float(box.lower[j]), float(box.upper[j]), mode)
        if val - fx > 0.0:
            x[j] = z
            fx = val
    return x, fx
