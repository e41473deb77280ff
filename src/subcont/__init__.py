"""Maximization of submodular continuous functions: a conditional-gradient
solver for monotone objectives with diminishing returns over down-closed
polytopes, a two-particle coordinate greedy for non-monotone objectives over
boxes, sampled property certificates, baselines, and a benchmark harness.
"""

from .baselines import proj_grad_ascent, random_best_of, random_cube_baseline, single_greedy
from .core import (BoxDomain, ObjectiveHandle, PolytopeDomain, SolverTrace,
                   TraceRecord, as_point, eval_batch, finite_diff_gradient)
from .geometry import (LPSolution, feasibility_residual, hit_and_run, linear_maximize,
                       project_polytope, ratio_shrink, reoptimize)
from .harness import (ExperimentConfig, ResultRecord, grid_brute_force,
                      load_bipartite_tsv, read_trace_csv, run_experiment,
                      write_trace_csv)
from .properties import (CHECKERS, PropertyReport, check_coordinatewise_concave,
                         check_directional_concave, check_dr, check_gradient,
                         check_hessian_offdiag, check_monotone, check_submodular,
                         check_weak_dr, hessian_estimate)
from .solvers import (CONCAVE_MODE, DGConfig, FWConfig, QUADRATIC_MODE,
                      REVENUE_MODE, SolverAbort, double_greedy,
                      frank_wolfe_variant, largest_abs_eigenvalue, maximize_1d)
from .zoo import (BipartiteInfluenceInstance, FacilityInstance, QuadraticInstance,
                  RevenueInstance, SensorInstance, SummarizationInstance,
                  gen_bipartite_influence, gen_facility, gen_monotone_nqp,
                  gen_nonmonotone_nqp, gen_revenue, gen_sensor,
                  gen_summarization, named_instance)

__version__ = "0.1.0"
