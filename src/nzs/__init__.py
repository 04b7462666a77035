"""Solvers and benchmarks for two-player monotone near-zero-sum games."""

from .vecmat import (SparseMatrix, SpectralNormError, spmv, spmv_transpose,
                     spectral_norm)
from .sets import Ball, Box, FeasibleSet, ProductSet, Simplex, project_simplex
from .games import (BilinearSaddleForm, GameSpec, JointPoint, QueryLedger,
                    grad_g, operator_H)
from .instances import (MatrixGame, apply_transaction_fee, fee_game,
                        gen_quadratic_known_ne, gen_sparse_experiment,
                        matching_pennies, reformulate_bilinear,
                        reformulate_general, split_pos_neg, stackelberg_demo,
                        stackelberg_example, stackelberg_reference_points)
from .solvers import (JointProblem, SaddleSubproblem, SolveReport,
                      SolverConfig, StructureError, displacement_certificate,
                      extract_approx_ne, solve_apd_bilinear, solve_eg,
                      solve_ogda)
from .icl import (IclError, IclSchedule, build_subproblem, check_inexactness,
                  schedule_params, solve_icl, solve_monotone)
from .diagnostics import (GapEstimate, GapReport, deviation_gain, gap_report,
                          potential_gap)

__version__ = "0.1.0"
