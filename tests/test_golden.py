"""Golden runs: exact query counts, iterations, certificates and points.

Speed work on the solvers' hot path (products, projections, in-place
temporaries) must not change one bit of any output. These values were
recorded with the sort-and-threshold projection summed by np.cumsum and
products through scipy's csr_matrix @ x, on x86-64 with numpy's bundled
OpenBLAS; the certificates' dot products go through BLAS, so another
BLAS build may legitimately move the last bits.
"""

import hashlib

import numpy as np
import pytest

from nzs.cli import run_method
from nzs.instances import gen_quadratic_known_ne, gen_sparse_experiment
from nzs.icl import solve_icl
from nzs.solvers import SolverConfig, solve_eg, solve_ogda

# (f, h, g, cert queries, iterations, repr(certified_sq_distance),
#  sha256 of the concatenated point's bytes)
FEE_GOLDEN = {
    ("icl", 0.0): (0, 1520, 1, 380, 1, "9.880988092877681e-08",
                   "4adddd9b52c72d30e44497cd3ae18333c2902f424f7565d7e5ee5ea9e4bde787"),
    ("ogda", 0.0): (1760, 0, 0, 440, 1760, "9.701226782385978e-08",
                    "f80235aa3b0f6fb964b38302a41697f057ef1b1fe912c18ce0e3442a9008f8da"),
    ("eg", 0.0): (2496, 0, 0, 312, 1248, "9.373542820446603e-08",
                  "9c66845697f80c44b92845232f3076b117f62e68444ebe1043ab6bc694872e22"),
    ("icl", 0.0009): (0, 1448, 9, 796, 9, "1.3992511415235313e-08",
                      "4518f2debb36834b4bfc4b5b5318c5a222f26707ebddb4ba3fcad0a3d593bad8"),
    ("ogda", 0.0009): (1768, 0, 0, 442, 1768, "9.25930921245025e-08",
                       "a338bdc16458f444d44a7ea79b3129164cb3d8f674ef790e4b5fdb9adf628fa0"),
    ("eg", 0.0009): (2496, 0, 0, 312, 1248, "9.884271238308317e-08",
                     "e6149c17b4d9884669450216980a0aa204246c11bb0ad1240362e1280074dd92"),
}

# dense W and ball sets; ICL with its default full schedule
QUAD_GOLDEN = {
    "icl": (0, 3444, 53, 1912, 53, "7.382483878470973e-20",
            "ac1b6bca5e5f3508d889760c26fd9b3eb32f6593a874bf2d0327c28e88d4ede5"),
    "ogda": (376, 0, 0, 94, 376, "8.747018771776995e-08",
             "427f10892d4a4b4ce4e83f949a1a3d3e977ff929ddbd513ee37b303ade8fcd5d"),
    "eg": (528, 0, 0, 66, 264, "8.09553553259447e-08",
           "071d6d89e53a6bf016b599a38b881bc48d73f816b4a6099fa5e5fdd6c6956fe4"),
}


def fingerprint(rep):
    led = rep.ledger
    z = np.concatenate([rep.point.x, rep.point.y])
    return (led.f_queries, led.h_queries, led.g_queries, led.cert_queries,
            rep.iterations, repr(rep.certified_sq_distance),
            hashlib.sha256(z.tobytes()).hexdigest())


@pytest.fixture(scope="module")
def fee_instance():
    _, meta = gen_sparse_experiment(100, 80, 800, 7, 1e-4, 1.0)
    return meta.pop("M"), meta


@pytest.mark.parametrize("method,rho", sorted(FEE_GOLDEN))
def test_fee_game_run_is_bitwise_pinned(fee_instance, method, rho):
    rep, _ = run_method(*fee_instance, rho, method, 1e-7)
    assert rep.status == "converged"
    assert fingerprint(rep) == FEE_GOLDEN[(method, rho)]


def test_quadratic_game_runs_are_bitwise_pinned():
    game = gen_quadratic_known_ne(n_x=20, n_y=20, mu=0.05, nu=0.05,
                                  delta=0.01, coupling_norm=1.0, seed=1)
    config = SolverConfig(epsilon=1e-7)
    reports = {"icl": solve_icl(game, 1e-7),
               "ogda": solve_ogda(game, config),
               "eg": solve_eg(game, config)}
    assert {m: fingerprint(r) for m, r in reports.items()} == QUAD_GOLDEN
