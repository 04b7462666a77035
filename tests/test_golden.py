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
from nzs.instances import (fee_game, gen_quadratic_known_ne,
                           gen_sparse_experiment, matching_pennies,
                           reformulate_general)
from nzs.icl import solve_icl, solve_monotone
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

# the same game through ICL's other routes: operator extragradient inner
# solves, the whole-game certificate stop, and a general reformulation
QUAD_ICL_ROUTES = {
    "inner-eg": (0, 18904, 53, 5102, 53, "1.0309244231906711e-19",
                 "0b4c30e90f35afe0a8b898caf0a68df23bd9f570653b5b8f3cf426680e41f7cc"),
    "stop-certificate": (0, 2288, 12, 1252, 12, "2.901650015397864e-08",
                         "ff3c01be9cf5625db20252abb1554d8aa3220542e5ea2a879ef06e8ed2f3ebd5"),
    "reformulate-general": (0, 2748, 61, 1568, 61, "5.484489681304652e-20",
                            "1c54110792e3aaef3143670b4838652336e2154921d8b16af4866f2bd880e772"),
}

# solve_monotone: (fingerprint of the report, repr(gap_bound))
MONOTONE_GOLDEN = {
    "fee-game": ((1, 24652, 33, 13144, 33, "np.float64(2.8766807668156234e-13)",
                  "33daa332be0b90454b3b8e6874bdd78ab207b4cd44f3dfe8ca771b5b52ecf2de"),
                 "np.float64(0.0050125)"),
    "matching-pennies": ((1, 0, 45, 92, 45, "np.float64(0.0)",
                          "5e5c794534608bdcc5f3c19fd8d94ad66ab3aedaeb79694b00adab9d1df8e25f"),
                         "np.float64(0.0005000624999999999)"),
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


def quad_game():
    return gen_quadratic_known_ne(n_x=20, n_y=20, mu=0.05, nu=0.05,
                                  delta=0.01, coupling_norm=1.0, seed=1)


def test_quadratic_game_runs_are_bitwise_pinned():
    game = quad_game()
    config = SolverConfig(epsilon=1e-7)
    reports = {"icl": solve_icl(game, 1e-7),
               "ogda": solve_ogda(game, config),
               "eg": solve_eg(game, config)}
    assert {m: fingerprint(r) for m, r in reports.items()} == QUAD_GOLDEN


@pytest.mark.parametrize("route", sorted(QUAD_ICL_ROUTES))
def test_quadratic_game_icl_routes_are_bitwise_pinned(route):
    game = quad_game()
    if route == "inner-eg":
        rep = solve_icl(game, 1e-7, inner="eg")
    elif route == "stop-certificate":
        rep = solve_icl(game, 1e-7, stop="certificate")
    else:
        rep = solve_icl(reformulate_general(game, 0.02), 1e-7)
    assert rep.status == "converged"
    assert fingerprint(rep) == QUAD_ICL_ROUTES[route]


def test_monotone_fee_game_is_bitwise_pinned(fee_instance):
    M, _ = fee_instance
    game = fee_game(M, 0.0, 0.0, 0.0).game_spec()
    _, bound, rep = solve_monotone(game, 1e-2)
    assert rep.status == "converged"
    assert (fingerprint(rep), repr(bound)) == MONOTONE_GOLDEN["fee-game"]


def test_monotone_matching_pennies_is_bitwise_pinned():
    _, bound, rep = solve_monotone(matching_pennies(), 1e-3)
    assert rep.status == "converged"
    assert ((fingerprint(rep), repr(bound))
            == MONOTONE_GOLDEN["matching-pennies"])
