"""Golden runs: exact query counts, iterations, certificates and points.

Speed work on the solvers' hot path (products, projections, in-place
temporaries) must not change one bit of any output. There are three
exceptions so far. One is the Newton simplex projection, which replaced the
sort-and-threshold rule and rounds differently: it moved the certificate
reprs and point hashes of FEE_GOLDEN, MONOTONE_GOLDEN["fee-game"] and
TRAJECTORY_GOLDEN["icl-zero-coupling"], and no query or iteration count.
The other is the quadratic games' one-product oracles (F = J z + b and
the coupling gradient G z + c, in gen_quadratic_known_ne), which round
differently from the partials' formula. They moved the certificates and
point hashes of QUAD_GOLDEN (ICL's h count from 2551 to 2550, the
baselines' counts not at all), all of QUAD_ICL_ROUTES (h counts:
inner-eg 14280 -> 14512, reformulate-general 2764 -> 2644;
stop-certificate's counts held) and TRAJECTORY_GOLDEN["ogda"] and
["eg"]'s hashes. No fee pin moved.
The third is GameSpec's reduction to the two whole-game oracles: the
competitive operator is now F - grad g, a fee game's coupling gradient
is -(C' y, C x) with C = (A + B)/2, and a curvature shift moves the
coupling gradient by its own formula instead of rebuilding it from
shifted partials. Only the pins that query those moved: FEE_GOLDEN's
icl row at rho = 0.0009 (certificate 1.3992385581578315e-08 ->
1.399238560848974e-08 and its hash, counts held), QUAD_ICL_ROUTES'
inner-eg (h 14512 -> 14514) and reformulate-general (h 2644 -> 2700,
cert 394 -> 422, a route whose secant-started inner solves are known
to be sensitive to rounding once the outer iterates stop moving).
Fee runs take |K| = (1 - rho/2) norm from the instance's header instead
of a power iteration; PDHG's steps move in their last bits, so the
certificate reprs and point hashes of FEE_GOLDEN's two icl rows moved
(at rho = 0: 3.982708323780783e-09 -> 3.982708412093561e-09; at
rho = 0.0009: 1.3992385581252429e-08 -> 1.3992385581578315e-08), and no
query or iteration count.
ICL's scheduled inner tolerances (icl.IclSchedule.tolerance: loose in
the early outer steps, tightening to the last, and cut at the inner
solve's first gap over icl.START_CUT) are an algorithm change, not
speed work: they replaced the constant eps_t and moved these ICL pins:
FEE_GOLDEN's icl row at rho = 0.0009 (h 1447 -> 797, cert 156 -> 148),
QUAD_GOLDEN's icl (h 2550 -> 1371, cert 418 -> 422), QUAD_ICL_ROUTES'
inner-eg (h 14514 -> 7962), stop-certificate (h 2125 -> 753) and
reformulate-general (h 2700 -> 1517) and MONOTONE_GOLDEN["fee-game"]
(h 21051 -> 15196), certificates and hashes with them. No outer step
count, no baseline pin and no single-outer-step ICL pin moved, nor
MONOTONE_GOLDEN["matching-pennies"], whose gaps reach 0.
ICL's q-route (icl.game_schedule: on games with
0 < delta <= (sqrt(2) - 1) min(mu, nu), a larger eta chosen by predicted
cost, with T, the tolerances and the reported bound from the distance
contraction q) is an algorithm change too. The golden quadratic game has
delta/min(mu, nu) = 0.2, so it moved QUAD_GOLDEN's icl (h 1371 -> 982,
g 53 -> 11, cert 422 -> 134) and QUAD_ICL_ROUTES' inner-eg
(h 7962 -> 5486, g 53 -> 11, cert 924 -> 276) and stop-certificate
(h 753 -> 648, g 12 -> 4, cert 178 -> 72), certificates and hashes with
them. reformulate-general (delta/min(mu, nu) far above sqrt(2) - 1), the
baselines and every fee pin held.
The q-route's inner check by a residual distance bound
(icl.check_inexactness with the extraction step: mu_sub e^2, e bounding
the distance to the subproblem's solution, instead of the variational
gap over the whole ball, together with the descent guard
IclSchedule.descent_cap) moved the same three q-route pins: QUAD_GOLDEN's
icl (h 982 -> 302, cert 134 -> 56), QUAD_ICL_ROUTES' inner-eg
(h 5486 -> 1460, cert 276 -> 162) and stop-certificate (h 648 -> 298,
cert 72 -> 46), certificates and hashes with them. The reported
certificates rose from rounding level to 6.9e-09, 1.1e-08 and 1.9e-08,
still below eps = 1e-7: the inner solves no longer overshoot. The outer
step counts, reformulate-general, the baselines and every fee pin held.
A change to when solvers poll their stop tests moves the stop pins but
not TRAJECTORY_GOLDEN, which pins the iterates of runs that never stop.
ICL runs longer than SECANT_DEPTH + 1 proximal outer steps start their
later inner solves at a multi-secant prediction (icl.SecantStart), so
their pins depend on it; shorter runs, such as the fee rows (at most 9
outer steps) and TRAJECTORY_GOLDEN, do not.
These values were recorded on x86-64 under Python 3.11 with numpy 2.4.6
(its bundled OpenBLAS), scipy 1.17.1, pytest 9.0.3 and hypothesis
6.155.2, the versions CI installs. Sparse products run scipy's
csr_matvec kernel row by row. Dot products, the simplex projection's
sums, dense products and the secant window's Gram matrix go through
BLAS, so another BLAS build may legitimately move the last bits.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import nzs.icl
from nzs.cli import run_method
from nzs.instances import (fee_game, gen_quadratic_known_ne,
                           gen_sparse_experiment, matching_pennies,
                           reformulate_general)
from nzs.icl import solve_icl, solve_monotone
from nzs.solvers import SolverConfig, solve_eg, solve_ogda

# (f, h, g, cert queries, iterations, repr(certified_sq_distance),
#  sha256 of the concatenated point's bytes)
FEE_GOLDEN = {
    ("icl", 0.0): (0, 288, 1, 26, 1, "3.982708412093561e-09",
                   "3fc3fb0aa4a780ec1137e999ee019c22580660a640c0dbf596f026b2850fcdf9"),
    ("ogda", 0.0): (1763, 0, 0, 28, 1763, "9.34489225285381e-08",
                    "d148f20cf05033623eb2cb543b9b8f20974b45fab37fd645da3505305685a7aa"),
    ("eg", 0.0): (2496, 0, 0, 26, 1248, "9.373542831731328e-08",
                  "a28fa1142914436707a8016d5855f990e604557c91e49ccb5f30f3c896cc404b"),
    ("icl", 0.0009): (0, 797, 9, 148, 9, "1.3557768675948237e-08",
                      "ea28042a89050176a84d4284ec91dd733289523deb9f715bbec3c64d2b9e4072"),
    ("ogda", 0.0009): (1767, 0, 0, 28, 1767, "9.375346370292284e-08",
                       "056c97dfe56ab9c653214c4cb3806a3eb8ae11881561cfdf49489725cdf6e646"),
    ("eg", 0.0009): (2502, 0, 0, 26, 1251, "9.376202107077738e-08",
                     "4f49fb593d13226494e85ee9ec3b5b86f870bfca1aa16afb89839594a24cc18a"),
}

# dense W and ball sets; ICL with its default full schedule
QUAD_GOLDEN = {
    "icl": (0, 302, 11, 56, 11, "6.916365039333333e-09",
            "e9f54c63b9759f96dd59af1ffb00300a9ced4354574d4bb2a92a1cd989d552e1"),
    "ogda": (374, 0, 0, 20, 374, "9.752899565476753e-08",
             "5ed93246000d88dc9a4c3f4c160cf8ec4c21ececaf9ada05fb0a0a12f86a8934"),
    "eg": (534, 0, 0, 20, 267, "6.427738878613156e-08",
           "11308aa5dd41607c8e5e44a0a7e360e040cebef239dd82d41d0891d643baf128"),
}

# the same game through ICL's other routes: operator extragradient inner
# solves on the h_operator oracle (the game without h_structure), the
# whole-game certificate stop, and a general reformulation
QUAD_ICL_ROUTES = {
    "inner-eg": (0, 1460, 11, 162, 11, "1.1451524193869046e-08",
                 "04edbc5a93c57d4fe4f69c7c4830ce161c9ea7acb157dd3bcb5a1f8bc6324688"),
    "stop-certificate": (0, 298, 4, 46, 4, "1.9032270372549166e-08",
                         "c183df7bfa7c1a928167c51c68ca84058fe1ac60a9519ff4e576c9bc71755f4a"),
    "reformulate-general": (0, 1517, 61, 440, 61, "8.422846932730595e-20",
                            "885b4674d45997fca8c8d28b9d258c1e2188a6d7a6deeab4d195ef9466f60afe"),
}

# solve_monotone: (fingerprint of the report, repr(gap_bound))
MONOTONE_GOLDEN = {
    "fee-game": ((1, 15196, 33, 402, 33, "np.float64(6.894070350887613e-14)",
                  "14e9c58daa7656416cc33e0012399306867498bdb9afe4034cadeedac24a15c7"),
                 "np.float64(0.0050125)"),
    "matching-pennies": ((1, 0, 45, 92, 45, "np.float64(0.0)",
                          "5e5c794534608bdcc5f3c19fd8d94ad66ab3aedaeb79694b00adab9d1df8e25f"),
                         "np.float64(0.0005000624999999999)"),
}


# runs that cannot stop: eps = 1e-300 and a fixed step budget pin each
# solver's iterates apart from when its certificate is polled;
# (f, h, g queries, sha256 of the concatenated point's bytes)
TRAJECTORY_GOLDEN = {
    "ogda": (400, 0, 0,
             "24e58417c4df01c8bfcd5a481ff442f709a4b07836e15c662ff8aeaa91390e69"),
    "eg": (800, 0, 0,
           "9693bbadecc6d7d5d2fdd8ecd6ae6dce90c821fa1043f8737d067e680e7d1eb2"),
    "icl-zero-coupling": (0, 400, 1,
                          "5e7ac53f9298ef4c4a540319fb7cb3eff552bb2be289dec2ee11563b085fc394"),
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
        rep = solve_icl(dataclasses.replace(game, h_structure=None), 1e-7)
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


def test_trajectories_without_a_stop_are_pinned(fee_instance, monkeypatch):
    game = quad_game()
    config = SolverConfig(epsilon=1e-300, max_iter=400)
    M, meta = fee_instance
    monkeypatch.setattr(nzs.icl, "_inner_budget", lambda sched, rate: 400)
    zero_coupling = fee_game(M, 0.0, meta["mu"], meta["nu"]).game_spec()
    reports = {"ogda": solve_ogda(game, config),
               "eg": solve_eg(game, config),
               "icl-zero-coupling": solve_icl(zero_coupling, 1e-300,
                                              stop="certificate",
                                              max_outer=1)}
    got = {}
    for method, rep in reports.items():
        assert rep.status == "max_iter"
        f, h, g, _, _, _, sha = fingerprint(rep)
        got[method] = (f, h, g, sha)
    assert got == TRAJECTORY_GOLDEN
