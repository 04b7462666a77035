"""Fuzzed instance and point files: the readers raise only ValueError
(FormatError or a decoding error), and `nzs solve` / `nzs gap` exit 0, 1
or 2 without raising.

The files are a small valid instance and point with a few bytes
overwritten, cut short, or one header or point entry replaced by an
awkward JSON value. Solves are cut to a few steps: these tests are about
input handling, not convergence.

The simplex projection is fuzzed on tied, mixed-sign vectors for its
optimality conditions, idempotence and independence of its start.

A fee game's operator F must equal -(spmv_transpose(A, y) - mu x) and
-(spmv(B, x) - nu y) bit for bit, signed zeros included: on the game and
its convex reformulations. Its coupling gradient must equal
-(C' y, C x), C = (A + B)/2, bit for bit, and the same with A and B
apart to rounding. A curvature shift of a fee or quadratic game must
move F by -2 (u1_x x, u2_y y) and the coupling gradient by
-((u1_x + u2_x) x, (u1_y + u2_y) y), bit for bit.

ICL's residual check bounds the distance to a strongly monotone
subproblem's solution: for affine operators on balls, boxes and
simplices, |P(z - gamma F(z)) - z*| <= |v|/mu, with z* solved to 1e-13.
"""

import dataclasses
import math

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nzs.cli as cli
import nzs.icl as icl
from nzs.instances import (MatrixGame, _curvature_split, fee_game,
                           gen_quadratic_known_ne, reformulate_bilinear,
                           reformulate_general)
from nzs.games import JointPoint
from nzs.serialize import MAGIC, read_instance, read_point
from nzs.sets import Ball, Box, Simplex, project_simplex
from nzs.solvers import SaddleSubproblem
from nzs.vecmat import SparseMatrix, spmv, spmv_transpose

FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

AWKWARD = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.sampled_from([float("nan"), float("inf"), -1.0, 0.0, 1e-300, 1e300]),
    st.lists(st.integers(-3, 50), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))

POINT = {"x": [1 / 6] * 6, "y": [0.2] * 5}


@pytest.fixture(scope="module")
def instance_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "base.nzs"
    assert cli.main(["generate", "--n", "6", "--m", "5", "--nnz", "12",
                     "--seed", "0", "--mu", "0.05", "--out", str(path)]) == 0
    return path.read_bytes()


def overwritten(draw, blob):
    blob = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


@st.composite
def mutated_instance(draw, blob):
    kind = draw(st.sampled_from(["bytes", "cut", "header"]))
    if kind == "bytes":
        return overwritten(draw, blob)
    if kind == "cut":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + hlen])
    key = draw(st.sampled_from(sorted(header) + ["arrays"] * 3))
    if key == "arrays":
        spec = header["arrays"][draw(st.integers(0, 2))]
        spec[draw(st.sampled_from(["name", "dtype", "length"]))] = \
            draw(AWKWARD)
    elif draw(st.booleans()):
        header[key] = draw(AWKWARD)
    else:
        del header[key]
    text = json.dumps(header).encode()
    return MAGIC + struct.pack("<Q", len(text)) + text + blob[16 + hlen:]


@st.composite
def mutated_point(draw):
    text = json.dumps(POINT).encode()
    if draw(st.booleans()):
        return overwritten(draw, text)
    point = json.loads(text)
    key = draw(st.sampled_from(["x", "y"]))
    if draw(st.booleans()):
        point[key][draw(st.integers(0, 4))] = draw(AWKWARD)
    else:
        point[key] = draw(AWKWARD)
    return json.dumps(point).encode()


def exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return rc


@pytest.fixture()
def short_solves(monkeypatch):
    config, solve_icl = cli.SolverConfig, cli.solve_icl
    monkeypatch.setattr(cli, "SolverConfig",
                        lambda epsilon: config(epsilon, max_iter=50))
    monkeypatch.setattr(cli, "solve_icl", lambda spec, eps, **kw:
                        solve_icl(spec, eps, max_outer=2, **kw))
    monkeypatch.setattr(icl, "_inner_budget", lambda sched, rate: 50)


@FUZZ
@given(data=st.data())
def test_mutated_instance(instance_bytes, tmp_path, short_solves, data):
    path, point = tmp_path / "inst.nzs", tmp_path / "point.json"
    path.write_bytes(data.draw(mutated_instance(instance_bytes)))
    point.write_text(json.dumps(POINT))
    try:
        read_instance(path)
    except ValueError:
        pass
    for method in ("ogda", "icl"):
        exit_code(["solve", "--method", method, "--instance", str(path),
                   "--rho", "0.01", "--eps", "1e-3",
                   "--out", str(tmp_path / "report.json")])
    exit_code(["gap", "--instance", str(path), "--point", str(point)])


@FUZZ
@given(data=st.data())
def test_mutated_point(instance_bytes, tmp_path, data):
    path, point = tmp_path / "inst.nzs", tmp_path / "point.json"
    path.write_bytes(instance_bytes)
    point.write_bytes(data.draw(mutated_point()))
    try:
        read_point(point)
    except ValueError:
        pass
    exit_code(["gap", "--instance", str(path), "--point", str(point)])


ENTRY = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def tied_vectors(draw):
    """A vector and a second one of its length, their entries drawn from
    one pool of up to five finite values of either sign."""
    pool = st.sampled_from(draw(st.lists(ENTRY, min_size=1, max_size=5)))
    n = draw(st.integers(1, 40))
    vectors = st.lists(pool, min_size=n, max_size=n)
    return np.array(draw(vectors)), np.array(draw(vectors))


@FUZZ
@given(pair=tied_vectors(), hint=st.floats(-2e6, 2e6, allow_nan=False))
def test_simplex_projection(pair, hint):
    v, other = pair
    w = project_simplex(v)
    assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
    # KKT: the active entries share the threshold v_i - w_i and the rest
    # lie at or below it, to rounding at the scale of v's entries
    tol = 4 * np.spacing(max(1.0, float(np.abs(v).max())))
    tau = np.median(v[w > 0] - w[w > 0])
    assert np.all(np.abs(v[w > 0] - w[w > 0] - tau) <= tol)
    assert np.all(v[w == 0] <= tau + tol)
    assert np.array_equal(project_simplex(w), w)
    assert np.array_equal(project_simplex(v, hint), w)
    S = Simplex(v.shape[0])
    S.project(other)
    assert np.array_equal(S.project(v), w)


COORD = st.floats(-1e3, 1e3, allow_nan=False)
UNIT = st.floats(0.0, 1.0)


@st.composite
def fee_games(draw):
    """A fee game with n = m or n != m, a fee in [0, 1] and regularizers
    in [0, 1], its payoff entries uniform on [-1, 1]."""
    n = draw(st.integers(1, 12))
    m = n if draw(st.booleans()) else draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nnz = draw(st.integers(1, n * m))
    idx = rng.choice(n * m, size=nnz, replace=False)
    M = SparseMatrix.from_coo(idx // n, idx % n, rng.uniform(-1, 1, nnz),
                              (m, n))
    return fee_game(M, draw(UNIT), draw(UNIT), draw(UNIT))


def drawn_points(data, spec):
    """Three points z = (x, y) of spec's dimension, entries in COORD."""
    size = spec.X.dimension + spec.Y.dimension
    for _ in range(3):
        yield np.array(data.draw(st.lists(COORD, min_size=size,
                                          max_size=size)))


def assert_operator_bits(data, spec, game):
    """spec.F at drawn points against -(spmv_transpose(A, y) - mu x) and
    -(spmv(B, x) - nu y) of the fee game game, bit for bit."""
    A, B, mu, nu, nx = game.A, game.B, game.reg_mu, game.reg_nu, game.A.n_cols
    for z in drawn_points(data, spec):
        x, y = z[:nx], z[nx:]
        want = np.concatenate([-(spmv_transpose(A, y) - mu * x),
                               -(spmv(B, x) - nu * y)])
        assert spec.F(z).tobytes() == want.tobytes()


def assert_coupling_gradient(data, spec, game):
    """spec.coupling_grad of the fee game game at drawn points against
    -(C' y, C x), C = game.coupling_matrix(), bit for bit, and against
    -(A' y + B' y, A x + B x)/2 within 1e-12 of the larger of L |z|_inf
    and that vector's largest entry."""
    A, B, C, nx = game.A, game.B, game.coupling_matrix(), game.A.n_cols
    for z in drawn_points(data, spec):
        x, y = z[:nx], z[nx:]
        got = spec.coupling_grad(z)
        want = np.concatenate([-spmv_transpose(C, y), -spmv(C, x)])
        assert got.tobytes() == want.tobytes()
        apart = -0.5 * np.concatenate([
            spmv_transpose(A, y) + spmv_transpose(B, y),
            spmv(A, x) + spmv(B, x)])
        scale = max(spec.L * np.abs(z).max(), np.abs(apart).max())
        assert np.abs(got - apart).max() <= 1e-12 * scale


def assert_shifted(data, spec, variant, oracle, kx, ky):
    """variant's oracle is spec's moved by -(kx x, ky y), bit for bit, and
    spec's unmoved when kx = ky = 0."""
    base, got = getattr(spec, oracle), getattr(variant, oracle)
    nx = spec.X.dimension
    for z in drawn_points(data, spec):
        want = base(z)
        if kx or ky:
            want[:nx] -= kx * z[:nx]
            want[nx:] -= ky * z[nx:]
        assert got(z).tobytes() == want.tobytes()


def assert_variants_keep_bits(data, spec):
    """Curvature shifts of spec move F by -2 (u1_x x, u2_y y) and
    coupling_grad by -((u1_x + u2_x) x, (u1_y + u2_y) y); a copy keeps
    both oracles."""
    a, b, c = data.draw(UNIT), data.draw(UNIT), data.draw(UNIT)
    copy = dataclasses.replace(spec, h_structure=None)
    assert copy.F is spec.F and copy.coupling_grad is spec.coupling_grad
    # curvature added to each player's own strategy, to the other's, and
    # moved between the players, which leaves the coupling part alone
    for u1_x, u1_y, u2_x, u2_y in ((-a, 0.0, 0.0, -b), (0.0, c, c, 0.0),
                                   (-a, c, a, -c)):
        variant = spec.shift_curvature(u1_x, u1_y, u2_x, u2_y)
        assert (variant.F is spec.F) == (u1_x == u2_y == 0)
        assert (variant.coupling_grad is spec.coupling_grad) == (
            u1_x + u2_x == u1_y + u2_y == 0)
        assert_shifted(data, spec, variant, "F", 2 * u1_x, 2 * u2_y)
        assert_shifted(data, spec, variant, "coupling_grad", u1_x + u2_x,
                       u1_y + u2_y)


@FUZZ
@given(game=fee_games(), data=st.data())
def test_fee_game_operator(game, data):
    spec = game.game_spec()
    assert_operator_bits(data, spec, game)
    assert_coupling_gradient(data, spec, game)
    assert_variants_keep_bits(data, spec)
    assert_operator_bits(data, reformulate_general(
        spec, data.draw(UNIT) * min(spec.mu, spec.nu) / 2), game)


@FUZZ
@given(game=fee_games(), ratio=st.floats(0.25, 4.0), data=st.data())
def test_bilinear_reformulation_operator(game, ratio, data):
    # regularizers with mu nu >= 4 beta^2, so that the reformulation exists
    beta = game.coupling_norm()
    game = MatrixGame(game.A, game.B, 2 * beta * ratio + 1e-3,
                      2 * beta / ratio + 1e-3)
    spec = reformulate_bilinear(game, beta)
    assert_operator_bits(data, spec, game)
    # player 1 gains -beta2 |y|^2, player 2 -beta1 |x|^2
    beta1, beta2 = _curvature_split(beta, game.reg_mu, game.reg_nu)
    assert_shifted(data, game.game_spec(), spec, "coupling_grad", -beta1,
                   -beta2)


@FUZZ
@given(n_x=st.integers(1, 8), n_y=st.integers(1, 8),
       moduli=st.tuples(*[st.floats(0.0, 2.0)] * 4),
       seed=st.integers(0, 2 ** 32 - 1), share=UNIT, data=st.data())
def test_quadratic_game_operator(n_x, n_y, moduli, seed, share, data):
    mu, nu, delta, coupling = moduli
    spec = gen_quadratic_known_ne(n_x, n_y, mu, nu, delta, coupling, seed)
    assert_variants_keep_bits(data, spec)
    assert reformulate_general(spec, share * min(mu, nu) / 2).F is spec.F


def drawn_set(kind, n, rng):
    if kind == "ball":
        return Ball(rng.standard_normal(n), rng.uniform(0.1, 2.0))
    if kind == "box":
        lo = rng.standard_normal(n)
        return Box(lo, lo + rng.uniform(0.0, 2.0, n))
    return Simplex(n)


@FUZZ
@given(kinds=st.tuples(*[st.sampled_from(["ball", "box", "simplex"])] * 2),
       n_x=st.integers(1, 6), n_y=st.integers(1, 6),
       mu=st.floats(0.5, 2.0), step=st.floats(0.05, 4.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_residual_bounds_the_distance_to_the_solution(kinds, n_x, n_y, mu,
                                                      step, seed):
    # F(z) = A z + b with A's symmetric part diag(d), d >= mu, as a
    # subproblem at eta = inf: icl.check_inexactness with the extraction
    # step from a feasible z returns mu e^2, e = |v|/mu; z* is the fixed
    # point of z -> P(z - (mu/L^2) F(z)), a contraction by
    # rho = sqrt(1 - mu^2/L^2), iterated until |z - z*| <= 1e-13
    rng = np.random.default_rng(seed)
    n = n_x + n_y
    K = rng.standard_normal((n, n))
    K *= 0.5 / np.linalg.norm(K, 2)
    A = K - K.T + np.diag(mu + rng.uniform(0.0, 1.0, n))
    b = 3.0 * rng.standard_normal(n)
    X, Y = drawn_set(kinds[0], n_x, rng), drawn_set(kinds[1], n_y, rng)
    L = np.linalg.norm(A, 2)
    sub = SaddleSubproblem(
        c_x=np.zeros(n_x), c_y=np.zeros(n_y), x_center=np.zeros(n_x),
        y_center=np.zeros(n_y), eta=math.inf, X=X, Y=Y, L_sub=L, mu_sub=mu,
        h_operator=lambda x, y: JointPoint.split(
            A @ np.concatenate([x, y]) + b, n_x))

    def project(z):
        return np.concatenate([X.project(z[:n_x]), Y.project(z[n_x:])])

    gamma, rho = mu / L ** 2, math.sqrt(1.0 - mu ** 2 / L ** 2)
    z_star = project(np.zeros(n))
    for _ in range(100_000):
        z_next = project(z_star - gamma * (A @ z_star + b))
        moved = np.linalg.norm(z_next - z_star)
        z_star = z_next
        if moved * rho / (1.0 - rho) <= 1e-13:
            break
    else:
        raise AssertionError("the reference solve did not converge")

    z = project(3.0 * rng.standard_normal(n))
    x, y = z[:n_x], z[n_x:]
    gx, gy = sub.operator(x, y)
    gamma = step / L
    cand = JointPoint(X.project(x - gamma * gx), Y.project(y - gamma * gy))
    bound = icl.check_inexactness(sub, cand, None, (x, y, gx, gy, gamma))
    dist = np.linalg.norm(cand.concat() - z_star)
    assert dist <= math.sqrt(bound / mu) * (1 + 1e-9) + 1e-12
