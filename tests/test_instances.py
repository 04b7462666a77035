import numpy as np
import pytest

from nzs.instances import (MatrixGame, _curvature_split,
                           _sample_without_replacement,
                           apply_transaction_fee, fee_game,
                           gen_quadratic_known_ne, gen_sparse_experiment,
                           matching_pennies, reformulate_bilinear,
                           reformulate_general, split_pos_neg,
                           stackelberg_example, stackelberg_reference_points)
from nzs.solvers import SolverConfig, solve_eg, solve_ogda
from nzs.vecmat import SparseMatrix, spectral_norm

M_EXAMPLE = np.array([[300.0, -200.0], [-100.0, 400.0]])


def random_sparse(seed, m=12, n=9, nnz=40):
    rng = np.random.default_rng(seed)
    idx = rng.choice(m * n, nnz, replace=False)
    return SparseMatrix.from_coo(idx // n, idx % n,
                                 rng.uniform(-1, 1, nnz), (m, n))


class TestSplitPosNeg:
    def test_hand_example(self):
        M = SparseMatrix.from_dense(M_EXAMPLE)
        P, N = split_pos_neg(M)
        assert P.to_dense().tolist() == [[300.0, 0.0], [0.0, 400.0]]
        assert N.to_dense().tolist() == [[0.0, 200.0], [100.0, 0.0]]

    def test_all_zero(self):
        M = SparseMatrix(2, 2, [0, 1, 2], [0, 1], [0.0, 0.0])
        P, N = split_pos_neg(M)
        assert not np.any(P.values) and not np.any(N.values)

    def test_reconstruction_elementwise(self):
        M = random_sparse(31)
        P, N = split_pos_neg(M)
        for pv, nv, mv in zip(P.values, N.values, M.values):
            assert pv >= 0 and nv >= 0
            assert pv - nv == mv  # exact


class TestTransactionFee:
    def test_hand_example_exact(self):
        M = SparseMatrix.from_dense(M_EXAMPLE)
        A, B = apply_transaction_fee(M, 0.01)
        assert A.to_dense().tolist() == [[297.0, -200.0], [-100.0, 396.0]]
        assert B.to_dense().tolist() == [[-300.0, 198.0], [99.0, -400.0]]

    def test_zero_fee_recovers_zero_sum(self):
        M = random_sparse(32)
        A, B = apply_transaction_fee(M, 0.0)
        assert np.array_equal(A.values, M.values)
        assert np.array_equal(B.values, -M.values)

    def test_rho_out_of_range(self):
        M = random_sparse(33)
        with pytest.raises(ValueError):
            apply_transaction_fee(M, 1.5)
        with pytest.raises(ValueError):
            apply_transaction_fee(M, -0.1)

    def test_sum_is_scaled_absolute_matrix(self):
        # A + B = -rho |M| elementwise, so |(A+B)/2| = (rho/2) | |M| |
        M = random_sparse(34)
        rho = 0.37
        A, B = apply_transaction_fee(M, rho)
        lhs = A.values + B.values
        rhs = -rho * np.abs(M.values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-15 * max(1, np.max(np.abs(rhs)))
        absM = M.with_values(np.abs(M.values))
        coupling = MatrixGame(A, B).coupling_matrix()
        assert spectral_norm(coupling, tol=1e-10) == pytest.approx(
            0.5 * rho * spectral_norm(absM, tol=1e-10), rel=1e-6)

    def test_competitive_component_is_scaled_original(self):
        # (A - B)/2 = (1 - rho/2) M elementwise
        M = random_sparse(35)
        rho = 0.2
        A, B = apply_transaction_fee(M, rho)
        K = MatrixGame(A, B).competitive_matrix()
        assert np.allclose(K.values, (1 - rho / 2) * M.values, rtol=1e-14)


def shifts(game, spec):
    """(beta1, beta2) as read off a reformulated spec's h_structure."""
    return (game.reg_mu - spec.h_structure.ax,
            game.reg_nu - spec.h_structure.ay)


# gen_sparse_experiment(100, 80, 800, 7, 1e-4, 1.0) at rho = 0.0009 with
# the header's L = norm + rho norm_abs + max(mu, nu); the spec's L
# (L + 2 max(beta1, beta2)) and, for a game given no norms ("L=None"),
# smoothness() + 2 max(beta1, beta2), then mu, nu, delta,
# monotone_modulus, h_structure.ax, .ay
FEE_REFORMULATED = {
    "L": (2.0182301277428945, 2.016500807547136),
    "mu": 5e-05, "nu": 0.5, "delta": 0.009115063871447272,
    "monotone_modulus": 5e-05, "ax": 5e-05, "ay": 0.991535493819333,
}


class TestReformulateBilinear:
    def test_case_both_small(self):
        g = fee_game(random_sparse(36), 0.0, 0.3, 0.5)
        spec = reformulate_bilinear(g, 0.1)
        assert spec.h_structure.ax == 0.3 - 0.1
        assert spec.h_structure.ay == 0.5 - 0.1

    def test_case_mu_small(self):
        g = fee_game(random_sparse(37), 0.0, 0.1, 1.0)
        beta1, beta2 = shifts(g, reformulate_bilinear(g, 0.1))
        assert beta1 == pytest.approx(0.05)
        assert beta2 == pytest.approx(0.2)
        assert beta1 * beta2 == pytest.approx(0.01)

    def test_case_nu_small(self):
        g = fee_game(random_sparse(38), 0.0, 1.0, 0.1)
        beta1, beta2 = shifts(g, reformulate_bilinear(g, 0.1))
        assert beta2 == pytest.approx(0.05)
        assert beta1 == pytest.approx(0.2)

    def test_invariants_across_random_cases(self):
        # the spec stores mu - beta1 and nu - beta2, which round beta1 and
        # beta2 to a unit in the last place of mu and nu, so the product
        # is checked on the split the spec is built from
        rng = np.random.default_rng(39)
        for _ in range(50):
            mu, nu = rng.uniform(0.05, 2.0, 2)
            beta = rng.uniform(0.0, 0.5 * np.sqrt(mu * nu))
            spec = reformulate_bilinear(
                fee_game(random_sparse(40), 0.0, mu, nu), beta)
            beta1, beta2 = _curvature_split(beta, mu, nu)
            assert spec.h_structure.ax == mu - beta1
            assert spec.h_structure.ay == nu - beta2
            assert beta1 <= mu / 2 + 1e-15
            assert beta2 <= nu / 2 + 1e-15
            if beta > 0:
                assert abs(beta1 * beta2 - beta ** 2) <= 1e-14 * beta ** 2

    def test_precondition_violation(self):
        g = fee_game(random_sparse(41), 0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            reformulate_bilinear(g, 1.0)

    def test_reformulated_coupling_is_jointly_convex(self, structure):
        M = random_sparse(42, 8, 8, 30)
        mu = nu = 1.0
        game = fee_game(M, 0.05, mu, nu)
        beta = game.coupling_norm()
        assert beta <= 0.5 * np.sqrt(mu * nu)
        spec = reformulate_bilinear(game, beta)
        _, convexity, smoothness = structure(spec)
        assert convexity >= -1e-9
        assert smoothness <= spec.delta + 1e-9

    def test_equilibrium_preserved(self):
        # both the raw and the reformulated game solved by the baseline
        # must land on the same equilibrium
        M = random_sparse(43, 3, 3, 7)
        mu = nu = 1.0
        game = fee_game(M, 0.08, mu, nu)
        spec_raw = game.game_spec()
        spec_ref = reformulate_bilinear(game, game.coupling_norm())
        cfg = SolverConfig(epsilon=1e-17)
        z_raw = solve_eg(spec_raw, cfg).point
        z_ref = solve_eg(spec_ref, cfg).point
        assert z_raw.distance_to(z_ref) <= 1e-8

    @pytest.mark.parametrize("base_L", [True, False], ids=["L", "L=None"])
    def test_golden_fee_instance_bit_for_bit(self, base_L):
        mu, nu, rho = 1e-4, 1.0, 0.0009
        _, data = gen_sparse_experiment(100, 80, 800, 7, mu, nu)
        norms = (data["norm"], data["norm_abs"]) if base_L else None
        game = fee_game(data["M"], rho, mu, nu, norms)
        spec = reformulate_bilinear(game, 0.5 * rho * data["norm_abs"])
        hs, want = spec.h_structure, FEE_REFORMULATED
        assert spec.L == want["L"][0 if base_L else 1]
        assert (spec.mu, spec.nu, spec.delta, spec.monotone_modulus,
                hs.ax, hs.ay) == (want["mu"], want["nu"], want["delta"],
                                  want["monotone_modulus"], want["ax"],
                                  want["ay"])
        assert not hs.bx.any() and not hs.by.any()
        assert (hs.bx.shape, hs.by.shape) == ((100,), (80,))


class TestReformulateGeneral:
    def test_zero_beta_is_identity(self):
        game = gen_quadratic_known_ne(4, 4, 1.0, 1.0, 0.2, 0.5, seed=0)
        assert reformulate_general(game, 0.0) is game

    def test_shifted_coupling_stays_monotone(self, structure):
        game = gen_quadratic_known_ne(5, 5, 1.0, 1.2, delta=0.3,
                                      coupling_norm=0.5, seed=1)
        new = reformulate_general(game, 0.25)
        _, convexity, _ = structure(new)
        assert convexity >= -1e-9
        assert new.mu == pytest.approx(game.mu - 0.25)
        assert new.nu == pytest.approx(game.nu - 0.25)
        assert new.delta == pytest.approx(2 * 0.25)

    def test_equilibrium_preserved(self):
        game = gen_quadratic_known_ne(3, 3, 1.0, 1.0, delta=0.2,
                                      coupling_norm=0.6, seed=2)
        new = reformulate_general(game, 0.3)
        cfg = SolverConfig(epsilon=1e-17)
        z_a = solve_eg(game, cfg).point
        z_b = solve_eg(new, cfg).point
        assert z_a.distance_to(z_b) <= 1e-8
        assert z_a.distance_to(game.known_ne) <= 1e-8

    def test_precondition(self):
        game = gen_quadratic_known_ne(3, 3, 0.4, 0.4, 0.2, 0.5, seed=3)
        with pytest.raises(ValueError):
            reformulate_general(game, 0.3)


class TestMatrixGameSpec:
    def test_no_certificate_beyond_monotone_range(self):
        # desk seed 0 at rho = 0.003: beta = 2.06e-3 > sqrt(mu nu)/2 = 5e-4,
        # where min(mu, nu)/2 is no valid modulus
        _, data = gen_sparse_experiment(1000, 1000, 10_000, seed=0,
                                        mu=1e-4, nu=1.0)
        game = fee_game(data["M"], 0.003, 1e-4, 0.01)
        assert game.coupling_norm() > 0.5 * np.sqrt(1e-4 * 0.01)
        spec = game.game_spec()
        assert spec.monotone_modulus == 0
        rep = solve_ogda(spec, SolverConfig(epsilon=1e-7, max_iter=64))
        assert rep.status == "max_iter"
        assert rep.certified_sq_distance is None

    def test_certified_modulus_inside_range(self):
        game = fee_game(random_sparse(44, 8, 8, 30), 0.05, 1.0, 1.0)
        assert 0 < game.coupling_norm() <= 0.5
        assert game.game_spec().monotone_modulus == 0.5
        assert fee_game(random_sparse(44, 8, 8, 30), 0.0, 1.0, 0.8) \
            .game_spec().monotone_modulus == 0.8

    def test_all_fees_of_one_matrix_share_one_joint_layout(self):
        M = random_sparse(45, 12, 9, 40)
        z = np.random.default_rng(45).standard_normal(21)
        rows = None
        for rho in (0.0, 0.0009, 0.5, 1.0):
            game = fee_game(M, rho, 4.0, 4.0)
            beta = game.coupling_norm()
            for spec in (game.game_spec(), reformulate_bilinear(game, beta)):
                spec.F(z)
                assert game.A._layout is game.B._layout is M._layout
                rows = rows or M._layout.joint(M._layout)
                assert M._layout.joint(M._layout) is rows

    def test_no_joint_layout_before_the_first_query(self):
        M = random_sparse(46, 12, 9, 40)
        game = fee_game(M, 0.0009, 0.5, 0.5)
        spec = game.game_spec()
        x, y = spec.X.project(np.ones(9)), spec.Y.project(np.ones(12))
        spec.coupling_grad(np.concatenate([x, y])), spec.u1(x, y)
        reformulate_bilinear(game, game.coupling_norm())
        assert M._layout._joint is None
        spec.F(np.concatenate([x, y]))
        assert M._layout._joint is not None


class TestHeaderConstants:
    @pytest.mark.parametrize("rho", [0.0, 0.0009, 0.5, 1.0])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_header_norms_are_the_matrices_norms(self, normalize, rho):
        # K = (A - B)/2 = (1 - rho/2) M and C = (A + B)/2 = -(rho/2)|M|
        # entrywise, up to the fee arithmetic's rounding on M's scale
        for seed in range(3):
            _, data = gen_sparse_experiment(40, 30, 200, seed, 1.0, 1.0,
                                            normalize=normalize)
            M = data["M"].to_dense()
            game = fee_game(data["M"], rho, 1.0, 1.0,
                            (data["norm"], data["norm_abs"]))
            K = game.competitive_matrix().to_dense()
            C = game.coupling_matrix().to_dense()
            assert np.all(np.abs(K - (1 - rho / 2) * M) <= 2**-52 * np.abs(M))
            assert np.all(np.abs(C + rho / 2 * np.abs(M))
                          <= 2**-52 * np.abs(M))
            w_norm = game.game_spec().h_structure.w_norm()
            assert w_norm == pytest.approx(np.linalg.norm(K, 2), rel=1e-7)
            assert game.coupling_norm() == pytest.approx(
                np.linalg.norm(C, 2), rel=1e-7, abs=0.0)


class TestSparseExperiment:
    def test_deterministic_per_seed(self):
        a, da = gen_sparse_experiment(60, 50, 300, seed=5, mu=1e-4, nu=1.0)
        b, db = gen_sparse_experiment(60, 50, 300, seed=5, mu=1e-4, nu=1.0)
        Ma, Mb = da["M"], db["M"]
        assert np.array_equal(Ma.row_offsets, Mb.row_offsets)
        assert np.array_equal(Ma.col_indices, Mb.col_indices)
        assert np.array_equal(Ma.values, Mb.values)

    def test_seeds_differ(self):
        _, da = gen_sparse_experiment(60, 50, 300, seed=5, mu=1e-4, nu=1.0)
        _, db = gen_sparse_experiment(60, 50, 300, seed=6, mu=1e-4, nu=1.0)
        assert not np.array_equal(da["M"].values, db["M"].values)

    def test_exact_count_at_full_scale(self):
        # the headline protocol: 100000 coordinates in a 10000^2 matrix
        _, data = gen_sparse_experiment(10000, 10000, 100000, seed=0,
                                        mu=1e-4, nu=1.0, normalize=False)
        assert data["M"].nnz == 100000

    def test_normalized_norm_is_one(self):
        _, data = gen_sparse_experiment(200, 200, 2000, seed=7, mu=1e-4, nu=1.0)
        assert abs(spectral_norm(data["M"], tol=1e-9) - 1.0) <= 1e-6

    def test_values_in_range(self):
        _, data = gen_sparse_experiment(40, 40, 500, seed=8, mu=0.0, nu=0.0,
                                        normalize=False)
        assert np.all(np.abs(data["M"].values) <= 1.0)

    def test_nnz_too_large(self):
        with pytest.raises(ValueError):
            gen_sparse_experiment(3, 3, 10, seed=0, mu=0.0, nu=0.0)

    @pytest.mark.parametrize("total,count", [
        (10, 10), (1000, 37), (2 ** 32 - 7, 5), (2 ** 32 + 3, 100),
        (2 ** 40, 3000), (5, 0)])
    def test_one_draw_call_matches_scalar_draws(self, total, count):
        # totals below, across and above 2**32 (ranges total - i cross it)
        def scalar_draws(rng):
            state = {}
            out = np.empty(count, dtype=np.int64)
            for i in range(count):
                j = int(rng.integers(i, total))
                out[i] = state.get(j, j)
                state[j] = state.get(i, i)
            return out

        ref_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
        ref = scalar_draws(ref_rng)
        got = _sample_without_replacement(rng, total, count)
        assert np.array_equal(got, ref)
        assert len(set(got.tolist())) == count
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestQuadraticKnownNe:
    def test_trivial_case_centers_at_origin(self):
        game = gen_quadratic_known_ne(4, 3, 1.0, 1.0, delta=0.0,
                                      coupling_norm=0.0, seed=0)
        assert np.all(game.known_ne.x == 0) and np.all(game.known_ne.y == 0)

    def test_operator_vanishes_at_equilibrium_50_seeds(self):
        for seed in range(50):
            game = gen_quadratic_known_ne(6, 5, 0.5, 1.5, delta=0.4,
                                          coupling_norm=1.0, seed=seed)
            F = game.F(game.known_ne.concat())
            assert np.linalg.norm(F) <= 1e-10

    def test_probe_matches_declared_constants(self, structure):
        game = gen_quadratic_known_ne(5, 5, 0.3, 0.9, delta=0.5,
                                      coupling_norm=0.8, seed=12)
        monotonicity, _, smoothness = structure(game)
        assert monotonicity >= min(0.3, 0.9) - 1e-9
        assert smoothness <= 0.5 + 1e-9


def quad_for_cache(seed=4):
    return gen_quadratic_known_ne(40, 30, 0.3, 0.2, delta=0.4,
                                  coupling_norm=1.0, seed=seed)


class TestQuadraticOneProduct:
    """The joint oracles and utilities of a quadratic game, and the bits
    they return, do not depend on the points queried before."""

    @pytest.mark.parametrize("name", ("F", "coupling_grad"))
    def test_joint_oracle_ignores_the_point_held(self, name):
        z = np.random.default_rng(7).standard_normal(70)
        fresh = getattr(quad_for_cache(), name)(z)
        oracle = getattr(quad_for_cache(), name)
        oracle(z + 1.0)  # another point first
        got = oracle(z)
        assert np.array_equal(got, fresh)
        assert not np.shares_memory(got, z)
        got += 1.0  # a returned array is the caller's own
        assert np.array_equal(oracle(z), fresh)
        z[5] = -z[5]  # the point mutated in place is recomputed
        assert np.array_equal(oracle(z), getattr(quad_for_cache(), name)(z))

    def test_utilities_ignore_the_point_held(self):
        rng = np.random.default_rng(6)
        x, y = rng.standard_normal(40), rng.standard_normal(30)
        want = (quad_for_cache().u1(x, y), quad_for_cache().u2(x, y))
        game = quad_for_cache()
        game.F(np.concatenate([x + 1.0, y]))
        assert (game.u1(x, y), game.u2(x, y)) == want


class TestClosedFormExamples:
    def test_equilibrium_satisfies_variational_inequality(self):
        game = stackelberg_example()
        nash, _ = stackelberg_reference_points()
        fz = game.F(nash.concat())
        zs = nash.concat()
        # corners of the box product
        for cx1 in (0.0, 1.0):
            for cx2 in (1.0, 2.0):
                for cy in (-1.0, 0.0):
                    corner = np.array([cx1, cx2, cy])
                    assert fz @ (corner - zs) >= -1e-10

    def test_reference_points_differ(self):
        nash, stack = stackelberg_reference_points()
        assert nash.distance_to(stack) > 1e-2

    def test_matching_pennies_uniform_equilibrium(self):
        game = matching_pennies()
        z = game.known_ne
        # every pure deviation yields exactly the same payoff as uniform
        u1 = game.u1(z.x, z.y)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            assert game.u1(e, z.y) == pytest.approx(u1, abs=1e-12)
