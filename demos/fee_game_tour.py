"""A walking tour of regularized matrix games with transaction fees.

Starts from a 2x2 zero-sum game, applies a 1% fee on every payment,
inspects how the fee splits the game into a competitive part and a small
common-loss part, and solves the resulting game with all three methods.

Run: python demos/fee_game_tour.py
"""

import numpy as np

from nzs import (JointPoint, MatrixGame, SolverConfig, SparseMatrix,
                 apply_transaction_fee, fee_game, grad_g, reformulate_bilinear,
                 solve_eg, solve_icl, solve_ogda, spectral_norm,
                 split_pos_neg)

# A zero-sum game: entry (i, j) is the payment from the column player to
# the row player when they play pure strategies j and i.
M = SparseMatrix.from_dense(np.array([[300.0, -200.0],
                                      [-100.0, 400.0]]))

print("payoff matrix M:")
print(M.to_dense())

# Split positive payments (row player receives) from negative ones.
M_plus, M_minus = split_pos_neg(M)
print("\npayments to the row player:")
print(M_plus.to_dense())
print("payments to the column player:")
print(M_minus.to_dense())

# A third party takes a cut rho of every payment, so each player receives
# only (1 - rho) of what the opponent loses. The game stops being zero-sum.
rho = 0.01
A, B = apply_transaction_fee(M, rho)
print(f"\npost-fee payoffs at rho = {rho:.0%}:")
print("row player:")
print(A.to_dense())
print("column player:")
print(B.to_dense())

# The average payoff -(A + B)/2 is the common loss both players pay to the
# fee collector; its size is (rho/2) |abs(M)| in spectral norm.
game = MatrixGame(A, B, reg_mu=0.0, reg_nu=0.0)
C = game.coupling_matrix()
absM = M.with_values(np.abs(M.values))
print(f"\ncommon-loss matrix norm: {spectral_norm(C):.3f}"
      f" = rho/2 * {spectral_norm(absM):.3f}")
assert np.isclose(spectral_norm(C), rho / 2 * spectral_norm(absM), rtol=1e-9)

spec = game.game_spec()
z = JointPoint(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
cg = grad_g(spec, z)
print(f"coupling gradient at pure strategies (1,0)/(1,0): "
      f"x-part {cg.x}, y-part {cg.y}")

# Now a softly regularized version on a bigger random game, solved three
# ways. Regularization makes the equilibrium unique and certifiable.
rng = np.random.default_rng(0)
n = 60
idx = rng.choice(n * n, 400, replace=False)
Mr = SparseMatrix.from_coo(idx // n, idx % n, rng.uniform(-1, 1, 400), (n, n))
Mr = Mr.scaled(1.0 / spectral_norm(Mr))
mu, nu = 0.05, 1.0
rho = 0.002
game = fee_game(Mr, rho, mu, nu)
beta = game.coupling_norm()
eps = 1e-9

print(f"\nrandom {n}x{n} instance, fee {rho:.2%}, curvatures ({mu}, {nu}):")
for name, run in [
    ("extragradient", lambda: solve_eg(game.game_spec(), SolverConfig(epsilon=eps))),
    ("optimistic", lambda: solve_ogda(game.game_spec(), SolverConfig(epsilon=eps))),
    ("coupling linearization",
     lambda: solve_icl(reformulate_bilinear(game, beta), eps,
                       stop="certificate")),
]:
    rep = run()
    led = rep.ledger
    queries = led.f_queries + led.h_queries + led.g_queries
    print(f"  {name:<24} {queries:>7} queries "
          f"(+{led.cert_queries} for certificates), "
          f"certified squared error {rep.certified_sq_distance:.1e}")
    assert rep.status == "converged" and rep.certified_sq_distance <= eps
