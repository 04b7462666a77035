import numpy as np
import pytest

from nzs.games import JointPoint, grad_g


def affine_structure(game):
    """(monotonicity, coupling_convexity, coupling_smoothness) of a game
    whose operators F and grad g are affine, read off their Jacobians,
    formed column by column: the least eigenvalue of each symmetrized
    Jacobian, and the spectral norm of grad g's Jacobian.

    They bound every secant: <F(z') - F(z), z' - z> / |z' - z|^2 is at
    least the first, the same quotient of grad g at least the second, and
    |grad g(z') - grad g(z)| / |z' - z| at most the third.
    """
    nx = game.X.dimension
    n = nx + game.Y.dimension

    def coupling_gradient(z):
        return grad_g(game, JointPoint.split(z, nx)).concat()

    def jacobian(f):
        f0 = f(np.zeros(n))
        return np.column_stack([f(e) - f0 for e in np.eye(n)])

    def least_eigenvalue(J):
        return float(np.linalg.eigvalsh(0.5 * (J + J.T))[0])

    JF, JG = jacobian(game.F), jacobian(coupling_gradient)
    return (least_eigenvalue(JF), least_eigenvalue(JG),
            float(np.linalg.norm(JG, 2)))


@pytest.fixture
def structure():
    return affine_structure
