import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from nzs.sets import Ball, Box, ProductSet, Simplex, project_simplex


def brute_force_simplex_argmin(v, steps=400):
    """Grid search of the projection objective over the 2-simplex."""
    best, best_val = None, np.inf
    for i in range(steps + 1):
        t = i / steps
        w = np.array([t, 1.0 - t])
        val = np.sum((w - v) ** 2)
        if val < best_val:
            best, best_val = w, val
    return best


ALL_SETS = [
    Simplex(5),
    Ball(np.zeros(4), 2.5),
    Ball(np.array([1.0, -2.0]), 0.7),
    Box(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 3.0])),
    ProductSet([Simplex(3), Ball(np.zeros(2), 1.0), Box([-1.0], [4.0])]),
]


class TestProjection:
    def test_simplex_already_feasible(self):
        S = Simplex(2)
        assert S.project(np.array([0.5, 0.5])).tolist() == [0.5, 0.5]

    def test_simplex_vertex_case_vs_grid(self):
        S = Simplex(2)
        v = np.array([2.0, 0.0])
        got = S.project(v)
        ref = brute_force_simplex_argmin(v)
        assert np.allclose(got, [1.0, 0.0], atol=1e-12)
        assert np.linalg.norm(got - ref) <= 5e-3  # grid resolution

    def test_simplex_interior_thresholding(self):
        S = Simplex(3)
        got = S.project(np.array([0.6, 0.3, -0.4]))
        # sort-threshold by hand: support {1,2}, tau = (0.9 - 1)/2 = -0.05
        assert np.allclose(got, [0.65, 0.35, 0.0], atol=1e-12)

    def test_ball_radial_scaling(self):
        B = Ball(np.zeros(2), 1.0)
        assert np.allclose(B.project(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_box_clip(self):
        B = Box([-1.0, 0.0], [1.0, 2.0])
        assert B.project(np.array([5.0, -3.0])).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("S", ALL_SETS, ids=repr)
    def test_nonexpansive(self, S):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            v = rng.standard_normal(S.dimension) * 3
            w = rng.standard_normal(S.dimension) * 3
            pv, pw = S.project(v), S.project(w)
            assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-12

    @pytest.mark.parametrize("S", ALL_SETS, ids=repr)
    def test_idempotent(self, S):
        rng = np.random.default_rng(22)
        for _ in range(50):
            p = S.project(rng.standard_normal(S.dimension) * 2)
            assert np.array_equal(S.project(p), p)

    @pytest.mark.parametrize("S", ALL_SETS, ids=repr)
    def test_result_feasible(self, S):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = S.project(rng.standard_normal(S.dimension) * 5)
            assert S.contains(p, tol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Simplex(3).project(np.zeros(4))

    @pytest.mark.parametrize("S", ALL_SETS, ids=repr)
    def test_input_untouched(self, S):
        rng = np.random.default_rng(30)
        for scale in (0.1, 5.0):  # inside and outside the bounded sets
            v = rng.standard_normal(S.dimension) * scale
            v[::2] = -0.0
            before = v.copy()
            S.project(v)
            S.project(v, out=np.empty(S.dimension))
            assert np.array_equal(v, before)
            assert np.array_equal(np.signbit(v), np.signbit(before))


class TestConstructors:
    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan])
    def test_ball_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="radius"):
            Ball(np.zeros(2), radius)

    @pytest.mark.parametrize("center", [[np.nan, 0.0], [np.inf, 0.0]])
    def test_ball_center_must_be_finite(self, center):
        with pytest.raises(ValueError, match="center"):
            Ball(center, 1.0)

    @pytest.mark.parametrize("lo, hi", [([0.0, np.nan], [1.0, 1.0]),
                                        ([0.0, 0.0], [np.nan, 1.0]),
                                        ([np.nan], [np.nan]),
                                        ([0.0, 2.0], [1.0, 1.0]),
                                        ([0.0], [1.0, 2.0])])
    def test_box_requires_ordered_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="lo <= hi"):
            Box(lo, hi)

    def test_box_allows_infinite_bounds(self):
        B = Box([-np.inf, 0.0], [np.inf, np.inf])
        assert B.project(np.array([-5.0, -5.0])).tolist() == [-5.0, 0.0]

    def test_simplex_needs_a_coordinate(self):
        with pytest.raises(ValueError):
            Simplex(0)


class TestLmo:
    def test_simplex_vertex(self):
        assert Simplex(2).lmo(np.array([1.0, 2.0])).tolist() == [1.0, 0.0]

    def test_simplex_tie_lowest_index(self):
        assert Simplex(3).lmo(np.array([1.0, 1.0, 1.0])).tolist() == [1.0, 0.0, 0.0]

    def test_ball_closed_form(self):
        B = Ball(np.zeros(2), 2.0)
        c = np.array([3.0, 4.0])
        assert np.allclose(B.lmo(c), -2.0 * c / 5.0)

    def test_box_corner_vs_bruteforce(self):
        B = Box([0.0, 0.0], [1.0, 2.0])
        c = np.array([-1.0, 3.0])
        corners = [np.array(p) for p in itertools.product([0.0, 1.0], [0.0, 2.0])]
        ref = min(corners, key=lambda w: c @ w)
        got = B.lmo(c)
        assert got.tolist() == [1.0, 0.0]
        assert c @ got == pytest.approx(c @ ref)

    @pytest.mark.parametrize("S", ALL_SETS, ids=repr)
    def test_lmo_optimality(self, S):
        rng = np.random.default_rng(24)
        for _ in range(25):
            c = rng.standard_normal(S.dimension)
            v_lmo = float(c @ S.lmo(c))
            for _ in range(40):
                w = S.project(rng.standard_normal(S.dimension) * 3)
                assert v_lmo <= c @ w + 1e-10

    @pytest.mark.parametrize("S", ALL_SETS, ids=repr)
    def test_lmo_feasible(self, S):
        rng = np.random.default_rng(25)
        for _ in range(20):
            assert S.contains(S.lmo(rng.standard_normal(S.dimension)), 1e-12)


class TestDiameter:
    def test_ball(self):
        assert Ball(np.zeros(3), 1.5).diameter() == 3.0

    def test_simplex_matches_vertex_pairs(self):
        for n in (2, 3, 7):
            S = Simplex(n)
            verts = np.eye(n)
            ref = max(np.linalg.norm(verts[i] - verts[j])
                      for i in range(n) for j in range(n))
            assert S.diameter() == pytest.approx(ref)
            assert S.diameter() == pytest.approx(np.sqrt(2.0))

    def test_singleton_simplex(self):
        assert Simplex(1).diameter() == 0.0

    def test_box(self):
        assert Box([0.0, 0.0], [3.0, 4.0]).diameter() == 5.0

    def test_product_composition(self):
        P = ProductSet([Simplex(4), Simplex(3)])
        assert P.diameter() == pytest.approx(2.0)

    def test_product_general(self):
        parts = [Ball(np.zeros(2), 1.0), Box([0.0], [1.0])]
        P = ProductSet(parts)
        assert P.diameter() == pytest.approx(np.sqrt(4.0 + 1.0))


def reference_project_simplex(v):
    """The sort-and-threshold rule (Duchi et al. 2008): sort, np.cumsum,
    np.arange per call; project_simplex agrees with it to a few ulps."""
    n = v.shape[0]
    if n == 1:
        return np.ones(1)
    if v.min() >= 0.0 and abs(v.sum() - 1.0) <= 1e-12:
        return v.copy()
    u = np.sort(v)[::-1]
    cs = np.cumsum(u)
    k = np.count_nonzero(u * np.arange(1.0, n + 1) > cs - 1.0) - 1
    tau = (cs[k] - 1.0) / (k + 1)
    w = v - tau
    np.maximum(w, 0.0, out=w)
    return w


def newton_project_simplex(v):
    """project_simplex's rule written plainly from the mean excess:
    passes at the shifted threshold until the active count repeats, then
    at the threshold itself until it stops falling; project_simplex must
    match it bit for bit."""
    n = v.shape[0]
    if n == 1:
        return np.ones(1)
    if v.min() >= 0.0 and abs(v.sum() - 1.0) <= 1e-12:
        return v.copy()
    tau, last = (v.sum() - 1.0) / n, -1
    for slack in (2.0 ** -30, 0.0):
        while True:
            active = v > tau - slack * (1.0 + abs(tau))
            count = active.sum()
            if count == last or (slack == 0.0 and count > last):
                break
            assert count > 0  # no case here needs the shift by max(v)
            last = count
            tau = (v @ active - 1.0) / count
    w = np.maximum(v - tau, 0.0)
    if count * abs(tau) > 256.0:
        w[active] = newton_project_simplex(w[active])
    return w


def exact_project_simplex(v):
    """The projection of v's exact values in rational arithmetic, with
    the threshold max over k of (v[0] + ... + v[k-1] - 1)/k, v sorted in
    descending order."""
    q = [Fraction(float(x)) for x in v]
    u = sorted(q, reverse=True)
    tau = max((sum(u[:k]) - 1) / k for k in range(1, len(u) + 1))
    return [max(x - tau, Fraction(0)) for x in q]


def ulps(v):
    """A few units in the last place at the scale of v's entries and 1."""
    return 4 * np.spacing(max(1.0, float(np.abs(v).max())))


def bitwise_cases():
    rng = np.random.default_rng(27)
    cases = [rng.standard_normal(rng.integers(2, 300)) * s
             for s in (1e-3, 1.0, 4.0) for _ in range(20)]
    cases += [rng.integers(-3, 4, size=50).astype(float) / 4  # many ties
              for _ in range(10)]
    cases += [np.full(7, 0.3), np.array([0.5, 0.5, 0.5, -0.5]),
              np.zeros(5), np.array([-0.0, 0.0, 1.0])]
    cases += [rng.dirichlet(np.ones(n)) for n in (2, 10, 100)]  # feasible
    cases += [rng.dirichlet(np.ones(40)) + 1e-13,                 # near it
              np.array([2.5]), np.array([-7.0])]                  # n = 1
    cases += [rng.standard_normal(100) * 1e12,                    # large
              rng.standard_normal(1000) * 1e-2 + 1e-3]
    return cases


class TestSimplexProjectionFunction:
    def test_bitwise_equal_to_reference(self):
        for v in bitwise_cases():
            ref = newton_project_simplex(v)
            assert np.array_equal(project_simplex(v), ref)
            assert np.array_equal(Simplex(v.shape[0]).project(v), ref)

    def test_within_a_few_ulps_of_the_sort_rule(self):
        for v in bitwise_cases():
            gap = np.abs(project_simplex(v) - reference_project_simplex(v))
            assert gap.max() <= ulps(v)

    def test_exact_in_rational_arithmetic(self):
        rng = np.random.default_rng(28)
        cases = [rng.integers(-4, 5, size=rng.integers(2, 9)) / 4.0
                 for _ in range(40)]
        cases += [rng.standard_normal(rng.integers(2, 9)) * s
                  for s in (0.1, 1.0, 30.0) for _ in range(20)]
        for v in cases:
            got = project_simplex(v)
            want = exact_project_simplex(v)
            assert all(abs(Fraction(float(g)) - x) <= Fraction(ulps(v))
                       for g, x in zip(got, want))

    @pytest.mark.parametrize("shift", [-3.0, -1e-9, 1e-9, 0.4, "max"])
    def test_a_hint_anywhere_gives_the_cold_bits(self, shift):
        # projecting v + c has threshold tau + c: it leaves the next
        # projection a hint below the root (c < 0), above it (c > 0), or
        # at or above max(v)
        for v in bitwise_cases():
            if v.shape[0] == 1:
                continue
            c = v.max() - v.min() + 1.0 if shift == "max" else shift
            S = Simplex(v.shape[0])
            S.project(v + c)
            assert np.array_equal(S.project(v), project_simplex(v))

    def test_a_hint_carried_along_a_drifting_sequence(self):
        rng = np.random.default_rng(29)
        for n, scale in ((50, 1e-3), (1000, 1e-5)):
            S, v = Simplex(n), rng.standard_normal(n) * 0.01 + 1.0 / n
            for _ in range(300):
                v = v + rng.standard_normal(n) * scale
                assert np.array_equal(S.project(v), project_simplex(v))

    def test_input_untouched(self):
        for v in bitwise_cases():
            before = v.copy()
            Simplex(v.shape[0]).project(v)
            assert np.array_equal(v, before)

    def test_mass_one(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            w = project_simplex(rng.standard_normal(rng.integers(1, 30)) * 4)
            assert np.all(w >= 0)
            assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("v", [[1e6 / 3] * 3, [999999.9] * 7,
                                   [123456.7] * 11 + [0.5]])
    def test_ties_near_1e6_keep_mass_one_and_idempotence(self, v):
        # max(v - tau, 0) rounds at the scale of tau; the sort rule's
        # results missed mass 1 by 6e-11 to 9e-10 and moved when projected
        # again
        w = project_simplex(np.array(v))
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.array_equal(project_simplex(w), w)

    def test_non_finite_input_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            project_simplex(np.array([np.inf, 0.0, 0.5]))

    def test_feasible_where_the_threshold_rounds_away(self):
        # at 1e17 even max(v) - 1 rounds to max(v), so no entry stays
        # active; the projection of v - max(v) is returned instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = project_simplex(np.array([1e17, 1e17 + 64, 0.0]))
        assert w.tolist() == [0.0, 1.0, 0.0]


def ball_project_by_norm(ball, v):
    """Ball.project written with np.linalg.norm, the reference."""
    d = v - ball.center
    nd = np.linalg.norm(d)
    if nd <= ball.radius * (1.0 + 1e-12):
        return v.copy()
    return ball.center + d * (ball.radius / nd)


class TestBallNormIsBitwise:
    @pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e8, 1e150])
    def test_project_matches_linalg_norm(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 200)
        ball = Ball(rng.standard_normal(6) * scale, 1.3 * scale)
        for _ in range(300):
            d = rng.standard_normal(6)
            d *= rng.choice([0.5, 0.999999, 1.0, 1.0 + 1e-13, 1.5, 40.0]) \
                * ball.radius / np.linalg.norm(d)
            v = ball.center + d  # inside, on, and outside the boundary
            p = ball.project(v)
            assert np.array_equal(p, ball_project_by_norm(ball, v))
            assert np.array_equal(ball.project(p),
                                  ball_project_by_norm(ball, p))

    def test_lmo_matches_linalg_norm(self):
        rng = np.random.default_rng(9)
        ball = Ball(rng.standard_normal(5), 2.0)
        for scale in (1e-150, 1.0, 1e150):
            c = rng.standard_normal(5) * scale
            want = ball.center - c * (ball.radius / np.linalg.norm(c))
            assert np.array_equal(ball.lmo(c), want)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_out_keeps_bits(make_set, v, history=()):
    """project(v, out=v) and project(v, out=o) return their out with the
    bits of project(v), each on a fresh make_set() that first projected
    history (a Simplex carries its threshold as the next one's hint)."""
    sets = [make_set() for _ in range(3)]
    for S in sets:
        for h in history:
            S.project(h)
    want = sets[0].project(v)
    w = v.copy()
    assert sets[1].project(w, out=w) is w
    assert_same_bits(w, want)
    o = np.full(v.shape, np.nan)
    assert sets[2].project(v, out=o) is o
    assert_same_bits(o, want)
    return want


def ball_cases(ball):
    """Points inside, on and outside the ball, with -0.0 entries."""
    rng = np.random.default_rng(31)
    n = ball.dimension
    cases = []
    for scale in (0.5, 1.0, 1.0 + 1e-13, 1.5, 40.0):
        d = rng.standard_normal(n)
        d[::3] = 0.0
        v = ball.center + d * (scale * ball.radius / np.linalg.norm(d))
        v[v == 0.0] = -0.0  # moves no distance
        cases.append(v)
    cases += [np.full(n, -0.0), -np.abs(ball.center)]
    return cases


class TestProjectInto:
    def test_simplex_keeps_bits(self):
        cases = bitwise_cases() + [np.array(v) for v in (
            [1e6 / 3] * 3, [999999.9] * 7,        # |tau| > 256: projected
            [123456.7] * 11 + [0.5],              # once more
            [1e17, 1e17 + 64, 0.0])]              # shifted by max(v)
        for v in cases:
            n = v.shape[0]
            want = assert_out_keeps_bits(lambda: Simplex(n), v)
            assert np.array_equal(want, project_simplex(v))
            if n > 1:  # hints below the root and at or above max(v)
                for c in (-0.5, v.max() - v.min() + 1.0):
                    assert_out_keeps_bits(lambda: Simplex(n), v, [v + c])

    def test_simplex_carried_hint_keeps_bits(self):
        rng = np.random.default_rng(32)
        fresh, into = Simplex(200), Simplex(200)
        v = rng.standard_normal(200) * 0.01 + 1.0 / 200
        for _ in range(200):
            v = v + rng.standard_normal(200) * 1e-4
            w = v.copy()
            into.project(w, out=w)
            assert_same_bits(w, fresh.project(v))
            assert into._tau == fresh._tau

    @pytest.mark.parametrize("center", [np.zeros(7), np.full(7, -0.0),
                                        np.linspace(-2.0, 3.0, 7)],
                             ids=["origin", "negative-zero", "off-origin"])
    def test_ball_keeps_bits(self, center):
        ball = Ball(center, 1.7)
        for v in ball_cases(ball):
            want = assert_out_keeps_bits(lambda: ball, v)
            assert_same_bits(want, ball_project_by_norm(ball, v))

    def test_box_keeps_bits(self):
        rng = np.random.default_rng(33)
        box = Box([-1.0, 0.0, -np.inf, 2.0, -0.0],
                  [1.0, 0.5, 0.0, 3.0, np.inf])
        for _ in range(50):
            v = rng.standard_normal(5) * 3
            v[rng.integers(5)] = -0.0
            assert_out_keeps_bits(lambda: box, v)

    def test_product_keeps_bits(self):
        def make():
            return ProductSet([Simplex(4), Ball(np.zeros(3), 1.0),
                               Box([-1.0, 0.0], [1.0, 2.0]),
                               Ball(np.array([1.0, -2.0]), 0.7)])
        rng = np.random.default_rng(34)
        for scale in (0.1, 1.0, 5.0):
            for _ in range(20):
                v = rng.standard_normal(11) * scale
                v[::4] = -0.0
                assert_out_keeps_bits(make, v, [v + 0.3])

    @pytest.mark.parametrize("S", ALL_SETS, ids=repr)
    def test_wrong_shape_raises(self, S):
        n = S.dimension
        v, out = np.zeros(n), np.zeros(n)
        for bad_v, bad_out in ((v, np.zeros(n + 1)), (np.zeros(n - 1), out),
                               (v, np.zeros((n, 1))), (np.zeros(n + 1),
                                                       np.zeros(n + 1))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                S.project(bad_v, out=bad_out)
