import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_gradient, minty_map, psi_star_lp, quadratic_detachment, simplex_qp
from qotlab.geometry import build_spread, delta
from qotlab.measures import make_measure, uniform_ball_grid
from qotlab.qot_solver import DualPotentials, SolverConfig, solve
from qotlab.surrogate import (
    HULL_TOL,
    ConvexSurrogate,
    build_surrogate,
    eval_psi,
    eval_psi_prime,
    eval_psi_star,
    minty_reflect,
)


@pytest.fixture(scope="module")
def grid_surrogate():
    """Surrogate of a solved d=1 self-transport grid (the workhorse probe target)."""
    mu = uniform_ball_grid(1, 0.1)
    cfg = SolverConfig(epsilon=0.01)
    pot = solve(mu, mu, cfg)
    d_eps = delta(build_spread(mu), cfg.epsilon)
    return mu, pot, build_surrogate(pot, mu, d_eps)


@pytest.fixture(scope="module")
def grid_surrogate_d2():
    """Surrogate of a solved d=2 self-transport grid: the face-enumeration
    path, which d=1 surrogates do not take."""
    mu = uniform_ball_grid(2, 0.25)
    cfg = SolverConfig(epsilon=0.01)
    pot = solve(mu, mu, cfg)
    d_eps = delta(build_spread(mu), cfg.epsilon)
    return mu, pot, build_surrogate(pot, mu, d_eps)


@pytest.fixture(params=["grid_surrogate", "grid_surrogate_d2"], ids=["d1", "d2"])
def any_surrogate(request):
    return request.getfixturevalue(request.param)


def _one_piece(slope, intercept, lam):
    return ConvexSurrogate(
        slopes=np.array([[float(slope)]]),
        intercepts=np.array([float(intercept)]),
        lam=lam,
    )


def test_one_piece_constant_surrogate():
    # single nu-atom at the origin with g = 0.05: psi_tilde = 0.05 everywhere,
    # and the envelope of an affine piece is the piece itself
    nu = make_measure([0.0], [1.0])
    pot = DualPotentials(f_values=np.array([0.05]), g_values=np.array([0.05]), epsilon=0.1)
    s = build_surrogate(pot, nu, 0.1)
    assert s.lam == pytest.approx(0.2)
    xs = np.array([[-0.7], [0.0], [0.3]])
    vals, grads = eval_psi(s, xs)
    assert vals.shape == (3,) and grads.shape == (3, 1)
    assert np.allclose(vals, 0.05, atol=1e-12)
    assert np.allclose(grads, 0.0, atol=1e-12)
    assert np.allclose(s.psi_tilde(xs), 0.05, atol=1e-15)


def test_one_piece_gradient_is_slope():
    s = _one_piece(0.3, 0.1, lam=0.05)
    xs = np.array([-1.0, 0.2, 2.0])
    vals, grads = eval_psi(s, xs[:, None])
    assert np.allclose(grads, 0.3, atol=1e-12)
    # envelope of an affine function shifts down by lam |slope|^2 / 2
    assert np.allclose(vals, 0.3 * xs - 0.1 - 0.05 * 0.09 / 2.0, atol=1e-12)


def test_two_piece_envelope_rounds_the_kink():
    # symmetric V with slopes +-1 and kink at the origin
    s = ConvexSurrogate(
        slopes=np.array([[1.0], [-1.0]]),
        intercepts=np.array([0.0, 0.0]),
        lam=0.2,
    )
    (far_val, kink_val, _), grads = eval_psi(s, [[1.0], [0.0], [0.1]])
    far_grad, kink_grad, mid_grad = grads[:, 0]
    assert far_grad == pytest.approx(1.0, abs=1e-12)
    assert far_val == pytest.approx(1.0 - 0.1, abs=1e-12)  # psi_tilde - lam/2
    assert abs(kink_grad) <= 1e-12
    assert kink_val == pytest.approx(0.0, abs=1e-12)  # quadratic cap bottoms at 0
    # inside the smoothing window the gradient interpolates
    assert 0.0 < mid_grad < 1.0


def test_envelope_gap_bounds(grid_surrogate):
    mu, _, s = grid_surrogate
    xs = np.random.default_rng(3).uniform(-1.2, 1.2, size=(40, 1))
    gap = s.psi_tilde(xs) - eval_psi(s, xs)[0]
    assert np.all(-1e-12 <= gap) and np.all(gap <= s.lam / 2.0 + 1e-12)


def test_gradient_matches_finite_differences(grid_surrogate):
    _, _, s = grid_surrogate
    xs = np.random.default_rng(11).uniform(-1.0, 1.0, size=(20, 1))
    _, grads = eval_psi(s, xs)
    for x, grad in zip(xs, grads):
        fd = fd_gradient(lambda z: eval_psi(s, z)[0][0], x)
        assert np.abs(grad - fd).max() <= 1e-6


def test_gradient_is_one_lipschitz_bounded(grid_surrogate):
    _, _, s = grid_surrogate
    _, grads = eval_psi(s, np.random.default_rng(12).uniform(-1.5, 1.5, size=(50, 1)))
    assert np.linalg.norm(grads, axis=1).max() <= 1.0 + 1e-12


def test_gradient_monotone(grid_surrogate):
    _, _, s = grid_surrogate
    x, z = np.random.default_rng(13).uniform(-1.0, 1.0, size=(2, 50, 1))
    _, gx = eval_psi(s, x)
    _, gz = eval_psi(s, z)
    assert (((gx - gz) * (x - z)).sum(axis=1) >= -1e-9).all()


def test_psi_star_point_conjugate():
    nu = make_measure([0.0], [1.0])
    pot = DualPotentials(f_values=np.array([0.05]), g_values=np.array([0.05]), epsilon=0.1)
    s = build_surrogate(pot, nu, 0.1)
    # b_0 + (lam/2)|y_0|^2 with b_0 = -0.05 and y_0 = 0
    assert eval_psi_star(s, [[0.0]])[0] == pytest.approx(-0.05, abs=1e-10)


def test_psi_star_outside_hull_is_inf(any_surrogate):
    _, _, s = any_surrogate
    assert np.isinf(eval_psi_star(s, np.full((2, s.slopes.shape[1]), 1.5))).all()


# the triangle Y = {(0,0), (1,0), (0,1)} with zero intercepts, and its
# edge along the first axis as a d=1 surrogate
_TRIANGLE = ConvexSurrogate(slopes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                            intercepts=np.zeros(3), lam=0.1)
_EDGE = ConvexSurrogate(slopes=np.array([[0.0], [1.0]]), intercepts=np.zeros(2), lam=0.1)


def test_psi_star_boundary_rule_is_shared_across_dimensions():
    # points 1e-11 beyond either end of the edge count as inside the hull in
    # both dimensions (the d >= 2 LP admits them within its feasibility
    # tolerance); points 1e-9 beyond are outside in both
    assert HULL_TOL == 1e-11
    near = np.array([[1.0 + 1e-11, 0.0], [-1e-11, 0.0]])
    far = np.array([[1.0 + 1e-9, 0.0], [-1e-9, 0.0]])
    star1, star2 = eval_psi_star(_EDGE, near[:, :1]), eval_psi_star(_TRIANGLE, near)
    assert np.isfinite(star1).all() and np.isfinite(star2).all()
    assert np.abs(star1 - star2).max() <= 1e-12
    assert np.isinf(eval_psi_star(_EDGE, far[:, :1])).all()
    assert np.isinf(eval_psi_star(_TRIANGLE, far)).all()


def test_psi_star_takes_the_nearest_hull_value_in_every_dimension():
    # with intercepts, a point 1e-11 beyond the edge's end takes the end
    # vertex's value in d=2 as in d=1, not a value extrapolated along the
    # edge; 1e-10 beyond either end is outside in both dimensions
    tri = ConvexSurrogate(slopes=_TRIANGLE.slopes, intercepts=np.array([0.1, -0.2, 0.3]), lam=0.1)
    edge = ConvexSurrogate(slopes=_EDGE.slopes, intercepts=np.array([0.1, -0.2]), lam=0.1)
    near = np.array([[-1e-11, 0.0]])
    assert abs(eval_psi_star(tri, near)[0] - eval_psi_star(edge, near[:, :1])[0]) <= 1e-15
    far = np.array([[-1e-10, 0.0], [1.0 + 1e-10, 0.0]])
    assert np.isinf(eval_psi_star(tri, far)).all()
    assert np.isinf(eval_psi_star(edge, far[:, :1])).all()
    # points just inside the edge take the triangle's affine value, not the
    # edge's (nor +inf, for the edge's point 1e-8 away)
    t, h = np.meshgrid(np.linspace(0.05, 0.9, 50), [1e-9, 1e-8])
    inside = np.column_stack([t.ravel(), h.ravel()])
    exact = 0.1 - 0.3 * inside[:, 0] + 0.2 * inside[:, 1] + 0.05 * (inside**2).sum(axis=1)
    assert np.abs(eval_psi_star(tri, inside) - exact).max() <= 1e-15


def test_fenchel_young(any_surrogate):
    mu, _, s = any_surrogate
    rng = np.random.default_rng(21)
    x = rng.uniform(-1.0, 1.0, size=(50, s.slopes.shape[1]))
    y = rng.dirichlet(np.ones(len(mu)), size=50) @ s.slopes
    val, _ = eval_psi(s, x)
    assert (val + eval_psi_star(s, y) - (x * y).sum(axis=1) >= -1e-9).all()


def test_psi_prime_single_atom():
    mu = make_measure([0.25], [1.0])
    s = _one_piece(0.3, 0.1, lam=0.05)
    val, _ = eval_psi(s, mu.atoms)
    assert eval_psi_prime(mu, val, [[0.3]])[0] == pytest.approx(0.25 * 0.3 - val[0], abs=1e-12)


def test_psi_prime_below_full_conjugate(grid_surrogate):
    mu, _, s = grid_surrogate
    ys = mu.atoms[::3]
    prime = eval_psi_prime(mu, eval_psi(s, mu.atoms)[0], ys)
    assert (prime <= eval_psi_star(s, ys) + 1e-9).all()


def test_minty_identity_for_zero_function():
    s = _one_piece(0.0, 0.0, lam=0.3)  # psi identically 0
    u = np.array([[0.4]])
    x_prime, grad = minty_reflect(s, u)
    assert x_prime[0, 0] == pytest.approx(0.4, abs=1e-12)
    assert grad[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert minty_map(s, u)[0, 0] == pytest.approx(0.4, abs=1e-12)


def test_minty_linear_shift():
    # affine psi with slope a: x' = u - a and F(u) = u - 2a
    a, b = 0.3, 0.1
    s = _one_piece(a, b, lam=0.2)
    u = np.array([[0.5]])
    x_prime, grad = minty_reflect(s, u)
    assert x_prime[0, 0] == pytest.approx(0.5 - a, abs=1e-12)
    assert grad[0, 0] == pytest.approx(a, abs=1e-12)
    assert minty_map(s, u)[0, 0] == pytest.approx(0.5 - 2 * a, abs=1e-12)


def test_minty_solves_resolvent_equation(any_surrogate):
    _, _, s = any_surrogate
    u = np.random.default_rng(31).uniform(-2.0, 2.0, size=(40, s.slopes.shape[1]))
    x_prime, grad = minty_reflect(s, u)
    _, grad_check = eval_psi(s, x_prime)
    assert np.linalg.norm(x_prime + grad_check - u, axis=1).max() <= 1e-8
    assert np.abs(grad - grad_check).max() <= 1e-8
    F = x_prime - grad
    assert np.abs(x_prime - 0.5 * (u + F)).max() <= 1e-12


def test_minty_map_is_one_lipschitz(any_surrogate):
    _, _, s = any_surrogate
    u, v = np.random.default_rng(32).uniform(-2.0, 2.0, size=(2, 100, s.slopes.shape[1]))
    Fu = minty_map(s, u)
    Fv = minty_map(s, v)
    assert (np.linalg.norm(Fu - Fv, axis=1) <= np.linalg.norm(u - v, axis=1) + 1e-10).all()


def test_detachment_at_gradient_pair(grid_surrogate):
    _, _, s = grid_surrogate
    x = np.array([[0.35]])
    _, y = eval_psi(s, x)
    gap, lower = quadratic_detachment(s, x, y)
    assert abs(gap[0]) <= 1e-8
    assert lower[0] <= gap[0] + 1e-8


def test_detachment_random_probes(grid_surrogate):
    mu, _, s = grid_surrogate
    rng = np.random.default_rng(41)
    x = rng.uniform(-1.0, 1.0, size=(50, 1))
    y = rng.dirichlet(np.ones(len(mu)), size=50) @ s.slopes
    gap, lower = quadratic_detachment(s, x, y)
    assert (gap >= lower - 1e-8).all()
    # key estimate: gap also dominates |x - x'|^2 for the resolvent at x + y
    x_prime, grad = minty_reflect(s, x + y)
    sq = ((x - x_prime) ** 2).sum(axis=1)
    assert (gap >= sq - 1e-8).all()
    assert np.allclose(sq, ((y - grad) ** 2).sum(axis=1), atol=1e-8)


def test_detachment_outside_hull_is_refusal(grid_surrogate):
    _, _, s = grid_surrogate
    gap, lower = quadratic_detachment(s, [[0.2], [0.2]], [[1.5], [0.0]])
    assert math.isinf(gap[0]) and math.isfinite(gap[1])
    assert (lower >= 0.0).all()


def _batch_probes(s, rng):
    """Random points, the slopes, points beyond the slopes' hull, and
    repeats of all of these, in shuffled order."""
    d = s.slopes.shape[1]
    pts = np.concatenate([
        rng.uniform(-1.5, 1.5, size=(12, d)), s.slopes, s.slopes + 0.4, np.full((2, d), 1.5),
    ])
    pts = np.concatenate([pts, pts[::3]])
    return pts[rng.permutation(len(pts))]


def test_batch_equals_rows_one_at_a_time(any_surrogate):
    # a row's result does not depend on the batch it is evaluated in
    mu, _, s = any_surrogate
    pts = _batch_probes(s, np.random.default_rng(51))
    psi_mu = eval_psi(s, mu.atoms)[0]
    batch = [*eval_psi(s, pts), eval_psi_star(s, pts), *minty_reflect(s, pts),
             eval_psi_prime(mu, psi_mu, pts)]
    assert np.isinf(batch[2]).any() and np.isfinite(batch[2]).any()
    for k, pt in enumerate(pts):
        row = [*eval_psi(s, pt[None]), eval_psi_star(s, pt[None]), *minty_reflect(s, pt[None]),
               eval_psi_prime(mu, psi_mu, pt[None])]
        for got, want in zip(batch, row):
            assert got[k].tobytes() == want[0].tobytes(), k


# Tolerances of the surrogate against the QP and LP oracles, set from the
# oracles' own stopping rules.  HiGHS runs at feasibility tolerance 1e-10, so
# psi* may differ by about that times the intercept scale.  The active-set QP
# stops once no slope undercuts its working set by more than kkt_tol = 1e-10,
# which moves the optimal slope by at most
# kkt_tol / (gamma * spacing) <= 1e-10 / (0.01 * 1/8) = 8e-8 for the slope
# lattices and lam range below, and the envelope value by 2 lam times that.
STAR_TOL = 1e-9
GRAD_TOL = 1e-7
VALUE_TOL = 1e-8

_DYADIC = st.integers(-16, 16).map(lambda k: k / 16.0)


@st.composite
def d1_surrogates(draw):
    """1-12 slopes on a 1/8 lattice in [-1, 1] (so duplicates and ties are
    common) with random or lattice intercepts; optionally a subset of the
    lifted points lies exactly on one line."""
    m = draw(st.integers(1, 12))
    y = np.array(draw(st.lists(st.integers(-8, 8), min_size=m, max_size=m))) / 8.0
    b = np.array(draw(st.lists(
        st.one_of(st.floats(-1.0, 1.0, allow_nan=False), _DYADIC), min_size=m, max_size=m
    )))
    on_line = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    if draw(st.booleans()):
        c0, c1 = draw(_DYADIC), draw(_DYADIC)
        b[on_line] = c0 + c1 * y[on_line]  # exact in binary floating point
    lam = draw(st.floats(0.01, 1.0))
    return ConvexSurrogate(slopes=y[:, None], intercepts=b, lam=lam)


def _prox_probes(s, gamma, extra):
    """Points at vertex regions, on every breakpoint, inside every segment
    and beyond both ends of the prox map with curvature gamma."""
    v, _, m = s.hull
    # vertex k owns [gamma v_k + walls_k, gamma v_k + walls_{k+1}]; the end
    # vertices' unbounded sides are cut at distance 1
    walls = np.concatenate([m[:1] - 1.0, m, m[-1:] + 1.0]) if len(m) else np.array([-1.0, 1.0])
    return np.concatenate([
        gamma * v[:-1] + m,                     # segment starts
        gamma * v[1:] + m,                      # segment ends
        gamma * 0.5 * (v[:-1] + v[1:]) + m,     # segment midpoints
        gamma * v + 0.5 * (walls[:-1] + walls[1:]),  # inside vertex regions
        gamma * s.slopes[:, 0],
        [gamma * v[0] - 2.0, gamma * v[-1] + 2.0],
        extra,
    ])


@settings(max_examples=50, deadline=None)
@given(
    s=d1_surrogates(),
    extra=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    outside=st.floats(1e-6, 1.0),
)
def test_d1_closed_forms_match_qp_and_lp(s, extra, outside):
    y, b = s.slopes[:, 0], s.intercepts
    v, h, m = s.hull
    # lower hull: distinct vertices spanning the slopes, strictly convex,
    # on or below every lifted point
    assert v[0] == y.min() and v[-1] == y.max()
    assert np.all(np.diff(v) > 0) and np.all(np.diff(m) > 0)
    assert np.all(np.interp(y, v, h) <= b + 1e-12)

    # the slopes, the midpoints between sorted slopes, the extremes, and
    # points beyond either end
    sorted_y = np.unique(y)
    star_probes = np.concatenate([
        y, 0.5 * (sorted_y[:-1] + sorted_y[1:]), [y.min(), y.max()],
        [y.min() - outside, y.max() + outside],
    ])
    _assert_matches_oracles(
        s, star_probes[:, None], lambda gamma: _prox_probes(s, gamma, extra)[:, None]
    )


def _twice(fn, probes) -> list:
    """The parts of fn's result on one batch that holds every probe twice,
    the second time in reverse order; both copies of a row agree bit for bit."""
    out = fn(np.concatenate([probes, probes[::-1]]))
    n = len(probes)
    parts = out if isinstance(out, tuple) else (out,)
    for part in parts:
        assert part[:n].tobytes() == part[n:][::-1].tobytes()
    return [part[:n] for part in parts]


def _assert_matches_oracles(s, star_probes, prox_probes):
    """psi* against the LP at star_probes, and the resolvent, grad psi and psi
    against the QP at prox_probes(gamma), gamma = lam + 1 and lam."""
    Y, b = s.slopes, s.intercepts
    for pt, got in zip(star_probes, _twice(lambda p: eval_psi_star(s, p), star_probes)[0]):
        ref = psi_star_lp(s, pt)
        if math.isinf(ref):
            assert math.isinf(got), pt
        else:
            assert abs(got - (ref + 0.5 * s.lam * pt @ pt)) <= STAR_TOL, pt

    probes = prox_probes(s.lam + 1.0)
    for u, xp_u, g_u in zip(probes, *_twice(lambda p: minty_reflect(s, p), probes)):
        ref = Y.T @ simplex_qp(Y, b, u, s.lam + 1.0)
        assert np.abs(g_u - ref).max() <= GRAD_TOL, u
        assert np.abs(xp_u - (u - ref)).max() <= GRAD_TOL, u

    probes = prox_probes(s.lam)
    for x, val, g_x in zip(probes, *_twice(lambda p: eval_psi(s, p), probes)):
        ref = Y.T @ simplex_qp(Y, b, x, s.lam)
        ref_val = s.psi_tilde(x - s.lam * ref)[0] + 0.5 * s.lam * ref @ ref
        assert np.abs(g_x - ref).max() <= GRAD_TOL, x
        assert abs(val - ref_val) <= VALUE_TOL, x


@st.composite
def lattice_surrogates(draw, d):
    """1-12 slopes on a 1/8 lattice in [-1/4, 1/4]^d, so repeated, collinear,
    coplanar and cocircular slopes are common, or a whole 5x5 or 3x3x3
    lattice; with random or lattice intercepts, or with every lifted point
    exactly on one hyperplane or one paraboloid (cocircular slopes then give
    coplanar lifted points, and Qhull's triangulation of a whole 3x3x3
    lattice's paraboloid leaves zero-volume simplices)."""
    if draw(st.booleans()):
        w = 2 if d == 2 else 1
        Y = np.array(list(itertools.product(range(-w, w + 1), repeat=d))) / 8.0
        m = len(Y)
    else:
        m = draw(st.integers(1, 12))
        cells = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        Y = np.array(draw(st.lists(cells, min_size=m, max_size=m))) / 8.0
    kind = draw(st.sampled_from(["random", "lattice", "affine", "paraboloid"]))
    if kind == "random":
        b = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    elif kind == "lattice":
        b = np.array(draw(st.lists(_DYADIC, min_size=m, max_size=m)))
    else:
        # exact in binary floating point
        c = np.array(draw(st.lists(_DYADIC, min_size=d + 1, max_size=d + 1)))
        b = c[0] + Y @ c[1:] + (0.5 * (Y * Y).sum(axis=1) if kind == "paraboloid" else 0.0)
    return ConvexSurrogate(slopes=Y, intercepts=b, lam=draw(st.floats(0.01, 1.0)))


@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hull_faces_match_qp_and_lp(d, data):
    s = data.draw(lattice_surrogates(d))
    Y = s.slopes
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    outside = data.draw(st.floats(1e-6, 1.0))
    # beyond the slopes' extreme along a unit direction: that far outside
    # the hull
    dirs = rng.normal(size=(4, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    beyond = Y[np.argmax(Y @ dirs.T, axis=0)] + outside * dirs
    star_probes = np.concatenate([
        Y, 0.5 * (Y + np.roll(Y, 1, axis=0)), rng.dirichlet(np.ones(len(Y)), 8) @ Y, beyond,
    ])
    extra = rng.uniform(-3.0, 3.0, size=(12, d))
    _assert_matches_oracles(
        s, star_probes, lambda gamma: np.concatenate([gamma * Y, gamma * Y + 0.05, extra])
    )
