import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_gradient
from qotlab.geometry import build_spread, delta
from qotlab.measures import make_measure, uniform_ball_grid
from qotlab.qot_solver import DualPotentials, SolverConfig, solve
from qotlab.surrogate import (
    ConvexSurrogate,
    _psi_star_lp,
    _simplex_qp,
    build_surrogate,
    eval_psi,
    eval_psi_prime,
    eval_psi_star,
    minty_map,
    minty_reflect,
    quadratic_detachment,
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
    """Surrogate of a solved d=2 self-transport grid: the active-set QP and
    LP path, which d=1 surrogates no longer take."""
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
    for x in (-0.7, 0.0, 0.3):
        val, grad = eval_psi(s, [x])
        assert val == pytest.approx(0.05, abs=1e-12)
        assert grad[0] == pytest.approx(0.0, abs=1e-12)
        assert s.psi_tilde([x]) == pytest.approx(0.05, abs=1e-15)


def test_one_piece_gradient_is_slope():
    s = _one_piece(0.3, 0.1, lam=0.05)
    for x in (-1.0, 0.2, 2.0):
        val, grad = eval_psi(s, [x])
        assert grad[0] == pytest.approx(0.3, abs=1e-12)
        # envelope of an affine function shifts down by lam |slope|^2 / 2
        assert val == pytest.approx(0.3 * x - 0.1 - 0.05 * 0.09 / 2.0, abs=1e-12)


def test_two_piece_envelope_rounds_the_kink():
    # symmetric V with slopes +-1 and kink at the origin
    s = ConvexSurrogate(
        slopes=np.array([[1.0], [-1.0]]),
        intercepts=np.array([0.0, 0.0]),
        lam=0.2,
    )
    far_val, far_grad = eval_psi(s, [1.0])
    assert far_grad[0] == pytest.approx(1.0, abs=1e-12)
    assert far_val == pytest.approx(1.0 - 0.1, abs=1e-12)  # psi_tilde - lam/2
    kink_val, kink_grad = eval_psi(s, [0.0])
    assert abs(kink_grad[0]) <= 1e-12
    assert kink_val == pytest.approx(0.0, abs=1e-12)  # quadratic cap bottoms at 0
    # inside the smoothing window the gradient interpolates
    _, mid_grad = eval_psi(s, [0.1])
    assert 0.0 < mid_grad[0] < 1.0


def test_envelope_gap_bounds(grid_surrogate):
    mu, _, s = grid_surrogate
    rng = np.random.default_rng(3)
    for x in rng.uniform(-1.2, 1.2, size=40):
        val, _ = eval_psi(s, [x])
        gap = s.psi_tilde([x]) - val
        assert -1e-12 <= gap <= s.lam / 2.0 + 1e-12


def test_gradient_matches_finite_differences(grid_surrogate):
    _, _, s = grid_surrogate
    rng = np.random.default_rng(11)
    for x in rng.uniform(-1.0, 1.0, size=(20, 1)):
        _, grad = eval_psi(s, x)
        fd = fd_gradient(lambda z: eval_psi(s, z)[0], x.astype(float))
        assert np.abs(grad - fd).max() <= 1e-6


def test_gradient_is_one_lipschitz_bounded(grid_surrogate):
    _, _, s = grid_surrogate
    rng = np.random.default_rng(12)
    for x in rng.uniform(-1.5, 1.5, size=(50, 1)):
        _, grad = eval_psi(s, x)
        assert np.linalg.norm(grad) <= 1.0 + 1e-12


def test_gradient_monotone(grid_surrogate):
    _, _, s = grid_surrogate
    rng = np.random.default_rng(13)
    for _ in range(50):
        x, z = rng.uniform(-1.0, 1.0, size=(2, 1))
        _, gx = eval_psi(s, x)
        _, gz = eval_psi(s, z)
        assert float((gx - gz) @ (x - z)) >= -1e-9


def test_psi_star_point_conjugate():
    nu = make_measure([0.0], [1.0])
    pot = DualPotentials(f_values=np.array([0.05]), g_values=np.array([0.05]), epsilon=0.1)
    s = build_surrogate(pot, nu, 0.1)
    # b_0 + (lam/2)|y_0|^2 with b_0 = -0.05 and y_0 = 0
    assert eval_psi_star(s, [0.0]) == pytest.approx(-0.05, abs=1e-10)


def test_psi_star_outside_hull_is_inf(any_surrogate):
    _, _, s = any_surrogate
    assert math.isinf(eval_psi_star(s, np.full(s.slopes.shape[1], 1.5)))


def test_fenchel_young(any_surrogate):
    mu, _, s = any_surrogate
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=s.slopes.shape[1])
        theta = rng.dirichlet(np.ones(len(mu)))
        y = s.slopes.T @ theta
        val, _ = eval_psi(s, x)
        star = eval_psi_star(s, y)
        assert val + star - float(x @ y) >= -1e-9


def test_psi_prime_single_atom():
    mu = make_measure([0.25], [1.0])
    s = _one_piece(0.3, 0.1, lam=0.05)
    val, _ = eval_psi(s, [0.25])
    assert eval_psi_prime(s, mu, [0.3]) == pytest.approx(0.25 * 0.3 - val, abs=1e-12)


def test_psi_prime_below_full_conjugate(grid_surrogate):
    mu, _, s = grid_surrogate
    psi_cache = np.array([eval_psi(s, atom)[0] for atom in mu.atoms])
    for y in mu.atoms[::3]:
        prime = eval_psi_prime(s, mu, y, psi_at_atoms=psi_cache)
        full = eval_psi_star(s, y)
        assert prime <= full + 1e-9


def test_minty_identity_for_zero_function():
    s = _one_piece(0.0, 0.0, lam=0.3)  # psi identically 0
    u = np.array([0.4])
    x_prime, grad = minty_reflect(s, u)
    assert x_prime[0] == pytest.approx(0.4, abs=1e-12)
    assert grad[0] == pytest.approx(0.0, abs=1e-12)
    assert minty_map(s, u)[0] == pytest.approx(0.4, abs=1e-12)


def test_minty_linear_shift():
    # affine psi with slope a: x' = u - a and F(u) = u - 2a
    a, b = 0.3, 0.1
    s = _one_piece(a, b, lam=0.2)
    u = np.array([0.5])
    x_prime, grad = minty_reflect(s, u)
    assert x_prime[0] == pytest.approx(0.5 - a, abs=1e-12)
    assert grad[0] == pytest.approx(a, abs=1e-12)
    assert minty_map(s, u)[0] == pytest.approx(0.5 - 2 * a, abs=1e-12)


def test_minty_solves_resolvent_equation(any_surrogate):
    _, _, s = any_surrogate
    rng = np.random.default_rng(31)
    for u in rng.uniform(-2.0, 2.0, size=(40, s.slopes.shape[1])):
        x_prime, grad = minty_reflect(s, u)
        _, grad_check = eval_psi(s, x_prime)
        assert np.linalg.norm(x_prime + grad_check - u) <= 1e-8
        assert np.abs(grad - grad_check).max() <= 1e-8
        F = x_prime - grad
        assert np.abs(x_prime - 0.5 * (u + F)).max() <= 1e-12


def test_minty_map_is_one_lipschitz(any_surrogate):
    _, _, s = any_surrogate
    rng = np.random.default_rng(32)
    for _ in range(100):
        u, v = rng.uniform(-2.0, 2.0, size=(2, s.slopes.shape[1]))
        Fu = minty_map(s, u)
        Fv = minty_map(s, v)
        assert np.linalg.norm(Fu - Fv) <= np.linalg.norm(u - v) + 1e-10


def test_detachment_at_gradient_pair(grid_surrogate):
    _, _, s = grid_surrogate
    x = np.array([0.35])
    _, y = eval_psi(s, x)
    gap, lower = quadratic_detachment(s, x, y)
    assert abs(gap) <= 1e-8
    assert lower <= gap + 1e-8


def test_detachment_random_probes(grid_surrogate):
    mu, _, s = grid_surrogate
    rng = np.random.default_rng(41)
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=1)
        theta = rng.dirichlet(np.ones(len(mu)))
        y = s.slopes.T @ theta
        gap, lower = quadratic_detachment(s, x, y)
        assert gap >= lower - 1e-8
        # key estimate: gap also dominates |x - x'|^2 for the resolvent at x + y
        x_prime, grad = minty_reflect(s, x + y)
        assert gap >= float(((x - x_prime) ** 2).sum()) - 1e-8
        assert np.allclose(
            ((x - x_prime) ** 2).sum(), ((y - grad) ** 2).sum(), atol=1e-8
        )


def test_detachment_outside_hull_is_refusal(grid_surrogate):
    _, _, s = grid_surrogate
    gap, lower = quadratic_detachment(s, np.array([0.2]), np.array([1.5]))
    assert math.isinf(gap)
    assert lower >= 0.0


# Tolerances of the d=1 closed forms against the QP and LP oracles, set from
# the oracles' own stopping rules.  HiGHS runs at feasibility tolerance
# 1e-10, so psi* may differ by about that times the intercept scale.  The
# active-set QP stops once no slope undercuts its working set by more than
# KKT_TOL = 1e-10, which moves the optimal slope by at most
# KKT_TOL / (gamma * spacing) <= 1e-10 / (0.01 * 1/8) = 8e-8 for the slope
# lattice and lam range below, and the envelope value by 2 lam times that.
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

    sorted_y = np.unique(y)
    star_probes = np.concatenate([
        y, 0.5 * (sorted_y[:-1] + sorted_y[1:]), [y.min(), y.max()],
        [y.min() - outside, y.max() + outside],
    ])
    for pt in star_probes:
        ref = _psi_star_lp(s, np.array([pt]))
        got = eval_psi_star(s, [pt])
        if math.isinf(ref):
            assert math.isinf(got), pt
        else:
            assert abs(got - (ref + 0.5 * s.lam * pt * pt)) <= STAR_TOL, pt

    for u in _prox_probes(s, s.lam + 1.0, extra):
        ref = y @ _simplex_qp(s.slopes, b, np.array([u]), s.lam + 1.0)
        x_prime, g = minty_reflect(s, [u])
        assert abs(g[0] - ref) <= GRAD_TOL, u
        assert abs(x_prime[0] - (u - ref)) <= GRAD_TOL, u

    for x in _prox_probes(s, s.lam, extra):
        ref = y @ _simplex_qp(s.slopes, b, np.array([x]), s.lam)
        z = x - s.lam * ref
        ref_val = s.psi_tilde([z]) + 0.5 * s.lam * ref * ref
        val, g = eval_psi(s, [x])
        assert abs(g[0] - ref) <= GRAD_TOL, x
        assert abs(val - ref_val) <= VALUE_TOL, x
