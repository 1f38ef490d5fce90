import math

import numpy as np
import pytest

from oracles import fd_gradient
from qotlab.geometry import build_spread, delta
from qotlab.measures import make_measure, uniform_ball_grid
from qotlab.qot_solver import DualPotentials, SolverConfig, solve
from qotlab.surrogate import (
    ConvexSurrogate,
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


def test_psi_star_outside_hull_is_inf(grid_surrogate):
    _, _, s = grid_surrogate
    assert math.isinf(eval_psi_star(s, [1.5]))


def test_fenchel_young(grid_surrogate):
    mu, _, s = grid_surrogate
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, size=1)
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


def test_minty_solves_resolvent_equation(grid_surrogate):
    _, _, s = grid_surrogate
    rng = np.random.default_rng(31)
    for u in rng.uniform(-2.0, 2.0, size=(40, 1)):
        x_prime, grad = minty_reflect(s, u)
        _, grad_check = eval_psi(s, x_prime)
        assert np.linalg.norm(x_prime + grad_check - u) <= 1e-8
        assert np.abs(grad - grad_check).max() <= 1e-8
        F = x_prime - grad
        assert np.abs(x_prime - 0.5 * (u + F)).max() <= 1e-12


def test_minty_map_is_one_lipschitz(grid_surrogate):
    _, _, s = grid_surrogate
    rng = np.random.default_rng(32)
    for _ in range(100):
        u, v = rng.uniform(-2.0, 2.0, size=(2, 1))
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


def test_surrogate_export_schema(grid_surrogate):
    _, _, s = grid_surrogate
    record = s.to_dict()
    assert set(record) == {"slopes", "intercepts", "lambda"}
    assert record["lambda"] == pytest.approx(s.lam)
