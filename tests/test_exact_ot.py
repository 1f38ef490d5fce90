import numpy as np
import pytest

from oracles import enumerate_matching_cost, lp_transport_cost
from qotlab.exact_ot import ExactOTError, solve_exact
from qotlab.measures import affine_map, make_measure, pushforward, uniform_ball_grid
from qotlab.qot_solver import SolverConfig, assemble_coupling, cost_matrix, solve

TWO_POINT = make_measure([-1.0, 1.0], [0.5, 0.5])
SHIFTED = make_measure([-0.5, 0.5], [0.5, 0.5])


def _dual_checks(sol):
    C = cost_matrix(sol.mu.atoms, sol.nu.atoms)
    slack = sol.f_star[:, None] + sol.g_star[None, :] - C
    assert slack.max() <= 1e-10  # dual feasibility against the true costs
    dense = sol.coupling.to_dense()
    on_support = slack[dense > 0]
    assert np.abs(on_support).max() <= 2e-9 if len(on_support) else True  # slackness
    duality_gap = (
        float(sol.mu.weights @ sol.f_star + sol.nu.weights @ sol.g_star) - sol.cost
    )
    assert abs(duality_gap) <= 1e-8


def test_self_transport_is_diagonal():
    mu = uniform_ball_grid(1, 0.25)
    sol = solve_exact(mu, mu)
    assert sol.cost == 0.0
    dense = sol.coupling.to_dense()
    assert np.allclose(dense, np.diag(mu.weights), atol=1e-12)
    diag_slack = sol.f_star + sol.g_star  # c = 0 on the diagonal
    assert np.abs(diag_slack).max() <= 2e-9
    _dual_checks(sol)


def test_two_point_monotone_matching():
    sol = solve_exact(TWO_POINT, SHIFTED)
    # enumeration oracle over both matchings picks the monotone one
    assert enumerate_matching_cost(TWO_POINT, SHIFTED) == pytest.approx(0.125)
    assert sol.cost == pytest.approx(0.125, abs=1e-9)
    dense = sol.coupling.to_dense()
    assert dense[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert dense[1, 1] == pytest.approx(0.5, abs=1e-10)
    _dual_checks(sol)


def test_affine_grid_supported_on_map_graph():
    mu = uniform_ball_grid(1, 0.2)
    monge = affine_map([[0.5]])
    nu = pushforward(mu, monge)
    sol = solve_exact(mu, nu)
    dense = sol.coupling.to_dense()
    for i in range(len(mu)):
        assert np.count_nonzero(dense[i]) == 1
        j = int(np.nonzero(dense[i])[0][0])
        assert nu.atoms[j, 0] == pytest.approx(0.5 * mu.atoms[i, 0], abs=1e-12)
    expected = float(mu.weights @ (0.5 * (mu.atoms[:, 0] - 0.5 * mu.atoms[:, 0]) ** 2))
    assert sol.cost == pytest.approx(expected, abs=1e-9)
    _dual_checks(sol)


def test_marginal_feasibility():
    mu = make_measure([-0.9, 0.2, 0.8], [0.3, 0.45, 0.25])
    nu = make_measure([-0.5, 0.0, 0.6], [0.2, 0.5, 0.3])
    sol = solve_exact(mu, nu)
    assert np.abs(sol.coupling.row_sums - mu.weights).max() <= 1e-10
    assert np.abs(sol.coupling.col_sums - nu.weights).max() <= 1e-10
    _dual_checks(sol)


def test_cost_matches_lp_oracle_random():
    rng = np.random.default_rng(5)
    for trial in range(4):
        atoms_mu = np.unique(np.round(rng.uniform(-0.7, 0.7, size=(4, 2)), 6), axis=0)
        atoms_nu = np.unique(np.round(rng.uniform(-0.7, 0.7, size=(5, 2)), 6), axis=0)
        wa = rng.uniform(0.2, 1.0, size=len(atoms_mu))
        wb = rng.uniform(0.2, 1.0, size=len(atoms_nu))
        mu = make_measure(atoms_mu, wa / wa.sum())
        nu = make_measure(atoms_nu, wb / wb.sum())
        sol = solve_exact(mu, nu)
        assert sol.cost == pytest.approx(lp_transport_cost(mu, nu), abs=1e-8)
        _dual_checks(sol)


def test_exact_cost_lower_bounds_regularized_cost():
    mu = uniform_ball_grid(1, 0.2)
    monge = affine_map([[0.5]])
    nu = pushforward(mu, monge)
    sol = solve_exact(mu, nu)
    for eps in (0.1, 0.01):
        cfg = SolverConfig(epsilon=eps)
        pot = solve(mu, nu, cfg)
        cpl = assemble_coupling(pot, mu, nu, cfg)
        assert cpl.cost_against(mu.atoms, nu.atoms) >= sol.cost - 1e-9


def test_atom_cap():
    mu = uniform_ball_grid(1, 0.5)
    big = make_measure(
        np.linspace(-1.0, 1.0, 5001)[:, None], np.full(5001, 1.0 / 5001)
    )
    with pytest.raises(ExactOTError, match="cap"):
        solve_exact(big, mu)
