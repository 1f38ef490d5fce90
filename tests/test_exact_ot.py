import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_matching_cost, lp_transport_cost
from qotlab import cli, exact_ot
from qotlab.exact_ot import ExactOTError, _map_coupling, _ssp, solve_exact
from qotlab.measures import affine_map, make_measure, pushforward, uniform_ball_grid
from qotlab.qot_solver import SolverConfig, assemble_coupling, cost_matrix, solve

TWO_POINT = make_measure([-1.0, 1.0], [0.5, 0.5])
SHIFTED = make_measure([-0.5, 0.5], [0.5, 0.5])


def _dual_checks(mu, nu):
    # the Kantorovich potentials of the successive-shortest-paths route
    coupling, f_star, g_star = _ssp(mu, nu)
    cost = coupling.cost_against(mu.atoms, nu.atoms)
    C = cost_matrix(mu.atoms, nu.atoms)
    slack = f_star[:, None] + g_star[None, :] - C
    assert slack.max() <= 1e-10  # dual feasibility against the true costs
    dense = coupling.to_dense()
    on_support = slack[dense > 0]
    assert np.abs(on_support).max() <= 2e-9 if len(on_support) else True  # slackness
    duality_gap = float(mu.weights @ f_star + nu.weights @ g_star) - cost
    assert abs(duality_gap) <= 1e-8


def test_self_transport_is_diagonal():
    mu = uniform_ball_grid(1, 0.25)
    sol = solve_exact(mu, mu)
    assert sol.cost == 0.0
    dense = sol.coupling.to_dense()
    assert np.allclose(dense, np.diag(mu.weights), atol=1e-12)
    _, f_star, g_star = _ssp(mu, mu)
    diag_slack = f_star + g_star  # c = 0 on the diagonal
    assert np.abs(diag_slack).max() <= 2e-9
    _dual_checks(mu, mu)


def test_two_point_monotone_matching():
    sol = solve_exact(TWO_POINT, SHIFTED)
    # enumeration oracle over both matchings picks the monotone one
    assert enumerate_matching_cost(TWO_POINT, SHIFTED) == pytest.approx(0.125)
    assert sol.cost == pytest.approx(0.125, abs=1e-9)
    dense = sol.coupling.to_dense()
    assert dense[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert dense[1, 1] == pytest.approx(0.5, abs=1e-10)
    _dual_checks(TWO_POINT, SHIFTED)


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
    _dual_checks(mu, nu)


def test_marginal_feasibility():
    mu = make_measure([-0.9, 0.2, 0.8], [0.3, 0.45, 0.25])
    nu = make_measure([-0.5, 0.0, 0.6], [0.2, 0.5, 0.3])
    sol = solve_exact(mu, nu)
    assert np.abs(sol.coupling.row_sums - mu.weights).max() <= 1e-10
    assert np.abs(sol.coupling.col_sums - nu.weights).max() <= 1e-10
    _dual_checks(mu, nu)


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
        _dual_checks(mu, nu)


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


# Map route against successive shortest paths.  SSP solves the problem with
# costs floored at 1e-9 and masses rounded at 1e-12, so its cost carries that
# rounding: on the instances below the two routes differ by at most 4.1e-13.
MAP_REL_TOL = 1e-11
MAP_ABS_TOL = 1e-12


def _assert_map_matches_ssp(mu, nu, monge):
    map_cpl = _map_coupling(mu, nu, monge)
    assert map_cpl is not None  # the map certifies
    sol = solve_exact(mu, nu, monge)
    assert sol.cost == map_cpl.cost_against(mu.atoms, nu.atoms)
    # one entry per mu-atom, carrying its whole mass
    assert np.array_equal(sol.coupling.indptr, np.arange(len(mu) + 1))
    assert np.array_equal(sol.coupling.masses, mu.weights)
    ssp_cpl, _, _ = _ssp(mu, nu)
    ssp_cost = ssp_cpl.cost_against(mu.atoms, nu.atoms)
    gap = abs(sol.cost - ssp_cost)
    assert gap <= MAP_ABS_TOL and gap <= MAP_REL_TOL * abs(ssp_cost), (sol.cost, ssp_cost)


@pytest.mark.parametrize(
    "spec",
    cli.SHIPPED_INSTANCES
    + [
        {"name": "bench-affine-a2", "kind": "affine", "a": 2.0, "h": 0.04},
        {"name": "affine-a2-d2", "kind": "affine", "a": 2.0, "d": 2, "h": 0.2},
    ],
    ids=lambda spec: spec["name"],
)
def test_map_route_matches_ssp_on_shipped_instances(spec):
    inst = cli.build_instance(spec)
    _assert_map_matches_ssp(inst.mu, inst.nu, inst.monge)


@st.composite
def _affine_instances(draw):
    """A lattice measure of radius <= 0.3 and a map x -> xA + b with A
    symmetric PSD, |A| <= 2 and |b| <= 0.3, so every image stays inside the
    unit ball.  Eigenvalues are 0 (the images of a line merge) or at least
    0.25: a tiny positive eigenvalue would put distinct nu-atoms within
    SSP's 1e-9 cost resolution of each other, where SSP is no oracle.  A
    map with a zero eigenvalue turns its kernel only to a multiple of pi/4,
    along which lattice atoms either merge or stay 0.07 apart: a kernel
    turned by a tiny angle recreates the near-tie (see
    test_map_route_beats_ssp_on_a_rotated_kernel_near_tie)."""
    d = draw(st.sampled_from([1, 2]))
    side = np.arange(-3, 4) * 0.1
    lattice = np.array(np.meshgrid(*[side] * d)).reshape(d, -1).T
    lattice = lattice[np.linalg.norm(lattice, axis=1) <= 0.3 + 1e-12]
    rows = draw(st.lists(st.integers(0, len(lattice) - 1), min_size=1, max_size=12, unique=True))
    weights = np.array(draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows))))
    mu = make_measure(lattice[sorted(rows)], weights / weights.sum())
    eig = st.one_of(st.just(0.0), st.floats(0.25, 2.0))
    lam = np.array(draw(st.lists(eig, min_size=d, max_size=d)))
    if d == 1:
        A = np.diag(lam)
    else:
        if (lam == 0.0).any():
            theta = draw(st.sampled_from([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4]))
        else:
            theta = draw(
                st.one_of(st.sampled_from([0.0, np.pi / 4, np.pi / 2]), st.floats(0.0, np.pi))
            )
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        A = Q @ np.diag(lam) @ Q.T
        A = 0.5 * (A + A.T)
    b = np.array(draw(st.lists(st.floats(-0.3 / np.sqrt(d), 0.3 / np.sqrt(d)), min_size=d, max_size=d)))
    return mu, affine_map(A, b)


@settings(max_examples=60, deadline=None)
@given(_affine_instances())
def test_map_route_matches_ssp_on_drawn_affine_maps(instance):
    mu, monge = instance
    nu = pushforward(mu, monge)
    _assert_map_matches_ssp(mu, nu, monge)


def test_map_route_beats_ssp_on_a_rotated_kernel_near_tie():
    # A = Q diag(0, 1) Q^T with Q a turn by a tiny angle theta: the images of
    # the last two atoms lie 0.1 sin(theta) = 1.8e-5 apart, so swapping them
    # costs only 0.01 sin(theta)^2 / 3 = 1.1e-10 more, below SSP's 1e-9 cost
    # floor, and SSP returns the swapped matching.  The map's coupling is
    # optimal, so its cost is below SSP's, and SSP's exceeds it by no more
    # than that resolution.
    mu = make_measure([[0.0, -0.3], [-0.2, -0.2], [-0.1, -0.2]], np.full(3, 1.0 / 3.0))
    theta = 1.83601e-4
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    A = Q @ np.diag([0.0, 1.0]) @ Q.T
    monge = affine_map(0.5 * (A + A.T), [0.0, 0.0])
    nu = pushforward(mu, monge)
    assert len(nu) == 3 and _map_coupling(mu, nu, monge) is not None
    map_cost = solve_exact(mu, nu, monge).cost
    ssp_cost = _ssp(mu, nu)[0].cost_against(mu.atoms, nu.atoms)
    assert map_cost <= ssp_cost <= map_cost + 1e-9
    # beyond the tolerance the drawn instances are held to
    assert ssp_cost - map_cost > MAP_ABS_TOL


def test_singular_map_merges_images_and_certifies():
    # a rank-one map in d=2 sends the whole lattice onto a segment, so
    # images merge and nu has fewer atoms than mu
    mu = uniform_ball_grid(2, 0.5)
    monge = affine_map([[0.5, 0.5], [0.5, 0.5]], [0.1, -0.1])
    nu = pushforward(mu, monge)
    assert len(nu) < len(mu)
    _assert_map_matches_ssp(mu, nu, monge)


@pytest.fixture
def ssp_calls(monkeypatch):
    calls = []
    original = exact_ot._ssp

    def counted(mu, nu, *rest):
        calls.append((len(mu), len(nu)))
        return original(mu, nu, *rest)

    monkeypatch.setattr(exact_ot, "_ssp", counted)
    return calls


def _inline_config(tmp_path, nu_atoms):
    mu = {"dim": 1, "atoms": [[-0.8], [-0.2], [0.4], [0.9]], "weights": [0.25] * 4}
    nu = {"dim": 1, "atoms": nu_atoms, "weights": [0.25] * 4}
    return cli.ExperimentConfig.from_dict(
        {
            "instance": {"name": "inline", "kind": "inline", "mu": mu, "nu": nu,
                         "monge": {"kind": "affine", "a": 0.5}},
            "eps_list": [0.1],
            "checks": ["CostSandwich"],
            "output_dir": "out",
        },
        tmp_path,
    )


def test_inline_map_that_misses_nu_takes_ssp_route(tmp_path, ssp_calls):
    # 0.5 * 0.9 is 0.45 in floating point; writing 0.4500000001 makes the map's
    # image differ from nu, so the map does not certify
    records, _, _ = cli.run_experiment(
        _inline_config(tmp_path, [[-0.4], [-0.1], [0.2], [0.4500000001]]), tmp_path, 1
    )
    assert ssp_calls == [(4, 4)]
    assert records[0]["holds"] is True


def test_inline_map_that_hits_nu_skips_ssp(tmp_path, ssp_calls):
    records, _, _ = cli.run_experiment(
        _inline_config(tmp_path, [[-0.4], [-0.1], [0.2], [0.45]]), tmp_path, 1
    )
    assert ssp_calls == []
    assert records[0]["context"]["exact_cost"] == pytest.approx(
        0.25 * sum(0.5 * (0.5 * x) ** 2 for x in (-0.8, -0.2, 0.4, 0.9)), rel=1e-15
    )


def test_instance_exact_uses_the_instance_map(ssp_calls):
    inst = cli.build_instance({"name": "a", "kind": "affine", "a": 0.5, "h": 0.1})
    assert inst.exact.cost == solve_exact(inst.mu, inst.nu, inst.monge).cost
    assert ssp_calls == []


def test_map_escaping_the_ball_falls_back_to_ssp(ssp_calls):
    mu = uniform_ball_grid(1, 0.5)
    monge = affine_map([[2.0]])  # sends the atom 1.0 to 2.0
    nu = make_measure([-0.5, 0.5], [0.5, 0.5])
    assert _map_coupling(mu, nu, monge) is None
    sol = solve_exact(mu, nu, monge)
    assert ssp_calls == [(5, 2)]
    assert sol.cost == pytest.approx(lp_transport_cost(mu, nu), abs=1e-8)


def test_map_of_the_wrong_dimension_falls_back_to_ssp(ssp_calls):
    monge = affine_map(np.eye(2))
    sol = solve_exact(TWO_POINT, SHIFTED, monge)
    assert ssp_calls == [(2, 2)]
    assert sol.cost == pytest.approx(0.125, abs=1e-9)


def test_atom_cap_applies_to_ssp_route_only():
    n = 6000
    big = make_measure(np.linspace(-1.0, 1.0, n)[:, None], np.full(n, 1.0 / n))
    monge = affine_map([[0.5]])
    image = pushforward(big, monge)
    sol = solve_exact(big, image, monge)
    expected = float(big.weights @ (0.5 * (0.5 * big.atoms[:, 0]) ** 2))
    assert sol.cost == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ExactOTError, match="cap"):
        solve_exact(big, image)
    with pytest.raises(ExactOTError, match="cap"):
        solve_exact(big, image, affine_map([[0.25]]))  # does not certify
