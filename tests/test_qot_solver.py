import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    alternating_solve,
    argsort_hinge_roots,
    col_sums,
    dense_cost_cold_starts,
    dense_cost_coupling,
    dense_coupling,
    evaluate_f_at,
    fresh_hinge_root_batch,
    marginal_residuals,
    nonzero_coupling,
    outer_positive_slack,
    qp_oracle_coupling,
    row_sums,
)
from qotlab import cli, measures, qot_solver
from qotlab.measures import make_measure, uniform_ball_grid
from qotlab.qot_solver import (
    ConfigError,
    Coupling,
    ConvergenceError,
    DualPotentials,
    InconsistencyError,
    SolverConfig,
    assemble_coupling,
    cold_starts,
    cost_matrix,
    hinge_roots,
    max_density,
    solve,
)

SINGLETON = make_measure([0.0], [1.0])
TWO_POINT = make_measure([-1.0, 1.0], [0.5, 0.5])


def _threshold_roots(T, w, eps_list) -> np.ndarray:
    """hinge_roots of the rows of the threshold matrix T: row j is the cost
    row of an atom at the origin against atoms all at the origin, 0, shifted
    by -T_j, so its thresholds are bitwise T_j."""
    T = np.asarray(T, dtype=float)
    origin, at_origin = np.zeros((1, 1)), np.zeros((T.shape[1], 1))
    return np.stack(
        [hinge_roots(origin, at_origin, -row, w, eps_list)[:, 0] for row in T], axis=1,
    )


def _scalar_root(thresholds, weights, eps) -> float:
    """The hinge root of one row of thresholds at one eps."""
    return float(_threshold_roots([thresholds], np.asarray(weights), [eps])[0, 0])


def test_scalar_update_single_piece():
    assert _scalar_root([0.5], [1.0], 0.1) == pytest.approx(0.6, abs=1e-15)


def test_scalar_update_total_weight_one():
    assert _scalar_root([0.0, 0.0], [0.5, 0.5], 1.0) == pytest.approx(1.0, abs=1e-15)


def test_scalar_update_first_piece_active():
    # only the first hinge is active: 0.5 * t = 0.2  (verified by substitution)
    t = _scalar_root([0.0, 1.0], [0.5, 0.5], 0.2)
    assert t == pytest.approx(0.4, abs=1e-15)
    assert 0.5 * max(t - 0.0, 0.0) + 0.5 * max(t - 1.0, 0.0) == pytest.approx(0.2)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    eps=st.floats(min_value=1e-6, max_value=10.0),
)
def test_scalar_update_substitution_property(n, seed, eps):
    rng = np.random.default_rng(seed)
    thresholds = rng.uniform(-2.0, 2.0, size=n)
    weights = rng.uniform(0.05, 1.0, size=n)
    t = _scalar_root(thresholds, weights, eps)
    total = float((weights * np.maximum(t - thresholds, 0.0)).sum())
    assert total == pytest.approx(eps, abs=1e-10 * max(1.0, eps))


HINGE_RTOL = 1e-12


def _lattice_thresholds(rng, n, m):
    """An (n, m) threshold matrix, half of it on a coarse lattice, so ties
    and duplicates are common."""
    lattice = rng.integers(-8, 9, size=(n, m)) / 4.0
    return np.where(rng.random((n, m)) < 0.5, lattice, rng.uniform(-2.0, 2.0, size=(n, m)))


def _on_a_knot(rng, S, w, eps):
    """eps moved, when it can be, to the value of column 0's hinge function
    at one of its thresholds, so that column's root sits on a knot."""
    knot = S[rng.integers(len(S)), 0]
    value = float((w * np.maximum(knot - S[:, 0], 0.0)).sum())
    return value if value > 0 else eps


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    m=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    log_eps=st.lists(st.floats(min_value=-6.0, max_value=1.0), min_size=1, max_size=4),
    root_on_knot=st.booleans(),
)
def test_hinge_roots_match_newton_oracle(n, m, seed, log_eps, root_on_knot):
    # differential test of the sorted roots against Newton on the active set;
    # row j of S.T holds column j's thresholds
    rng = np.random.default_rng(seed)
    S = _lattice_thresholds(rng, n, m)
    w = rng.choice([0.25, 0.5, 1.0], size=n) if seed % 2 else rng.uniform(0.05, 1.0, size=n)
    eps_list = [10.0**e for e in log_eps]
    if root_on_knot:
        eps_list[0] = _on_a_knot(rng, S, w, eps_list[0])
    roots = _threshold_roots(S.T, w, eps_list)
    assert roots.shape == (len(eps_list), m)
    # the bits depend on the values alone, not on the layout or the list
    for layout in (np.ascontiguousarray, np.asfortranarray):
        assert roots.tobytes() == _threshold_roots(layout(S.T), w, eps_list).tobytes()
    for t, eps in zip(roots, eps_list):
        assert t.tobytes() == _threshold_roots(S.T, w, [eps])[0].tobytes()
        ref = fresh_hinge_root_batch(S, w, eps)
        scale = np.maximum(np.abs(ref), np.abs(S).max(axis=0)) + eps
        assert np.all(np.abs(t - ref) <= HINGE_RTOL * scale)
        h = (w[:, None] * np.maximum(t - S, 0.0)).sum(axis=0)
        assert np.all(np.abs(h - eps) <= HINGE_RTOL * (w.sum() * scale))


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=10_000),
    log_eps=st.lists(st.floats(min_value=-4.0, max_value=0.0), min_size=1, max_size=3),
    root_on_knot=st.booleans(),
)
def test_self_transport_roots_do_not_depend_on_the_transpose(d, seed, log_eps, root_on_knot):
    # on lattice atoms with unequal weights, where many distances tie, the
    # rows of C (what cold_starts reads for mu = nu) and of C.T (the columns
    # the g-equations are about) give the same roots bit for bit, so solve's
    # own start and a sweep's precomputed one reach the same potentials
    rng = np.random.default_rng(seed)
    side = np.arange(-3, 4) * (0.25 if d == 1 else 0.3)
    pts = np.array(np.meshgrid(*[side] * d)).reshape(d, -1).T
    pts = pts[np.linalg.norm(pts, axis=1) <= 0.9]
    w = rng.choice([1.0, 2.0, 3.0], size=len(pts))
    mu = make_measure(pts, w / w.sum())
    C = cost_matrix(mu.atoms, mu.atoms)
    eps_list = [10.0**e for e in log_eps]
    if root_on_knot:
        eps_list[0] = _on_a_knot(rng, C, mu.weights, eps_list[0])
    roots = hinge_roots(mu.atoms, mu.atoms, 0.0, mu.weights, eps_list)
    assert roots.tobytes() == _threshold_roots(C.T, mu.weights, eps_list).tobytes()
    starts = cold_starts(mu, mu, eps_list)
    for eps, start in zip(eps_list, starts):
        cfg = SolverConfig(epsilon=eps)
        own = solve(mu, mu, cfg)
        given_start = solve(mu, mu, cfg, start=start)
        assert own.f_values.tobytes() == given_start.f_values.tobytes()
        assert own.sweeps == given_start.sweeps


def test_hinge_roots_hold_no_dense_array():
    # the start sorts and sums row blocks; nothing of C's size is built
    mu = uniform_ball_grid(2, 0.05)
    eps_list = [10.0**e for e in (-0.5, -1.0, -1.5, -2.0, -2.4)]
    roots, peak = _peak_of(lambda: hinge_roots(mu.atoms, mu.atoms, 0.0, mu.weights, eps_list))
    assert roots.shape == (len(eps_list), len(mu))
    assert peak <= 0.25 * 8 * len(mu) ** 2


def _other_measure(d, h):
    """A measure on other atoms than uniform_ball_grid(d, h), with fewer of
    them: a coarser grid, shrunk and shifted."""
    grid = uniform_ball_grid(d, 1.3 * h)
    return make_measure(0.8 * grid.atoms + 0.1, grid.weights)


def _counted_argsort(monkeypatch) -> list:
    """The shapes numpy's argsort is called on, from now on."""
    calls = []
    argsort = np.argsort

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return calls


def _assert_roots_match_argsort(X, Y, shift, w, eps_list):
    got = hinge_roots(X, Y, shift, w, eps_list)
    assert got.tobytes() == argsort_hinge_roots(X, Y, shift, w, eps_list).tobytes()


@pytest.mark.parametrize("block", [None, "edges"])
@pytest.mark.parametrize("d, h", [(1, 0.05), (2, 0.15), (3, 0.3)])
def test_equal_weight_hinge_roots_bitwise_match_argsort_oracle(d, h, block, monkeypatch):
    # on lattice rows, where many thresholds tie, the in-place sort and the
    # shared running sum of the weights give the argsort route's roots bit
    # for bit: for mu = nu, and for the mu != nu f-batch with its shift g
    # per column, in whole blocks or in blocks whose edges fall inside the
    # matrix
    mu = uniform_ball_grid(d, h)
    nu = _other_measure(d, h)
    if block:
        monkeypatch.setattr(measures, "BLOCK_ENTRIES", 5 * max(len(mu), len(nu)) + 3)
    eps_list = [10.0**e for e in (-0.5, -1.0, -1.5, -2.0, -3.0)]
    _assert_roots_match_argsort(mu.atoms, mu.atoms, 0.0, mu.weights, eps_list)
    g = hinge_roots(nu.atoms, mu.atoms, 0.0, mu.weights, eps_list[2:3])[0]
    _assert_roots_match_argsort(nu.atoms, mu.atoms, 0.0, mu.weights, eps_list)
    _assert_roots_match_argsort(mu.atoms, nu.atoms, g, nu.weights, eps_list[2:3])


def test_unequal_weight_hinge_roots_take_the_argsort_route(monkeypatch):
    # one argsort per row block, and the oracle's bits
    mu = uniform_ball_grid(2, 0.2)
    w = np.linspace(1.0, 2.0, len(mu))
    mu = make_measure(mu.atoms, w / w.sum())
    calls = _counted_argsort(monkeypatch)
    roots = hinge_roots(mu.atoms, mu.atoms, 0.0, mu.weights, [0.1, 0.01])
    assert calls == [(len(mu), len(mu))]
    assert roots.tobytes() == argsort_hinge_roots(
        mu.atoms, mu.atoms, 0.0, mu.weights, [0.1, 0.01]
    ).tobytes()


@pytest.mark.parametrize("shift", [False, True], ids=["self-transport", "mu-ne-nu"])
def test_equal_weight_cold_starts_never_argsort(shift, monkeypatch):
    mu = uniform_ball_grid(2, 0.15)
    nu = _other_measure(2, 0.15) if shift else mu
    calls = _counted_argsort(monkeypatch)
    starts = cold_starts(mu, nu, [0.1, 0.01])
    assert len(starts) == 2 and calls == []


@pytest.mark.parametrize("shift", [False, True], ids=["self-transport", "mu-ne-nu"])
@pytest.mark.parametrize("d, h, eps", [(1, 0.05, 0.01), (2, 0.2, 0.03), (3, 0.3, 0.1)])
def test_blocked_cost_readers_match_dense_cost_oracles(d, h, eps, shift, monkeypatch):
    # the cold starts and the coupling assembly compute their cost rows one
    # block at a time; blocks of a few rows, whose edges fall inside the
    # matrix in both orientations, give bitwise what the whole cost matrix
    # gave.  The mu != nu g-batch reads the rows of cost_matrix(nu, mu),
    # which are bitwise the columns of cost_matrix(mu, nu)
    mu = uniform_ball_grid(d, h)
    nu = _other_measure(d, h) if shift else mu
    monkeypatch.setattr(measures, "BLOCK_ENTRIES", 5 * max(len(mu), len(nu)) + 3)
    C = cost_matrix(mu.atoms, nu.atoms)
    assert cost_matrix(nu.atoms, mu.atoms).tobytes() == np.ascontiguousarray(C.T).tobytes()
    eps_list = [10.0 * eps, eps]
    for got, want in zip(cold_starts(mu, nu, eps_list), dense_cost_cold_starts(mu, nu, eps_list)):
        assert got.f_values.tobytes() == want.f_values.tobytes()
        assert got.g_values.tobytes() == want.g_values.tobytes()
    cfg = SolverConfig(epsilon=eps)
    pot = solve(mu, nu, cfg)
    got, want = assemble_coupling(pot, mu, nu, cfg), dense_cost_coupling(pot, mu, nu, cfg)
    assert 0 < len(got.masses) < C.size
    for field in dataclasses.fields(Coupling):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
        else:
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), field.name


def test_mu_ne_nu_cold_starts_hold_less_than_one_cost_matrix():
    # grid d=2 h=0.05 (n=1257) against other atoms: the g-batch and each
    # f-batch compute their thresholds one row block at a time, so the
    # start never holds a whole cost matrix, let alone C and C - g at once
    mu = uniform_ball_grid(2, 0.05)
    nu = make_measure(0.9 * mu.atoms + 0.05, mu.weights)
    eps_list = [10.0**e for e in (-0.5, -1.0, -1.5)]
    starts, peak = _peak_of(lambda: cold_starts(mu, nu, eps_list))
    assert len(starts) == len(eps_list)
    assert peak < 8.0 * len(mu) * len(nu)


def test_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(epsilon=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(epsilon=0.1, residual_tol=0.0)
    for bad in ({"epsilon": float("inf")}, {"epsilon": float("nan")},
                {"epsilon": 0.1, "residual_tol": float("inf")}):
        with pytest.raises(ConfigError, match="finite"):
            SolverConfig(**bad)


def test_singleton_self_transport():
    cfg = SolverConfig(epsilon=0.1)
    pot = solve(SINGLETON, SINGLETON, cfg)
    assert pot.f_values[0] == pytest.approx(0.05, abs=1e-12)
    assert pot.g_values[0] == pytest.approx(0.05, abs=1e-12)
    cpl = assemble_coupling(pot, SINGLETON, SINGLETON, cfg)
    assert len(cpl.masses) == 1
    assert cpl.masses[0] == pytest.approx(1.0, abs=1e-12)
    assert cpl.density_max == pytest.approx(1.0, abs=1e-12)
    assert cpl.density_max == nonzero_coupling(pot, SINGLETON, SINGLETON)["densities"].max()


def test_one_pair_system():
    mu = make_measure([0.0], [1.0])
    nu = make_measure([0.5], [1.0])
    pot = solve(mu, nu, SolverConfig(epsilon=0.1))
    # f + g = c + eps = 0.225, balanced to f = g = 0.1125
    assert pot.f_values[0] == pytest.approx(0.1125, abs=1e-12)
    assert pot.g_values[0] == pytest.approx(0.1125, abs=1e-12)


def test_two_point_matches_qp_oracle():
    cfg = SolverConfig(epsilon=0.01)
    pot = solve(TWO_POINT, TWO_POINT, cfg)
    cpl = assemble_coupling(pot, TWO_POINT, TWO_POINT, cfg)
    oracle = qp_oracle_coupling(TWO_POINT, TWO_POINT, 0.01)
    assert np.linalg.norm(dense_coupling(cpl) - oracle) <= 1e-6
    # potentials agree with the oracle through the density identity
    # f_i + g_j = c_ij + eps * pi_ij / (mu_i nu_j) on the support
    C = cost_matrix(TWO_POINT.atoms, TWO_POINT.atoms)
    P = np.outer(TWO_POINT.weights, TWO_POINT.weights)
    for i, j in zip(*np.nonzero(oracle > 1e-9)):
        lhs = pot.f_values[i] + pot.g_values[j]
        rhs = C[i, j] + 0.01 * oracle[i, j] / P[i, j]
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_residuals_below_tolerance_on_grids():
    for d, h in [(1, 0.1), (2, 0.5)]:
        mu = uniform_ball_grid(d, h)
        cfg = SolverConfig(epsilon=0.01)
        pot = solve(mu, mu, cfg)
        C = cost_matrix(mu.atoms, mu.atoms)
        slack = pot.f_values[:, None] + pot.g_values[None, :] - C
        res_mu, res_nu = marginal_residuals(slack, mu.weights, mu.weights, 0.01)
        assert max(res_mu.max(), res_nu.max()) <= cfg.residual_tol


def test_self_transport_potentials_identical():
    mu = uniform_ball_grid(1, 0.1)
    pot = solve(mu, mu, SolverConfig(epsilon=0.005))
    assert np.array_equal(pot.f_values, pot.g_values)


def test_balanced_normalization_for_asymmetric_pair():
    mu = make_measure([-0.9, 0.2, 0.8], [0.3, 0.45, 0.25])
    nu = make_measure([-0.5, 0.0, 0.6], [0.2, 0.5, 0.3])
    pot = solve(mu, nu, SolverConfig(epsilon=0.05))
    assert float(mu.weights @ pot.f_values) == pytest.approx(
        float(nu.weights @ pot.g_values), abs=1e-12
    )


def test_doubling_max_sweeps_is_stable():
    mu = uniform_ball_grid(1, 0.2)
    pot_a = solve(mu, mu, SolverConfig(epsilon=0.01, max_sweeps=10_000))
    pot_b = solve(mu, mu, SolverConfig(epsilon=0.01, max_sweeps=20_000))
    assert np.array_equal(pot_a.f_values, pot_b.f_values)
    assert np.array_equal(pot_a.g_values, pot_b.g_values)


def test_non_convergence_carries_residual():
    # this solve takes 3 Newton iterations, so a cap of 1 stops it short
    mu = uniform_ball_grid(1, 0.1)
    with pytest.raises(ConvergenceError) as exc:
        solve(mu, mu, SolverConfig(epsilon=0.1, max_sweeps=1))
    assert exc.value.residual > 0
    assert (exc.value.epsilon, exc.value.start) == (0.1, "cold")
    # a start that took Newton iterations is a warm one
    previous = solve(mu, mu, SolverConfig(epsilon=1.0))
    with pytest.raises(ConvergenceError) as exc:
        solve(mu, mu, SolverConfig(epsilon=0.1, max_sweeps=1), start=previous)
    assert (exc.value.epsilon, exc.value.start) == (0.1, "warm")


def test_small_eps_converges_in_few_newton_iterations():
    # grid-d1-h0.02 at eps = 1e-5 took 1207 alternating sweeps; the Newton
    # solver must get there within a cap of 10 iterations
    mu = uniform_ball_grid(1, 0.02)
    cfg = SolverConfig(epsilon=1e-5, max_sweeps=10)
    pot = solve(mu, mu, cfg)
    slack = pot.f_values[:, None] + pot.g_values[None, :] - cost_matrix(mu.atoms, mu.atoms)
    res_mu, res_nu = marginal_residuals(slack, mu.weights, mu.weights, cfg.epsilon)
    assert max(res_mu.max(), res_nu.max()) <= 1e-10
    assert pot.residual <= 1e-10
    assert 1 <= pot.sweeps <= 10


def test_dimension_mismatch():
    mu = make_measure([0.0], [1.0])
    nu = make_measure([[0.0, 0.0]], [1.0])
    with pytest.raises(ConfigError, match="dimension"):
        solve(mu, nu, SolverConfig(epsilon=0.1))


def test_evaluate_f_single_atom_example():
    # nu = delta_0 with g = 0.05, eps = 0.1: t + 0.05 = 0.1 at x = 0
    nu = make_measure([0.0], [1.0])
    pot = DualPotentials(
        f_values=np.array([0.05]), g_values=np.array([0.05]), epsilon=0.1
    )
    assert evaluate_f_at([0.0], pot, nu) == pytest.approx(0.05, abs=1e-15)


def test_evaluate_f_agrees_with_stored_values():
    mu = make_measure([-0.9, 0.2, 0.8], [0.3, 0.45, 0.25])
    nu = make_measure([-0.5, 0.0, 0.6], [0.2, 0.5, 0.3])
    cfg = SolverConfig(epsilon=0.05)
    pot = solve(mu, nu, cfg)
    for i, atom in enumerate(mu.atoms):
        assert evaluate_f_at(atom, pot, nu) == pytest.approx(
            float(pot.f_values[i]), abs=cfg.residual_tol
        )


def test_evaluate_f_agrees_on_self_transport_grid():
    mu = uniform_ball_grid(1, 0.1)
    cfg = SolverConfig(epsilon=0.01)
    pot = solve(mu, mu, cfg)
    for i, atom in enumerate(mu.atoms):
        assert evaluate_f_at(atom, pot, mu) == pytest.approx(
            float(pot.f_values[i]), abs=cfg.residual_tol + 1e-14
        )


def test_potential_is_two_lipschitz():
    mu = uniform_ball_grid(1, 0.1)
    pot = solve(mu, mu, SolverConfig(epsilon=0.01))
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1.0, 1.0, size=(100, 2))
    for x, y in pts:
        fx = evaluate_f_at([x], pot, mu)
        fy = evaluate_f_at([y], pot, mu)
        assert abs(fx - fy) <= 2.0 * abs(x - y) + 1e-12


def test_midpoint_concavity_of_shifted_potential():
    mu = uniform_ball_grid(1, 0.1)
    pot = solve(mu, mu, SolverConfig(epsilon=0.01))
    rng = np.random.default_rng(7)

    def shifted(x):
        return evaluate_f_at([x], pot, mu) - 0.5 * x * x

    for _ in range(100):
        x, y = rng.uniform(-1.0, 1.0, size=2)
        mid = 0.5 * (x + y)
        assert shifted(mid) >= 0.5 * (shifted(x) + shifted(y)) - 1e-9


def test_coupling_marginals_match_weights():
    mu = uniform_ball_grid(1, 0.2)
    cfg = SolverConfig(epsilon=0.05)
    pot = solve(mu, mu, cfg)
    cpl = assemble_coupling(pot, mu, mu, cfg)
    # equation residual <= tol translates to mass deviation mu_i * tol / eps
    scale = cfg.residual_tol * max(1.0, float(mu.weights.max()) / cfg.epsilon)
    assert np.abs(row_sums(cpl) - mu.weights).max() <= scale
    assert np.abs(col_sums(cpl) - mu.weights).max() <= scale


def test_coupling_marginals_literal_tolerance_at_moderate_eps():
    pot = solve(TWO_POINT, TWO_POINT, SolverConfig(epsilon=1.0))
    cpl = assemble_coupling(pot, TWO_POINT, TWO_POINT, SolverConfig(epsilon=1.0))
    assert np.abs(row_sums(cpl) - TWO_POINT.weights).max() <= 1e-10
    assert np.abs(col_sums(cpl) - TWO_POINT.weights).max() <= 1e-10


def test_assemble_rejects_stale_potentials():
    cfg = SolverConfig(epsilon=0.1)
    pot = solve(TWO_POINT, TWO_POINT, cfg)
    stale = DualPotentials(
        f_values=pot.f_values + 1e-3, g_values=pot.g_values, epsilon=0.1
    )
    with pytest.raises(InconsistencyError):
        assemble_coupling(stale, TWO_POINT, TWO_POINT, cfg)


def test_max_density_singleton():
    cfg = SolverConfig(epsilon=0.1)
    pot = solve(SINGLETON, SINGLETON, cfg)
    value = max_density(assemble_coupling(pot, SINGLETON, SINGLETON, cfg))
    assert value == pytest.approx(0.1, abs=1e-12)


def test_max_density_at_least_eps():
    for eps in (0.5, 0.05, 0.005):
        mu = uniform_ball_grid(1, 0.25)
        cfg = SolverConfig(epsilon=eps)
        pot = solve(mu, mu, cfg)
        value = max_density(assemble_coupling(pot, mu, mu, cfg))
        assert value >= eps - 1e-12


def test_cost_against_matches_dense_cost_bitwise():
    mu = uniform_ball_grid(2, 0.25)
    nu = make_measure(0.5 * mu.atoms + 0.25, mu.weights)
    cfg = SolverConfig(epsilon=0.05)
    cpl = assemble_coupling(solve(mu, nu, cfg), mu, nu, cfg)
    C = cost_matrix(mu.atoms, nu.atoms)
    dense = float((cpl.masses * C[cpl.rows(), cpl.j_idx]).sum())
    assert cpl.cost_against(mu.atoms, nu.atoms) == dense


@pytest.mark.parametrize("shift", [False, True], ids=["self-transport", "mu-ne-nu"])
def test_max_density_matches_dense_slack_max(shift):
    # differential check of the sparse max against the dense slack matrix
    mu = uniform_ball_grid(1, 0.05)
    nu = make_measure(0.5 * mu.atoms + 0.25, mu.weights) if shift else mu
    cfg = SolverConfig(epsilon=0.01)
    pot = solve(mu, nu, cfg)
    dense = float(
        (pot.f_values[:, None] + pot.g_values[None, :] - cost_matrix(mu.atoms, nu.atoms)).max()
    )
    value = max_density(assemble_coupling(pot, mu, nu, cfg))
    assert abs(value - dense) <= 2 * np.spacing(dense)


def test_disconnected_support_self_transport_symmetrizes():
    # regression fixture: at this eps the support splits into two clusters,
    # the dual optimum is unique only up to one shift per cluster, and a
    # single global balancing shift cannot reach f = g
    atoms = [-0.407967, -0.299677, -0.281019, -0.097168, 0.053592, 0.180749]
    w = np.array([0.16959436, 0.24321162, 0.1806324, 0.16131904, 0.03502415, 0.21021843])
    mu = make_measure(atoms, w / w.sum())
    cfg = SolverConfig(epsilon=0.003)
    pot = solve(mu, mu, cfg)
    assert np.array_equal(pot.f_values, pot.g_values)
    assert pot.residual <= cfg.residual_tol
    cpl = assemble_coupling(pot, mu, mu, cfg)
    oracle = qp_oracle_coupling(mu, mu, 0.003)
    assert np.linalg.norm(dense_coupling(cpl) - oracle) <= 1e-6


def test_knife_edge_boundary_pair_does_not_merge_components():
    # regression fixture: a zero-mass boundary pair whose slack lands at
    # +7e-18 must not glue two rigid support components together during the
    # per-component balancing
    atoms = [-0.540069, -0.382124, 0.230835, 0.574625, 0.600539, 0.627554]
    w = np.array([0.32115887, 0.14235059, 0.11694054, 0.0978823, 0.22773608, 0.09393162])
    mu = make_measure(atoms, w / w.sum())
    cfg = SolverConfig(epsilon=0.01)
    pot = solve(mu, mu, cfg)
    assert np.array_equal(pot.f_values, pot.g_values)
    assert pot.residual <= cfg.residual_tol
    cpl = assemble_coupling(pot, mu, mu, cfg)
    oracle = qp_oracle_coupling(mu, mu, 0.01)
    assert np.linalg.norm(dense_coupling(cpl) - oracle) <= 1e-6


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    eps=st.floats(min_value=1e-2, max_value=1.0),
)
def test_self_transport_midpoint_matches_oracle(n, seed, eps):
    # differential test of the self-transport path: the returned potential is
    # symmetric, meets the residual gate, agrees with its own hinge root at
    # every atom, and reproduces the primal QP optimum, including supports
    # that split into several components
    rng = np.random.default_rng(seed)
    atoms = np.sort(rng.choice(np.arange(-18, 19), size=n, replace=False) * 0.05
                    + rng.uniform(-0.01, 0.01, size=n))
    w = rng.uniform(0.1, 1.0, size=n)
    mu = make_measure(atoms, w / w.sum())
    cfg = SolverConfig(epsilon=eps)
    pot = solve(mu, mu, cfg)
    assert np.array_equal(pot.f_values, pot.g_values)
    assert pot.residual <= cfg.residual_tol
    for i, atom in enumerate(mu.atoms):
        assert abs(evaluate_f_at(atom, pot, mu) - pot.f_values[i]) <= cfg.residual_tol + 1e-14
    cpl = assemble_coupling(pot, mu, mu, cfg)
    oracle = qp_oracle_coupling(mu, mu, eps)
    assert np.linalg.norm(dense_coupling(cpl) - oracle) <= 1e-6


def _peak_of(fn):
    """fn() and the tracemalloc peak of what it allocates."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_cost_matrix_peak_memory_stays_below_three_matrices():
    # the cost is accumulated one coordinate at a time, so building it holds
    # the result and one scratch matrix, never an (n, m, d) temporary
    rng = np.random.default_rng(0)
    X = rng.uniform(-0.5, 0.5, size=(300, 3))
    Y = rng.uniform(-0.5, 0.5, size=(200, 3))
    C, peak = _peak_of(lambda: cost_matrix(X, Y))
    assert C.shape == (300, 200)
    assert peak <= 3 * C.nbytes


def test_assemble_coupling_peak_memory_given_cost():
    # the slack and then its positive part fill one n x m buffer, with the
    # costs subtracted one row block at a time, freed before the
    # support-sized arrays are built
    mu = uniform_ball_grid(2, 0.1)
    cfg = SolverConfig(epsilon=0.001)
    C = cost_matrix(mu.atoms, mu.atoms)
    pot = solve(mu, mu, cfg)
    cpl, peak = _peak_of(lambda: assemble_coupling(pot, mu, mu, cfg))
    assert len(cpl.masses) <= 0.1 * C.size
    assert peak <= 2.5 * C.nbytes


@pytest.mark.parametrize("shift", [False, True], ids=["cold", "warm"])
def test_solve_holds_one_dense_float_buffer(shift):
    # given a start, Newton keeps one n x m float buffer: the active set
    # during CG, then each line-search trial's slack
    mu = uniform_ball_grid(2, 0.1)
    cfg = SolverConfig(epsilon=10.0**-1.5)
    if shift:
        # the same atoms in reverse order: mu != nu bitwise
        nu = make_measure(mu.atoms[::-1], mu.weights[::-1])
        C = cost_matrix(mu.atoms, nu.atoms)
        given = {"start": solve(mu, nu, SolverConfig(epsilon=0.1))}
    else:
        nu = mu
        C = cost_matrix(mu.atoms, mu.atoms)
        # the mu = nu start comes from cold_starts, as a sweep takes it
        given = {"start": cold_starts(mu, mu, [cfg.epsilon])[0]}
    pot, peak = _peak_of(lambda: solve(mu, nu, cfg, **given))
    assert pot.sweeps >= 2 and pot.residual <= cfg.residual_tol
    assert peak <= 1.25 * C.nbytes


@pytest.mark.parametrize("d", [1, 2, 3])
def test_slack_product_matches_cost_matrix_oracle(d):
    # differential test of Newton's product slack against the slack from the
    # cost matrix, mu != nu, atoms on the unit sphere (the largest norms the
    # contract allows), random potentials around the cost's range.  Either
    # side sums its few terms with relative error below (d + 4) 2^-53 each
    # (d + 2 product terms, the |x|^2 / 2 and C_ij sums, the final
    # subtraction), and [.]_+ is 1-Lipschitz
    rng = np.random.default_rng(d)
    X, Y = rng.normal(size=(40, d)), rng.normal(size=(30, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    f, g = rng.uniform(0.0, 1.0, size=40), rng.uniform(0.0, 1.0, size=30)
    C = cost_matrix(X, Y)
    got = qot_solver._slack_product(X, Y)(f, g, np.empty((40, 30)))
    want = outer_positive_slack(f, g, C)
    a = np.abs(f - 0.5 * (X**2).sum(-1))
    b = np.abs(g - 0.5 * (Y**2).sum(-1))
    dots = np.abs(X[:, None, :] * Y[None, :, :]).sum(-1)
    tol = (d + 4) * 2.0**-53 * (a[:, None] + b[None, :] + dots + C)
    assert 0 < np.count_nonzero(want) < want.size
    assert np.all(np.abs(got - want) <= tol)


def test_newton_never_reads_the_cost_after_its_start(monkeypatch):
    # costs are computed only to build a cold start: given one, Newton takes
    # its slack from the atoms and never calls cost_matrix, and the coupling
    # assembly, which computes the exact cost rows, accepts the potentials
    mu = uniform_ball_grid(2, 0.2)
    cfg = SolverConfig(epsilon=0.01)
    for nu in (mu, make_measure(0.9 * mu.atoms + 0.05, mu.weights)):
        (start,) = cold_starts(mu, nu, [cfg.epsilon])
        with monkeypatch.context() as patched:
            patched.setattr(qot_solver, "cost_matrix", mock.Mock(side_effect=AssertionError))
            pot = solve(mu, nu, cfg, start=start)
        assert pot.sweeps >= 1 and pot.residual <= cfg.residual_tol
        assert assemble_coupling(pot, mu, nu, cfg).residual <= 10 * cfg.residual_tol


@pytest.mark.parametrize("shift", [False, True], ids=["self-transport", "mu-ne-nu"])
@pytest.mark.parametrize("d, h, eps", [(1, 0.05, 0.01), (2, 0.1, 10.0**-1.5)])
def test_solve_does_not_depend_on_the_cost_layout(d, h, eps, shift):
    # the cost rows and Newton's buffer are C-ordered whatever the atoms'
    # layout, and the cold start's sorted sums do not depend on it, so
    # F-ordered atoms give the same bits
    mu = uniform_ball_grid(d, h)
    nu = make_measure(0.9 * mu.atoms + 0.05, mu.weights) if shift else mu
    cfg = SolverConfig(epsilon=eps)
    pot = solve(mu, nu, cfg)

    def fortran_atoms(m):
        return dataclasses.replace(m, atoms=np.asfortranarray(m.atoms))

    fortran = solve(fortran_atoms(mu), fortran_atoms(nu), cfg)
    assert pot.f_values.tobytes() == fortran.f_values.tobytes()
    assert pot.g_values.tobytes() == fortran.g_values.tobytes()


def test_coupling_entry_costs_twelve_bytes():
    # the per-entry arrays are the int32 columns and the float64 masses;
    # the one density read downstream, the largest, is a scalar
    mu = uniform_ball_grid(2, 0.1)
    cfg = SolverConfig(epsilon=10.0**-1.5)
    cpl = assemble_coupling(solve(mu, mu, cfg), mu, mu, cfg)
    values = {f.name: getattr(cpl, f.name) for f in dataclasses.fields(Coupling)}
    per_entry = {
        name: v for name, v in values.items()
        if isinstance(v, np.ndarray) and v.shape == cpl.masses.shape
    }
    assert set(per_entry) == {"j_idx", "masses"}
    assert cpl.j_idx.dtype == np.int32 and cpl.masses.dtype == np.float64
    assert sum(a.itemsize for a in per_entry.values()) == 12
    assert isinstance(cpl.density_max, float)


@pytest.mark.parametrize("shift", [False, True], ids=["self-transport", "mu-ne-nu"])
def test_start_takes_one_hinge_batch_per_block(monkeypatch, tmp_path, shift):
    # for mu = nu the start is u = g / 2 from the one batch g(f = 0); for
    # mu != nu a second batch gives f from g.  Newton itself solves no
    # hinge roots.  A mu = nu sweep takes one batch for all its epsilons,
    # before its first solve, and none inside solve.
    calls = []
    roots = qot_solver.hinge_roots

    def counted(*args, **kwargs):
        calls.append(args)
        return roots(*args, **kwargs)

    monkeypatch.setattr(qot_solver, "hinge_roots", counted)
    mu = uniform_ball_grid(1, 0.05)
    nu = make_measure(0.5 * mu.atoms + 0.25, mu.weights) if shift else mu
    pot = solve(mu, nu, SolverConfig(epsilon=0.01))
    assert pot.residual <= 1e-10
    assert len(calls) == (2 if shift else 1)
    if shift:
        return
    calls.clear()
    inside = []
    solve_ = qot_solver.solve

    def watched(*args, **kwargs):
        before = len(calls)
        out = solve_(*args, **kwargs)
        inside.append(len(calls) - before)
        return out

    monkeypatch.setattr(qot_solver, "solve", watched)
    config = cli.ExperimentConfig.from_dict(
        {"instance": {"name": "grid", "kind": "grid", "d": 1, "h": 0.05},
         "eps_list": [1e-1, 1e-2, 1e-3], "checks": ["DensityUB"], "output_dir": "out"},
        tmp_path,
    )
    cli.run_experiment(config, tmp_path)
    assert len(calls) == 1 and len(calls[0][4]) == 3
    assert inside == [0, 0, 0]


KNIFE_EDGE = 1e-8   # |slack| at or below this is a knife-edge pair


def _random_atoms(rng, k, d, layout):
    """k distinct atoms in the unit ball: lattice points (spacing 0.1, or
    0.05 in d=1), the same jittered, or two lattice clusters centred at
    +-0.5 e_1 with a gap that a small eps cannot bridge."""
    if layout == "clusters":
        side = np.arange(-3, 4) * 0.05
        cell = np.array(np.meshgrid(*[side] * d)).reshape(d, -1).T
        centre = np.zeros(d)
        centre[0] = 0.5
        pts = np.concatenate([cell - centre, cell + centre])
        first = rng.choice(len(cell), size=k // 2, replace=False)
        second = len(cell) + rng.choice(len(cell), size=k - k // 2, replace=False)
        return pts[np.concatenate([first, second])]
    side = np.arange(-18, 19) * 0.05 if d == 1 else np.arange(-6, 7) * 0.1
    pts = np.array(np.meshgrid(*[side] * d)).reshape(d, -1).T
    pts = pts[np.linalg.norm(pts, axis=1) <= 0.9]
    pts = pts[rng.choice(len(pts), size=k, replace=False)]
    if layout == "jitter":
        pts = pts + rng.uniform(-0.01, 0.01, size=pts.shape)
    return pts


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    m=st.integers(min_value=2, max_value=12),
    d=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=10_000),
    log_eps=st.floats(min_value=-3.0, max_value=0.0),
    layout=st.sampled_from(["lattice", "jitter", "clusters"]),
    pairing=st.sampled_from(["self", "shifted", "independent"]),
)
@example(n=9, m=6, d=1, seed=1549, log_eps=-3.0, layout="jitter", pairing="independent")
def test_newton_matches_alternating_oracle(n, m, d, seed, log_eps, layout, pairing):
    # differential test of the Newton solver against the alternating sweeps
    # it replaced.  Lattice atoms and integer weights make ties common;
    # "clusters" with a shifted or identical nu splits the support into two
    # components.  The coupling tolerance follows from monotonicity of
    # [.]_+: for two dual points with residuals tau_1, tau_2 and potential
    # gaps df, dg, eps * sum (dpi)^2 / (mu_i nu_j) <= sum dpi_ij (df_i + dg_j)
    # <= (tau_1 + tau_2)(|df|_inf + |dg|_inf) / eps, so each entry satisfies
    # |dpi_ij| <= sqrt(mu_i nu_j (tau_1 + tau_2)(|df| + |dg|)) / eps, plus
    # rounding of 1e-14 / eps relative to mu_i nu_j.  Where the alternating
    # sweeps stall short of residual_tol (the pinned example), the Newton
    # coupling is checked against the primal QP oracle instead.
    rng = np.random.default_rng(seed)
    eps = 10.0**log_eps
    atoms = _random_atoms(rng, n, d, layout)
    mu = make_measure(atoms, (w := rng.integers(1, 4, size=n)) / w.sum())
    if pairing == "self":
        nu = mu
    elif pairing == "shifted":
        nu = make_measure(0.9 * atoms + 0.02, mu.weights)
    else:
        nu_atoms = _random_atoms(rng, m, d, layout)
        nu = make_measure(nu_atoms, (v := rng.uniform(0.1, 1.0, size=m)) / v.sum())
    cfg = SolverConfig(epsilon=eps)
    pot = solve(mu, nu, cfg)
    C = cost_matrix(mu.atoms, nu.atoms)
    slack = pot.f_values[:, None] + pot.g_values[None, :] - C
    if pairing == "self":
        assert np.array_equal(pot.f_values, pot.g_values)
    try:
        f0, g0, _, _ = alternating_solve(mu, nu, eps, cfg.residual_tol)
    except RuntimeError:
        res_mu, res_nu = marginal_residuals(slack, mu.weights, nu.weights, eps)
        assert res_mu.max() <= cfg.residual_tol and res_nu.max() <= cfg.residual_tol
        cpl = assemble_coupling(pot, mu, nu, cfg)
        assert np.linalg.norm(dense_coupling(cpl) - qp_oracle_coupling(mu, nu, eps)) <= 1e-6
        return
    slack0 = f0[:, None] + g0[None, :] - C
    taus = []
    for s in (slack, slack0):
        res_mu, res_nu = marginal_residuals(s, mu.weights, nu.weights, eps)
        assert res_mu.max() <= cfg.residual_tol and res_nu.max() <= cfg.residual_tol
        taus.append(max(res_mu.max(), res_nu.max()))
    if pairing == "self":
        assert np.abs(pot.f_values - f0).max() <= 1e-9
    clear = (np.abs(slack) > KNIFE_EDGE) & (np.abs(slack0) > KNIFE_EDGE)
    assert np.array_equal((slack > 0)[clear], (slack0 > 0)[clear])
    P = np.outer(mu.weights, nu.weights)
    gap = np.abs(pot.f_values - f0).max() + np.abs(pot.g_values - g0).max()
    bound = np.sqrt(P * sum(taus) * gap) / eps + 1e-14 * P / eps
    dpi = P * np.abs(np.maximum(slack, 0.0) - np.maximum(slack0, 0.0)) / eps
    assert np.all(dpi <= bound)


def _assert_valid_csr(cpl):
    # n_mu + 1 nondecreasing int64 row pointers from 0 to the entry count,
    # int32 columns strictly increasing within each row, no stored rows
    assert "i_idx" not in {f.name for f in dataclasses.fields(Coupling)}
    assert cpl.indptr.dtype == np.int64 and cpl.j_idx.dtype == np.int32
    assert cpl.indptr.shape == (cpl.n_mu + 1,)
    assert cpl.indptr[0] == 0 and cpl.indptr[-1] == len(cpl.masses)
    assert np.all(np.diff(cpl.indptr) >= 0)
    assert len(cpl.j_idx) == len(cpl.masses)
    assert np.all((cpl.j_idx >= 0) & (cpl.j_idx < cpl.n_nu))
    same_row = np.diff(cpl.rows()) == 0
    assert np.all(np.diff(cpl.j_idx.astype(np.int64))[same_row] > 0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    m=st.integers(min_value=2, max_value=12),
    d=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=10_000),
    log_eps=st.floats(min_value=-3.0, max_value=0.0),
    layout=st.sampled_from(["lattice", "jitter", "clusters"]),
    pairing=st.sampled_from(["self", "shifted", "independent"]),
    block=st.sampled_from([None, 1, 7]),
)
def test_csr_assembly_matches_nonzero_oracle(n, m, d, seed, log_eps, layout, pairing, block):
    # differential test of the row-pointer assembly against the np.nonzero
    # assembly it replaced: every per-entry array bitwise; block=1 makes
    # each row a block of its own, 7 cuts blocks of part of a row's width
    rng = np.random.default_rng(seed)
    atoms = _random_atoms(rng, n, d, layout)
    mu = make_measure(atoms, (w := rng.integers(1, 4, size=n)) / w.sum())
    if pairing == "self":
        nu = mu
    elif pairing == "shifted":
        nu = make_measure(0.9 * atoms + 0.02, mu.weights)
    else:
        nu_atoms = _random_atoms(rng, m, d, layout)
        nu = make_measure(nu_atoms, (v := rng.uniform(0.1, 1.0, size=m)) / v.sum())
    cfg = SolverConfig(epsilon=10.0**log_eps)
    pot = solve(mu, nu, cfg)
    with mock.patch.object(measures, "BLOCK_ENTRIES", block or measures.BLOCK_ENTRIES):
        cpl = assemble_coupling(pot, mu, nu, cfg)
    _assert_valid_csr(cpl)
    want = nonzero_coupling(pot, mu, nu)
    assert np.array_equal(cpl.rows(), want["rows"])
    assert np.array_equal(cpl.j_idx, want["columns"])
    assert cpl.masses.tobytes() == want["masses"].tobytes()
    assert cpl.density_max == want["densities"].max()


def _dual_hessian(active, mu_w, nu_w):
    """The generalized Hessian of the dual Phi for a boolean active set:
    diag(mu * A nu), diag(nu * A^T mu), and mu_i nu_j A_ij off the diagonal."""
    A = active.astype(float)
    n = len(mu_w)
    H = np.diag(np.concatenate([mu_w * (A @ nu_w), nu_w * (mu_w @ A)]))
    H[:n, n:] = mu_w[:, None] * A * nu_w
    H[n:, :n] = H[:n, n:].T
    return H


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    m=st.integers(min_value=2, max_value=10),
    d=st.sampled_from([1, 2]),
    seed=st.integers(min_value=0, max_value=10_000),
    log_eps=st.floats(min_value=-3.5, max_value=0.0),
    log_ratio=st.floats(min_value=0.25, max_value=1.5),
    layout=st.sampled_from(["lattice", "jitter"]),
    pairing=st.sampled_from(["pushforward", "reweighted", "independent"]),
)
def test_warm_start_matches_cold_start(n, m, d, seed, log_eps, log_ratio, layout, pairing):
    # differential test of the continuation start against the cold start it
    # replaces for every epsilon after a sweep's first.  The tolerance on the
    # balanced potentials follows from the residual gate tau = 1e-10.  With
    # x = (f, g) warm, x' cold and delta = x - x', the dual's gradient
    # (mu F, nu G) is piecewise linear, so grad(x) - grad(x') = Hbar delta,
    # with Hbar the mean of the generalized Hessian along the segment.  A
    # pair active at both ends is active along it (its slack is affine),
    # so Hbar >= H_both, the Hessian of those pairs.  Every such Hessian
    # annihilates e = (1, -1), and <grad, e> = 0; so, for delta = p + c e
    # with p orthogonal to e and lam the smallest eigenvalue of H_both
    # off e, lam |p|^2 <= <grad(x) - grad(x'), p> <= 2 tau |w|_2 |p|_2,
    # w = (mu, nu).  Both sides are balanced, <b, x> = 0 with b = (mu, -nu)
    # and <b, e> = 2, so |c| <= |b|_2 |p|_2 / 2, and |delta|_inf <=
    # (1 + |w|_2 / 2) 2 tau |w|_2 / lam, plus rounding of 64 ulp of the
    # largest potential.  A disconnected H_both (lam = 0) leaves the
    # potentials free along more than e; then only the gate is checked.
    # That is common for a pushforward nu at small eps, where the support
    # splits into the matched pairs; reweighting the same atoms keeps it whole.
    rng = np.random.default_rng(seed)
    atoms = _random_atoms(rng, n, d, layout)
    mu = make_measure(atoms, (w := rng.uniform(0.1, 1.0, size=n)) / w.sum())
    if pairing == "pushforward":
        nu = make_measure(0.9 * atoms + 0.02, mu.weights)
    elif pairing == "reweighted":
        nu = make_measure(0.9 * atoms + 0.02, (v := rng.uniform(0.1, 1.0, size=n)) / v.sum())
    else:
        nu_atoms = _random_atoms(rng, m, d, layout)
        nu = make_measure(nu_atoms, (v := rng.uniform(0.1, 1.0, size=m)) / v.sum())
    eps_hi = 10.0**log_eps
    cfg = SolverConfig(epsilon=eps_hi / 10.0**log_ratio)
    C = cost_matrix(mu.atoms, nu.atoms)
    previous = solve(mu, nu, SolverConfig(epsilon=eps_hi))
    warm = solve(mu, nu, cfg, start=previous)
    cold = solve(mu, nu, cfg)
    slacks = []
    for pot in (warm, cold):
        slack = pot.f_values[:, None] + pot.g_values[None, :] - C
        res_mu, res_nu = marginal_residuals(slack, mu.weights, nu.weights, cfg.epsilon)
        assert max(res_mu.max(), res_nu.max()) <= cfg.residual_tol
        assert float(mu.weights @ pot.f_values) == pytest.approx(
            float(nu.weights @ pot.g_values), abs=1e-12
        )
        slacks.append(slack)
    H = _dual_hessian((slacks[0] > 0) & (slacks[1] > 0), mu.weights, nu.weights)
    e = np.concatenate([np.ones(len(mu)), -np.ones(len(nu))]) / np.sqrt(len(mu) + len(nu))
    off_e = np.eye(len(e)) - np.outer(e, e)
    lam = np.linalg.eigvalsh(off_e @ H @ off_e)[1]
    if lam <= 1e-12:
        return
    w2 = np.sqrt(mu.weights @ mu.weights + nu.weights @ nu.weights)
    x_warm = np.concatenate([warm.f_values, warm.g_values])
    x_cold = np.concatenate([cold.f_values, cold.g_values])
    ulp = np.finfo(float).eps * max(1.0, np.abs(x_cold).max())
    tol = (1.0 + w2 / 2.0) * 2.0 * cfg.residual_tol * w2 / lam + 64.0 * ulp
    assert np.abs(x_warm - x_cold).max() <= tol


def test_warm_start_halves_the_newton_iterations():
    # the affine a=2 h=0.1 chain near the LP limit: the cold start takes
    # [3, 5, 7, 37, 42] Newton iterations, the chain [3, 6, 5, 4, 2]
    mu = uniform_ball_grid(1, 0.1)
    mu = make_measure(mu.atoms / 2.0, mu.weights)
    nu = make_measure(2.0 * mu.atoms, mu.weights)
    cold, warm, start = 0, 0, None
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        cfg = SolverConfig(epsilon=eps)
        cold += solve(mu, nu, cfg).sweeps
        start = solve(mu, nu, cfg, start=start)
        assert start.residual <= cfg.residual_tol
        warm += start.sweeps
    assert warm <= cold / 2


def test_start_is_rejected_for_wrong_shapes():
    mu = uniform_ball_grid(1, 0.1)
    nu = make_measure(0.5 * mu.atoms + 0.25, mu.weights)
    cfg = SolverConfig(epsilon=0.01)
    short = make_measure(mu.atoms[:-1], np.full(len(mu) - 1, 1.0 / (len(mu) - 1)))
    with pytest.raises(ConfigError, match="shapes"):
        solve(short, nu, cfg, start=solve(mu, nu, cfg))
    with pytest.raises(ConfigError, match="shapes"):
        solve(short, short, cfg, start=solve(mu, mu, cfg))
    # a warm start from the same epsilon is already converged: one iteration
    for target in (nu, mu):
        pot = solve(mu, target, cfg)
        again = solve(mu, target, cfg, start=pot)
        assert again.sweeps == 1 and again.residual <= cfg.residual_tol
