import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bisect_delta_st,
    broadcast_sq_distances,
    brute_force_rho,
    diameter,
    loop_spread,
    min_pairwise_distance,
    segment_boundary_distance,
)
from qotlab import measures, verify
from qotlab.cli import build_instance
from qotlab.geometry import (
    DIST_DECIMALS,
    GeometryError,
    _distance_blocks,
    boundary_distance,
    build_spread,
    delta,
    delta_st,
)
from qotlab.measures import make_measure, uniform_ball_grid
from qotlab.qot_solver import cost_matrix


@pytest.fixture
def two_point():
    return make_measure([-1.0, 1.0], [0.5, 0.5])


def _random_measure(seed, n=8, d=2):
    rng = np.random.default_rng(seed)
    atoms = np.unique(np.round(rng.uniform(-0.7, 0.7, size=(n, d)), 6), axis=0)
    w = rng.uniform(0.2, 1.0, size=len(atoms))
    return make_measure(atoms, w / w.sum())


def test_spread_singleton():
    mu = make_measure([0.0], [1.0])
    prof = build_spread(mu)
    for r in (1e-6, 0.5, 1.0, 5.0):
        assert prof.rho_at(r) == 1.0


def test_spread_two_point(two_point):
    prof = build_spread(two_point)
    assert prof.rho_at(1e-9) == 0.5
    assert prof.rho_at(2.0) == 0.5  # open balls: the far atom enters only past r = 2
    assert prof.rho_at(2.0 + 1e-9) == 1.0


def test_spread_matches_brute_force_on_grid():
    mu = uniform_ball_grid(1, 0.5)
    prof = build_spread(mu)
    # frozen oracle values (direct double loop at inter-breakpoint radii)
    expected = {0.25: 0.2, 0.75: 0.4, 1.25: 0.6, 1.75: 0.8, 2.5: 1.0}
    for r, rho in expected.items():
        assert brute_force_rho(mu, r) == pytest.approx(rho, abs=1e-12)
        assert prof.rho_at(r) == pytest.approx(rho, abs=1e-12)


def test_spread_matches_brute_force_random():
    mu = _random_measure(7)
    prof = build_spread(mu)
    mids = 0.5 * (prof.radii[1:] + prof.radii[:-1])
    for r in mids:
        assert prof.rho_at(r) == pytest.approx(brute_force_rho(mu, r), abs=1e-12)


def test_spread_floor_is_min_weight():
    mu = _random_measure(3)
    prof = build_spread(mu)
    assert prof.rho_values.min() >= mu.weights.min() - 1e-15


def test_spread_csv_export():
    prof = build_spread(make_measure([-1.0, 1.0], [0.5, 0.5]))
    text = prof.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "r,rho"
    assert len(lines) == 1 + len(prof.radii)


def test_delta_singleton_is_epsilon():
    prof = build_spread(make_measure([0.0], [1.0]))
    for eps in (0.01, 0.5, 1.9, 3.0):
        assert delta(prof, eps) == pytest.approx(eps, abs=1e-15)


def test_delta_two_point(two_point):
    prof = build_spread(two_point)
    assert delta(prof, 0.1) == pytest.approx(0.2, abs=1e-15)


def test_delta_equals_eps_beyond_two(two_point):
    prof = build_spread(two_point)
    assert delta(prof, 3.0) == pytest.approx(3.0, abs=1e-15)
    prof_grid = build_spread(uniform_ball_grid(1, 0.5))
    assert delta(prof_grid, 2.5) == pytest.approx(2.5, abs=1e-15)


def test_delta_st_trivial_profile():
    prof = build_spread(make_measure([0.0], [1.0]))
    assert delta_st(prof, 0.3) == pytest.approx(0.3, abs=1e-15)


def test_delta_st_two_point(two_point):
    prof = build_spread(two_point)
    assert delta_st(prof, 0.1) == pytest.approx(0.2, abs=1e-15)


def test_delta_st_equals_eps_beyond_four(two_point):
    # rho(sqrt r) reaches 1 only past r = 4
    prof = build_spread(two_point)
    assert delta_st(prof, 5.0) == pytest.approx(5.0, abs=1e-15)
    assert delta_st(prof, 3.0) == pytest.approx(4.0, abs=1e-15)


@pytest.mark.parametrize("h", [0.5, 0.25])
def test_delta_st_matches_bisection_oracle(h):
    prof = build_spread(uniform_ball_grid(1, h))
    for eps in (0.01, 0.05, 0.2, 1.0):
        assert delta_st(prof, eps) == pytest.approx(bisect_delta_st(prof, eps), abs=1e-12)


def test_delta_matches_bisection_oracle_random():
    prof = build_spread(_random_measure(11))
    for eps in (0.003, 0.02, 0.4):
        lo, hi = 0.0, 5.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid > 0 and mid * prof.rho_at(mid) > eps:
                hi = mid
            else:
                lo = mid
        assert delta(prof, eps) == pytest.approx(hi, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    eps=st.floats(min_value=1e-4, max_value=3.0),
    factor=st.floats(min_value=0.1, max_value=5.0),
)
def test_delta_property_list(seed, eps, factor):
    prof = build_spread(_random_measure(seed, n=5, d=1))
    d1 = delta(prof, eps)
    assert d1 >= eps - 1e-12
    assert delta(prof, eps * 1.5) >= d1 - 1e-12  # monotone
    assert delta(prof, factor * eps) <= max(factor, 1.0) * d1 + 1e-12
    s1 = delta_st(prof, eps)
    assert s1 >= eps - 1e-12
    assert delta_st(prof, eps * 1.5) >= s1 - 1e-12
    assert delta_st(prof, factor * eps) <= max(factor, 1.0) * s1 + 1e-12


def test_delta_rejects_nonpositive_eps(two_point):
    prof = build_spread(two_point)
    with pytest.raises(GeometryError):
        delta(prof, 0.0)
    with pytest.raises(GeometryError):
        delta_st(prof, -1.0)


def test_diameter():
    # the spread profile's diameter against the blocked pass it replaced;
    # one atom has diameter 0 and no spacing
    two = make_measure([-1.0, 1.0], [0.5, 0.5])
    assert build_spread(two).diameter == diameter(two) == 2.0
    assert build_spread(two).min_distance == min_pairwise_distance(two) == 2.0
    one = build_spread(make_measure([0.3], [1.0]))
    assert one.diameter == 0.0 and one.min_distance == np.inf


def test_diameter_and_min_distance_hold_no_square_array():
    # grid d=2 h=0.05 (n=1257): the spread profile reads both off its pass
    # over the squared distances, one row block at a time, so it holds a few
    # blocks (a block of distances, its distinct values and sq_distances'
    # scratch block among them), not an n x n array, which is 48 blocks here
    mu = uniform_ball_grid(2, 0.05)
    tracemalloc.start()
    try:
        prof = build_spread(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.diameter == pytest.approx(2.0) and prof.min_distance == pytest.approx(0.05)
    assert peak < 4 * 8 * measures.BLOCK_ENTRIES


@pytest.mark.parametrize("d", [1, 2, 3])
def test_distances_bitwise_match_broadcast(d, monkeypatch):
    monkeypatch.setattr(measures, "BLOCK_ENTRIES", 7 * 30)  # blocks of 7 rows
    mu = _random_measure(d, n=30, d=d)
    dist = np.sqrt(broadcast_sq_distances(mu.atoms, mu.atoms))
    expected = np.round(dist, DIST_DECIMALS)
    blocks = np.concatenate(list(_distance_blocks(mu, len(mu))))
    assert blocks.tobytes() == expected.tobytes()


@pytest.mark.parametrize("block_rows", [1, 7, 64])
@pytest.mark.parametrize(
    "mu",
    [
        make_measure([[0.1, -0.2], [0.4, 0.3]], [0.5, 0.5]),
        _random_measure(1, n=30, d=1),
        _random_measure(2, n=30, d=2),
        _random_measure(3, n=30, d=3),
        uniform_ball_grid(2, 0.2),
    ],
    ids=["two-atom", "random-weights-d1", "random-weights-d2", "random-weights-d3", "grid-d2"],
)
def test_spread_extremes_bitwise_match_oracles(mu, block_rows, monkeypatch):
    # the spacing and the diameter come out of the profile's own pass,
    # whatever its row blocks, bitwise as the blocked passes they replaced
    # and as the dense distance matrix gives them
    monkeypatch.setattr(measures, "BLOCK_ENTRIES", block_rows * len(mu))
    prof = build_spread(mu)
    dist = np.sqrt(broadcast_sq_distances(mu.atoms, mu.atoms))
    assert prof.diameter == diameter(mu) == float(dist.max())
    np.fill_diagonal(dist, np.inf)
    assert prof.min_distance == min_pairwise_distance(mu) == float(dist.min())


def _assert_spread_matches_loop(mu):
    # read off the atoms, and off the cost matrix as a self-transport run does
    for cost in (None, cost_matrix(mu.atoms, mu.atoms)):
        radii, rho = loop_spread(mu, cost)
        prof = build_spread(mu)
        assert prof.radii.tobytes() == radii.tobytes()
        assert prof.rho_values.tobytes() == rho.tobytes()


@pytest.mark.parametrize(
    "mu",
    [
        make_measure([0.3], [1.0]),
        make_measure([-1.0, 1.0], [0.5, 0.5]),
        make_measure([[0.0, 0.1], [0.2, 0.0]], [0.25, 0.75]),
    ],
    ids=["one-atom", "two-atom-equal", "two-atom-weighted"],
)
def test_spread_bitwise_matches_loop_on_tiny_measures(mu):
    _assert_spread_matches_loop(mu)


@pytest.mark.parametrize("block_rows", [1, 5, 64])
@pytest.mark.parametrize(
    "mu",
    [uniform_ball_grid(2, 0.2), uniform_ball_grid(3, 0.5), _random_measure(5, n=40, d=2)],
    ids=["grid-d2", "grid-d3", "random-weights-d2"],
)
def test_spread_bitwise_matches_loop_across_block_edges(mu, block_rows, monkeypatch):
    # blocks of a row or a few rows, so block edges fall inside the matrix
    # (the weighted pass takes fewer rows per block once R > n)
    monkeypatch.setattr(measures, "BLOCK_ENTRIES", block_rows * len(mu))
    _assert_spread_matches_loop(mu)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.tuples(*[st.integers(min_value=-4, max_value=4)] * d),
                min_size=1, max_size=25, unique=True,
            ),
            st.lists(st.integers(min_value=1, max_value=4), min_size=25, max_size=25),
            st.booleans(),
            st.integers(min_value=1, max_value=40),
        )
    )
)
def test_spread_bitwise_matches_loop_weighted(case):
    # lattice atoms tie many distances; a jitter off the lattice breaks the ties
    points, raw_weights, on_lattice, block_rows = case
    atoms = 0.1 * np.array(points, dtype=float)
    if not on_lattice:
        atoms += np.random.default_rng(len(points)).uniform(-0.03, 0.03, size=atoms.shape)
    w = np.array(raw_weights[: len(atoms)], dtype=float)
    mu = make_measure(atoms, w / w.sum())
    old = measures.BLOCK_ENTRIES
    measures.BLOCK_ENTRIES = block_rows * len(mu)
    try:
        _assert_spread_matches_loop(mu)
    finally:
        measures.BLOCK_ENTRIES = old


@pytest.mark.parametrize("d, h", [(2, 0.07), (3, 0.2)])
def test_spread_holds_no_dense_matrix(d, h):
    # the per-row loop peaked at 2.56 and 2.30 n^2 floats on these grids
    mu = uniform_ball_grid(d, h)
    tracemalloc.start()
    try:
        build_spread(mu)
        peak = tracemalloc.get_traced_memory()[1] / 8.0
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * len(mu) ** 2


def _assert_radii_match_unique(mu):
    # np.unique is the oracle for the distinct pairwise distances, and the
    # per-row loop for the whole profile
    dist = np.sqrt(broadcast_sq_distances(mu.atoms, mu.atoms))
    expected = np.unique(np.round(dist, DIST_DECIMALS))
    assert build_spread(mu).radii.tobytes() == expected.tobytes()
    _assert_spread_matches_loop(mu)


@pytest.mark.parametrize("d, h", [(1, 0.02), (2, 0.1), (3, 0.25)])
def test_radii_bitwise_match_unique_on_grids(d, h):
    _assert_radii_match_unique(uniform_ball_grid(d, h))


@pytest.mark.parametrize("d, a", [(1, 0.5), (1, 2.0), (2, 2.0)])
def test_radii_bitwise_match_unique_on_affine(d, a):
    inst = build_instance({"kind": "affine", "a": a, "d": d, "h": 0.1})
    _assert_radii_match_unique(inst.mu)
    _assert_radii_match_unique(inst.nu)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(min_value=-5, max_value=5)] * d),
            min_size=1, max_size=30, unique=True,
        )
    )
)
def test_radii_bitwise_match_unique_on_lattice(points):
    # lattice atoms make many pairwise distances tie
    atoms = 0.1 * np.array(points, dtype=float)
    _assert_radii_match_unique(make_measure(atoms, np.full(len(atoms), 1.0 / len(atoms))))


def test_boundary_distance_d1():
    mu = uniform_ball_grid(1, 0.5)
    dist = boundary_distance(mu)
    # the hull's end points, then the center
    assert dist[0] == dist[-1] == 0.0
    assert dist[len(mu) // 2] == 1.0
    # min(x - lo, hi - x) is bitwise the distance to the nearer end
    x = mu.atoms[:, 0]
    assert dist.tobytes() == np.abs(x[:, None] - [x.min(), x.max()]).min(axis=1).tobytes()


def test_boundary_distance_d2():
    mu = make_measure(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.25, 0.25]], [0.25, 0.25, 0.25, 0.25]
    )
    dist = boundary_distance(mu)
    assert (dist[:3] == 0.0).all()
    assert dist[3] == pytest.approx(0.25, abs=1e-15)


def test_boundary_distance_d2_matches_per_segment_reference():
    # the least facet slack against the projection onto each hull segment,
    # on random measures and on grids
    measures_d2 = [_random_measure(seed, n=40, d=2) for seed in range(5)]
    measures_d2 += [uniform_ball_grid(2, h) for h in (0.5, 0.2, 0.1)]
    for mu in measures_d2:
        want = segment_boundary_distance(mu)
        assert np.allclose(boundary_distance(mu), want, rtol=0.0, atol=1e-15)


def test_boundary_distance_d3_lattice():
    h = 0.3
    side = np.array([-h, 0.0, h])
    atoms = np.array(np.meshgrid(side, side, side)).reshape(3, -1).T
    mu = make_measure(atoms, np.full(27, 1.0 / 27))
    dist = boundary_distance(mu)
    # h at the center, 0 on the cube's faces, edges and corners
    center = (atoms == 0.0).all(axis=1)
    assert np.array_equal(dist, np.where(center, h, 0.0))


def test_hull_degenerate_d2():
    mu = make_measure([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(GeometryError, match="hull"):
        boundary_distance(mu)
    # a hull with no interior leaves every atom on the boundary
    inst = verify.Instance("collinear", mu, mu)
    assert inst.boundary_distance.tobytes() == np.zeros(3).tobytes()
