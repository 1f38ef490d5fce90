import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import broadcast_sq_distances, min_pairwise_distance
from qotlab import measures
from qotlab.geometry import build_spread
from qotlab.measures import (
    MeasureError,
    affine_map,
    identity_map,
    load_measure,
    make_measure,
    measure_from_dict,
    pushforward,
    pushforward_labels,
    save_measure,
    sq_distances,
    uniform_ball_grid,
)


def test_singleton_measure():
    mu = make_measure([0.0], [1.0])
    assert mu.dim == 1
    assert len(mu) == 1
    assert mu.weights[0] == 1.0


def test_symmetric_pair():
    mu = make_measure([-1.0, 1.0], [0.5, 0.5])
    assert len(mu) == 2
    assert np.allclose(mu.atoms.ravel(), [-1.0, 1.0])


def test_duplicate_atoms_rejected():
    with pytest.raises(MeasureError, match="duplicate"):
        make_measure([0.0, 0.0], [0.5, 0.5])


def test_near_duplicate_atoms_rejected():
    # coincident at 12-decimal resolution
    with pytest.raises(MeasureError, match="duplicate"):
        make_measure([0.0, 1e-14], [0.5, 0.5])


def test_nonpositive_weight_rejected():
    with pytest.raises(MeasureError, match="positive"):
        make_measure([0.0, 0.5], [1.0, 0.0])
    with pytest.raises(MeasureError, match="positive"):
        make_measure([0.0, 0.5], [1.2, -0.2])


def test_weight_sum_deviation_rejected():
    with pytest.raises(MeasureError, match="sum"):
        make_measure([0.0, 0.5], [0.5, 0.6])


def test_weight_renormalization_within_slack():
    mu = make_measure([0.0, 0.5], [0.5, 0.5 + 5e-10])
    assert abs(mu.weights.sum() - 1.0) < 1e-12


def test_atom_outside_ball_rejected():
    with pytest.raises(MeasureError, match="unit ball"):
        make_measure([1.001], [1.0])


@pytest.mark.parametrize(
    "atoms, weights",
    [
        ([0.0, np.nan], [0.5, 0.5]),
        ([0.0, np.inf], [0.5, 0.5]),
        ([[0.0, 0.0], [np.nan, 0.5]], [0.5, 0.5]),
        ([0.0, 0.5], [0.5, np.nan]),
        ([0.0, 0.5], [np.inf, 0.5]),
    ],
    ids=["nan-atom", "infinite-atom", "nan-coordinate-d2", "nan-weight", "infinite-weight"],
)
def test_non_finite_measure_rejected(atoms, weights):
    # NaN fails every comparison, so only an explicit check catches it
    with pytest.raises(MeasureError, match="finite"):
        make_measure(atoms, weights)


def test_atom_on_boundary_with_float_slack_ok():
    mu = make_measure([1.0 + 5e-13], [1.0])
    assert len(mu) == 1


def test_mismatched_lengths_and_empty():
    with pytest.raises(MeasureError):
        make_measure([0.0], [0.5, 0.5])
    with pytest.raises(MeasureError):
        make_measure([], [])


def test_grid_d1_h1():
    mu = uniform_ball_grid(1, 1.0)
    assert sorted(mu.atoms.ravel()) == [-1.0, 0.0, 1.0]
    assert np.allclose(mu.weights, 1.0 / 3.0)


def test_grid_d1_h05():
    mu = uniform_ball_grid(1, 0.5)
    assert len(mu) == 5
    assert sorted(mu.atoms.ravel()) == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_grid_d2_h1():
    # lattice points of spacing 1 with norm <= 1: origin plus the four axis points
    mu = uniform_ball_grid(2, 1.0)
    got = {tuple(row) for row in mu.atoms}
    assert got == {(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
    assert np.allclose(mu.weights, 0.2)


def test_grid_rejects_bad_dimension():
    with pytest.raises(MeasureError):
        uniform_ball_grid(4, 0.5)


def test_grid_atom_cap():
    with pytest.raises(MeasureError, match="200000"):
        uniform_ball_grid(3, 0.01)
    with pytest.raises(MeasureError, match="10"):
        uniform_ball_grid(1, 0.05, atom_cap=10)


@pytest.mark.parametrize("h", [0.1, 0.05, 0.02])
def test_grid_min_distance_is_h(h):
    mu = uniform_ball_grid(1, h)
    assert abs(build_spread(mu).min_distance - h) < 1e-12


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 9), extra=st.integers(1, 4), d=st.integers(1, 5))
def test_sq_distances_bitwise_matches_broadcast(data, n, extra, d):
    # n != m, so a transposed or misaligned accumulation cannot pass; the
    # sampled coordinates make exact-zero differences and signed zeros common
    coords = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, -1.0]),
        st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=True),
    )
    X = data.draw(hnp.arrays(np.float64, (n, d), elements=coords))
    Y = data.draw(hnp.arrays(np.float64, (n + extra, d), elements=coords))
    for A, B in ((X, Y), (Y, X), (X, X), (X[:1], Y[:1])):
        got = sq_distances(A, B)
        assert got.shape == (len(A), len(B))
        assert got.tobytes() == broadcast_sq_distances(A, B).tobytes()


@pytest.mark.parametrize("scratch_entries", [1, 13, 40])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_sq_distances_bitwise_across_scratch_blocks(d, scratch_entries, monkeypatch):
    # scratch blocks of one row, a few rows, or a part of the matrix
    monkeypatch.setattr(measures, "BLOCK_ENTRIES", scratch_entries)
    rng = np.random.default_rng(d)
    X, Y = rng.uniform(-1.0, 1.0, size=(23, d)), rng.uniform(-1.0, 1.0, size=(11, d))
    Y[:3] = X[:3]  # exact-zero differences inside and across the blocks
    for A, B in ((X, Y), (Y, X)):
        assert sq_distances(A, B).tobytes() == broadcast_sq_distances(A, B).tobytes()


@pytest.mark.parametrize("d, h", [(2, 0.07), (3, 0.2)])
def test_sq_distances_holds_one_matrix(d, h):
    # the result plus a row-block scratch; a full n x m scratch would be 2.0
    mu = uniform_ball_grid(d, h)
    tracemalloc.start()
    try:
        sq_distances(mu.atoms, mu.atoms)
        peak = tracemalloc.get_traced_memory()[1] / 8.0
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * len(mu) ** 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_min_pairwise_distance_bitwise_matches_broadcast(d):
    # the spread profile's spacing against the blocked pass it replaced
    rng = np.random.default_rng(d)
    mu = make_measure(rng.uniform(-0.5, 0.5, size=(40, d)), np.full(40, 1 / 40))
    dist = np.sqrt(broadcast_sq_distances(mu.atoms, mu.atoms))
    np.fill_diagonal(dist, np.inf)
    assert build_spread(mu).min_distance == min_pairwise_distance(mu) == float(dist.min())


def test_identity_pushforward_is_noop():
    mu = uniform_ball_grid(2, 0.5)
    nu = pushforward(mu, identity_map())
    assert nu.atoms is mu.atoms or np.array_equal(nu.atoms, mu.atoms)
    assert np.array_equal(nu.weights, mu.weights)


def test_pushforward_scaling():
    mu = make_measure([-1.0, 1.0], [0.5, 0.5])
    nu = pushforward(mu, affine_map([[0.5]]))
    assert np.allclose(nu.atoms.ravel(), [-0.5, 0.5])
    assert np.array_equal(nu.weights, mu.weights)


def test_pushforward_merges_coincident_images():
    mu = make_measure([-1.0, 1.0], [0.5, 0.5])
    nu = pushforward(mu, affine_map([[0.0]]))  # everything maps to the origin
    assert len(nu) == 1
    assert nu.weights[0] == 1.0
    assert nu.atoms[0, 0] == 0.0


def test_pushforward_labels_point_at_each_image():
    # x -> (x1 + x2) / 2 along the diagonal: lattice points on each
    # anti-diagonal share an image
    mu = uniform_ball_grid(2, 0.5)
    monge = affine_map([[0.25, 0.25], [0.25, 0.25]])
    nu, labels = pushforward_labels(mu, monge)
    assert nu.same_as(pushforward(mu, monge))
    assert len(nu) < len(mu) and sorted(set(labels)) == list(range(len(nu)))
    assert np.abs(nu.atoms[labels] - monge(mu.atoms)).max() <= 1e-12
    assert np.array_equal(np.bincount(labels, weights=mu.weights), nu.weights)
    # unmerged images: label i is atom i
    _, labels = pushforward_labels(mu, affine_map(0.5 * np.eye(2)))
    assert np.array_equal(labels, np.arange(len(mu)))


def test_pushforward_escape_rejected():
    mu = make_measure([-1.0, 1.0], [0.5, 0.5])
    with pytest.raises(MeasureError, match="escapes"):
        pushforward(mu, affine_map([[2.0]]))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    scale=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_pushforward_preserves_mass(n, scale, seed):
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(-0.7, 0.7, size=(n, 2))
    atoms = np.unique(np.round(atoms, 6), axis=0)
    w = rng.uniform(0.1, 1.0, size=len(atoms))
    mu = make_measure(atoms, w / w.sum())
    nu = pushforward(mu, affine_map(scale * np.eye(2)))
    assert abs(nu.weights.sum() - 1.0) < 1e-12


def test_affine_map_validation():
    with pytest.raises(MeasureError, match="symmetric"):
        affine_map([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(MeasureError, match="semidefinite"):
        affine_map([[-0.5]])


@pytest.mark.parametrize(
    "matrix, offset",
    [
        ([[np.nan]], None),
        ([[np.inf]], None),
        ([[1.0, 0.0], [0.0, np.nan]], None),
        ([[0.5]], [np.nan]),
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, -np.inf]),
    ],
    ids=["nan-matrix", "infinite-matrix", "nan-diagonal-d2", "nan-offset", "infinite-offset-d2"],
)
def test_affine_map_rejects_non_finite(matrix, offset):
    with pytest.raises(MeasureError, match="finite"):
        affine_map(matrix, offset)


def test_affine_map_lipschitz_is_top_eigenvalue():
    m = affine_map([[2.0, 0.0], [0.0, 0.5]])
    assert m.lipschitz_L == 2.0


def test_identity_map_lipschitz():
    m = identity_map()
    assert m.lipschitz_L == 1.0
    pts = np.array([[0.6], [-0.2]])
    assert np.array_equal(m(pts), pts)


def test_measure_json_roundtrip(tmp_path):
    mu = uniform_ball_grid(2, 0.5)
    path = tmp_path / "mu.json"
    save_measure(mu, path)
    back = load_measure(path)
    assert back.same_as(mu)


def test_measure_reader_accepts_integer_literals():
    mu = measure_from_dict({"dim": 1, "atoms": [[0], [1]], "weights": [0.5, 0.5]})
    assert mu.atoms[1, 0] == 1.0


def test_measure_reader_accepts_scalar_atoms():
    mu = measure_from_dict({"dim": 1, "atoms": [0, 0.5], "weights": [0.25, 0.75]})
    assert mu.atoms.shape == (2, 1)


def test_measure_reader_rejects_dim_mismatch():
    with pytest.raises(MeasureError):
        measure_from_dict({"dim": 2, "atoms": [[0.0]], "weights": [1.0]})


def test_measure_file_format_fields(tmp_path):
    mu = make_measure([0.0, 0.5], [0.5, 0.5])
    path = tmp_path / "m.json"
    save_measure(mu, path)
    raw = json.loads(path.read_text())
    assert set(raw) == {"dim", "atoms", "weights"}
    assert raw["atoms"] == [[0.0], [0.5]]
