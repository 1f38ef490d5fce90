import functools
import math

import numpy as np
import pytest

from oracles import coordinate_support_spread, loop_grad_estimate
from qotlab import cli, geometry, measures, surrogate, verify
from qotlab.measures import affine_map, identity_map, make_measure, pushforward, uniform_ball_grid
from qotlab.qot_solver import SolverConfig, cold_starts
from qotlab.verify import (
    BOUND_IDS,
    EXPLICIT_BOUND_IDS,
    Instance,
    VerifyError,
    check_approx_conj,
    check_bias,
    check_concentration,
    check_rate_floor,
    check_self_transport,
    fit_rate,
    max_min_ratio,
    nonincreasing_within,
    prepare_instance,
    run_checks,
)

SINGLETON = make_measure([0.0], [1.0])
TWO_POINT = make_measure([-1.0, 1.0], [0.5, 0.5])


def _prepare(inst: Instance, eps: float):
    return prepare_instance(inst, SolverConfig(epsilon=eps))


@pytest.fixture(scope="module")
def singleton_solved():
    return _prepare(Instance("singleton", SINGLETON, SINGLETON, identity_map()), 0.1)


@pytest.fixture(scope="module")
def shift_solved():
    monge = affine_map([[0.5]])
    nu = pushforward(TWO_POINT, monge)
    return _prepare(Instance("two-point-shift", TWO_POINT, nu, monge), 0.05)


def test_fit_rate_exact_power_law():
    eps = [10.0 ** (-k) for k in range(1, 6)]
    obs = [e ** (1.0 / 3.0) for e in eps]
    fit = fit_rate(eps, obs)
    assert fit.slope == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_constant_data():
    eps = [0.1, 0.01, 0.001, 0.0001]
    fit = fit_rate(eps, [2.0, 2.0, 2.0, 2.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0  # degenerate fit is exact by convention


def test_fit_rate_validation():
    with pytest.raises(VerifyError):
        fit_rate([0.1, 0.01, 0.001], [1.0, 1.0, 1.0])
    with pytest.raises(VerifyError):
        fit_rate([0.01, 0.1, 0.001, 0.0001], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(VerifyError):
        fit_rate([0.1, 0.01, 0.001, 0.0001], [1.0, 0.0, 1.0, 1.0])


def test_rate_floor_gate():
    check_rate_floor(0.005, 1, 10**-3.5)
    with pytest.raises(VerifyError, match="floor"):
        check_rate_floor(0.05, 2, 10**-3.5)


def test_singleton_explicit_checks_pass(singleton_solved):
    reports = run_checks(singleton_solved, BOUND_IDS)
    for rep in reports:
        if rep.bound_id in EXPLICIT_BOUND_IDS:
            assert rep.holds is True, rep
        else:
            assert rep.holds is None, rep


def test_shift_flags_exactly_the_explicit_bounds(shift_solved):
    # mu != nu: every bound but the four self-transport ones is reported
    reports = run_checks(shift_solved, BOUND_IDS)
    assert len({r.bound_id for r in reports}) == len(BOUND_IDS) - 4
    for rep in reports:
        assert isinstance(rep.holds, bool) == (rep.bound_id in EXPLICIT_BOUND_IDS), rep


def test_bound_ids_are_the_disjoint_union_of_the_producers():
    assert all(len(entry) == 3 for entry in verify._PRODUCERS)
    id_sets = [ids for ids, _, _ in verify._PRODUCERS]
    assert sum(map(len, id_sets)) == len(BOUND_IDS)
    assert frozenset().union(*id_sets) == set(BOUND_IDS)
    assert EXPLICIT_BOUND_IDS < set(BOUND_IDS)


def test_singleton_density_value(singleton_solved):
    (rep,) = run_checks(singleton_solved, ["DensityUB"])
    assert rep.lhs == pytest.approx(0.1, abs=1e-12)  # one-atom slack equals eps
    assert rep.rhs == pytest.approx(0.5, abs=1e-12)
    assert rep.context["instance"] == "singleton"


def test_singleton_cost_sandwich_chain(singleton_solved):
    (rep,) = run_checks(singleton_solved, ["CostSandwich"])
    assert rep.context["exact_cost"] == 0.0
    assert rep.context["qot_cost"] == pytest.approx(0.0, abs=1e-15)
    assert rep.context["dual_sum"] == pytest.approx(0.1, abs=1e-12)
    assert rep.holds is True


def test_two_point_self_reports():
    inst = _prepare(Instance("two-point", TWO_POINT, TWO_POINT, identity_map()), 0.01)
    reports = {r.bound_id: r for r in run_checks(inst, BOUND_IDS) if "side" not in r.context}
    assert reports["SuppDiamM"].holds is True
    assert reports["GradEstimate"].holds is True
    assert reports["SupportInclusion12"].holds is True
    # eps = 0.01 keeps the support on the diagonal
    assert reports["SymUB"].lhs == 0.0


def test_self_transport_checks_rejected_for_asymmetric(shift_solved):
    with pytest.raises(VerifyError, match="self-transport"):
        check_self_transport(shift_solved)


def test_diameter_is_built_for_self_transport_only(monkeypatch):
    # only the mu = nu checks read it, so a mu != nu instance skips the work
    calls = []
    diameter = geometry.diameter

    def counted(mu, *rest):
        calls.append(len(mu))
        return diameter(mu, *rest)

    monkeypatch.setattr(geometry, "diameter", counted)
    monge = affine_map([[0.5]])
    assert Instance("shift", TWO_POINT, pushforward(TWO_POINT, monge), monge).diameter is None
    assert calls == []
    assert Instance("self", TWO_POINT, TWO_POINT).diameter == 2.0
    assert calls == [2]


def test_bias_requires_monge():
    inst = _prepare(Instance("bare", TWO_POINT, TWO_POINT), 0.1)
    with pytest.raises(VerifyError, match="map"):
        check_bias(inst)


def test_run_checks_filters_and_skips(shift_solved):
    reports = run_checks(shift_solved, ["SymUB", "DensityUB"])
    # SymUB silently skipped: the instance is not self-transport
    assert [r.bound_id for r in reports] == ["DensityUB"]
    with pytest.raises(VerifyError, match="unknown"):
        run_checks(shift_solved, ["NotABound"])


def test_bias_reports_on_affine_pair(shift_solved):
    reports = {r.bound_id: r for r in run_checks(shift_solved, BOUND_IDS) if "side" not in r.context}
    assert reports["IntegralGap"].holds is True
    assert reports["DiscrepancyUB"].holds is None
    assert reports["BoundaryBias"].lhs >= 0.0
    assert reports["GeneralBias"].context["vacuous"] in (True, False)
    assert reports["DiscrepancyUB"].context["lipschitz_L"] == 0.5


def test_reports_are_reproducible(shift_solved):
    monge = affine_map([[0.5]])
    nu = pushforward(TWO_POINT, monge)
    again = _prepare(Instance("two-point-shift", TWO_POINT, nu, monge), 0.05)
    a = [r.to_record() for r in run_checks(shift_solved, BOUND_IDS)]
    b = [r.to_record() for r in run_checks(again, BOUND_IDS)]
    assert a == b


def test_grid_explicit_suite_passes():
    mu = uniform_ball_grid(1, 0.25)
    inst = _prepare(Instance("grid", mu, mu, identity_map()), 0.01)
    for rep in run_checks(inst, BOUND_IDS):
        if rep.bound_id in EXPLICIT_BOUND_IDS:
            assert rep.holds is True, (rep.bound_id, rep.lhs, rep.rhs)


def test_max_min_ratio():
    assert max_min_ratio([2.0, 1.0, 4.0]) == 4.0
    assert max_min_ratio([0.0, 0.0]) == 1.0  # vacuous series


def test_nonincreasing_within():
    assert nonincreasing_within([1.0, 0.9, 0.95], slack=0.1)
    assert not nonincreasing_within([1.0, 1.2], slack=0.1)
    assert nonincreasing_within([], slack=0.1)


def _affine_a2_solved(eps: float):
    return _prepare(
        cli.build_instance({"name": "affine-a2", "kind": "affine", "a": 2.0, "h": 0.04}), eps
    )


def _counting(monkeypatch, name: str) -> list:
    calls = []
    fn = getattr(surrogate, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(surrogate, name, counted)
    return calls


def test_surrogate_is_built_on_first_read(monkeypatch):
    calls = _counting(monkeypatch, "build_surrogate")
    mu = uniform_ball_grid(1, 0.05)
    inst = _prepare(Instance("grid-d1", mu, mu, identity_map()), 0.01)
    run_checks(inst, ["SymUB", "SymLB", "SuppDiamM", "GradEstimate", "DensityUB"])
    assert calls == []   # no rate check reads it
    assert inst.surr is inst.surr
    assert len(calls) == 1
    assert inst.surr.lam == 2.0 * inst.d_eps


def test_concentration_matches_per_pair_reference():
    inst = _affine_a2_solved(0.01)
    ii, jj = inst.support_pairs
    worst = 0.0
    for i, j in zip(ii, jj):
        x = inst.instance.mu.atoms[i]
        y = inst.instance.nu.atoms[j]
        (x_prime,), (grad,) = surrogate.minty_reflect(inst.surr, (x + y)[None])
        dist = math.sqrt(float(((x - x_prime) ** 2).sum() + ((y - grad) ** 2).sum()))
        worst = max(worst, dist)
    (rep,) = check_concentration(inst)
    assert np.float64(rep.lhs).tobytes() == np.float64(worst).tobytes()
    assert rep.holds is True
    assert rep.context["support_pairs"] == len(ii)


def test_grad_estimate_matches_per_row_reference():
    mu = uniform_ball_grid(2, 0.2)
    cfg = SolverConfig(epsilon=0.05)
    inst = prepare_instance(Instance("grid-d2", mu, mu, identity_map()), cfg)
    worst = loop_grad_estimate(inst)
    rep = next(r for r in check_self_transport(inst) if r.bound_id == "GradEstimate")
    assert np.float64(rep.lhs).tobytes() == np.float64(worst).tobytes()
    assert rep.holds is True


def _inline_measure(d: int, seed: int):
    # jittered lattice atoms with non-uniform weights
    rng = np.random.default_rng(seed)
    side = np.arange(-8, 9) * 0.1 if d == 1 else np.arange(-4, 5) * 0.2
    pts = np.array(np.meshgrid(*[side] * d)).reshape(d, -1).T
    pts = pts[np.linalg.norm(pts, axis=1) <= 0.8]
    pts = pts + rng.uniform(-0.02, 0.02, size=pts.shape)
    w = rng.uniform(0.2, 1.0, size=len(pts))
    return make_measure(pts, w / w.sum())


SELF_TRANSPORT_CASES = {
    # name: (measure builder, eps)
    "d1-grid": (lambda: uniform_ball_grid(1, 0.05), 0.05),
    "d1-weighted-tol": (lambda: _inline_measure(1, 3), 0.05),
    "d2-weighted-tol": (lambda: _inline_measure(2, 4), 0.05),
    "d2-grid-many-blocks": (lambda: uniform_ball_grid(2, 0.07), 10.0**-1.2),
}


@functools.lru_cache(maxsize=None)
def _self_transport_solved(name: str):
    build, eps = SELF_TRANSPORT_CASES[name]
    mu = build()
    cfg = SolverConfig(epsilon=eps)
    return prepare_instance(Instance(name, mu, mu, identity_map()), cfg)


def _per_row_mask_spread(inst):
    """The support spread, one row of the support at a time, each row's
    columns picked by a mask over the whole coupling."""
    cpl = inst.coupling
    spread = 0.0
    for i in np.unique(cpl.rows()):
        cols = cpl.j_idx[cpl.rows() == i]
        dists = np.sqrt(((inst.instance.mu.atoms[i] - inst.instance.nu.atoms[cols]) ** 2).sum(-1))
        spread = max(spread, float(dists.max()))
    return spread


@pytest.mark.parametrize("block", [None, 5, 300])
@pytest.mark.parametrize("name", sorted(SELF_TRANSPORT_CASES))
def test_self_transport_streams_match_per_row_reference(name, block, monkeypatch):
    # block=None keeps the module's block size; 5 is shorter than every row,
    # so each row is a block of its own; 300 cuts blocks of several rows
    if block is not None:
        monkeypatch.setattr(measures, "BLOCK_ENTRIES", block)
    inst = _self_transport_solved(name)
    cpl = inst.coupling
    blocks = list(verify._support_blocks(cpl))
    if block is None and name == "d2-grid-many-blocks":
        assert len(blocks) >= 3
    # the blocks partition the support in order and never split a row: they
    # cover consecutive row ranges, each of at most the block size in
    # coupling entries unless it is a single row
    size = measures.BLOCK_ENTRIES
    starts = [lo for lo, _, _ in blocks]
    ends = [lo + len(counts) for lo, counts, _ in blocks]
    assert starts[0] == 0 and ends[-1] == cpl.n_mu and starts[1:] == ends[:-1]
    assert all(
        cpl.indptr[b] - cpl.indptr[a] <= size or b == a + 1 for a, b in zip(starts, ends)
    )
    assert all(counts.sum() == len(jj) and jj.dtype == np.intp for _, counts, jj in blocks)
    ii, jj = cpl.rows(), cpl.j_idx
    rows = [np.repeat(np.arange(lo, lo + len(counts)), counts) for lo, counts, _ in blocks]
    assert np.array_equal(np.concatenate(rows), ii)
    assert np.array_equal(np.concatenate([b[2] for b in blocks]), jj)
    pairs = inst.support_pairs
    assert np.array_equal(pairs[0], ii) and np.array_equal(pairs[1], jj)

    worst_dev, spread = loop_grad_estimate(inst), _per_row_mask_spread(inst)
    by_id = {r.bound_id: r for r in check_self_transport(inst)}
    assert np.float64(by_id["GradEstimate"].lhs).tobytes() == np.float64(worst_dev).tobytes()
    assert np.float64(inst.support_spread).tobytes() == np.float64(spread).tobytes()
    assert np.float64(by_id["SymUB"].lhs).tobytes() == np.float64(spread).tobytes()
    assert by_id["GradEstimate"].holds is True


@pytest.mark.parametrize("d, h, eps", [(1, 0.05, 0.05), (2, 0.1, 0.03), (3, 0.25, 0.1)])
def test_support_spread_from_cost_matches_coordinate_loop(d, h, eps):
    mu = uniform_ball_grid(d, h)
    inst = prepare_instance(Instance(f"grid-d{d}", mu, mu, identity_map()), SolverConfig(epsilon=eps))
    assert 0 < len(inst.coupling.masses) < len(mu) ** 2
    want = coordinate_support_spread(inst)
    assert want > 0.0
    assert np.float64(inst.support_spread).tobytes() == np.float64(want).tobytes()


def _grid_d2_half_map_solved():
    # a d=2 grid against itself with the map x -> x / 2: some images are
    # grid atoms and some are not, and many support pairs share a sum x + y
    mu = uniform_ball_grid(2, 0.25)
    return _prepare(Instance("grid-d2-half", mu, mu, affine_map(0.5 * np.eye(2))), 0.05)


def _distinct(points) -> set:
    return {tuple(p) for p in np.asarray(points).tolist()}


def test_concentration_solves_each_distinct_sum_once(monkeypatch):
    inst = _grid_d2_half_map_solved()
    calls = _counting(monkeypatch, "_face_argmin")
    ii, jj = inst.support_pairs
    sums = _distinct(inst.instance.mu.atoms[ii] + inst.instance.nu.atoms[jj])
    check_concentration(inst)
    # the rows that reach the face routine, over its blocks
    assert sum(len(X) for _, X, _ in calls) == len(sums) < len(ii)


def test_bias_reuses_star_at_nu_atoms(monkeypatch):
    inst = _grid_d2_half_map_solved()
    assert "stars" not in vars(inst) and "psi_at_mu" not in vars(inst)
    calls = _counting(monkeypatch, "_face_argmin")
    check_approx_conj(inst)
    check_bias(inst)
    # psi* (weight 0) reaches the face routine once per distinct point among
    # the nu-atoms and the map's images, the envelope prox once per mu-atom
    stars = sum(len(X) for _, X, w in calls if w == 0.0)
    proxes = sum(len(X) for _, X, w in calls if w != 0.0)
    mu, nu = inst.instance.mu, inst.instance.nu
    points = _distinct(np.concatenate([nu.atoms, inst.instance.monge(mu.atoms)]))
    assert len(nu) < stars == len(points) < len(nu) + len(mu)
    assert proxes == len(mu)


def test_prepare_instance_passes_its_start_to_solve():
    mu = uniform_ball_grid(1, 0.1)
    shift = affine_map(0.5 * np.eye(1), [0.25])
    pushed = Instance("shift", mu, pushforward(mu, shift), shift)
    first = _prepare(pushed, 0.1)
    warm = prepare_instance(pushed, SolverConfig(epsilon=0.01), start=first.pot)
    assert warm.coupling.residual <= 1e-10
    assert warm.pot.sweeps < _prepare(pushed, 0.01).pot.sweeps
    # for mu = nu a sweep passes each epsilon's cold start, computed before
    # its pool; the solve reaches the potentials it reaches on its own
    tied = Instance("grid", mu, mu, identity_map())
    (start,) = cold_starts(mu, mu, [0.01], cost=tied.cost)
    given = prepare_instance(tied, SolverConfig(epsilon=0.01), start=start)
    assert given.pot.f_values.tobytes() == _prepare(tied, 0.01).pot.f_values.tobytes()
