"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
The sweep fixtures are module-scoped: every instance is solved once per
epsilon and shared across criteria.
"""
import json
import math
import time

import numpy as np
import pytest

from oracles import (
    dense_coupling,
    evaluate_f_at,
    minty_map,
    qp_oracle_coupling,
    quadratic_detachment,
)
from qotlab import cli, verify
from qotlab.geometry import build_spread, delta, delta_st
from qotlab.measures import make_measure, uniform_ball_grid
from qotlab.qot_solver import SolverConfig, assemble_coupling, solve

EPS_SWEEP = [1e-1, 1e-2, 1e-3, 1e-4]
RESIDUAL_TOL = 1e-10
SLACK = 1e-8

SMALL_PAIRS = {
    "small-3": (
        make_measure([-0.8, 0.1, 0.7], [0.3, 0.45, 0.25]),
        make_measure([-0.5, 0.0, 0.6], [0.2, 0.5, 0.3]),
    ),
    "small-5": (
        make_measure(
            [[0.0, 0.0], [0.5, 0.2], [-0.4, 0.3], [0.1, -0.6], [-0.2, -0.2]],
            [0.1, 0.2, 0.3, 0.25, 0.15],
        ),
        make_measure(
            [[0.3, 0.1], [-0.5, -0.1], [0.2, 0.4], [-0.1, 0.5], [0.0, -0.4]],
            [0.25, 0.2, 0.15, 0.3, 0.1],
        ),
    ),
}


def _announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def shipped_instances():
    return [cli.build_instance(spec) for spec in cli.SHIPPED_INSTANCES]


@pytest.fixture(scope="module")
def sweep(shipped_instances):
    """Solve every shipped instance across the eps sweep; cache timings,
    prepared pipelines, and full check reports."""
    out = {}
    for inst in shipped_instances:
        per_eps = {}
        for eps in EPS_SWEEP:
            cfg = SolverConfig(epsilon=eps, residual_tol=RESIDUAL_TOL)
            t0 = time.perf_counter()
            solved = verify.prepare_instance(inst, cfg)
            solve_seconds = time.perf_counter() - t0
            reports = verify.run_checks(solved, verify.BOUND_IDS)
            per_eps[eps] = (solved, solve_seconds, reports)
        out[inst.name] = per_eps
    return out


def test_criterion_1_dual_system_fidelity(sweep):
    worst_res, worst_time = 0.0, 0.0
    for name, per_eps in sweep.items():
        for eps, (solved, seconds, _) in per_eps.items():
            assert solved.pot.residual <= RESIDUAL_TOL, (name, eps, solved.pot.residual)
            assert seconds <= 60.0, (name, eps, seconds)
            worst_res = max(worst_res, solved.pot.residual)
            worst_time = max(worst_time, seconds)
    _announce(
        "criterion 1 (dual-system fidelity)",
        True,
        f"worst residual {worst_res:.2e} <= 1e-10, worst solve+prepare {worst_time:.1f}s <= 60s",
    )


def test_criterion_2_oracle_equivalence(shipped_instances):
    small = {
        inst.name: (inst.mu, inst.nu)
        for inst in shipped_instances
        if len(inst.mu) <= 5 and len(inst.nu) <= 5
    }
    small.update(SMALL_PAIRS)
    worst = 0.0
    for name, (mu, nu) in small.items():
        for eps in (1.0, 0.1, 0.01):
            cfg = SolverConfig(epsilon=eps)
            pot = solve(mu, nu, cfg)
            cpl = assemble_coupling(pot, mu, nu, cfg)
            oracle = qp_oracle_coupling(mu, nu, eps)
            frob = float(np.linalg.norm(dense_coupling(cpl) - oracle))
            assert frob <= 1e-6, (name, eps, frob)
            worst = max(worst, frob)
    _announce(
        "criterion 2 (oracle equivalence)",
        True,
        f"{3 * len(small)} instances within 1e-6 of the QP oracle (worst {worst:.2e})",
    )


def test_criterion_3_explicit_constant_suite(sweep):
    checked = 0
    for name, per_eps in sweep.items():
        for eps, (_, _, reports) in per_eps.items():
            for rep in reports:
                if rep.bound_id in verify.EXPLICIT_BOUND_IDS:
                    assert rep.holds is True, (name, eps, rep.bound_id, rep.lhs, rep.rhs)
                    checked += 1
    _announce(
        "criterion 3 (explicit-constant suite)",
        True,
        f"{checked} explicit-constant checks hold at slack 1e-8 across the eps sweep",
    )


def _rate_sweep(d: int, h: float, eps_list, cap_seconds=None):
    mu = uniform_ball_grid(d, h)
    profile = build_spread(mu)
    verify.check_rate_floor(profile.min_distance, d, min(eps_list))
    diam = 2.0
    spreads, lb_constants = [], []
    t0 = time.perf_counter()
    for eps in eps_list:
        cfg = SolverConfig(epsilon=eps, residual_tol=RESIDUAL_TOL)
        pot = solve(mu, mu, cfg)
        cpl = assemble_coupling(pot, mu, mu, cfg)
        diffs = mu.atoms[cpl.rows()] - mu.atoms[cpl.j_idx]
        spread = float(np.sqrt((diffs**2).sum(-1)).max())
        spreads.append(spread)
        scale = min(math.sqrt(delta_st(profile, eps)), diam)
        lb_constants.append(spread / (math.sqrt(2.0) * scale))
    elapsed = time.perf_counter() - t0
    if cap_seconds is not None:
        assert elapsed <= cap_seconds, f"rate sweep took {elapsed:.0f}s"
    # the measured lower-bound constant stays bounded away from zero on
    # floor-compliant sweeps
    assert min(lb_constants) > 0.0
    assert verify.max_min_ratio(lb_constants) <= 10.0, lb_constants
    return verify.fit_rate(eps_list, spreads), elapsed, min(lb_constants)


def test_criterion_4_self_transport_rates():
    eps_d1 = [10.0**e for e in (-1.0, -1.5, -2.0, -2.5, -3.0, -3.5)]
    fit1, secs1, clb1 = _rate_sweep(1, 0.005, eps_d1, cap_seconds=600.0)
    assert 0.25 <= fit1.slope <= 0.45, fit1
    assert fit1.r_squared >= 0.95, fit1

    # d=2 grid; the eps grid stops where h = 0.05 still resolves the support
    eps_d2 = [10.0**e for e in (-0.5, -1.0, -1.5, -2.0, -2.4)]
    fit2, secs2, clb2 = _rate_sweep(2, 0.05, eps_d2)
    assert 0.17 <= fit2.slope <= 0.33, fit2
    _announce(
        "criterion 4 (self-transport rates)",
        True,
        f"d=1 slope {fit1.slope:.3f} in [0.25,0.45] (r2={fit1.r_squared:.3f}, {secs1:.0f}s, "
        f"min measured C_lb {clb1:.2f}); d=2 slope {fit2.slope:.3f} in [0.17,0.33] "
        f"(r2={fit2.r_squared:.3f}, {secs2:.0f}s, min measured C_lb {clb2:.2f})",
    )


def test_criterion_5_property_suites(sweep):
    solved, _, _ = sweep["grid-d1-h0.05"][1e-2]
    surr = solved.surr
    mu = solved.instance.mu
    rng = np.random.default_rng(20260810)
    violations = 0

    # reflection map is 1-Lipschitz: 1000 seeded pairs
    for _ in range(1000):
        u, v = rng.uniform(-2.0, 2.0, size=(2, 1))
        if np.linalg.norm(minty_map(surr, u) - minty_map(surr, v)) > np.linalg.norm(u - v) + SLACK:
            violations += 1

    # quadratic detachment: 1000 probes with y inside the slope hull
    for _ in range(1000):
        x = rng.uniform(-1.0, 1.0, size=1)
        theta = rng.dirichlet(np.ones(len(mu)))
        y = surr.slopes.T @ theta
        gap, lower = quadratic_detachment(surr, x, y)
        if gap < lower - SLACK:
            violations += 1

    # extended potential is 2-Lipschitz: 100 pairs
    for _ in range(100):
        a, b = rng.uniform(-1.0, 1.0, size=2)
        fa = evaluate_f_at([a], solved.pot, solved.instance.nu)
        fb = evaluate_f_at([b], solved.pot, solved.instance.nu)
        if abs(fa - fb) > 2.0 * abs(a - b) + SLACK:
            violations += 1

    # midpoint concavity of f - |.|^2/2: 100 triples
    for _ in range(100):
        a, b = rng.uniform(-1.0, 1.0, size=2)
        mid = 0.5 * (a + b)
        va = evaluate_f_at([a], solved.pot, solved.instance.nu) - 0.5 * a * a
        vb = evaluate_f_at([b], solved.pot, solved.instance.nu) - 0.5 * b * b
        vm = evaluate_f_at([mid], solved.pot, solved.instance.nu) - 0.5 * mid * mid
        if vm < 0.5 * (va + vb) - 1e-9:
            violations += 1

    # spread-function property lists on 50 seeded (C, eps) pairs
    profiles = [
        build_spread(make_measure([-1.0, 1.0], [0.5, 0.5])),
        build_spread(uniform_ball_grid(1, 0.05)),
        build_spread(uniform_ball_grid(2, 0.2)),
    ]
    for _ in range(50):
        c_factor = float(rng.uniform(0.1, 5.0))
        eps = float(rng.uniform(1e-4, 3.0))
        for prof in profiles:
            d1, d2 = delta(prof, eps), delta(prof, 1.5 * eps)
            s1, s2 = delta_st(prof, eps), delta_st(prof, 1.5 * eps)
            ok = (
                d2 >= d1 - 1e-12
                and s2 >= s1 - 1e-12
                and d1 >= eps - 1e-12
                and s1 >= eps - 1e-12
                and delta(prof, c_factor * eps) <= max(c_factor, 1.0) * d1 + 1e-12
                and delta_st(prof, c_factor * eps) <= max(c_factor, 1.0) * s1 + 1e-12
                and delta(prof, 2.0 + eps) == pytest.approx(2.0 + eps, abs=1e-12)
                and delta_st(prof, 4.0 + eps) == pytest.approx(4.0 + eps, abs=1e-12)
            )
            if not ok:
                violations += 1

    # barycenter gradient estimate on every support pair of the self instances
    grad_reports = 0
    for name, per_eps in sweep.items():
        for eps, (_, _, reports) in per_eps.items():
            for rep in reports:
                if rep.bound_id == "GradEstimate":
                    grad_reports += 1
                    if rep.holds is not True:
                        violations += 1

    assert violations == 0
    _announce(
        "criterion 5 (property suites)",
        True,
        f"0 violations across 1000+1000+100+100 probes, 50 spread pairs, "
        f"{grad_reports} gradient-estimate reports",
    )


def test_criterion_6_bias_bound_trend(sweep):
    details = []
    for name in ("affine-a0.5", "affine-a1", "affine-a2"):
        per_eps = sweep[name]
        boundary_implied, general_implied, interior_bias = [], [], []
        for eps in EPS_SWEEP:  # descending
            reports = {r.bound_id: r for r in per_eps[eps][2] if "side" not in r.context}
            boundary_implied.append(reports["BoundaryBias"].implied_constant)
            gen = reports["GeneralBias"]
            if not gen.context["vacuous"]:
                general_implied.append(gen.implied_constant)
                interior_bias.append(gen.lhs)
        ratio_b = verify.max_min_ratio(boundary_implied)
        ratio_g = verify.max_min_ratio(general_implied)
        assert ratio_b <= 10.0, (name, boundary_implied)
        assert ratio_g <= 10.0, (name, general_implied)
        assert verify.nonincreasing_within(interior_bias, slack=0.10), (name, interior_bias)
        details.append(f"{name}: boundary ratio {ratio_b:.2f}, interior points {len(interior_bias)}")
    _announce("criterion 6 (bias-bound trend)", True, "; ".join(details))


def test_criterion_7_determinism(tmp_path):
    config = {
        "instance": {"name": "grid", "kind": "grid", "d": 1, "h": 0.1},
        "eps_list": [0.1, 0.01],
        "checks": "all",
        "output_dir": "out_a",
        "seed": 11,
    }
    cfg_a = tmp_path / "a.json"
    cfg_a.write_text(json.dumps(config))
    assert cli.main(["run", "-c", str(cfg_a)]) == cli.EXIT_OK
    config["output_dir"] = "out_b"
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps(config))
    assert cli.main(["run", "-c", str(cfg_b)]) == cli.EXIT_OK
    bytes_a = (tmp_path / "out_a" / "reports.jsonl").read_bytes()
    bytes_b = (tmp_path / "out_b" / "reports.jsonl").read_bytes()
    assert bytes_a == bytes_b and len(bytes_a) > 0
    _announce(
        "criterion 7 (determinism)",
        True,
        f"two seeded runs produced byte-identical reports.jsonl ({len(bytes_a)} bytes)",
    )
