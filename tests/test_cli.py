import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import QhullError

from qotlab import cli, exact_ot, geometry, measures, qot_solver, verify
from qotlab.geometry import GeometryError
from qotlab.measures import load_measure
from qotlab.qot_solver import InconsistencyError


def _write_config(path: Path, **overrides) -> Path:
    config = {
        "instance": {"name": "singleton", "kind": "singleton"},
        "eps_list": [0.1, 0.01],
        "checks": "all",
        "output_dir": "out",
        "seed": 0,
    }
    config.update(overrides)
    cfg_path = path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


def _inline(atoms, weights, **monge) -> dict:
    """An inline d=1 self-transport instance spec; monge, when given, holds
    the matrix or offset of an affine ground-truth map."""
    mu = {"dim": 1, "atoms": atoms, "weights": weights}
    spec = {"name": "inline", "kind": "inline", "mu": mu}
    if monge:
        spec["monge"] = {"kind": "affine", "matrix": [[1.0]], **monge}
    return spec


def test_run_singleton_exit_zero(tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_OK
    lines = (tmp_path / "out" / "reports.jsonl").read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records
    assert all(rec["holds"] is not False for rec in records)
    # merged deterministically by (bound_id, eps)
    keys = [(rec["bound_id"], rec["context"]["epsilon"]) for rec in records]
    assert keys == sorted(keys)
    spread_lines = (tmp_path / "out" / "spread.csv").read_text().splitlines()
    assert spread_lines[0] == "r,rho"
    trends = json.loads((tmp_path / "out" / "trends.json").read_text())
    assert {t["bound_id"] for t in trends} <= set(verify.BOUND_IDS)
    assert all(len(t["eps"]) == 2 for t in trends)


@pytest.mark.parametrize(
    "overrides",
    [
        {"eps_list": [0.1, -0.5]},
        {"eps_list": [0.01, 0.1]},
        {"solver": 5},
        {"solver": {"max_sweeps": "many"}},
        {"seed": "x"},
        {"instance": {"name": "grid", "kind": "grid", "d": 1}},
        {"instance": {"name": "grid", "kind": "grid", "d": 1, "h": "fine"}},
        {"instance": {"name": "files", "kind": "files", "mu": "missing.mu.json"}},
        {"instance": 5},
        {"rate_fit": "false"},
        {"rate_fit": 0},
        {"eps_list": [float("inf")]},
        {"solver": {"residual_tol": float("inf")}},
        {"solver": {"residual_tol": 0}},
        {"solver": {"support_tol": -1e-3}},
        {"solver": {"residual_tl": 1e-9}},
        {"solver": {"support_tol": 0.0}},
        {"solver": {"max_sweeps": 0}},
        {"solver": {"max_sweeps": 0.5}},
        {"solver": {"max_sweeps": True}},
        {"seed": 0.5},
        {"seed": True},
        {"eps_list": [True]},
        {"instance": _inline([[0.0], [float("nan")]], [0.5, 0.5])},
        {"instance": _inline([[0.0], [0.5]], [0.5, float("nan")])},
        {"instance": _inline([[0.0], [0.5]], [0.5, 0.5], offset=[float("nan")])},
        {"instance": _inline([[0.0], [0.5]], [0.5, 0.5], matrix=[[float("inf")]])},
    ],
    ids=[
        "nonpositive-eps", "unsorted-eps", "solver-not-an-object", "max-sweeps-not-a-number",
        "seed-not-a-number", "instance-without-h", "instance-h-not-a-number",
        "instance-file-missing", "instance-not-an-object", "rate-fit-not-a-boolean",
        "rate-fit-zero", "eps-infinite", "residual-tol-infinite", "residual-tol-zero",
        "support-tol-negative", "residual-tol-typo", "support-tol-zero", "max-sweeps-zero",
        "max-sweeps-fractional", "max-sweeps-boolean", "seed-fractional", "seed-boolean",
        "eps-boolean", "inline-nan-atom", "inline-nan-weight", "inline-nan-offset",
        "inline-infinite-matrix",
    ],
)
def test_run_rejects_malformed_config(tmp_path, monkeypatch, capsys, overrides):
    def no_solve(*args, **kwargs):
        raise AssertionError("a rejected config must not reach a solver")

    # the default checks include CostSandwich, whose exact reference is
    # solved before the first epsilon
    monkeypatch.setattr("qotlab.cli.solve_exact", no_solve)
    monkeypatch.setattr("qotlab.verify.qot_solver.solve", no_solve)
    cfg = _write_config(tmp_path, **overrides)
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    solver = overrides.get("solver")
    if isinstance(solver, dict) and not set(solver) <= {"max_sweeps", "residual_tol"}:
        # support_tol is gone: any other solver key is named, never ignored
        assert "unknown solver keys" in record["detail"]
    if "instance" in overrides:
        # gen materializes the same spec and must reject it the same way
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"instances": [overrides["instance"]]}))
        assert cli.main(["gen", "-s", str(spec), "-o", str(tmp_path / "gen")]) == cli.EXIT_CONFIG
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "config"


def test_readme_config_example_is_accepted(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Config schema (JSON):", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    raw = json.loads(block)
    config = cli.ExperimentConfig.from_dict(raw, tmp_path)
    assert config.solver == qot_solver.SolverConfig(epsilon=raw["eps_list"][0], **raw["solver"])
    assert config.output_dir == tmp_path / raw["output_dir"]


@pytest.mark.parametrize(
    "config, flags",
    [
        ({"solver": 5}, ["--tol", "1e-9"]),
        ([], ["--eps", "0.1"]),
        ([], ["--tol", "1e-9"]),
        ({}, ["--eps", "inf"]),
        ({}, ["--tol", "inf"]),
        ({}, ["--eps", ","]),
        ({}, ["--eps", ""]),
    ],
    ids=[
        "tol-on-non-object-solver", "eps-on-list", "tol-on-list", "eps-inf", "tol-inf",
        "eps-empty-list", "eps-empty-string",
    ],
)
def test_run_overrides_on_malformed_config(tmp_path, monkeypatch, capsys, config, flags):
    def no_solve(*args, **kwargs):
        raise AssertionError("a rejected config must not reach the solver")

    monkeypatch.setattr("qotlab.verify.qot_solver.solve", no_solve)
    if isinstance(config, dict):
        cfg = _write_config(tmp_path, **config)
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
    assert cli.main(["run", "-c", str(cfg), *flags]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"


def test_d1_surrogate_never_enumerates_faces(tmp_path, monkeypatch):
    # every d=1 surrogate evaluation is closed form on the lower hull
    def no_faces(*args, **kwargs):
        raise AssertionError("a d=1 surrogate must not enumerate hull faces")

    monkeypatch.setattr("qotlab.surrogate._lower_faces", no_faces)
    monkeypatch.setattr("qotlab.surrogate._face_argmin", no_faces)
    cfg = _write_config(
        tmp_path,
        instance={"name": "a2", "kind": "affine", "a": 2.0, "h": 0.1},
        eps_list=[0.1, 0.01, 0.001],
    )
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_OK


def test_run_missing_config():
    assert cli.main(["run", "-c", "/nonexistent/config.json"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "instance, eps_list, max_sweeps, start",
    [
        # 3 and 5 Newton iterations are needed; each cap stops the solve short
        ({"name": "grid", "kind": "grid", "d": 1, "h": 0.1}, [0.1], 1, "cold"),
        ({"name": "a2", "kind": "affine", "a": 2.0, "h": 0.1}, [0.01], 3, "cold"),
        # eps = 0.1 converges in 3 iterations; eps = 0.01, started from its
        # potentials, needs 6
        ({"name": "a2", "kind": "affine", "a": 2.0, "h": 0.1}, [0.1, 0.01], 5, "warm"),
    ],
    ids=["self-transport", "affine", "affine-warm"],
)
def test_no_convergence_record_carries_sweeps_and_residual(
    tmp_path, capsys, instance, eps_list, max_sweeps, start
):
    cfg = _write_config(
        tmp_path,
        instance=instance,
        eps_list=eps_list,
        solver={"max_sweeps": max_sweeps},
        checks=["DensityUB"],
    )
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_NO_CONVERGENCE
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert set(record) == {
        "error", "detail", "sweeps", "residual", "residual_mu", "residual_nu", "epsilon", "start",
    }
    assert record["error"] == "no-convergence"
    # the epsilon that failed, and the start it was solved from
    assert record["epsilon"] == eps_list[-1]
    assert record["start"] == start
    assert record["sweeps"] == max_sweeps
    assert isinstance(record["residual"], float) and record["residual"] > 1e-10
    # per-side sup-norms of the last sweep; the residual is the larger one
    assert all(isinstance(record[k], float) for k in ("residual_mu", "residual_nu"))
    assert record["residual"] == max(record["residual_mu"], record["residual_nu"])
    assert f"within {max_sweeps} sweeps" in record["detail"]


_GRID_D2 = {"name": "grid", "kind": "grid", "d": 2, "h": 0.5}


@pytest.mark.parametrize(
    "target, overrides, error, recorded",
    [
        # Qhull fails on the d=2 surrogate's lower hull, which the
        # surrogate reports as a GeometryError
        ("scipy.spatial.ConvexHull", {"instance": _GRID_D2, "checks": ["Concentration"]},
         QhullError("flat"), ("GeometryError", "degenerate lower hull: flat")),
        ("qotlab.verify.qot_solver.assemble_coupling", {"checks": ["DensityUB"]},
         InconsistencyError("row"), ("InconsistencyError", "row")),
        ("qotlab.verify.geometry.delta", {"checks": ["DensityUB"]},
         GeometryError("hull"), ("GeometryError", "hull")),
        ("qotlab.verify.qot_solver.max_density", {"checks": ["DensityUB"]},
         ZeroDivisionError("boom"), ("ZeroDivisionError", "boom")),
    ],
    ids=["QhullError", "InconsistencyError", "GeometryError", "unexpected"],
)
def test_run_exit_four_on_internal_error(
    tmp_path, monkeypatch, capsys, target, overrides, error, recorded
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(target, fail)
    cfg = _write_config(tmp_path, **overrides)
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_INTERNAL
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "internal"
    assert (record["type"], record["detail"]) == recorded
    assert "Traceback" in record["traceback"]
    assert not (tmp_path / "out").exists()


def test_run_exit_one_on_failed_check(tmp_path, monkeypatch):
    # force a failing explicit bound to exercise the exit path
    monkeypatch.setattr(
        "qotlab.verify.qot_solver.max_density",
        lambda coupling: 1e9,
    )
    cfg = _write_config(tmp_path, checks=["DensityUB"])
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_CHECK_FAILED


def test_eps_override(tmp_path):
    cfg = _write_config(tmp_path, checks=["DensityUB"])
    assert cli.main(["run", "-c", str(cfg), "--eps", "0.5,0.05"]) == cli.EXIT_OK
    records = [
        json.loads(line)
        for line in (tmp_path / "out" / "reports.jsonl").read_text().splitlines()
    ]
    assert {rec["context"]["epsilon"] for rec in records} == {0.5, 0.05}


def test_seeded_runs_are_byte_identical(tmp_path):
    cfg_a = _write_config(tmp_path, output_dir="out_a", seed=7)
    assert cli.main(["run", "-c", str(cfg_a)]) == cli.EXIT_OK
    cfg_b = _write_config(tmp_path, output_dir="out_b", seed=7)
    assert cli.main(["run", "-c", str(cfg_b)]) == cli.EXIT_OK
    bytes_a = (tmp_path / "out_a" / "reports.jsonl").read_bytes()
    bytes_b = (tmp_path / "out_b" / "reports.jsonl").read_bytes()
    assert bytes_a == bytes_b


def test_rate_fit_outputs(tmp_path):
    config = {
        "instance": {"name": "grid", "kind": "grid", "d": 1, "h": 0.02},
        "eps_list": [10.0**-1, 10.0**-1.5, 10.0**-2, 10.0**-2.5],
        "checks": ["DensityUB"],
        "rate_fit": True,
        "output_dir": "out",
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_OK
    out = tmp_path / "out"
    rates = (out / "rates.csv").read_text().splitlines()
    assert rates[0] == "epsilon,observable"
    assert len(rates) == 5
    summary = json.loads((out / "rates_summary.json").read_text())
    assert len(summary) == 1 and 0.0 < summary[0]["slope"] < 1.0
    svg = (out / "rate_0.svg").read_text()
    assert svg.startswith("<svg") and "slope=" in svg


def test_diameter_computed_once_per_run(tmp_path, monkeypatch):
    # the diameter is read off the spread profile, which is built once
    calls = []
    build_spread = geometry.build_spread

    def counted(mu, *rest):
        calls.append(len(mu))
        return build_spread(mu, *rest)

    monkeypatch.setattr(geometry, "build_spread", counted)
    cfg = _write_config(
        tmp_path,
        instance={"name": "grid", "kind": "grid", "d": 1, "h": 0.1},
        eps_list=[0.1, 0.05, 0.02],
        checks=["SymUB", "SymLB", "SuppDiamM"],
    )
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_OK
    assert calls == [21]
    lines = (tmp_path / "out" / "reports.jsonl").read_text().splitlines()
    assert {json.loads(line)["context"]["diam"] for line in lines} == {2.0}


def test_support_spread_computed_once_per_eps(tmp_path, monkeypatch):
    # the self-transport checks and the rate fit read one memoized value
    calls = []
    support_spread = verify._support_spread

    def counted(inst):
        calls.append(inst.epsilon)
        return support_spread(inst)

    monkeypatch.setattr(verify, "_support_spread", counted)
    eps_list = [10.0**-1, 10.0**-1.5, 10.0**-2, 10.0**-2.5]
    cfg = _write_config(
        tmp_path,
        instance={"name": "grid", "kind": "grid", "d": 1, "h": 0.02},
        eps_list=eps_list,
        checks=["SymUB", "GradEstimate"],
        rate_fit=True,
    )
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_OK
    assert sorted(calls) == sorted(eps_list)


@pytest.mark.parametrize(
    "instance, ssp_builds",
    [
        ({"name": "a2", "kind": "affine", "a": 2.0, "h": 0.1}, []),
        # the map misses nu by 1e-10, so the exact cost takes the SSP route
        ({"name": "ssp", "kind": "inline", "monge": {"kind": "affine", "a": 0.5},
          "mu": {"dim": 1, "atoms": [[-0.8], [-0.2], [0.4], [0.9]], "weights": [0.25] * 4},
          "nu": {"dim": 1, "atoms": [[-0.4], [-0.1], [0.2], [0.4500000001]],
                 "weights": [0.25] * 4}},
         [(4, 4)]),
    ],
    ids=["map-route", "ssp-route"],
)
def test_cost_matrix_built_one_row_block_at_a_time(tmp_path, monkeypatch, instance, ssp_builds):
    # no cost matrix is held: the solver's start and the coupling assembly
    # compute the cost rows they walk, blocks of 3 rows here, and every
    # checker reads the sparse coupling.  Only the exact-OT reference's
    # shortest-path route, capped at exact_ot.ATOM_CAP atoms, builds a whole
    # cost matrix of its own, once per run
    inst = cli.build_instance(instance)
    monkeypatch.setattr(measures, "BLOCK_ENTRIES", 3 * max(len(inst.mu), len(inst.nu)))
    blocks, ssp = [], []
    cost_matrix = qot_solver.cost_matrix

    def counted(calls):
        def count(X, Y):
            calls.append((len(X), len(Y)))
            return cost_matrix(X, Y)
        return count

    monkeypatch.setattr(qot_solver, "cost_matrix", counted(blocks))
    monkeypatch.setattr(exact_ot, "cost_matrix", counted(ssp))
    cfg = _write_config(tmp_path, instance=instance, eps_list=[0.1, 0.01])
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_OK
    assert blocks and all(rows <= 3 for rows, _ in blocks)
    assert ssp == ssp_builds


def test_self_transport_run_computes_distances_one_row_block_at_a_time(tmp_path, monkeypatch):
    # for mu = nu the spread profile (which gives the rate floor's minimum
    # distance and the diameter too) and the cold starts take one pass each
    # over the rows, and each epsilon's coupling assembly one more, all in
    # blocks of 8 rows here: no distance or cost matrix is held
    calls = []
    kernel = measures.sq_distances

    def counted(X, Y):
        calls.append((len(X), len(Y)))
        return kernel(X, Y)

    for module in (measures, geometry, qot_solver):
        monkeypatch.setattr(module, "sq_distances", counted)
    n = len(measures.uniform_ball_grid(1, 0.02))
    monkeypatch.setattr(measures, "BLOCK_ENTRIES", 8 * n)
    eps_list = [10.0**-1, 10.0**-1.5, 10.0**-2, 10.0**-2.5]
    cfg = _write_config(
        tmp_path,
        instance={"name": "grid", "kind": "grid", "d": 1, "h": 0.02},
        eps_list=eps_list,
        checks=["SymUB", "SymLB", "SuppDiamM", "GradEstimate", "DensityUB"],
        rate_fit=True,
    )
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_OK
    assert all(rows <= 8 and cols == n for rows, cols in calls)
    assert sum(rows for rows, _ in calls) == n * (2 + len(eps_list))


def test_d3_grid_rate_checks_smoke(tmp_path):
    cfg = _write_config(
        tmp_path,
        instance={"name": "grid-d3", "kind": "grid", "d": 3, "h": 0.25},
        eps_list=[10.0**-0.5, 10.0**-1],
        checks=["SymUB", "SymLB", "SuppDiamM", "GradEstimate", "DensityUB"],
    )
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_OK
    lines = (tmp_path / "out" / "reports.jsonl").read_text().splitlines()
    assert len(lines) == 10
    assert all(json.loads(line)["holds"] is not False for line in lines)


def test_output_dir_that_cannot_be_created_rejected_before_solving(
    tmp_path, monkeypatch, capsys
):
    def no_solve(*args, **kwargs):
        raise AssertionError("an unwritable output_dir must not reach the solver")

    monkeypatch.setattr("qotlab.verify.qot_solver.solve", no_solve)
    (tmp_path / "blocker").write_text("a regular file\n")
    cfg = _write_config(tmp_path, output_dir="blocker/out")
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    assert "blocker" in record["detail"]


def test_write_error_after_the_run_exits_config(tmp_path, monkeypatch, capsys):
    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_reports", full_disk)
    cfg = _write_config(tmp_path, checks=["DensityUB"])
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"
    assert "No space left on device" in record["detail"]


def test_rate_fit_floor_enforced(tmp_path):
    config = {
        "instance": {"name": "grid", "kind": "grid", "d": 1, "h": 0.1},
        "eps_list": [10.0**-1, 10.0**-2, 10.0**-3, 10.0**-4],
        "checks": ["DensityUB"],
        "rate_fit": True,
        "output_dir": "out",
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "overrides",
    [
        {"instance": {"name": "shift", "kind": "two_point", "a": 0.5}},
        {"instance": {"name": "singleton", "kind": "singleton"}},
        {"instance": {"name": "grid", "kind": "grid", "d": 1, "h": 0.1}},
        {"eps_list": [10.0**-1, 10.0**-1.5, 10.0**-2]},
        {"checks": ["DensityUB", "Concentraton"]},
        {"checks": "DensityUB"},
    ],
    ids=[
        "not-self-transport", "one-atom", "below-floor", "three-eps", "unknown-check",
        "checks-not-a-list",
    ],
)
def test_rate_fit_rejected_before_solving(tmp_path, monkeypatch, capsys, overrides):
    def no_solve(*args, **kwargs):
        raise AssertionError("a rejected rate sweep must not reach the solver")

    monkeypatch.setattr("qotlab.verify.qot_solver.solve", no_solve)
    # without the override this is the valid sweep of test_rate_fit_outputs
    config = {
        "instance": {"name": "grid", "kind": "grid", "d": 1, "h": 0.02},
        "eps_list": [10.0**-1, 10.0**-1.5, 10.0**-2, 10.0**-2.5],
        "checks": ["DensityUB"],
        "rate_fit": True,
    }
    cfg = _write_config(tmp_path, **{**config, **overrides})
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"


def test_gen_writes_instance_files(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {"instances": [{"name": "g", "kind": "grid", "d": 1, "h": 0.02}]}
        )
    )
    out = tmp_path / "gen"
    assert cli.main(["gen", "-s", str(spec), "-o", str(out)]) == cli.EXIT_OK
    mu = load_measure(out / "g.mu.json")
    assert len(mu) == 101
    record = json.loads((out / "g.instance.json").read_text())
    assert record["nu"] == "same"
    assert record["monge"]["kind"] == "identity"


def test_gen_shipped_preset(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"instances": "shipped"}))
    out = tmp_path / "gen"
    assert cli.main(["gen", "-s", str(spec), "-o", str(out)]) == cli.EXIT_OK
    names = {entry["name"] for entry in cli.SHIPPED_INSTANCES}
    for name in names:
        assert (out / f"{name}.instance.json").exists()


def test_gen_rejects_d4(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"instances": [{"name": "bad", "kind": "grid", "d": 4, "h": 0.5}]})
    )
    assert cli.main(["gen", "-s", str(spec), "-o", str(tmp_path / "gen")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "spec", [{"instances": 5}, [{"name": "g", "kind": "grid", "d": 1, "h": 0.5}]],
    ids=["instances-not-a-list", "spec-not-an-object"],
)
def test_gen_rejects_malformed_spec(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["gen", "-s", str(path), "-o", str(tmp_path / "gen")]) == cli.EXIT_CONFIG
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "config"


def test_affine_instance_shrinks_source_grid():
    inst = cli.build_instance({"name": "a2", "kind": "affine", "a": 2.0, "h": 0.02})
    assert np.abs(inst.mu.atoms).max() <= 0.5 + 1e-12
    assert np.abs(inst.nu.atoms).max() <= 1.0 + 1e-12
    assert inst.monge.lipschitz_L == 2.0


def test_affine_a1_is_self_transport():
    inst = cli.build_instance({"name": "a1", "kind": "affine", "a": 1.0, "h": 0.1})
    assert inst.self_transport


def test_files_instance_roundtrip(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"instances": [{"name": "tp", "kind": "two_point", "a": 0.5}]})
    )
    out = tmp_path / "gen"
    cli.main(["gen", "-s", str(spec), "-o", str(out)])
    inst = cli.build_instance(
        {"name": "tp", "kind": "files", "mu": "tp.mu.json", "monge": {"kind": "affine", "a": 0.5}},
        base_dir=out,
    )
    assert inst.nu.same_as(inst.mu)
    config = {
        "instance": json.loads((out / "tp.instance.json").read_text()),
        "eps_list": [0.1],
        "checks": ["DensityUB", "IntegralGap"],
        "output_dir": "out",
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["run", "-c", str(cfg)]) == cli.EXIT_OK


def _traced_worker_run(tmp_path, cfg, **env) -> dict:
    """The result of one traced benchmark worker run of cfg; its spans are
    in tmp_path / "spans.jsonl"."""
    worker = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(worker), str(cfg), str(result_path),
         "--spans", str(tmp_path / "spans.jsonl")],
        capture_output=True, text=True, timeout=300, env={**os.environ, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result_path.read_text())


def test_traced_benchmark_worker_runs(tmp_path):
    # every slot the benchmark tracer wraps must still exist, and the
    # instance-only spread profile is built once per run, not once per epsilon
    cfg = _write_config(
        tmp_path, instance={"name": "grid", "kind": "grid", "d": 1, "h": 0.1}
    )
    result = _traced_worker_run(tmp_path, cfg)
    assert result["code"] == cli.EXIT_OK
    assert result["layers"]["geometry.build_spread.calls"] == 1
    assert result["layers"]["verify.prepare_instance.calls"] == 2


def test_sweep_computes_instance_values_once_on_the_calling_thread(tmp_path):
    # a mu = nu sweep with CostSandwich requested: the spread profile and the
    # exact OT are computed once per run, and every epsilon runs on the
    # thread that runs the experiment
    cfg = _write_config(
        tmp_path,
        instance={"name": "grid", "kind": "grid", "d": 1, "h": 0.1},
        eps_list=[0.1, 0.05, 0.02, 0.01],
    )
    result = _traced_worker_run(tmp_path, cfg)
    assert result["code"] == cli.EXIT_OK
    layers = result["layers"]
    assert layers["geometry.build_spread.calls"] == 1
    assert layers["exact_ot.solve_exact.calls"] == 1
    assert layers["verify.prepare_instance.calls"] == 4
    assert layers["verify.check_cost_sandwich.calls"] == 4
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    (run,) = [s for s in spans if s["name"] == "cli.run_experiment"]
    assert {s["thread"] for s in spans} == {run["thread"]}


def test_d3_general_bias_sees_the_interior_atom(tmp_path):
    # affine d=3 a=0.5 h=0.5 (n=33): the center atom lies 0.707 from the
    # hull boundary, beyond r_general = 0.495 at eps = 1e-4, so GeneralBias
    # has one interior pair there; at larger eps r_general exceeds 0.707
    config = cli.ExperimentConfig.from_dict(
        {"instance": {"name": "d3", "kind": "affine", "d": 3, "a": 0.5, "h": 0.5},
         "eps_list": [1e-1, 1e-2, 1e-3, 1e-4], "checks": "all", "output_dir": "out"},
        tmp_path,
    )
    records, _, _ = cli.run_experiment(config, tmp_path)
    assert all(rec["holds"] is not False for rec in records)
    general = {
        rec["context"]["epsilon"]: rec for rec in records if rec["bound_id"] == "GeneralBias"
    }
    assert general[1e-4]["context"]["r_general"] == pytest.approx(0.495)
    assert general[1e-4]["context"]["interior_pairs"] == 1
    assert general[1e-4]["context"]["vacuous"] is False
    for eps in (1e-1, 1e-2, 1e-3):
        assert general[eps]["context"]["vacuous"] is True


# run in a fresh interpreter, so this test process's own imports do not leak
# in: import the CLI, then run each config and list the modules it loaded
_IMPORT_PROBE = """
import json, sys
from qotlab import cli

def heavy():
    return sorted(m for m in sys.modules if m in ("scipy", "numpy.ma")
                  or m.startswith(("scipy.", "numpy.ma.")))

out = {"after_import": heavy(), "runs": []}
for config in sys.argv[2:]:
    code = cli.run_command(config)
    out["runs"].append({"code": code, "loaded": heavy()})
with open(sys.argv[1], "w") as fh:
    json.dump(out, fh)
"""


def test_run_path_loads_no_scipy(tmp_path):
    configs = {
        "affine-d1-all": {"instance": {"name": "a2", "kind": "affine", "a": 2.0, "h": 0.1}},
        "grid-d1-rate-fit": {
            "instance": {"name": "grid", "kind": "grid", "d": 1, "h": 0.02},
            "eps_list": [10.0**-1, 10.0**-1.5, 10.0**-2, 10.0**-2.5],
            "checks": ["SymUB", "SymLB", "SuppDiamM", "GradEstimate", "DensityUB"],
            "rate_fit": True,
        },
        "grid-d2-rate-checks": {
            "instance": {"name": "grid", "kind": "grid", "d": 2, "h": 0.2},
            "checks": ["SymUB", "SymLB", "SuppDiamM", "GradEstimate", "DensityUB"],
        },
        # the d = 2 support hull and the d >= 2 surrogate's lower hull import
        # scipy.spatial on first use
        "grid-d2-bias": {
            "instance": {"name": "grid", "kind": "grid", "d": 2, "h": 0.2},
            "eps_list": [0.1],
            "checks": ["GeneralBias", "BoundaryBias"],
        },
    }
    paths = []
    for name, overrides in configs.items():
        (tmp_path / name).mkdir()
        paths.append(str(_write_config(tmp_path / name, **overrides)))
    result_path = tmp_path / "modules.json"
    src = str(Path(cli.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(result_path), *paths],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["after_import"] == []
    *numpy_only, bias = dict(zip(configs, result["runs"])).items()
    for name, run in numpy_only:
        assert run == {"code": cli.EXIT_OK, "loaded": []}, name
    assert bias[1]["code"] == cli.EXIT_OK
    assert "scipy.spatial" in bias[1]["loaded"]
    assert not [m for m in bias[1]["loaded"] if m.startswith("scipy.optimize")]


@pytest.mark.parametrize(
    "instance",
    [
        {"name": "a2", "kind": "affine", "a": 2.0, "h": 0.1},
        {"name": "grid", "kind": "grid", "d": 1, "h": 0.1},
    ],
    ids=["mu-ne-nu", "self-transport"],
)
def test_mu_ne_nu_sweep_is_one_warm_start_chain(tmp_path, monkeypatch, instance):
    # mu != nu: the first epsilon starts cold and each later one from its
    # predecessor's potentials, in the config's order; mu = nu: every
    # epsilon starts from its own cold start, all from one sorted pass
    calls = []
    prepare = verify.prepare_instance

    def recorded(inst, cfg, *args, start=None, **kwargs):
        solved = prepare(inst, cfg, *args, start=start, **kwargs)
        calls.append((cfg.epsilon, start, solved.pot))
        return solved

    monkeypatch.setattr(verify, "prepare_instance", recorded)
    eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
    config = cli.ExperimentConfig.from_dict(
        {"instance": instance, "eps_list": eps_list, "checks": ["DensityUB"],
         "output_dir": "out"},
        tmp_path,
    )
    records, _, _ = cli.run_experiment(config, tmp_path)
    assert all(rec["holds"] for rec in records)
    assert [eps for eps, _, _ in calls] == eps_list
    if instance["kind"] == "grid":
        assert all(start.sweeps == 0 and start.epsilon == eps for eps, start, _ in calls)
        return
    assert calls[0][1] is None
    for (_, _, previous), (_, start, _) in zip(calls, calls[1:]):
        assert start is previous


def test_self_transport_with_unequal_weights_reruns_byte_identical(tmp_path):
    # lattice atoms tie many distances, so the sort that gives the cold
    # starts meets ties among unequal weights, whose order sets the last
    # bits of the running sums: three runs give the same records
    raw = [(1.0, 2.0, 3.0)[k % 3] for k in range(17)]
    atoms = [[round(-0.8 + 0.1 * k, 12)] for k in range(17)]
    config = cli.ExperimentConfig.from_dict(
        {"instance": _inline(atoms, [r / sum(raw) for r in raw]),
         "eps_list": [1e-1, 1e-2, 1e-3], "checks": "all", "output_dir": "out"},
        tmp_path,
    )
    runs = [cli.run_experiment(config, tmp_path)[0] for _ in range(3)]
    assert runs[0] and all(rec["holds"] is not False for rec in runs[0])
    texts = [json.dumps(records) for records in runs]
    assert texts[1] == texts[0] and texts[2] == texts[0]


def test_sweep_holds_one_epsilon_working_set(tmp_path):
    # grid d=2 h=0.1 (n=317), four epsilons, the five rate checks: the run
    # holds the instance's cost and one epsilon's solve, coupling and checks
    # at a time, about 4.1 n x n floats; two epsilons at once read 4.85-5.9
    config = cli.ExperimentConfig.from_dict(
        {"instance": {"name": "grid", "kind": "grid", "d": 2, "h": 0.1},
         "eps_list": [10.0**-0.5, 10.0**-1, 10.0**-1.5, 10.0**-1.8],
         "checks": ["SymUB", "SymLB", "SuppDiamM", "GradEstimate", "DensityUB"],
         "output_dir": "out"},
        tmp_path,
    )
    n = len(measures.uniform_ball_grid(2, 0.1))
    tracemalloc.start()
    try:
        records, _, _ = cli.run_experiment(config, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] / (8.0 * n * n)
    finally:
        tracemalloc.stop()
    assert all(rec["holds"] is not False for rec in records)
    assert peak <= 4.5
