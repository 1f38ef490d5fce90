"""Batch orchestration: build or load instances, run the solver and the
bound checkers over an epsilon sweep, one epsilon at a time, and emit
reports and plots.

Exit codes: 0 all explicit-constant checks pass, 1 a check failed,
2 configuration error, 3 solver non-convergence, 4 internal or numerical
error (an inconsistent coupling, a geometry failure, or any other unexpected
exception).  Errors also emit one machine-readable JSON record on stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import qot_solver, verify
# solve_exact is not called here (verify.Instance computes the exact OT), but
# the benchmark tracer wraps this name as well as exact_ot's
from .exact_ot import ExactOTError, solve_exact  # noqa: F401
from .measures import (
    MeasureError,
    MongeMapSpec,
    affine_map,
    identity_map,
    load_measure,
    make_measure,
    measure_from_dict,
    pushforward,
    save_measure,
    uniform_ball_grid,
)
from .qot_solver import ConfigError, ConvergenceError, SolverConfig

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4

DEFAULT_CHECKS = list(verify.BOUND_IDS)

# instance families shipped with the lab; grids are self-transport, affine
# families push a d=1 grid through x -> a x (grid rescaled so images stay in
# the unit ball)
SHIPPED_INSTANCES = [
    {"name": "singleton", "kind": "singleton"},
    {"name": "two-point-self", "kind": "two_point"},
    {"name": "two-point-shift", "kind": "two_point", "a": 0.5},
    {"name": "grid-d1-h0.1", "kind": "grid", "d": 1, "h": 0.1},
    {"name": "grid-d1-h0.05", "kind": "grid", "d": 1, "h": 0.05},
    {"name": "grid-d1-h0.02", "kind": "grid", "d": 1, "h": 0.02},
    {"name": "grid-d2-h0.2", "kind": "grid", "d": 2, "h": 0.2},
    {"name": "affine-a0.5", "kind": "affine", "a": 0.5, "h": 0.02},
    {"name": "affine-a1", "kind": "affine", "a": 1.0, "h": 0.02},
    {"name": "affine-a2", "kind": "affine", "a": 2.0, "h": 0.02},
]


class CliConfigError(ValueError):
    pass


def _monge_from_dict(spec: dict, dim: int) -> MongeMapSpec:
    kind = spec.get("kind")
    if kind == "identity":
        return identity_map()
    if kind == "affine":
        if "a" in spec:
            A = float(spec["a"]) * np.eye(dim)
        else:
            A = np.asarray(spec["matrix"], dtype=float)
        offset = spec.get("offset")
        return affine_map(A, offset)
    raise CliConfigError(f"unknown monge map kind {kind!r}")


def build_instance(spec: dict, base_dir: Path = Path(".")) -> verify.Instance:
    """Materialize an instance from a generator spec or measure files; a
    missing or ill-typed spec key, or an unreadable measure file, is a
    configuration error."""
    if not isinstance(spec, dict):
        raise CliConfigError(f"an instance spec must be an object, got {spec!r}")
    try:
        return _materialize(spec, base_dir)
    except (CliConfigError, MeasureError):
        raise
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise CliConfigError(f"bad instance spec: {type(exc).__name__}: {exc}") from exc


def _materialize(spec: dict, base_dir: Path) -> verify.Instance:
    kind = spec.get("kind")
    name = spec.get("name", kind or "instance")
    if kind == "singleton":
        mu = make_measure([[0.0]], [1.0])
        return verify.Instance(name, mu, mu, identity_map())
    if kind == "two_point":
        mu = make_measure([[-1.0], [1.0]], [0.5, 0.5])
        a = spec.get("a")
        if a is None:
            return verify.Instance(name, mu, mu, identity_map())
        monge = affine_map(float(a) * np.eye(1))
        return verify.Instance(name, mu, pushforward(mu, monge), monge)
    if kind == "grid":
        mu = uniform_ball_grid(int(spec["d"]), float(spec["h"]))
        return verify.Instance(name, mu, mu, identity_map())
    if kind == "affine":
        a = float(spec["a"])
        d = int(spec.get("d", 1))
        base = uniform_ball_grid(d, float(spec["h"]))
        if a > 1.0:
            # shrink the source grid so images a * x stay inside the ball
            base = make_measure(base.atoms / a, base.weights)
        monge = affine_map(a * np.eye(d))
        nu = base if a == 1.0 else pushforward(base, monge)
        return verify.Instance(name, base, nu, monge)
    if kind in ("files", "inline"):
        # files name measure files under base_dir; inline holds the records
        read = measure_from_dict if kind == "inline" else lambda ref: load_measure(base_dir / ref)
        mu = read(spec["mu"])
        same = spec.get("nu", "same") == "same"
        nu = mu if same else read(spec["nu"])
        if spec.get("monge"):
            monge = _monge_from_dict(spec["monge"], mu.dim)
        else:
            monge = identity_map() if same else None
        return verify.Instance(name, mu, nu, monge)
    raise CliConfigError(f"unknown instance kind {kind!r}")


def _real(value, name: str) -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """A JSON integer; booleans, fractions and strings are not integers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


# the solver keys a config may set, each with its JSON type check;
# SolverConfig checks their ranges
_SOLVER_KEYS = {"max_sweeps": _integer, "residual_tol": _real}


@dataclass
class ExperimentConfig:
    instance: dict
    eps_list: list[float]
    output_dir: Path
    solver: SolverConfig   # validated at eps_list[0]; each run replaces its epsilon
    checks: list[str] = field(default_factory=lambda: list(DEFAULT_CHECKS))
    rate_fit: bool = False
    seed: int = 0

    @staticmethod
    def from_dict(raw: dict, base_dir: Path) -> "ExperimentConfig":
        try:
            eps_list = [_real(e, "each eps_list entry") for e in raw["eps_list"]]
            instance = dict(raw["instance"])
            output_dir = base_dir / raw["output_dir"]
            solver = raw.get("solver", {})
            if not isinstance(solver, dict):
                raise TypeError(f"solver must be an object, got {solver!r}")
            unknown = sorted(set(solver) - set(_SOLVER_KEYS))
            if unknown:
                raise ValueError(
                    f"unknown solver keys {unknown}; solver takes {sorted(_SOLVER_KEYS)}"
                )
            settings = {key: _SOLVER_KEYS[key](value, key) for key, value in solver.items()}
            rate_fit = raw.get("rate_fit", False)
            if not isinstance(rate_fit, bool):
                raise TypeError(f"rate_fit must be true or false, got {rate_fit!r}")
            seed = _integer(raw.get("seed", 0), "seed")
        except (KeyError, TypeError, ValueError) as exc:
            raise CliConfigError(f"malformed config: {exc}") from exc
        if not eps_list or not all(math.isfinite(e) and e > 0 for e in eps_list):
            raise CliConfigError("eps_list must be nonempty, finite and positive")
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise CliConfigError("eps_list must be sorted strictly descending")
        try:
            solver = SolverConfig(epsilon=eps_list[0], **settings)
        except ConfigError as exc:
            raise CliConfigError(f"bad solver settings: {exc}") from exc
        checks = raw.get("checks", "all")
        if checks == "all":
            checks = list(DEFAULT_CHECKS)
        if not isinstance(checks, list):
            raise CliConfigError(f'checks must be "all" or a list of bound ids, got {checks!r}')
        unknown = [c for c in checks if c not in verify.BOUND_IDS]
        if unknown:
            raise CliConfigError(f"unknown bound ids in checks: {unknown}")
        return ExperimentConfig(
            instance=instance,
            eps_list=eps_list,
            output_dir=output_dir,
            solver=solver,
            checks=list(checks),
            rate_fit=rate_fit,
            seed=seed,
        )


def _report_sort_key(record: dict):
    return (
        record["bound_id"],
        record["context"].get("epsilon", 0.0),
        record["context"].get("instance", ""),
        json.dumps(record["context"], sort_keys=True),
    )


def run_experiment(config: ExperimentConfig, base_dir: Path):
    """Solve the instance across the eps sweep, run the requested checks, and
    return (report records, rate fits, spread-profile CSV text).

    The epsilons run one at a time, in the config's descending order.  For
    mu = nu each starts from its own cold start, all of them from one
    qot_solver.cold_starts call.  For mu != nu they form one continuation
    chain: the first epsilon from the cold start, each later one
    warm-started from its predecessor's potentials."""
    inst = build_instance(config.instance, base_dir)
    if config.rate_fit:
        # fail a misconfigured rate sweep before any epsilon is solved
        if not inst.self_transport:
            raise CliConfigError("rate_fit requires a self-transport instance")
        if len(inst.mu) < 2:
            raise CliConfigError("rate_fit needs a spread-resolving grid")
        if len(config.eps_list) < 4:
            raise CliConfigError("rate_fit needs at least four epsilon values")
        verify.check_rate_floor(inst.profile.min_distance, inst.mu.dim, min(config.eps_list))
    records, spreads = [], []

    def one_eps(eps: float, start) -> qot_solver.DualPotentials:
        # the solved instance is dropped on return, so no two epsilons'
        # couplings are held at once
        solved = verify.prepare_instance(inst, replace(config.solver, epsilon=eps), start=start)
        for rep in verify.run_checks(solved, config.checks):
            rec = rep.to_record()
            rec["context"]["seed"] = config.seed
            records.append(rec)
        if config.rate_fit:
            spreads.append(solved.support_extents[0])
        return solved.pot

    # mu != nu has no cold starts here: its first epsilon starts cold inside
    # the solve (start None), each later one from its predecessor's potentials
    cold = None
    if inst.self_transport:
        cold = qot_solver.cold_starts(inst.mu, inst.nu, config.eps_list)
    pot = None
    for k, eps in enumerate(config.eps_list):
        pot = one_eps(eps, pot if cold is None else cold[k])
    records.sort(key=_report_sort_key)

    fits = [verify.fit_rate(config.eps_list, spreads)] if config.rate_fit else []
    return records, fits, inst.profile.to_csv()


def trend_summary(records: list[dict]) -> list[dict]:
    """Sweep-level summary for the universal-constant bounds: implied
    constants per epsilon (descending), their max/min ratio, and the
    nonincreasing-trend flag at 10 percent slack."""
    out = []
    universal = sorted(set(verify.BOUND_IDS) - verify.EXPLICIT_BOUND_IDS)
    for bound_id in universal:
        series = sorted(
            (
                (rec["context"]["epsilon"], rec["implied_constant"])
                for rec in records
                if rec["bound_id"] == bound_id and not rec["context"].get("vacuous", False)
            ),
            key=lambda pair: -pair[0],
        )
        if not series:
            continue
        constants = [c for _, c in series]
        out.append(
            {
                "bound_id": bound_id,
                "eps": [e for e, _ in series],
                "implied_constants": constants,
                "max_min_ratio": verify.max_min_ratio(constants),
                "nonincreasing_within_10pct": verify.nonincreasing_within(
                    constants, slack=0.10
                ),
            }
        )
    return out


def _write_reports(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def _write_rates(fits: list[verify.RateFit], out_dir: Path) -> None:
    csv_path = out_dir / "rates.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("epsilon,observable\n")
        for fit in fits:
            for eps, obs in zip(fit.eps_grid, fit.observable):
                fh.write(f"{eps!r},{obs!r}\n")
    summary = [
        {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "points": len(fit.eps_grid),
        }
        for fit in fits
    ]
    with open(out_dir / "rates_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for k, fit in enumerate(fits):
        write_rate_svg(fit, out_dir / f"rate_{k}.svg")


def write_rate_svg(fit: verify.RateFit, path: Path) -> None:
    """Log-log scatter of the observable with the fitted line, as plain SVG."""
    width, height, margin = 480, 360, 50
    lx = [math.log10(e) for e in fit.eps_grid]
    ly = [math.log10(o) for o in fit.observable]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    spanx = (x1 - x0) or 1.0
    spany = (y1 - y0) or 1.0

    def sx(v):
        return margin + (v - x0) / spanx * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y0) / spany * (height - 2 * margin)

    ln10 = math.log(10.0)
    fit_y = [(fit.slope * v * ln10 + fit.intercept) / ln10 for v in (x0, x1)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">log10 epsilon</text>',
        f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height // 2})">log10 observable</text>',
        f'<line x1="{sx(x0):.2f}" y1="{sy(fit_y[0]):.2f}" x2="{sx(x1):.2f}" '
        f'y2="{sy(fit_y[1]):.2f}" stroke="steelblue" stroke-width="1.5"/>',
    ]
    for vx, vy in zip(lx, ly):
        parts.append(f'<circle cx="{sx(vx):.2f}" cy="{sy(vy):.2f}" r="3" fill="crimson"/>')
    parts.append(
        f'<text x="{width - margin}" y="{margin - 10}" font-size="12" text-anchor="end">'
        f"slope={fit.slope:.4f} r2={fit.r_squared:.4f}</text>"
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def _check_output_dir(path: Path) -> None:
    """Reject an output directory that cannot be made or written, without
    creating it: it must name no NUL, and its nearest existing ancestor (or
    itself) must be a writable directory."""
    if "\0" in str(path):
        raise CliConfigError(f"output_dir {str(path)!r} contains a NUL character")
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                raise CliConfigError(
                    f"output_dir {path} cannot be created: {existing} is not a directory"
                )
            if not os.access(existing, os.W_OK | os.X_OK):
                raise CliConfigError(
                    f"output_dir {path} cannot be created: {existing} is not writable"
                )
            return


def _write_outputs(out_dir: Path, records: list[dict], fits, profile_csv: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_reports(records, out_dir / "reports.jsonl")
    (out_dir / "spread.csv").write_text(profile_csv, encoding="utf-8")
    trends = trend_summary(records)
    if trends:
        with open(out_dir / "trends.json", "w", encoding="utf-8") as fh:
            json.dump(trends, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if fits:
        _write_rates(fits, out_dir)


def _error_record(kind: str, detail: str, **fields) -> None:
    record = {"error": kind, "detail": detail, **fields}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def run_command(config_path: str, eps_override=None, tol_override=None) -> int:
    base_dir = Path(config_path).resolve().parent
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        # overrides apply only where they fit; from_dict rejects the rest
        if isinstance(raw, dict):
            if eps_override is not None:
                raw["eps_list"] = eps_override
            solver = raw.get("solver", {})
            if tol_override is not None and isinstance(solver, dict):
                raw["solver"] = {**solver, "residual_tol": tol_override}
        config = ExperimentConfig.from_dict(raw, base_dir)
        _check_output_dir(config.output_dir)
    except (OSError, json.JSONDecodeError, CliConfigError) as exc:
        _error_record("config", str(exc))
        return EXIT_CONFIG

    try:
        records, fits, profile_csv = run_experiment(config, base_dir)
    except ConvergenceError as exc:
        _error_record(
            "no-convergence", str(exc), sweeps=exc.sweeps, residual=exc.residual,
            residual_mu=exc.residual_mu, residual_nu=exc.residual_nu,
            epsilon=exc.epsilon, start=exc.start,
        )
        return EXIT_NO_CONVERGENCE
    except (CliConfigError, ConfigError, MeasureError, verify.VerifyError, ExactOTError) as exc:
        _error_record("config", str(exc))
        return EXIT_CONFIG
    except Exception as exc:
        _error_record(
            "internal",
            str(exc),
            type=type(exc).__name__,
            traceback=traceback.format_exc(),
        )
        return EXIT_INTERNAL

    try:
        _write_outputs(config.output_dir, records, fits, profile_csv)
    except OSError as exc:
        _error_record("config", f"cannot write outputs to {config.output_dir}: {exc}")
        return EXIT_CONFIG

    failed = [r for r in records if r["holds"] is False]
    if failed:
        _error_record(
            "check-failed",
            ";".join(sorted({r["bound_id"] for r in failed})),
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _check_file_name(name) -> None:
    """gen writes <name>.mu.json and <name>.instance.json into its output
    directory and nowhere else: the name must be one plain path component."""
    if not isinstance(name, str) or name in ("", ".", "..") or "\0" in name or any(
        sep in name for sep in (os.sep, os.altsep) if sep
    ):
        raise CliConfigError(f"instance name {name!r} is not a plain file name")


def generate(spec: dict, out_dir: Path) -> list[Path]:
    """Write instance JSON files (and standalone measure files) for the
    requested families."""
    if not isinstance(spec, dict):
        raise CliConfigError(f"a gen spec must be an object, got {spec!r}")
    entries = spec.get("instances", "shipped")
    if entries == "shipped":
        entries = SHIPPED_INSTANCES
    if not isinstance(entries, list):
        raise CliConfigError(f'instances must be "shipped" or a list of specs, got {entries!r}')
    # every instance is built and named before the first file is written
    instances = [build_instance(entry) for entry in entries]
    for inst in instances:
        _check_file_name(inst.name)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for inst in instances:
        mu_path = out_dir / f"{inst.name}.mu.json"
        save_measure(inst.mu, mu_path)
        written.append(mu_path)
        record = {
            "name": inst.name,
            "kind": "inline",
            "mu": inst.mu.to_dict(),
            "nu": "same" if inst.self_transport else inst.nu.to_dict(),
        }
        if inst.monge is not None:
            record["monge"] = inst.monge.to_dict()
        inst_path = out_dir / f"{inst.name}.instance.json"
        with open(inst_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)
            fh.write("\n")
        written.append(inst_path)
    return written


def gen_command(spec_path: str, out: str) -> int:
    try:
        with open(spec_path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        generate(spec, Path(out))
    except (OSError, json.JSONDecodeError, CliConfigError, MeasureError) as exc:
        _error_record("config", str(exc))
        return EXIT_CONFIG
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qotlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a config file")
    p_run.add_argument("-c", "--config", required=True)
    p_run.add_argument("--eps", help="comma list overriding eps_list")
    p_run.add_argument("--tol", type=float, help="override solver residual_tol")

    p_gen = sub.add_parser("gen", help="generate instance files")
    p_gen.add_argument("-s", "--spec", required=True)
    p_gen.add_argument("-o", "--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        eps_override = None
        if args.eps is not None:
            try:
                eps_override = [float(tok) for tok in args.eps.split(",") if tok]
            except ValueError:
                eps_override = []
            if not eps_override:
                _error_record("config", f"bad --eps list {args.eps!r}")
                return EXIT_CONFIG
        return run_command(args.config, eps_override, args.tol)
    if args.command == "gen":
        return gen_command(args.spec, args.out)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
