#!/usr/bin/env python3
"""qotlab benchmark: time verified epsilon sweeps end to end, and trace
where the time goes layer by layer.

    python3 perfbench/run.py --workload bound-suite --seed 0 --seconds 42 --trace 0

Each repetition runs `qotlab.cli.run_command` once, in a fresh process
(worker.py), so set-up time and peak memory are per repetition.  One
repetition runs at a time (a closed loop with one caller).  Repetitions
repeat until --seconds is used up, at least MIN_REPS of them.

--trace 0 reports the end-to-end metrics, from untraced repetitions only.
--trace 1 alternates traced and untraced repetitions and reports the
per-layer metrics of the traced ones (medians), plus the tracing overhead.

Every repetition passes the correctness gate or counts as failed: worker
and run_command exit 0, reports.jsonl byte-identical to the first
repetition's, the rate slope inside the acceptance window, and (traced)
every marginal residual <= 1e-10.  The last stdout line is one JSON object;
the exit code is 1 when any gate fails.  See README.md for the workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

RATE_CHECKS = ["SymUB", "SymLB", "SuppDiamM", "GradEstimate", "DensityUB"]

# Instances are the shipped families scaled down so a repetition takes a few
# seconds (README.md, "Workloads"); eps grids follow the shipped configs down
# to the rate-resolution floor of the coarser grids.
WORKLOADS = {
    "bound-suite": {
        "instance": {"name": "affine-a2", "kind": "affine", "a": 2.0, "h": 0.04},
        "eps_list": [1e-1, 1e-2, 1e-3, 1e-4],
        "checks": "all",
        "slope": None,
    },
    "rate-d1": {
        "instance": {"name": "rate-d1", "kind": "grid", "d": 1, "h": 0.01},
        "eps_list": [10.0**e for e in (-1.0, -1.5, -2.0, -2.5, -3.0, -3.5)],
        "checks": RATE_CHECKS,
        "slope": (0.25, 0.45),
    },
    "rate-d2": {
        "instance": {"name": "rate-d2", "kind": "grid", "d": 2, "h": 0.07},
        "eps_list": [10.0**e for e in (-0.5, -1.0, -1.5, -1.8)],
        "checks": RATE_CHECKS,
        "slope": (0.17, 0.33),
    },
}

MIN_REPS = 3
HARD_LIMIT_S = 150.0   # start no repetition that could end past this
RESIDUAL_TOL = 1e-10

# per-layer metrics that are exact functions of the inputs: they must repeat
# bit for bit across traced repetitions
COUNT_SUFFIXES = (".calls", ".sweeps", ".support_pairs", ".unique_ratio")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith((".busy_s", ".self_s", ".wait_s", ".run_s", ".overhead_s", ".s_per_sweep")):
        return "s"
    if name.endswith((".unique_ratio", ".eps_parallelism", ".residual_max")):
        return "1"
    return "count"


def child_env(n_eps: int) -> tuple[dict, dict]:
    """Environment for the workers: QOTLAB_THREADS unset (the eps pool takes
    os.cpu_count() threads) and BLAS capped so pool x BLAS <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    pool = min(os.cpu_count() or 1, n_eps)
    blas = max(1, nproc // pool)
    env = dict(os.environ)
    env.pop("QOTLAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas)
    return env, {"eps_pool_threads": pool, "blas_threads": blas}


def run_rep(k: int, traced: bool, workload: dict, seed: int, work: Path, env: dict,
            timeout: float) -> dict:
    rep_dir = work / f"rep{k}"
    config = {
        "instance": workload["instance"],
        "eps_list": workload["eps_list"],
        "checks": workload["checks"],
        "rate_fit": workload["slope"] is not None,
        "output_dir": rep_dir.name,
        "seed": seed,
    }
    cfg_path = work / f"rep{k}.json"
    cfg_path.write_text(json.dumps(config, sort_keys=True))
    result_path = work / f"rep{k}.result.json"
    cmd = [sys.executable, str(WORKER), str(cfg_path), str(result_path)]
    if traced:
        cmd += ["--spans", str(work / "spans.jsonl")]
    rep = {"traced": traced, "failures": []}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        rep["failures"].append(f"timed out after {timeout:.0f} s")
        rep["wall"] = timeout
        return rep
    rep["wall"] = time.monotonic() - start
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        rep["failures"].append(f"worker exit {proc.returncode}: {tail[0]}")
        return rep
    result = json.loads(result_path.read_text())
    rep.update(
        run_s=result["run_s"],
        setup_s=result["setup_done"] - start,
        peak_rss_mb=result["peak_rss_mb"],
        env=result["env"],
        layers=result.get("layers"),
        self_s=result.get("self_s"),
    )
    if result["code"] != 0:
        rep["failures"].append(f"run_command exit {result['code']}: {proc.stderr.strip()}")
        return rep
    rep["reports"] = (rep_dir / "reports.jsonl").read_bytes()
    if workload["slope"] is not None:
        lo, hi = workload["slope"]
        slope = json.loads((rep_dir / "rates_summary.json").read_text())[0]["slope"]
        rep["slope"] = slope
        if not lo <= slope <= hi:
            rep["failures"].append(f"rate slope {slope:.4f} outside [{lo}, {hi}]")
    if traced and rep["layers"]["qot_solver.residual_max"] > RESIDUAL_TOL:
        rep["failures"].append(
            f"marginal residual {rep['layers']['qot_solver.residual_max']:.3e} > {RESIDUAL_TOL}"
        )
    return rep


def per_layer(traced: list[dict]) -> tuple[dict, list[str]]:
    """Median of each timing over the traced repetitions; counts must agree
    exactly across them, else the benchmark itself is broken."""
    drift = []
    out = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if name.endswith(COUNT_SUFFIXES):
            if len(set(values)) != 1:
                drift.append(f"{name} drifted across traced repetitions: {values}")
            out[name] = values[0]
        elif name == "qot_solver.residual_max":
            out[name] = max(values)
        else:
            out[name] = statistics.median(values)
    return out, drift


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qotlab" / "cli.py").is_file():
        print(f"no qotlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = BENCH / "out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env, threads = child_env(len(workload["eps_list"]))

    start = time.monotonic()
    reps: list[dict] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        left = HARD_LIMIT_S - (time.monotonic() - start)
        reps.append(run_rep(len(reps), traced, workload, args.seed, work, env, left))
        if reps[-1]["failures"] and "timed out" in reps[-1]["failures"][0]:
            break
        elapsed = time.monotonic() - start
        typical = statistics.median([r["wall"] for r in reps])
        if len(reps) >= MIN_REPS and elapsed + typical > args.seconds:
            break
        if elapsed + typical > HARD_LIMIT_S:
            break

    if "env" in reps[0]:
        print("env", json.dumps({**reps[0]["env"], **threads}, sort_keys=True))
    first = reps[0].get("reports")
    for k, rep in enumerate(reps[1:], start=1):
        if "reports" in rep and rep["reports"] != first:
            rep["failures"].append("reports.jsonl differs from repetition 0")
    failed = [k for k, rep in enumerate(reps) if rep["failures"]]
    for k in failed:
        print(f"FAILED repetition {k}: {'; '.join(reps[k]['failures'])}")
    if first is not None:
        print(f"reports_sha256 {args.workload} seed {args.seed} "
              f"{hashlib.sha256(first).hexdigest()}")

    plain = [r for r in reps if not r["traced"] and "run_s" in r]
    print(f"workload {args.workload}: {len(reps)} repetitions, {len(plain)} untraced "
          f"with results, {sum(r['traced'] for r in reps)} traced")
    e2e = {}
    for name, unit in END_TO_END_UNITS.items():
        values = sorted(r[name] for r in plain)
        if values:
            e2e[name] = statistics.median(values)
            print(f"{name} {e2e[name]:.4f} {unit} (median of {len(values)}, "
                  f"min {values[0]:.4f}, max {values[-1]:.4f})")
    print(f"failed_share {len(failed)}/{len(reps)} = {len(failed) / len(reps):.4f}")
    for rep in reps:
        if "slope" in rep:
            print(f"rate_slope {rep['slope']:.6f}")
            break

    drift = []
    if args.trace:
        traced_reps = [r for r in reps if r["traced"] and r.get("layers")]
        if len(traced_reps) < 2:
            drift.append("fewer than two traced repetitions completed")
            metrics = {}
        else:
            layers, drift = per_layer(traced_reps)
            layers["trace.run_s"] = statistics.median([r["run_s"] for r in traced_reps])
            if "run_s" in e2e:
                layers["trace.overhead_s"] = layers["trace.run_s"] - e2e["run_s"]
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in sorted(layers.items())}
            for name, m in metrics.items():
                print(f"{name} {m['value']:.6g} {m['unit']}")
            names = set().union(*(r["self_s"] for r in traced_reps))
            self_s = {n: statistics.median([r["self_s"].get(n, 0.0) for r in traced_reps]) for n in names}
            # cli spans are left out: their self time is waiting on the eps pool
            ranked = sorted((n for n in self_s if not n.startswith("cli.")),
                            key=self_s.get, reverse=True)
            print("self time, top 3: " + ", ".join(f"{n} {self_s[n]:.3f} s" for n in ranked[:3]))
        for line in drift:
            print(f"COUNT DRIFT: {line}")
    else:
        metrics = {name: {"value": e2e[name], "unit": END_TO_END_UNITS[name]}
                   for name in e2e}

    correct = not failed and not drift
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
