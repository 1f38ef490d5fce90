#!/usr/bin/env python3
"""Compare two checkouts of qotlab in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pairs 10 \
        --perfbench rate-d2 rate-d1 bound-suite --seconds 8 --seed 7 \
        --configs d3-rate d2-mu-ne-nu --out bench.json

For each perfbench workload, pair k runs `perfbench/run.py --trace 0` in
both checkouts, the parent first when k is even and the change first when k
is odd, and records each run's medians of run_s, setup_s and peak_rss_mb.
For each named config (the CI sweeps that no perfbench workload reaches),
pair k runs `qotlab run` once per checkout, in the same alternating order
and in the caller's environment, and records the wall time and the peak RSS
of the process.  Each side runs from its own directory with PYTHONPATH set
to its src/.

Per item the summary gives each side's median and quartiles, the number of
pairs in which the change is strictly lower, and the raw values.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH_METRICS = ("run_s", "setup_s", "peak_rss_mb")

# the CI workflow's sweeps beyond perfbench's workloads
CONFIGS = {
    "d3-rate": {
        "instance": {"name": "grid-d3-h0.1", "kind": "grid", "d": 3, "h": 0.1},
        "eps_list": [0.31622776601683794, 0.1778279410038923, 0.1,
                     0.05623413251903491, 0.03162277660168379],
        "checks": ["SymUB", "SymLB", "SuppDiamM", "GradEstimate", "DensityUB"],
        "rate_fit": True, "seed": 0,
    },
    # the d=3 rate config on the finer grid: n=8217, each n x n float array 0.5 GiB
    "d3-h0.08": {
        "instance": {"name": "grid-d3-h0.08", "kind": "grid", "d": 3, "h": 0.08},
        "eps_list": [0.31622776601683794, 0.1778279410038923, 0.1,
                     0.05623413251903491, 0.03162277660168379],
        "checks": ["SymUB", "SymLB", "SuppDiamM", "GradEstimate", "DensityUB"],
        "rate_fit": True, "seed": 0,
    },
    "d2-mu-ne-nu": {
        "instance": {"name": "affine-d2-a2-h0.2", "kind": "affine", "d": 2, "a": 2.0, "h": 0.2},
        "eps_list": [1e-1, 1e-2, 1e-3, 1e-4], "checks": "all", "seed": 0,
    },
}


def perfbench_run(root: Path, workload: str, seconds: float, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"perfbench {workload} failed in {root}:\n{out.stdout}")
    row = {name: result["metrics"][name]["value"] for name in PERFBENCH_METRICS}
    row["attempted"] = result["attempted"]
    return row


def config_run(root: Path, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({**CONFIGS[name], "output_dir": "."}))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "qotlab.cli", "run",
             "-c", str(config)],
            cwd=root, env=env, stdout=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"qotlab run {name} failed in {root}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}


def summarize(rows: dict, metrics) -> dict:
    out = {}
    for metric in metrics:
        sides = {}
        for side in ("parent", "change"):
            values = [r[metric] for r in rows[side]]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            sides[side] = {"median": median, "q1": q1, "q3": q3, "values": values}
        lower = sum(c < p for p, c in zip(sides["parent"]["values"], sides["change"]["values"]))
        out[metric] = {**sides, "change_lower_in_pairs": lower}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--perfbench", nargs="*", default=[])
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--configs", nargs="*", default=[], choices=sorted(CONFIGS))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    def pairs(run):
        rows = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                rows[side].append(run(roots[side]))
            print(k, {side: rows[side][-1] for side in order}, flush=True)
        return rows

    summary = {"pairs": args.pairs, "perfbench": {}, "configs": {}}
    for workload in args.perfbench:
        rows = pairs(lambda root: perfbench_run(root, workload, args.seconds, args.seed))
        summary["perfbench"][workload] = summarize(rows, PERFBENCH_METRICS)
    for name in args.configs:
        rows = pairs(lambda root: config_run(root, name))
        summary["configs"][name] = summarize(rows, ("wall_s", "peak_rss_mb"))
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
