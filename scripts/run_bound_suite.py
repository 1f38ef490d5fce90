#!/usr/bin/env python3
"""Run every shipped instance through the full bound-check suite across the
standard epsilon sweep and print a compact pass/ratio summary.

Writes one output directory per instance (reports.jsonl, spread.csv,
trends.json) under the chosen results root.
"""
import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qotlab import cli  # noqa: E402

EPS_SWEEP = [1e-1, 1e-2, 1e-3, 1e-4]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--out", default="results/bounds")
    parser.add_argument("--eps", default=",".join(str(e) for e in EPS_SWEEP))
    args = parser.parse_args()
    out_root = Path(args.out)
    eps_list = [float(tok) for tok in args.eps.split(",") if tok]

    worst_exit = cli.EXIT_OK
    for spec in cli.SHIPPED_INSTANCES:
        name = spec["name"]
        out_dir = out_root / name
        out_dir.mkdir(parents=True, exist_ok=True)
        config = {
            "instance": spec,
            "eps_list": eps_list,
            "checks": "all",
            "output_dir": str(out_dir.resolve()),
            "seed": 0,
        }
        cfg_path = out_dir / "config.json"
        cfg_path.write_text(json.dumps(config, indent=2, sort_keys=True))
        code = cli.run_command(str(cfg_path))
        worst_exit = max(worst_exit, code)

        status = {
            0: "ok", 1: "BOUND FAILED", 2: "config error", 3: "no convergence",
            4: "internal error",
        }[code]
        summary = ""
        reports_path = out_dir / "reports.jsonl"
        if reports_path.exists():
            records = [json.loads(line) for line in reports_path.read_text().splitlines()]
            explicit = [r for r in records if r["holds"] is not None]
            held = sum(1 for r in explicit if r["holds"])
            summary = f"{held}/{len(explicit)} explicit checks hold, {len(records)} reports"
        print(f"{name:18s} {status:14s} {summary}")
    return worst_exit


if __name__ == "__main__":
    sys.exit(main())
