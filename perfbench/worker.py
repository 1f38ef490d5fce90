"""One benchmark repetition in a fresh process: import qotlab from this
checkout, build the instance, run `cli.run_command` once, and write a JSON
result file.  `run.py` starts it; it is not meant to be run by hand.

    python3 worker.py CONFIG RESULT [--spans SPANS]

With --spans the run is traced (see layers.py): spans go to SPANS and the
per-layer metrics into the result.  The result also records the versions
and thread settings in use.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_qotlab():
    sys.path.insert(0, str(SRC))
    import qotlab

    where = Path(qotlab.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        sys.exit(f"qotlab was imported from {where}, not from this checkout's {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "QOTLAB_THREADS": os.environ.get("QOTLAB_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("result")
    parser.add_argument("--spans")
    args = parser.parse_args()
    import_qotlab()
    from qotlab import cli

    tracer = None
    if args.spans:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    config = json.loads(Path(args.config).read_text())
    cli.build_instance(config["instance"])
    setup_done = time.monotonic()
    start = time.perf_counter()
    code = cli.run_command(args.config)
    run_s = time.perf_counter() - start
    result = {
        "code": code,
        "setup_done": setup_done,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["layers"] = tracer.summarize()
        result["self_s"] = {name: wall for name, (wall, _) in layers.self_times(tracer.spans).items()}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
