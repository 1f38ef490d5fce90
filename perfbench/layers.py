"""Outside-in spans around qotlab's layers, for the traced benchmark run.

`Tracer.install` replaces each traced function where its callers look it
up (module attributes, the `verify._PRODUCERS` entries and `cli.solve_exact`)
with a wrapper that records one span per call: name, parent span, epsilon,
thread id, wall start/end and thread CPU time.  Spans stay in memory until
the run ends; `summarize` turns them into the per-layer metrics.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time

import numpy as np

from qotlab import cli, exact_ot, geometry, qot_solver, surrogate, verify

# span name -> the (module, attribute) slots through which callers reach it
TRACED = {
    "cli.build_instance": [(cli, "build_instance")],
    "cli.run_experiment": [(cli, "run_experiment")],
    "exact_ot.solve_exact": [(exact_ot, "solve_exact"), (cli, "solve_exact")],
    "geometry.build_spread": [(geometry, "build_spread")],
    "qot_solver.solve": [(qot_solver, "solve")],
    "qot_solver.assemble_coupling": [(qot_solver, "assemble_coupling")],
    "qot_solver.max_density": [(qot_solver, "max_density")],
    "surrogate.minty_reflect": [(surrogate, "minty_reflect")],
    "surrogate.eval_psi_star": [(surrogate, "eval_psi_star")],
    "surrogate.eval_psi": [(surrogate, "eval_psi")],
    "verify.prepare_instance": [(verify, "prepare_instance")],
    "verify.run_checks": [(verify, "run_checks")],
}

CHECKERS = (
    "check_density_ub",
    "check_cost_sandwich",
    "check_approx_conj",
    "check_restricted_conj",
    "check_concentration",
    "check_self_transport",
    "check_bias",
)

# calls whose second argument is the point evaluated; the surrogate is fixed
# per epsilon, so (epsilon, bits of the point) identifies a repeated call
KEYED = ("surrogate.minty_reflect", "surrogate.eval_psi_star")

LAYERS = ("qot_solver", "geometry", "surrogate", "exact_ot", "verify")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.keys = {name: set() for name in KEYED}
        self._ids = itertools.count(1)
        self._local = threading.local()
        # the open run_experiment span parents spans opened in pool threads
        self._root: dict | None = None
        self._origin = time.perf_counter()

    def install(self) -> None:
        for name, slots in TRACED.items():
            for module, attr in slots:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
        producers = verify._PRODUCERS
        for k, (ids, fn, guard) in enumerate(producers):
            producers[k] = (ids, self.wrap(f"verify.{fn.__name__}", fn), guard)

    def wrap(self, name: str, fn):
        keys = self.keys.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else self._root
            eps = next(
                (a.epsilon for a in args if hasattr(a, "epsilon")),
                parent["eps"] if parent else None,
            )
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": parent["id"] if parent else None,
                "eps": eps,
                "thread": threading.get_ident(),
            }
            if keys is not None:
                keys.add((eps, np.asarray(args[1], dtype=float).tobytes()))
            stack.append(span)
            if name == "cli.run_experiment":
                self._root = span
            start, cpu = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["cpu"] = time.thread_time() - cpu
                span["start"] = start - self._origin
                span["end"] = time.perf_counter() - self._origin
                stack.pop()
                if name == "cli.run_experiment":
                    self._root = None
                self.spans.append(span)
            if name == "qot_solver.solve":
                span["sweeps"] = int(result.sweeps)
                span["residual"] = float(result.residual)
            elif name == "qot_solver.assemble_coupling":
                span["support_pairs"] = int(result.in_support.sum())
                span["residual"] = float(result.residual)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True))
                fh.write("\n")

    def summarize(self) -> dict:
        """Per-layer metrics of this run; run.py assigns their units."""
        by_name: dict[str, list[dict]] = {}
        for span in self.spans:
            by_name.setdefault(span["name"], []).append(span)

        def calls(name):
            return len(by_name.get(name, []))

        def busy(name):
            return sum(s["end"] - s["start"] for s in by_name.get(name, []))

        m = {}
        for name in list(TRACED) + [f"verify.{c}" for c in CHECKERS]:
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.busy_s"] = busy(name)
        for name in KEYED:
            m[f"{name}.unique_ratio"] = len(self.keys[name]) / calls(name) if calls(name) else 0.0

        solves = by_name.get("qot_solver.solve", [])
        couplings = by_name.get("qot_solver.assemble_coupling", [])
        m["qot_solver.sweeps"] = sum(s["sweeps"] for s in solves)
        m["qot_solver.s_per_sweep"] = (
            busy("qot_solver.solve") / m["qot_solver.sweeps"] if m["qot_solver.sweeps"] else 0.0
        )
        m["qot_solver.support_pairs"] = sum(s["support_pairs"] for s in couplings)
        m["qot_solver.residual_max"] = max(
            (s["residual"] for s in solves + couplings), default=0.0
        )

        run_wall = busy("cli.run_experiment")
        per_eps = busy("verify.prepare_instance") + busy("verify.run_checks")
        m["cli.eps_parallelism"] = per_eps / run_wall if run_wall else 0.0

        for layer in LAYERS:
            m[f"{layer}.self_s"] = m[f"{layer}.wait_s"] = 0.0
        for name, (wall, cpu) in self_times(self.spans).items():
            layer = name.split(".")[0]
            if layer in LAYERS:
                m[f"{layer}.self_s"] += wall
                m[f"{layer}.wait_s"] += wall - cpu
        return m


def self_times(spans: list[dict]) -> dict[str, tuple[float, float]]:
    """Self wall and CPU seconds per span name: each span's time minus that
    of its children on the same thread (pool-thread spans overlap their
    parent rather than nest in it)."""
    thread_of = {s["id"]: s["thread"] for s in spans}
    child_wall: dict[int, float] = {}
    child_cpu: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None and thread_of.get(s["parent"]) == s["thread"]:
            child_wall[s["parent"]] = child_wall.get(s["parent"], 0.0) + s["end"] - s["start"]
            child_cpu[s["parent"]] = child_cpu.get(s["parent"], 0.0) + s["cpu"]
    out: dict[str, tuple[float, float]] = {}
    for s in spans:
        wall, cpu = out.get(s["name"], (0.0, 0.0))
        out[s["name"]] = (
            wall + s["end"] - s["start"] - child_wall.get(s["id"], 0.0),
            cpu + s["cpu"] - child_cpu.get(s["id"], 0.0),
        )
    return out
