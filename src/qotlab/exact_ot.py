"""Unregularized optimal transport reference solution.

When the instance carries its Monge map T (the identity, or x -> Ax + b with
A symmetric PSD, so T is the gradient of a convex potential) and T pushes mu
onto nu exactly, the coupling (id, T)#mu is optimal (Brenier; Knott-Smith
for the quadratic cost) and is read off the map in O(n).

Otherwise the discrete transportation problem is solved by successive
shortest paths on the bipartite atom graph, entirely in integer arithmetic:
costs are scaled to integers at 1e-9 resolution (rounded down, so the dual
potentials are feasible against the true costs with zero slack) and masses
at 1e-12 resolution by largest-remainder rounding.  Integer pivoting makes
optima and dual prices reproducible independent of float rounding; ties are
broken by lowest index.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import DiscreteMeasure, MongeMapSpec, pushforward_labels
from .qot_solver import Coupling, cost_matrix

COST_SCALE = 10**9
MASS_SCALE = 10**12
ATOM_CAP = 5000   # on the successive-shortest-paths route only


class ExactOTError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class ExactOTSolution:
    coupling: Coupling
    cost: float


def _integer_masses(weights: np.ndarray, scale: int) -> np.ndarray:
    """Largest-remainder rounding to integers summing exactly to scale."""
    scaled = weights * scale
    base = np.floor(scaled).astype(np.int64)
    short = scale - int(base.sum())
    if short > 0:
        remainders = scaled - base
        # ties: lower index first (argsort is stable on the negated key)
        order = np.argsort(-remainders, kind="stable")
        base[order[:short]] += 1
    return base


def solve_exact(
    mu: DiscreteMeasure, nu: DiscreteMeasure, monge: Optional[MongeMapSpec] = None,
    cost: Optional[np.ndarray] = None,
) -> ExactOTSolution:
    """Optimal coupling and cost for the quadratic cost: from the Monge map
    when it certifies, by successive shortest paths (up to ATOM_CAP atoms per
    marginal) otherwise.  cost is cost_matrix(mu.atoms, nu.atoms), which the
    shortest-path route builds when not given."""
    coupling = _map_coupling(mu, nu, monge) if monge is not None else None
    if coupling is None:
        coupling = _ssp(mu, nu, cost)[0]
    return ExactOTSolution(coupling=coupling, cost=coupling.cost_against(mu.atoms, nu.atoms))


def _sparse_coupling(
    mu: DiscreteMeasure, nu: DiscreteMeasure, i_idx: np.ndarray, j_idx: np.ndarray,
    masses: np.ndarray,
) -> Coupling:
    """The coupling of the entries (i_idx, j_idx, masses), given in row-major order."""
    densities = masses / (mu.weights[i_idx] * nu.weights[j_idx])
    # marginal mismatch left by the integer mass rounding, or on the map route
    # by summing the merged weights in another order
    residual = max(
        float(np.abs(np.bincount(i_idx, weights=masses, minlength=len(mu)) - mu.weights).max()),
        float(np.abs(np.bincount(j_idx, weights=masses, minlength=len(nu)) - nu.weights).max()),
    )
    indptr = np.zeros(len(mu) + 1, dtype=np.int64)
    np.cumsum(np.bincount(i_idx, minlength=len(mu)), out=indptr[1:])
    return Coupling(
        n_mu=len(mu),
        n_nu=len(nu),
        epsilon=0.0,
        indptr=indptr,
        j_idx=j_idx.astype(np.int32),
        masses=masses,
        densities=densities,
        residual=residual,
    )


def _map_coupling(
    mu: DiscreteMeasure, nu: DiscreteMeasure, monge: MongeMapSpec
) -> Optional[Coupling]:
    """The coupling (id, T)#mu, or None unless T certifies: the images of
    the mu-atoms, merged as pushforward merges them, must be nu bitwise.
    A map that cannot be applied, or whose images leave the unit ball, does
    not certify; this function never raises on the map's account."""
    try:
        image, labels = pushforward_labels(mu, monge)
    except (ValueError, TypeError, ArithmeticError):  # MeasureError is a ValueError
        return None
    if not image.same_as(nu):
        return None
    return _sparse_coupling(mu, nu, np.arange(len(mu)), labels, mu.weights)


def _ssp(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: Optional[np.ndarray] = None):
    """Optimal coupling and Kantorovich potentials (coupling, f*, g*) by
    successive shortest paths on the integer-scaled problem."""
    n, m = len(mu), len(nu)
    if n > ATOM_CAP or m > ATOM_CAP:
        raise ExactOTError(f"marginals exceed the exact-solver atom cap {ATOM_CAP}")
    C = cost_matrix(mu.atoms, nu.atoms) if cost is None else cost
    Cint = np.floor(C * COST_SCALE).astype(np.int64)
    supply = _integer_masses(mu.weights, MASS_SCALE)
    demand = _integer_masses(nu.weights, MASS_SCALE)

    flow, p, q = _shortest_paths(Cint, supply, demand)

    i_idx, j_idx = np.nonzero(flow > 0)
    coupling = _sparse_coupling(mu, nu, i_idx, j_idx, flow[i_idx, j_idx] / MASS_SCALE)
    return coupling, p / COST_SCALE, q / COST_SCALE


def _shortest_paths(Cint: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Successive shortest paths with node potentials (all integer).

    Maintains dual feasibility p_i + q_j <= Cint_ij for every pair, with
    equality on arcs carrying flow; at termination (p, q) are optimal duals.
    """
    n, m = Cint.shape
    INF = np.iinfo(np.int64).max // 4
    flow = np.zeros((n, m), dtype=np.int64)
    p = np.zeros(n, dtype=np.int64)
    q = np.zeros(m, dtype=np.int64)
    rem_a = supply.copy()
    rem_b = demand.copy()
    in_sources: list[list[int]] = [[] for _ in range(m)]  # sinks' inflow rows

    while rem_a.sum() > 0:
        du = np.where(rem_a > 0, 0, INF)
        dv = np.full(m, INF, dtype=np.int64)
        par_sink = np.full(m, -1, dtype=np.int64)   # source feeding sink on best path
        par_src = np.full(n, -1, dtype=np.int64)    # sink feeding source via residual arc
        done_u = np.zeros(n, dtype=bool)
        done_v = np.zeros(m, dtype=bool)
        target = -1
        while True:
            bu = np.where(done_u, INF, du)
            bv = np.where(done_v, INF, dv)
            iu = int(np.argmin(bu))
            iv = int(np.argmin(bv))
            # sources win ties so the scan order is deterministic
            if bu[iu] <= bv[iv]:
                if bu[iu] >= INF:
                    break
                done_u[iu] = True
                rc = Cint[iu] - p[iu] - q  # forward reduced costs, >= 0
                nd = du[iu] + rc
                better = (~done_v) & (nd < dv)
                dv[better] = nd[better]
                par_sink[better] = iu
            else:
                if bv[iv] >= INF:
                    break
                done_v[iv] = True
                if rem_b[iv] > 0:
                    target = iv
                    break
                for i in in_sources[iv]:
                    if done_u[i]:
                        continue
                    rc = -(Cint[i, iv] - p[i] - q[iv])  # residual arc, = 0 under CS
                    nd = dv[iv] + rc
                    if nd < du[i]:
                        du[i] = nd
                        par_src[i] = iv
        if target < 0:
            raise ExactOTError("internal error: no augmenting path (infeasible flow)")
        D = int(dv[target])
        p -= np.minimum(du, D)
        q += np.minimum(dv, D)

        # walk the path back, collecting the bottleneck
        path: list[tuple[int, int, bool]] = []  # (i, j, forward)
        bottleneck = int(rem_b[target])
        j = target
        while True:
            i = int(par_sink[j])
            path.append((i, j, True))
            if par_src[i] < 0:
                bottleneck = min(bottleneck, int(rem_a[i]))
                root = i
                break
            jb = int(par_src[i])
            path.append((i, jb, False))
            bottleneck = min(bottleneck, int(flow[i, jb]))
            j = jb
        for i, jj, forward in path:
            if forward:
                if flow[i, jj] == 0:
                    in_sources[jj].append(i)
                flow[i, jj] += bottleneck
            else:
                flow[i, jj] -= bottleneck
                if flow[i, jj] == 0:
                    in_sources[jj].remove(i)
        rem_a[root] -= bottleneck
        rem_b[target] -= bottleneck
    return flow, p, q

