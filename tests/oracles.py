"""Independent oracles the test suite checks the library against.

Each oracle takes a route disjoint from the implementation it validates:
the primal QP oracle is accelerated projected gradient with Dykstra
projections (the library solves the dual system), the dual oracle sweeps exact
coordinate updates (the library runs semismooth Newton on the whole dual),
scalar hinge roots come from Newton on the active set (the library sorts
the thresholds and reads each root off their running sums) and from an
argsort of every row block with the weights gathered in its order (the
library sorts equal-weight rows in place), spread values
come from a direct double loop and spread profiles from a dense per-row loop
(the library streams row blocks and, for equal weights, reads order
statistics), the atoms' spacing and diameter from a blocked pass each
(the library reads both off the spread profile's sorted squared distances),
spread inverses from bisection, envelope
gradients from finite differences, exact-transport costs from matching
enumeration or an LP, squared distances from the (n, m, d) broadcast
(the library adds one coordinate at a time), and coupling entries from
np.nonzero with int64 row and column arrays (the library builds row
pointers and int32 columns by blocks of rows), and the surrogate's envelope
prox and conjugate from an active-set QP over the simplex of slopes and a
HiGHS LP (the library enumerates the faces of the lifted points' lower hull),
GradEstimate's barycenters from a Python loop over each row's entries and
from np.bincount segment sums (the library multiplies a blocked 0/1 support
mask by the weights and weighted atoms), Newton's positive slack from the
cost matrix (the library takes it from one rank-(d + 2) matrix product of
the potentials and the atoms), marginal residuals from the dense slack (the
library reads the coupling assembly's positive slack), d=2
hull-boundary distances from projections onto the hull's segments (the
library takes the least slack of the facet inequalities), and the cold
starts, the coupling assembly and the support spread from one dense cost
matrix (the library computes the cost rows it walks, one row block at a
time).

The module also keeps what only the tests use of the library's old API:
the dense view and marginals of a Coupling, the extension of f off the
mu-atoms, the Minty reflection map with its quadratic detachment
inequality, a spread profile's rho at one radius, and GradEstimate's
blocked mask product as a walk of its own (the library takes the support
spread in the same walk).
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from qotlab import measures, surrogate
from qotlab.geometry import DIST_DECIMALS, GeometryError
from qotlab.qot_solver import (
    Coupling,
    DualPotentials,
    InconsistencyError,
    cost_matrix,
    hinge_roots,
)


def marginal_residuals(
    slack: np.ndarray, mu_w: np.ndarray, nu_w: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Residual vectors of the two marginal equation families, from the dense
    slack f_i + g_j - c_ij: res_mu[i] over the nu-integral at x_i, res_nu[j]
    over the mu-integral at y_j."""
    positive = np.maximum(slack, 0.0)
    return np.abs(positive @ nu_w - eps), np.abs(mu_w @ positive - eps)


def outer_positive_slack(f: np.ndarray, g: np.ndarray, C: np.ndarray) -> np.ndarray:
    """[f_i + g_j - C_ij]_+ from the cost matrix, by a broadcast add and a
    subtraction: the slack that qot_solver's product kernel replaced in
    Newton."""
    slack = np.add.outer(f, g)
    slack -= C
    return np.maximum(slack, 0.0, out=slack)


def segment_boundary_distance(mu) -> np.ndarray:
    """Distance from each atom of a d=2 measure to the boundary of the atoms'
    convex hull: the least distance to the projections onto the hull's
    segments, each clamped to its segment (the route that
    geometry.boundary_distance's facet slacks replaced)."""
    segs = mu.atoms[ConvexHull(mu.atoms).simplices]   # (F, 2, 2)
    pts = mu.atoms
    a, ab = segs[:, 0], segs[:, 1] - segs[:, 0]
    along, denom = ((pts[:, None] - a) * ab).sum(axis=2), (ab * ab).sum(axis=1)
    t = np.clip(along / denom, 0.0, 1.0)
    proj = a + t[..., None] * ab
    return np.sqrt(((pts[:, None] - proj) ** 2).sum(axis=2)).min(axis=1)


def broadcast_sq_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared distances through the (n, m, d) broadcast, the form that
    measures.sq_distances replaced."""
    return ((X[:, None] - Y[None]) ** 2).sum(-1)


def min_pairwise_distance(mu) -> float:
    """Smallest distance between two distinct atoms, the minimum over
    blocks of squared distances with their diagonal entries set to +inf:
    the pass that geometry.build_spread's min_distance replaced."""
    n = len(mu)
    if n < 2:
        raise ValueError("need at least two atoms for a pairwise distance")
    best = np.inf
    for rows in measures.row_blocks(n, n):
        block = measures.sq_distances(mu.atoms[rows], mu.atoms)
        block[np.arange(len(block)), np.arange(rows.start, rows.stop)] = np.inf
        best = min(best, float(block.min()))
    return float(np.sqrt(best))


def diameter(mu) -> float:
    """Largest distance between two atoms, the root of the largest squared
    distance over blocks of rows: the pass that geometry.build_spread's
    diameter replaced."""
    n = len(mu)
    if n < 2:
        raise ValueError("diameter needs at least two atoms")
    sq_max = max(
        float(measures.sq_distances(mu.atoms[rows], mu.atoms).max())
        for rows in measures.row_blocks(n, n)
    )
    return float(np.sqrt(sq_max))


def _affine_marginal_projection(z: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto {X : X 1 = a, X^T 1 = b}."""
    n, m = z.shape
    ra = a - z.sum(axis=1)
    rb = b - z.sum(axis=0)
    s = ra.sum()
    u = ra / m - s / (2.0 * n * m)
    v = rb / n - s / (2.0 * n * m)
    return z + u[:, None] + v[None, :]


def project_transport_polytope(
    z: np.ndarray, a: np.ndarray, b: np.ndarray, q: np.ndarray | None = None,
    tol: float = 1e-13, max_iter: int = 200_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Dykstra's alternating projections between the marginal affine set and
    the nonnegative orthant, started from the orthant correction q (zero by
    default).  Returns the projection and the final correction, which
    warm-starts the projection of a nearby point.

    Dykstra's method is block coordinate ascent on the dual of the
    projection, so it converges from any q <= 0.  Near a degenerate
    projection it stalls: x stops moving while the marginals are still off,
    and q moves by the same step every sweep until one of its entries
    reaches 0 (for 12,000 sweeps on one 9 x 6 problem).  A step that repeats
    is taken at once as many times as keeps q <= 0."""
    q = np.zeros_like(z) if q is None else q
    x = z - q
    step = None
    for _ in range(max_iter):
        s = _affine_marginal_projection(z - q, a, b) + q
        x_new = np.maximum(s, 0.0)
        q_new = s - x_new
        delta = np.abs(x_new - x).max()
        x = x_new
        if delta > tol:
            step = None
        else:
            viol = max(
                np.abs(x.sum(axis=1) - a).max(), np.abs(x.sum(axis=0) - b).max()
            )
            if viol <= 1e-11:
                return x, q_new
            last, step = step, q_new - q
            rising = step > 0
            if (
                last is not None
                and rising.any()
                and np.abs(step - last).max() <= 1e-9 * np.abs(step).max()
            ):
                q_new = q_new + np.floor((-q_new[rising] / step[rising]).min()) * step
        q = q_new
    raise RuntimeError("Dykstra projection did not converge")


def qp_oracle_coupling(mu, nu, eps: float, tol: float = 1e-10, max_iter: int = 500_000):
    """Minimizer of sum c pi + (eps/2) sum pi^2 / (mu_i nu_j) over the
    transport polytope by accelerated projected gradient (FISTA, restarted
    whenever a step goes uphill), each projection warm-started from the last.

    Returns a point pi whose projected-gradient step meets the stationarity
    test |proj(pi - tau grad(pi)) - pi|_inf / tau <= tol, with
    tau = min(mu_i nu_j) / eps the inverse of the largest curvature."""
    diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
    C = 0.5 * (diff**2).sum(-1)
    a, b = mu.weights, nu.weights
    P = np.outer(a, b)
    tau = P.min() / eps

    def grad(x):
        return C + eps * x / P

    pi = prev = P.copy()
    t, q = 1.0, None
    for _ in range(max_iter):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = pi + ((t - 1.0) / t_next) * (pi - prev)
        nxt, q = project_transport_polytope(y - tau * grad(y), a, b, q)
        if np.sum((y - nxt) * (nxt - pi)) > 0.0:
            t_next = 1.0  # the step went uphill: drop the momentum
        prev, pi, t = pi, nxt, t_next
        if np.abs(nxt - y).max() / tau <= tol:
            # the accelerated step is small; test the plain step from pi
            check, q = project_transport_polytope(pi - tau * grad(pi), a, b, q)
            if np.abs(check - pi).max() / tau <= tol:
                return pi
    raise RuntimeError("projected gradient oracle did not reach stationarity")


def fresh_hinge_root_batch(S: np.ndarray, w: np.ndarray, eps: float, t=None) -> np.ndarray:
    """Per column j of S, the t with h_j(t) = sum_i w_i (t - S_ij)_+ = eps,
    by Newton on the active set {i : S_ij < t}: t <- (eps + sum w_i S_ij) /
    sum w_i over it.  From the cold start min_i (S_ij + eps / w_i), at or
    above the root, the iterates decrease; a column stops when its step no
    longer decreases it.

    A warm start t, for alternating_solve, may lie on either side of the
    root, so its first step is taken unconditionally and capped at the cold
    start."""
    cold = np.min(S + (eps / w)[:, None], axis=0)

    def newton(t):
        active = S < t
        cw = w @ active
        cs = w @ np.where(active, S, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(cw > 0, (eps + cs) / cw, cold)

    t = cold if t is None else np.minimum(newton(t), cold)
    while True:
        nxt = newton(t)
        down = nxt < t
        if not down.any():
            return t
        t = np.where(down, nxt, t)


# sweeps without a new best residual after which alternating_solve gives up;
# converging runs plateaued for at most 4,200 sweeps on 400 random instances
STALL_SWEEPS = 10_000
# sweeps in a row with a bitwise unchanged residual after which it gives up
# sooner.  Converging runs can also hold one residual for a while: on 8,000
# instances drawn like test_newton_matches_alternating_oracle's, 20 (0.25%)
# held one for 100 sweeps or more (at most 789) and then converged; those
# take the test's QP-oracle branch instead.
FROZEN_SWEEPS = 100


def alternating_solve(mu, nu, eps: float, residual_tol: float = 1e-10,
                      max_sweeps: int = 100_000):
    """Dual potentials by alternating exact coordinate updates, the library's
    solver before semismooth Newton; returns (f, g, residual, sweeps).

    Each sweep updates all g coordinates from the current f, then all f
    coordinates from the new g (each half-sweep warm-started from the
    previous sweep), so the f-side equations hold to machine precision at the
    sweep boundary.  For mu = nu (bitwise) the candidate is the midpoint
    u = (f + g) / 2, a symmetric optimum because the dual is concave and
    invariant under (f, g) <-> (g, f); it is accepted once (u, u) meets the
    residual tolerance and one f-update from u moves it by at most
    residual_tol.  Otherwise the integrals are balanced at the end,
    sum_i mu_i f_i = sum_j nu_j g_j.

    Raises RuntimeError after max_sweeps sweeps, once FROZEN_SWEEPS sweeps
    in a row have left the residual bitwise unchanged, or once STALL_SWEEPS
    sweeps in a row have not lowered the best residual: in floating point
    the sweeps can stall short of residual_tol (on one 9 x 6 pair at
    eps = 1e-3 every sweep from about the 1,200th on translates (f, g) along
    (1, -1) and leaves the residual at one of two neighbouring floats near
    1.755e-7; it first holds one of them for FROZEN_SWEEPS sweeps in a row
    at sweep 2,140).
    """
    C = cost_matrix(mu.atoms, nu.atoms)
    mu_w, nu_w = mu.weights, nu.weights
    self_transport = mu.same_as(nu)
    f = np.zeros(len(mu))
    g = None
    best, stalled = np.inf, 0
    last, frozen = None, 0
    for sweep in range(1, max_sweeps + 1):
        g = fresh_hinge_root_batch(C - f[:, None], mu_w, eps, g)
        f = fresh_hinge_root_batch(C.T - g[:, None], nu_w, eps, f if sweep > 1 else None)
        if self_transport:
            u = 0.5 * (f + g)
            res_mu, res_nu = marginal_residuals(u[:, None] + u[None, :] - C, mu_w, nu_w, eps)
        else:
            res_mu, res_nu = marginal_residuals(f[:, None] + g[None, :] - C, mu_w, nu_w, eps)
        residual = max(float(res_mu.max()), float(res_nu.max()))
        best, stalled = (residual, 0) if residual < best else (best, stalled + 1)
        last, frozen = residual, (frozen + 1 if residual == last else 0)
        if stalled >= STALL_SWEEPS or frozen >= FROZEN_SWEEPS:
            raise RuntimeError(
                f"alternating oracle stalled at residual {best:.3e} "
                f"(sweep {sweep}, residual unchanged for {frozen} sweeps)"
            )
        if residual > residual_tol:
            continue
        if not self_transport:
            shift = 0.5 * (float(nu_w @ g) - float(mu_w @ f))
            return f + shift, g - shift, residual, sweep
        step = fresh_hinge_root_batch(C.T - u[:, None], nu_w, eps, u)
        if np.max(np.abs(step - u)) <= residual_tol:
            return u, u.copy(), residual, sweep
    raise RuntimeError(f"alternating oracle did not converge within {max_sweeps} sweeps")


def brute_force_rho(mu, r: float) -> float:
    """Direct double loop: min over atoms of mass strictly inside radius r,
    on coordinates rounded to 12 decimals (the library's tie convention)."""
    best = np.inf
    atoms = np.round(mu.atoms, 12)
    for i in range(len(mu)):
        mass = 0.0
        for j in range(len(mu)):
            if np.linalg.norm(atoms[j] - atoms[i]) < r:
                mass += mu.weights[j]
        best = min(best, mass)
    return float(best)


def nonzero_coupling(pot, mu, nu) -> dict:
    """The coupling entries as qot_solver.assemble_coupling built them before
    it stored row pointers: int64 rows and columns from np.nonzero of the
    positive slack, in row-major order, with densities and masses gathered
    at them."""
    positive = np.maximum(
        pot.f_values[:, None] + pot.g_values[None, :] - cost_matrix(mu.atoms, nu.atoms), 0.0
    )
    i_idx, j_idx = np.nonzero(positive > 0.0)
    slack = positive[i_idx, j_idx]
    masses = mu.weights[i_idx]
    masses *= nu.weights[j_idx]
    masses *= slack / pot.epsilon
    return {
        "rows": i_idx,
        "columns": j_idx,
        "masses": masses,
        "densities": slack / pot.epsilon,
    }


def loop_spread(mu, cost=None) -> tuple[np.ndarray, np.ndarray]:
    """(radii, rho) of the spread profile from the dense rounded distance
    matrix and one stable sort, running sum and search per row: the per-row
    loop that geometry.build_spread replaced."""
    dist = broadcast_sq_distances(mu.atoms, mu.atoms) if cost is None else np.multiply(cost, 2.0)
    dist = np.round(np.sqrt(dist), DIST_DECIMALS)
    radii = np.unique(dist)
    masses = np.empty((len(mu), len(radii)))
    for a in range(len(mu)):
        order = np.argsort(dist[a], kind="stable")
        cw = np.cumsum(mu.weights[order])
        masses[a] = cw[np.searchsorted(dist[a][order], radii, side="right") - 1]
    return radii, masses.min(axis=0)


def coordinate_support_spread(inst) -> float:
    """Largest |x_i - y_j| over the support pairs of a SolvedInstance, 0 on
    an empty support, from the squared coordinate differences added one
    coordinate at a time: the loop that the blocked support walk
    (verify._support_extents) replaced."""
    cpl = inst.coupling
    ii, jj = cpl.rows(), cpl.j_idx
    if not len(ii):
        return 0.0
    sq = np.zeros(len(ii))
    for x, y in zip(inst.instance.mu.atoms.T, inst.instance.nu.atoms.T):
        diff = x[ii] - y[jj]
        diff *= diff
        sq += diff
    return math.sqrt(float(sq.max()))


def dense_hinge_roots(T: np.ndarray, w: np.ndarray, eps_list) -> np.ndarray:
    """Per row j of the threshold matrix T and each eps of eps_list, the t
    with sum_i w_i (t - T_ji)_+ = eps, from the sorted thresholds of each row
    block of T and their running sums: qot_solver.hinge_roots as it read a
    given threshold matrix, before it computed the cost rows itself."""
    n, m = T.shape
    roots = np.empty((len(eps_list), n))
    for rows in measures.row_blocks(n, m):
        order = np.argsort(T[rows], axis=1)
        knots = np.take_along_axis(T[rows], order, axis=1)
        W = w[order]
        P = np.multiply(W, knots)
        np.cumsum(P, axis=1, out=P)
        np.cumsum(W, axis=1, out=W)
        knots[:, 1:] *= W[:, :-1]
        knots[:, 1:] -= P[:, :-1]
        knots[:, 0] = 0.0
        r = np.arange(len(knots))
        for e, eps in enumerate(eps_list):
            k = np.count_nonzero(knots <= eps, axis=1) - 1
            roots[e, rows] = (eps + P[r, k]) / W[r, k]
    return roots


def argsort_hinge_roots(X: np.ndarray, Y: np.ndarray, shift, w: np.ndarray, eps_list) -> np.ndarray:
    """qot_solver.hinge_roots as it was before it sorted equal-weight rows in
    place: one argsort and weight gather per row block of the thresholds
    cost_matrix(X, Y) - shift, whatever the weights."""
    return dense_hinge_roots(cost_matrix(X, Y) - shift, w, eps_list)


def dense_cost_cold_starts(mu, nu, eps_list) -> list:
    """qot_solver.cold_starts from the whole cost matrix C: the hinge roots
    g of the rows of C (mu = nu, halved) or of C.T, then for mu != nu f from
    the rows of C - g."""
    C = cost_matrix(mu.atoms, nu.atoms)
    if mu.same_as(nu):
        roots = 0.5 * dense_hinge_roots(C, mu.weights, eps_list)
        return [DualPotentials(f_values=u, g_values=u, epsilon=e) for e, u in zip(eps_list, roots)]
    starts = []
    for eps, g in zip(eps_list, dense_hinge_roots(C.T, mu.weights, eps_list)):
        f = dense_hinge_roots(C - g, nu.weights, [eps])[0]
        starts.append(DualPotentials(f_values=f, g_values=g, epsilon=eps))
    return starts


def dense_cost_coupling(pot, mu, nu, cfg) -> Coupling:
    """qot_solver.assemble_coupling from the whole cost matrix: the positive
    slack [f_i + g_j - C_ij]_+ in one buffer, its residuals, then the
    entries in row-major order from np.nonzero, with masses
    (slack / eps) * (mu_i nu_j)."""
    positive = np.add.outer(pot.f_values, pot.g_values)
    positive -= cost_matrix(mu.atoms, nu.atoms)
    np.maximum(positive, 0.0, out=positive)
    res_mu = np.abs(positive @ nu.weights - pot.epsilon)
    res_nu = np.abs(mu.weights @ positive - pot.epsilon)
    residual = max(float(res_mu.max()), float(res_nu.max()))
    if residual > 10.0 * cfg.residual_tol:
        raise InconsistencyError(f"marginal residual {residual:.3e}")
    i_idx, j_idx = np.nonzero(positive > 0.0)
    densities = positive[i_idx, j_idx] / pot.epsilon
    indptr = np.zeros(len(mu) + 1, dtype=np.int64)
    np.cumsum(np.bincount(i_idx, minlength=len(mu)), out=indptr[1:])
    return Coupling(
        n_mu=len(mu),
        n_nu=len(nu),
        epsilon=pot.epsilon,
        indptr=indptr,
        j_idx=j_idx.astype(np.int32),
        masses=densities * (mu.weights[i_idx] * nu.weights[j_idx]),
        density_max=float(densities.max()),
        residual=residual,
    )


def gathered_cost_support_spread(inst) -> float:
    """Largest |x_i - y_j| over the support pairs of a SolvedInstance, 0 on
    an empty support: the root of twice the largest entry of the whole cost
    matrix gathered at the support pairs (x 2 undoes the exact x 0.5)."""
    cpl = inst.coupling
    if not len(cpl.masses):
        return 0.0
    C = cost_matrix(inst.instance.mu.atoms, inst.instance.nu.atoms)
    return math.sqrt(2.0 * float(C[cpl.rows(), cpl.j_idx].max()))


def loop_grad_estimate(inst) -> float:
    """GradEstimate's lhs for a SolvedInstance, one row of the support at a
    time: the row's weight total and weighted coordinate sums added term by
    term in index order (the order in which np.bincount adds them), then the
    largest distance from a row's support atom to the row's barycenter, with
    the squared differences added one coordinate at a time; 0 on an empty
    support."""
    cpl, nu = inst.coupling, inst.instance.nu
    atoms, weights = nu.atoms, nu.weights
    worst = 0.0
    for i in range(cpl.n_mu):
        cols = cpl.j_idx[cpl.indptr[i]:cpl.indptr[i + 1]]
        if not len(cols):
            continue
        total, sums = 0.0, [0.0] * nu.dim
        for j in cols:
            total += weights[j]
            for c in range(nu.dim):
                sums[c] += weights[j] * atoms[j, c]
        bary = [s / total for s in sums]
        for j in cols:
            sq = 0.0
            for c in range(nu.dim):
                diff = bary[c] - atoms[j, c]
                sq += diff * diff
            worst = max(worst, float(sq))
    return math.sqrt(worst)


def bincount_grad_estimate(inst) -> float:
    """GradEstimate's lhs for a SolvedInstance from segment sums: np.bincount
    over the support entries gives each row's weight total and, one
    coordinate at a time, its weighted coordinate sums, each added in index
    order, so bitwise the sums of loop_grad_estimate (the route that the
    blocked mask product of mask_grad_estimate replaced)."""
    cpl, nu = inst.coupling, inst.instance.nu
    counts = np.diff(cpl.indptr)
    counts = counts[counts > 0]
    if not len(counts):
        return 0.0
    seg = np.repeat(np.arange(len(counts)), counts)
    jj = cpl.j_idx.astype(np.intp)
    w = nu.weights[jj]
    total = np.bincount(seg, weights=w, minlength=len(counts))
    sq = np.zeros(len(jj))
    for coord in nu.atoms.T:
        y = coord[jj]
        num = np.bincount(seg, weights=w * y, minlength=len(counts))
        diff = (num / total)[seg] - y
        diff *= diff
        sq += diff
    return math.sqrt(float(sq.max()))


def mask_grad_estimate(inst) -> float:
    """GradEstimate's lhs for a SolvedInstance from its own walk of the
    support, 0 on an empty support: per block of rows (measures.row_blocks)
    the block's support is scattered as 1s into a reused 0/1 float buffer,
    one matrix product with [w, w * y] gives each row's weight total and
    weighted coordinate sums, and the distances to the barycenters are taken
    per support entry, one coordinate at a time.  The library's walk
    (verify._support_extents) reads the spread in the same pass and takes
    the same products, so the two agree bit for bit."""
    cpl, nu = inst.coupling, inst.instance.nu
    m = cpl.n_nu
    weighted = np.column_stack([nu.weights, nu.weights[:, None] * nu.atoms])
    blocks = list(measures.row_blocks(cpl.n_mu, m))
    mask = np.zeros((blocks[0].stop, m))
    worst = 0.0
    for rows in blocks:
        lo, hi = cpl.indptr[rows.start], cpl.indptr[rows.stop]
        if lo == hi:
            continue
        counts = np.diff(cpl.indptr[rows.start:rows.stop + 1])
        counts = counts[counts > 0]
        seg = np.repeat(np.arange(len(counts)), counts)
        jj = cpl.j_idx[lo:hi].astype(np.intp)
        block = mask[:len(counts)]
        block.ravel()[seg * m + jj] = 1.0
        sums = block @ weighted
        block.fill(0.0)
        sq = np.zeros(len(jj))
        for c, coord in enumerate(nu.atoms.T):
            diff = np.take(sums[:, c + 1] / sums[:, 0], seg)
            diff -= np.take(coord, jj)
            diff *= diff
            sq += diff
        worst = max(worst, float(sq.max()))
    return math.sqrt(worst)


def rho_at(profile, r: float) -> float:
    """The spread profile's rho at r > 0, read off its step function: the
    value of the piece (radii[k], radii[k+1]] that holds r."""
    if r <= 0:
        raise GeometryError("rho is defined for r > 0")
    idx = int(np.searchsorted(profile.radii, r, side="left")) - 1
    idx = min(max(idx, 0), len(profile.radii) - 1)
    return float(profile.rho_values[idx])


def bisect_delta_st(profile, eps: float, iters: int = 200) -> float:
    """Bisection on the monotone map r -> r * rho(sqrt(r))."""
    lo, hi = 0.0, max(4.1, 1.01 * eps + 0.1)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid > 0 and mid * rho_at(profile, np.sqrt(mid)) > eps:
            hi = mid
        else:
            lo = mid
    return hi


def fd_gradient(fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function."""
    g = np.zeros_like(x, dtype=float)
    for k in range(len(x)):
        e = np.zeros_like(g)
        e[k] = step
        g[k] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return g


def enumerate_matching_cost(mu, nu) -> float:
    """Cheapest perfect matching for equal-size uniform marginals."""
    n = len(mu)
    assert len(nu) == n
    assert np.allclose(mu.weights, 1.0 / n) and np.allclose(nu.weights, 1.0 / n)
    diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
    C = 0.5 * (diff**2).sum(-1)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(C[i, perm[i]] for i in range(n)) / n)
    return float(best)


def lp_transport_cost(mu, nu) -> float:
    """LP value of the transportation problem (HiGHS, value only)."""
    n, m = len(mu), len(nu)
    diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
    C = 0.5 * (diff**2).sum(-1)
    A_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m : (i + 1) * m] = 1.0
        A_eq.append(row)
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        A_eq.append(row)
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(C.ravel(), A_eq=np.array(A_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)



def simplex_qp(Y: np.ndarray, b: np.ndarray, target: np.ndarray, gamma: float,
               kkt_tol: float = 1e-10) -> np.ndarray:
    """Active-set minimizer of (gamma/2)|Y theta|^2 - <target, Y theta> + <b, theta>
    over the probability simplex.  Singular reduced systems are resolved with
    the minimum-norm solution; pivots break ties by lowest index.
    """
    m = len(b)
    lin = Y @ target - b
    active = [int(np.argmax(lin))]
    theta_act = np.array([1.0])
    max_iter = 20 * m + 200

    def _drop_along(direction: np.ndarray) -> None:
        # largest feasible step along a descent direction of the working set,
        # then drop the blocking coordinate (lowest index on ties)
        nonlocal theta_act
        closing = np.where(direction < -1e-15)[0]
        ratios = theta_act[closing] / (-direction[closing])
        pick = int(np.argmin(ratios))
        theta_act = theta_act + float(ratios[pick]) * direction
        drop = int(closing[pick])
        del active[drop]
        theta_act = np.delete(theta_act, drop)

    for _ in range(max_iter):
        YA = Y[active]
        k = len(active)
        # affinely dependent active slopes make the working-set problem
        # unbounded whenever the intercepts slope along a null direction;
        # exchange a coordinate out before solving
        if k > 1:
            A = np.vstack([YA.T, np.ones((1, k))])
            _, svals, vt = np.linalg.svd(A)
            null_mask = np.zeros(len(vt), dtype=bool)
            null_mask[len(svals):] = True
            null_mask[: len(svals)] |= svals < 1e-12 * max(svals[0], 1.0)
            escaped = False
            for d in vt[null_mask]:
                slope = float(b[active] @ d)
                if abs(slope) > 1e-13:
                    _drop_along(-np.sign(slope) * d)
                    escaped = True
                    break
            if escaped:
                continue
        K = np.zeros((k + 1, k + 1))
        K[:k, :k] = gamma * (YA @ YA.T)
        K[:k, k] = 1.0
        K[k, :k] = 1.0
        rhs = np.append(lin[active], 1.0)
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        cand = sol[:k]
        if cand.min() >= -1e-13:
            theta_act = np.clip(cand, 0.0, None)
            u = YA.T @ theta_act
            grad = gamma * (Y @ u) - lin
            level = float(grad[active].min())
            j_new = int(np.argmin(grad))
            if grad[j_new] >= level - kkt_tol:
                theta = np.zeros(m)
                theta[active] = theta_act
                return theta
            active.append(j_new)
            theta_act = np.append(theta_act, 0.0)
        else:
            _drop_along(cand - theta_act)
    raise AssertionError("active-set QP oracle did not converge")


def psi_star_lp(s, pt: np.ndarray) -> float:
    """conj(psi_tilde)(pt) of a surrogate as min <b, theta> over the simplex
    subject to Y theta = pt (HiGHS at feasibility tolerance 1e-10); +inf when
    infeasible."""
    m, _ = s.slopes.shape
    A_eq = np.vstack([s.slopes.T, np.ones(m)])
    b_eq = np.append(pt, 1.0)
    res = linprog(s.intercepts, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        return math.inf
    return float(res.fun)


def dense_coupling(cpl: Coupling) -> np.ndarray:
    """The n_mu x n_nu matrix of a coupling's masses."""
    dense = np.zeros((cpl.n_mu, cpl.n_nu))
    dense[cpl.rows(), cpl.j_idx] = cpl.masses
    return dense


def row_sums(cpl: Coupling) -> np.ndarray:
    return np.bincount(cpl.rows(), weights=cpl.masses, minlength=cpl.n_mu)


def col_sums(cpl: Coupling) -> np.ndarray:
    return np.bincount(cpl.j_idx, weights=cpl.masses, minlength=cpl.n_nu)


def evaluate_f_at(x, pot: DualPotentials, nu) -> float:
    """f extended off the mu-atoms: the t solving
    sum_j nu_j [t + g_j - c(x, y_j)]_+ = eps."""
    pt = np.asarray(x, dtype=float).reshape(1, -1)
    return float(hinge_roots(pt, nu.atoms, pot.g_values, nu.weights, [pot.epsilon])[0, 0])


class DetachmentError(AssertionError):
    pass


def minty_map(s, u) -> np.ndarray:
    """The 1-Lipschitz reflection F(u) = x' - grad psi(x') = 2 x' - u, per
    row, of a surrogate s."""
    x_prime, g = surrogate.minty_reflect(s, u)
    return x_prime - g


def quadratic_detachment(s, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Duality gaps psi(x) + psi*(y) - <x, y> of a surrogate s and their
    quadratic lower bounds |x - y - F(x + y)|^2 / 4 over paired rows of x
    and y; raises if a gap undercuts its bound."""
    d = s.slopes.shape[1]
    X = np.asarray(x, dtype=float).reshape(-1, d)
    Y = np.asarray(y, dtype=float).reshape(-1, d)
    gap = surrogate.eval_psi(s, X)[0] + surrogate.eval_psi_star(s, Y) - (X * Y).sum(axis=1)
    F = minty_map(s, X + Y)
    lower = 0.25 * ((X - Y - F) ** 2).sum(axis=1)
    if np.any(gap < lower - 1e-8):
        k = int(np.argmin(gap - lower))
        raise DetachmentError(f"duality gap {gap[k]!r} below quadratic bound {lower[k]!r}")
    return gap, lower
