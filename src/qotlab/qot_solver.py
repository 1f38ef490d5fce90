"""Dual solver for quadratically regularized optimal transport.

For discrete marginals mu (atoms x_i, weights mu_i) and nu (atoms y_j,
weights nu_j) the optimal dual potentials (f, g) solve, for every atom,

    sum_i mu_i [f_i + g_j - c(x_i, y_j)]_+ = eps      (one equation per j)
    sum_j nu_j [f_i + g_j - c(x_i, y_j)]_+ = eps      (one equation per i)

with c(x, y) = |x - y|^2 / 2.  These are the stationarity conditions of a
convex piecewise-quadratic dual, which solve minimizes by semismooth Newton
(Lorenz, Manns & Meyer, Appl. Math. Optim. 2021; Blondel, Seguy & Rolet,
AISTATS 2018): each iteration solves for its direction by conjugate gradients
on the generalized Hessian, whose pattern is the active set
{f_i + g_j > c_ij}, and backtracks on the dual value.

Newton converges from any start; solve takes a cold or a warm one.  The
cold start takes exact scalar updates from f = 0: holding one block fixed,
each equation in the other block is a scalar convex piecewise-linear
increasing equation, whose root hinge_roots reads off the sorted thresholds
and their running sums (an in-place sort for equal weights, an argsort and
gather otherwise).  cold_starts gives the cold starts of a whole epsilon
list: for mu = nu one sort per row block serves every epsilon, so an
epsilon sweep computes them once, before its first solve.  For mu != nu the
warm start is the potentials of a nearby larger epsilon, which an epsilon
sweep passes down as a continuation chain: at small epsilon the cold start
leaves some nu-atoms with no active pair, and Newton then takes a
regularization-sized first step.

For mu = nu the unknown is a single potential u = f = g, so the returned
potentials are symmetric by construction.  Otherwise the shift degree of
freedom is fixed by balancing the integrals, sum_i mu_i f_i = sum_j nu_j g_j.

No dense cost matrix is built: the cold start and assemble_coupling compute
the cost rows they walk, one row block of cost_matrix(mu.atoms[rows],
nu.atoms) at a time, which is bitwise that block of the whole matrix, and
for mu != nu the g-batch reads cost_matrix(nu.atoms[rows], mu.atoms), which
is bitwise the transpose's rows.  Newton reads no cost at all: since
c(x, y) = |x|^2 / 2 + |y|^2 / 2 - <x, y>, each trial's slack f_i + g_j - c_ij
is one rank-(d + 2) matrix product of [f - |x|^2 / 2, 1, x] and
[1; g - |y|^2 / 2; y^T] (_slack_product).  On the unit ball its rounding is
a few ulps of 1, far below residual_tol times an active mass;
assemble_coupling takes the slack from the cost rows, so every converged
potential is re-checked against the exact slack.  Dense slack and
active-set matrices exist only inside solve and assemble_coupling: solve
holds one n x m float buffer (the active set during CG, then each
line-search trial's slack), and assemble_coupling one slack buffer and its
mask.  The cold start holds row blocks of costs, sorted thresholds and
their sums.  Everything downstream, max_density and the transport cost
included, reads the sparse Coupling, whose entries cost 12 bytes each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import DiscreteMeasure, row_blocks, sq_distances


class ConfigError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    """The Newton iteration budget (max_sweeps) ran out at `epsilon`, from
    `start` ("cold" or "warm"; see solve); residual_mu and
    residual_nu are the sup-norms of the last iterate's two residual vectors,
    residual their max."""

    def __init__(
        self, message: str, residual_mu: float, residual_nu: float, sweeps: int,
        epsilon: float, start: str,
    ):
        super().__init__(message)
        self.residual_mu = residual_mu
        self.residual_nu = residual_nu
        self.residual = max(residual_mu, residual_nu)
        self.sweeps = sweeps
        self.epsilon = epsilon
        self.start = start


class InconsistencyError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float
    max_sweeps: int = 10_000      # cap on Newton iterations
    residual_tol: float = 1e-10   # on the marginal-equation residual

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and math.isfinite(self.residual_tol)):
            raise ConfigError("epsilon and residual_tol must be finite")
        if not (self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.residual_tol > 0):
            raise ConfigError("residual_tol must be positive")
        if self.max_sweeps < 1:
            raise ConfigError("max_sweeps must be at least 1")


@dataclass(frozen=True, eq=False)
class DualPotentials:
    f_values: np.ndarray
    g_values: np.ndarray
    epsilon: float
    residual: float = np.nan
    sweeps: int = 0


@dataclass(frozen=True, eq=False)
class Coupling:
    """Sparse coupling in compressed sparse row (CSR) form.  The entries are
    the atom pairs with positive mass, in row-major order: row i holds
    entries indptr[i]:indptr[i + 1] (indptr has n_mu + 1 int64 pointers),
    and j_idx holds each entry's column as int32.  No per-entry row array is
    stored; rows() derives one, so an entry costs 12 bytes.  The entries are
    the support: for a regularized coupling, the pairs with
    f_i + g_j - c_ij > 0.  density_max is the largest density
    [f_i + g_j - c_ij]_+ / eps, the one per-entry density anything reads;
    it is nan for an unregularized coupling (epsilon 0)."""

    n_mu: int
    n_nu: int
    epsilon: float
    indptr: np.ndarray
    j_idx: np.ndarray
    masses: np.ndarray
    density_max: float
    residual: float

    @property
    def in_support(self) -> np.ndarray:
        """All True, one flag per entry.  It exists only for the benchmark's
        tracer (perfbench/layers.py), which counts the support as its sum;
        the library and the tests read len(masses) instead."""
        return np.ones(len(self.masses), dtype=bool)

    def rows(self) -> np.ndarray:
        """The row of each entry, as intp."""
        return np.repeat(np.arange(self.n_mu), np.diff(self.indptr))

    def cost_against(self, X: np.ndarray, Y: np.ndarray) -> float:
        """Transport cost sum pi_ij c(x_i, y_j), with c evaluated only at the
        coupling's entries (bitwise the entries of cost_matrix(X, Y))."""
        diff = X[self.rows()] - Y[self.j_idx]
        return float((self.masses * (0.5 * (diff**2).sum(-1))).sum())


def cost_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Half squared Euclidean distances, c(x, y) = |x - y|^2 / 2."""
    C = sq_distances(X, Y)
    C *= 0.5
    return C


def hinge_roots(X: np.ndarray, Y: np.ndarray, shift, w: np.ndarray, eps_list) -> np.ndarray:
    """Per row x_i of X and each eps of eps_list, the unique t with
    h_i(t) = sum_j w_j (t - T_ij)_+ = eps, where T = cost_matrix(X, Y) - shift
    (shift a scalar or one value per row of Y), as a (len(eps_list), len(X))
    array.

    h_i is convex, increasing and piecewise linear, with knots at the row's
    sorted thresholds t_(1) <= t_(2) <= ...  With W_k and P_k the running
    sums of the sorted weights and of weight times threshold, h_i(t_(k)) =
    W_{k-1} t_(k) - P_{k-1}, and on the piece that starts at the last knot
    <= eps the root is (eps + P_k) / W_k.  T is built one block of about
    measures.BLOCK_ENTRIES thresholds at a time, each sorted once for the
    whole eps list, so no array of T's size is built.  The sums run in
    sorted order, so the roots depend on T's values and the sort's order
    among ties alone.  Equal weights (every grid) need no sort order: the
    sorted weights are w[0] in any order, so a block is sorted in place and
    W is one shared row, bitwise what an argsort and gather give.
    """
    n, m = len(X), len(Y)
    roots = np.empty((len(eps_list), n))
    equal = (w == w[0]).all()
    W_row = np.cumsum(np.full(m, w[0]))  # the running sums of equal weights
    for rows in row_blocks(n, m):
        knots = cost_matrix(X[rows], Y)
        knots -= shift
        if equal:
            knots.sort(axis=1)
            ws, W = w[0], np.broadcast_to(W_row, knots.shape)
        else:
            order = np.argsort(knots, axis=1)
            knots, ws = np.take_along_axis(knots, order, axis=1), w[order]
            del order
            W = np.cumsum(ws, axis=1)
        P = np.multiply(ws, knots)
        np.cumsum(P, axis=1, out=P)
        # the sorted thresholds become the knot values h_i(t_(k)) in place
        knots[:, 1:] *= W[:, :-1]
        knots[:, 1:] -= P[:, :-1]
        knots[:, 0] = 0.0
        r = np.arange(len(knots))
        for e, eps in enumerate(eps_list):
            k = np.count_nonzero(knots <= eps, axis=1) - 1
            roots[e, rows] = (eps + P[r, k]) / W[r, k]
    return roots


def cold_starts(mu: DiscreteMeasure, nu: DiscreteMeasure, eps_list) -> list[DualPotentials]:
    """solve's cold start at each epsilon of eps_list, as potentials with
    sweeps 0: the exact hinge roots g from f = 0, then, for mu != nu, f from
    g.  For mu = nu both potentials are u = g / 2, whose pair sums u_i + u_j
    average the roots g_i, g_j; the cost is then symmetric, so g is read
    from its rows, one sort per block for the whole list, in place on a grid."""
    if mu.same_as(nu):
        roots = 0.5 * hinge_roots(mu.atoms, mu.atoms, 0.0, mu.weights, eps_list)
        return [DualPotentials(f_values=u, g_values=u, epsilon=e) for e, u in zip(eps_list, roots)]
    starts = []
    for eps, g in zip(eps_list, hinge_roots(nu.atoms, mu.atoms, 0.0, mu.weights, eps_list)):
        f = hinge_roots(mu.atoms, nu.atoms, g, nu.weights, [eps])[0]
        starts.append(DualPotentials(f_values=f, g_values=g, epsilon=eps))
    return starts


def _slack_product(X: np.ndarray, Y: np.ndarray):
    """The function (f, g, out) that writes the positive slack
    [f_i + g_j - c(x_i, y_j)]_+ into the n x m float64 array out, without
    computing a cost.

    Since c(x, y) = |x|^2 / 2 + |y|^2 / 2 - <x, y>, the slack is the
    rank-(d + 2) product L R of L = [f - |x|^2 / 2, 1, x] (n x (d + 2)) and
    R = [1; g - |y|^2 / 2; y^T] ((d + 2) x m): one matrix product, into out,
    refreshing only L's first column and R's second row per call.  On the
    unit ball the cancellation costs a few ulps of 1 per entry.
    """
    n, d = X.shape
    L = np.empty((n, d + 2))
    L[:, 1] = 1.0
    L[:, 2:] = X
    R = np.empty((d + 2, len(Y)))
    R[0] = 1.0
    R[2:] = Y.T
    half_x = 0.5 * (X**2).sum(-1)
    half_y = 0.5 * (Y**2).sum(-1)

    def positive_slack(f, g, out):
        np.subtract(f, half_x, out=L[:, 0])
        np.subtract(g, half_y, out=R[1])
        np.matmul(L, R, out=out)
        np.maximum(out, 0.0, out=out)
        return out

    return positive_slack


def _positive_residuals(positive, mu_w, nu_w, eps):
    """Residual vectors of the two marginal equation families, from the
    positive slack [f_i + g_j - c_ij]_+: res_mu[i] over the nu-integral at
    x_i, res_nu[j] over the mu-integral at y_j."""
    res_mu = np.abs(positive @ nu_w - eps)
    res_nu = np.abs(mu_w @ positive - eps)
    return res_mu, res_nu


def _pcg(matvec, b, diag, scale, tol, maxiter):
    """Jacobi-preconditioned conjugate gradients for H x = b from x = 0,
    stopped once the residual divided elementwise by scale has sup-norm
    <= tol, or after maxiter products with H."""
    x = np.zeros_like(b)
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    for _ in range(maxiter):
        if np.max(np.abs(r / scale)) <= tol:
            break
        q = matvec(p)
        pq = float(p @ q)
        if not (pq > 0.0 and rz > 0.0):
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = r / diag
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return x


_ARMIJO = 1e-4          # sufficient-decrease fraction of the directional derivative
_PHI_ROUNDOFF = 1e-13   # relative rounding allowance in comparing dual values
_MIN_STEP = 2.0**-40


def solve(
    mu: DiscreteMeasure, nu: DiscreteMeasure, cfg: SolverConfig,
    start: Optional[DualPotentials] = None,
) -> DualPotentials:
    """Semismooth Newton on the dual until both marginal residual vectors
    have sup-norm <= residual_tol; cfg.max_sweeps caps the Newton iterations,
    and the returned `sweeps` counts them.  start is the potentials Newton
    starts from, with shapes matching the atoms: a cold start (cold_starts,
    sweeps 0; taken here when start is None) or a warm one, the potentials
    solve returned for the same (mu, nu) at another epsilon, usually the next
    larger one of a sweep.  Only the cold start computes costs: Newton takes
    every slack from the atoms by one matrix product (_slack_product).

    The dual, as a minimization, is the convex piecewise quadratic

        Phi(f, g) = 1/2 sum_ij mu_i nu_j [f_i + g_j - c_ij]_+^2 - eps (mu.f + nu.g)

    with gradient (mu * F, nu * G), where F_i = sum_j nu_j [.]_+ - eps and
    G_j = sum_i mu_i [.]_+ - eps are the marginal residuals.  Its generalized
    Hessian has the pattern of the active set A = {f_i + g_j > c_ij}: blocks
    diag(mu * A nu), diag(nu * A^T mu) and mu_i nu_j A_ij off the diagonal.

    For mu != nu Newton starts from the start's (f, g); for mu = nu from
    u = (f + g) / 2, which is the cold start's u itself.
    Each iteration solves for the direction by
    Jacobi-preconditioned CG on the Hessian plus |residual|_inf times the weights, a term that keeps
    the system definite where a row has no active pair and vanishes at the
    solution, then halves the step until Armijo's condition on Phi holds;
    each trial writes its positive slack into the one n x m buffer.
    The solve stops once each |F_i| is at most residual_tol times the active
    mass sum_j nu_j A_ij of its row (and likewise for G): then no potential is
    more than about residual_tol from its exact hinge root given the other
    block, and since an active mass is at most 1 the marginal residual gate
    holds too.

    For mu = nu (bitwise) the unknown is one potential u = f = g, so
    F_i(u) = sum_j nu_j [u_i + u_j - c_ij]_+ - eps, and the Hessian is the
    form sum_ij w_i w_j A_ij (x_i + x_j)^2, definite once the diagonal pairs
    are active.  The slack is then symmetric, so one residual family F and
    one active mass A nu serve both blocks, and the returned potentials
    satisfy f = g exactly.  For mu != nu the Hessian is semidefinite with
    the shift (1, -1) in its kernel and the gradient orthogonal to it; the
    shift is fixed at the end by balancing the integrals,
    sum_i mu_i f_i = sum_j nu_j g_j.
    """
    if mu.dim != nu.dim:
        raise ConfigError(f"dimension mismatch: mu has d={mu.dim}, nu has d={nu.dim}")
    eps, tol = cfg.epsilon, cfg.residual_tol
    mu_w, nu_w = mu.weights, nu.weights
    n = len(mu)
    if start is None:
        start = cold_starts(mu, nu, [eps])[0]
    elif start.f_values.shape != (n,) or start.g_values.shape != (len(nu),):
        raise ConfigError(
            f"start shapes {start.f_values.shape} and {start.g_values.shape} "
            f"do not match {n} mu-atoms and {len(nu)} nu-atoms"
        )
    start_kind = "warm" if start.sweeps else "cold"
    tied = mu.same_as(nu)
    if tied:
        x, scale = 0.5 * (start.f_values + start.g_values), 2.0 * mu_w

        def split(z):
            return z, z
    else:
        x, scale = np.concatenate([start.f_values, start.g_values]), np.concatenate([mu_w, nu_w])

        def split(z):
            return z[:n], z[n:]

    positive_slack = _slack_product(mu.atoms, nu.atoms)

    def dual(z, out):
        """Phi at z and a magnitude for its rounding; leaves the positive
        slack [f_i + g_j - c_ij]_+ in out."""
        fz, gz = split(z)
        positive_slack(fz, gz, out)
        quad = 0.5 * float(mu_w @ np.einsum("ij,ij,j->i", out, out, nu_w))
        lin = eps * (float(mu_w @ fz) + float(nu_w @ gz))
        return quad - lin, quad + abs(lin)

    def linearize(P):
        """Residuals F, G and active masses A nu, A^T mu; overwrites the
        positive slack P with the active set A as 0/1.  For mu = nu the
        slack is symmetric, so G and A^T mu are F and A nu."""
        F = P @ nu_w - eps
        G = F if tied else mu_w @ P - eps
        np.greater(P, 0.0, out=P)
        rf = P @ nu_w
        return F, G, rf, rf if tied else mu_w @ P

    # the one dense buffer.  It holds the active set while CG runs; once the
    # direction is found nothing reads that set again, so each line-search
    # trial writes its positive slack into it, and the accepted trial,
    # written last, is linearized in place
    A = np.empty((n, len(nu)))
    phi, phi_mag = dual(x, A)
    F, G, rf, rg = linearize(A)
    for it in range(1, cfg.max_sweeps + 1):
        res = max(float(np.abs(F).max()), float(np.abs(G).max()))
        if tied:
            # A is symmetric: the (f, f), (g, g) and cross blocks pair up
            grad = mu_w * F + nu_w * G
            diag = 2.0 * mu_w * (rf + mu_w * np.diagonal(A)) + res * scale

            def hess(z):
                return 2.0 * mu_w * (rf * z + A @ (mu_w * z)) + res * scale * z
        else:
            grad = np.concatenate([mu_w * F, nu_w * G])
            diag = np.concatenate([mu_w * rf, nu_w * rg]) + res * scale

            def hess(z):
                zf, zg = z[:n], z[n:]
                return np.concatenate([
                    mu_w * (rf * zf + A @ (nu_w * zg)),
                    nu_w * (rg * zg + (mu_w * zf) @ A),
                ]) + res * scale * z

        # inexact Newton: the CG tolerance shrinks with the residual
        cg_tol = max(1e-3 * tol, min(0.1, res / eps) * res)
        d = _pcg(hess, -grad, diag, scale, cg_tol, maxiter=2 * len(x) + 10)
        slope = float(grad @ d)
        t = 1.0
        while True:
            trial = x + t * d
            phi_t, mag_t = dual(trial, A)
            if phi_t <= phi + _ARMIJO * t * slope + _PHI_ROUNDOFF * phi_mag or t <= _MIN_STEP:
                break
            t *= 0.5
        x, phi, phi_mag = trial, phi_t, mag_t
        F, G, rf, rg = linearize(A)
        if np.all(np.abs(F) <= tol * rf) and np.all(np.abs(G) <= tol * rg):
            residual = max(float(np.abs(F).max()), float(np.abs(G).max()))
            if tied:
                return DualPotentials(
                    f_values=x, g_values=x.copy(), epsilon=eps, residual=residual, sweeps=it,
                )
            f, g = split(x)
            shift = 0.5 * (float(nu_w @ g) - float(mu_w @ f))
            return DualPotentials(
                f_values=f + shift, g_values=g - shift, epsilon=eps,
                residual=residual, sweeps=it,
            )
    res_mu, res_nu = float(np.abs(F).max()), float(np.abs(G).max())
    raise ConvergenceError(
        f"no convergence at epsilon {eps!r} from the {start_kind} start within "
        f"{cfg.max_sweeps} sweeps (Newton iterations; last residual "
        f"{max(res_mu, res_nu):.3e})",
        residual_mu=res_mu,
        residual_nu=res_nu,
        sweeps=cfg.max_sweeps,
        epsilon=eps,
        start=start_kind,
    )


def assemble_coupling(
    pot: DualPotentials, mu: DiscreteMeasure, nu: DiscreteMeasure, cfg: SolverConfig,
) -> Coupling:
    """Coupling masses mu_i nu_j [f_i + g_j - c_ij]_+ / eps, in CSR form, with
    recomputed marginal residuals attached; stale potentials are rejected."""
    # the slack f_i + g_j - c_ij, then its positive part, in one n x m
    # buffer; the costs are computed one row block at a time
    positive = np.add.outer(pot.f_values, pot.g_values)
    for rows in row_blocks(*positive.shape):
        positive[rows] -= cost_matrix(mu.atoms[rows], nu.atoms)
    np.maximum(positive, 0.0, out=positive)
    res_mu, res_nu = _positive_residuals(positive, mu.weights, nu.weights, pot.epsilon)
    residual = max(float(res_mu.max()), float(res_nu.max()))
    if residual > 10.0 * cfg.residual_tol:
        raise InconsistencyError(
            f"marginal residual {residual:.3e} exceeds 10 x residual_tol; stale potentials?"
        )
    # one boolean mask of the positive slack gives the row pointers and,
    # by row-major boolean extraction, the densities (still the slack here),
    # which become the masses in place
    active = positive > 0.0
    counts = active.sum(axis=1)
    indptr = np.zeros(len(mu) + 1, dtype=np.int64)
    counts.cumsum(out=indptr[1:])
    masses = positive[active]
    # free the dense buffer before the other support-sized arrays are built:
    # at eps where most pairs are active (d = 3) they outweigh it
    del positive
    masses /= pot.epsilon
    density_max = float(masses.max())
    # columns, extracted as int32 from a broadcast row of column numbers, and
    # masses density_ij * (mu_i nu_j), by blocks of rows, so the only
    # support-sized arrays are the coupling's own
    n, m = active.shape
    j_idx = np.empty(len(masses), dtype=np.int32)
    columns = np.broadcast_to(np.arange(m, dtype=np.int32), (n, m))
    for rows in row_blocks(n, m):
        span = slice(indptr[rows.start], indptr[rows.stop])
        cols = columns[rows][active[rows]]
        j_idx[span] = cols
        weights = mu.weights[rows].repeat(counts[rows])
        weights *= nu.weights[cols]
        masses[span] *= weights
    return Coupling(
        n_mu=n,
        n_nu=m,
        epsilon=pot.epsilon,
        indptr=indptr,
        j_idx=j_idx,
        masses=masses,
        density_max=density_max,
        residual=residual,
    )


def max_density(coupling: Coupling) -> float:
    """eps times the largest coupling density: the max over atom pairs of
    f_i + g_j - c_ij (within roundoff of the dense max, since the density is
    the slack divided by eps)."""
    return coupling.epsilon * coupling.density_max
