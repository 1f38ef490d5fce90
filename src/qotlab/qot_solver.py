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

Newton converges from any start; solve takes one of three.  The cold start
takes exact scalar updates from f = 0: holding one block fixed, each
equation in the other block is a scalar convex piecewise-linear increasing
equation, solved exactly by Newton's method on its active set
(_hinge_root_batch); the same scalar solve extends f off the mu-atoms
(evaluate_f_at).  For mu = nu the hinge-bound start solves the same roots
from a bound above all of them (geometry.hinge_root_bound).  For mu != nu
the warm start is the potentials of a nearby larger epsilon, which an
epsilon sweep passes down as a continuation chain: at small epsilon the
cold start leaves some nu-atoms with no active pair, and Newton then takes
a regularization-sized first step.

For mu = nu the unknown is a single potential u = f = g, so the returned
potentials are symmetric by construction.  Otherwise the shift degree of
freedom is fixed by balancing the integrals, sum_i mu_i f_i = sum_j nu_j g_j.

The dense n x m cost matrix is built once per instance (verify.Instance)
and passed to solve and assemble_coupling, which only read it (and build
it themselves when called without it).  Dense slack and active-set
matrices exist only inside those two.  Everything downstream,
max_density and the transport cost included, reads the sparse Coupling.
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
    `start` ("cold", "hinge-bound" or "warm"; see solve); residual_mu and
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
    stored; rows() derives one.  The entries are the support: for a
    regularized coupling, the pairs with f_i + g_j - c_ij > 0."""

    n_mu: int
    n_nu: int
    epsilon: float
    indptr: np.ndarray
    j_idx: np.ndarray
    masses: np.ndarray
    densities: np.ndarray
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

    @property
    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows(), weights=self.masses, minlength=self.n_mu)

    @property
    def col_sums(self) -> np.ndarray:
        return np.bincount(self.j_idx, weights=self.masses, minlength=self.n_nu)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_mu, self.n_nu))
        dense[self.rows(), self.j_idx] = self.masses
        return dense

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


def _hinge_root_batch(S: np.ndarray, w: np.ndarray, eps: float, upper=None) -> np.ndarray:
    """Per column j of S, the unique t with h_j(t) = sum_i w_i (t - S_ij)_+ = eps.

    Newton on the active set A = {i : S_ij < t}: t <- (eps + sum_A w_i S_ij)
    / sum_A w_i, the root of the linear piece of h_j at t.  h_j is convex and
    increasing, so one step from any t with a nonempty active set lands at or
    above the root, and from above the iterates decrease.  A column stops
    when its step no longer decreases it; a step that decreases it shrinks
    its active set, so this takes finitely many steps.  The cold start
    min_i (S_ij + eps / w_i) is at or above the root and is the fallback for
    an empty active set.

    upper, when given, is a bound at or above every root (a scalar, or one
    per column) that replaces the cold start and saves its n x m pass: the
    first step from it is taken unconditionally, so a bound that rounding
    puts just below a root still lands above it.  Every path ends with the
    step of the root's own active set, so the roots keep their bits.
    """
    # one n x m float buffer serves the cold start and every step.  It is
    # viewed in C order for the 0/1 mask (numpy casts the bool operand of
    # w @ active to a C-ordered float array) and in S's order for the masked
    # thresholds (the order of np.where(active, S, 0.0)), so each product
    # sums in the order it did with fresh arrays, and the roots keep their bits
    flat = np.empty(S.size)
    mask = flat.reshape(S.shape)
    masked = flat.reshape(S.shape, order="F" if np.isfortran(S) else "C")
    active = np.empty_like(S, dtype=bool)
    if upper is None:
        np.add(S, (eps / w)[:, None], out=masked)
        cold = masked.min(axis=0)
    else:
        cold = np.broadcast_to(np.asarray(upper, dtype=float), S.shape[1:])

    def newton(t):
        np.less(S, t, out=active)
        np.copyto(mask, active)
        cw = w @ mask
        # S where active and +-0.0 elsewhere; a zero's sign cannot move cs
        np.multiply(S, active, out=masked)
        cs = w @ masked
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(cw > 0, (eps + cs) / cw, cold)

    t = cold if upper is None else newton(cold)
    while True:
        nxt = newton(t)
        down = nxt < t
        if not down.any():
            return t
        t = np.where(down, nxt, t)


def solve_scalar_update(thresholds, weights, epsilon: float) -> float:
    """The unique t with sum_i weights_i (t - thresholds_i)_+ = epsilon."""
    s = np.asarray(thresholds, dtype=float).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if len(s) == 0 or len(w) == 0:
        raise ConfigError("thresholds and weights must be nonempty")
    if len(s) != len(w):
        raise ConfigError("thresholds and weights must have equal length")
    if np.any(w <= 0):
        raise ConfigError("weights must be strictly positive")
    if not (epsilon > 0):
        raise ConfigError("epsilon must be positive")
    return float(_hinge_root_batch(s[:, None], w, epsilon)[0])


def marginal_residuals(
    slack: np.ndarray, mu_w: np.ndarray, nu_w: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Residual vectors of the two marginal equation families, from the slack
    f_i + g_j - c_ij: res_mu[i] over the nu-integral at x_i, res_nu[j] over
    the mu-integral at y_j."""
    return _positive_residuals(np.maximum(slack, 0.0), mu_w, nu_w, eps)


def _positive_residuals(positive, mu_w, nu_w, eps):
    """marginal_residuals from the positive slack [f_i + g_j - c_ij]_+."""
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
    cost: Optional[np.ndarray] = None, root_bound: Optional[float] = None,
    start: Optional[DualPotentials] = None,
) -> DualPotentials:
    """Semismooth Newton on the dual until both marginal residual vectors
    have sup-norm <= residual_tol; cfg.max_sweeps caps the Newton iterations,
    and the returned `sweeps` counts them.  cost is cost_matrix(mu.atoms,
    nu.atoms), built here when not given; it is only read.  root_bound, read
    only for mu = nu, is a bound at or above every hinge root of the start
    (geometry.hinge_root_bound), from which the start's roots are solved.
    start, only for mu != nu, is a warm start: the potentials solve returned
    for the same (mu, nu) at another epsilon, usually the next larger one of
    a sweep.  Its shapes must match the atoms, and mu = nu takes none.

    The dual, as a minimization, is the convex piecewise quadratic

        Phi(f, g) = 1/2 sum_ij mu_i nu_j [f_i + g_j - c_ij]_+^2 - eps (mu.f + nu.g)

    with gradient (mu * F, nu * G), where F_i = sum_j nu_j [.]_+ - eps and
    G_j = sum_i mu_i [.]_+ - eps are the marginal residuals.  Its generalized
    Hessian has the pattern of the active set A = {f_i + g_j > c_ij}: blocks
    diag(mu * A nu), diag(nu * A^T mu) and mu_i nu_j A_ij off the diagonal.

    Without a warm start, the start is one batch of exact hinge roots, g
    from f = 0.  For mu != nu a second batch gives f from g (the cold start);
    for mu = nu the start is u = g / 2, whose pair sums u_i + u_j average the
    roots g_i, g_j seen from f = 0 (the hinge-bound start when root_bound is
    given, else the cold start).  A warm start (f, g) is taken as it is.
    Each iteration solves for the direction by
    Jacobi-preconditioned CG on the Hessian plus |residual|_inf times the weights, a term that keeps
    the system definite where a row has no active pair and vanishes at the
    solution, then halves the step until Armijo's condition on Phi holds.
    The solve stops once each |F_i| is at most residual_tol times the active
    mass sum_j nu_j A_ij of its row (and likewise for G): then no potential is
    more than about residual_tol from its exact hinge root given the other
    block, so evaluate_f_at reproduces the stored f, and since an active mass
    is at most 1 the marginal residual gate holds too.

    For mu = nu (bitwise) the unknown is one potential u = f = g, so
    F_i(u) = sum_j nu_j [u_i + u_j - c_ij]_+ - eps, and the Hessian is the
    form sum_ij w_i w_j A_ij (x_i + x_j)^2, definite once the diagonal pairs
    are active; the returned potentials satisfy f = g exactly.  For mu != nu
    the Hessian is semidefinite with the shift (1, -1) in its kernel and the
    gradient orthogonal to it; the shift is fixed at the end by balancing the
    integrals, sum_i mu_i f_i = sum_j nu_j g_j.
    """
    if mu.dim != nu.dim:
        raise ConfigError(f"dimension mismatch: mu has d={mu.dim}, nu has d={nu.dim}")
    eps, tol = cfg.epsilon, cfg.residual_tol
    C = cost_matrix(mu.atoms, nu.atoms) if cost is None else cost
    mu_w, nu_w = mu.weights, nu.weights
    n = len(mu)
    tied = mu.same_as(nu)
    if tied:
        if start is not None:
            raise ConfigError("a warm start is for mu != nu; mu = nu starts from its hinge roots")
        start_kind = "cold" if root_bound is None else "hinge-bound"
        x, scale = 0.5 * _hinge_root_batch(C, mu_w, eps, upper=root_bound), 2.0 * mu_w

        def split(z):
            return z, z
    else:
        if start is None:
            start_kind = "cold"
            g = _hinge_root_batch(C, mu_w, eps)
            f = _hinge_root_batch(C.T - g[:, None], nu_w, eps)
        elif start.f_values.shape != (n,) or start.g_values.shape != (len(nu),):
            raise ConfigError(
                f"warm start shapes {start.f_values.shape} and {start.g_values.shape} "
                f"do not match {n} mu-atoms and {len(nu)} nu-atoms"
            )
        else:
            start_kind, f, g = "warm", start.f_values, start.g_values
        x, scale = np.concatenate([f, g]), np.concatenate([mu_w, nu_w])

        def split(z):
            return z[:n], z[n:]

    def dual(z, out):
        """Phi at z and a magnitude for its rounding; leaves the positive
        slack [f_i + g_j - c_ij]_+ in out."""
        fz, gz = split(z)
        np.add.outer(fz, gz, out=out)
        out -= C
        np.maximum(out, 0.0, out=out)
        quad = 0.5 * float(mu_w @ np.einsum("ij,ij,j->i", out, out, nu_w))
        lin = eps * (float(mu_w @ fz) + float(nu_w @ gz))
        return quad - lin, quad + abs(lin)

    def linearize(P):
        """Residuals F, G and active masses A nu, A^T mu; overwrites the
        positive slack P with the active set A as 0/1."""
        F = P @ nu_w - eps
        G = mu_w @ P - eps
        np.greater(P, 0.0, out=P)
        return F, G, P @ nu_w, mu_w @ P

    # two dense buffers besides C: the active set and the trial slack
    A, T = np.empty_like(C), np.empty_like(C)
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
            phi_t, mag_t = dual(trial, T)
            if phi_t <= phi + _ARMIJO * t * slope + _PHI_ROUNDOFF * phi_mag or t <= _MIN_STEP:
                break
            t *= 0.5
        x, phi, phi_mag = trial, phi_t, mag_t
        A, T = T, A
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


def evaluate_f_at(x, pot: DualPotentials, nu: DiscreteMeasure) -> float:
    """f extended off the mu-atoms: the t solving
    sum_j nu_j [t + g_j - c(x, y_j)]_+ = eps."""
    pt = np.asarray(x, dtype=float).reshape(1, -1)
    c_row = cost_matrix(pt, nu.atoms)[0]
    thresholds = c_row - pot.g_values
    return solve_scalar_update(thresholds, nu.weights, pot.epsilon)


def assemble_coupling(
    pot: DualPotentials, mu: DiscreteMeasure, nu: DiscreteMeasure, cfg: SolverConfig,
    cost: Optional[np.ndarray] = None,
) -> Coupling:
    """Coupling masses mu_i nu_j [f_i + g_j - c_ij]_+ / eps, in CSR form, with
    recomputed marginal residuals attached; stale potentials are rejected.
    cost is cost_matrix(mu.atoms, nu.atoms), built here when not given."""
    C = cost_matrix(mu.atoms, nu.atoms) if cost is None else cost
    # the slack f_i + g_j - c_ij, then its positive part, in one n x m buffer
    positive = np.add.outer(pot.f_values, pot.g_values)
    positive -= C
    np.maximum(positive, 0.0, out=positive)
    res_mu, res_nu = _positive_residuals(positive, mu.weights, nu.weights, pot.epsilon)
    residual = max(float(res_mu.max()), float(res_nu.max()))
    if residual > 10.0 * cfg.residual_tol:
        raise InconsistencyError(
            f"marginal residual {residual:.3e} exceeds 10 x residual_tol; stale potentials?"
        )
    # one boolean mask of the positive slack gives the row pointers and,
    # by row-major boolean extraction, the densities (still the slack here)
    active = positive > 0.0
    counts = active.sum(axis=1)
    indptr = np.zeros(len(mu) + 1, dtype=np.int64)
    counts.cumsum(out=indptr[1:])
    density = positive[active]
    # free the dense buffer before the other support-sized arrays are built:
    # at eps where most pairs are active (d = 3) they outweigh it
    del positive
    density /= pot.epsilon
    # columns, extracted as int32 from a broadcast row of column numbers, and
    # masses mu_i nu_j density_ij, by blocks of rows, so the only
    # support-sized arrays are the coupling's own
    n, m = active.shape
    j_idx = np.empty(len(density), dtype=np.int32)
    masses = np.empty(len(density))
    columns = np.broadcast_to(np.arange(m, dtype=np.int32), (n, m))
    for rows in row_blocks(n, m):
        span = slice(indptr[rows.start], indptr[rows.stop])
        cols = columns[rows][active[rows]]
        j_idx[span] = cols
        out = masses[span]
        np.multiply(mu.weights[rows].repeat(counts[rows]), nu.weights[cols], out=out)
        out *= density[span]
    return Coupling(
        n_mu=n,
        n_nu=m,
        epsilon=pot.epsilon,
        indptr=indptr,
        j_idx=j_idx,
        masses=masses,
        densities=density,
        residual=residual,
    )


def max_density(coupling: Coupling) -> float:
    """eps times the largest coupling density: the max over atom pairs of
    f_i + g_j - c_ij, read from the coupling's entries (within roundoff of
    the dense max, since each density is the slack divided by eps)."""
    return coupling.epsilon * float(coupling.densities.max())
