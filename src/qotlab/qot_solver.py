"""Dual solver for quadratically regularized optimal transport.

For discrete marginals mu (atoms x_i, weights mu_i) and nu (atoms y_j,
weights nu_j) the optimal dual potentials (f, g) solve, for every atom,

    sum_i mu_i [f_i + g_j - c(x_i, y_j)]_+ = eps      (one equation per j)
    sum_j nu_j [f_i + g_j - c(x_i, y_j)]_+ = eps      (one equation per i)

with c(x, y) = |x - y|^2 / 2.  Holding one block fixed, each equation in the
other block is a scalar convex piecewise-linear increasing equation, solved
exactly by Newton's method on its active set: from any point at or above the
root the iterates decrease monotonically and stop on the linear piece that
contains the root, after finitely many steps.  No thresholds are sorted; each
step is a masked pass over the dense matrix, and the previous sweep's
potentials are the warm start.  The solver sweeps the two blocks alternately
until both residual vectors fall below tolerance.  Within one half-sweep the
per-atom solves are independent (they are evaluated as one vectorized batch).

The shift degree of freedom is fixed by balancing the integrals,
sum_i mu_i f_i = sum_j nu_j g_j.  For mu = nu the solver returns the midpoint
u = (f + g) / 2 as both potentials: the dual objective is concave and
invariant under the swap (f, g) <-> (g, f), so the midpoint of any optimum
and its swap is a symmetric optimum, whatever shift each connected component
of the support carries.

Dense n x m cost and slack matrices exist only inside solve and
assemble_coupling.  Everything downstream, max_density and the transport
cost included, reads the sparse Coupling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure


class ConfigError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    """The sweep budget ran out; residual_mu and residual_nu are the
    sup-norms of the last sweep's two residual vectors, residual their max."""

    def __init__(self, message: str, residual_mu: float, residual_nu: float, sweeps: int):
        super().__init__(message)
        self.residual_mu = residual_mu
        self.residual_nu = residual_nu
        self.residual = max(residual_mu, residual_nu)
        self.sweeps = sweeps


class InconsistencyError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float
    max_sweeps: int = 10_000
    residual_tol: float = 1e-10   # on the marginal-equation residual
    support_tol: float = 0.0      # support = {f_i + g_j - c_ij > support_tol}

    def __post_init__(self):
        if not all(map(math.isfinite, (self.epsilon, self.residual_tol, self.support_tol))):
            raise ConfigError("epsilon, residual_tol and support_tol must be finite")
        if not (self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.residual_tol > 0):
            raise ConfigError("residual_tol must be positive")
        if self.max_sweeps < 1:
            raise ConfigError("max_sweeps must be at least 1")
        if self.support_tol < 0:
            raise ConfigError("support_tol must be nonnegative")


@dataclass(frozen=True, eq=False)
class DualPotentials:
    f_values: np.ndarray
    g_values: np.ndarray
    epsilon: float
    normalization: str = "balanced-integrals"
    residual: float = np.nan
    sweeps: int = 0

    def to_dict(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "f": [float(v) for v in self.f_values],
            "g": [float(v) for v in self.g_values],
            "normalization": self.normalization,
            "residual": float(self.residual),
            "sweeps": int(self.sweeps),
        }


@dataclass(frozen=True, eq=False)
class Coupling:
    """Sparse coupling: entries are the atom pairs with positive mass, in
    row-major order; support flags mark density strictly above support_tol."""

    n_mu: int
    n_nu: int
    epsilon: float
    i_idx: np.ndarray
    j_idx: np.ndarray
    masses: np.ndarray
    densities: np.ndarray
    in_support: np.ndarray
    residual: float

    @property
    def row_sums(self) -> np.ndarray:
        return np.bincount(self.i_idx, weights=self.masses, minlength=self.n_mu)

    @property
    def col_sums(self) -> np.ndarray:
        return np.bincount(self.j_idx, weights=self.masses, minlength=self.n_nu)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_mu, self.n_nu))
        dense[self.i_idx, self.j_idx] = self.masses
        return dense

    def cost_against(self, X: np.ndarray, Y: np.ndarray) -> float:
        """Transport cost sum pi_ij c(x_i, y_j), with c evaluated only at the
        coupling's entries (bitwise the entries of cost_matrix(X, Y))."""
        diff = X[self.i_idx] - Y[self.j_idx]
        return float((self.masses * (0.5 * (diff**2).sum(-1))).sum())

    def to_dict(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "entries": [
                [int(i), int(j), float(m), float(d)]
                for i, j, m, d in zip(self.i_idx, self.j_idx, self.masses, self.densities)
            ],
            "residual": float(self.residual),
        }


def cost_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Half squared Euclidean distances, c(x, y) = |x - y|^2 / 2."""
    diff = X[:, None, :] - Y[None, :, :]
    return 0.5 * (diff**2).sum(-1)


def _hinge_root_batch(S: np.ndarray, w: np.ndarray, eps: float, t=None) -> np.ndarray:
    """Per column j of S, the unique t with h_j(t) = sum_i w_i (t - S_ij)_+ = eps.

    Newton on the active set A = {i : S_ij < t}: t <- (eps + sum_A w_i S_ij)
    / sum_A w_i, the root of the linear piece of h_j at t.  h_j is convex and
    increasing, so one step from any t with a nonempty active set lands at or
    above the root, and from above the iterates decrease.  A column stops
    when its step no longer decreases it; a step that decreases it shrinks
    its active set, so this takes finitely many steps.  The cold start
    min_i (S_ij + eps / w_i) is at or above the root and is the fallback for
    an empty active set.  A warm start t may lie on either side of the root:
    its first step is taken unconditionally and capped at the cold start.
    """
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
    positive = np.maximum(slack, 0.0)
    res_mu = np.abs(positive @ nu_w - eps)
    res_nu = np.abs(mu_w @ positive - eps)
    return res_mu, res_nu


def solve(mu: DiscreteMeasure, nu: DiscreteMeasure, cfg: SolverConfig) -> DualPotentials:
    """Alternating exact coordinate updates until both marginal residual
    vectors have sup-norm <= residual_tol.

    Each sweep updates all g coordinates from the current f, then all f
    coordinates from the new g, so the f-side equations hold to machine
    precision at the sweep boundary.  For mu = nu (bitwise) the candidate is
    the midpoint u = (f + g) / 2 of the sweep, accepted once (u, u) meets the
    residual tolerance and one f-update from u moves it by at most
    residual_tol; the returned potentials satisfy f = g exactly.
    """
    if mu.dim != nu.dim:
        raise ConfigError(f"dimension mismatch: mu has d={mu.dim}, nu has d={nu.dim}")
    eps = cfg.epsilon
    C = cost_matrix(mu.atoms, nu.atoms)
    mu_w, nu_w = mu.weights, nu.weights
    self_transport = mu.same_as(nu)
    f = np.zeros(len(mu))
    g = None
    for sweep in range(1, cfg.max_sweeps + 1):
        # each half-sweep starts from the previous sweep's potential
        g = _hinge_root_batch(C - f[:, None], mu_w, eps, g)
        f = _hinge_root_batch(C.T - g[:, None], nu_w, eps, f if sweep > 1 else None)
        if self_transport:
            u = 0.5 * (f + g)
            res_mu, res_nu = marginal_residuals(u[:, None] + u[None, :] - C, mu_w, nu_w, eps)
        else:
            res_mu, res_nu = marginal_residuals(f[:, None] + g[None, :] - C, mu_w, nu_w, eps)
        last_mu, last_nu = float(res_mu.max()), float(res_nu.max())
        last = max(last_mu, last_nu)
        if last > cfg.residual_tol:
            continue
        if not self_transport:
            shift = 0.5 * (float(nu_w @ g) - float(mu_w @ f))
            return DualPotentials(
                f_values=f + shift, g_values=g - shift, epsilon=eps,
                residual=last, sweeps=sweep,
            )
        step = _hinge_root_batch(C.T - u[:, None], nu_w, eps, u)
        if np.max(np.abs(step - u)) <= cfg.residual_tol:
            return DualPotentials(
                f_values=u, g_values=u.copy(), epsilon=eps,
                residual=last, sweeps=sweep,
            )
    raise ConvergenceError(
        f"no convergence within {cfg.max_sweeps} sweeps (last residual {last:.3e})",
        residual_mu=last_mu,
        residual_nu=last_nu,
        sweeps=cfg.max_sweeps,
    )


def evaluate_f_at(x, pot: DualPotentials, nu: DiscreteMeasure) -> float:
    """f extended off the mu-atoms: the t solving
    sum_j nu_j [t + g_j - c(x, y_j)]_+ = eps."""
    pt = np.asarray(x, dtype=float).reshape(1, -1)
    c_row = cost_matrix(pt, nu.atoms)[0]
    thresholds = c_row - pot.g_values
    return solve_scalar_update(thresholds, nu.weights, pot.epsilon)


def assemble_coupling(
    pot: DualPotentials, mu: DiscreteMeasure, nu: DiscreteMeasure, cfg: SolverConfig
) -> Coupling:
    """Coupling masses mu_i nu_j [f_i + g_j - c_ij]_+ / eps with recomputed
    marginal residuals attached; stale potentials are rejected."""
    C = cost_matrix(mu.atoms, nu.atoms)
    slack = pot.f_values[:, None] + pot.g_values[None, :] - C
    res_mu, res_nu = marginal_residuals(slack, mu.weights, nu.weights, pot.epsilon)
    residual = max(float(res_mu.max()), float(res_nu.max()))
    if residual > 10.0 * cfg.residual_tol:
        raise InconsistencyError(
            f"marginal residual {residual:.3e} exceeds 10 x residual_tol; stale potentials?"
        )
    positive = slack > 0.0
    i_idx, j_idx = np.nonzero(positive)  # row-major, deterministic
    density = slack[i_idx, j_idx] / pot.epsilon
    masses = mu.weights[i_idx] * nu.weights[j_idx] * density
    in_support = slack[i_idx, j_idx] > cfg.support_tol
    return Coupling(
        n_mu=len(mu),
        n_nu=len(nu),
        epsilon=pot.epsilon,
        i_idx=i_idx,
        j_idx=j_idx,
        masses=masses,
        densities=density,
        in_support=in_support,
        residual=residual,
    )


def max_density(coupling: Coupling) -> float:
    """eps times the largest coupling density: the max over atom pairs of
    f_i + g_j - c_ij, read from the coupling's entries (within roundoff of
    the dense max, since each density is the slack divided by eps)."""
    return coupling.epsilon * float(coupling.densities.max())
