"""Max-affine convex surrogate, its Moreau envelope, conjugates, and the
reflection map that parametrizes the gradient graph as a Lipschitz graph.

The surrogate built from converged dual potentials is

    psi_tilde(x) = max_j [ <x, y_j> - b_j ],    b_j = |y_j|^2 / 2 - g_j,

a 1-Lipschitz max-affine function (slopes are nu-atoms inside the unit
ball).  Its Moreau envelope psi with parameter lam = 2 * delta(eps) is
convex, C^1, 1-Lipschitz, and within delta(eps) of psi_tilde everywhere,
since the envelope gap of an L-Lipschitz function is at most lam L^2 / 2.

Envelope values, gradients, and the reflection resolvent all reduce to one
simplex-constrained quadratic program

    min over the simplex  (gamma/2) |Y theta|^2 - <x, Y theta> + <b, theta>

(gamma is lam for the envelope prox and lam + 1 for the resolvent), whose
optimal slope combination Y theta minimizes conj(psi_tilde)(y) +
(gamma/2)|y|^2 - <x, y>.  conj(psi_tilde) is the lower convex envelope of
the lifted points (y_j, b_j), finite only on the convex hull of the slopes.

In d=1 that envelope is a lower hull v_0 < ... < v_K with values h_k and
segment slopes m_k, built once per surrogate by a monotone chain.  psi* is
interpolation on it, and the prox is closed form: vertex k wins for x in
[gamma v_k + m_{k-1}, gamma v_k + m_k], segment k maps x to
(x - m_k) / gamma, and one searchsorted over these breakpoints locates x.
In d >= 2 the quadratic program is solved by a primal active-set method
with deterministic pivoting, and psi* by a small linear program.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import GeometryError
from .measures import DiscreteMeasure
from .qot_solver import DualPotentials

KKT_TOL = 1e-10
LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class ProxError(RuntimeError):
    def __init__(self, message: str, kkt_residual: float):
        super().__init__(message)
        self.kkt_residual = kkt_residual


class DetachmentError(AssertionError):
    pass


@dataclass(frozen=True, eq=False)
class ConvexSurrogate:
    slopes: np.ndarray      # (m, d) nu-atoms
    intercepts: np.ndarray  # (m,)
    lam: float              # Moreau parameter, 2 * delta(eps)
    # d=1 only: lower hull of the lifted points (y_j, b_j), as vertices
    # v_0 < ... < v_K, their values h_k and the K segment slopes m_k
    hull: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        init=False, repr=False
    )

    def __post_init__(self):
        hull = None
        if self.slopes.shape[1] == 1:
            hull = _lower_hull(self.slopes[:, 0], self.intercepts)
        object.__setattr__(self, "hull", hull)

    def psi_tilde(self, x) -> float:
        pt = np.asarray(x, dtype=float).reshape(-1)
        return float((self.slopes @ pt - self.intercepts).max())


def _lower_hull(y: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower convex hull of the points (y_j, b_j) by Andrew's monotone chain:
    a duplicate slope keeps its smallest intercept, and collinear middle
    points are dropped.  The turn test compares the very quotients returned
    as segment slopes, so those increase strictly in floating point too."""
    order = np.lexsort((b, y))
    xs: list[float] = []
    hs: list[float] = []
    for j in order:
        px, ph = float(y[j]), float(b[j])
        if xs and xs[-1] == px:
            continue
        while len(xs) >= 2 and (
            (ph - hs[-1]) / (px - xs[-1]) <= (hs[-1] - hs[-2]) / (xs[-1] - xs[-2])
        ):
            xs.pop()
            hs.pop()
        xs.append(px)
        hs.append(ph)
    v = np.array(xs)
    h = np.array(hs)
    return v, h, np.diff(h) / np.diff(v)


def build_surrogate(pot: DualPotentials, nu: DiscreteMeasure, delta_eps: float) -> ConvexSurrogate:
    if not (delta_eps > 0):
        raise GeometryError("delta_eps must be positive")
    b = 0.5 * (nu.atoms**2).sum(-1) - pot.g_values
    return ConvexSurrogate(slopes=nu.atoms, intercepts=b, lam=2.0 * delta_eps)


def _simplex_qp(Y: np.ndarray, b: np.ndarray, target: np.ndarray, gamma: float,
                kkt_tol: float = KKT_TOL) -> np.ndarray:
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
    theta = np.zeros(m)
    theta[active] = theta_act
    u = Y.T @ theta
    grad = gamma * (Y @ u) - lin
    resid = float(max(0.0, grad[theta > 0].max() - grad.min()))
    raise ProxError(f"active-set prox failed to converge (KKT residual {resid:.3e})", resid)


def _prox_point(s: ConvexSurrogate, x: np.ndarray, gamma: float) -> np.ndarray:
    """The optimal slope combination Y theta of the simplex QP at x."""
    if s.hull is None:
        return s.slopes.T @ _simplex_qp(s.slopes, s.intercepts, x, gamma)
    v, _, m = s.hull
    # vertex k owns [gamma v_k + m_{k-1}, gamma v_k + m_k] and segment k the
    # open interval between gamma v_k + m_k and gamma v_{k+1} + m_k
    breaks = np.empty(2 * len(m))
    breaks[0::2] = gamma * v[:-1] + m
    breaks[1::2] = gamma * v[1:] + m
    k, on_segment = divmod(int(np.searchsorted(breaks, x[0])), 2)
    if not on_segment:
        return v[k : k + 1].copy()
    return np.clip((x - m[k]) / gamma, v[k], v[k + 1])


def eval_psi(s: ConvexSurrogate, x) -> tuple[float, np.ndarray]:
    """Moreau envelope value and gradient at x.

    The prox point is z = x - lam * u with u the optimal simplex combination
    of slopes; the gradient is (x - z) / lam = u.
    """
    pt = np.asarray(x, dtype=float).reshape(-1)
    u = _prox_point(s, pt, s.lam)
    z = pt - s.lam * u
    val = s.psi_tilde(z) + float(((pt - z) ** 2).sum()) / (2.0 * s.lam)
    return val, u


def eval_psi_star(s: ConvexSurrogate, y) -> float:
    """Convex conjugate of the envelope: conj(psi_tilde)(y) + (lam/2)|y|^2,
    +inf outside the convex hull of the slopes.

    conj(psi_tilde) is the lower convex envelope of the intercepts over the
    slope points: interpolation on the lower hull in d=1, a small linear
    program in d >= 2.
    """
    pt = np.asarray(y, dtype=float).reshape(-1)
    if s.hull is None:
        low = _psi_star_lp(s, pt)
    else:
        v, h, _ = s.hull
        low = float(np.interp(pt[0], v, h)) if v[0] <= pt[0] <= v[-1] else math.inf
    if math.isinf(low):
        return math.inf
    return low + 0.5 * s.lam * float(pt @ pt)


def _psi_star_lp(s: ConvexSurrogate, pt: np.ndarray) -> float:
    """conj(psi_tilde)(pt) as min <b, theta> over the simplex subject to
    Y theta = pt; +inf when infeasible."""
    # scipy loads here, on the first d >= 2 conjugate: d=1 never needs it
    from scipy.optimize import linprog

    m, _ = s.slopes.shape
    A_eq = np.vstack([s.slopes.T, np.ones(m)])
    b_eq = np.append(pt, 1.0)
    res = linprog(s.intercepts, A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs", options=LP_OPTIONS)
    if not res.success:
        return math.inf
    return float(res.fun)


def eval_psi_prime(s: ConvexSurrogate, mu: DiscreteMeasure, y, psi_at_atoms=None) -> float:
    """Conjugate restricted to the mu-atoms: max_i <x_i, y> - psi(x_i)."""
    pt = np.asarray(y, dtype=float).reshape(-1)
    if psi_at_atoms is None:
        psi_at_atoms = np.array([eval_psi(s, atom)[0] for atom in mu.atoms])
    return float((mu.atoms @ pt - psi_at_atoms).max())


def minty_reflect(s: ConvexSurrogate, u) -> tuple[np.ndarray, np.ndarray]:
    """Solve x' + grad psi(x') = u and return (x', grad psi(x')).

    x' is the prox of the envelope at u; composing envelopes gives it from
    the same simplex QP with curvature lam + 1, as x' = u - Y theta with
    grad psi(x') = Y theta.
    """
    pt = np.asarray(u, dtype=float).reshape(-1)
    g = _prox_point(s, pt, s.lam + 1.0)
    return pt - g, g


def minty_map(s: ConvexSurrogate, u) -> np.ndarray:
    """The 1-Lipschitz reflection F(u) = x' - grad psi(x') = 2 x' - u."""
    x_prime, g = minty_reflect(s, u)
    return x_prime - g


def quadratic_detachment(s: ConvexSurrogate, x, y) -> tuple[float, float]:
    """Duality gap psi(x) + psi*(y) - <x, y> and its quadratic lower bound
    |x - y - F(x + y)|^2 / 4; raises if the gap undercuts the bound."""
    px = np.asarray(x, dtype=float).reshape(-1)
    py = np.asarray(y, dtype=float).reshape(-1)
    star = eval_psi_star(s, py)
    val, _ = eval_psi(s, px)
    gap = val + star - float(px @ py)
    F = minty_map(s, px + py)
    lower = 0.25 * float(((px - py - F) ** 2).sum())
    if not math.isinf(gap) and gap < lower - 1e-8:
        raise DetachmentError(f"duality gap {gap!r} below quadratic bound {lower!r}")
    return gap, lower
