"""Max-affine convex surrogate, its Moreau envelope, conjugates, and the
reflection map that parametrizes the gradient graph as a Lipschitz graph.

The surrogate built from converged dual potentials is

    psi_tilde(x) = max_j [ <x, y_j> - b_j ],    b_j = |y_j|^2 / 2 - g_j,

a 1-Lipschitz max-affine function (slopes are nu-atoms inside the unit
ball).  Its Moreau envelope psi with parameter lam = 2 * delta(eps) is
convex, C^1, 1-Lipschitz, and within delta(eps) of psi_tilde everywhere,
since the envelope gap of an L-Lipschitz function is at most lam L^2 / 2.

Every evaluation takes a (k, d) array of points and returns one result per
row.  Envelope gradients and the reflection resolvent both minimize

    conj(psi_tilde)(y) + (gamma/2)|y|^2 - <x, y>

over y (gamma is lam for the envelope prox and lam + 1 for the resolvent),
and the minimizer is the gradient.  conj(psi_tilde) is the lower convex
envelope of the lifted points (y_j, b_j), finite only on the convex hull of
the slopes, and each surrogate builds that lower hull once.

In d=1 the hull is v_0 < ... < v_K with values h_k and segment slopes m_k,
from a monotone chain.  psi* is interpolation on it, and the prox is closed
form: vertex k wins for x in [gamma v_k + m_{k-1}, gamma v_k + m_k], segment
k maps x to (x - m_k) / gamma, and one searchsorted over these breakpoints
locates a whole batch.  In d >= 2 the hull is a list of faces: Qhull's lower
facets and all their sub-faces.  On each face's affine span the minimizer is
one small linear solve; a face keeps it only if it lies inside the face, and
the kept minimizer of least objective is exact, since the true one is kept
by its own face.  psi* finds the nearest point of the slopes' hull with the
same routine and interpolates the intercepts there.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import GeometryError
from .measures import DiscreteMeasure, row_blocks
from .qot_solver import DualPotentials

# psi* counts points this far outside the slopes' hull as inside, at the
# value of their nearest point of the hull (an end vertex in d = 1)
HULL_TOL = 1e-11
# singular values below this fraction of the largest count as zero when the
# d >= 2 hull is built
_FLAT = 1e-12


class DetachmentError(AssertionError):
    pass


@dataclass(frozen=True, eq=False)
class ConvexSurrogate:
    slopes: np.ndarray      # (m, d) nu-atoms
    intercepts: np.ndarray  # (m,)
    lam: float              # Moreau parameter, 2 * delta(eps)
    # lower hull of the lifted points (y_j, b_j).  d=1: vertices
    # v_0 < ... < v_K, their values h_k and the K segment slopes m_k.
    # d >= 2: per face size, the faces' vertex indices and the inverse Gram
    # matrices of their edges (see _lower_faces)
    hull: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.slopes.shape[1] == 1:
            hull = _lower_hull(self.slopes[:, 0], self.intercepts)
        else:
            hull = _lower_faces(self.slopes, self.intercepts)
        object.__setattr__(self, "hull", hull)

    def psi_tilde(self, x) -> np.ndarray:
        """max_j <x, y_j> - b_j at each row of x."""
        return (_inner(_rows(self, x), self.slopes) - self.intercepts).max(axis=1)


def _rows(s: ConvexSurrogate, x) -> np.ndarray:
    # x as a (k, d) array of points in the surrogate's dimension
    return np.asarray(x, dtype=float).reshape(-1, s.slopes.shape[1])


def _inner(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The matrix of <a_i, b_j>, summed one coordinate at a time, so each
    entry is bit for bit the same whatever the batch it is computed in."""
    out = np.multiply.outer(A[:, 0], B[:, 0])
    for k in range(1, A.shape[1]):
        out += np.multiply.outer(A[:, k], B[:, k])
    return out


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


def _lower_faces(Y: np.ndarray, b: np.ndarray) -> tuple:
    """Faces of the lower convex hull of the lifted points (y_j, b_j) in
    d >= 2.  For k = 0 ... r, with r the dimension of the slopes' affine span:
    the (F, k+1) vertex indices of the k-faces and the (F, k, k) inverse Gram
    matrices of their edges y_{j_i} - y_{j_0}."""
    # scipy loads here, on the first d >= 2 surrogate: d=1 never needs it
    from scipy.spatial import ConvexHull, QhullError

    centred = Y - Y.mean(axis=0)
    _, sv, vt = np.linalg.svd(centred, full_matrices=False)
    r = int((sv > _FLAT * sv[0]).sum())
    if r == 0:
        simplices = np.array([[np.argmin(b)]])
    else:
        # Qhull in the span's coordinates and without joggling, so the faces
        # are deterministic.  A point above every lifted point keeps a
        # coplanar lifted set full-dimensional, and no lower facet holds it.
        lifted = np.column_stack([centred @ vt[:r].T, b])
        apex = np.append(np.zeros(r), b.max() + 1.0)
        try:
            hull = ConvexHull(np.vstack([lifted, apex]))
        except QhullError as exc:
            raise GeometryError(f"degenerate lower hull: {exc}") from exc
        # the facets that face down and have full-dimensional shadows:
        # vertical facets from collinear boundary atoms, and the zero-volume
        # simplices that Qhull's triangulation leaves on cospherical lifted
        # points, cast flat ones, and the rest tile the slopes' hull
        lower = hull.simplices[hull.equations[:, r] < 0.0]
        sv = np.linalg.svd(Y[lower[:, 1:]] - Y[lower[:, :1]], compute_uv=False)
        simplices = lower[sv[:, -1] > _FLAT * sv[:, 0]]
    faces = sorted({sub for simplex in simplices.tolist() for k in range(1, r + 2)
                    for sub in itertools.combinations(sorted(simplex), k)})
    groups = []
    for k in range(r + 1):
        idx = np.array([f for f in faces if len(f) == k + 1], dtype=np.intp).reshape(-1, k + 1)
        E = Y[idx[:, 1:]] - Y[idx[:, :1]]
        groups.append((idx, np.linalg.inv(E @ E.transpose(0, 2, 1))))
    return tuple(groups)


def build_surrogate(pot: DualPotentials, nu: DiscreteMeasure, delta_eps: float) -> ConvexSurrogate:
    if not (delta_eps > 0):
        raise GeometryError("delta_eps must be positive")
    b = 0.5 * (nu.atoms**2).sum(-1) - pot.g_values
    return ConvexSurrogate(slopes=nu.atoms, intercepts=b, lam=2.0 * delta_eps)


def _prox_points(s: ConvexSurrogate, X: np.ndarray, gamma: float) -> np.ndarray:
    """The minimizer y of conj(psi_tilde)(y) + (gamma/2)|y|^2 - <x, y> at each
    row of X."""
    if s.slopes.shape[1] > 1:
        return _hull_argmin(s, X / gamma, 1.0 / gamma)[0]
    v, _, m = s.hull
    # vertex k owns [gamma v_k + m_{k-1}, gamma v_k + m_k] and segment k the
    # open interval between gamma v_k + m_k and gamma v_{k+1} + m_k
    breaks = np.empty(2 * len(m))
    breaks[0::2] = gamma * v[:-1] + m
    breaks[1::2] = gamma * v[1:] + m
    k, on_segment = np.divmod(np.searchsorted(breaks, X[:, 0]), 2)
    out, seg = v[k], on_segment == 1
    ks = k[seg]
    out[seg] = np.clip((X[seg, 0] - m[ks]) / gamma, v[ks], v[ks + 1])
    return out[:, None]


def _hull_argmin(s: ConvexSurrogate, X: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray]:
    """The minimizer y over the slopes' hull of w conj(psi_tilde)(y) +
    |y - x|^2 / 2 at each row x of X, and conj(psi_tilde)(y), in d >= 2.
    Each distinct row reaches _face_argmin once, in row blocks of about
    BLOCK_ENTRIES (point, face) pairs, so no array grows with the batch times
    the faces."""
    uniq, inverse = np.unique(X, axis=0, return_inverse=True)
    Y, low = np.empty_like(uniq), np.empty(len(uniq))
    for rows in row_blocks(len(uniq), sum(len(idx) for idx, _ in s.hull)):
        Y[rows], low[rows] = _face_argmin(s, uniq[rows], w)
    inverse = inverse.reshape(-1)
    return Y[inverse], low[inverse]


def _face_argmin(s: ConvexSurrogate, X: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray]:
    """_hull_argmin by face enumeration.  On the span y = y_0 + sum_i t_i e_i
    of a face the objective is quadratic in t, minimal where
    G t = E (x - y_0) - w beta, with G the Gram matrix of the edges e_i and
    beta_i = b_i - b_0.  Sums run one coordinate at a time, as in _inner."""
    d, rows = X.shape[1], np.arange(len(X))
    # objectives are compared about c, x pulled into the unit ball, which
    # keeps their rounding small both near points inside the hull and far
    # outside it
    C = X / np.maximum(np.sqrt(sum(X[:, c] ** 2 for c in range(d))), 1.0)[:, None]
    XC = X - C
    best, Y, low = np.full(len(X), np.inf), np.empty_like(X), np.empty(len(X))
    for idx, ginv in s.hull:
        k = idx.shape[1] - 1
        Y0, b0 = s.slopes[idx[:, 0]], s.intercepts[idx[:, 0]]
        E = s.slopes[idx[:, 1:]] - Y0[:, None]
        beta = s.intercepts[idx[:, 1:]] - b0[:, None]
        rhs = [sum(E[:, i, c] * (X[:, c, None] - Y0[:, c]) for c in range(d)) - w * beta[:, i]
               for i in range(k)]
        t = [sum(ginv[:, i, l] * rhs[l] for l in range(k)) for i in range(k)]
        rel = [Y0[:, c] - C[:, c, None] + sum(t[i] * E[:, i, c] for i in range(k))
               for c in range(d)]
        val = b0 + sum(t[i] * beta[:, i] for i in range(k))
        obj = w * val + sum(rel[c] * (0.5 * rel[c] - XC[:, c, None]) for c in range(d))
        # a face keeps its minimizer only inside it: barycentric coordinates
        # 1 - sum_i t_i and t_i all nonnegative
        if k:
            obj[(1.0 - sum(t) < 0.0) | np.any(np.array(t) < 0.0, axis=0)] = np.inf
        j = np.argmin(obj, axis=1)
        won = obj[rows, j] < best
        best[won] = obj[rows, j][won]
        tj = [t_i[rows, j] for t_i in t]
        Y[won] = (Y0[j] + sum(tj[i][:, None] * E[j, i] for i in range(k)))[won]
        low[won] = (b0[j] + sum(tj[i] * beta[j, i] for i in range(k)))[won]
    return Y, low


def eval_psi(s: ConvexSurrogate, x) -> tuple[np.ndarray, np.ndarray]:
    """Moreau envelope values (k,) and gradients (k, d) at the rows of x.

    The prox point is z = x - lam * u with u the minimizer of
    conj(psi_tilde)(u) + (lam/2)|u|^2 - <x, u>; the gradient is (x - z) / lam = u.
    """
    X = _rows(s, x)
    U = _prox_points(s, X, s.lam)
    Z = X - s.lam * U
    return s.psi_tilde(Z) + ((X - Z) ** 2).sum(axis=1) / (2.0 * s.lam), U


def eval_psi_star(s: ConvexSurrogate, y) -> np.ndarray:
    """Convex conjugate of the envelope at the rows of y: conj(psi_tilde)(y) +
    (lam/2)|y|^2, +inf outside the convex hull of the slopes (by HULL_TOL).

    conj(psi_tilde) is the lower convex envelope of the intercepts over the
    slope points: interpolation on the lower hull, at the nearest point of
    the slopes' hull for points within HULL_TOL outside it.
    """
    Y = _rows(s, y)
    if s.slopes.shape[1] > 1:
        P, low = _hull_argmin(s, Y, 0.0)
        off = np.sqrt(sum((Y[:, c] - P[:, c]) ** 2 for c in range(Y.shape[1])))
        # d=1 compares y with the rounded v_K + HULL_TOL; a rounded point
        # HULL_TOL outside is up to a spacing of its coordinates further out
        low[off > HULL_TOL + np.spacing(np.abs(Y).max(axis=1))] = math.inf
    else:
        v, h, _ = s.hull
        # np.interp holds the end values beyond [v_0, v_K]
        low = np.interp(Y[:, 0], v, h)
        low[(Y[:, 0] < v[0] - HULL_TOL) | (Y[:, 0] > v[-1] + HULL_TOL)] = math.inf
    return low + 0.5 * s.lam * (Y * Y).sum(axis=1)


def eval_psi_prime(mu: DiscreteMeasure, psi_at_atoms: np.ndarray, y) -> np.ndarray:
    """Conjugate restricted to the mu-atoms, max_i <x_i, y> - psi(x_i), at
    the rows of y; psi_at_atoms holds psi at the mu-atoms."""
    return (_inner(np.asarray(y, dtype=float).reshape(-1, mu.dim), mu.atoms)
            - psi_at_atoms).max(axis=1)


def minty_reflect(s: ConvexSurrogate, u) -> tuple[np.ndarray, np.ndarray]:
    """Solve x' + grad psi(x') = u at each row of u; return (x', grad psi(x')).

    x' is the prox of the envelope at u; composing envelopes gives it from
    the same minimization as the envelope prox with curvature lam + 1, as
    x' = u - y with grad psi(x') = y.
    """
    U = _rows(s, u)
    G = _prox_points(s, U, s.lam + 1.0)
    return U - G, G


def minty_map(s: ConvexSurrogate, u) -> np.ndarray:
    """The 1-Lipschitz reflection F(u) = x' - grad psi(x') = 2 x' - u, per row."""
    x_prime, g = minty_reflect(s, u)
    return x_prime - g


def quadratic_detachment(s: ConvexSurrogate, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Duality gaps psi(x) + psi*(y) - <x, y> and their quadratic lower bounds
    |x - y - F(x + y)|^2 / 4 over paired rows of x and y; raises if a gap
    undercuts its bound."""
    X, Y = _rows(s, x), _rows(s, y)
    gap = eval_psi(s, X)[0] + eval_psi_star(s, Y) - (X * Y).sum(axis=1)
    F = minty_map(s, X + Y)
    lower = 0.25 * ((X - Y - F) ** 2).sum(axis=1)
    if np.any(gap < lower - 1e-8):
        k = int(np.argmin(gap - lower))
        raise DetachmentError(f"duality gap {gap[k]!r} below quadratic bound {lower[k]!r}")
    return gap, lower
