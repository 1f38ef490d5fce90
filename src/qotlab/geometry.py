"""Spread functions, distances, and support-shape metrics.

The spread profile rho(r) = min over atoms x of the mass inside the *open*
ball B(x, r); for a discrete measure it is a left-continuous step function of
r with breakpoints at the pairwise atom distances.  The spread functions

    delta(eps)    = inf{r > 0 : r * rho(r)       > eps}
    delta_st(eps) = inf{r > 0 : r * rho(sqrt(r)) > eps}

are computed in closed form on each constancy interval of rho.

The profile streams over row blocks of the rounded distance matrix, so no
n x n array is held.  On an equal-weight measure (every lattice grid) it
needs no per-row mass table: with each row of distances sorted, let q[m] be
the largest over all rows of the row's (m+1)-th smallest distance.  The
fewest atoms in any closed ball of radius r is then #{m : q[m] <= r}, and the
profile at a breakpoint r is cumsum(w)[#{m : q[m] <= r} - 1].  That is bit
for bit the per-row value, since a running sum of equal weights depends only
on how many terms it has, and the running sum never decreases, so the
smallest count gives the smallest mass.  Unequal weights take a second pass
over the blocks, with per-row stable sorts and running sums evaluated at the
breakpoints, which the first pass collects.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import DiscreteMeasure, row_blocks, sq_distances

DIST_DECIMALS = 12


class GeometryError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class SpreadProfile:
    """Step function rho: rho(r) = rho_values[k] on (radii[k], radii[k+1]],
    and rho(r) = rho_values[-1] = 1 beyond the last breakpoint.  radii[0] = 0."""

    radii: np.ndarray
    rho_values: np.ndarray

    def rho_at(self, r: float) -> float:
        if r <= 0:
            raise GeometryError("rho is defined for r > 0")
        idx = int(np.searchsorted(self.radii, r, side="left")) - 1
        idx = min(max(idx, 0), len(self.radii) - 1)
        return float(self.rho_values[idx])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("r,rho\n")
        for r, rho in zip(self.radii, self.rho_values):
            buf.write(f"{float(r)!r},{float(rho)!r}\n")
        return buf.getvalue()


def _distance_blocks(mu: DiscreteMeasure, cost: Optional[np.ndarray], width: int):
    """The distances between mu's atoms rounded to DIST_DECIMALS, in the
    row blocks of measures.row_blocks(len(mu), width)."""
    for rows in row_blocks(len(mu), width):
        if cost is None:
            dist = sq_distances(mu.atoms[rows], mu.atoms)
        else:
            # twice the cost |x_i - x_j|^2 / 2 is bitwise sq_distances (x 0.5 is exact)
            dist = np.multiply(cost[rows], 2.0)
        np.sqrt(dist, out=dist)
        yield np.round(dist, DIST_DECIMALS, out=dist)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values: a sort and an adjacent dedupe give
    np.unique's values without its lazy numpy.ma import."""
    flat = np.sort(values, axis=None)
    keep = np.empty(len(flat), dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def build_spread(mu: DiscreteMeasure, cost: Optional[np.ndarray] = None) -> SpreadProfile:
    """Profile of rho over all candidate radii (the distinct pairwise
    distances, rounded to 12 decimals for order-independent breakpoints).
    cost, when given, is the matrix |x_i - x_j|^2 / 2 of mu's atoms, read
    instead of recomputing the distances.

    rho at radii[k] is the smallest mass of a closed ball of radius
    radii[k] about an atom; the open ball of any r in (radii[k], radii[k+1]]
    contains exactly these atoms."""
    n, w = len(mu), mu.weights
    # q[m] = the largest over all rows of the row's (m+1)-th smallest distance
    q = np.zeros(n)
    parts = []
    for dist in _distance_blocks(mu, cost, n):
        dist.sort(axis=1)
        np.maximum(q, dist.max(axis=0), out=q)
        parts.append(_distinct(dist))
    # every row holds its self-distance 0, so radii[0] = 0 and each count >= 1
    radii = _distinct(np.concatenate(parts))
    if (w == w[0]).all():
        rho = np.cumsum(w)[np.searchsorted(q, radii, side="right") - 1]
        return SpreadProfile(radii=radii, rho_values=rho)
    R = len(radii)
    rho = np.full(R, np.inf)
    # a block holds about measures.BLOCK_ENTRIES entries of the n x R mass table
    for dist in _distance_blocks(mu, cost, max(n, R)):
        order = np.argsort(dist, axis=1, kind="stable")
        cw = np.cumsum(w[order], axis=1)
        # each sorted distance is one of the radii: pos is its exact index
        pos = np.searchsorted(radii, np.take_along_axis(dist, order, axis=1))
        # atoms within radii[k] of each row's atom: a histogram of pos per
        # row (each row offset into its own range of R bins), summed up
        rows = len(dist)
        pos += np.arange(rows)[:, None] * R
        within = np.bincount(pos.ravel(), minlength=rows * R).reshape(rows, R).cumsum(axis=1)
        within -= 1
        np.minimum(rho, np.take_along_axis(cw, within, axis=1).min(axis=0), out=rho)
    return SpreadProfile(radii=radii, rho_values=rho)


def _first_piece_exceeding(profile: SpreadProfile, eps: float, squared: bool) -> int:
    radii = profile.radii**2 if squared else profile.radii
    sup = np.empty(len(radii))
    sup[:-1] = radii[1:] * profile.rho_values[:-1]
    sup[-1] = np.inf  # last piece has rho = 1 and unbounded r
    above = sup > eps
    return int(np.argmax(above))


def delta(profile: SpreadProfile, epsilon: float) -> float:
    """Exact infimum of {r : r * rho(r) > eps} over the step profile."""
    if epsilon <= 0:
        raise GeometryError("epsilon must be positive")
    k = _first_piece_exceeding(profile, epsilon, squared=False)
    return float(max(profile.radii[k], epsilon / profile.rho_values[k]))


def delta_st(profile: SpreadProfile, epsilon: float) -> float:
    """Improved spread: infimum of {r : r * rho(sqrt(r)) > eps}."""
    if epsilon <= 0:
        raise GeometryError("epsilon must be positive")
    k = _first_piece_exceeding(profile, epsilon, squared=True)
    return float(max(profile.radii[k] ** 2, epsilon / profile.rho_values[k]))


def diameter(mu: DiscreteMeasure, cost: Optional[np.ndarray] = None) -> float:
    """Largest distance between two atoms; cost, when given, is the matrix
    |x_i - x_j|^2 / 2 of mu's atoms, read instead of recomputing it."""
    if len(mu) < 2:
        raise GeometryError("diameter needs at least two atoms")
    sq_max = sq_distances(mu.atoms, mu.atoms).max() if cost is None else 2.0 * cost.max()
    # sqrt is monotone, so the root of the largest square is the largest distance
    return float(np.sqrt(sq_max))


def boundary_distance(mu: DiscreteMeasure) -> np.ndarray:
    """Distance from each atom to the boundary of the atoms' convex hull, the
    proxy for the boundary of the support.

    For a point of the hull it is the least slack -(n.x + c) of the hull's
    facet inequalities n.x + c <= 0 (unit outward normals n), clamped at 0:
    in d=1 min(x - lo, hi - x), in d >= 2 from Qhull's facet equations.
    A hull with no interior (collinear atoms in d=2, say) is a GeometryError.
    """
    if mu.dim == 1:
        x = mu.atoms[:, 0]
        return np.minimum(x - x.min(), x.max() - x)
    # scipy loads here, on the first d >= 2 hull: no d=1 or rate run needs it
    from scipy.spatial import ConvexHull, QhullError

    try:
        equations = ConvexHull(mu.atoms).equations
    except QhullError as exc:
        raise GeometryError(f"degenerate convex hull: {exc}") from exc
    slack = mu.atoms @ equations[:, :-1].T
    slack += equations[:, -1]
    return np.maximum(-slack.max(axis=1), 0.0)
