"""Spread functions, distances, and support-shape metrics.

The spread profile rho(r) = min over atoms x of the mass inside the *open*
ball B(x, r); for a discrete measure it is a left-continuous step function of
r with breakpoints at the pairwise atom distances.  The spread functions

    delta(eps)    = inf{r > 0 : r * rho(r)       > eps}
    delta_st(eps) = inf{r > 0 : r * rho(sqrt(r)) > eps}

are computed in closed form on each constancy interval of rho.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measures import DiscreteMeasure, sq_distances

DIST_DECIMALS = 12


class GeometryError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class SpreadProfile:
    """Step function rho: rho(r) = rho_values[k] on (radii[k], radii[k+1]],
    and rho(r) = rho_values[-1] = 1 beyond the last breakpoint.  radii[0] = 0."""

    radii: np.ndarray
    rho_values: np.ndarray
    source: str = ""

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


def _pairwise_distances(mu: DiscreteMeasure, cost: Optional[np.ndarray] = None) -> np.ndarray:
    # twice the cost |x_i - x_j|^2 / 2 is bitwise sq_distances (x 0.5 is exact)
    dist = sq_distances(mu.atoms, mu.atoms) if cost is None else np.multiply(cost, 2.0)
    np.sqrt(dist, out=dist)
    return np.round(dist, DIST_DECIMALS, out=dist)


def build_spread(
    mu: DiscreteMeasure, source: str = "", cost: Optional[np.ndarray] = None
) -> SpreadProfile:
    """Profile of rho over all candidate radii (the distinct pairwise
    distances, rounded to 12 decimals for order-independent breakpoints).
    cost, when given, is the matrix |x_i - x_j|^2 / 2 of mu's atoms, read
    instead of recomputing the distances."""
    dist = _pairwise_distances(mu, cost)
    # the distinct distances, starting at 0 (self-distances); a sort and an
    # adjacent dedupe give np.unique's values without its lazy numpy.ma import
    flat = np.sort(dist, axis=None)
    keep = np.empty(len(flat), dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    radii = flat[keep]
    n = len(mu)
    masses = np.empty((n, len(radii)))
    for a in range(n):
        order = np.argsort(dist[a], kind="stable")
        ds = dist[a][order]
        cw = np.cumsum(mu.weights[order])
        # mass of the closed ball of radius radii[k]; the open ball of any
        # r in (radii[k], radii[k+1]] contains exactly these atoms
        pos = np.searchsorted(ds, radii, side="right") - 1
        masses[a] = cw[pos]
    rho = masses.min(axis=0)
    return SpreadProfile(radii=radii, rho_values=rho, source=source)


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


def hull_faces(mu: DiscreteMeasure):
    """Boundary of the convex hull of the atoms, as faces.

    d=1: the pair (lo, hi).  d=2: an (F, 2, 2) array of boundary segments.
    The hull boundary is the proxy for the boundary of the support.
    """
    if mu.dim == 1:
        vals = mu.atoms[:, 0]
        return (float(vals.min()), float(vals.max()))
    if mu.dim == 2:
        # scipy loads here, on the first d=2 hull: no d=1 or rate run needs it
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(mu.atoms)
        except QhullError as exc:
            raise GeometryError(f"degenerate convex hull: {exc}") from exc
        segs = mu.atoms[hull.simplices]  # (F, 2, 2)
        return np.array(segs, dtype=float)
    raise GeometryError("hull boundary is supported for d in {1, 2}")


def boundary_distance(x, mu: DiscreteMeasure, faces) -> float:
    """Distance from x to the convex-hull boundary of the atoms."""
    pt = np.asarray(x, dtype=float).reshape(-1)
    if mu.dim == 1:
        lo, hi = faces
        return float(min(abs(pt[0] - lo), abs(pt[0] - hi)))
    if mu.dim == 2:
        best = np.inf
        for seg in faces:
            a, b = seg[0], seg[1]
            ab = b - a
            denom = float(ab @ ab)
            t = 0.0 if denom == 0.0 else float(np.clip((pt - a) @ ab / denom, 0.0, 1.0))
            proj = a + t * ab
            best = min(best, float(np.linalg.norm(pt - proj)))
        return best
    raise GeometryError("boundary distance is supported for d in {1, 2}")
