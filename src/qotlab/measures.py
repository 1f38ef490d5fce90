"""Discrete probability measures on the unit ball, and Monge-map ground truth.

A measure is a finite set of weighted atoms in R^d.  Atoms are confined to the
closed unit ball because every downstream bound is stated for that
normalization; atoms outside are rejected rather than projected, since silent
projection would corrupt rate experiments.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

# the most lattice points uniform_ball_grid lays out
GRID_ATOM_CAP = 200_000

# Coordinates are compared after rounding to this many decimals.  Duplicate
# detection and pushforward merging both use these keys, which makes them
# deterministic and independent of atom order.
MERGE_DECIMALS = 12

WEIGHT_SUM_SLACK = 1e-9
BALL_SLACK = 1e-12

# entries per block wherever a computation streams over blocks of rows
# instead of holding a whole array: distances and cost rows, the cold
# starts, the coupling assembly, the spread profile, the support checks and
# the d >= 2 surrogate's faces
BLOCK_ENTRIES = 2**15


class MeasureError(ValueError):
    """A measure or map violates the unit-ball / weight contract."""


def _as_points(atoms) -> np.ndarray:
    pts = np.asarray(atoms, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise MeasureError(f"atoms must form an (n, d) array, got ndim={pts.ndim}")
    return pts


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def row_blocks(n: int, width: int):
    """Slices of consecutive rows covering range(n), each of about
    BLOCK_ENTRIES // width rows (at least one) of width entries."""
    rows = max(1, BLOCK_ENTRIES // width)
    for lo in range(0, n, rows):
        yield slice(lo, min(lo + rows, n))


def _merge_keys(points: np.ndarray) -> list[tuple]:
    rounded = np.round(points, MERGE_DECIMALS)
    # -0.0 and 0.0 must collide
    rounded = rounded + 0.0
    return [tuple(row) for row in rounded]


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Weighted atoms in R^d; weights are strictly positive and sum to one."""

    atoms: np.ndarray    # (n, d)
    weights: np.ndarray  # (n,)
    dim: int

    def __len__(self) -> int:
        return len(self.weights)

    def same_as(self, other: "DiscreteMeasure") -> bool:
        """Bitwise equality of atoms and weights; detects self-transport."""
        return (
            self.dim == other.dim
            and self.atoms.shape == other.atoms.shape
            and np.array_equal(self.atoms, other.atoms)
            and np.array_equal(self.weights, other.weights)
        )

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [list(map(float, row)) for row in self.atoms],
            "weights": [float(w) for w in self.weights],
        }


def sq_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The n x m matrix of squared distances |x_i - y_j|^2 between the rows
    of X (n, d) and Y (m, d).

    The squared coordinate differences are added one coordinate at a time,
    block of rows by block of rows, through one scratch buffer of about
    BLOCK_ENTRIES entries, so no (n, m, d) array and no second n x m array is
    ever built.  For d < 8 this is bit for bit ((X[:, None] - Y[None]) ** 2).sum(-1),
    since numpy adds fewer than eight terms in order; from d = 8 on numpy sums
    pairwise and the two can differ in the last bits.
    """
    out = np.subtract.outer(X[:, 0], Y[:, 0])
    out *= out
    if X.shape[1] > 1:
        # the first block is the largest
        scratch = np.empty_like(out[next(row_blocks(*out.shape), slice(0))])
        for rows in row_blocks(*out.shape):
            block = out[rows]
            tmp = scratch[: len(block)]
            for k in range(1, X.shape[1]):
                np.subtract.outer(X[rows, k], Y[:, k], out=tmp)
                tmp *= tmp
                block += tmp
    return out


def make_measure(atoms, weights) -> DiscreteMeasure:
    """Validate and build a measure; weights are renormalized only if their
    sum is within 1e-9 of one."""
    pts = _as_points(atoms)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise MeasureError("weights must be a flat list")
    if len(pts) == 0 or len(w) == 0:
        raise MeasureError("atoms and weights must be nonempty")
    if len(pts) != len(w):
        raise MeasureError(f"{len(pts)} atoms but {len(w)} weights")
    # NaN fails every comparison below, so non-finite inputs are caught here
    if not (np.isfinite(pts).all() and np.isfinite(w).all()):
        raise MeasureError("atoms and weights must be finite")
    if np.any(w <= 0):
        raise MeasureError("weights must be strictly positive")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_SLACK:
        raise MeasureError(f"weights sum to {total!r}, deviation exceeds {WEIGHT_SUM_SLACK}")
    if abs(total - 1.0) > 1e-12:
        w = w / total  # renormalize only when the sum invariant actually needs it
    norms = np.sqrt((pts**2).sum(-1))
    if np.any(norms > 1.0 + BALL_SLACK):
        worst = float(norms.max())
        raise MeasureError(f"atom with norm {worst!r} lies outside the closed unit ball")
    keys = _merge_keys(pts)
    if len(set(keys)) != len(keys):
        raise MeasureError("duplicate atoms (coincident at 12-decimal resolution)")
    return DiscreteMeasure(atoms=_frozen(pts), weights=_frozen(w), dim=pts.shape[1])


def uniform_ball_grid(d: int, h: float) -> DiscreteMeasure:
    """Equal-weight lattice of spacing h inside the unit ball, centered at the
    origin so self-transport instances keep their analytic symmetry."""
    if d not in (1, 2, 3):
        raise MeasureError(f"grid dimension must be 1, 2 or 3, got {d}")
    if not (0.0 < h <= 1.0):
        raise MeasureError(f"grid spacing must lie in (0, 1], got {h}")
    k = int(np.floor(1.0 / h + 1e-9))
    side = 2 * k + 1
    # the ball's points are a subset of the side**d lattice
    if side**d > GRID_ATOM_CAP:
        raise MeasureError(
            f"grid with spacing {h} in d={d} would exceed the atom cap {GRID_ATOM_CAP}"
        )
    axes = np.meshgrid(*([np.arange(-k, k + 1)] * d), indexing="ij")
    lattice = np.stack([ax.ravel() for ax in axes], axis=1).astype(float) * h
    inside = np.sqrt((lattice**2).sum(-1)) <= 1.0 + BALL_SLACK
    pts = lattice[inside]
    w = np.full(len(pts), 1.0 / len(pts))
    return make_measure(pts, w)


@dataclass(frozen=True, eq=False)
class MongeMapSpec:
    """Ground-truth gradient-of-convex-potential map.

    kind is "identity" or "affine" (x -> A x + b with A symmetric PSD).
    lipschitz_L is the Lipschitz constant of the map.
    """

    kind: str
    lipschitz_L: float
    matrix: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        if self.kind == "identity":
            return pts
        if self.kind == "affine":
            return pts @ self.matrix + self.offset
        raise MeasureError(f"unknown map kind {self.kind!r}")

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "lipschitz_L": float(self.lipschitz_L)}
        if self.kind == "affine":
            out["matrix"] = [list(map(float, row)) for row in self.matrix]
            out["offset"] = [float(v) for v in self.offset]
        return out


def identity_map() -> MongeMapSpec:
    return MongeMapSpec(kind="identity", lipschitz_L=1.0)


def affine_map(matrix, offset=None) -> MongeMapSpec:
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise MeasureError("affine map matrix must be square")
    if not np.isfinite(A).all():
        raise MeasureError("affine map matrix must be finite")
    if not np.allclose(A, A.T, atol=1e-12, rtol=0.0):
        raise MeasureError("affine map matrix must be symmetric")
    eig = np.linalg.eigvalsh(A)
    if eig.min() < -1e-12:
        raise MeasureError("affine map matrix must be positive semidefinite")
    b = np.zeros(A.shape[0]) if offset is None else np.asarray(offset, dtype=float).reshape(-1)
    if len(b) != A.shape[0]:
        raise MeasureError("affine map offset has wrong dimension")
    if not np.isfinite(b).all():
        raise MeasureError("affine map offset must be finite")
    return MongeMapSpec(
        kind="affine",
        lipschitz_L=float(max(eig.max(), 0.0)),
        matrix=_frozen(A),
        offset=_frozen(b),
    )


def pushforward(mu: DiscreteMeasure, monge: MongeMapSpec) -> DiscreteMeasure:
    """Image measure under the map; coincident images (at 12-decimal
    resolution) merge with summed weights."""
    return pushforward_labels(mu, monge)[0]


def pushforward_labels(
    mu: DiscreteMeasure, monge: MongeMapSpec
) -> tuple[DiscreteMeasure, np.ndarray]:
    """pushforward(mu, monge), and for each mu-atom the index of the image
    atom it lands on."""
    images = monge(mu.atoms)
    norms = np.sqrt((np.asarray(images) ** 2).sum(-1))
    if np.any(norms > 1.0 + BALL_SLACK):
        raise MeasureError(
            f"pushforward image with norm {float(norms.max())!r} escapes the unit ball"
        )
    keys = _merge_keys(images)
    # dicts keep insertion order, so groups run in order of first appearance
    groups: dict[tuple, list[int]] = {}
    for idx, key in enumerate(keys):
        groups.setdefault(key, []).append(idx)
    labels = np.empty(len(keys), dtype=np.int64)
    for k, members in enumerate(groups.values()):
        labels[members] = k
    if len(groups) == len(keys):
        # no merging needed; keep image bits untouched so the identity map
        # round-trips exactly
        image = DiscreteMeasure(
            atoms=_frozen(np.asarray(images, dtype=float)),
            weights=mu.weights,
            dim=mu.dim,
        )
        return image, labels
    new_atoms = []
    new_weights = []
    for members in groups.values():
        # representative = lexicographically smallest exact image in the group,
        # so the merged atom does not depend on atom order
        rep = min(tuple(images[i]) for i in members)
        new_atoms.append(rep)
        new_weights.append(float(mu.weights[members].sum()))
    image = DiscreteMeasure(
        atoms=_frozen(np.asarray(new_atoms, dtype=float)),
        weights=_frozen(np.asarray(new_weights)),
        dim=mu.dim,
    )
    return image, labels


def measure_from_dict(data: dict) -> DiscreteMeasure:
    """Parse the measure file schema {"dim": d, "atoms": [[..]..], "weights": [..]}.

    Coordinate literals may be integers or floats; for d=1 bare scalars are
    accepted in place of one-element lists.
    """
    try:
        dim = int(data["dim"])
        atoms = data["atoms"]
        weights = data["weights"]
    except (KeyError, TypeError) as exc:
        raise MeasureError(f"malformed measure record: {exc}") from exc
    pts = np.asarray(atoms, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise MeasureError(f"atom array does not match dim={dim}")
    return make_measure(pts, weights)


def load_measure(path) -> DiscreteMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return measure_from_dict(json.load(fh))


def save_measure(mu: DiscreteMeasure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mu.to_dict(), fh, sort_keys=True)
        fh.write("\n")
