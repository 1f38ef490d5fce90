"""One checker per quantitative bound, producing BoundReports, plus rate fits.

Bounds with explicit constants (5, 6, 12, 22, the 4M support square, the
factor 2 in the barycenter estimate, sqrt(24) in concentration; the BOUNDS
table marks them) get a pass/fail flag at additive slack 1e-8.  Bounds
whose constants are universal-but-unspecified report the implied constant
(measured left-hand side divided by the structural right-hand-side factor)
and leave the flag unset; boundedness and trends across an epsilon sweep
are judged by the sweep-level helpers.
The self-transport checks walk the sparse support once per epsilon, for
both the support spread and the GradEstimate barycenters.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import exact_ot, geometry, measures, qot_solver, surrogate
from .measures import DiscreteMeasure, MongeMapSpec

SLACK = 1e-8

# every bound id, in report order, and whether its constant is explicit:
# explicit bounds get a pass/fail flag at SLACK, universal ones only their
# implied constant
BOUNDS = {
    "DensityUB": True,
    "CostSandwich": True,
    "ApproxConj": True,
    "RestrictedConj": True,
    "SupportInclusion12": True,
    "Concentration": True,
    "SymUB": False,
    "SymLB": False,
    "GradEstimate": True,
    "SuppDiamM": True,
    "GeneralBias": False,
    "BoundaryBias": False,
    "IntegralGap": True,
    "DiscrepancyUB": False,
}
BOUND_IDS = tuple(BOUNDS)
EXPLICIT_BOUND_IDS = frozenset(b for b, explicit in BOUNDS.items() if explicit)


class VerifyError(ValueError):
    pass


@dataclass
class BoundReport:
    bound_id: str
    lhs: float
    rhs: float
    implied_constant: float
    holds: Optional[bool]
    context: dict

    def to_record(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "implied_constant": float(self.implied_constant),
            "holds": self.holds,
            "context": self.context,
        }


@dataclass
class RateFit:
    eps_grid: list
    observable: list
    slope: float
    intercept: float
    r_squared: float


def _implied(lhs: float, factor: float) -> float:
    if factor > 0:
        return lhs / factor
    return 0.0 if lhs <= 0 else math.inf


def _report(bound_id: str, lhs, rhs, factor, context: dict, holds=None) -> BoundReport:
    """The report of one bound, with implied constant lhs / factor.  An
    explicit bound's flag is lhs <= rhs + SLACK unless holds overrides it;
    a universal bound gets none."""
    if not BOUNDS[bound_id]:
        holds = None
    else:
        holds = bool(lhs <= rhs + SLACK if holds is None else holds)
    return BoundReport(bound_id, lhs, rhs, _implied(lhs, factor), holds, context)


@dataclass(frozen=True, eq=False)
class Instance:
    """One transport problem: the marginals and, when known, the ground-truth
    map.  Built once per run and shared by every epsilon.  It holds no cost
    matrix: each reader computes the cost rows it walks.  The values that
    depend on the instance alone are computed on first read and kept, once
    per run."""

    name: str
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    monge: Optional[MongeMapSpec] = None
    self_transport: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "self_transport", self.mu.same_as(self.nu))

    @functools.cached_property
    def profile(self) -> geometry.SpreadProfile:
        """The spread profile of mu."""
        return geometry.build_spread(self.mu)

    @functools.cached_property
    def exact(self) -> exact_ot.ExactOTSolution:
        """The unregularized optimal transport, CostSandwich's reference."""
        return exact_ot.solve_exact(self.mu, self.nu, self.monge)

    @functools.cached_property
    def diameter(self) -> Optional[float]:
        """Of the mu-atoms, from the spread profile, for mu = nu only (the
        self-transport checks read it): 0.0 for one atom, None for mu != nu."""
        return self.profile.diameter if self.self_transport else None

    @functools.cached_property
    def boundary_distance(self) -> np.ndarray:
        """Each mu-atom's distance to the boundary of the atoms' convex hull;
        zeros when the hull has no interior, so every atom is a boundary
        point."""
        try:
            return geometry.boundary_distance(self.mu)
        except geometry.GeometryError:
            return np.zeros(len(self.mu))


@dataclass
class SolvedInstance:
    """One solved (mu, nu, eps) pipeline state shared by the checkers: the
    instance and its per-epsilon state.  What several checkers read is
    computed on first read and kept, once per epsilon: among it the support
    extents, the spread and the barycenter deviation from one walk of the
    support, which the self-transport checks and the rate fit share."""

    instance: Instance
    cfg: qot_solver.SolverConfig
    pot: qot_solver.DualPotentials
    coupling: qot_solver.Coupling
    d_eps: float

    @property
    def epsilon(self) -> float:
        return self.cfg.epsilon

    def base_context(self) -> dict:
        return {"instance": self.instance.name, "epsilon": float(self.epsilon)}

    @functools.cached_property
    def surr(self) -> surrogate.ConvexSurrogate:
        """The convex surrogate built from the potentials: the rate checks
        never read it."""
        return surrogate.build_surrogate(self.pot, self.instance.nu, self.d_eps)

    @functools.cached_property
    def support_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The support pairs (ii, jj), the coupling's entries, as intp arrays
        in row-major order, for the checkers that gather by pair."""
        return self.coupling.rows(), self.coupling.j_idx.astype(np.intp)

    @functools.cached_property
    def psi_at_mu(self) -> np.ndarray:
        return surrogate.eval_psi(self.surr, self.instance.mu.atoms)[0]

    @functools.cached_property
    def stars(self) -> tuple[np.ndarray, np.ndarray]:
        """psi* at the nu-atoms and at the map's images of the mu-atoms (none
        without a map), from one batch, so a point that is both is solved once."""
        inst = self.instance
        images = [] if inst.monge is None else [inst.monge(inst.mu.atoms)]
        star = surrogate.eval_psi_star(self.surr, np.concatenate([inst.nu.atoms, *images]))
        return star[: len(inst.nu)], star[len(inst.nu):]

    @functools.cached_property
    def support_extents(self) -> tuple[float, float]:
        """(spread, deviation) from one walk of the support (see
        _support_extents): the self-transport checks read both, the rate fit
        the spread."""
        return _support_extents(self)


def prepare_instance(
    inst: Instance,
    cfg: qot_solver.SolverConfig,
    start: Optional[qot_solver.DualPotentials] = None,
) -> SolvedInstance:
    """Solve inst at cfg.epsilon.  start, when given, is the potentials the
    solve starts from: a cold start from qot_solver.cold_starts or another
    epsilon's potentials (see qot_solver.solve)."""
    pot = qot_solver.solve(inst.mu, inst.nu, cfg, start=start)
    coupling = qot_solver.assemble_coupling(pot, inst.mu, inst.nu, cfg)
    return SolvedInstance(
        instance=inst,
        cfg=cfg,
        pot=pot,
        coupling=coupling,
        d_eps=geometry.delta(inst.profile, cfg.epsilon),
    )


def _support_extents(inst: SolvedInstance) -> tuple[float, float]:
    """(spread, deviation): the largest |x_i - y_j| over the support pairs,
    and the largest distance from a support atom y_j to the nu-barycenter of
    its row's support atoms (GradEstimate's lhs); both 0 on an empty support.

    One pass over measures.row_blocks: each block's support is scattered as
    1s into a reused 0/1 float buffer of at most one block's entries, and
    one product with the (m, d + 1) matrix [w, w * y] gives each row's
    weight total and weighted coordinate sums.  Each nu coordinate, gathered
    at the block's entries once, adds its squared differences to both
    squared distances (the spread's bitwise measures.sq_distances); sqrt is
    monotone, so the roots of the largest squares are the largest distances.
    """
    cpl, X, nu = inst.coupling, inst.instance.mu.atoms, inst.instance.nu
    m = cpl.n_nu
    weighted = np.column_stack([nu.weights, nu.weights[:, None] * nu.atoms])
    blocks = list(measures.row_blocks(cpl.n_mu, m))
    mask = np.zeros((blocks[0].stop, m))
    worst = np.zeros(2)
    for rows in blocks:
        lo, hi = cpl.indptr[rows.start], cpl.indptr[rows.stop]
        if lo == hi:
            continue
        # the block's nonempty rows, renumbered from 0; entry (k, j) of the
        # row-major mask sits at k * m + j
        counts = np.diff(cpl.indptr[rows.start:rows.stop + 1])
        nonempty = counts > 0
        k = np.count_nonzero(nonempty)
        seg = np.repeat(np.arange(k), counts[nonempty])
        jj = cpl.j_idx[lo:hi].astype(np.intp)
        block = mask[:k]
        block.ravel()[seg * m + jj] = 1.0
        sums = block @ weighted
        block.fill(0.0)
        # each nonempty row's atom x_i and barycenter, coordinate by
        # coordinate, read at the row's entries by take (fancy indexing is
        # several times slower)
        ends = np.stack([X[rows][nonempty].T, (sums[:, 1:] / sums[:, :1]).T], axis=1)
        sq = None
        for c, coord in enumerate(nu.atoms.T):
            diff = ends[c].take(seg, axis=1)
            diff -= coord.take(jj)
            diff *= diff
            sq = diff if sq is None else np.add(sq, diff, out=sq)
        np.maximum(worst, sq.max(axis=1), out=worst)
    return math.sqrt(worst[0]), math.sqrt(worst[1])


def check_density_ub(inst: SolvedInstance) -> list[BoundReport]:
    """Max renormalized density f_i + g_j - c_ij against 5 * delta(eps)."""
    lhs = qot_solver.max_density(inst.coupling)
    return [_report("DensityUB", lhs, 5.0 * inst.d_eps, inst.d_eps, inst.base_context())]


def check_cost_sandwich(inst: SolvedInstance) -> list[BoundReport]:
    """Exact cost <= regularized cost <= dual sum <= exact cost + 5 delta."""
    mu, nu, exact = inst.instance.mu, inst.instance.nu, inst.instance.exact
    qot_cost = inst.coupling.cost_against(mu.atoms, nu.atoms)
    dual_sum = float(mu.weights @ inst.pot.f_values + nu.weights @ inst.pot.g_values)
    rhs = 5.0 * inst.d_eps
    holds = (
        exact.cost <= qot_cost + SLACK
        and qot_cost <= dual_sum + SLACK
        and dual_sum <= exact.cost + rhs + SLACK
    )
    ctx = inst.base_context()
    ctx.update(
        exact_cost=float(exact.cost), qot_cost=float(qot_cost), dual_sum=float(dual_sum)
    )
    return [_report("CostSandwich", dual_sum - exact.cost, rhs, inst.d_eps, ctx, holds)]


def check_approx_conj(inst: SolvedInstance) -> list[BoundReport]:
    """Both 6-delta conjugacy defects plus the 12-delta support inclusion."""
    mu, nu = inst.instance.mu, inst.instance.nu
    psi_mu = inst.psi_at_mu
    star_nu = inst.stars[0]
    half_mu = 0.5 * (mu.atoms**2).sum(-1)
    half_nu = 0.5 * (nu.atoms**2).sum(-1)
    reports = []
    for side, defect in (
        ("mu", half_mu - inst.pot.f_values - psi_mu),
        ("nu", half_nu - inst.pot.g_values - star_nu),
    ):
        ctx = inst.base_context()
        ctx["side"] = side
        lhs = float(np.abs(defect).max())
        reports.append(_report("ApproxConj", lhs, 6.0 * inst.d_eps, inst.d_eps, ctx))
    ii, jj = inst.support_pairs
    dots = (mu.atoms[ii] * nu.atoms[jj]).sum(-1)
    gaps = psi_mu[ii] + star_nu[jj] - dots
    lhs12 = float(gaps.max()) if len(gaps) else 0.0
    rhs12 = 12.0 * inst.d_eps
    ctx = inst.base_context()
    ctx["support_pairs"] = int(len(ii))
    # strict: the inclusion is into the open set {gap < 12 delta}
    reports.append(
        _report("SupportInclusion12", lhs12, rhs12, inst.d_eps, ctx, lhs12 < rhs12 + SLACK)
    )
    return reports


def check_restricted_conj(inst: SolvedInstance) -> list[BoundReport]:
    """Conjugate restricted to mu-atoms versus the full conjugate, 22 delta."""
    prime = surrogate.eval_psi_prime(inst.instance.mu, inst.psi_at_mu, inst.instance.nu.atoms)
    lhs = float(np.abs(inst.stars[0] - prime).max())
    return [_report("RestrictedConj", lhs, 22.0 * inst.d_eps, inst.d_eps, inst.base_context())]


def check_concentration(inst: SolvedInstance) -> list[BoundReport]:
    """Distance from each support pair to the gradient graph of the envelope,
    via the reflection resolvent at x + y; bound sqrt(24 delta).  One
    resolvent call takes every pair's x + y; in d >= 2 it solves once per
    distinct sum, not once per support pair."""
    ii, jj = inst.support_pairs
    X, Y = inst.instance.mu.atoms[ii], inst.instance.nu.atoms[jj]
    x_prime, grad = surrogate.minty_reflect(inst.surr, X + Y)
    dist = np.sqrt(((X - x_prime) ** 2).sum(axis=1) + ((Y - grad) ** 2).sum(axis=1))
    worst = float(dist.max()) if len(dist) else 0.0
    ctx = inst.base_context()
    ctx["support_pairs"] = int(len(ii))
    rhs = math.sqrt(24.0 * inst.d_eps)
    return [_report("Concentration", worst, rhs, math.sqrt(inst.d_eps), ctx)]


def check_self_transport(inst: SolvedInstance) -> list[BoundReport]:
    """Support spread versus the improved-spread rate, the 4M square bound,
    and the barycenter gradient estimate (mu = nu only); the spread and the
    barycenter deviation come from one walk of the support."""
    if not inst.instance.self_transport:
        raise VerifyError("self-transport checks require mu = nu")
    spread, worst_dev = inst.support_extents
    M = float(inst.pot.f_values.max())
    dst = geometry.delta_st(inst.instance.profile, inst.epsilon)
    diam = inst.instance.diameter
    scale = min(math.sqrt(dst), diam)

    ctx = inst.base_context()
    ctx.update(spread=spread, M=M, delta_st=float(dst), diam=float(diam))
    sym_lb = math.sqrt(2.0) * scale
    return [
        _report("SuppDiamM", spread**2, 4.0 * M, M, dict(ctx)),
        _report("SymUB", spread, scale, scale, dict(ctx)),
        _report("SymLB", spread, sym_lb, sym_lb, dict(ctx)),
        # a zero spread leaves every support atom its own barycenter: constant 0
        _report("GradEstimate", worst_dev, 2.0 * spread, spread or math.inf, dict(ctx)),
    ]


def check_bias(inst: SolvedInstance) -> list[BoundReport]:
    """Bias of the support against the ground-truth map: uniform discrepancy,
    integral gap, and the interior/boundary support bias bounds."""
    instance = inst.instance
    if instance.monge is None:
        raise VerifyError("bias checks require a ground-truth map")
    mu = instance.mu
    L = float(instance.monge.lipschitz_L)
    grad_phi = np.asarray(instance.monge(mu.atoms), dtype=float)

    dots = (mu.atoms * grad_phi).sum(-1)
    gaps = inst.psi_at_mu + inst.stars[1] - dots
    alpha = float(gaps.max())
    integral_gap = float(mu.weights @ gaps)

    inner_delta = geometry.delta(instance.profile, inst.d_eps / (L + 1.0))
    rhs_disc = (L + 1.0) * inner_delta
    r_general = (L + 1.0) ** 1.5 * math.sqrt(inner_delta)
    rhs_bdry = (L + 1.0) ** 1.5 * max(inner_delta**0.25, math.sqrt(inner_delta))

    interior = instance.boundary_distance > r_general

    ii, jj = inst.support_pairs
    devs = np.sqrt(((instance.nu.atoms[jj] - grad_phi[ii]) ** 2).sum(-1))
    all_bias = float(devs.max()) if len(devs) else 0.0
    interior_mask = interior[ii]
    vacuous = not bool(interior_mask.any())
    interior_bias = 0.0 if vacuous else float(devs[interior_mask].max())

    base = inst.base_context()
    base.update(alpha=alpha, lipschitz_L=L, r_general=float(r_general))
    ctx_gen = dict(base)
    ctx_gen.update(interior_pairs=int(interior_mask.sum()), vacuous=vacuous)
    return [
        _report("DiscrepancyUB", alpha, rhs_disc, rhs_disc, dict(base)),
        _report("IntegralGap", integral_gap, 12.0 * inst.d_eps, inst.d_eps, dict(base)),
        _report("GeneralBias", interior_bias, r_general, r_general, ctx_gen),
        _report("BoundaryBias", all_bias, rhs_bdry, rhs_bdry, dict(base)),
    ]


# producers grouped by the bound ids they emit; guards say when they apply
_PRODUCERS: list[tuple[frozenset, Callable, str]] = [
    (frozenset({"DensityUB"}), check_density_ub, "always"),
    (frozenset({"CostSandwich"}), check_cost_sandwich, "always"),
    (frozenset({"ApproxConj", "SupportInclusion12"}), check_approx_conj, "always"),
    (frozenset({"RestrictedConj"}), check_restricted_conj, "always"),
    (frozenset({"Concentration"}), check_concentration, "always"),
    (
        frozenset({"SymUB", "SymLB", "SuppDiamM", "GradEstimate"}),
        check_self_transport,
        "self_transport",
    ),
    (
        frozenset({"GeneralBias", "BoundaryBias", "IntegralGap", "DiscrepancyUB"}),
        check_bias,
        "monge",
    ),
]


def run_checks(inst: SolvedInstance, requested) -> list[BoundReport]:
    """Run every producer covering a requested bound id that applies to this
    instance; inapplicable ids (self-transport or map-dependent ones) are
    skipped silently."""
    requested = set(requested)
    unknown = requested - set(BOUND_IDS)
    if unknown:
        raise VerifyError(f"unknown bound ids: {sorted(unknown)}")
    out: list[BoundReport] = []
    for ids, fn, guard in _PRODUCERS:
        if not (ids & requested):
            continue
        if guard == "self_transport" and not inst.instance.self_transport:
            continue
        if guard == "monge" and inst.instance.monge is None:
            continue
        out.extend(r for r in fn(inst) if r.bound_id in requested)
    return out


def fit_rate(eps_grid, observable) -> RateFit:
    """Least-squares slope of log(observable) against log(eps)."""
    eps = np.asarray(eps_grid, dtype=float)
    obs = np.asarray(observable, dtype=float)
    if len(eps) < 4:
        raise VerifyError("rate fits need at least four epsilon values")
    if len(eps) != len(obs):
        raise VerifyError("eps grid and observable must have equal length")
    if np.any(np.diff(eps) >= 0):
        raise VerifyError("eps grid must be strictly decreasing")
    if np.any(obs <= 0):
        raise VerifyError("observable must be strictly positive for a log-log fit")
    lx = np.log(eps)
    ly = np.log(obs)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        eps_grid=[float(e) for e in eps],
        observable=[float(o) for o in obs],
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r2),
    )


def check_rate_floor(spacing: float, d: int, eps_min: float) -> None:
    """Rate sweeps need the support width resolvable: spacing at most
    eps_min^(1/(d+2)) / 5, else the discrete width saturates and corrupts
    the fit."""
    floor = eps_min ** (1.0 / (d + 2)) / 5.0
    if spacing > floor:
        raise VerifyError(
            f"grid spacing {spacing} exceeds the resolvable floor {floor!r} "
            f"for eps_min={eps_min} in d={d}"
        )


def max_min_ratio(values) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 1.0
    return max(vals) / min(vals)


def nonincreasing_within(values, slack: float) -> bool:
    """True when each entry is at most (1 + slack) times its predecessor."""
    vals = list(values)
    return all(b <= a * (1.0 + slack) for a, b in zip(vals, vals[1:]))
