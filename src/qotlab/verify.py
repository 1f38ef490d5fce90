"""One checker per quantitative bound, producing BoundReports, plus rate fits.

Bounds with explicit constants (5, 6, 12, 22, the 4M support square, the
factor 2 in the barycenter estimate, sqrt(24) in concentration) get a
pass/fail flag at additive slack 1e-8.  Bounds whose constants are
universal-but-unspecified report the implied constant (measured left-hand
side divided by the structural right-hand-side factor) and leave the flag
unset; boundedness and trends across an epsilon sweep are judged by the
sweep-level helpers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import exact_ot, geometry, qot_solver, surrogate
from .measures import DiscreteMeasure, MongeMapSpec

SLACK = 1e-8

BOUND_IDS = (
    "DensityUB",
    "CostSandwich",
    "ApproxConj",
    "RestrictedConj",
    "SupportInclusion12",
    "Concentration",
    "SymUB",
    "SymLB",
    "GradEstimate",
    "SuppDiamM",
    "GeneralBias",
    "BoundaryBias",
    "IntegralGap",
    "DiscrepancyUB",
)

EXPLICIT_BOUND_IDS = frozenset(
    {
        "DensityUB",
        "CostSandwich",
        "ApproxConj",
        "RestrictedConj",
        "SupportInclusion12",
        "Concentration",
        "GradEstimate",
        "SuppDiamM",
        "IntegralGap",
    }
)


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


@dataclass(frozen=True, eq=False)
class Instance:
    """One transport problem: the marginals and, when known, the ground-truth
    map.  Built once per run and shared by every epsilon, together with the
    read-only cost matrix c(x_i, y_j) that the solver, the coupling assembly
    and the exact-OT fallback read; for mu = nu the diameter, the minimum
    atom distance and the spread profile read it too."""

    name: str
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    monge: Optional[MongeMapSpec] = None
    self_transport: bool = field(init=False)
    cost: np.ndarray = field(init=False, repr=False)   # cost_matrix(mu.atoms, nu.atoms)
    diameter: float = field(init=False)   # of the mu-atoms; 0.0 below two atoms

    def __post_init__(self):
        cost = qot_solver.cost_matrix(self.mu.atoms, self.nu.atoms)
        cost.setflags(write=False)
        object.__setattr__(self, "self_transport", self.mu.same_as(self.nu))
        object.__setattr__(self, "cost", cost)
        diam = geometry.diameter(self.mu, self.self_cost) if len(self.mu) > 1 else 0.0
        object.__setattr__(self, "diameter", diam)

    @property
    def self_cost(self) -> Optional[np.ndarray]:
        """The cost matrix of the mu-atoms against themselves when it is
        the instance's own (mu = nu), else None."""
        return self.cost if self.self_transport else None


@dataclass
class SolvedInstance:
    """One solved (mu, nu, eps) pipeline state shared by the checkers."""

    name: str
    mu: DiscreteMeasure
    nu: DiscreteMeasure
    cfg: qot_solver.SolverConfig
    pot: qot_solver.DualPotentials
    coupling: qot_solver.Coupling
    profile: geometry.SpreadProfile
    d_eps: float
    self_transport: bool
    diameter: float
    cost: np.ndarray = field(repr=False)   # the instance's cost_matrix(mu.atoms, nu.atoms)
    monge: Optional[MongeMapSpec] = None
    exact: Optional[exact_ot.ExactOTSolution] = None
    _surr: Optional[surrogate.ConvexSurrogate] = field(default=None, repr=False)
    _pairs: Optional[tuple] = field(default=None, repr=False)
    _psi_mu: Optional[np.ndarray] = field(default=None, repr=False)
    _stars: Optional[tuple] = field(default=None, repr=False)
    _spread: Optional[float] = field(default=None, repr=False)

    @property
    def epsilon(self) -> float:
        return self.cfg.epsilon

    def base_context(self) -> dict:
        return {"instance": self.name, "epsilon": float(self.epsilon)}

    @property
    def surr(self) -> surrogate.ConvexSurrogate:
        """The convex surrogate built from the potentials, on first read: the
        rate checks never read it."""
        if self._surr is None:
            self._surr = surrogate.build_surrogate(self.pot, self.nu, self.d_eps)
        return self._surr

    def support_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The support pairs (ii, jj) as intp arrays in row-major order,
        derived once per epsilon for the checkers that gather by pair."""
        if self._pairs is None:
            cpl = self.coupling
            ii, jj = cpl.rows(), cpl.j_idx.astype(np.intp)
            if not cpl.in_support.all():
                ii, jj = ii[cpl.in_support], jj[cpl.in_support]
            self._pairs = ii, jj
        return self._pairs

    def psi_at_mu(self) -> np.ndarray:
        if self._psi_mu is None:
            self._psi_mu = surrogate.eval_psi(self.surr, self.mu.atoms)[0]
        return self._psi_mu

    def stars(self) -> tuple[np.ndarray, np.ndarray]:
        """psi* at the nu-atoms and at the map's images of the mu-atoms (none
        without a map), from one batch, so a point that is both is solved once."""
        if self._stars is None:
            images = [] if self.monge is None else [self.monge(self.mu.atoms)]
            star = surrogate.eval_psi_star(self.surr, np.concatenate([self.nu.atoms, *images]))
            self._stars = star[: len(self.nu)], star[len(self.nu):]
        return self._stars

    def support_spread(self) -> float:
        """Largest |x_i - y_j| over the support pairs, 0 on an empty support;
        computed once, since the self-transport checks and the rate fit both
        read it."""
        if self._spread is None:
            self._spread = _support_spread(self)
        return self._spread

    def ensure_exact(self) -> exact_ot.ExactOTSolution:
        if self.exact is None:
            self.exact = exact_ot.solve_exact(self.mu, self.nu, self.monge, cost=self.cost)
        return self.exact


def prepare_instance(
    inst: Instance,
    cfg: qot_solver.SolverConfig,
    profile: geometry.SpreadProfile,
    exact: Optional[exact_ot.ExactOTSolution] = None,
    start: Optional[qot_solver.DualPotentials] = None,
) -> SolvedInstance:
    """Solve inst at cfg.epsilon; profile is the spread profile of inst.mu.
    For mu = nu it also bounds the start's hinge roots.  start, for mu != nu
    only, warm-starts the solve from another epsilon's potentials (see
    qot_solver.solve)."""
    bound = geometry.hinge_root_bound(profile, cfg.epsilon) if inst.self_transport else None
    pot = qot_solver.solve(inst.mu, inst.nu, cfg, cost=inst.cost, root_bound=bound, start=start)
    coupling = qot_solver.assemble_coupling(pot, inst.mu, inst.nu, cfg, cost=inst.cost)
    return SolvedInstance(
        name=inst.name,
        mu=inst.mu,
        nu=inst.nu,
        cfg=cfg,
        pot=pot,
        coupling=coupling,
        profile=profile,
        d_eps=geometry.delta(profile, cfg.epsilon),
        self_transport=inst.self_transport,
        diameter=inst.diameter,
        monge=inst.monge,
        exact=exact,
        cost=inst.cost,
    )


# coupling entries per block when a checker streams over the support
_BLOCK_PAIRS = 2**15


def _support_blocks(coupling: qot_solver.Coupling):
    """The support in row-major order, in blocks (lo, counts, jj) that each
    hold whole rows lo, lo + 1, ... of at most _BLOCK_PAIRS coupling entries
    (a longer row is a block of its own): counts[k] support pairs in row
    lo + k, and their columns jj as intp.  No support-sized array is built."""
    indptr = coupling.indptr
    row = 0
    while row < coupling.n_mu:
        end = int(np.searchsorted(indptr, indptr[row] + _BLOCK_PAIRS, side="right")) - 1
        end = max(end, row + 1)
        lo, hi = indptr[row], indptr[end]
        jj = coupling.j_idx[lo:hi].astype(np.intp)
        keep = coupling.in_support[lo:hi]
        if keep.all():
            counts = np.diff(indptr[row:end + 1])
        else:
            # support pairs per row: differences of the running count of kept
            # entries at the row pointers
            kept = np.concatenate([[0], np.cumsum(keep)])
            counts = np.diff(kept[indptr[row:end + 1] - lo])
            jj = jj[keep]
        yield row, counts, jj
        row = end


def _support_spread(inst: SolvedInstance) -> float:
    # the cost c_ij = |x_i - y_j|^2 / 2 read at the support pairs: twice it is
    # bitwise the squared distance (x 0.5 is exact), and sqrt is monotone, so
    # the root of twice the largest cost is the largest distance
    flat_cost = inst.cost.ravel()
    m = inst.cost.shape[1]
    worst = 0.0
    for lo, counts, jj in _support_blocks(inst.coupling):
        if len(jj):
            # entry (i, j) of the row-major cost sits at i * m + j
            flat = np.repeat(np.arange(lo, lo + len(counts)) * m, counts)
            flat += jj
            worst = max(worst, float(flat_cost.take(flat).max()))
    return math.sqrt(2.0 * worst)


def _grad_estimate_lhs(inst: SolvedInstance) -> float:
    """Largest distance from a support atom y_j to the nu-barycenter of its
    row's support atoms, 0 on an empty support.

    Bit for bit the per-row computation (w[:, None] * y).sum(axis=0) /
    w.sum() over each row's support columns, then the distances summed over
    the coordinate axis.  numpy adds a 1-D vector, and a (k, 1) column,
    pairwise, so the weight totals and the d = 1 barycenter sums are taken
    one row at a time; a (k, d >= 2) block it adds row by row in order, as
    bincount does.
    """
    nu = inst.nu
    worst = 0.0
    for _, counts, jj in _support_blocks(inst.coupling):
        if not len(jj):
            continue
        counts = counts[counts > 0]
        ends = np.cumsum(counts)
        rows = list(zip((ends - counts).tolist(), ends.tolist()))
        seg = np.repeat(np.arange(len(counts)), counts)
        w = nu.weights[jj]
        total = np.array([w[a:b].sum() for a, b in rows])
        sq = np.zeros(len(jj))
        for coord in nu.atoms.T:
            y = coord[jj]
            weighted = w * y
            if nu.dim == 1:
                num = np.array([weighted[a:b].sum() for a, b in rows])
            else:
                num = np.bincount(seg, weights=weighted, minlength=len(rows))
            diff = (num / total)[seg] - y
            diff *= diff
            sq += diff
        worst = max(worst, float(sq.max()))
    return math.sqrt(worst)


def check_density_ub(inst: SolvedInstance) -> BoundReport:
    """Max renormalized density f_i + g_j - c_ij against 5 * delta(eps)."""
    lhs = qot_solver.max_density(inst.coupling)
    rhs = 5.0 * inst.d_eps
    return BoundReport(
        bound_id="DensityUB",
        lhs=lhs,
        rhs=rhs,
        implied_constant=_implied(lhs, inst.d_eps),
        holds=bool(lhs <= rhs + SLACK),
        context=inst.base_context(),
    )


def check_cost_sandwich(inst: SolvedInstance) -> BoundReport:
    """Exact cost <= regularized cost <= dual sum <= exact cost + 5 delta."""
    exact = inst.ensure_exact()
    qot_cost = inst.coupling.cost_against(inst.mu.atoms, inst.nu.atoms)
    dual_sum = float(inst.mu.weights @ inst.pot.f_values + inst.nu.weights @ inst.pot.g_values)
    gap = dual_sum - exact.cost
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
    return BoundReport(
        bound_id="CostSandwich",
        lhs=gap,
        rhs=rhs,
        implied_constant=_implied(gap, inst.d_eps),
        holds=bool(holds),
        context=ctx,
    )


def check_approx_conj(inst: SolvedInstance) -> list[BoundReport]:
    """Both 6-delta conjugacy defects plus the 12-delta support inclusion."""
    psi_mu = inst.psi_at_mu()
    star_nu = inst.stars()[0]
    half_mu = 0.5 * (inst.mu.atoms**2).sum(-1)
    half_nu = 0.5 * (inst.nu.atoms**2).sum(-1)
    lhs_mu = float(np.abs(half_mu - inst.pot.f_values - psi_mu).max())
    lhs_nu = float(np.abs(half_nu - inst.pot.g_values - star_nu).max())
    rhs6 = 6.0 * inst.d_eps
    reports = []
    for side, lhs in (("mu", lhs_mu), ("nu", lhs_nu)):
        ctx = inst.base_context()
        ctx["side"] = side
        reports.append(
            BoundReport(
                bound_id="ApproxConj",
                lhs=lhs,
                rhs=rhs6,
                implied_constant=_implied(lhs, inst.d_eps),
                holds=bool(lhs <= rhs6 + SLACK),
                context=ctx,
            )
        )
    ii, jj = inst.support_pairs()
    dots = (inst.mu.atoms[ii] * inst.nu.atoms[jj]).sum(-1)
    gaps = psi_mu[ii] + star_nu[jj] - dots
    lhs12 = float(gaps.max()) if len(gaps) else 0.0
    rhs12 = 12.0 * inst.d_eps
    ctx = inst.base_context()
    ctx["support_pairs"] = int(len(ii))
    reports.append(
        BoundReport(
            bound_id="SupportInclusion12",
            lhs=lhs12,
            rhs=rhs12,
            implied_constant=_implied(lhs12, inst.d_eps),
            holds=bool(lhs12 < rhs12 + SLACK),
            context=ctx,
        )
    )
    return reports


def check_restricted_conj(inst: SolvedInstance) -> BoundReport:
    """Conjugate restricted to mu-atoms versus the full conjugate, 22 delta."""
    prime = surrogate.eval_psi_prime(inst.mu, inst.psi_at_mu(), inst.nu.atoms)
    lhs = float(np.abs(inst.stars()[0] - prime).max())
    rhs = 22.0 * inst.d_eps
    return BoundReport(
        bound_id="RestrictedConj",
        lhs=lhs,
        rhs=rhs,
        implied_constant=_implied(lhs, inst.d_eps),
        holds=bool(lhs <= rhs + SLACK),
        context=inst.base_context(),
    )


def check_concentration(inst: SolvedInstance) -> BoundReport:
    """Distance from each support pair to the gradient graph of the envelope,
    via the reflection resolvent at x + y; bound sqrt(24 delta).  One
    resolvent call takes every pair's x + y; in d >= 2 it solves once per
    distinct sum, not once per support pair."""
    ii, jj = inst.support_pairs()
    X, Y = inst.mu.atoms[ii], inst.nu.atoms[jj]
    x_prime, grad = surrogate.minty_reflect(inst.surr, X + Y)
    dist = np.sqrt(((X - x_prime) ** 2).sum(axis=1) + ((Y - grad) ** 2).sum(axis=1))
    worst = float(dist.max()) if len(dist) else 0.0
    rhs = math.sqrt(24.0 * inst.d_eps)
    ctx = inst.base_context()
    ctx["support_pairs"] = int(len(ii))
    return BoundReport(
        bound_id="Concentration",
        lhs=worst,
        rhs=rhs,
        implied_constant=_implied(worst, math.sqrt(inst.d_eps)),
        holds=bool(worst <= rhs + SLACK),
        context=ctx,
    )


def check_self_transport(inst: SolvedInstance) -> list[BoundReport]:
    """Support spread versus the improved-spread rate, the 4M square bound,
    and the barycenter gradient estimate (mu = nu only)."""
    if not inst.self_transport:
        raise VerifyError("self-transport checks require mu = nu")
    spread = inst.support_spread()
    M = float(inst.pot.f_values.max())
    dst = geometry.delta_st(inst.profile, inst.epsilon)
    scale = min(math.sqrt(dst), inst.diameter)

    ctx = inst.base_context()
    ctx.update(spread=spread, M=M, delta_st=float(dst), diam=float(inst.diameter))

    max_sq = spread**2
    reports = [
        BoundReport(
            bound_id="SuppDiamM",
            lhs=max_sq,
            rhs=4.0 * M,
            implied_constant=_implied(max_sq, M),
            holds=bool(max_sq <= 4.0 * M + SLACK),
            context=dict(ctx),
        ),
        BoundReport(
            bound_id="SymUB",
            lhs=spread,
            rhs=scale,
            implied_constant=_implied(spread, scale),
            holds=None,
            context=dict(ctx),
        ),
        BoundReport(
            bound_id="SymLB",
            lhs=spread,
            rhs=math.sqrt(2.0) * scale,
            implied_constant=_implied(spread, math.sqrt(2.0) * scale),
            holds=None,
            context=dict(ctx),
        ),
    ]
    worst_dev = _grad_estimate_lhs(inst)
    reports.append(
        BoundReport(
            bound_id="GradEstimate",
            lhs=worst_dev,
            rhs=2.0 * spread,
            implied_constant=_implied(worst_dev, spread) if spread > 0 else 0.0,
            holds=bool(worst_dev <= 2.0 * spread + SLACK),
            context=dict(ctx),
        )
    )
    return reports


def check_bias(inst: SolvedInstance) -> list[BoundReport]:
    """Bias of the support against the ground-truth map: uniform discrepancy,
    integral gap, and the interior/boundary support bias bounds."""
    if inst.monge is None:
        raise VerifyError("bias checks require a ground-truth map")
    L = float(inst.monge.lipschitz_L)
    grad_phi = np.asarray(inst.monge(inst.mu.atoms), dtype=float)

    psi_mu = inst.psi_at_mu()
    star_imgs = inst.stars()[1]
    dots = (inst.mu.atoms * grad_phi).sum(-1)
    gaps = psi_mu + star_imgs - dots
    alpha = float(gaps.max())
    integral_gap = float(inst.mu.weights @ gaps)

    inner_delta = geometry.delta(inst.profile, inst.d_eps / (L + 1.0))
    rhs_disc = (L + 1.0) * inner_delta
    r_general = (L + 1.0) ** 1.5 * math.sqrt(inner_delta)
    rhs_bdry = (L + 1.0) ** 1.5 * max(inner_delta**0.25, math.sqrt(inner_delta))

    try:
        faces = geometry.hull_faces(inst.mu)
        interior = geometry.boundary_distance(inst.mu.atoms, inst.mu, faces) > r_general
    except geometry.GeometryError:
        # degenerate hull has empty interior: every atom is a boundary point
        interior = np.zeros(len(inst.mu), dtype=bool)

    ii, jj = inst.support_pairs()
    devs = np.sqrt(((inst.nu.atoms[jj] - grad_phi[ii]) ** 2).sum(-1))
    all_bias = float(devs.max()) if len(devs) else 0.0
    interior_mask = interior[ii]
    vacuous = not bool(interior_mask.any())
    interior_bias = 0.0 if vacuous else float(devs[interior_mask].max())

    base = inst.base_context()
    base.update(alpha=alpha, lipschitz_L=L, r_general=float(r_general))

    ctx_gen = dict(base)
    ctx_gen.update(interior_pairs=int(interior_mask.sum()), vacuous=vacuous)
    return [
        BoundReport(
            bound_id="DiscrepancyUB",
            lhs=alpha,
            rhs=rhs_disc,
            implied_constant=_implied(alpha, rhs_disc),
            holds=None,
            context=dict(base),
        ),
        BoundReport(
            bound_id="IntegralGap",
            lhs=integral_gap,
            rhs=12.0 * inst.d_eps,
            implied_constant=_implied(integral_gap, inst.d_eps),
            holds=bool(integral_gap <= 12.0 * inst.d_eps + SLACK),
            context=dict(base),
        ),
        BoundReport(
            bound_id="GeneralBias",
            lhs=interior_bias,
            rhs=r_general,
            implied_constant=_implied(interior_bias, r_general),
            holds=None,
            context=ctx_gen,
        ),
        BoundReport(
            bound_id="BoundaryBias",
            lhs=all_bias,
            rhs=rhs_bdry,
            implied_constant=_implied(all_bias, rhs_bdry),
            holds=None,
            context=dict(base),
        ),
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
        if guard == "self_transport" and not inst.self_transport:
            continue
        if guard == "monge" and inst.monge is None:
            continue
        result = fn(inst)
        reports = result if isinstance(result, list) else [result]
        out.extend(r for r in reports if r.bound_id in requested)
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
