"""Radius-of-convergence classification for the walk generating functions.

The classification runs on the strongly connected (or single node)
components: each component's undirectization is a tree, has exactly one
cycle, or has at least two, and the trichotomy decides whether the series
converges everywhere, up to 1, or up to the smallest deformed-Laplacian
root inside the unit interval.  Weighted graphs get the exact reciprocal
of the certified Hashimoto radius instead.  The nbtw and btdw Perron
brackets are taken on the sparse edge transfer rows
(`EdgeSpace.transfer_rows`); the weighted one still on the dense product
`v_similar`, equal to `EdgeSpace.transfer()` (ROADMAP item 1).
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .edgespace import v_similar
from .errors import TauOutOfRangeError
from .graphs import Graph, scc_decompose
from .laplacians import _deformed_laplacian
from .polys import polymat_det, real_roots
from .spectral import PerronResult, perron_radius

_ONE = Fraction(1)


@dataclass(frozen=True)
class Bound:
    """Exact rational, certified interval, or positive infinity."""

    kind: str  # "exact" | "interval" | "infinite"
    value: Fraction | None = None
    lo: Fraction | None = None
    hi: Fraction | None = None

    @staticmethod
    def exact(v) -> "Bound":
        v = Fraction(v)
        return Bound("exact", value=v, lo=v, hi=v)

    @staticmethod
    def interval(lo, hi) -> "Bound":
        lo, hi = Fraction(lo), Fraction(hi)
        if lo == hi:
            return Bound.exact(lo)
        return Bound("interval", lo=lo, hi=hi)

    @staticmethod
    def infinite() -> "Bound":
        return Bound("infinite")

    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    def certifies_below(self, t) -> bool:
        """True when t is provably strictly below this value.

        Intervals are treated conservatively: the value could sit at either
        endpoint, so only t < lo certifies.
        """
        t = Fraction(t)
        if self.kind == "infinite":
            return True
        if self.kind == "exact":
            return t < self.value
        return t < self.lo

    def overlaps(self, other: "Bound") -> bool:
        if self.kind == "infinite" or other.kind == "infinite":
            return self.kind == other.kind
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    def width(self) -> Fraction:
        if self.kind == "infinite":
            raise ValueError("infinite bound has no width")
        return self.hi - self.lo

    def decimal(self, digits: int = 12) -> str:
        """Midpoint rendered with the given number of significant digits."""
        if self.kind == "infinite":
            return "inf"
        mid = self.value if self.kind == "exact" else (self.lo + self.hi) / 2
        if mid == 0:
            return "0"
        ctx = decimal.Context(prec=digits)
        d = ctx.divide(decimal.Decimal(mid.numerator), decimal.Decimal(mid.denominator))
        return str(d.normalize(ctx))


def _root_bound(record) -> Bound:
    if record.is_exact:
        return Bound.exact(record.value)
    return Bound.interval(record.lo, record.hi)


def _inverse_bound(pr: PerronResult) -> Bound:
    """1 / rho as a Bound; infinite when rho = 0."""
    if pr.nilpotent or pr.upper == 0:
        return Bound.infinite()
    return Bound.interval(1 / pr.upper, 1 / pr.lower)


CASE_ALL_TREES = "AllTrees"
CASE_ONE_CYCLE = "SomeOneCycleNoneMore"
CASE_MULTI = "SomeMultiCycle"
CASE_UNKNOWN = "NotCharacterized"


@dataclass(frozen=True)
class RadiusReport:
    mode: str  # "nbtw" | "btdw" | "weighted"
    case_label: str
    r: Bound | None
    mu: Bound | None
    rho: PerronResult | None
    sigma_squared: Fraction | None = None
    tau: Fraction | None = None
    bounds: tuple[Bound, Bound] | None = None
    provenance: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def certifies_below(self, t) -> bool:
        if self.r is not None:
            return self.r.certifies_below(t)
        if self.bounds is not None:
            return self.bounds[0].certifies_below(t)
        return False


def _classify(g: Graph) -> str:
    classes = scc_decompose(g).cycle_classes()
    if any(c == "multi_cycle" for c in classes):
        return CASE_MULTI
    if any(c == "one_cycle" for c in classes):
        return CASE_ONE_CYCLE
    return CASE_ALL_TREES


def _multi_cycle_root(g: Graph, tau: Fraction, pr: PerronResult,
                      disagreement: str) -> Bound:
    """Smallest determinant root of M_tau in (0, 1/tau), which must overlap
    the inverse of the certified edge transfer radius pr."""
    det = polymat_det(_deformed_laplacian(g, tau))
    roots = real_roots(det, 0, 1 / tau, include_hi=False)
    if not roots:
        raise RuntimeError(
            "classification promised a root inside the interval but none was found"
        )
    mu = _root_bound(roots[0])
    if not mu.overlaps(_inverse_bound(pr)):
        raise RuntimeError(disagreement)
    return mu


def radius_unweighted(g: Graph) -> RadiusReport:
    """Radius of convergence of the non-backtracking walk series.

    All component undirectizations trees: the series is a polynomial in
    disguise (radius infinite).  At most one cycle each, at least one cycle
    somewhere: radius exactly 1.  Any component with two or more cycles:
    radius equals the smallest deformed-Laplacian determinant root in (0, 1),
    cross-checked against the reciprocal Hashimoto radius.
    """
    g.require_unweighted("radius_unweighted")
    case = _classify(g)
    pr = perron_radius(g.edge_space.transfer_rows())
    provenance = {
        "case": "cycle classification of component undirectizations",
        "rho": "certified power iteration on the non-backtracking edge matrix",
    }
    if case == CASE_ALL_TREES:
        r = Bound.infinite()
        mu = Bound.exact(1)
        provenance["r"] = "tree components only; walk series terminates"
    elif case == CASE_ONE_CYCLE:
        r = Bound.exact(1)
        mu = Bound.exact(1)
        provenance["r"] = "single-cycle components; unimodular spectrum"
    else:
        mu = _multi_cycle_root(
            g, _ONE, pr, "deformed-Laplacian root and inverse Hashimoto radius disagree"
        )
        r = mu
        provenance["r"] = "smallest determinant root of the deformed Laplacian in (0, 1)"
        provenance["mu"] = "squarefree Sturm isolation, width <= 1e-12"
        provenance["cross_check"] = (
            "root bracket overlaps the inverse of the certified Hashimoto radius"
        )
    return RadiusReport(
        mode="nbtw", case_label=case, r=r, mu=mu, rho=pr, provenance=provenance
    )


def radius_weighted(g: Graph) -> RadiusReport:
    """Radius of the weighted non-backtracking series: the reciprocal of the
    certified spectral radius of the weighted Hashimoto matrix, infinite in
    the nilpotent (all-tree) case.

    sigma_squared reports the smallest positive product w(e)w(f) over
    consecutive non-backtracking edge pairs; its square root bounds the
    radius from above per the one-cycle / multi-cycle cases.
    """
    es = g.edge_space
    case = _classify(g)
    # the dense V = B Z until bench/test_bench.py's traced-pass test stops
    # requiring a Matrix product in the first radius_walks jobs; the
    # transfer rows at tau = 1 give the same PerronResult
    pr = perron_radius(v_similar(es))
    if pr.nilpotent != (case == CASE_ALL_TREES):
        raise RuntimeError("nilpotency disagrees with the cycle classification")

    w = es.weights
    sigma_sq = min(
        (w[e] * w[f] for e, row in enumerate(es.successors) for f in row), default=None
    )

    provenance = {
        "case": "cycle classification of component undirectizations",
        "r": "reciprocal of the certified weighted Hashimoto radius",
        "sigma": "minimum geometric mean over consecutive edge pairs, reported squared",
    }
    notes: tuple[str, ...] = ()
    r = _inverse_bound(pr)
    if sigma_sq is not None and not pr.nilpotent:
        lo2, hi2 = pr.lower * pr.lower, pr.upper * pr.upper
        if case == CASE_ONE_CYCLE:
            if sigma_sq > hi2:
                raise RuntimeError("sigma bound violated in the one-cycle case")
            notes += ("sigma bound r <= 1/sigma holds",)
        elif case == CASE_MULTI:
            if sigma_sq > hi2:
                raise RuntimeError("strict sigma bound violated in the multi-cycle case")
            notes += (
                "strict sigma bound r < 1/sigma "
                + ("certified" if sigma_sq < lo2 else "consistent within bracket"),
            )
    if not g.is_unweighted():
        notes += (
            "undirected-part weights follow the forward-weight convention",
        )
    return RadiusReport(
        mode="weighted",
        case_label=case,
        r=r,
        mu=None,
        rho=pr,
        sigma_squared=sigma_sq,
        provenance=provenance,
        notes=notes,
    )


def radius_btdw(g: Graph, tau) -> RadiusReport:
    """Radius of the backtrack-downweighted series for rational tau in (0, 1].

    Only the multi-cycle case has a proven characterization: the radius is
    the smallest positive determinant root of the downweighted Laplacian in
    (0, 1/tau).  Everything else is reported as NotCharacterized with the
    best available bracket.
    """
    g.require_unweighted("radius_btdw")
    tau = Fraction(tau)
    if not 0 < tau <= 1:
        raise TauOutOfRangeError(f"tau={tau} outside (0, 1]")
    case = _classify(g)
    pr = perron_radius(g.edge_space.transfer_rows(tau))
    provenance = {
        "case": "cycle classification of component undirectizations",
        "rho": "certified power iteration on the downweighted edge transfer matrix",
    }
    report = partial(RadiusReport, mode="btdw", rho=pr, tau=tau, provenance=provenance)
    if case == CASE_MULTI:
        mu = _multi_cycle_root(
            g, tau, pr, "downweighted Laplacian root and inverse transfer radius disagree"
        )
        provenance["r"] = (
            "smallest determinant root of the downweighted Laplacian in (0, 1/tau)"
        )
        provenance["cross_check"] = (
            "root bracket overlaps the inverse of the certified transfer radius"
        )
        return report(case_label=CASE_MULTI, r=mu, mu=mu)
    # tree or single-cycle components: no complete characterization is known
    if pr.nilpotent:
        provenance["r"] = "edge transfer matrix is nilpotent; the series terminates"
        return report(case_label=CASE_UNKNOWN, r=Bound.infinite(), mu=None,
                      notes=("series is a polynomial; radius infinite",))
    inv_rho = _inverse_bound(pr)
    one_over_tau = Bound.exact(1 / tau)
    lower, upper = inv_rho, one_over_tau
    if not lower.is_infinite() and lower.lo > upper.hi:
        lower, upper = upper, lower
    provenance["r"] = (
        "no complete characterization for this case; reporting the bracket "
        "between the inverse transfer radius and 1/tau"
    )
    return report(
        case_label=CASE_UNKNOWN, r=None, mu=None, bounds=(lower, upper),
        notes=("only the smaller endpoint is a certified lower bound on the radius",),
    )
