"""The knitting engine: homotopy nets, ladder comparisons, and holonomy.

Given a Lipschitz homotopy H between two paths with common endpoints, the
(k+1)x(k+1) net samples H on the regular grid.  Ladder maps interpolate
between the row compositions one crossing at a time; under a strong
four-point estimate of total degree 2+eps the top and bottom rows differ by
at most exp(delta*ell*L) * (2 + delta*ell*L) * (sum C_i) * ell**(2+eps) *
delta**eps with delta = 1/k, which vanishes as the net refines.  Holonomy
along a path is the sewn pullback flow, with an accumulated-angle summary
for rotation-fiber models (not reduced mod 2*pi, so winding is observable).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DeclaredLipschitzViolated, EndpointMismatch
from .flows import MODE_KNITTING, ApproxFlowModel, HoelderData
from .metric import Point, ProbedMap, compose_chain, euclidean, map_distance_value, p_lerp
from .paths import LipPath, pullback_flow
from .sewing import SewCertificate, _column_coefs, _romberg_row, sew, zeta
from .subdivision import regular


@dataclass(frozen=True)
class HomotopyNet:
    """Grid samples x_j^i = H(i/k, j/k); rows share the endpoints x and y."""

    k: int
    grid: tuple[tuple[Point, ...], ...]
    ell: float
    mesh: float

    @property
    def start(self) -> Point:
        return self.grid[0][0]

    @property
    def end(self) -> Point:
        return self.grid[0][self.k]


def build_net(H: Callable[[float, float], Point], k: int, ell: float) -> HomotopyNet:
    """Sample H on the regular (k+1)x(k+1) grid and check the Euclidean mesh bound.

    Row endpoints must agree across rows (fixed-endpoint homotopy); they are
    snapped to the row-0 values so boundary identities hold exactly.  Raises
    :class:`DeclaredLipschitzViolated` when a grid step exceeds ell/k.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if ell <= 0.0:
        raise ValueError("ell must be positive")
    rows = [[H(i / k, j / k) for j in range(k + 1)] for i in range(k + 1)]
    x, y = rows[0][0], rows[0][k]
    for i in range(1, k + 1):
        if euclidean(rows[i][0], x) > 1e-9 or euclidean(rows[i][k], y) > 1e-9:
            raise EndpointMismatch("homotopy must fix both endpoints across rows")
        rows[i][0] = x
        rows[i][k] = y
    step = 0.0
    for i in range(k + 1):
        for j in range(k):
            step = max(step, euclidean(rows[i][j], rows[i][j + 1]))
    for i in range(k):
        for j in range(k + 1):
            step = max(step, euclidean(rows[i][j], rows[i + 1][j]))
    if step > ell / k + 1e-12:
        raise DeclaredLipschitzViolated(
            f"net mesh {step:.3e} exceeds declared ell/k = {ell / k:.3e}"
        )
    return HomotopyNet(k, tuple(tuple(r) for r in rows), ell, step)


def linear_pair_homotopy(g0: LipPath, g1: LipPath) -> tuple[Callable[[float, float], Point], float]:
    """Straight-line homotopy between two PL paths with common endpoints.

    Returns (H, ell) where ell bounds the Lipschitz norm of H for the
    |ds| + |dt| metric on the square.
    """
    if euclidean(g0.start, g1.start) > 1e-12 or euclidean(g0.end, g1.end) > 1e-12:
        raise EndpointMismatch("paths must share both endpoints")

    def H(s: float, t: float) -> Point:
        return p_lerp(g0.at(t), g1.at(t), s)

    ell_t = max(g0.lip_norm, g1.lip_norm)
    ell_s = 0.0
    for u in sorted(set(g0.breaks) | set(g1.breaks)):
        ell_s = max(ell_s, euclidean(g0.at(u), g1.at(u)))
    return H, max(ell_t, ell_s)


# ---------------------------------------------------------------------------
# ladder compositions

def _compose_nodes(model: ApproxFlowModel, nodes: Sequence[Point]) -> ProbedMap:
    """mu composed along consecutive nodes of the net."""
    return compose_chain(map(model.mu, nodes, nodes[1:]))


def row_map(net: HomotopyNet, model: ApproxFlowModel, i: int) -> ProbedMap:
    """Composition of mu along row i of the net."""
    if not 0 <= i <= net.k:
        raise IndexError("row index out of range")
    return _compose_nodes(model, net.grid[i])


def ladder_map(net: HomotopyNet, model: ApproxFlowModel, i: int, j: int) -> ProbedMap:
    """Hybrid composition crossing from row i to row i+1 at column k - j.

    ladder_map(i, k-1) and ladder_map(i+1, 0) compose the same nodes, so
    consecutive ladders sweep row 0 into row k one crossing at a time.
    """
    k = net.k
    if not (0 <= i <= k - 1 and 0 <= j <= k - 1):
        raise IndexError("ladder indices must lie in 0..k-1")
    crossing = k - j
    return _compose_nodes(model, net.grid[i][:crossing] + net.grid[i + 1][crossing:])


def knit_bound(h: HoelderData, ell: float, k: int) -> float:
    """exp(delta*ell*L) * (2 + delta*ell*L) * (sum C_i) * ell**(2+eps) * delta**eps."""
    h.require_mode(MODE_KNITTING, "knit_bound")
    delta = 1.0 / k
    x = delta * ell * h.lip_slope
    return math.exp(x) * (2.0 + x) * h.c_total * ell ** (2.0 + h.epsilon) * delta**h.epsilon


def knit_compare(net: HomotopyNet, model: ApproxFlowModel) -> tuple[float, float]:
    """Distance between the row-0 and row-k compositions, and its knit bound."""
    model.hoelder.require_mode(MODE_KNITTING, "knit_compare")
    measured = map_distance_value(row_map(net, model, 0), row_map(net, model, net.k))
    return measured, knit_bound(model.hoelder, net.ell, net.k)


def knit_prime_constant(h: HoelderData, lip_gamma: float, span: float) -> float:
    """C' = 2**(1+eps) * exp(L*Lip(gamma)*span) * (sum C_i) * zeta(2+eps)."""
    h.require_mode(MODE_KNITTING, "knit_prime_constant")
    return (
        2.0 ** (1.0 + h.epsilon)
        * math.exp(h.lip_slope * lip_gamma * span)
        * h.c_total
        * zeta(2.0 + h.epsilon)
    )


# ---------------------------------------------------------------------------
# holonomy along a path

@dataclass
class HolonomySummary:
    angle: float | None           # extrapolated accumulated angle (rotation fibers)
    raw_angle: float | None       # accumulated angle at the finest subdivision
    certificate: SewCertificate


def holonomy(
    model: ApproxFlowModel, g: LipPath, tol: float, max_level: int = 24
) -> tuple[ProbedMap, HolonomySummary]:
    """Sew the flow pulled back along g and summarize it.

    For rotation-fiber models the summary accumulates per-step angles over
    the finest subdivision reached (before any mod-2*pi reduction), and over
    the coarser levels the certificate's Richardson columns need; those
    columns extrapolate the angle exactly as they extrapolate the sewn map.
    """
    pulled = pullback_flow(model, g)
    flow, cert = sew(pulled, 0.0, 1.0, tol, max_level=max_level)
    angle = raw = None
    if pulled.angle is not None:
        coefs = _column_coefs(cert.extrapolation_orders, cert.ratio_estimate)
        k = cert.final_subdivision.k
        table: list[tuple[float, ...]] = []
        for j in range(len(coefs), 0, -1):
            coarser = regular(0.0, 1.0, k >> j)
            table = _romberg_row(table, (_accumulated_angle(pulled.angle, coarser.points),), coefs)
        raw = _accumulated_angle(pulled.angle, cert.final_subdivision.points)
        angle = _romberg_row(table, (raw,), coefs)[-1][0]
    return flow, HolonomySummary(angle=angle, raw_angle=raw, certificate=cert)


def _accumulated_angle(angle_fn: Callable[[float, float], float], pts: tuple[float, ...]) -> float:
    return sum(angle_fn(a, b) for a, b in zip(pts, pts[1:]))
