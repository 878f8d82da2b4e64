"""The knitting engine: homotopy nets, ladder comparisons, and holonomy.

Two paths with common endpoints span the straight-line homotopy H; its
(k+1)x(k+1) net is H on the regular grid, kept as the two paths sampled at
j/k, with each row built when asked for.  Ladder maps interpolate
between the row compositions one crossing at a time; under a strong
four-point estimate of total degree 2+eps the top and bottom rows differ by
at most exp(delta*ell*L) * (2 + delta*ell*L) * (sum C_i) * ell**(2+eps) *
delta**eps with delta = 1/k, which vanishes as the net refines.  Holonomy
along a path is the sewn pullback flow; its certificate carries the model's
summary, for the flat connection the lifted angle (not reduced mod 2*pi, so
winding is observable).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DeclaredLipschitzViolated, EndpointMismatch
from .flows import MODE_KNITTING, ApproxFlowModel, HoelderData
from .metric import Point, ProbedMap, euclidean, map_distance_value, p_lerp
from .metric import compose_chain  # unused here: kept for perfbench/tracer.py, which patches it
from .paths import LipPath, pullback_flow
from .sewing import MAX_LEVEL, SewCertificate, compose_along, sew, zeta
from .subdivision import regular


def _check_shared_endpoints(g0: LipPath, g1: LipPath) -> None:
    if euclidean(g0.start, g1.start) > 1e-12 or euclidean(g0.end, g1.end) > 1e-12:
        raise EndpointMismatch("paths must share both endpoints")


@dataclass(frozen=True)
class HomotopyNet:
    """The net x_j^i = H(i/k, j/k) of the straight-line homotopy H(s, t) =
    (1-s) g0(t) + s g1(t), kept as its two boundary paths sampled at t_j = j/k.

    Rows are built on demand by :meth:`row` and share the endpoints x and y
    of row 0.  ``mesh`` bounds every row and column step of the net.
    """

    k: int
    ell: float
    samples0: tuple[Point, ...]   # g0(t_j)
    samples1: tuple[Point, ...]   # g1(t_j)
    mesh: float = field(init=False)

    def __post_init__(self):
        # An interior row step is a convex combination of a row-0 and a row-k
        # step, and every column step is |g1(t_j) - g0(t_j)|/k, so the two
        # boundary rows give the mesh; the endpoint gap covers the snapping.
        bottom, top = self.row(0), self.row(self.k)
        step = max(
            max(map(euclidean, bottom, bottom[1:])),
            max(map(euclidean, top, top[1:])),
            max(map(euclidean, self.samples0, self.samples1)) / self.k,
        )
        gap = max(euclidean(self.samples0[0], self.samples1[0]),
                  euclidean(self.samples0[-1], self.samples1[-1]))
        object.__setattr__(self, "mesh", step + gap)

    @property
    def start(self) -> Point:
        return p_lerp(self.samples0[0], self.samples1[0], 0.0)

    @property
    def end(self) -> Point:
        return p_lerp(self.samples0[-1], self.samples1[-1], 0.0)

    def row(self, i: int) -> tuple[Point, ...]:
        """Row i, H(i/k, t_j) for j = 0..k, with its endpoints snapped to row 0's."""
        if not 0 <= i <= self.k:
            raise IndexError("row index out of range")
        s = i / self.k
        nodes = [p_lerp(a, b, s) for a, b in zip(self.samples0, self.samples1)]
        nodes[0], nodes[-1] = self.start, self.end
        return tuple(nodes)


def build_net(g0: LipPath, g1: LipPath, k: int, ell: float) -> HomotopyNet:
    """The k-net of the straight-line homotopy from g0 to g1, checked against ell.

    Samples each path once at t_j = j/k.  Raises :class:`EndpointMismatch`
    when the paths do not share both endpoints and
    :class:`DeclaredLipschitzViolated` when the mesh exceeds ell/k.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if ell <= 0.0:
        raise ValueError("ell must be positive")
    _check_shared_endpoints(g0, g1)
    ts = regular(0.0, 1.0, k).points
    net = HomotopyNet(k, ell, tuple(map(g0.at, ts)), tuple(map(g1.at, ts)))
    if net.mesh > ell / k + 1e-12:
        raise DeclaredLipschitzViolated(
            f"net mesh {net.mesh:.3e} exceeds declared ell/k = {ell / k:.3e}"
        )
    return net


def pair_lipschitz(g0: LipPath, g1: LipPath) -> float:
    """A Lipschitz bound ell, for the |ds| + |dt| metric on the square, of the
    straight-line homotopy between two PL paths with common endpoints."""
    _check_shared_endpoints(g0, g1)
    ell_t = max(g0.lip_norm, g1.lip_norm)
    ell_s = 0.0
    for u in sorted(set(g0.breaks) | set(g1.breaks)):
        ell_s = max(ell_s, euclidean(g0.at(u), g1.at(u)))
    return max(ell_t, ell_s)


# ---------------------------------------------------------------------------
# ladder compositions

def row_map(net: HomotopyNet, model: ApproxFlowModel, i: int) -> ProbedMap:
    """Composition of mu along row i of the net."""
    return compose_along(model, net.row(i))


def ladder_map(net: HomotopyNet, model: ApproxFlowModel, i: int, j: int) -> ProbedMap:
    """Hybrid composition crossing from row i to row i+1 at column k - j.

    ladder_map(i, k-1) and ladder_map(i+1, 0) compose the same nodes, so
    consecutive ladders sweep row 0 into row k one crossing at a time.
    """
    k = net.k
    if not (0 <= i <= k - 1 and 0 <= j <= k - 1):
        raise IndexError("ladder indices must lie in 0..k-1")
    crossing = k - j
    return compose_along(model, net.row(i)[:crossing] + net.row(i + 1)[crossing:])


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

def holonomy(
    model: ApproxFlowModel, g: LipPath, tol: float, max_level: int = MAX_LEVEL
) -> tuple[ProbedMap, SewCertificate]:
    """The flow pulled back along g, sewn over [0, 1].

    For the flat connection the certificate's level values and
    ``limit_value`` are the accumulated angle, not reduced mod 2*pi.
    """
    return sew(pullback_flow(model, g), 0.0, 1.0, tol, max_level=max_level)
