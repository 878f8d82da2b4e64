"""The knitting engine: homotopy nets, ladder comparisons, and holonomy.

Two paths with common endpoints span the straight-line homotopy H; its
(k+1)x(k+1) net is H on the regular grid, kept as the two paths sampled at
j/k by one ``LipPath.sample`` each, with each row built when asked for.
Ladder maps interpolate between the row compositions one crossing at a
time; under a strong four-point estimate of total degree 2+eps the top and
bottom rows differ by at most exp(delta*ell*L) * (2 + delta*ell*L) *
(sum C_i) * ell**(2+eps) * delta**eps with delta = 1/k, which vanishes as
the net refines.  Holonomy along a path is the sewn pullback flow; its
certificate carries the model's summary, for the flat connection the lifted
angle (not reduced mod 2*pi, so winding is observable).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EndpointMismatch
from .flows import MODE_KNITTING, ApproxFlowModel, HoelderData, bound_power
from .metric import ProbedMap, euclidean, map_distance_value
from .metric import compose_chain  # unused here: kept for perfbench/tracer.py, which patches it
from .paths import ENDPOINT_TOL, LipPath, pullback_flow
from .sewing import MAX_LEVEL, SewCertificate, check_bound, compose_along, sew
from .subdivision import regular


def _check_shared_endpoints(g0: LipPath, g1: LipPath) -> None:
    if euclidean(g0.start, g1.start) > ENDPOINT_TOL or euclidean(g0.end, g1.end) > ENDPOINT_TOL:
        raise EndpointMismatch("paths must share both endpoints")


@dataclass(frozen=True, eq=False)
class HomotopyNet:
    """The net x_j^i = H(i/k, j/k) of the straight-line homotopy H(s, t) =
    (1-s) g0(t) + s g1(t), kept as its two boundary paths sampled at t_j = j/k
    by ``LipPath.sample`` (arrays of k+1 points).

    Rows are built on demand by :meth:`row`, as arrays, and share the
    endpoints x and y of row 0.  ``mesh`` bounds every row and column step
    of the net.
    """

    k: int
    ell: float
    samples0: np.ndarray   # g0(t_j)
    samples1: np.ndarray   # g1(t_j)
    mesh: float = field(init=False)

    def __post_init__(self):
        # An interior row step is a convex combination of a row-0 and a row-k
        # step, and every column step is |g1(t_j) - g0(t_j)|/k, so the two
        # boundary rows give the mesh; the endpoint gap covers the snapping.
        # Row 0 is g0(t_j), row k is g1(t_j) with row 0's ends (to a zero's sign).
        bottom, top = self.samples0.tolist(), self.samples1.tolist()
        gap = max(euclidean(bottom[0], top[0]), euclidean(bottom[-1], top[-1]))
        column = max(map(euclidean, bottom, top)) / self.k
        top[0], top[-1] = bottom[0], bottom[-1]
        step = max(max(map(euclidean, bottom, bottom[1:])),
                   max(map(euclidean, top, top[1:])), column)
        object.__setattr__(self, "mesh", step + gap)

    def row(self, i: int) -> np.ndarray:
        """Row i, H(i/k, t_j) for j = 0..k, with its endpoints snapped to row 0's:
        a (k+1, 2) array in the plane, (k+1,) on paths of floats."""
        if not 0 <= i <= self.k:
            raise IndexError("row index out of range")
        s = i / self.k
        nodes = (1.0 - s) * self.samples0 + s * self.samples1
        nodes[0], nodes[-1] = self.samples0[0], self.samples0[-1]
        return nodes


def build_net(g0: LipPath, g1: LipPath, k: int, ell: float) -> HomotopyNet:
    """The k-net of the straight-line homotopy from g0 to g1, checked against ell.

    Samples each path once, by one ``LipPath.sample`` at t_j = j/k.  Raises
    :class:`EndpointMismatch` when the paths do not share both endpoints and
    :class:`BoundViolation` when the mesh exceeds ell/k, through
    ``check_bound`` as every certified inequality.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if ell <= 0.0:
        raise ValueError("ell must be positive")
    _check_shared_endpoints(g0, g1)
    ts = regular(0.0, 1.0, k).points
    net = HomotopyNet(k, ell, g0.sample(ts), g1.sample(ts))
    check_bound(net.mesh, ell / k, f"net mesh at k={k}, declared ell/k")
    return net


def pair_lipschitz(g0: LipPath, g1: LipPath) -> float:
    """A Lipschitz bound ell, for the |ds| + |dt| metric on the square, of the
    straight-line homotopy between two PL paths with common endpoints; samples
    each path once, at the union of their breaks, where |g1 - g0| peaks."""
    _check_shared_endpoints(g0, g1)
    ell_t = max(g0.lip_norm, g1.lip_norm)
    us = sorted(set(g0.breaks) | set(g1.breaks))
    ell_s = max(map(euclidean, g0.sample(us).tolist(), g1.sample(us).tolist()))
    return max(ell_t, ell_s)


# ---------------------------------------------------------------------------
# row compositions

def knit_bound(h: HoelderData, ell: float, k: int) -> float:
    """g(delta*ell) * (2 + f(delta*ell)) * (sum C_i) * ell**(2+eps) * delta**eps,
    that is exp(delta*ell*L) * (2 + delta*ell*L) * ..., with delta = 1/k."""
    h.require_mode(MODE_KNITTING, "knit_bound")
    delta = 1.0 / k
    step = delta * ell
    return (
        h.g(step)
        * (2.0 + h.f(step))
        * h.c_total
        * bound_power(ell, 2.0 + h.epsilon, "knit bound")
        * bound_power(delta, h.epsilon, "knit bound")
    )


def knit_compare(net: HomotopyNet, model: ApproxFlowModel) -> tuple[float, float]:
    """Distance between the row-0 and row-k compositions, and its knit bound."""
    model.hoelder.require_mode(MODE_KNITTING, "knit_compare")
    measured = map_distance_value(
        compose_along(model, net.row(0)), compose_along(model, net.row(net.k)))
    return measured, knit_bound(model.hoelder, net.ell, net.k)


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
