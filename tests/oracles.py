"""Independent reference computations used to freeze expected test values.

Everything here is deliberately decoupled from the package's own refinement
machinery: quadrature by adaptive Simpson, Stieltjes integrals by dense
midpoint sums, matrix exponentials by scaling and squaring, winding numbers
by signed axis crossings, dyadic refinement and mesh by plain loops,
arc-length resampling of an ellipse by a walk over its table, points on a
PL path by a plain breakpoint search, arcs by a ``math.cos``/``math.sin`` loop,
translation increments by one scalar ``math`` call per interval and
translations by ``reduce(add)``, certification samples by one scalar
``rng.uniform`` call per coordinate, and ladder compositions by slicing two
net rows.
It also holds mis-declared models for negative controls, a non-commuting
knitting model (a pure-gauge SO(3) connection) and its curved,
mis-declared counterpart (a constant so(3) connection), the helpers that
only state a lemma (subdivision reversal, gluing and coarsening, the mesh
lemma, the flow law and the knitting constant C'), and the probe-side metric
helpers that only tests use: a probed Lipschitz estimate, the
composition-gap bounds, sampled path length and a metric-axiom scan over
probe triples.
"""
from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Sequence

import numpy as np

from sewkit.certify import ANNULUS_SCALES
from sewkit.errors import EndpointMismatch, SewkitError
from sewkit.flows import MODE_KNITTING, ApproxFlowModel, HoelderData, bound_power
from sewkit.knitting import HomotopyNet
from sewkit.metric import MetricSpace, Point, ProbedMap, compose, euclidean, map_distance_value
from sewkit.models import MIDPOINT_DEFECT_CONSTANT, make_additive, make_flat_connection
from sewkit.sewing import compose_along, refinement_bound, sew, zeta
from sewkit.subdivision import Subdivision, mesh


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-11) -> float:
    def simp(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def rec(lo, hi, flo, fmid, fhi, whole, eps):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = f(lm), f(rm)
        left = simp(lo, mid, flo, flm, fmid)
        right = simp(mid, hi, fmid, frm, fhi)
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return rec(lo, mid, flo, flm, fmid, left, eps / 2.0) + rec(
            mid, hi, fmid, frm, fhi, right, eps / 2.0
        )

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    return rec(a, b, fa, fm, fb, simp(a, b, fa, fm, fb), tol)


def stieltjes_midpoint(y, x, a: float = 0.0, b: float = 1.0, n: int = 200_000) -> float:
    """Riemann-Stieltjes integral of y dx by dense midpoint sums."""
    total = 0.0
    prev_x = x(a)
    for i in range(1, n + 1):
        hi = a + (b - a) * i / n
        mid = a + (b - a) * (i - 0.5) / n
        cur_x = x(hi)
        total += y(mid) * (cur_x - prev_x)
        prev_x = cur_x
    return total


def expm2(a, tol: float = 1e-12) -> np.ndarray:
    """2x2 matrix exponential by scaling and squaring a Taylor series."""
    mat = np.array(a, dtype=float)
    norm = np.linalg.norm(mat, 2)
    squarings = 0
    while norm / (2**squarings) > 0.25:
        squarings += 1
    scaled = mat / (2**squarings)
    acc = np.eye(2)
    term = np.eye(2)
    for k in range(1, 40):
        term = term @ scaled / k
        acc = acc + term
        if np.linalg.norm(term, 2) < tol:
            break
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def winding_number(points) -> int:
    """Winding of a closed polygon about the origin, by signed crossings
    of the positive x-axis."""
    w = 0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if y0 <= 0.0 < y1:
            t = -y0 / (y1 - y0)
            if x0 + t * (x1 - x0) > 0.0:
                w += 1
        elif y1 <= 0.0 < y0:
            t = -y0 / (y1 - y0)
            if x0 + t * (x1 - x0) > 0.0:
                w -= 1
    return w


def left_riemann(f, a: float, b: float, k: int) -> float:
    h = (b - a) / k
    return sum(f(a + j * h) for j in range(k)) * h


def dyadic_midpoints(points) -> tuple:
    """Dyadic refinement by a plain loop: (a + b) / 2 inserted between a and b."""
    out = [points[0]]
    for a, b in zip(points, points[1:]):
        out += [(a + b) / 2, b]
    return tuple(out)


def max_gap(points) -> float:
    """Mesh by a plain loop: the largest abs(b - a), 0.0 for a single point."""
    best = 0.0
    for a, b in zip(points, points[1:]):
        best = max(best, abs(b - a))
    return best


#: the CLI's Young drivers as scalar ``math`` functions
YOUNG_SCALAR_FNS = {"linear": lambda t: t, "sin": math.sin, "quadratic": lambda t: t * t}


def young_increments(x, y, params) -> list:
    """y(s)*(x(t)-x(s)) between consecutive parameters, one scalar call of
    each function per interval end, with x and y on plain floats."""
    params = list(params)
    return [y(s) * (x(t) - x(s)) for s, t in zip(params, params[1:])]


def translate(p: float, shifts) -> float:
    """p + shifts[0] + shifts[1] + ..., one addition at a time."""
    return reduce(add, shifts, p)


def ellipse_arc_points(rx: float, ry: float, angle0: float, angle1: float, segments: int) -> tuple:
    """The points of an elliptical arc at uniform arc length: a table of
    max(32*segments, 1024) + 1 cos/sin samples, walked leg by leg and
    interpolated as (1-w)*a + w*b at each target total*j/segments."""
    fine = max(segments * 32, 1024)
    ang = [angle0 + (angle1 - angle0) * j / fine for j in range(fine + 1)]
    pts = [(rx * math.cos(a), ry * math.sin(a)) for a in ang]
    cum = list(accumulate(map(math.dist, pts, pts[1:]), initial=0.0))
    total = cum[-1]
    out = [pts[0]]
    i = 0
    for j in range(1, segments):
        target = total * j / segments
        while cum[i + 1] < target:
            i += 1
        w = (target - cum[i]) / (cum[i + 1] - cum[i])
        out.append(tuple((1.0 - w) * x + w * y for x, y in zip(pts[i], pts[i + 1])))
    out.append(pts[-1])
    return tuple(out)


def lerp(a, b, w: float):
    """(1-w)*a + w*b, componentwise on tuples."""
    if isinstance(a, tuple):
        return tuple((1.0 - w) * x + w * y for x, y in zip(a, b))
    return (1.0 - w) * a + w * b


def path_point(g, u: float):
    """The point of a PL path at u: an end's own point at or beyond that end,
    else lerp on the leg with breaks[i] <= u < breaks[i+1], found by bisection."""
    if u <= 0.0:
        return g.points[0]
    if u >= 1.0:
        return g.points[-1]
    i = bisect_right(g.breaks, u) - 1
    w = (u - g.breaks[i]) / (g.breaks[i + 1] - g.breaks[i])
    return lerp(g.points[i], g.points[i + 1], w)


def arc_points(radius: float, angle0: float, angle1: float, segments: int) -> tuple:
    """The points of a circular arc about the origin at uniform angle steps,
    by a plain ``math.cos``/``math.sin`` loop."""
    return tuple(
        (
            radius * math.cos(angle0 + (angle1 - angle0) * j / segments),
            radius * math.sin(angle0 + (angle1 - angle0) * j / segments),
        )
        for j in range(segments + 1)
    )


# ---------------------------------------------------------------------------
# certification samples, one scalar draw at a time

def interval_three_point_samples(
    rng: np.random.Generator,
    n: int = 48,
    s_range: tuple[float, float] = (0.0, 0.5),
    scales: tuple[float, float] = (1e-4, 1e-1),
) -> list[tuple[float, float, float]]:
    """Triples s < u < t with u strictly inside, gaps spanning the scale range."""
    out = []
    log_lo, log_hi = math.log(scales[0]), math.log(scales[1])
    for i in range(n):
        w = math.exp(log_lo + (log_hi - log_lo) * (i / max(1, n - 1)))
        s = float(rng.uniform(*s_range))
        theta = float(rng.uniform(0.3, 0.7))
        out.append((s, s + theta * w, s + w))
    return out


def interval_four_point_samples(
    rng: np.random.Generator,
    n: int = 48,
    s_range: tuple[float, float] = (0.0, 0.5),
    scales: tuple[float, float] = (1e-4, 1e-1),
) -> list[tuple[float, float, float, float]]:
    """Quadruple chains x < u < v < y with comparable single-scale gaps."""
    out = []
    log_lo, log_hi = math.log(scales[0]), math.log(scales[1])
    for i in range(n):
        hscale = math.exp(log_lo + (log_hi - log_lo) * (i / max(1, n - 1)))
        x = float(rng.uniform(*s_range))
        h1, h2, h3 = (float(rng.uniform(0.5, 1.0)) * hscale for _ in range(3))
        out.append((x, x + h1, x + h1 + h2, x + h1 + h2 + h3))
    return out


def annulus_four_point_samples(
    rng: np.random.Generator,
    n: int = 48,
    radius_range: tuple[float, float] = (0.9, 1.6),
    scales: tuple[float, float] = ANNULUS_SCALES,
) -> list[tuple[Point, Point, Point, Point]]:
    """Quadruple chains in the punctured plane, chords small against the radius."""
    out = []
    log_lo, log_hi = math.log(scales[0]), math.log(scales[1])
    for i in range(n):
        hscale = math.exp(log_lo + (log_hi - log_lo) * (i / max(1, n - 1)))
        rho = float(rng.uniform(*radius_range))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        p = (rho * math.cos(phi), rho * math.sin(phi))
        chain = [p]
        for _ in range(3):
            ang = float(rng.uniform(0.0, 2.0 * math.pi))
            step = float(rng.uniform(0.5, 1.0)) * hscale
            q = (chain[-1][0] + step * math.cos(ang), chain[-1][1] + step * math.sin(ang))
            chain.append(q)
        out.append(tuple(chain))
    return out


def annulus_three_point_samples(
    rng: np.random.Generator,
    n: int = 48,
    radius_range: tuple[float, float] = (0.9, 1.6),
    scales: tuple[float, float] = ANNULUS_SCALES,
) -> list[tuple[Point, Point, Point]]:
    out = [(x, u, y) for x, u, _v, y in annulus_four_point_samples(rng, n, radius_range, scales)]
    return out


# ---------------------------------------------------------------------------
# ladder compositions

def ladder_map(net: HomotopyNet, model: ApproxFlowModel, i: int, j: int) -> ProbedMap:
    """Hybrid composition crossing from row i to row i+1 at column k - j.

    ladder_map(i, k-1) and ladder_map(i+1, 0) compose the same nodes, so
    consecutive ladders sweep row 0 into row k one crossing at a time.  The
    nodes are the two row slices joined as one array.
    """
    k = net.k
    if not (0 <= i <= k - 1 and 0 <= j <= k - 1):
        raise IndexError("ladder indices must lie in 0..k-1")
    crossing = k - j
    return compose_along(model, np.concatenate((net.row(i)[:crossing], net.row(i + 1)[crossing:])))


# ---------------------------------------------------------------------------
# lemma-only helpers: subdivisions, the mesh lemma, the flow law, C'

class CannotCoarsen(SewkitError):
    """The trivial subdivision has no interior point to remove."""


class NotARefinement(SewkitError):
    """The allegedly finer subdivision does not contain the coarser one."""


def refines(finer: Subdivision, coarser: Subdivision) -> bool:
    if finer.start != coarser.start or finer.end != coarser.end:
        return False
    return bool(np.isin(coarser.points, finer.points).all())


def reverse(subdiv: Subdivision) -> Subdivision:
    """Same points, endpoints swapped."""
    return Subdivision(subdiv.points[::-1])


def concat(left: Subdivision, right: Subdivision) -> Subdivision:
    """Glue a subdivision of [s,u] and one of [u,t] into one of [s,t]."""
    if left.end != right.start:
        raise EndpointMismatch("concat needs left.end == right.start")
    return Subdivision(np.concatenate((left.points, right.points[1:])))


def coarsen_minimal_pair(subdiv: Subdivision) -> tuple[Subdivision, int]:
    """Remove the interior point whose adjacent blocks have minimal total length.

    Returns the coarsened subdivision and the 1-based index j of the removed
    point t_j.  Ties break to the smallest index.  The removed pair satisfies
    |I_j| + |I_{j+1}| <= 2*span/(k-1).
    """
    pts = subdiv.points
    if len(pts) < 3:
        raise CannotCoarsen("no interior point to remove")
    # argmin returns the first of equal values, so ties break to the smallest index
    best_j = int(np.abs(pts[2:] - pts[:-2]).argmin()) + 1
    return Subdivision(np.concatenate((pts[:best_j], pts[best_j + 1 :]))), best_j


def mesh_lemma_check(
    model: ApproxFlowModel, coarse: Subdivision, fine: Subdivision
) -> tuple[float, float]:
    """Measured d(mu^I, mu^J) for J finer than I, and its mesh bound."""
    if not refines(fine, coarse):
        raise NotARefinement("second subdivision must refine the first")
    lhs = map_distance_value(compose_along(model, coarse.points), compose_along(model, fine.points))
    rhs = refinement_bound(model.hoelder, coarse.span, mesh(coarse))
    return lhs, rhs


def flow_law_defect(model: ApproxFlowModel, s: float, u: float, t: float, tol: float) -> float:
    """d(sew(s,t), sew(s,u) o sew(u,t)); at most 3*tol for u between s and t."""
    whole, _ = sew(model, s, t, tol)
    left, _ = sew(model, s, u, tol)
    right, _ = sew(model, u, t, tol)
    return map_distance_value(whole, compose(left, right))


def knit_prime_constant(h: HoelderData, lip_gamma: float, span: float) -> float:
    """C' = 2**(1+eps) * g(Lip(gamma)*span) * (sum C_i) * zeta(2+eps)."""
    h.require_mode(MODE_KNITTING, "knit_prime_constant")
    return (
        bound_power(2.0, 1.0 + h.epsilon, "knit constant C'")
        * h.g(lip_gamma * span)
        * h.c_total
        * zeta(2.0 + h.epsilon)
    )


# ---------------------------------------------------------------------------
# probe-side metric helpers

class InsufficientProbes(SewkitError):
    """An operation needs more distinct probe points than the space carries."""


def misdeclared_additive_sin(c: float) -> ApproxFlowModel:
    """``make_additive_sin``'s translations declared with the defect constant
    c in place of the honest 1: a negative control, whose certified
    inequalities must fail once c is small enough."""
    return make_additive(lambda s, t: np.sin(s) * (t - s), HoelderData(1.0, ((1.0, 1.0, c),)))


def misdeclared_flat_connection(c: float) -> ApproxFlowModel:
    """The midpoint flat connection declared with the defect constant c on
    both of its knitting-mode terms in place of the honest
    ``MIDPOINT_DEFECT_CONSTANT``: a negative control for the certify and knit
    rows."""
    h = HoelderData(1.0, ((2.0, 1.0, c), (1.0, 2.0, c)), 0.0, MODE_KNITTING)
    return dataclasses.replace(make_flat_connection("midpoint"), hoelder=h)


#: the axis vectors X and Y of the pure-gauge connection g(x, y) = exp(x X) exp(y Y)
GAUGE_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.3))


def _axis_rotation(axis: Sequence[float], angle: float) -> np.ndarray:
    """exp(angle * [axis]), [axis] the cross-product matrix of axis, by Rodrigues' formula."""
    norm = math.hypot(*axis)
    ax, ay, az = (a / norm for a in axis)
    cross = np.array([[0.0, -az, ay], [az, 0.0, -ax], [-ay, ax, 0.0]])
    theta = angle * norm
    return np.eye(3) + math.sin(theta) * cross + (1.0 - math.cos(theta)) * (cross @ cross)


def pure_gauge_so3() -> ApproxFlowModel:
    """A flat, non-commuting knitting model: the pure-gauge SO(3) connection
    g(x, y) = exp(x X) exp(y Y) over the plane, X and Y the ``GAUGE_AXES``.

    The fiber is R^3, probed at 5 standard normal points drawn at seed 0.
    The increments are the chord transports g(p_i)^T g(p_{i+1}) and ``act``
    is their ordered matrix product, so a chain telescopes to
    g(p_0)^T g(p_k): every defect is rounding, and the declared constants
    are 0.  The transports do not commute, so a product in the wrong order
    (``misordered``) is far from the chain."""
    draws = np.random.default_rng(0).standard_normal((5, 3)).tolist()
    fiber = MetricSpace("r3-fiber5", euclidean, tuple(map(tuple, draws)))

    def gauge(p: Point) -> np.ndarray:
        return _axis_rotation(GAUGE_AXES[0], p[0]) @ _axis_rotation(GAUGE_AXES[1], p[1])

    def increments(params: Sequence[Point]) -> list[np.ndarray]:
        gs = [gauge(p) for p in params]
        return [a.T @ b for a, b in zip(gs, gs[1:])]

    def act(source: MetricSpace, target: MetricSpace, transports) -> ProbedMap:
        # transports[0] acts first, as in a chain of maps
        m = reduce(lambda acc, t: t @ acc, transports, np.eye(3))
        return ProbedMap(source, target, lambda v: tuple((m @ v).tolist()))

    return ApproxFlowModel(
        name="pure-gauge-so3",
        space_at=lambda _p: fiber,
        hoelder=HoelderData(1.0, ((2.0, 1.0, 0.0), (1.0, 2.0, 0.0)), 0.0, MODE_KNITTING),
        increments=increments,
        act=act,
    )


def curved_so3() -> ApproxFlowModel:
    """A curved, non-commuting knitting model declared as if flat: the
    constant so(3) connection, whose chord from p to q is transported by
    exp(dx X + dy Y), (dx, dy) = q - p, X and Y the ``GAUGE_AXES``, declared
    with the midpoint connection's knitting data (eps = 1 and
    ``MIDPOINT_DEFECT_CONSTANT`` on both terms).

    Its four-point defect is of degree 2 (the curvature [X, Y] over the
    quadrilateral), not 2 + eps, so the declared data understates it: a
    negative control for the certify and knit rows.  Fiber, probes and
    ``act`` are ``pure_gauge_so3``'s."""

    def chord(p: Point, q: Point) -> np.ndarray:
        axis = [(q[0] - p[0]) * x + (q[1] - p[1]) * y for x, y in zip(*GAUGE_AXES)]
        return _axis_rotation(axis, 1.0) if any(axis) else np.eye(3)

    def increments(params: Sequence[Point]) -> list[np.ndarray]:
        return [chord(p, q) for p, q in zip(params, params[1:])]

    c = MIDPOINT_DEFECT_CONSTANT
    return dataclasses.replace(
        pure_gauge_so3(), name="curved-so3", increments=increments,
        hoelder=HoelderData(1.0, ((2.0, 1.0, c), (1.0, 2.0, c)), 0.0, MODE_KNITTING))


def misordered(model: ApproxFlowModel) -> ApproxFlowModel:
    """``model`` with ``act`` given its increments in reverse order: for
    non-commuting increments, a chain multiplied in the wrong order."""
    act = model.act
    return dataclasses.replace(model, act=lambda src, tgt, incs: act(src, tgt, incs[::-1]))


def lipschitz_estimate(f: ProbedMap) -> float:
    """Max slope over distinct probe pairs; a lower bound on Lip(f)."""
    probes = f.source.probes
    metric_s = f.source.metric
    metric_t = f.target.metric
    images = [f.eval(p) for p in probes]
    best = 0.0
    pairs = 0
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            ds = metric_s(probes[i], probes[j])
            if ds == 0.0:
                continue
            pairs += 1
            if ds == math.inf:
                continue
            q = metric_t(images[i], images[j]) / ds
            if q > best:
                best = q
    if pairs == 0:
        raise InsufficientProbes("need at least two distinct probe points")
    return best


def composition_distance_bound(d_gg: float, lip_gprime: float, d_ff: float) -> float:
    """Bound d(g o f, g' o f') <= d(g, g') + Lip(g') * d(f, f'): the r = 2 case
    of :func:`chain_composition_bound`, whose sum never reads the last lip."""
    return chain_composition_bound((d_gg, d_ff), (lip_gprime, 0.0))


def chain_composition_bound(gaps: Sequence[float], lips: Sequence[float]) -> float:
    """Bound for an r-fold composition gap.

    ``gaps[j]`` is the distance between the j-th factors, ``lips[j]`` an upper
    bound on the Lipschitz constant of the j-th primed factor.  Returns
    sum_j (prod_{i<j} lips[i]) * gaps[j].
    """
    if len(gaps) != len(lips):
        raise ValueError("gaps and lips must have equal length")
    if any(v < 0 for v in gaps) or any(v < 0 for v in lips):
        raise ValueError("chain bound inputs must be non-negative")
    total = 0.0
    prefix = 1.0
    for gap, lip in zip(gaps, lips):
        total += prefix * gap
        prefix *= lip
    return total


def path_length(samples: Sequence[Point], space: MetricSpace) -> float:
    """Length of the sampled polygonal path (non-decreasing under refinement).

    An infinite step gives ``math.inf``; a NaN or negative one raises ValueError.
    """
    if len(samples) == 0:
        raise ValueError("need at least one sample point")
    total = 0.0
    for a, b in zip(samples, samples[1:]):
        d = space.metric(a, b)
        if not d >= 0.0:
            raise ValueError(f"distance must be >= 0, got {d}")
        total += d
    return total


def metric_axiom_violations(space: MetricSpace) -> list[str]:
    """Check identity/symmetry/triangle on all probe triples; empty if clean."""
    tol = 1e-12
    out: list[str] = []
    pts = space.probes
    m = space.metric
    for p in pts:
        if m(p, p) > tol:
            out.append(f"d(x,x) != 0 at {p!r}")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(m(pts[i], pts[j]) - m(pts[j], pts[i])) > tol:
                out.append(f"asymmetric at probes {i},{j}")
    for i in range(len(pts)):
        for j in range(len(pts)):
            for k in range(len(pts)):
                if m(pts[i], pts[k]) > m(pts[i], pts[j]) + m(pts[j], pts[k]) + tol:
                    out.append(f"triangle fails at probes {i},{j},{k}")
    return out
