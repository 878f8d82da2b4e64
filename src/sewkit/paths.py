"""Piecewise-linear Lipschitz paths in a parameter space.

Reverse-order concatenation (g . g2 runs g2 first, then g), reversal,
subpaths, backtrack cancellation (a computable stand-in for thin
equivalence on PL data), pullback of parameter-space flows along a path,
and a check of the groupoid axioms on sewn holonomies, each against its
declared bound.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import sub, truediv
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EndpointMismatch, ModelDomainError
from .flows import ApproxFlowModel
from .metric import (
    Point,
    ProbedMap,
    compose,
    distances,
    euclidean,
    identity_map,
    map_distance_value,
    p_norm,
)
from .sewing import MAX_LEVEL, check_bound, compose_along, refinement_bound, sew
from .subdivision import mesh

#: legs and pauses shorter than this count as exact PL backtracks in ``pl_thin_reduce``
THIN_TOL = 1e-9

#: endpoints this close count as shared, in concatenation and the knitting checks
ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class LipPath:
    """A PL path on [0,1]: breakpoints 0 = u_0 < ... < u_m = 1 and m+1 finite
    points of one dimension (all floats, or all tuples of one length)."""

    breaks: tuple[float, ...]
    points: tuple[Point, ...]
    lip_norm: float = field(init=False)

    def __post_init__(self):
        if len(self.breaks) != len(self.points):
            raise ValueError("breaks and points must have equal length")
        if len(self.breaks) < 2:
            raise ValueError("need at least two breakpoints")
        if self.breaks[0] != 0.0 or self.breaks[-1] != 1.0:
            raise ValueError("breakpoints must run from 0 to 1")
        if not all(b < c for b, c in zip(self.breaks, self.breaks[1:])):  # a NaN fails too
            raise ValueError("breakpoints must be strictly increasing")
        try:
            points = self._arrays[1]
        except ValueError:
            raise ValueError("points must be numbers, or tuples of numbers of one length") from None
        except OverflowError:  # an int beyond the largest double
            bad_point = next(filter(_overflows, self.points))
            raise ValueError(f"points must be finite, got {bad_point!r}") from None
        bad = ~np.isfinite(points).reshape(len(points), -1).all(axis=1)
        if bad.any():
            raise ValueError(f"points must be finite, got {self.points[bad.argmax()]!r}")
        steps = distances(points[:-1], points[1:])
        spans = map(sub, self.breaks[1:], self.breaks)
        object.__setattr__(self, "lip_norm", max(map(truediv, steps, spans)))

    @property
    def start(self) -> Point:
        return self.points[0]

    @property
    def end(self) -> Point:
        return self.points[-1]

    @property
    def length(self) -> float:
        points = self._arrays[1]
        return sum(distances(points[:-1], points[1:]))

    def at(self, u: float) -> Point:
        """``sample`` at u as a plain point; at or beyond an end, that end's stored point."""
        if u <= 0.0:
            return self.points[0]
        if u >= 1.0:
            return self.points[-1]
        return _as_points(self.sample((u,)))[0]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.breaks, dtype=float), np.array(self.points, dtype=float)

    def sample(self, params: Sequence[float]) -> np.ndarray:
        """The path at every parameter in one numpy pass, by ``_interpolate``:
        row i of the result (entry i for a path of floats) is the point at
        ``params[i]``, which ``at`` returns as a plain point; an (n, m) array
        of parameters gives an (n, m, 2) array (or (n, m)) the same way."""
        return _interpolate(*self._arrays, params)


def _overflows(p: Point) -> bool:
    """Whether no float64 array holds the point: it has an int beyond the largest double."""
    try:
        np.array(p, dtype=float)
    except OverflowError:
        return True
    return False


def _as_points(a: np.ndarray) -> tuple[Point, ...]:
    """Sampled points as plain points: tuples of floats, or floats on a line."""
    return tuple(map(tuple, a.tolist())) if a.ndim == 2 else tuple(a.tolist())


def _interpolate(breaks: np.ndarray, points: np.ndarray, params: Sequence[float]) -> np.ndarray:
    """The polyline through ``points`` at increasing ``breaks``, at every
    parameter in one numpy pass, of any shape (the parameter rows of stacked
    chains included): the leg with breaks[i] <= u < breaks[i+1],
    w = (u - breaks[i]) / (breaks[i+1] - breaks[i]) and
    (1-w)*points[i] + w*points[i+1]; parameters at or beyond either end take
    that end's point.  Breaks may repeat: a parameter between the ends never
    falls on a zero-length leg."""
    u = np.asarray(params, dtype=float)
    # the leg of the last break at or below u inside the ends, and a valid leg for the rest
    i = np.searchsorted(breaks[1:-1], u, "right")
    lo = breaks[i]
    w = (u - lo) / (breaks[i + 1] - lo)
    if points.ndim == 2:
        w = w[..., None]
    p = (1.0 - w) * points[i] + w * points[i + 1]
    p[u <= breaks[0]] = points[0]
    p[u >= breaks[-1]] = points[-1]
    return p


def polyline(points: Sequence[Point], breaks: Sequence[float] | None = None) -> LipPath:
    if len(points) < 2:
        raise ValueError("need at least two points")
    if breaks is None:
        m = len(points) - 1
        breaks = tuple(j / m for j in range(m + 1))
    return LipPath(tuple(breaks), tuple(points))


def constant_path(p: Point) -> LipPath:
    return LipPath((0.0, 1.0), (p, p))


def segment_path(a: Point, b: Point) -> LipPath:
    return LipPath((0.0, 1.0), (a, b))


def _arc_table(rx: float, ry: float, angle0: float, angle1: float, n: int) -> np.ndarray:
    """The (n+1, 2) table (rx cos a_j, ry sin a_j) at a_j = angle0 + (angle1 - angle0) * j / n."""
    a = angle0 + (angle1 - angle0) * np.arange(n + 1) / n
    return np.column_stack((rx * np.cos(a), ry * np.sin(a)))


def arc_path(radius: float, angle0: float, angle1: float, segments: int = 64) -> LipPath:
    """PL sampling of a circular arc about the origin."""
    return polyline(_as_points(_arc_table(radius, radius, angle0, angle1, segments)))


def circle_path(radius: float = 1.0, turns: float = 1.0, segments: int = 64) -> LipPath:
    return arc_path(radius, 0.0, 2.0 * math.pi * turns, segments)


def ellipse_arc_path(
    rx: float, ry: float, angle0: float, angle1: float, segments: int = 64
) -> LipPath:
    """PL sampling of an elliptical arc at uniform arc length (constant speed)."""
    pts = _arc_table(rx, ry, angle0, angle1, max(segments * 32, 1024))
    # np.cumsum adds in order, as a running sum does
    cum = np.zeros(len(pts))
    np.cumsum(distances(pts[1:], pts[:-1]), out=cum[1:])
    total = cum[-1]
    if total == 0.0:
        raise ValueError("a zero-length arc has no arc-length parametrization")
    # the ends stay the table's own: total * segments / segments need not be total
    inner = _interpolate(cum, pts, total * np.arange(1, segments) / segments)
    return polyline(_as_points(np.vstack((pts[0], inner, pts[-1]))))


def square_loop(center: Point = (2.0, 0.0), half_side: float = 0.5) -> LipPath:
    cx, cy = center
    h = half_side
    pts = (
        (cx + h, cy - h),
        (cx + h, cy + h),
        (cx - h, cy + h),
        (cx - h, cy - h),
        (cx + h, cy - h),
    )
    return polyline(pts)


def path_to_csv(g: LipPath, file_path: str) -> None:
    """Serialize a PL path as CSV with columns u, x0, x1, ..."""
    first = g.points[0]
    dim = len(first) if isinstance(first, tuple) else 1
    with Path(file_path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["u"] + [f"x{i}" for i in range(dim)])
        for u, p in zip(g.breaks, g.points):
            coords = p if isinstance(p, tuple) else (p,)
            writer.writerow([f"{u:.17g}"] + [f"{c:.17g}" for c in coords])


def path_from_csv(file_path: str) -> LipPath:
    """Read a PL path written by :func:`path_to_csv`; a row whose cell count
    differs from the header's, a blank one included, raises ValueError."""
    with Path(file_path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{file_path} holds no path")
    for n, r in enumerate(rows[1:], start=2):
        if len(r) != len(rows[0]):
            raise ValueError(f"{file_path} row {n} has {len(r)} cells, its header {len(rows[0])}")
    dim = len(rows[0]) - 1
    breaks = tuple(float(r[0]) for r in rows[1:])
    if dim == 1:
        points: tuple[Point, ...] = tuple(float(r[1]) for r in rows[1:])
    else:
        points = tuple(tuple(float(c) for c in r[1:]) for r in rows[1:])
    return LipPath(breaks, points)


# ---------------------------------------------------------------------------
# groupoid operations on paths

def concat_reverse_order(g: LipPath, g2: LipPath) -> LipPath:
    """g . g2: run g2 on [0, 1/2], then g on [1/2, 1]; needs g(0) == g2(1)
    within ``ENDPOINT_TOL``."""
    if euclidean(g.start, g2.end) > ENDPOINT_TOL:
        raise EndpointMismatch(
            f"g starts at {g.start} but g2 ends at {g2.end}; cannot concatenate"
        )
    breaks = [0.5 * u for u in g2.breaks]
    points = list(g2.points)
    breaks.extend(0.5 + 0.5 * u for u in g.breaks[1:])
    points.extend(g.points[1:])
    return LipPath(tuple(breaks), tuple(points))


def subpath(g: LipPath, s: float, t: float) -> LipPath:
    """The path u -> g(s*u + t*(1-u)): runs from g(t) to g(s).

    subpath(g, 1, 0) is g itself and subpath(g, 0, 1) is g reversed;
    Lip(subpath) <= |t - s| * Lip(g).
    """
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ValueError("s and t must lie in [0, 1]")
    if s == t:
        return constant_path(g.at(t))
    lo, hi = (t, s) if t < s else (s, t)
    inner = [u for u in g.breaks if lo < u < hi]
    params = [t, *inner, s] if t < s else [t, *reversed(inner), s]
    breaks = tuple((w - t) / (s - t) for w in params)
    points = _as_points(g.sample(params))
    return LipPath(breaks, points)


def reverse_path(g: LipPath) -> LipPath:
    return subpath(g, 0.0, 1.0)


def reparametrize(g: LipPath, phi_breaks: Sequence[float], phi_values: Sequence[float]) -> LipPath:
    """g composed with a monotone PL reparametrization of [0,1]; phi may be
    flat on a piece but never decrease."""
    phi = LipPath(tuple(phi_breaks), tuple(float(v) for v in phi_values))
    if phi.points[0] != 0.0 or phi.points[-1] != 1.0:
        raise ValueError("reparametrization must fix the endpoints")
    if not all(v0 <= v1 for v0, v1 in zip(phi.points, phi.points[1:])):
        raise ValueError(f"reparametrization must be non-decreasing, got {phi.points}")
    # phi inverted on its rising pieces: a target t falls on the piece with
    # values[i] <= t < values[i+1], and a tie pulls back to phi's own break
    us, values = phi._arrays
    pulled = _interpolate(values, us, g.breaks[1:-1])
    breaks = tuple(np.union1d(us, pulled).tolist())
    points = _as_points(g.sample(phi.sample(breaks)))
    return LipPath(breaks, points)


# ---------------------------------------------------------------------------
# PL thin reduction: cancel exact backtracks

def _is_backtrack(p: Point, q: Point, r: Point) -> bool:
    """True when the leg q -> r runs backward along the segment p -> q."""
    if not isinstance(p, tuple):
        p, q, r = (p,), (q,), (r,)
    v = tuple(y - x for x, y in zip(p, q))
    w = tuple(y - x for x, y in zip(q, r))
    lv, lw = p_norm(v), p_norm(w)
    if lv <= THIN_TOL or lw <= THIN_TOL:
        return False
    # |v ^ w|, the area the two legs span in any dimension; |v x w| in the plane
    wedge = math.hypot(*(v[i] * w[j] - v[j] * w[i] for i, j in combinations(range(len(v)), 2)))
    if wedge > THIN_TOL * max(lv, lw, 1.0):
        return False
    if sum(x * y for x, y in zip(v, w)) >= 0.0:
        return False
    return lw <= lv + THIN_TOL


def pl_thin_reduce(g: LipPath) -> LipPath:
    """Cancel adjacent backtracking leg pairs until none remain.

    Preserves endpoints, never increases length or Lipschitz norm, and is
    idempotent.  Only exact PL backtracks (within ``THIN_TOL``) are cancelled.
    """
    breaks = list(g.breaks)
    points = list(g.points)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 2 <= len(points) - 1:
            if _is_backtrack(points[i], points[i + 1], points[i + 2]):
                del points[i + 1]
                del breaks[i + 1]
                changed = True
                if i > 0:
                    i -= 1
            else:
                i += 1
        # merge repeated consecutive points (pauses are thin-trivial)
        j = 1
        while j < len(points) - 1:
            if euclidean(points[j], points[j - 1]) <= THIN_TOL:
                del points[j]
                del breaks[j]
                changed = True
            else:
                j += 1
        if len(points) > 2 and euclidean(points[-1], points[-2]) <= THIN_TOL:
            del points[-2]
            del breaks[-2]
            changed = True
    return LipPath(tuple(breaks), tuple(points))


# ---------------------------------------------------------------------------
# pullback of a parameter-space flow along a path

def pullback_flow(model: ApproxFlowModel, g: LipPath) -> ApproxFlowModel:
    """Interval-indexed flow (s,t) -> mu(g(s), g(t)).

    The Lipschitz slope rescales to L*Lip(g) and every defect term picks up
    Lip(g)**(a+b); knitting-mode data pulls back to sewing mode one order up.
    The pulled model keeps the model's ``summary``, so a sew of it reads the
    holonomy's summary (the flat connection's accumulated angle) at each level.
    It pulls the model's ``increments`` back through one ``g.sample`` of all
    the parameters, of one chain or a stack of chains, and keeps ``act``, so
    its chains stay fused (one rotation by the summed angle for the flat
    connection); ``mu`` and ``increments``
    raise :class:`ModelDomainError` naming the pullback.  Its ``mu`` is the
    model's ``mu`` at g(s), g(t), not the one derived from its increments.
    It keeps the model's ``expansion_orders`` only when every break of g is
    a dyadic rational with at most ``MAX_LEVEL`` binary digits: the dyadic
    levels of a sew over [0, 1] then come to contain every corner, and a
    level's error expands in the step along each leg.  Other paths declare
    no orders.
    """
    lip = g.lip_norm

    def pulled(f, *points):
        try:
            return f(*points)
        except ModelDomainError as exc:
            raise ModelDomainError(f"pullback of {model.name} along path: {exc}") from exc

    step = None
    if model.max_param_step is not None and lip > 0.0:
        step = model.max_param_step / lip

    dyadic = all(math.ldexp(b, MAX_LEVEL).is_integer() for b in g.breaks)

    return ApproxFlowModel(
        name=f"pullback({model.name})",
        space_at=lambda t: model.space_at(g.at(t)),
        # not derived: kept for perfbench/tracer.py, which counts these through the base mu
        mu=lambda s, t: pulled(model.mu, g.at(s), g.at(t)),
        hoelder=model.hoelder.pulled_back(lip),
        max_param_step=step,
        summary=model.summary,
        expansion_orders=model.expansion_orders if dyadic else (),
        increments=lambda params: pulled(model.increments, g.sample(params)),
        act=model.act,
    )


# ---------------------------------------------------------------------------
# groupoid axioms on sewn holonomies

def groupoid_axiom_check(
    model: ApproxFlowModel,
    paths: Sequence[LipPath],
    tol: float = 1e-8,
) -> dict[str, int]:
    """Check identity, inverse, composition and associativity on sewn holonomies.

    Each path's pullback is sewn at tol and compared by its raw composite R
    over the sew's final subdivision, which lies within the declared
    B = ``refinement_bound``(1, mesh) of the limit; g = ``hoelder.g(1)``
    bounds Lip(R).  Thin-equivalent paths share one limit, so each budget is
    a certified inequality: identity d(R_{p.c}, R_p) <= B_{p.c} + B_p;
    inverse d(R_rev(p) o R_p, id) <= B_rev(p) + g_rev(p) * B_p; composition
    d(R_{i.j}, R_i o R_j) <= B_{i.j} + B_i + g_i * B_j; associativity
    d(R_left, R_right) <= B_left + B_right.  A failing check raises
    :class:`BoundViolation` through ``check_bound``, naming the axiom, the
    paths, the measured value and the budget; returns the number of checks
    run per axiom.
    """
    counts = dict.fromkeys(("identity", "inverse", "composition", "associativity"), 0)

    def raw(p: LipPath) -> tuple[ProbedMap, float, float]:
        """The raw final composite of p's sewn holonomy, its bound B and g."""
        pb = pullback_flow(model, p)
        _, cert = sew(pb, 0.0, 1.0, tol)
        final = cert.final_subdivision
        h = pb.hoelder
        return compose_along(pb, final.points), refinement_bound(h, 1.0, mesh(final)), h.g(1.0)

    def check(axiom: str, where: str, f: ProbedMap, f2: ProbedMap, budget: float) -> None:
        check_bound(map_distance_value(f, f2), budget, f"groupoid {axiom} at {where} of {model.name}")
        counts[axiom] += 1

    sewn = [raw(p) for p in paths]

    for idx, (p, (r, b, _)) in enumerate(zip(paths, sewn)):
        r_pad, b_pad, _ = raw(concat_reverse_order(p, constant_path(p.start)))
        check("identity", f"path {idx} . const", r_pad, r, b_pad + b)
        r_inv, b_inv, g_inv = raw(reverse_path(p))
        check("inverse", f"path {idx}", compose(r_inv, r), identity_map(r.source),
              b_inv + g_inv * b)

    for i, (gi, (r_i, b_i, g_i)) in enumerate(zip(paths, sewn)):
        for j, (gj, (r_j, b_j, _)) in enumerate(zip(paths, sewn)):
            if euclidean(gi.start, gj.end) > ENDPOINT_TOL:
                continue
            r_ij, b_ij, _ = raw(concat_reverse_order(gi, gj))
            check("composition", f"paths {i}.{j}", r_ij, compose(r_i, r_j), b_ij + b_i + g_i * b_j)
            for k, gk in enumerate(paths):
                if euclidean(gj.start, gk.end) > ENDPOINT_TOL:
                    continue
                r_l, b_l, _ = raw(concat_reverse_order(concat_reverse_order(gi, gj), gk))
                r_r, b_r, _ = raw(concat_reverse_order(gi, concat_reverse_order(gj, gk)))
                check("associativity", f"paths ({i}.{j}).{k}", r_l, r_r, b_l + b_r)
    return counts
