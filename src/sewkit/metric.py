"""Extended metric spaces, probed map spaces and Lipschitz composition bounds.

Distances are floats and may be ``math.inf`` (extended metric); a NaN is
never a distance and raises :class:`NonFiniteValue`.  Sup distances between
maps and Lipschitz constants are approximated from finite probe sets, so
every probed quantity is a lower bound for the true one; analytic upper
bounds always come from declared model data, never from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .errors import DomainMismatch, InsufficientProbes, NonFiniteValue

Point = Any  # a float, or a tuple of floats


# ---------------------------------------------------------------------------
# point helpers (floats and tuples share one code path)

def p_sub(a: Point, b: Point) -> Point:
    if isinstance(a, tuple):
        return tuple(x - y for x, y in zip(a, b))
    return a - b


def p_lerp(a: Point, b: Point, w: float) -> Point:
    """(1-w)*a + w*b, componentwise."""
    if isinstance(a, tuple):
        return tuple((1.0 - w) * x + w * y for x, y in zip(a, b))
    return (1.0 - w) * a + w * b


def p_axpy(b: Point, a: Point, coef: float) -> Point:
    """b + coef*(b - a); geometric-tail extrapolation step."""
    if coef == 0.0:
        return b
    if isinstance(b, tuple):
        return tuple(x + coef * (x - y) for x, y in zip(b, a))
    return b + coef * (b - a)


def p_norm(a: Point) -> float:
    """Euclidean norm, as the square root of the sum of squares."""
    if isinstance(a, tuple):
        return math.sqrt(sum(x * x for x in a))
    return abs(a)


def euclidean(a: Point, b: Point) -> float:
    if isinstance(a, tuple):
        if len(a) == 2:
            return math.hypot(a[0] - b[0], a[1] - b[1])
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    return abs(a - b)


# ---------------------------------------------------------------------------
# spaces and probed maps

@dataclass(frozen=True)
class MetricSpace:
    """A metric space probed at finitely many points.

    ``metric`` returns a float and may return ``math.inf`` (extended metric).
    Spaces are compared by name when maps are composed or measured against
    each other.
    """

    name: str
    metric: Callable[[Point, Point], float]
    probes: tuple[Point, ...]

    def __post_init__(self):
        if not self.probes:
            raise ValueError("probe set must be non-empty")


@dataclass(frozen=True)
class ProbedMap:
    """A map between probed metric spaces, evaluated via ``eval``."""

    source: MetricSpace
    target: MetricSpace
    eval: Callable[[Point], Point]

    def __call__(self, p: Point) -> Point:
        return self.eval(p)


def identity_map(space: MetricSpace) -> ProbedMap:
    return ProbedMap(space, space, lambda p: p)


def compose(outer: ProbedMap, inner: ProbedMap) -> ProbedMap:
    """outer after inner (function composition)."""
    return compose_chain((outer, inner))


def compose_chain(maps: Iterable[ProbedMap]) -> ProbedMap:
    """Compose maps[0] o maps[1] o ... o maps[-1]; the last one acts first.

    ``maps`` may be any iterable, a generator included: each factor is
    checked against the one before it and only its ``eval`` is kept, so a
    long chain never holds all its factors at once.  A single factor is
    returned as is.
    """
    factors = iter(maps)
    first = next(factors, None)
    if first is None:
        raise ValueError("need at least one map")
    evals = [first.eval]
    source = first.source
    for m in factors:
        # factors of one chain usually share one space object: test identity first
        if m.target is not source and m.target.name != source.name:
            raise DomainMismatch(
                f"cannot compose: inner target {m.target.name!r} "
                f"!= outer source {source.name!r}"
            )
        evals.append(m.eval)
        source = m.source
    if len(evals) == 1:
        return first
    evals.reverse()

    def run(p: Point) -> Point:
        for e in evals:
            p = e(p)
        return p

    return ProbedMap(source, first.target, run)


# ---------------------------------------------------------------------------
# probed sup distance and Lipschitz estimate

def sup_distance(
    metric: Callable[[Point, Point], float], xs: Iterable[Point], ys: Iterable[Point], what: str
) -> float:
    """Largest of metric(x, y) over paired points, ``math.inf`` included.

    A NaN at any pair raises :class:`NonFiniteValue`, also after an infinite
    one: no comparison can order it, and a bare max would drop it.
    """
    dists = list(map(metric, xs, ys))
    if any(map(math.isnan, dists)):
        raise NonFiniteValue(f"{what}: NaN probe distance in {dists}")
    return max(dists)


def map_distance_value(f: ProbedMap, g: ProbedMap) -> float:
    """Sup distance of two maps over the source probe set (lower bound).

    Returns ``math.inf`` for an infinite probe distance and raises
    :class:`NonFiniteValue` for a NaN one.
    """
    if f.source.name != g.source.name or f.target.name != g.target.name:
        raise DomainMismatch(
            f"maps live in different spaces: ({f.source.name}->{f.target.name}) "
            f"vs ({g.source.name}->{g.target.name})"
        )
    probes = f.source.probes
    return sup_distance(
        f.target.metric, map(f.eval, probes), map(g.eval, probes), f"{f.source.name}-maps"
    )


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
    """Bound d(g o f, g' o f') <= d(g, g') + Lip(g') * d(f, f')."""
    if d_gg < 0 or lip_gprime < 0 or d_ff < 0:
        raise ValueError("composition bound inputs must be non-negative")
    return d_gg + lip_gprime * d_ff


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


# ---------------------------------------------------------------------------
# built-in spaces: uniform grids on intervals, boxes and circles

def real_line(lo: float = -1.0, hi: float = 1.0, n: int = 5, name: str | None = None) -> MetricSpace:
    if n < 1:
        raise ValueError("need n >= 1 probes")
    if n == 1:
        probes: tuple[Point, ...] = ((lo + hi) / 2.0,)
    else:
        step = (hi - lo) / (n - 1)
        probes = tuple(lo + i * step for i in range(n))
    return MetricSpace(name or f"real[{lo},{hi}]x{n}", euclidean, probes)


def plane_grid(radius: float = 1.0, n: int = 3, name: str | None = None) -> MetricSpace:
    """Euclidean plane probed on a uniform n-by-n grid of the centered box."""
    if n < 1:
        raise ValueError("need n >= 1 probes per axis")
    if n == 1:
        axis = [0.0]
    else:
        step = 2.0 * radius / (n - 1)
        axis = [-radius + i * step for i in range(n)]
    probes = tuple((x, y) for x in axis for y in axis)
    return MetricSpace(name or f"plane-grid{n}r{radius}", euclidean, probes)


def circle_fiber(n: int = 8, name: str | None = None) -> MetricSpace:
    """The plane lifted to the universal cover of the punctured plane, probed
    on n equally spaced points of the unit circle.

    A point is (x, y, phi): phi is an angle of (x, y) that a rotation carries
    along unreduced, so winding stays readable.  Distances see only (x, y).
    """
    if n < 2:
        raise ValueError("need n >= 2 probes")
    phis = [2.0 * math.pi * j / n for j in range(n)]
    probes = tuple((math.cos(phi), math.sin(phi), phi) for phi in phis)
    planar = lambda a, b: math.hypot(a[0] - b[0], a[1] - b[1])
    return MetricSpace(name or f"plane-circle{n}", planar, probes)
