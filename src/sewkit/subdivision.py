"""Ordered subdivisions of the interval between s and t, as their points.

A subdivision is its tuple of points t_0, ..., t_k, finite and strictly
monotone from ``start`` = t_0 to ``end`` = t_k (decreasing when start > end);
a single point is the degenerate subdivision of [s, s].  Midpoints are
computed as (a+b)/2 so refinement is bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import gt, lt, sub

from .errors import CannotCoarsen, EndpointMismatch


@dataclass(frozen=True)
class Subdivision:
    points: tuple[float, ...]

    def __post_init__(self):
        pts = self.points
        if not pts:
            raise ValueError("a subdivision needs at least one point")
        if not all(map(math.isfinite, pts)):
            raise ValueError(f"subdivision points must be finite, got {pts!r}")
        if not (all(map(lt, pts, pts[1:])) or all(map(gt, pts, pts[1:]))):
            raise ValueError("points must be strictly monotone from start to end")

    @property
    def start(self) -> float:
        return self.points[0]

    @property
    def end(self) -> float:
        return self.points[-1]

    @property
    def interior(self) -> tuple[float, ...]:
        return self.points[1:-1]

    @property
    def k(self) -> int:
        """Number of intervals (0 for a degenerate subdivision)."""
        return len(self.points) - 1

    @property
    def span(self) -> float:
        return abs(self.end - self.start)


def regular(s: float, t: float, k: int) -> Subdivision:
    """The regular subdivision with k equal intervals (one point when s == t)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if s == t:
        return Subdivision((s,))
    return Subdivision((s, *(s + j * (t - s) / k for j in range(1, k)), t))


def mesh(subdiv: Subdivision) -> float:
    """Largest interval length |b - a| (0 for a degenerate subdivision)."""
    pts = subdiv.points
    return max(map(abs, map(sub, pts[1:], pts)), default=0.0)


def dyadic_refine(subdiv: Subdivision) -> Subdivision:
    """Insert every interval's midpoint."""
    pts = subdiv.points
    refined = [0.0] * (2 * len(pts) - 1)
    refined[::2] = pts
    refined[1::2] = [(a + b) / 2.0 for a, b in zip(pts, pts[1:])]
    return Subdivision(tuple(refined))


def joint(a: Subdivision, b: Subdivision) -> Subdivision:
    """Coarsest subdivision finer than both (union of points)."""
    if a.start != b.start or a.end != b.end:
        raise EndpointMismatch("joint needs identical endpoints")
    return Subdivision(tuple(sorted(set(a.points) | set(b.points), reverse=a.start > a.end)))


def refines(finer: Subdivision, coarser: Subdivision) -> bool:
    if finer.start != coarser.start or finer.end != coarser.end:
        return False
    return set(coarser.points) <= set(finer.points)


def reverse(subdiv: Subdivision) -> Subdivision:
    """Same points, endpoints swapped."""
    return Subdivision(subdiv.points[::-1])


def concat(left: Subdivision, right: Subdivision) -> Subdivision:
    """Glue a subdivision of [s,u] and one of [u,t] into one of [s,t]."""
    if left.end != right.start:
        raise EndpointMismatch("concat needs left.end == right.start")
    return Subdivision(left.points + right.points[1:])


def coarsen_minimal_pair(subdiv: Subdivision) -> tuple[Subdivision, int]:
    """Remove the interior point whose adjacent blocks have minimal total length.

    Returns the coarsened subdivision and the 1-based index j of the removed
    point t_j.  Ties break to the smallest index.  The removed pair satisfies
    |I_j| + |I_{j+1}| <= 2*span/(k-1).
    """
    pts = subdiv.points
    if len(pts) < 3:
        raise CannotCoarsen("no interior point to remove")
    # min keeps the first of equal keys, so ties break to the smallest index
    best_j = min(range(1, len(pts) - 1), key=lambda j: abs(pts[j + 1] - pts[j - 1]))
    return Subdivision(pts[:best_j] + pts[best_j + 1 :]), best_j
