"""Ordered subdivisions of the interval between s and t.

Points run monotonically from ``start`` to ``end`` (decreasing when
start > end, a single point when they coincide).  Midpoints are computed as
(a+b)/2 so refinement is bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CannotCoarsen, EndpointMismatch


@dataclass(frozen=True)
class Subdivision:
    start: float
    end: float
    interior: tuple[float, ...] = ()

    def __post_init__(self):
        if self.start == self.end:
            if self.interior:
                raise ValueError("degenerate interval takes no interior points")
            return
        sign = 1.0 if self.end > self.start else -1.0
        prev = self.start
        for p in (*self.interior, self.end):
            if sign * (p - prev) <= 0.0:
                raise ValueError("interior points must be strictly monotone from start to end")
            prev = p

    @property
    def points(self) -> tuple[float, ...]:
        if self.start == self.end:
            return (self.start,)
        return (self.start, *self.interior, self.end)

    @property
    def k(self) -> int:
        """Number of intervals (0 for a degenerate subdivision)."""
        return 0 if self.start == self.end else len(self.interior) + 1

    @property
    def span(self) -> float:
        return abs(self.end - self.start)


def regular(s: float, t: float, k: int) -> Subdivision:
    """The regular subdivision with k equal intervals."""
    if k < 1:
        raise ValueError("need k >= 1")
    if s == t:
        return Subdivision(s, t)
    interior = tuple(s + j * (t - s) / k for j in range(1, k))
    return Subdivision(s, t, interior)


def mesh(subdiv: Subdivision) -> float:
    pts = subdiv.points
    if len(pts) == 1:
        return 0.0
    return max(abs(b - a) for a, b in zip(pts, pts[1:]))


def dyadic_refine(subdiv: Subdivision) -> Subdivision:
    """Insert every interval's midpoint."""
    pts = subdiv.points
    if len(pts) == 1:
        return subdiv
    interior: list[float] = []
    for a, b in zip(pts, pts[1:]):
        interior.append((a + b) / 2.0)
        interior.append(b)
    interior.pop()  # drop the end point
    return Subdivision(subdiv.start, subdiv.end, tuple(interior))


def joint(a: Subdivision, b: Subdivision) -> Subdivision:
    """Coarsest subdivision finer than both (union of points)."""
    if a.start != b.start or a.end != b.end:
        raise EndpointMismatch("joint needs identical endpoints")
    if a.start == a.end:
        return a
    merged = sorted(set(a.interior) | set(b.interior), reverse=a.start > a.end)
    return Subdivision(a.start, a.end, tuple(merged))


def refines(finer: Subdivision, coarser: Subdivision) -> bool:
    if finer.start != coarser.start or finer.end != coarser.end:
        return False
    return set(coarser.points) <= set(finer.points)


def reverse(subdiv: Subdivision) -> Subdivision:
    """Same points, endpoints swapped."""
    if subdiv.start == subdiv.end:
        return subdiv
    return Subdivision(subdiv.end, subdiv.start, tuple(reversed(subdiv.interior)))


def concat(left: Subdivision, right: Subdivision) -> Subdivision:
    """Glue a subdivision of [s,u] and one of [u,t] into one of [s,t]."""
    if left.end != right.start:
        raise EndpointMismatch("concat needs left.end == right.start")
    if left.start == left.end:
        return right
    if right.start == right.end:
        return left
    return Subdivision(left.start, right.end, (*left.interior, left.end, *right.interior))


def coarsen_minimal_pair(subdiv: Subdivision) -> tuple[Subdivision, int]:
    """Remove the interior point whose adjacent blocks have minimal total length.

    Returns the coarsened subdivision and the 1-based index j of the removed
    point t_j.  Ties break to the smallest index.  The removed pair satisfies
    |I_j| + |I_{j+1}| <= 2*span/(k-1).
    """
    pts = subdiv.points
    if len(pts) < 3:
        raise CannotCoarsen("no interior point to remove")
    best_j = 1
    best_sum = abs(pts[2] - pts[0])
    for j in range(2, len(pts) - 1):
        pair = abs(pts[j + 1] - pts[j - 1])
        if pair < best_sum:
            best_sum = pair
            best_j = j
    interior = tuple(p for i, p in enumerate(subdiv.interior, start=1) if i != best_j)
    return Subdivision(subdiv.start, subdiv.end, interior), best_j
