"""Ordered subdivisions of the interval between s and t, as their points.

A subdivision is its points t_0, ..., t_k, a read-only 1-D float64 array,
finite and strictly monotone from ``start`` = t_0 to ``end`` = t_k
(decreasing when start > end); a single point is the degenerate subdivision
of [s, s].  Every level operation is one numpy pass with the operations of
the plain loop, elementwise: midpoints are computed as (a+b)/2 so refinement
is bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import CannotCoarsen, EndpointMismatch


@dataclass(frozen=True, eq=False)
class Subdivision:
    """``points`` is copied into a read-only float64 array; compare two
    subdivisions by their points (``a.points.tolist() == b.points.tolist()``)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1:
            raise ValueError(f"subdivision points must form a 1-D sequence, got shape {pts.shape}")
        if not pts.size:
            raise ValueError("a subdivision needs at least one point")
        if not np.isfinite(pts).all():
            raise ValueError(f"subdivision points must be finite, got {pts!r}")
        a, b = pts[:-1], pts[1:]
        if not ((a < b).all() or (a > b).all()):
            raise ValueError("points must be strictly monotone from start to end")

    @property
    def start(self) -> float:
        return self.points.item(0)

    @property
    def end(self) -> float:
        return self.points.item(-1)

    @property
    def interior(self) -> np.ndarray:
        return self.points[1:-1]

    @property
    def k(self) -> int:
        """Number of intervals (0 for a degenerate subdivision)."""
        return len(self.points) - 1

    @property
    def span(self) -> float:
        return abs(self.end - self.start)


def regular(s: float, t: float, k: int) -> Subdivision:
    """The regular subdivision with k equal intervals (one point when s == t):
    s + j*(t-s)/k for j = 1..k-1 between the two ends."""
    if k < 1:
        raise ValueError("need k >= 1")
    if s == t:
        return Subdivision((s,))
    pts = np.empty(k + 1)
    pts[0], pts[-1] = s, t
    pts[1:-1] = s + np.arange(1.0, k) * (t - s) / k
    return Subdivision(pts)


def mesh(subdiv: Subdivision) -> float:
    """Largest interval length |b - a|, a plain float (0 for a degenerate subdivision)."""
    pts = subdiv.points
    return np.abs(pts[1:] - pts[:-1]).max().item() if len(pts) > 1 else 0.0


def dyadic_refine(subdiv: Subdivision) -> Subdivision:
    """Insert every interval's midpoint."""
    pts = subdiv.points
    refined = np.empty(2 * len(pts) - 1)
    refined[::2] = pts
    refined[1::2] = (pts[:-1] + pts[1:]) / 2.0
    return Subdivision(refined)


def joint(a: Subdivision, b: Subdivision) -> Subdivision:
    """Coarsest subdivision finer than both (union of points)."""
    if a.start != b.start or a.end != b.end:
        raise EndpointMismatch("joint needs identical endpoints")
    union = np.union1d(a.points, b.points)
    return Subdivision(union[::-1] if a.start > a.end else union)


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
