"""Extended metric spaces, probed maps, their composition and sup distance.

Distances are floats and may be ``math.inf`` (extended metric); a NaN is
never a distance and raises :class:`NonFiniteValue`.  Sup distances between
maps are approximated from finite probe sets, so every probed distance is a
lower bound for the true one; analytic upper bounds always come from
declared model data, never from here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import DomainMismatch, NonFiniteValue

Point = Any  # a float, or a tuple of floats


# ---------------------------------------------------------------------------
# point helpers (floats and tuples share one code path)

def p_norm(a: tuple[float, ...]) -> float:
    """Euclidean norm of a tuple point, as the square root of the sum of squares."""
    return math.sqrt(sum(x * x for x in a))


def planar(a: Point, b: Point) -> float:
    """``math.hypot`` of the differences of the first two coordinates: the
    distance of lifted points (x, y, phi), which sees only (x, y)."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def euclidean(a: Point, b: Point) -> float:
    """|a - b| for numbers, else ``math.dist``: in the plane the bits of
    ``math.hypot`` of the differences; points of unequal dimension raise."""
    if isinstance(a, (float, int)):
        return abs(a - b)
    return math.dist(a, b)


def distances(a, b) -> list[float]:
    """``euclidean(a[i], b[i])`` for every row i of two (n,) or (n, d) arrays,
    as plain floats with its bits: the differences in one numpy pass, an
    overflowing one ``inf`` without a warning as in ``math.dist``, then
    ``math.hypot`` of each row, which shares ``math.dist``'s norm routine
    and is the absolute value of one number.  ``np.hypot`` can differ from
    it in the last bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.subtract(a, b)
    return list(map(math.hypot, *np.atleast_2d(diff.T).tolist()))


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


def translation_map(source: MetricSpace, target: MetricSpace, shifts: Sequence[float]) -> ProbedMap:
    """The translation p -> p + shifts[0] + shifts[1] + ..., added one at a
    time in this order: the image of p is the last entry of
    ``np.add.accumulate`` over [p, *shifts], as a plain float.

    A chain of translations by d_1, ..., d_k, the last one acting first, is
    ``translation_map(source, target, (d_k, ..., d_1))`` bit for bit: the
    accumulation is sequential, so the additions run in the chain's order.
    ``np.sum`` (pairwise), ``sum`` (compensated on newer Pythons) and
    ``math.fsum`` would round differently.
    """
    seq = np.empty(len(shifts) + 1)
    seq[1:] = shifts

    def shift(p: Point) -> float:
        acc = seq.copy()
        acc[0] = p
        return np.add.accumulate(acc, out=acc).item(-1)

    return ProbedMap(source, target, shift)


def rotation_map(source: MetricSpace, target: MetricSpace, shifts: Sequence[float]) -> ProbedMap:
    """On lifted points (x, y, phi), the rotation of (x, y) by
    theta = shifts[0] + shifts[1] + ..., with phi carried to
    phi + shifts[0] + shifts[1] + ..., added one at a time in this order.

    Rotations commute, so a chain of rotations by d_1, ..., d_k, the last one
    acting first, is ``rotation_map(source, target, (d_k, ..., d_1))``: phi
    bit for bit, as in :func:`translation_map`; (x, y) to rounding, since
    it is rotated once by the summed angle instead of k times.
    """
    theta = reduce(add, shifts)
    co, si = math.cos(theta), math.sin(theta)
    return ProbedMap(source, target, lambda p: (
        co * p[0] - si * p[1], si * p[0] + co * p[1], reduce(add, shifts, p[2])))


# ---------------------------------------------------------------------------
# stacked image passes of the closed-form acts: row i of ``shifts`` (an (n, k)
# float64 array) is the ``shifts`` of one map, and every probe is imaged under
# all n maps at once with the operations of the single map

def translation_images(probes: Sequence[float], shifts: np.ndarray) -> np.ndarray:
    """The (n, P) images of the probes under ``translation_map(..., shifts[i])``
    for each row i, bit for bit: one sequential ``np.add.accumulate`` over the
    (n, P, k+1) array of every probe followed by its row's shifts."""
    n, k = shifts.shape
    acc = np.empty((n, len(probes), k + 1))
    acc[:, :, 0] = probes
    acc[:, :, 1:] = shifts[:, None, :]
    return np.add.accumulate(acc, axis=2)[:, :, -1]


def rotation_images(probes: Sequence[Point], shifts: np.ndarray) -> np.ndarray:
    """The (x, y) parts of the probe images under ``rotation_map(..., shifts[i])``
    for each row i, as one (n, P, 2) array, bit for bit: each row's angle
    summed in order by a sequential ``np.add.accumulate`` (0.0 for a row of no
    shifts, whose images are the probes'), its cosine and sine by ``math``,
    then the rotation's products and sums elementwise."""
    n, k = shifts.shape
    theta = np.add.accumulate(shifts, axis=1)[:, -1].tolist() if k else [0.0] * n
    co = np.array(list(map(math.cos, theta)))[:, None]
    si = np.array(list(map(math.sin, theta)))[:, None]
    px, py = np.asarray(probes, dtype=float)[:, :2].T
    return np.stack((co * px - si * py, si * px + co * py), axis=-1)


# ---------------------------------------------------------------------------
# probed sup distance

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
    return MetricSpace(name or f"plane-circle{n}", planar, probes)
