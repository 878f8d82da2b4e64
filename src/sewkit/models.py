"""Built-in approximate-flow models.

Translation models (additive and Young), first-order vector-field steps on
the line and the plane, and a flat-connection model on the punctured plane
whose fibers are rotated copies of R^2, lifted to carry their angle.  Each
model ships analytic defect data; probe-based certification never overrides
it.
"""
from __future__ import annotations

import dataclasses
import math
from operator import sub
from typing import Callable, Sequence

import numpy as np

from .errors import InadmissibleRegularity, ModelDomainError, NonFiniteValue
from .flows import MODE_KNITTING, MODE_SEWING, ApproxFlowModel, HoelderData, Readout, bound_power
from .metric import (
    MetricSpace,
    Point,
    ProbedMap,
    circle_fiber,
    p_norm,
    plane_grid,
    real_line,
    rotation_map,
    translation_map,
)

TAU = 2.0 * math.pi

_MIDPOINT_TOO_CLOSE = "chord midpoint too close to the origin for the midpoint rule"

#: knitting-mode defect constant per term for the midpoint flat connection at
#: r0 = 0.5, certified numerically on its domain there: points at radius >= r0,
#: chords <= r0 and chord midpoints down to the rule's guard 0.7 * r0 = 0.35.
#: ``make_flat_connection`` declares it times (0.5 / r0)**3 at other r0
MIDPOINT_DEFECT_CONSTANT = 3.0

#: error expansion of explicit Euler for smooth fields: integer powers of the
#: step (Gragg 1965; Hairer-Norsett-Wanner, Thm II.8.1); ``sew`` gates each
#: column on the observed ratios, so a longer tuple only allows more columns.
#: A translation model's composite, the left-endpoint sum
#: sum_i y(s_i) (x(s_{i+1}) - x(s_i)), is explicit Euler for z' = y(s) x'(s),
#: so smooth x and y give it the same orders
EULER_EXPANSION_ORDERS = (1, 2, 3, 4, 5, 6)

#: error expansion of the midpoint flat connection's composites: on a PL path
#: whose corners are subdivision points, a level's lifted angle is a
#: composite midpoint rule on each leg, whose error runs in even powers of the
#: step (Euler-Maclaurin), and so do the rotated (x, y) probe values
MIDPOINT_EXPANSION_ORDERS = (2, 4, 6, 8, 10, 12)


# ---------------------------------------------------------------------------
# translation models

#: the arrays an array function is tried on when a translation model is built
_TRIAL_S = np.array([0.25, 0.75])
_TRIAL_T = _TRIAL_S[::-1]


def _require_array_fn(what: str, fn: Callable[..., np.ndarray], *args: np.ndarray) -> None:
    """Raise ValueError naming ``fn`` unless, called once on the 2-element
    float64 arrays ``args``, it returns a float64 array of their shape: a
    scalar function such as ``math.sin`` fails here, not inside a sew."""
    try:
        out = fn(*args)
    except (TypeError, ValueError) as exc:
        out = exc
    if getattr(out, "dtype", None) != np.float64 or getattr(out, "shape", None) != args[0].shape:
        got = f"{type(out).__name__}: {out}" if isinstance(out, Exception) else repr(out)
        raise ValueError(
            f"{what} {fn!r} must map float64 arrays elementwise to a float64 array "
            f"of their shape; on {len(args)} array(s) of shape {args[0].shape} it gave {got}"
        )


def _translation_model(
    increments_of: Callable[[np.ndarray], np.ndarray],
    hoelder: HoelderData,
    name: str,
    probe_n: int,
) -> ApproxFlowModel:
    """Translations whose increments between consecutive parameters are
    ``increments_of(a)`` over the float64 array a of the parameters, taken
    along its last axis, so an (n, m) array of n stacked chains gives their
    (n, m-1) increments; isometries, so L = 0 and g = 1."""
    space = real_line(-1.0, 1.0, probe_n, name=f"{name}-line")
    return ApproxFlowModel(
        name=name,
        space_at=lambda _t: space,
        hoelder=hoelder,
        summary=Readout(0.0),
        increments=lambda params: increments_of(np.asarray(params, dtype=float)),
        act=translation_map,
    )


def make_additive(
    mu_tilde: Callable[[np.ndarray, np.ndarray], np.ndarray],
    hoelder: HoelderData,
    name: str = "additive",
    probe_n: int = 5,
) -> ApproxFlowModel:
    """Translations x -> x + mu_tilde(s, t); isometries, so L = 0 and g = 1.

    ``mu_tilde`` is an array function: on float64 arrays s and t of one
    shape it returns the float64 array of its values, elementwise.  The
    model's ``increments(params)`` are ``mu_tilde(a[..., :-1], a[..., 1:])``
    over the float64 array a of the parameters, one numpy pass per chain or
    per stack of chains.  A ``mu_tilde`` that is not an array function raises
    ValueError here."""
    _require_array_fn(f"{name}: mu_tilde", mu_tilde, _TRIAL_S, _TRIAL_T)
    return _translation_model(
        lambda a: mu_tilde(a[..., :-1], a[..., 1:]), hoelder, name, probe_n)


def make_additive_sin(probe_n: int = 5) -> ApproxFlowModel:
    """mu_tilde(s,t) = sin(s)*(t-s); defect |sin u - sin s|*|t-u| <= |u-s||t-u|.
    Its composites are explicit Euler for z' = sin(s), so it declares
    ``EULER_EXPANSION_ORDERS``."""
    h = HoelderData(1.0, ((1.0, 1.0, 1.0),), 0.0, MODE_SEWING)
    model = make_additive(lambda s, t: np.sin(s) * (t - s), h, "additive-sin", probe_n)
    return dataclasses.replace(model, expansion_orders=EULER_EXPANSION_ORDERS)


def make_young(
    x_fn: Callable[[np.ndarray], np.ndarray],
    y_fn: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    beta: float,
    c_x: float = 1.0,
    c_y: float = 1.0,
    name: str = "young",
    probe_n: int = 5,
) -> ApproxFlowModel:
    """Translation by y(s)*(x(t)-x(s)) for an alpha-Hoelder driver x and
    beta-Hoelder integrand y; admissible only when alpha + beta > 1.

    ``x_fn`` and ``y_fn`` are array functions, as ``mu_tilde`` is in
    :func:`make_additive`: each is evaluated once per chain on the float64
    array a of its parameters, and the increments are
    ``y[..., :-1] * (x[..., 1:] - x[..., :-1])``, elementwise the scalar
    formula's operations.  A driver that is not an array function raises
    ValueError."""
    eps = alpha + beta - 1.0
    if eps <= 0.0:
        raise InadmissibleRegularity(f"alpha + beta = {alpha + beta} must exceed 1")
    _require_array_fn(f"{name}: x_fn", x_fn, _TRIAL_S)
    _require_array_fn(f"{name}: y_fn", y_fn, _TRIAL_S)
    h = HoelderData(eps, ((alpha, beta, c_x * c_y),), 0.0, MODE_SEWING)

    def increments_of(a: np.ndarray) -> np.ndarray:
        x = x_fn(a)
        return y_fn(a)[..., :-1] * (x[..., 1:] - x[..., :-1])

    return _translation_model(increments_of, h, name, probe_n)


# ---------------------------------------------------------------------------
# one-step vector-field models: mu_st(x) = x + (t-s)*F(x)

def _euler_model(
    lipschitz: float,
    dim: int,
    field_bound: float,
    probe_n: int | None,
    name: str,
    steps: Callable[[Point, Sequence[float]], Point],
    odd: bool = False,
) -> ApproxFlowModel:
    """The Euler model of a field F with the declared ``lipschitz`` and
    ``field_bound``, whose act images a point by ``steps(p, dts)``, the steps
    x + dt*F(x) over ``dts`` in order.  An ``odd`` F's steps image -p to -(image
    of p) bit for bit, as IEEE rounding is symmetric under negation; on a grid
    closed under negation it probes the points p >= -p, whose sup is the grid's."""
    if lipschitz < 0.0:
        raise ValueError("lipschitz must be >= 0")
    if dim == 1:
        space = real_line(-1.0, 1.0, 5 if probe_n is None else probe_n, name=f"{name}-line")
        neg = lambda p: -p
    elif dim == 2:
        space = plane_grid(1.0, 3 if probe_n is None else probe_n, name=f"{name}-plane")
        neg = lambda p: (-p[0], -p[1])
    else:
        raise ValueError("dim must be 1 or 2")
    if odd and set(map(neg, space.probes)) == set(space.probes):
        space = dataclasses.replace(space, probes=tuple(p for p in space.probes if p >= neg(p)))
    h = HoelderData(1.0, ((1.0, 1.0, lipschitz * field_bound),), lipschitz, MODE_SEWING)

    def act(source: MetricSpace, target: MetricSpace, dts: Sequence[float]) -> ProbedMap:
        return ProbedMap(source, target, lambda p: steps(p, dts))

    summary = Readout(1.0) if dim == 1 else Readout((1.0, 0.0), 0)
    return ApproxFlowModel(
        name=name,
        space_at=lambda _t: space,
        hoelder=h,
        summary=summary,
        expansion_orders=EULER_EXPANSION_ORDERS,
        increments=lambda params: np.diff(np.asarray(params, dtype=float)).tolist(),
        act=act,
    )


def make_euler(
    field: Callable[[Point], Point],
    lipschitz: float,
    dim: int = 1,
    *,
    field_bound: float,
    probe_n: int | None = None,
    name: str = "euler",
) -> ApproxFlowModel:
    """First-order steps of a vector field with declared Lipschitz constant.

    The three-point defect constant is Lip(F) times ``field_bound``, the
    caller's bound on |F| over the probe region, which nothing probes; the
    slope is L = Lip(F), so g(delta) = exp(Lip(F)*delta).  The model declares
    the integer expansion orders ``EULER_EXPANSION_ORDERS``.  Its probes are
    ``probe_n`` points of [-1, 1] on the line, or ``probe_n`` per axis of
    [-1, 1]**2 in the plane; None gives 5 on the line and 3 by 3 in the plane.

    Its ``increments`` are the parameter steps as plain floats, and its
    ``act(source, target, dts)`` is one map taking the steps x + dt*F(x) over
    ``dts`` in order, so a chain of k steps composes to one map, not k.  The
    built-in fields (:func:`make_euler_linear`, :func:`make_euler_sin`,
    :func:`make_euler_matrix`) write that loop out, with the same operations
    in the same order, so their images are this act's bit for bit.
    """
    if dim == 1:
        add = lambda p, w, c: p + c * w
    else:  # _euler_model rejects a dim other than 1 or 2
        add = lambda p, w, c: (p[0] + c * w[0], p[1] + c * w[1])

    def steps(p: Point, dts: Sequence[float]) -> Point:
        for dt in dts:
            p = add(p, field(p), dt)
        return p

    return _euler_model(lipschitz, dim, field_bound, probe_n, name, steps)


def make_euler_linear(lam: float = 1.0, probe_n: int = 5) -> ApproxFlowModel:
    """mu_st(x) = x + (t-s)*lam*x, declaring |F| <= |lam|; sews to x -> exp(lam*(t-s))*x."""
    def steps(p: float, dts: Sequence[float]) -> float:
        for dt in dts:
            p = p + dt * (lam * p)
        return p

    return _euler_model(abs(lam), 1, abs(lam), probe_n, f"euler-linear({lam})", steps, True)


def make_euler_sin(probe_n: int = 5) -> ApproxFlowModel:
    """mu_st(x) = x + (t-s)*sin(x); |sin| <= 1 makes the defect constant global."""
    def steps(p: float, dts: Sequence[float]) -> float:
        sin = math.sin
        for dt in dts:
            p = p + dt * sin(p)
        return p

    return _euler_model(1.0, 1, 1.0, probe_n, "euler-sin", steps, True)


def make_euler_matrix(a: Sequence[Sequence[float]]) -> ApproxFlowModel:
    """Linear 2x2 steps; sews to the matrix exponential.  The declared
    Lipschitz constant is the spectral norm of ``a``, and the field bound is
    max |a p| over the 3x3 probe grid of [-1, 1]**2: |a p| is convex in p, so
    its sup over the box is at a corner, and the grid holds the corners."""
    (a00, a01), (a10, a11) = (tuple(a[0]), tuple(a[1]))
    # spectral norm of a 2x2 matrix, closed form
    g00 = a00 * a00 + a01 * a01
    g11 = a10 * a10 + a11 * a11
    g01 = a00 * a10 + a01 * a11
    bad = [n for n, g in (("g00", g00), ("g11", g11), ("g01", g01)) if not math.isfinite(g)]
    if bad:  # named here, before inf - inf would make them NaN
        raise NonFiniteValue(f"Lipschitz constant: row products {', '.join(bad)} overflow a double")
    half = 0.5 * (g00 + g11)
    disc = math.sqrt(max(0.0, bound_power(0.5 * (g00 - g11), 2, "Lipschitz constant") + g01 * g01))
    lipschitz = math.sqrt(max(0.0, half + disc))
    grid = (-1.0, 0.0, 1.0)  # plane_grid(1.0, 3)'s axis
    # the whole grid, not the corners alone: rounding can put the max 1 ulp off a corner
    field_bound = max(p_norm((a00 * x + a01 * y, a10 * x + a11 * y)) for x in grid for y in grid)

    def steps(p: Point, dts: Sequence[float]) -> Point:
        x, y = p
        for dt in dts:
            x, y = x + dt * (a00 * x + a01 * y), y + dt * (a10 * x + a11 * y)
        return (x, y)

    return _euler_model(lipschitz, 2, field_bound, None, "euler-matrix", steps, True)


# ---------------------------------------------------------------------------
# flat connection on the punctured plane

def _wrap_angle(d: float) -> float:
    return math.remainder(d, TAU)


def _exact_segment_angles(points: Sequence[Point]) -> list[float]:
    """The wrapped differences of the endpoints' ``math.atan2`` polar angles
    along the chords of one chain; a chord through the origin raises."""
    theta = [math.atan2(p[1], p[0]) for p in points]
    out = list(map(_wrap_angle, map(sub, theta[1:], theta)))
    if any(abs(d) > math.pi - 1e-9 for d in out):
        raise ModelDomainError("chord is antipodal: the segment crosses the origin")
    return out


class FlatConnection:
    """Rotation-fiber transport over the plane minus a disk of radius r0.

    The transported angle along a straight chord is the integral of the
    winding one-form (x dy - y dx)/(x^2+y^2), either exactly (the wrapped
    polar-angle difference of the endpoints, zero curvature off the origin)
    or by the midpoint quadrature rule, which leaves an O(|chord|^3) defect
    satisfying a strong four-point estimate of total degree 3.
    """

    EXACT = "exact-segment"
    MIDPOINT = "midpoint"

    def __init__(self, variant: str = EXACT, r0: float = 0.5):
        if variant not in (self.EXACT, self.MIDPOINT):
            raise ValueError(f"unknown variant {variant!r}")
        if not (0.0 < r0 < math.inf):  # a NaN fails too
            raise ValueError(f"r0 must be positive and finite, got {r0!r}")
        self.variant = variant
        self.r0 = r0
        self.mid_min = 0.7 * r0
        if self.mid_min * self.mid_min == 0.0:
            # the midpoint rule's squared-radius guard would then never fire
            raise ValueError(f"r0 = {r0!r} is too small: the squared midpoint radius underflows")

    def _check_point(self, p: Point) -> None:
        if math.hypot(p[0], p[1]) < self.r0 - 1e-12:
            raise ModelDomainError(f"point {p} inside the excluded disk of radius {self.r0}")

    def _check_points(self, points: np.ndarray) -> None:
        """``_check_point`` on every point of an array of points along its
        last axis, screened in one pass with a margin far above the rounding
        of x*x + y*y against ``math.hypot``; each hit is confirmed by
        ``_check_point`` in row order, so exactly the points ``math.hypot``
        rejects raise, named by plain floats."""
        lim = self.r0 - 1e-12
        x, y = points[..., 0], points[..., 1]
        for i in zip(*(x * x + y * y < lim * lim * (1.0 + 1e-9)).nonzero()):
            self._check_point(tuple(points[i].tolist()))

    def angles(self, points: Sequence[Point] | np.ndarray) -> list:
        """Signed angles transported along the chords between consecutive
        points, as plain floats; each point is checked once.

        The points are taken as one float array: an (m, 2) chain (a single
        chord from ``mu``, a path sampled by ``LipPath.sample``, a knit row
        or ladder) gives its m-1 angles, and an (n, m, 2) stack of n chains
        the n lists of their angles.  The midpoint rule runs as one array
        pass.  The exact-segment variant takes ``math.atan2`` of each point,
        since ``np.arctan2`` can differ from it in the last bit.
        """
        points = np.asarray(points, dtype=float)
        self._check_points(points)
        if self.variant == self.EXACT:
            rows = points.tolist()
            if points.ndim > 2:
                return list(map(_exact_segment_angles, rows))
            return _exact_segment_angles(rows)
        head, tail = points[..., :-1, :], points[..., 1:, :]
        mx = 0.5 * (head[..., 0] + tail[..., 0])
        my = 0.5 * (head[..., 1] + tail[..., 1])
        r2 = mx * mx + my * my
        if (r2 < self.mid_min * self.mid_min).any():
            raise ModelDomainError(_MIDPOINT_TOO_CLOSE)
        num = mx * (tail[..., 1] - head[..., 1]) - my * (tail[..., 0] - head[..., 0])
        return (num / r2).tolist()


def make_flat_connection(
    variant: str = FlatConnection.EXACT,
    r0: float = 0.5,
    fiber_probes: int = 8,
) -> ApproxFlowModel:
    """Flat-connection transport as an approximate pair-groupoid action.

    Each ``mu`` rotates the (x, y) part of a lifted fiber point by the
    transported angle and adds that angle to its lift, so the model's
    ``summary``, the lift of (1, 0) at angle 0, reads a composite's
    accumulated angle without reduction mod 2*pi.  The structure group is
    abelian, so the model declares the angles along a chain as its
    ``increments`` and :func:`~sewkit.metric.rotation_map` as its ``act``:
    a chain composes to one rotation by the summed angle, whose lift is the
    chain's bit for bit and whose (x, y) part is the chain's to rounding.

    The exact-segment variant has zero defect whenever the triangle spanned
    by the three parameters avoids the origin, so its declared constants are
    zero.  The midpoint variant carries numerically certified knitting-mode
    data with epsilon = 1 and terms (2,1) and (1,2), each with constant
    C(r0) = ``MIDPOINT_DEFECT_CONSTANT`` * (0.5 / r0)**3, and declares the
    even expansion orders ``MIDPOINT_EXPANSION_ORDERS``; the exact-segment
    variant declares none.

    C(r0) follows from dilation: the winding form is invariant under
    p -> lam * p, so scaling r0 and every point by lam leaves each
    transported angle, and so every measured distance, unchanged, while each
    declared term C * d**a * d**b with a + b = 3 scales by lam**3.  The
    constant certified at r0 = 0.5 therefore holds at r0 = 0.5 * lam as
    C / lam**3; at the default r0 it is ``MIDPOINT_DEFECT_CONSTANT`` itself.
    """
    conn = FlatConnection(variant, r0)
    fiber = circle_fiber(fiber_probes, name=f"rot-fiber{fiber_probes}")
    c = 0.0 if variant == FlatConnection.EXACT else MIDPOINT_DEFECT_CONSTANT * bound_power(
        0.5 / r0, 3.0, "midpoint defect constant")
    h = HoelderData(1.0, ((2.0, 1.0, c), (1.0, 2.0, c)), 0.0, MODE_KNITTING)

    return ApproxFlowModel(
        name=f"flat-connection[{variant}]",
        space_at=lambda _x: fiber,
        hoelder=h,
        max_param_step=r0,
        summary=Readout((1.0, 0.0, 0.0), 2),
        expansion_orders=() if variant == FlatConnection.EXACT else MIDPOINT_EXPANSION_ORDERS,
        increments=conn.angles,
        act=rotation_map,
    )
