"""Built-in approximate-flow models.

Translation models (additive and Young), first-order vector-field steps on
the line and the plane, and a flat-connection model on the punctured plane
whose fibers are rotated copies of R^2, lifted to carry their angle.  Each
model ships analytic defect data; probe-based certification never overrides
it.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import InadmissibleRegularity, ModelDomainError
from .flows import MODE_KNITTING, MODE_SEWING, ApproxFlowModel, HoelderData
from .metric import Point, ProbedMap, circle_fiber, euclidean, p_norm, plane_grid, real_line

TAU = 2.0 * math.pi

#: knitting-mode defect constant per term for the midpoint flat connection,
#: certified numerically on the working annulus (radius >= 0.7, chords <= r0)
MIDPOINT_DEFECT_CONSTANT = 3.0

#: error expansion of explicit Euler for smooth fields: integer powers of the
#: step (Gragg 1965; Hairer-Norsett-Wanner, Thm II.8.1); ``sew`` gates each
#: column on the observed ratios, so a longer tuple only allows more columns
EULER_EXPANSION_ORDERS = (1, 2, 3, 4, 5, 6)


# ---------------------------------------------------------------------------
# translation models

def make_additive(
    mu_tilde: Callable[[float, float], float],
    hoelder: HoelderData,
    name: str = "additive",
    probe_n: int = 5,
) -> ApproxFlowModel:
    """Translations x -> x + mu_tilde(s, t); isometries, so L = 0 and g = 1."""
    space = real_line(-1.0, 1.0, probe_n, name=f"{name}-line")

    def mu(s: float, t: float) -> ProbedMap:
        delta = mu_tilde(s, t)
        return ProbedMap(space, space, lambda p, _d=delta: p + _d)

    return ApproxFlowModel(
        name=name,
        space_at=lambda _t: space,
        mu=mu,
        hoelder=hoelder,
        summary=lambda m: m.eval(0.0),
    )


def make_additive_sin(probe_n: int = 5) -> ApproxFlowModel:
    """mu_tilde(s,t) = sin(s)*(t-s); defect |sin u - sin s|*|t-u| <= |u-s||t-u|."""
    h = HoelderData(1.0, ((1.0, 1.0, 1.0),), 0.0, MODE_SEWING)
    return make_additive(lambda s, t: math.sin(s) * (t - s), h, "additive-sin", probe_n)


def make_young(
    x_fn: Callable[[float], float],
    y_fn: Callable[[float], float],
    alpha: float,
    beta: float,
    c_x: float = 1.0,
    c_y: float = 1.0,
    name: str = "young",
    probe_n: int = 5,
) -> ApproxFlowModel:
    """Translation by y(s)*(x(t)-x(s)) for an alpha-Hoelder driver x and
    beta-Hoelder integrand y; admissible only when alpha + beta > 1."""
    eps = alpha + beta - 1.0
    if eps <= 0.0:
        raise InadmissibleRegularity(f"alpha + beta = {alpha + beta} must exceed 1")
    h = HoelderData(eps, ((alpha, beta, c_x * c_y),), 0.0, MODE_SEWING)
    return make_additive(lambda s, t: y_fn(s) * (x_fn(t) - x_fn(s)), h, name, probe_n)


# ---------------------------------------------------------------------------
# one-step vector-field models: mu_st(x) = x + (t-s)*F(x)

def make_euler(
    field: Callable[[Point], Point],
    lipschitz: float,
    dim: int = 1,
    field_bound: float | None = None,
    probe_n: int = 5,
    name: str = "euler",
) -> ApproxFlowModel:
    """First-order steps of a vector field with declared Lipschitz constant.

    The three-point defect constant is Lip(F) times a bound on |F| over the
    probe region (supplied via ``field_bound`` or probed at build time); the
    slope is L = Lip(F), so g(delta) = exp(Lip(F)*delta).  The model declares
    the integer expansion orders ``EULER_EXPANSION_ORDERS``.
    """
    if lipschitz < 0.0:
        raise ValueError("lipschitz must be >= 0")
    if dim == 1:
        space = real_line(-1.0, 1.0, probe_n, name=f"{name}-line")
        add = lambda p, w, c: p + c * w
    elif dim == 2:
        space = plane_grid(1.0, 3, name=f"{name}-plane")
        add = lambda p, w, c: (p[0] + c * w[0], p[1] + c * w[1])
    else:
        raise ValueError("dim must be 1 or 2")
    if field_bound is None:
        field_bound = max(p_norm(field(p)) for p in space.probes)
    h = HoelderData(1.0, ((1.0, 1.0, lipschitz * field_bound),), lipschitz, MODE_SEWING)

    def mu(s: float, t: float) -> ProbedMap:
        dt = t - s
        return ProbedMap(space, space, lambda p, _dt=dt: add(p, field(p), _dt))

    summary = (lambda m: m.eval(1.0)) if dim == 1 else (lambda m: m.eval((1.0, 0.0))[0])
    return ApproxFlowModel(
        name=name,
        space_at=lambda _t: space,
        mu=mu,
        hoelder=h,
        summary=summary,
        expansion_orders=EULER_EXPANSION_ORDERS,
    )


def make_euler_linear(lam: float = 1.0, probe_n: int = 5) -> ApproxFlowModel:
    """mu_st(x) = x + (t-s)*lam*x; sews to x -> exp(lam*(t-s))*x."""
    return make_euler(
        lambda x, _l=lam: _l * x, abs(lam), probe_n=probe_n, name=f"euler-linear({lam})"
    )


def make_euler_sin(probe_n: int = 5) -> ApproxFlowModel:
    """mu_st(x) = x + (t-s)*sin(x); |sin| <= 1 makes the defect constant global."""
    return make_euler(math.sin, 1.0, field_bound=1.0, probe_n=probe_n, name="euler-sin")


def make_euler_matrix(a: Sequence[Sequence[float]]) -> ApproxFlowModel:
    """Linear 2x2 steps; sews to the matrix exponential.  The declared
    Lipschitz constant is the spectral norm of ``a``."""
    (a00, a01), (a10, a11) = (tuple(a[0]), tuple(a[1]))
    # spectral norm of a 2x2 matrix, closed form
    g00 = a00 * a00 + a01 * a01
    g11 = a10 * a10 + a11 * a11
    g01 = a00 * a10 + a01 * a11
    half = 0.5 * (g00 + g11)
    disc = math.sqrt(max(0.0, (0.5 * (g00 - g11)) ** 2 + g01 * g01))
    lipschitz = math.sqrt(max(0.0, half + disc))
    field = lambda p: (a00 * p[0] + a01 * p[1], a10 * p[0] + a11 * p[1])
    return make_euler(field, lipschitz, dim=2, name="euler-matrix")


# ---------------------------------------------------------------------------
# flat connection on the punctured plane

def _wrap_angle(d: float) -> float:
    return math.remainder(d, TAU)


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
        if r0 <= 0.0:
            raise ValueError("r0 must be positive")
        self.variant = variant
        self.r0 = r0
        self.mid_min = 0.7 * r0

    def _check_point(self, p: Point) -> None:
        if math.hypot(p[0], p[1]) < self.r0 - 1e-12:
            raise ModelDomainError(f"point {p} inside the excluded disk of radius {self.r0}")

    def angle(self, x: Point, y: Point) -> float:
        """Signed angle transported from x to y along the straight chord."""
        self._check_point(x)
        self._check_point(y)
        if self.variant == self.EXACT:
            d = _wrap_angle(math.atan2(y[1], y[0]) - math.atan2(x[1], x[0]))
            if abs(d) > math.pi - 1e-9:
                raise ModelDomainError("chord is antipodal: the segment crosses the origin")
            return d
        mx = 0.5 * (x[0] + y[0])
        my = 0.5 * (x[1] + y[1])
        r2 = mx * mx + my * my
        if r2 < self.mid_min * self.mid_min:
            raise ModelDomainError("chord midpoint too close to the origin for the midpoint rule")
        return (mx * (y[1] - x[1]) - my * (y[0] - x[0])) / r2


def make_flat_connection(
    variant: str = FlatConnection.EXACT,
    r0: float = 0.5,
    fiber_probes: int = 8,
) -> ApproxFlowModel:
    """Flat-connection transport as an approximate pair-groupoid action.

    Each ``mu`` rotates the (x, y) part of a lifted fiber point by the
    transported angle and adds that angle to its lift, so the model's
    ``summary``, the lift of (1, 0) at angle 0, reads a composite's
    accumulated angle without reduction mod 2*pi.

    The exact-segment variant has zero defect whenever the triangle spanned
    by the three parameters avoids the origin, so its declared constants are
    zero.  The midpoint variant carries numerically certified knitting-mode
    data with epsilon = 1 and terms (2,1) and (1,2), each with constant
    ``MIDPOINT_DEFECT_CONSTANT``.
    """
    conn = FlatConnection(variant, r0)
    fiber = circle_fiber(fiber_probes, name=f"rot-fiber{fiber_probes}")
    c = 0.0 if variant == FlatConnection.EXACT else MIDPOINT_DEFECT_CONSTANT
    h = HoelderData(1.0, ((2.0, 1.0, c), (1.0, 2.0, c)), 0.0, MODE_KNITTING)

    def mu(x: Point, y: Point) -> ProbedMap:
        theta = conn.angle(x, y)
        co, si = math.cos(theta), math.sin(theta)
        return ProbedMap(fiber, fiber, lambda p, _c=co, _s=si, _t=theta: (
            _c * p[0] - _s * p[1], _s * p[0] + _c * p[1], p[2] + _t))

    return ApproxFlowModel(
        name=f"flat-connection[{variant}]",
        space_at=lambda _x: fiber,
        mu=mu,
        hoelder=h,
        param_metric=euclidean,
        max_param_step=r0,
        summary=lambda m: m.eval((1.0, 0.0, 0.0))[2],
    )
