"""Defect data and the approximate-flow model interface.

A model supplies, for parameters a and b (real times, or points of a metric
parameter space), a probed map mu(a, b) from the space at b to the space at a,
derived from the increments between parameters and how they act, together
with declared defect data: exponents/constants of the three-point
(or strong four-point) estimate and a Lipschitz slope L with
Lip(mu) <= 1 + L*d, so that g(delta) = exp(L*delta) bounds Lipschitz
constants of composites.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .errors import NonFiniteValue, WrongMode
from .metric import MetricSpace, Point, ProbedMap

MODE_SEWING = "sewing"      # exponents satisfy a + b = 1 + epsilon
MODE_KNITTING = "knitting"  # exponents satisfy a + b = 2 + epsilon

Param = Any  # a real time, or a point of the parameter space

#: the largest expansion order p for which 2**p, and so 2**-p, is a finite double
_MAX_ORDER = 1023


def bound_power(base: float, exponent: float, what: str) -> float:
    """``base**exponent`` inside the declared bound ``what``.

    Raises :class:`NonFiniteValue` naming the bound when the power overflows
    a double or is not finite, as :meth:`HoelderData.g` does for exp: no
    double holds such a bound, so it certifies nothing.
    """
    try:
        value = base**exponent
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonFiniteValue(f"{what}: {base!r}**{exponent!r} is not a finite double")
    return value


@dataclass(frozen=True)
class HoelderData:
    """Declared defect exponents/constants plus Lipschitz controls.

    ``terms`` is a tuple of (a_i, b_i, C_i).  In sewing mode each pair must
    satisfy a_i + b_i = 1 + epsilon, in knitting mode a_i + b_i = 2 + epsilon.
    ``lip_slope`` is the L of f(delta) = L*delta; the composite-Lipschitz
    bound is g(delta) = exp(L*delta), which is what a linear slope gives.
    """

    epsilon: float
    terms: tuple[tuple[float, float, float], ...]
    lip_slope: float = 0.0
    mode: str = MODE_SEWING

    def __post_init__(self):
        declared = (self.epsilon, self.lip_slope, *(x for term in self.terms for x in term))
        if any(map(math.isnan, declared)):  # NaN passes every comparison below
            raise ValueError(f"declared defect data must not be NaN, got {self!r}")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.mode not in (MODE_SEWING, MODE_KNITTING):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.terms:
            raise ValueError("need at least one defect term")
        if self.lip_slope < 0.0:
            raise ValueError("lip_slope must be >= 0")
        for a, b, c in self.terms:
            if a <= 0.0 or b <= 0.0 or c < 0.0:
                raise ValueError("terms need a,b > 0 and C >= 0")
            if abs(a + b - self.degree) > 1e-9:
                raise ValueError(
                    f"term exponents {a}+{b} != {self.degree} required by {self.mode} mode"
                )

    @property
    def degree(self) -> float:
        return (1.0 if self.mode == MODE_SEWING else 2.0) + self.epsilon

    @property
    def c_total(self) -> float:
        return sum(c for _, _, c in self.terms)

    def g(self, delta: float) -> float:
        """Growth bound exp(L*delta) for composite Lipschitz constants.

        Raises :class:`NonFiniteValue` when exp(L*delta) is not a finite
        double (it overflows, or L or delta is not finite), as
        :func:`bound_power` does for the powers in the declared bounds.
        """
        if delta < 0.0:
            raise ValueError("growth argument must be >= 0")
        if self.lip_slope == 0.0:
            return 1.0
        try:
            value = math.exp(self.lip_slope * delta)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise NonFiniteValue(
                f"growth bound exp({self.lip_slope!r} * {delta!r}) is not a finite double"
            )
        return value

    def f(self, delta: float) -> float:
        """Single-step Lipschitz excess, f(delta) = L*delta."""
        return self.lip_slope * abs(delta)

    def pulled_back(self, lip: float) -> "HoelderData":
        """Defect data of the flow pulled back along a path of Lipschitz norm lip.

        Constants rescale by lip**(a_i+b_i), the slope by lip.  Knitting-mode
        data turns into sewing-mode data one order higher (a+b = 2+eps reads
        as 1 + (eps+1)).
        """
        if lip < 0.0:
            raise ValueError("lip must be >= 0")
        terms = tuple(
            (a, b, c * bound_power(lip, a + b, "pulled-back defect constant"))
            for a, b, c in self.terms
        )
        eps = self.epsilon + 1.0 if self.mode == MODE_KNITTING else self.epsilon
        return HoelderData(eps, terms, self.lip_slope * lip, MODE_SEWING)

    def require_mode(self, mode: str, what: str) -> None:
        if self.mode != mode:
            raise WrongMode(f"{what} needs {mode}-mode defect data, got {self.mode}")

    def defect_bound(self, d_first: float, d_second: float) -> float:
        """Three-point bound: sum_i C_i * d_first**a_i * d_second**b_i."""
        return sum(c * d_first**a * d_second**b for a, b, c in self.terms)

    def four_point_bound(self, d_us: float, d_tv: float, d_uv: float) -> float:
        """Strong four-point bound on d(mu_su o mu_ut, mu_sv o mu_vt):
        (1 + f(d_us)) * sum_i C_i d_tv**a_i d_uv**b_i + sum_i C_i d_us**b_i d_uv**a_i."""
        near = self.defect_bound(d_tv, d_uv)
        return (1.0 + self.f(d_us)) * near + sum(c * d_us**b * d_uv**a for a, b, c in self.terms)


@dataclass(frozen=True)
class Readout:
    """A summary that reads a flow map's image of ``point``, or coordinate
    ``coord`` of that image, which ``sew`` reads from its probe values
    (``point`` joins the source probes when it is none of them)."""

    point: Point
    coord: int | None = None

    def read(self, image: Point) -> float:
        return image if self.coord is None else image[self.coord]


@dataclass(frozen=True)
class ApproxFlowModel:
    """A local approximate flow over an interval or a metric parameter space.

    A model declares ``space_at``, ``hoelder``, ``increments`` and ``act``.
    ``increments(params)`` gives the increments between consecutive
    parameters as ``act`` takes them (a float64 array for translations, plain
    floats for the flat connection's angles and the Euler steps), and
    ``act(source, target, increments)`` is the one map they compose to (a
    translation, a rotation, a run of Euler steps).  ``mu(a, b)``, from the
    space at b to the space at a and the identity when a == b, is derived as
    ``act(space_at(b), space_at(a), increments((a, b)))`` unless passed; a
    ``dataclasses.replace`` of those fields keeps the old ``mu`` unless it
    passes ``mu=None``.  The parameter metric is ``metric.euclidean``.

    When ``act`` is ``translation_map`` or ``rotation_map``, ``increments``
    may also take n stacked chains of m parameters, an (n, m) or (n, m, 2)
    array, and give their (n, m - 1) increments, one row per chain:
    ``chain_distances`` then measures all n chains in one array pass.
    ``increments`` that take one chain only are measured one chain at a time:
    on stacked rows they raise TypeError, IndexError or ValueError, or give
    another shape.

    ``max_param_step`` is used by ``sew`` alone, to choose its base level:
    the regular base subdivision is doubled until no step exceeds it.  Knit
    rows, certify chains and ``mu`` itself may take longer steps;
    ``summary`` is the :class:`Readout` of a flow map that ``sew``
    records per level, or None; anything else raises ValueError;
    ``expansion_orders`` are the powers p_1 < p_2 < ... of the step in an
    asymptotic error expansion of the composites, which ``sew`` removes by
    Richardson columns (1, 2, 3, ... for Euler steps of smooth fields).
    They must increase strictly within (0, 1023], so that every 2**p and
    2**-p is a finite positive double; other orders raise ValueError.
    """

    name: str
    space_at: Callable[[Param], MetricSpace]
    hoelder: HoelderData
    increments: Callable[[Sequence[Param]], Sequence[float]]
    act: Callable[[MetricSpace, MetricSpace, Sequence[float]], ProbedMap]
    mu: Callable[[Param, Param], ProbedMap] | None = None
    max_param_step: float | None = None
    summary: Readout | None = None
    expansion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        orders = self.expansion_orders
        # a NaN or infinite order fails the range test too
        if not (all(0 < p <= _MAX_ORDER for p in orders)
                and all(p < q for p, q in zip(orders, orders[1:]))):
            raise ValueError(f"expansion_orders of {self.name} must increase strictly "
                             f"within (0, {_MAX_ORDER}], got {orders!r}")
        if self.summary is not None and not isinstance(self.summary, Readout):
            # sew reads a summary off the probe values, which only a Readout names
            raise ValueError(f"summary of {self.name} must be a Readout or None, "
                             f"got {self.summary!r}")
        if self.mu is None:
            # closes over the fields, not self, so the model holds no reference cycle
            space_at, increments, act = self.space_at, self.increments, self.act
            object.__setattr__(
                self, "mu", lambda a, b: act(space_at(b), space_at(a), increments((a, b)))
            )
