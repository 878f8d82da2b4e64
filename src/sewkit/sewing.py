"""The sewing engine: composites over subdivisions, refinement to the limit
flow, explicit constants, and the inverse and four-point checks.

``sew`` iterates dyadic refinement of a regular base subdivision.  Raw
successive distances obey the refinement (mesh) bound and decay like
mesh**epsilon; a Richardson table over the levels (declared error orders,
else one observed-ratio geometric-tail column) supplies the returned limit
map and its error estimate, and raw and extrapolated quantities are recorded
separately in the certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    BoundViolation,
    ModelDomainError,
    NonConvergence,
    NonFiniteValue,
)
from .flows import MODE_SEWING, ApproxFlowModel, HoelderData, Param, bound_power
from .metric import (
    Point,
    ProbedMap,
    compose,
    distances,
    euclidean,
    identity_map,
    map_distance_value,
    planar,
    rotation_images,
    rotation_map,
    sup_distance,
    translation_images,
    translation_map,
)
from .metric import compose_chain  # unused here: kept for perfbench/tracer.py, which patches it
from .subdivision import Subdivision, dyadic_refine, mesh, regular

#: additive slack absorbing float rounding in certified inequalities
BOUND_SLACK = 1e-9

#: ratios above this are treated as stalled (no extrapolation)
MAX_CONTRACTION = 0.95

#: a declared Richardson column is used only while the observed ratio of the
#: column below it is within this relative band of 2**-order
ORDER_RATIO_BAND = 0.25

#: refinement levels a sew may add to its base subdivision unless told otherwise
MAX_LEVEL = 20


def within_bound(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + BOUND_SLACK * (1.0 + rhs)


def check_bound(measured: float, bound: float, what: str) -> None:
    """Raise :class:`BoundViolation`, as "{what}: {measured} exceeds {bound}",
    unless ``within_bound(measured, bound)``: every certified inequality of
    the package fails through here."""
    if not within_bound(measured, bound):
        raise BoundViolation(f"{what}: {measured:.3e} exceeds {bound:.3e}")


#: Euler-Maclaurin coefficients B_2k / (2k)! for k = 1..5 (B2..B10)
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0, 1.0 / 47900160.0)

#: zeta sums its first N - 1 terms directly, then the Euler-Maclaurin tail from N
_ZETA_N = 20


@lru_cache(maxsize=None)
def zeta(s: float) -> float:
    """Riemann zeta by Euler-Maclaurin summation, at a cost independent of s.

    zeta(s) = sum_{j<N} j**-s + N**(1-s)/(s-1) + N**-s/2
    + sum_{k=1..5} B_2k/(2k)! * s(s+1)...(s+2k-2) * N**(1-s-2k) + R, N = 20.
    Since x**-s is completely monotone, |R| is below the first omitted (B12)
    term, |B12|/12! * s(s+1)...(s+10) * N**(-s-11) <= 5.2e-18 for all s > 1
    (it shrinks by (s+11)/(N*s) <= 0.6 per unit of s, so peaks in (1, 2]).
    Non-finite s and s <= 1 raise ValueError.
    """
    if not math.isfinite(s):
        raise ValueError(f"zeta needs a finite s, got s={s!r}")
    if s <= 1.0:
        raise ValueError("zeta diverges for s <= 1")
    n = _ZETA_N
    # f runs through s(s+1)...(s+2k-2) * n**(1-s-2k); multiplied left to
    # right, a vanishing n**-s is never met by an overflowing factor
    head = n**-s
    f = head * (s / n)
    corrections = []
    for k, c in enumerate(_EM_COEFFS):
        corrections.append(c * f)
        f = f * ((s + 2 * k + 1) / n) * ((s + 2 * k + 2) / n)
    direct = [j**-s for j in range(1, n)]
    return math.fsum(direct + [n ** (1.0 - s) / (s - 1.0), head / 2.0] + corrections)


def constant_K(h: HoelderData) -> float:
    """K = 2**(1+eps) * (sum C_i) * zeta(1+eps), sewing mode only."""
    h.require_mode(MODE_SEWING, "constant_K (the degree 2+eps variant lives in knitting)")
    return bound_power(2.0, 1.0 + h.epsilon, "constant K") * h.c_total * zeta(1.0 + h.epsilon)


def refinement_bound(h: HoelderData, span: float, mesh_value: float) -> float:
    """Bound on d(mu^I, mu^J) for any J finer than I with mesh(I)=mesh_value."""
    if mesh_value == 0.0:
        return 0.0
    power = bound_power(mesh_value, h.epsilon, "refinement bound")
    return constant_K(h) * h.g(span) * h.g(mesh_value) * power * span


def corollary_bound(h: HoelderData, span: float) -> float:
    """Bound on d(mu_st, limit flow): K * g(span) * span**(1+eps)."""
    return constant_K(h) * h.g(span) * bound_power(span, 1.0 + h.epsilon, "corollary bound")


# ---------------------------------------------------------------------------
# composites

def compose_along(model: ApproxFlowModel, params: Sequence[Param]) -> ProbedMap:
    """mu(p_0, p_1) o mu(p_1, p_2) o ... o mu(p_{k-1}, p_k) along the parameters.

    This is the one chain runner: sew levels pass their subdivision's points
    (a float64 array), knit rows and ladders pass net nodes, and
    ``chain_distances`` passes the short sample rows, such as (s, u, t), of
    a model it measures row by row.  A single parameter
    p gives mu(p, p).  Longer chains compose to one ``model.act`` over
    ``increments(params)`` reversed, in the order the chain of its maps
    applies them (last interval first), so no map is built per interval: a
    translation's values are the chain's bit for bit, a rotation's lifted
    angle and an Euler chain's values too.
    """
    if len(params) == 1:
        return model.mu(params[0], params[0])
    return model.act(
        model.space_at(params[-1]), model.space_at(params[0]), model.increments(params)[::-1]
    )


def _with_point(probes: tuple[Point, ...], point: Point) -> tuple[tuple[Point, ...], int]:
    """The probes, with ``point`` appended unless one is ``point`` bit for
    bit, and its index: repr tells -0.0 from 0.0 and 1 from 1.0, which
    compare equal but may have images that print differently."""
    key = repr(point)
    i = next((i for i, p in enumerate(probes) if repr(p) == key), len(probes))
    return (probes if i < len(probes) else probes + (point,)), i


def _sup_distance(metric, xs: Sequence[Point], ys: Sequence[Point], what: str) -> float:
    """Largest probe-wise distance of a sewing quantity, which must be finite:
    an infinite one raises NonFiniteValue, as a NaN does in ``sup_distance``."""
    d = sup_distance(metric, xs, ys, what)
    if d == math.inf:
        raise NonFiniteValue(f"{what}: infinite probe distance")
    return d


# ---------------------------------------------------------------------------
# the sewing iteration

@dataclass(frozen=True)
class SewLevel:
    level: int
    intervals: int
    mesh: float
    successive: float | None          # raw distance to the previous level
    accel_successive: float | None    # distance between successive limit estimates
    refine_bound: float               # bound the raw successive distance must obey
    value: float | None               # model.summary of the raw composite, if declared


@dataclass
class SewCertificate:
    """Record of one sewing run.

    ``claimed_bound`` is K*g(span)*span**(1+eps); ``mu_distance`` the probed
    distance from mu(s,t) to the returned limit estimate, with
    ``tail_estimate`` the residual tail beyond the finest level (the sum of
    the extrapolation column corrections) reported separately.
    ``mu_distance`` is None when the model cannot evaluate mu(s,t) directly;
    a converged certificate with a ``mu_distance`` has passed the check
    ``mu_distance + tail_estimate <= claimed_bound``, since a failing one raises.
    ``extrapolation_orders`` lists the Richardson columns behind the returned
    limit: declared orders, or ``(0,)`` for the observed-ratio geometric
    tail; it is empty when the raw finest composite is returned.
    All g-dependent bounds are conditional on the declared slope L, through
    g(delta) = exp(L*delta).
    """

    K: float
    epsilon: float
    levels: list[SewLevel]
    claimed_bound: float
    tail_estimate: float
    mu_distance: float | None
    converged: bool
    stop_reason: str
    final_subdivision: Subdivision
    ratio_estimate: float | None
    limit_value: float | None
    extrapolation_orders: tuple[int, ...] = ()


def _auto_base_k(model: ApproxFlowModel, span: float) -> int:
    """Intervals of the regular base subdivision: 1, doubled while a step
    exceeds the model's ``max_param_step``.  Raises :class:`NonConvergence`
    once it would pass 2**MAX_LEVEL, before any level is built."""
    k = 1
    step = model.max_param_step
    if step is not None and step > 0.0 and span > 0.0:
        while span / k > step:
            if k == 2**MAX_LEVEL:
                raise NonConvergence(
                    f"base level of {model.name} needs more than 2**{MAX_LEVEL} intervals "
                    f"of at most {step!r} over span {span!r}"
                )
            k *= 2
    return k


def _romberg_row(
    prev_row: Sequence[tuple[Point, ...]], vals: tuple[Point, ...], coefs: Sequence[float]
) -> list[tuple[Point, ...]]:
    """Next row of a Richardson table: the raw values, then one step
    T[i][j+1] = T[i][j] + coefs[j] * (T[i][j] - T[i-1][j]) per column the
    previous row carries (coef = r/(1-r) removes an error term of ratio r),
    per coordinate when the values are tuples."""
    row = [vals]
    points = isinstance(vals[0], tuple)
    for j, cf in enumerate(coefs[: len(prev_row)]):
        row.append(tuple(tuple(x + cf * (x - y) for x, y in zip(b, a)) if points
                         else b + cf * (b - a) for b, a in zip(row[j], prev_row[j])))
    return row


def _column_coefs(orders: Sequence[int], rho: float | None) -> tuple[float, ...]:
    """r/(1-r) per Richardson column: r = 2**-order, or the observed ratio rho
    for order 0 (the geometric-tail column)."""
    return tuple(r / (1.0 - r) for r in (rho if p == 0 else 2.0**-p for p in orders))


def _order_ratio_ok(diff: float, prev_diff: float, order: int) -> bool:
    """Whether successive column differences shrink by 2**-order, within the band."""
    return prev_diff > 0.0 and abs(diff / prev_diff * 2.0**order - 1.0) <= ORDER_RATIO_BAND


def sew(
    model: ApproxFlowModel,
    s: float,
    t: float,
    tol: float,
    max_level: int = MAX_LEVEL,
) -> tuple[ProbedMap, SewCertificate]:
    """Sew the approximate flow between s and t into its limit flow map.

    Starting from the trivial subdivision (refined to a regular one while
    the model caps its parameter step below the span), composites over
    dyadic refinements are compared level to level.  Iteration stops when the
    best limit estimate moves less than tol from the previous level's, or when
    the a-priori refinement bound at the current mesh is already below tol.
    With tol <= 0 the full ladder up to max_level is run, short of double resolution.

    The best estimate at each level comes from a Richardson table over the
    levels.  Column j+1 removes the declared error order
    ``model.expansion_orders[j]`` while the observed ratio of column-j
    differences matches 2**-order within ``ORDER_RATIO_BAND``.  When the
    first declared column does not pass, or the model declares no orders, a
    single column with the observed ratio of raw differences (below
    ``MAX_CONTRACTION``) is used: the geometric tail.

    Returns the limit map (the same column steps applied to the finest
    composites) and a :class:`SewCertificate`, which records the model's
    ``summary`` of each level's composite and of the limit map when the
    model declares one.  The summary's point is imaged and measured with
    the probes, as one more when it is not a probe, so every value the
    certificate reports is one the stop rule has seen.  Raises
    :class:`NonConvergence` carrying the certificate when max_level is hit
    (tol > 0) or, at any tol, when the next level's midpoints round onto
    the ends of their intervals or the next level would pass 2**MAX_LEVEL
    intervals, the cap on the base level too,
    :class:`BoundViolation` if a recorded distance exceeds its bound, and
    :class:`NonFiniteValue` if any probed distance is NaN or infinite.  A NaN
    tol or a negative max_level raises ValueError before any level is built.
    """
    if math.isnan(tol) or max_level < 0:
        raise ValueError(f"sew needs a tol that is not NaN and max_level >= 0, "
                         f"got tol={tol!r}, max_level={max_level!r}")
    h = model.hoelder
    h.require_mode(MODE_SEWING, "sew (pull knitting-mode models back along a path first)")
    span = abs(t - s)
    source = model.space_at(t)
    target = model.space_at(s)
    metric = target.metric
    orders = model.expansion_orders
    declared_coefs = _column_coefs(orders, None)

    summary = model.summary
    probes, slot = source.probes, None
    if summary is not None:  # the value it reports is measured: off the probes too
        probes, slot = _with_point(probes, summary.point)

    def level_value(vals: tuple[Point, ...]) -> float | None:
        """The summary of a map whose probe images are vals: its slot of vals."""
        return None if summary is None else summary.read(vals[slot])

    subdiv = regular(s, t, _auto_base_k(model, span))
    levels: list[SewLevel] = []
    # the finest composites, enough for the deepest table column, back the limit map
    composites: list[ProbedMap] = []
    keep = max(len(orders), 1) + 1
    prev_diffs: list[float] = []
    rho: float | None = None
    coefs: tuple[float, ...] = ()
    used: tuple[int, ...] = ()
    tail = math.inf
    converged = False
    reason = ""
    unresolved = ""  # why the ladder ended below max_level, if it did
    level = 0
    while True:
        step = mesh(subdiv)
        bound = refinement_bound(h, span, step)
        if level == 0:
            # level 0 records its own bound, each later level the one before it;
            # the claimed bound after it, so a span overflowing both names this one
            bound_prev = bound
            claimed = corollary_bound(h, span)
        if not (math.isfinite(bound) and math.isfinite(claimed)):
            # the powers are finite, so a product of declared constants overflowed
            raise NonFiniteValue(
                f"declared bounds of {model.name} over span {span!r} overflow a double"
            )
        composite = compose_along(model, subdiv.points)
        composites = (composites + [composite])[-keep:]
        vals = tuple(map(composite.eval, probes))
        if level == 0:
            row, best = [vals], vals
            d = d_best = None
            extrapolated = False
        else:
            prev_row, row = row, _romberg_row(row, vals, declared_coefs)
            diffs = [
                _sup_distance(metric, a, b, f"column {j}, level {level} of {model.name}")
                for j, (a, b) in enumerate(zip(prev_row, row))
            ]
            d = diffs[0]
            check_bound(d, bound_prev,
                        f"successive distance at level {level} of {model.name}, refinement bound")
            if d == 0.0:
                rho = 0.0
            elif prev_diffs and prev_diffs[0] > 0.0:
                r = d / prev_diffs[0]
                rho = r if r < MAX_CONTRACTION else None
            else:
                rho = None
            depth = 0
            while depth < min(len(orders), len(prev_diffs)) and _order_ratio_ok(
                diffs[depth], prev_diffs[depth], orders[depth]
            ):
                depth += 1
            used = orders[:depth] if depth else (0,) if rho else ()
            coefs = _column_coefs(used, rho)
            extrapolated = bool(used) or d == 0.0
            prev_best = best
            # declared columns are row's own; only the observed-ratio column is built apart
            best = row[depth] if depth else _romberg_row(prev_row, vals, coefs)[-1]
            d_best = _sup_distance(
                metric, prev_best, best, f"extrapolation at level {level} of {model.name}"
            )
            tail = math.fsum(c * x for c, x in zip(coefs, diffs)) if extrapolated else math.inf
            prev_diffs = diffs

        levels.append(
            SewLevel(level, subdiv.k, step, d, d_best, bound_prev, level_value(vals))
        )

        if tol > 0.0:
            if extrapolated and d_best < tol:
                converged = True
                reason = "extrapolated successive distance below tol"
            elif bound < tol:
                converged = True
                reason = "a-priori refinement bound below tol" + ("" if level else " at base level")
                tail = min(tail, bound)
        if converged or level >= max_level:
            break
        if 2 * subdiv.k > 2**MAX_LEVEL:  # the cap _auto_base_k puts on the base level
            unresolved = f"level {level + 1} would pass 2**{MAX_LEVEL} intervals"
            break
        try:
            subdiv = dyadic_refine(subdiv)
        except ValueError:  # a midpoint rounded onto an end of its interval, or overflowed
            unresolved = f"level {level + 1}'s midpoints round onto the ends of their intervals"
            break
        level += 1
        bound_prev = bound

    limit_composites = composites[len(composites) - len(coefs) - 1 :]

    def limit_eval(p: Point) -> Point:
        table: list[tuple[Point, ...]] = []
        for c in limit_composites:
            table = _romberg_row(table, (c.eval(p),), coefs)
        return table[-1][0]

    final_map = ProbedMap(source, target, limit_eval)
    if math.isinf(tail):
        tail = bound
    if subdiv.k == 1:  # the composite is mu(s, t): claimed is the tighter bound on its distance
        tail = min(tail, claimed)

    done = converged or (tol <= 0.0 and not unresolved)
    mu_distance: float | None
    try:
        direct = model.mu(s, t)
        mu_distance = _sup_distance(
            metric, [direct.eval(p) for p in probes], best, f"mu_st of {model.name}"
        )
    except ModelDomainError:
        mu_distance = None
    if done and mu_distance is not None:
        check_bound(mu_distance + tail, claimed, f"d(mu_st, limit) {mu_distance:.3e} + tail "
                    f"{tail:.3e} of {model.name}, claimed bound")

    cert = SewCertificate(
        K=constant_K(h),
        epsilon=h.epsilon,
        levels=levels,
        claimed_bound=claimed,
        tail_estimate=tail,
        mu_distance=mu_distance,
        converged=done,
        stop_reason=reason if converged else unresolved or (
            "full ladder (tol <= 0)" if tol <= 0.0 else "max_level reached"),
        final_subdivision=subdiv,
        ratio_estimate=rho,
        # best holds the limit map's probe images: the same column steps on the same composites
        limit_value=level_value(best),
        extrapolation_orders=used,
    )

    if unresolved:
        raise NonConvergence(f"sew of {model.name} stopped at level {level}: {unresolved}", cert)
    if tol > 0.0 and not converged:
        raise NonConvergence(
            f"sew of {model.name} did not meet tol {tol:.3e} within {max_level} levels",
            certificate=cert,
        )
    return final_map, cert


# ---------------------------------------------------------------------------
# chain distances over stacked sample rows

#: the closed-form acts whose stacked chains are imaged in one array pass,
#: each with the target metric its distances are measured in and the pass itself
_STACKED_PASSES = {
    translation_map: (euclidean, translation_images),
    rotation_map: (planar, rotation_images),
}


def chain_distances(model: ApproxFlowModel, a, b) -> np.ndarray:
    """The n probed sup distances between ``compose_along(model, a[i])`` and
    ``compose_along(model, b[i])``, as a float64 array, each with the bits of
    ``map_distance_value`` of the two chains.

    ``a`` and ``b`` hold n parameter rows each, as sequences of rows or as
    (n, m_a[, 2]) and (n, m_b[, 2]) arrays.  The pass is chosen before any
    increments are computed: when the model's ``act`` is ``translation_map``
    or ``rotation_map``, every row runs between one source and one target
    space, and the target metric is the one that act's pass measures in, all
    rows are measured in one array pass (the increments of each stack of rows,
    every probe's image under every chain, the sup along the probe axis);
    any other model is measured row by row.  A row of one parameter has no
    increments, so the pass images it by the identity, which ``mu(p, p)`` is
    by the model contract.  The pass raises a domain error as the model
    raises it, increments other than one row of m - 1 per row of m
    parameters as ValueError, and a NaN distance as :class:`NonFiniteValue`
    naming its row (an infinite distance is a value, as in
    ``map_distance_value``).
    """
    if len(a) != len(b):
        raise ValueError(f"chain_distances needs as many rows in a as in b, "
                         f"got {len(a)} and {len(b)}")
    stacked = _STACKED_PASSES.get(model.act) if len(a) else None
    if stacked is not None:
        metric, images = stacked
        source, target = model.space_at(a[0][-1]), model.space_at(a[0][0])
        if target.metric is not metric or not all(
            model.space_at(r[-1]) is source and model.space_at(r[0]) is target
            for rows in (a, b) for r in rows
        ):
            stacked = None
    if stacked is None:
        return np.array([map_distance_value(compose_along(model, p), compose_along(model, q))
                         for p, q in zip(a, b)], dtype=float)

    def shifts(rows) -> np.ndarray:
        """The (n, m - 1) increments of n stacked rows of m parameters, last
        interval first, as ``compose_along`` hands them to ``act``."""
        params = np.asarray(rows, dtype=float)
        out = np.asarray(model.increments(params), dtype=float)
        if params.ndim < 2 or out.shape != (len(params), params.shape[1] - 1):
            raise ValueError(f"increments of {model.name} on stacked parameters of shape "
                             f"{params.shape} have shape {out.shape}")
        return out[:, ::-1]

    with np.errstate(all="ignore"):  # every non-finite distance is judged below
        xa, xb = (images(source.probes, shifts(rows)) for rows in (a, b))
    n, p = xa.shape[:2]
    d = np.reshape(distances(xa.reshape(n * p, -1), xb.reshape(n * p, -1)), (n, p))
    nan = np.isnan(d).any(axis=1)
    if nan.any():
        i = int(nan.argmax())
        raise NonFiniteValue(f"chain_distances row {i} of {model.name}: NaN probe distance "
                             f"in {d[i].tolist()}")
    return d.max(axis=1)


# ---------------------------------------------------------------------------
# inverse and four-point checks

def inverse_defect_bound(h: HoelderData, span: float, k: int) -> float:
    if k < 1:
        return 0.0
    power = bound_power(span / k, 1.0 + h.epsilon, "inverse defect bound")
    return h.g(span) * k * h.c_total * power


def inverse_defect(model: ApproxFlowModel, s: float, t: float, k: int) -> float:
    """Distance of mu^I_k o mu^reversed(I_k) from the identity on the s-space.

    Asserts the measured value against g(span)*k*(sum C_i)*(span/k)**(1+eps).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    points = regular(s, t, k).points
    forward = compose_along(model, points)
    backward = compose_along(model, points[::-1])
    measured = map_distance_value(compose(forward, backward), identity_map(model.space_at(s)))
    check_bound(measured, inverse_defect_bound(model.hoelder, abs(t - s), k),
                f"inverse defect of {model.name} at k={k}")
    return measured


def four_point_defect(
    model: ApproxFlowModel, s: Point, u: Point, v: Point, t: Point
) -> tuple[float, float]:
    """Measured d(mu_su o mu_ut, mu_sv o mu_vt) and its four-point bound.

    The bound is (1 + f(d(u,s))) * sum_i C_i d(t,v)**a_i d(u,v)**b_i
    + sum_i C_i d(s,u)**b_i d(u,v)**a_i; it degenerates to (0, 0) at u == v
    and to the three-point estimate at v == t.  Works for interval models and
    parameter-space models alike (d is ``euclidean``, the parameter metric).
    The measurement is ``chain_distances`` of the one pair of chains.
    """
    lhs = chain_distances(model, [(s, u, t)], [(s, v, t)]).item()
    return lhs, model.hoelder.four_point_bound(euclidean(u, s), euclidean(t, v), euclidean(u, v))
