"""Richardson columns for models that declare error-expansion orders."""
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from oracles import expm2, winding_number
from sewkit import (
    MODE_SEWING,
    HoelderData,
    ModelDomainError,
    arc_path,
    circle_path,
    compose_along,
    dyadic_refine,
    ellipse_arc_path,
    holonomy,
    make_additive,
    make_additive_sin,
    make_euler_linear,
    make_euler_matrix,
    make_euler_sin,
    make_flat_connection,
    make_young,
    polyline,
    pullback_flow,
    regular,
    sew,
    sewing,
    square_loop,
)
from sewkit import cli
from sewkit.models import EULER_EXPANSION_ORDERS, MIDPOINT_EXPANSION_ORDERS
from sewkit.sewing import MAX_LEVEL

TOL = 1e-8


def _euler_cases():
    a = [[0.2, -1.0], [1.0, 0.1]]
    return [
        (make_euler_linear(1.0), math.e),
        (make_euler_sin(), 2.0 * math.atan(math.tan(0.5) * math.e)),
        (make_euler_matrix(a), expm2(a)[0, 0]),
    ]


def _cli_young(driver, integrand, alpha=1.0, beta=1.0):
    return cli.build_model({"name": "young", "driver": driver, "integrand": integrand,
                            "alpha": alpha, "beta": beta, "probes": 5})


def test_euler_models_declare_integer_orders_and_others_none():
    for m, _ in _euler_cases():
        assert m.expansion_orders[:3] == (1, 2, 3)
    assert make_flat_connection("midpoint").expansion_orders[:3] == (2, 4, 6)
    # smooth translation models are explicit Euler for z' = y(s) x'(s)
    assert make_additive_sin().expansion_orders == EULER_EXPANSION_ORDERS
    for driver, integrand in itertools.product(cli._YOUNG_FNS, repeat=2):
        assert _cli_young(driver, integrand).expansion_orders == EULER_EXPANSION_ORDERS
    # the library's make_young takes any driver, rough ones included
    young = make_young(lambda t: t, lambda t: t, 1.0, 1.0)
    for m in (young, make_flat_connection("exact-segment")):
        assert m.expansion_orders == ()


@pytest.mark.parametrize("case", range(3))
def test_euler_sews_meet_tol_on_a_coarse_subdivision(case):
    m, expect = _euler_cases()[case]
    _, cert = sew(m, 0.0, 1.0, TOL)
    assert abs(cert.limit_value - expect) <= TOL
    assert cert.final_subdivision.k <= 2**11
    assert cert.converged and cert.mu_distance is not None
    assert cert.extrapolation_orders and 0 not in cert.extrapolation_orders
    for rec in cert.levels[1:]:
        assert rec.successive <= rec.refine_bound + 1e-9


def test_limit_map_agrees_with_the_closed_form_off_the_readout_probe():
    a = [[0.2, -1.0], [1.0, 0.1]]
    flow, _ = sew(make_euler_matrix(a), 0.0, 1.0, TOL)
    e_a = expm2(a)
    for p in ((0.3, -0.7), (1.0, 1.0)):
        assert np.linalg.norm(np.array(flow.eval(p)) - e_a @ np.array(p)) <= 10 * TOL


def test_misdeclared_orders_are_caught_by_the_ratio_gate():
    # with x(t) = t**0.75 the sums have no integer-order error series
    young = make_young(lambda t: t**0.75, lambda t: t, 0.75, 1.0)
    m = dataclasses.replace(young, expansion_orders=(1, 2, 3, 4))
    _, cert = sew(m, 0.0, 1.0, 1e-6)
    assert abs(cert.limit_value - 0.75 / 1.75) <= 1e-6
    assert len(cert.extrapolation_orders) < 4


@pytest.mark.parametrize(
    "orders",
    [(0,), (-1,), (2, 1), (1, 1), (1, math.nan), (math.inf,), (1024,), (1075,)],
    ids=["zero", "negative", "decreasing", "repeated", "nan", "inf", "past-2**1023", "past-1074"],
)
def test_malformed_expansion_orders_raise_where_the_model_is_built(orders):
    with pytest.raises(ValueError, match="expansion_orders"):
        dataclasses.replace(make_euler_linear(1.0), expansion_orders=orders)


@pytest.mark.parametrize(
    "summary",
    [lambda f: f.eval(1.0), 1.0, (1.0, None)],
    ids=["callable", "point", "tuple"],
)
def test_a_summary_that_is_no_readout_raises_where_the_model_is_built(summary):
    # sew reads a summary off its probe values, so only a Readout can name one:
    # a callable read on one probe would report 2.25 for e = 2.718...
    with pytest.raises(ValueError, match="must be a Readout or None"):
        dataclasses.replace(make_euler_linear(1.0, probe_n=1), summary=summary)
    assert dataclasses.replace(make_euler_linear(1.0), summary=None).summary is None


def test_every_richardson_coefficient_a_sew_can_use_is_positive():
    # the Richardson step has no zero-coefficient branch, so none may be zero
    linear = make_euler_linear(1.0)
    declared = [m.expansion_orders for m in (
        linear, make_additive_sin(), make_flat_connection("midpoint"),
        dataclasses.replace(linear, expansion_orders=(1.5,)),
        dataclasses.replace(linear, expansion_orders=(1023,)))]
    for orders in declared:
        assert orders
        assert all(c > 0.0 for c in sewing._column_coefs(orders, None))
    for rho in (5e-324, 1e-3, 0.5, math.nextafter(sewing.MAX_CONTRACTION, 0.0)):
        assert sewing._column_coefs((0,), rho)[0] > 0.0
    # the largest order still passes the ratio gate's 2**order
    _, cert = sew(dataclasses.replace(linear, expansion_orders=(1023,)), 0.0, 1.0, TOL)
    assert abs(cert.limit_value - math.e) <= 1e-6


def _trace(cert):
    return (
        [(r.level, r.intervals, r.mesh, r.successive, r.accel_successive, r.refine_bound, r.value)
         for r in cert.levels],
        cert.limit_value,
        cert.tail_estimate,
        cert.mu_distance,
        cert.ratio_estimate,
        cert.extrapolation_orders,
    )


@pytest.mark.parametrize(
    "model",
    [make_additive(lambda s, t: np.sin(s) * (t - s),
                   HoelderData(1.0, ((1.0, 1.0, 1.0),), 0.0, MODE_SEWING)),
     make_young(np.sin, lambda t: t * t, 0.8, 0.7, c_y=2.0)],
    ids=["additive_sin", "young"],
)
def test_undeclared_models_match_an_explicitly_empty_declaration(model):
    explicit = dataclasses.replace(model, expansion_orders=())
    _, a = sew(model, 0.0, 0.9, 1e-8)
    _, b = sew(explicit, 0.0, 0.9, 1e-8)
    assert _trace(a) == _trace(b)


def _with_the_point_probed(model):
    """The model with its readout point made the last probe when it is none,
    as ``sew`` measures it."""
    space = model.space_at(0.0)
    point = model.summary.point
    if repr(point) in map(repr, space.probes):
        return model
    space = dataclasses.replace(space, probes=space.probes + (point,))
    return dataclasses.replace(model, space_at=lambda _t: space)


@pytest.mark.parametrize(
    "model,s,t",
    [
        (make_additive_sin(), 0.0, 0.9),
        (make_additive_sin(probe_n=4), 0.0, 0.9),  # the readout point 0.0 is measured too
        (make_young(np.sin, lambda t: t * t, 0.8, 0.7, c_y=2.0), 0.0, 0.9),
        (make_euler_linear(1.0), 0.0, 1.0),
        (make_euler_matrix([[0.2, -1.0], [1.0, 0.1]]), 0.0, 1.0),
        (pullback_flow(make_flat_connection("midpoint"), circle_path(1.0, 1.0, 64)), 0.0, 1.0),
        (pullback_flow(make_flat_connection("midpoint"), circle_path(1.0, 1.0, 48)), 0.0, 1.0),
    ],
    ids=["additive_sin", "additive_sin-4", "young", "euler_linear", "euler_matrix",
         "midpoint-dyadic", "midpoint-48"],
)
def test_summaries_read_from_probe_values_match_the_chain_bit_for_bit(model, s, t):
    flow, a = sew(model, s, t, 1e-8)
    _, b = sew(_with_the_point_probed(model), s, t, 1e-8)
    assert repr(_trace(a)) == repr(_trace(b))  # repr tells -0.0 from 0.0
    # each level's value is the readout of its own chain, composed apart from sew
    summary = model.summary
    subdiv = regular(s, t, a.levels[0].intervals)
    for r in a.levels:
        if r.level:
            subdiv = dyadic_refine(subdiv)
        assert r.intervals == subdiv.k
        chain = compose_along(model, subdiv.points)
        assert repr(r.value) == repr(summary.read(chain.eval(summary.point))), r.level
    assert repr(a.limit_value) == repr(summary.read(flow.eval(summary.point)))


@pytest.mark.parametrize(
    "model",
    [
        make_euler_matrix([[0.2, -1.0], [1.0, 0.1]]),
        pullback_flow(make_flat_connection("midpoint"), circle_path(1.0, 1.0, 64)),
    ],
    ids=["euler_matrix", "midpoint-dyadic"],
)
def test_declared_columns_are_built_once_per_level(model, monkeypatch):
    # the best estimate is read from the level's own table row; a second
    # Richardson row is built only for the observed-ratio column
    calls = []
    original = sewing._romberg_row
    monkeypatch.setattr(sewing, "_romberg_row", lambda *a: calls.append(a) or original(*a))
    _, cert = sew(model, 0.0, 1.0, TOL)  # the limit map itself is never evaluated
    assert cert.extrapolation_orders and 0 not in cert.extrapolation_orders
    assert len(calls) <= len(cert.levels)


def test_additive_sin_stops_on_declared_columns():
    _, cert = sew(make_additive_sin(), 0.0, 1.0, 1e-8)
    assert cert.converged
    assert cert.extrapolation_orders and 0 not in cert.extrapolation_orders
    assert abs(cert.limit_value - (1.0 - math.cos(1.0))) <= 1e-8
    assert cert.final_subdivision.k <= 2**8


#: closed forms of int_0^T y(s) x'(s) ds for the CLI's Young drivers and integrands
_YOUNG_INTEGRALS = {
    ("linear", "linear"): lambda T: T * T / 2.0,
    ("linear", "sin"): lambda T: 1.0 - math.cos(T),
    ("linear", "quadratic"): lambda T: T**3 / 3.0,
    ("sin", "linear"): lambda T: T * math.sin(T) + math.cos(T) - 1.0,
    ("sin", "sin"): lambda T: math.sin(T) ** 2 / 2.0,
    ("sin", "quadratic"): lambda T: T * T * math.sin(T) + 2.0 * T * math.cos(T) - 2.0 * math.sin(T),
    ("quadratic", "linear"): lambda T: 2.0 * T**3 / 3.0,
    ("quadratic", "sin"): lambda T: 2.0 * (math.sin(T) - T * math.cos(T)),
    ("quadratic", "quadratic"): lambda T: T**4 / 2.0,
}
_TRANSLATION_TOLS = (1e-5, 1e-7, 1e-9, 1e-11)


def _translation_sweep():
    """Seeded (name, model, T, tol, closed form) cases: each CLI Young pair and
    additive_sin at every tol, with eps and T drawn from [0.05, 1]."""
    rng = random.Random(33)
    cases = []
    for tol, _ in itertools.product(_TRANSLATION_TOLS, range(4)):
        for driver, integrand in itertools.product(cli._YOUNG_FNS, repeat=2):
            eps, T = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)
            alpha = rng.uniform(eps, 1.0)
            model = _cli_young(driver, integrand, alpha, 1.0 + eps - alpha)
            cases.append((f"young({driver},{integrand},eps={eps:.3f})", model, T, tol,
                          _YOUNG_INTEGRALS[driver, integrand](T)))
        T = rng.uniform(0.05, 1.0)
        cases.append(("additive_sin", make_additive_sin(), T, tol, 1.0 - math.cos(T)))
    return cases


def test_smooth_translation_sews_meet_tol_against_their_closed_forms():
    cases = _translation_sweep()
    assert len(cases) == 160
    for name, model, T, tol, expect in cases:
        _, cert = sew(model, 0.0, T, tol)
        assert cert.converged, (name, T, tol)
        assert abs(cert.limit_value - expect) <= tol, (name, T, tol, cert.limit_value - expect)
        # the declared columns, not the observed-ratio column, stop every sew
        assert cert.extrapolation_orders and 0 not in cert.extrapolation_orders, (name, T, tol)


def test_base_level_stop_returns_the_raw_composite():
    m = make_euler_linear(1.0)
    flow, cert = sew(m, 0.3, 0.3, 1e-10)
    assert cert.extrapolation_orders == ()
    assert all(flow.eval(p) == p for p in flow.source.probes)


def test_full_ladder_keeps_every_raw_level_and_extrapolates():
    m = make_euler_linear(1.0)
    _, cert = sew(m, 0.0, 1.0, 0.0, max_level=12)
    assert [r.level for r in cert.levels] == list(range(13))
    assert cert.extrapolation_orders
    assert abs(cert.limit_value - math.e) <= 1e-10


# --- midpoint holonomies: even orders on dyadic paths ---------------------------

def test_pullback_declares_the_orders_only_for_dyadic_breaks():
    fm = make_flat_connection("midpoint")
    pts = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)]
    assert pullback_flow(fm, polyline(pts, (0.0, 0.375, 1.0))).expansion_orders == (
        MIDPOINT_EXPANSION_ORDERS
    )
    assert pullback_flow(fm, circle_path(1.0, 1.0, 64)).expansion_orders == (
        MIDPOINT_EXPANSION_ORDERS
    )
    for g in (polyline(pts, (0.0, 1.0 / 3.0, 1.0)), circle_path(1.0, 1.0, 100)):
        assert pullback_flow(fm, g).expansion_orders == ()
    # a dyadic break finer than the deepest level a sew reaches counts as non-dyadic
    assert pullback_flow(fm, polyline(pts, (0.0, 2.0**-(MAX_LEVEL + 1), 1.0))).expansion_orders == ()
    exact = make_flat_connection("exact-segment")
    assert pullback_flow(exact, circle_path(1.0, 1.0, 64)).expansion_orders == ()


_SEGMENTS = (8, 16, 32, 48, 64, 100, 128)
_SWEEP_TOLS = (1e-7, 1e-8, 1e-9)
_R0 = 0.5


def _polar(rx, ry, a):
    """The unwrapped polar angle of the ellipse point at parameter a."""
    return a + math.remainder(math.atan2(ry * math.sin(a), rx * math.cos(a)) - a, 2.0 * math.pi)


def _sweep_paths():
    """Seeded midpoint-holonomy paths with their closed-form angles."""
    rng = random.Random(20)
    cases = []
    for turns in (1.0, -1.0, 2.0, 3.0):
        r = rng.uniform(0.8, 2.0)
        for segs in _SEGMENTS:
            cases.append((f"circle(r={r:.3f},turns={turns},{segs})",
                          circle_path(r, turns, segs), 2.0 * math.pi * turns))
    for _ in range(4):
        r, a0 = rng.uniform(0.8, 2.0), rng.uniform(-math.pi, math.pi)
        a1 = a0 + rng.choice((1.0, -1.0)) * rng.uniform(0.5, 1.9) * math.pi
        for segs in _SEGMENTS:
            cases.append((f"arc(r={r:.3f},{a0:.3f},{a1:.3f},{segs})",
                          arc_path(r, a0, a1, segs), a1 - a0))
    for _ in range(4):
        rx, ry = rng.uniform(0.8, 2.0), rng.uniform(0.8, 2.0)
        a0 = rng.uniform(-math.pi, math.pi)
        a1 = a0 + rng.choice((1.0, -1.0)) * rng.uniform(0.5, 1.5) * math.pi
        for segs in _SEGMENTS:
            cases.append((f"ellipse({rx:.3f},{ry:.3f},{a0:.3f},{a1:.3f},{segs})",
                          ellipse_arc_path(rx, ry, a0, a1, segs),
                          _polar(rx, ry, a1) - _polar(rx, ry, a0)))
    for j in range(16):
        # every other square winds once about the excluded disk
        if j % 2:
            center = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            half = max(map(abs, center)) + rng.uniform(0.6, 1.2)
        else:
            center = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            half = rng.uniform(0.3, 1.5)
        loop = square_loop(center, half)
        cases.append((f"square({center[0]:.3f},{center[1]:.3f})", loop,
                      2.0 * math.pi * winding_number(loop.points)))
    return cases


def _distance_to_origin(g):
    """The least distance from the origin to the legs of a PL path."""
    best = math.inf
    for (x0, y0), (x1, y1) in zip(g.points, g.points[1:]):
        dx, dy = x1 - x0, y1 - y0
        w = min(1.0, max(0.0, -(x0 * dx + y0 * dy) / (dx * dx + dy * dy)))
        best = min(best, math.hypot(x0 + w * dx, y0 + w * dy))
    return best


def test_midpoint_holonomies_meet_tol_against_their_closed_forms():
    # dyadic and non-dyadic breaks alike; only a path that enters the
    # excluded disk may raise, and every converged limit lies within tol
    fm = make_flat_connection("midpoint", r0=_R0)
    cases = _sweep_paths()
    assert len(cases) == 100
    ran = 0
    for name, g, angle in cases:
        for tol in _SWEEP_TOLS:
            try:
                _, cert = holonomy(fm, g, tol)
            except ModelDomainError:
                assert _distance_to_origin(g) < _R0, name
                continue
            ran += 1
            assert cert.converged, (name, tol)
            assert abs(cert.limit_value - angle) <= tol, (name, tol, cert.limit_value - angle)
    assert ran >= 0.95 * 3 * len(cases)
