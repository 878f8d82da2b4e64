"""Richardson columns for models that declare error-expansion orders."""
import dataclasses
import math

import numpy as np
import pytest

from oracles import expm2
from sewkit import (
    make_additive_sin,
    make_euler_linear,
    make_euler_matrix,
    make_euler_sin,
    make_flat_connection,
    make_young,
    sew,
)

TOL = 1e-8


def _euler_cases():
    a = [[0.2, -1.0], [1.0, 0.1]]
    return [
        (make_euler_linear(1.0), math.e),
        (make_euler_sin(), 2.0 * math.atan(math.tan(0.5) * math.e)),
        (make_euler_matrix(a), expm2(a)[0, 0]),
    ]


def test_euler_models_declare_integer_orders_and_others_none():
    for m, _ in _euler_cases():
        assert m.expansion_orders[:3] == (1, 2, 3)
    young = make_young(lambda t: t, lambda t: t, 1.0, 1.0)
    for m in (make_additive_sin(), young, make_flat_connection()):
        assert m.expansion_orders == ()


@pytest.mark.parametrize("case", range(3))
def test_euler_sews_meet_tol_on_a_coarse_subdivision(case):
    m, expect = _euler_cases()[case]
    _, cert = sew(m, 0.0, 1.0, TOL)
    assert abs(cert.limit_value - expect) <= TOL
    assert cert.final_subdivision.k <= 2**11
    assert cert.converged and cert.mu_bound_ok
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
    [make_additive_sin(), make_young(math.sin, lambda t: t * t, 0.8, 0.7, c_y=2.0)],
    ids=["additive_sin", "young"],
)
def test_undeclared_models_match_an_explicitly_empty_declaration(model):
    explicit = dataclasses.replace(model, expansion_orders=())
    _, a = sew(model, 0.0, 0.9, 1e-8)
    _, b = sew(explicit, 0.0, 0.9, 1e-8)
    assert _trace(a) == _trace(b)


def test_additive_sin_uses_at_most_the_observed_ratio_column():
    m = make_additive_sin()
    _, cert = sew(m, 0.0, 1.0, 1e-8)
    assert cert.extrapolation_orders in ((), (0,))


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
