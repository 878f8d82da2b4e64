import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sewkit import (
    ConcatMismatch,
    LipPath,
    arc_path,
    circle_path,
    compose_chain,
    concat_reverse_order,
    constant_path,
    groupoid_axiom_check,
    identity_map,
    make_flat_connection,
    map_distance_value,
    pl_thin_reduce,
    polyline,
    pullback_flow,
    reparametrize,
    reverse_path,
    segment_path,
    sew,
    subpath,
)


def test_lip_path_validation_and_norm():
    p = polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    assert p.lip_norm == pytest.approx(2.0)
    assert p.length == pytest.approx(2.0)
    assert p.length <= p.lip_norm
    with pytest.raises(ValueError):
        LipPath((0.0, 0.5), ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
    with pytest.raises(ValueError):
        LipPath((0.0, 0.6, 0.5, 1.0), ((0.0,), (1.0,), (2.0,), (3.0,)))


def test_concat_reverse_order_bookkeeping():
    const = constant_path((2.0, 0.0))
    both = concat_reverse_order(const, const)
    assert both.start == (2.0, 0.0) and both.end == (2.0, 0.0)

    g = segment_path((0.0, 1.0), (3.0, 1.0))     # a -> b
    g2 = segment_path((-1.0, -1.0), (0.0, 1.0))  # c -> a
    cat = concat_reverse_order(g, g2)            # runs c -> a -> b
    assert cat.start == (-1.0, -1.0)
    assert cat.end == (3.0, 1.0)
    assert cat.at(0.5) == (0.0, 1.0)

    with pytest.raises(ConcatMismatch):
        concat_reverse_order(g, segment_path((0.0, 0.0), (5.0, 5.0)))


def test_concat_lipschitz_bound_two_unit_segments():
    g = segment_path((1.0, 0.0), (2.0, 0.0))
    g2 = segment_path((0.0, 0.0), (1.0, 0.0))
    cat = concat_reverse_order(g, g2)
    assert cat.lip_norm == pytest.approx(2.0)
    assert cat.lip_norm <= 2.0 * max(g.lip_norm, g2.lip_norm) + 1e-12


@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=2, max_size=6))
def test_concat_lipschitz_bound_random(points):
    g = polyline(tuple(points))
    g2 = polyline(tuple(reversed(points)))  # ends where g starts
    cat = concat_reverse_order(g, g2)
    assert cat.lip_norm <= 2.0 * max(g.lip_norm, g2.lip_norm) + 1e-9


def test_subpath_examples():
    g = circle_path(1.0, 1.0, 16)
    const = subpath(g, 0.4, 0.4)
    assert const.points == (g.at(0.4), g.at(0.4))
    assert subpath(g, 1.0, 0.0).points == g.points
    rev = reverse_path(g)
    assert reverse_path(rev).points == g.points
    assert rev.points == tuple(reversed(g.points))


@given(st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=100)
def test_subpath_lipschitz_rescaling(s, t):
    g = polyline(((0.0, 0.0), (1.0, 0.5), (1.0, 2.0), (0.0, 2.5)))
    assert subpath(g, s, t).lip_norm <= abs(t - s) * g.lip_norm + 1e-9


def test_pl_thin_reduce_examples():
    a, b = (1.0, 0.0), (1.5, 0.5)
    assert pl_thin_reduce(polyline((a, b, a))).points == (a, a)
    assert pl_thin_reduce(polyline((a, b, a, b))).points == (a, b)
    no_backtrack = polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    assert pl_thin_reduce(no_backtrack).points == no_backtrack.points


def test_pl_thin_reduce_partial_backtrack():
    p = polyline(((0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 2.0)))
    assert pl_thin_reduce(p).points == ((0.0, 0.0), (1.0, 0.0), (1.0, 2.0))


def test_pl_thin_reduce_keeps_turns_in_space():
    # an obtuse turn is no backtrack in 3-D either; only collinear legs cancel
    turn = polyline(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, 0.4, 0.0)))
    assert pl_thin_reduce(turn).points == turn.points
    assert pl_thin_reduce(turn).length == pytest.approx(1.0 + math.hypot(0.5, 0.4))
    spike = polyline(((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (0.5, 0.5, 2.0)))
    assert pl_thin_reduce(spike).points == ((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.5, 0.5, 2.0))


def test_pl_thin_reduce_idempotent_and_monotone():
    rng = np.random.default_rng(23)
    for _ in range(50):
        pts = [(float(x), float(y)) for x, y in rng.uniform(-1.0, 1.0, size=(5, 2))]
        # inject an exact out-and-back spike
        spike_at = int(rng.integers(1, 4))
        spike = (pts[spike_at][0] + 0.3, pts[spike_at][1] + 0.1)
        spiked = pts[: spike_at + 1] + [spike, pts[spike_at]] + pts[spike_at + 1 :]
        g = polyline(tuple(spiked))
        red = pl_thin_reduce(g)
        again = pl_thin_reduce(red)
        assert again.points == red.points
        assert red.length <= g.length + 1e-12
        assert red.lip_norm <= g.lip_norm + 1e-12
        assert red.start == g.start and red.end == g.end


def test_path_csv_round_trip(tmp_path):
    from sewkit import path_from_csv, path_to_csv

    g = arc_path(1.3, 0.2, 2.5, 12)
    f = str(tmp_path / "path.csv")
    path_to_csv(g, f)
    back = path_from_csv(f)
    assert back.breaks == g.breaks and back.points == g.points

    line = polyline((0.0, 0.4, 1.0), None)
    f2 = str(tmp_path / "line.csv")
    path_to_csv(line, f2)
    assert path_from_csv(f2).points == line.points


# --- pullback ------------------------------------------------------------------

def test_pullback_constant_path_is_identity_flow():
    fc = make_flat_connection()
    pulled = pullback_flow(fc, constant_path((1.0, 0.0)))
    m = pulled.mu(0.2, 0.9)
    assert all(m.eval(p) == p for p in m.source.probes)


def test_pullback_rescales_defect_data():
    fc = make_flat_connection("midpoint")
    g = circle_path(1.0, 1.0, 64)
    pulled = pullback_flow(fc, g)
    lip = g.lip_norm
    assert pulled.hoelder.mode == "sewing"
    assert pulled.hoelder.epsilon == pytest.approx(fc.hoelder.epsilon + 1.0)
    for (a, b, c), (a0, b0, c0) in zip(pulled.hoelder.terms, fc.hoelder.terms):
        assert (a, b) == (a0, b0)
        assert c == pytest.approx(c0 * lip ** (a0 + b0))


def test_pullback_exact_segment_defect_zero_on_chordsafe_arc():
    fc = make_flat_connection()
    pulled = pullback_flow(fc, arc_path(1.0, 0.0, math.pi / 2, 32))
    rng = np.random.default_rng(2)
    for _ in range(50):
        s, u, t = sorted(rng.uniform(0.0, 1.0, size=3))
        direct = pulled.mu(s, t)
        via = compose_chain([pulled.mu(s, u), pulled.mu(u, t)])
        assert map_distance_value(direct, via) <= 1e-12


def test_pullback_reparametrization_invariance():
    fc = make_flat_connection("midpoint")
    g = arc_path(1.0, 0.0, 2.0, 24)
    phi = reparametrize(g, (0.0, 0.4, 1.0), (0.0, 0.7, 1.0))
    tol = 1e-8
    f1, _ = sew(pullback_flow(fc, g), 0.0, 1.0, tol)
    f2, _ = sew(pullback_flow(fc, phi), 0.0, 1.0, tol)
    assert map_distance_value(f1, f2) <= 2.0 * tol


def test_subpath_chain_rule_for_sewn_pullbacks():
    fc = make_flat_connection("midpoint")
    g = arc_path(1.0, 0.0, 2.2, 32)
    tol = 1e-8
    s, u, t = 0.9, 0.5, 0.1  # downward chain: gamma_st ~ gamma_su . gamma_ut
    whole, _ = sew(pullback_flow(fc, subpath(g, s, t)), 0.0, 1.0, tol)
    left, _ = sew(pullback_flow(fc, subpath(g, s, u)), 0.0, 1.0, tol)
    right, _ = sew(pullback_flow(fc, subpath(g, u, t)), 0.0, 1.0, tol)
    le, re = left.eval, right.eval
    from sewkit import ProbedMap

    composed = ProbedMap(right.source, left.target, lambda p: le(re(p)))
    assert map_distance_value(whole, composed) <= 3.0 * tol


# --- groupoid axioms -------------------------------------------------------------

def test_groupoid_axiom_report_on_arcs():
    fc = make_flat_connection()
    quarter0 = arc_path(1.0, -math.pi / 2, 0.0, 16)
    quarter1 = arc_path(1.0, 0.0, math.pi / 2, 16)
    quarter2 = arc_path(1.0, math.pi / 2, math.pi, 16)
    report = groupoid_axiom_check(fc, [quarter0, quarter1, quarter2], tol=1e-8)
    assert report.ok, [c for c in report.checks if not c.ok]
    kinds = {c.axiom for c in report.checks}
    assert kinds == {"identity", "inverse", "composition", "associativity"}


def test_semicircle_times_reverse_is_identity():
    fc = make_flat_connection()
    semi = arc_path(1.0, 0.0, math.pi, 32)
    loop = concat_reverse_order(reverse_path(semi), semi)
    flow, _ = sew(pullback_flow(fc, loop), 0.0, 1.0, 1e-8)
    assert map_distance_value(flow, identity_map(flow.source)) <= 1e-6
