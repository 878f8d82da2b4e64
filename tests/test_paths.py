import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import arc_points, ellipse_arc_points, path_point
from sewkit import paths as paths_mod
from sewkit import (
    BoundViolation,
    EndpointMismatch,
    FlatConnection,
    LipPath,
    ModelDomainError,
    arc_path,
    circle_path,
    compose_chain,
    concat_reverse_order,
    compose_along,
    constant_path,
    ellipse_arc_path,
    groupoid_axiom_check,
    identity_map,
    make_flat_connection,
    map_distance_value,
    pl_thin_reduce,
    polyline,
    pullback_flow,
    regular,
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


@pytest.mark.parametrize(
    "breaks,points,fragment",
    [
        ((0.0, 0.5, 1.0), ((0.0, 0.0), (math.nan, 0.5), (1.0, 1.0)), "finite"),
        ((0.0, 0.5, 1.0), (0.0, math.nan, 1.0), "finite"),
        ((0.0, 0.5, 1.0), ((0.0, 0.0), (math.inf, 0.5), (1.0, 1.0)), "finite"),
        ((0.0, 0.5, 1.0), ((0.0, 0.0), (0.5, -math.inf), (1.0, 1.0)), "finite"),
        # numpy raises OverflowError converting an int beyond the largest double
        ((0.0, 0.5, 1.0), ((0.0, 0.0), (10**400, 0), (1.0, 1.0)),
         re.escape(f"finite, got {(10**400, 0)!r}")),
        ((0.0, 0.5, 1.0), (0.0, -(10**400), 1.0), re.escape(f"finite, got {-(10**400)!r}")),
        ((0.0, math.nan, 1.0), ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)), "strictly increasing"),
        ((0.0, 0.5, 1.0), ((0.0, 0.0), (0.5, 0.5, 0.0), (1.0, 1.0)), "one length"),
        ((0.0, 0.5, 1.0), (0.0, (0.5,), 1.0), "one length"),
    ],
    ids=["nan-point", "nan-float-point", "inf-point", "minus-inf-point", "int-overflow-point",
         "int-overflow-float-point", "nan-break",
         "2d-and-3d", "float-and-tuple"],
)
def test_lip_path_fails_closed_on_bad_points(breaks, points, fragment):
    with pytest.raises(ValueError, match=fragment):
        LipPath(breaks, points)


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

    with pytest.raises(EndpointMismatch):
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


def test_sample_equals_at_bit_for_bit():
    arc = arc_path(1.112, 0.853, 6.259, 128)
    arc24 = arc_path(1.0, 0.0, 2.0, 24)
    paths = [
        arc,
        ellipse_arc_path(1.0, 1.6, 0.0, math.pi, 48),
        concat_reverse_order(arc_path(1.0, 0.3, 1.4, 7), arc_path(1.0, -0.5, 0.3, 5)),
        # pulls the break 5/24 back to within 6e-17 of the break 0.4
        reparametrize(arc24, (0.0, 0.4, 1.0), (0.0, math.nextafter(5 / 24, 1.0), 1.0)),
        polyline((0.0, 1.5, -0.25, 2.0, -0.0)),
    ]
    assert min(np.diff(paths[3].breaks)) < 1e-16
    levels = [u for n in range(13) for u in regular(0.0, 1.0, 2**n).points.tolist()]
    for g in paths:
        params = [0.0, 1.0, -0.3, -0.0, 1.7, *g.breaks, *levels]
        for us in (params, params[::-1]):
            got = g.sample(us).tolist()
            assert len(got) == len(us)
            for u, p in zip(us, got):
                expected = repr(path_point(g, u))
                assert repr(tuple(p) if isinstance(p, list) else p) == expected, (g, u)
                assert repr(g.at(u)) == expected, (g, u)


def test_arc_path_matches_the_math_loop_point_for_point():
    rng = np.random.default_rng(17)
    cases = [(1.0, 0.0, math.pi, 64), (1.0, 0.0, -math.pi, 64), (1.0, 0.0, 2.0 * math.pi, 64)]
    for segments in (1, 2, 3, 7, 16, 64, 100, 128, 500):
        for _ in range(8):
            radius = rng.uniform(0.1, 3.0)
            angle0 = rng.uniform(-4.0, 4.0)
            angle1 = angle0 + rng.uniform(-7.0, 7.0)
            cases.append((float(radius), float(angle0), float(angle1), segments))
    for case in cases:
        assert repr(arc_path(*case).points) == repr(arc_points(*case)), case
    assert repr(circle_path(1.0, 1.0, 64).points) == repr(arc_points(1.0, 0.0, 2.0 * math.pi, 64))


def test_ellipse_arc_path_matches_the_table_walk_point_for_point():
    rng = np.random.default_rng(15)
    cases = [(1.0, 1.6, 0.0, math.pi, 64)]
    for segments in (1, 2, 3, 7, 32, 48, 64, 100, 128, 500):
        for _ in range(6):
            rx, ry = rng.uniform(0.1, 3.0, size=2)
            angle0 = rng.uniform(-4.0, 4.0)
            angle1 = angle0 + rng.uniform(-7.0, 7.0)
            cases.append((float(rx), float(ry), float(angle0), float(angle1), segments))
    for case in cases:
        got = ellipse_arc_path(*case).points
        assert len(got) == case[-1] + 1
        assert repr(got) == repr(ellipse_arc_points(*case)), case
    with pytest.raises(ValueError, match="zero-length"):
        ellipse_arc_path(0.0, 0.0, 0.0, math.pi, 8)


def test_reparametrize_pulls_a_tie_back_to_phis_own_break():
    # phi(0.9) = 0.75 is a break of g: the pulled break is 0.9 itself
    g = polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), (0.0, 0.5, 0.75, 1.0))
    phi_breaks, phi_values = (0.0, 0.3, 0.9, 1.0), (0.0, 0.5, 0.75, 1.0)
    h = reparametrize(g, phi_breaks, phi_values)
    assert h.breaks == (0.0, 0.3, 0.9, 1.0)
    assert min(np.diff(h.breaks)) > 1e-12
    phi = polyline(phi_values, phi_breaks)
    for u, p in zip(h.breaks, h.points):
        assert p == g.at(phi.at(u))


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


def test_pulled_increments_and_error_points_are_plain_floats():
    params = regular(0.0, 1.0, 8).points
    for variant in ("exact-segment", "midpoint"):
        fc = make_flat_connection(variant)
        shifts = pullback_flow(fc, arc_path(1.0, 0.0, 2.0, 16)).increments(params)
        assert len(shifts) == 8 and all(type(x) is float for x in shifts)
        # the chord from (1, 0.3) to (-1, 0.2) enters the disk first at u = 3/8
        g = segment_path((1.0, 0.3), (-1.0, 0.2))
        with pytest.raises(ModelDomainError) as info:
            compose_along(pullback_flow(fc, g), params)
        message = str(info.value)
        assert message.startswith(f"pullback of {fc.name} along path: ")
        assert f"point {g.at(0.375)} inside the excluded disk" in message
        assert "float64" not in message


def test_pullback_exact_segment_defect_zero_on_chordsafe_arc():
    fc = make_flat_connection()
    pulled = pullback_flow(fc, arc_path(1.0, 0.0, math.pi / 2, 32))
    rng = np.random.default_rng(2)
    for _ in range(50):
        s, u, t = sorted(rng.uniform(0.0, 1.0, size=3))
        direct = pulled.mu(s, t)
        via = compose_chain([pulled.mu(s, u), pulled.mu(u, t)])
        assert map_distance_value(direct, via) <= 1e-12


def test_reparametrize_rejects_a_decreasing_phi():
    g = polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError, match="non-decreasing"):
        reparametrize(g, (0.0, 0.4, 0.7, 1.0), (0.0, 0.8, 0.3, 1.0))
    # a flat piece is allowed: the path pauses there
    paused = reparametrize(g, (0.0, 0.4, 0.7, 1.0), (0.0, 0.5, 0.5, 1.0))
    assert paused.at(0.5) == paused.at(0.4) == g.at(0.5)


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

def _quarter_arcs():
    return [arc_path(1.0, -math.pi / 2, 0.0, 16), arc_path(1.0, 0.0, math.pi / 2, 16),
            arc_path(1.0, math.pi / 2, math.pi, 16)]


@pytest.mark.parametrize("variant", [FlatConnection.EXACT, FlatConnection.MIDPOINT])
def test_groupoid_axiom_report_on_arcs(variant):
    # every check passed its declared budget, or groupoid_axiom_check would
    # have raised; all four axioms ran
    counts = groupoid_axiom_check(make_flat_connection(variant), _quarter_arcs(), tol=1e-8)
    assert counts == {"identity": 3, "inverse": 3, "composition": 2, "associativity": 1}


@pytest.mark.parametrize("variant", [FlatConnection.EXACT, FlatConnection.MIDPOINT])
def test_groupoid_check_raises_when_the_inverse_is_not_reversed(monkeypatch, variant):
    # with the path itself as its "inverse", the quarter-arc holonomy squared is
    # a half turn, 2 away from the identity on the circle fiber
    monkeypatch.setattr(paths_mod, "reverse_path", lambda g: g)
    with pytest.raises(BoundViolation,
                       match=r"groupoid inverse at path 0 of .*: 2\.000e\+00 exceeds"):
        groupoid_axiom_check(make_flat_connection(variant), _quarter_arcs(), tol=1e-8)


def test_semicircle_times_reverse_is_identity():
    fc = make_flat_connection()
    semi = arc_path(1.0, 0.0, math.pi, 32)
    loop = concat_reverse_order(reverse_path(semi), semi)
    flow, _ = sew(pullback_flow(fc, loop), 0.0, 1.0, 1e-8)
    assert map_distance_value(flow, identity_map(flow.source)) <= 1e-6
