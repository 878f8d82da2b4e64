import dataclasses
import math
import random

import numpy as np
import pytest

from oracles import (
    curved_so3,
    knit_prime_constant,
    ladder_map,
    lerp,
    misordered,
    path_point,
    pure_gauge_so3,
    winding_number,
)
from sewkit import (
    MODE_KNITTING,
    BoundViolation,
    EndpointMismatch,
    FlatConnection,
    HoelderData,
    LipPath,
    ModelDomainError,
    NonFiniteValue,
    WrongMode,
    annulus_four_point_samples,
    arc_path,
    build_net,
    circle_path,
    compose_along,
    compose_chain,
    ellipse_arc_path,
    fit_strong_four_point,
    four_point_defect,
    holonomy,
    identity_map,
    knit_bound,
    knit_compare,
    make_additive_sin,
    make_flat_connection,
    map_distance_value,
    pair_lipschitz,
    polyline,
    pullback_flow,
    regular,
    rotation_map,
    segment_path,
    sew,
    square_loop,
    within_bound,
    zeta,
)
from sewkit.metric import euclidean
from sewkit.models import MIDPOINT_EXPANSION_ORDERS
from sewkit.sewing import _column_coefs, _romberg_row


def semicircle_pair():
    g0 = arc_path(1.0, 0.0, math.pi, 64)
    g1 = ellipse_arc_path(1.0, 1.6, 0.0, math.pi, 64)
    return g0, g1, pair_lipschitz(g0, g1)


# --- nets ------------------------------------------------------------------------

def test_build_net_constant_homotopy_rows_identical():
    g = arc_path(1.0, 0.0, math.pi / 2, 16)
    ell = pair_lipschitz(g, g)
    net = build_net(g, g, 8, max(ell, g.lip_norm))
    _assert_rows_are_arrays(net, 2)
    assert all(np.array_equal(net.row(i), net.row(0)) for i in range(net.k + 1))


def test_build_net_linear_interpolation_grid():
    g0 = segment_path((1.0, 0.0), (1.0, 2.0))
    g1 = segment_path((1.0, 0.0), (1.0, 2.0))
    ell = pair_lipschitz(g0, g1)
    net = build_net(g0, g1, 4, max(ell, 2.0))
    _assert_rows_are_arrays(net, 2)
    assert net.row(2)[2].tolist() == [1.0, 1.0]


def test_build_net_mesh_bound_and_errors():
    g0, g1, ell = semicircle_pair()
    net = build_net(g0, g1, 16, ell)
    assert net.mesh <= ell / 16.0 + 1e-12

    with pytest.raises(BoundViolation, match="net mesh at k=16"):
        build_net(g0, g1, 16, ell / 4.0)  # understated Lipschitz norm

    # H(s, t) = (1 + s, t): the endpoints move with s
    drifting = segment_path((1.0, 0.0), (1.0, 1.0)), segment_path((2.0, 0.0), (2.0, 1.0))
    with pytest.raises(EndpointMismatch):
        build_net(*drifting, 4, 10.0)

    with pytest.raises(ValueError):
        build_net(g0, g1, 1, ell)


def test_build_net_far_from_the_origin_accepts_its_own_ell():
    # mesh <= ell/k is checked with within_bound: an absolute slack of 1e-12
    # is below the rounding of the mesh once coordinates reach about 1e4
    rng = random.Random(1)
    for scale in (1e4, 1e5, 1e6):
        for _ in range(100):
            mid = (scale * (1.0 + 0.2 * rng.random()), scale * rng.random())
            g0 = polyline([(scale, 0.0), (scale, scale)])
            g1 = polyline([(scale, 0.0), mid, (scale, scale)])
            ell = pair_lipschitz(g0, g1)
            for k in (2, 3, 8, 16):
                net = build_net(g0, g1, k, ell)
                assert net.mesh <= ell / k * (1.0 + 1e-14)
    g0 = polyline([(1e5, 0.0), (1e5, 1e5)])
    g1 = polyline([(1e5, 0.0), (110000.00000000001, 20000.0), (1e5, 1e5)])
    for k in (8, 16, 32, 64):
        build_net(g0, g1, k, pair_lipschitz(g0, g1))


def _assert_rows_are_arrays(net, dim):
    """Every row is a float64 array, (k+1, 2) in the plane and (k+1,) on a line."""
    shape = (net.k + 1, 2) if dim == 2 else (net.k + 1,)
    for i in range(net.k + 1):
        row = net.row(i)
        assert type(row) is np.ndarray and row.dtype == np.float64 and row.shape == shape


def _brute_force_grid(g0, g1, k):
    """H(i/k, j/k) at all (k+1)**2 nodes, endpoints snapped to row 0's."""
    rows = [[lerp(path_point(g0, j / k), path_point(g1, j / k), i / k) for j in range(k + 1)]
            for i in range(k + 1)]
    for r in rows:
        r[0], r[k] = rows[0][0], rows[0][k]
    return [tuple(r) for r in rows]


def line_pair():
    """Two paths of floats with common endpoints and different breaks."""
    g0 = polyline((0.0, 0.7, 0.2, 1.0))
    g1 = polyline((0.0, -0.3, 1.0), (0.0, 0.4, 1.0))
    return g0, g1, pair_lipschitz(g0, g1)


@pytest.mark.parametrize("pair", ["semicircle-ellipse", "identical", "line"])
@pytest.mark.parametrize("k", [8, 16])
def test_net_rows_and_mesh_match_the_brute_force_grid(k, pair):
    g0, g1, ell = line_pair() if pair == "line" else semicircle_pair()
    if pair == "identical":
        g1 = g0
    net = build_net(g0, g1, k, ell)
    grid = _brute_force_grid(g0, g1, k)
    _assert_rows_are_arrays(net, 1 if pair == "line" else 2)
    assert all(np.array_equal(net.row(i), np.array(r)) for i, r in enumerate(grid))
    steps = [euclidean(r[j], r[j + 1]) for r in grid for j in range(k)]
    steps += [euclidean(a, b) for r, r2 in zip(grid, grid[1:]) for a, b in zip(r, r2)]
    assert max(steps) <= net.mesh <= max(steps) + 1e-12
    with pytest.raises(IndexError):
        net.row(k + 1)


def _count_path_samples(monkeypatch, name="at"):
    calls = []
    real = getattr(LipPath, name)

    def counted(self, u):
        calls.append(u)
        return real(self, u)

    monkeypatch.setattr(LipPath, name, counted)
    return calls


def test_build_net_samples_each_path_once_per_column(monkeypatch):
    g0, g1, ell = semicircle_pair()
    calls = _count_path_samples(monkeypatch)
    samples = _count_path_samples(monkeypatch, "sample")
    for k in (8, 16):
        calls.clear()
        samples.clear()
        build_net(g0, g1, k, ell)
        ts = regular(0.0, 1.0, k).points.tolist()
        assert [u.tolist() for u in samples] == [ts, ts] and calls == []


def test_pair_lipschitz_samples_each_path_once_over_the_union_of_breaks(monkeypatch):
    pairs = [
        (arc_path(1.0, 0.0, math.pi, 6), ellipse_arc_path(1.0, 1.6, 0.0, math.pi, 4)),
        line_pair()[:2],
    ]
    # the same bound, point by point
    expected = [
        max(g0.lip_norm, g1.lip_norm,
            max(euclidean(g0.at(u), g1.at(u)) for u in set(g0.breaks) | set(g1.breaks)))
        for g0, g1 in pairs
    ]
    calls = _count_path_samples(monkeypatch)
    samples = _count_path_samples(monkeypatch, "sample")
    for (g0, g1), ell in zip(pairs, expected):
        calls.clear()
        samples.clear()
        assert repr(pair_lipschitz(g0, g1)) == repr(ell)
        us = sorted(set(g0.breaks) | set(g1.breaks))
        assert samples == [us, us] and calls == []


def test_pulled_back_chain_samples_each_point_once(monkeypatch):
    calls = _count_path_samples(monkeypatch)
    samples = _count_path_samples(monkeypatch, "sample")
    k = 16
    params = regular(0.0, 1.0, k).points
    for variant in ("exact-segment", "midpoint"):
        pulled = pullback_flow(make_flat_connection(variant), arc_path(1.0, 0.0, math.pi, 64))
        calls.clear()
        samples.clear()
        pulled.increments(params)
        assert samples == [params] and calls == []
        samples.clear()
        compose_along(pulled, params)
        # the one sample of the increments; the two ``at`` calls fetch the end spaces
        assert samples == [params] and sorted(calls) == [0.0, 1.0]


# --- ladder maps -----------------------------------------------------------------

def test_ladder_boundary_identity_is_exact():
    g0, g1, ell = semicircle_pair()
    fc = make_flat_connection()
    net = build_net(g0, g1, 8, ell)
    for i in range(1, net.k):
        a = ladder_map(net, fc, i - 1, net.k - 1)
        b = ladder_map(net, fc, i, 0)
        assert map_distance_value(a, b) == 0.0


def test_ladder_map_j0_composes_within_one_row():
    g0, g1, ell = semicircle_pair()
    fc = make_flat_connection()
    net = build_net(g0, g1, 8, ell)
    for i in (0, 3, 7):
        assert map_distance_value(ladder_map(net, fc, i, 0),
                                  compose_along(fc, net.row(i))) == 0.0
    with pytest.raises(IndexError):
        ladder_map(net, fc, 0, net.k)


def test_row_map_is_the_chain_of_mu_along_the_row():
    # a row is one rotation by its summed angles: the lift is the chain's bit
    # for bit, (x, y) the chain's to rounding
    g0, g1, ell = semicircle_pair()
    for model in (make_flat_connection(), make_flat_connection("midpoint")):
        net = build_net(g0, g1, 8, ell)
        fiber = model.space_at(g0.start)
        for i in range(net.k + 1):
            row = net.row(i)
            got = compose_along(model, row)
            chain = compose_chain(map(model.mu, row, row[1:]))
            rotation = rotation_map(fiber, fiber, [model.increments((a, b))[0]
                                                   for a, b in zip(row, row[1:])][::-1])
            for p in got.source.probes:
                image, chained = got.eval(p), chain.eval(p)
                assert image[2] == chained[2]
                assert image[:2] == rotation.eval(p)[:2]
                assert euclidean(image[:2], chained[:2]) <= 1e-13


def test_fused_pulled_midpoint_chain_matches_the_chain_of_mu():
    pulled = pullback_flow(make_flat_connection("midpoint"), circle_path(1.0, 2.0, 64))
    params = regular(0.0, 1.0, 1024).points
    fused = compose_along(pulled, params)
    chain = compose_chain(map(pulled.mu, params, params[1:]))
    for p in fused.source.probes:
        image, chained = fused.eval(p), chain.eval(p)
        assert image[2] == chained[2]
        assert euclidean(image[:2], chained[:2]) <= 1e-12


def test_fused_pulled_chain_names_the_pullback_on_an_antipodal_chord():
    pulled = pullback_flow(make_flat_connection(), arc_path(1.0, 0.0, math.pi, 2))
    assert pulled.increments is not None
    with pytest.raises(ModelDomainError, match="pullback of"):
        compose_along(pulled, (0.0, 1.0))


def test_ladder_map_constant_homotopy_independent_of_indices():
    g = arc_path(1.0, 0.0, 1.0, 16)
    ell = pair_lipschitz(g, g)
    fc = make_flat_connection()
    net = build_net(g, g, 4, max(ell, g.lip_norm))
    base = ladder_map(net, fc, 0, 0)
    for i in range(net.k):
        for j in range(net.k):
            assert map_distance_value(ladder_map(net, fc, i, j), base) == 0.0


def test_adjacent_ladder_maps_obey_the_strong_four_point_bound():
    g0, g1, ell = semicircle_pair()
    fm = make_flat_connection("midpoint")
    net = build_net(g0, g1, 8, ell)
    for i in (0, 4):
        for j in (0, 3, 6):
            a = ladder_map(net, fm, i, j)
            b = ladder_map(net, fm, i, j + 1)
            measured = map_distance_value(a, b)
            # the two compositions differ only around the moved node pair
            col = net.k - j - 1
            x = net.row(i)[col - 1]
            u = net.row(i)[col]
            v = net.row(i + 1)[col]
            y = net.row(i + 1)[col + 1]
            _, bound = four_point_defect(fm, x, u, v, y)
            assert measured <= bound + 1e-9


# --- knit compare ----------------------------------------------------------------

def test_knit_compare_constant_homotopy_is_zero():
    g = arc_path(1.0, 0.0, 1.5, 32)
    ell = pair_lipschitz(g, g)
    fc = make_flat_connection()
    net = build_net(g, g, 8, max(ell, g.lip_norm))
    measured, bound = knit_compare(net, fc)
    assert measured == 0.0 and bound == 0.0


def test_knit_compare_exact_segment_is_rounding_level():
    g0, g1, ell = semicircle_pair()
    fc = make_flat_connection()
    net = build_net(g0, g1, 32, ell)
    measured, _ = knit_compare(net, fc)
    assert measured <= 1e-9


def test_knit_compare_midpoint_decay_and_bound():
    g0, g1, ell = semicircle_pair()
    fm = make_flat_connection("midpoint")
    results = {}
    for k in (8, 16, 32):
        net = build_net(g0, g1, k, ell)
        measured, bound = knit_compare(net, fm)
        assert measured <= bound + 1e-9
        results[k] = measured
    assert results[8] / results[16] >= 1.7
    assert results[16] / results[32] >= 1.7


@pytest.mark.parametrize("variant", ["midpoint", "exact-segment"])
def test_knit_rows_take_the_array_pass_of_angles(variant):
    # angles has one pass: a knit row given as tuples has its array angles by repr
    g0, g1, ell = semicircle_pair()
    net = build_net(g0, g1, 64, ell)
    conn = FlatConnection(variant)
    for i in (0, 17, net.k):
        row = net.row(i)
        assert repr(conn.angles(list(map(tuple, row.tolist())))) == repr(conn.angles(row))


def test_knit_compare_rejects_sewing_mode_models():
    g0, g1, ell = semicircle_pair()
    net = build_net(g0, g1, 4, ell)
    with pytest.raises(WrongMode):
        knit_compare(net, make_additive_sin())


def test_knit_bound_formula():
    fm = make_flat_connection("midpoint")
    h = fm.hoelder
    k = 16
    got = knit_bound(h, 2.0, k)
    # L = 0 for rotation fibers: exp term is 1 and the prefactor is 2
    assert got == pytest.approx(2.0 * h.c_total * 2.0**3 / k, rel=1e-12)


def test_knit_bound_and_prime_constant_with_a_positive_slope():
    # with L > 0 the bound is g(delta*ell) * (2 + f(delta*ell)) * ..., the same
    # formula as exp(delta*ell*L) * (2 + delta*ell*L) * ...
    h = HoelderData(1.0, ((2.0, 1.0, 3.0), (1.0, 2.0, 3.0)), 0.7, MODE_KNITTING)
    ell, k = 2.0, 16
    x = ell / k * 0.7
    got = knit_bound(h, ell, k)
    assert got == h.g(ell / k) * (2.0 + h.f(ell / k)) * h.c_total * ell**3 / k
    assert got == pytest.approx(math.exp(x) * (2.0 + x) * 6.0 * 8.0 / k, rel=1e-12)
    lip, span = 1.5, 0.5
    assert knit_prime_constant(h, lip, span) == pytest.approx(
        4.0 * math.exp(0.7 * lip * span) * 6.0 * zeta(3.0), rel=1e-12
    )
    steep = dataclasses.replace(h, lip_slope=1e308)
    with pytest.raises(NonFiniteValue):
        knit_bound(steep, ell, k)
    with pytest.raises(NonFiniteValue):
        knit_prime_constant(steep, lip, span)
    with pytest.raises(NonFiniteValue):
        knit_bound(h, 1e200, k)  # ell**3 overflows


# --- holonomy ---------------------------------------------------------------------

def test_holonomy_constant_path_is_identity():
    fc = make_flat_connection()
    flow, cert = holonomy(fc, arc_path(1.0, 0.7, 0.7, 4), 1e-8)
    assert cert.limit_value == 0.0
    assert all(flow.eval(p) == p for p in flow.source.probes)


def test_holonomy_full_circle_accumulates_two_pi():
    fc = make_flat_connection()
    _, cert = holonomy(fc, circle_path(1.0, 1.0, 64), 1e-8)
    assert abs(cert.limit_value - 2.0 * math.pi) <= 1e-6
    assert winding_number(circle_path(1.0, 1.0, 64).points) == 1


def test_holonomy_contractible_square_is_flat():
    fc = make_flat_connection()
    loop = square_loop((2.0, 0.0), 0.5)
    assert winding_number(loop.points) == 0
    _, cert = holonomy(fc, loop, 1e-8)
    assert abs(cert.limit_value) <= 1e-6


def test_holonomy_midpoint_variant_converges_to_the_same_angle():
    fm = make_flat_connection("midpoint")
    _, cert = holonomy(fm, circle_path(1.0, 1.0, 64), 1e-8)
    assert abs(cert.limit_value - 2.0 * math.pi) <= 1e-6


def test_knitting_prime_constant_bounds_the_sewn_gap():
    # along a unit-Lipschitz arc the sewn holonomy stays within
    # C' * span**(1+eps) of the single-step map, with C' using zeta(2+eps)
    fm = make_flat_connection("midpoint")
    g = arc_path(1.0, 0.0, 1.0, 64)  # Lip ~ 1
    pulled = pullback_flow(fm, g)
    for (s, t) in ((0.0, 1.0), (0.2, 0.7), (0.1, 0.35)):
        _, cert = sew(pulled, s, t, 1e-9)
        span = abs(t - s)
        c_strong = knit_prime_constant(fm.hoelder, g.lip_norm, span)
        assert cert.mu_distance is not None
        assert cert.mu_distance + cert.tail_estimate <= c_strong * span ** (
            1.0 + fm.hoelder.epsilon
        ) + 1e-9


def test_knit_prime_constant_uses_zeta_two_plus_eps():
    fm = make_flat_connection("midpoint")
    h = fm.hoelder
    got = knit_prime_constant(h, 1.0, 1.0)
    assert got == pytest.approx(4.0 * h.c_total * zeta(3.0), rel=1e-12)
    with pytest.raises(WrongMode):
        knit_prime_constant(make_additive_sin().hoelder, 1.0, 1.0)


def test_class_separation_upper_vs_lower_semicircle():
    fc = make_flat_connection()
    _, up = holonomy(fc, arc_path(1.0, 0.0, math.pi, 64), 1e-8)
    _, lo = holonomy(fc, arc_path(1.0, 0.0, -math.pi, 64), 1e-8)
    assert abs(up.limit_value - math.pi) <= 1e-9
    assert abs(lo.limit_value + math.pi) <= 1e-9
    assert abs((up.limit_value - lo.limit_value) - 2.0 * math.pi) <= 1e-6


def test_homotopy_invariance_angle_difference_within_knit_bound():
    g0, g1, ell = semicircle_pair()
    fm = make_flat_connection("midpoint")
    _, s0 = holonomy(fm, g0, 1e-9)
    _, s1 = holonomy(fm, g1, 1e-9)
    for k in (8, 16, 32):
        assert abs(s0.limit_value - s1.limit_value) <= knit_bound(fm.hoelder, ell, k) + 1e-9


def test_midpoint_square_loop_angle_uses_the_certificate_columns():
    # the limit angle is the Richardson combination of the recorded level
    # angles over the columns the certificate names: the declared even orders
    fm = make_flat_connection("midpoint")
    loop = square_loop((2.0, 0.0), 0.5)
    _, cert = holonomy(fm, loop, 1e-7)
    orders = cert.extrapolation_orders
    assert orders and orders == MIDPOINT_EXPANSION_ORDERS[: len(orders)]
    coefs = _column_coefs(orders, cert.ratio_estimate)
    table = []
    for rec in cert.levels:
        table = _romberg_row(table, (rec.value,), coefs)
    assert len(table) == len(orders) + 1
    assert cert.limit_value == table[-1][0]
    assert abs(cert.limit_value) <= 1e-9


@pytest.mark.parametrize("variant", [FlatConnection.EXACT, FlatConnection.MIDPOINT])
@pytest.mark.parametrize(
    "loop", [circle_path(1.0, 1.0, 64), square_loop((2.0, 0.0), 0.5)], ids=["circle", "square"]
)
def test_holonomy_level_values_are_the_summed_step_angles(variant, loop):
    # each level's value is the angle the lift accumulates along its chain,
    # which is the forward sum of the per-step angles up to rounding; tol 0
    # runs the full ladder, since the exact variant stops at its base level
    angles = FlatConnection(variant).angles
    _, cert = holonomy(make_flat_connection(variant), loop, 0.0, max_level=6)
    assert len(cert.levels) == 7
    for rec in cert.levels:
        pts = regular(0.0, 1.0, rec.intervals).points
        forward = sum(angles((loop.at(a), loop.at(b)))[0] for a, b in zip(pts, pts[1:]))
        assert abs(rec.value - forward) <= 1e-11


# --- a non-commuting model: the pure-gauge SO(3) connection ---------------------

@pytest.mark.parametrize("k", [8, 16, 32, 64])
def test_knit_rows_of_a_non_commuting_pure_gauge_are_rounding_level(k):
    # flat with declared constants 0: the rows telescope to one transport;
    # multiplied in the wrong order they are more than 2 apart on the R^3 probes
    g0, g1, ell = semicircle_pair()
    net = build_net(g0, g1, k, ell)
    measured, bound = knit_compare(net, pure_gauge_so3())
    assert bound == 0.0 and measured <= 1e-13 and within_bound(measured, bound)
    wrong, bound = knit_compare(net, misordered(pure_gauge_so3()))
    assert wrong > 2.0 and not within_bound(wrong, bound)


@pytest.mark.parametrize(
    "path,loop",
    [(square_loop(), True), (circle_path(1.0, 1.0, 64), True),
     (arc_path(1.0, 0.0, math.pi / 2, 16), False)],
    ids=["square", "circle", "quarter-arc"],
)
def test_pure_gauge_holonomy_is_the_transport_between_the_ends(path, loop):
    # g(start)^T g(end): the identity around a loop, over 2 from it along the arc
    model = pure_gauge_so3()
    hol, cert = holonomy(model, path, 0.0, max_level=6)
    assert len(cert.levels) == 7 and cert.mu_bound_ok
    assert map_distance_value(hol, model.mu(path.start, path.end)) <= 1e-13
    assert (map_distance_value(hol, identity_map(hol.source)) <= 1e-13) == loop


# --- a curved control: the constant so(3) connection declared as if flat ----------

@pytest.mark.parametrize("seed,over", [(0, 43), (1, 42), (2, 44)])
def test_strong_four_point_rows_flag_a_curved_connection_declared_flat(seed, over):
    # degree-2 curvature defects against the midpoint's degree-3 declared bounds;
    # the rows are the check, since the fitted epsilon_hat (-0.02, 0.13, 0.17)
    # falls below STRONG_MODE_MIN_EPSILON at seed 0 only
    samples = annulus_four_point_samples(np.random.default_rng(seed), 48)
    report = fit_strong_four_point(curved_so3(), samples)
    assert len(report.rows) == 48
    assert sum(not within_bound(r.defect, r.declared_bound) for r in report.rows) == over


@pytest.mark.parametrize("k", [8, 16, 32, 64, 128, 256, 512])
def test_knit_rows_of_a_curved_connection_fail_only_from_k_512(k):
    # rows 0 and k differ by the transport around the homotopy's region, about
    # 1.9 at every k, while the declared bound falls like 1/k from 106 at k = 8:
    # every knit row the CLI runs by default passes this O(1) error
    g0, g1, ell = semicircle_pair()
    measured, bound = knit_compare(build_net(g0, g1, k, ell), curved_so3())
    assert 1.9 <= measured <= 2.0
    assert bound == pytest.approx(106.32 * 8 / k, rel=1e-4)
    assert within_bound(measured, bound) == (k < 512)
