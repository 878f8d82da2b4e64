import dataclasses
import gc
import itertools
import math
import re
import sys
import warnings
import weakref

import numpy as np
import pytest

from oracles import adaptive_simpson, expm2, lipschitz_estimate, stieltjes_midpoint, winding_number
from sewkit import (
    InadmissibleRegularity,
    ModelDomainError,
    arc_path,
    circle_path,
    compose_along,
    compose_chain,
    four_point_defect,
    holonomy,
    make_additive,
    make_additive_sin,
    make_euler,
    make_euler_linear,
    make_euler_matrix,
    make_euler_sin,
    make_flat_connection,
    make_young,
    map_distance_value,
    plane_grid,
    polyline,
    pullback_flow,
    real_line,
    regular,
    sew,
    within_bound,
)
from sewkit.certify import ANNULUS_SCALES, annulus_four_point_samples
from sewkit.flows import HoelderData
from sewkit.metric import euclidean, p_norm
from sewkit.models import FlatConnection


ALL_INTERVAL_MODELS = [
    make_additive_sin(),
    make_euler_linear(1.0),
    make_euler_sin(),
    make_young(lambda t: t, lambda t: t, 1.0, 1.0),
]


@pytest.mark.parametrize("model", ALL_INTERVAL_MODELS, ids=lambda m: m.name)
def test_mu_at_equal_parameters_is_the_identity(model):
    for s in (0.0, 0.37, 1.0):
        m = model.mu(s, s)
        assert all(m.eval(p) == p for p in m.source.probes)


def test_additive_sewn_translation_matches_quadrature():
    rng = np.random.default_rng(3)
    m = make_additive_sin()
    for _ in range(5):
        s, t = sorted(rng.uniform(0.0, 1.0, size=2))
        if t - s < 0.05:
            continue
        _, cert = sew(m, s, t, 1e-9)
        expect = adaptive_simpson(math.sin, s, t)
        assert cert.limit_value == pytest.approx(expect, abs=1e-8)


def test_additive_with_custom_table():
    h = HoelderData(1.0, ((1.0, 1.0, 1.0),))
    m = make_additive(lambda s, t: np.cos(s) * (t - s), h, name="additive-cos")
    _, cert = sew(m, 0.0, 1.0, 1e-9)
    assert cert.limit_value == pytest.approx(math.sin(1.0), abs=1e-8)


def test_euler_linear_three_point_defect_bound():
    # measured defect <= lam*(1 + lam*|t-s|)*|t-u|*|u-s| on probes
    m = make_euler_linear(1.0)
    rng = np.random.default_rng(1)
    for _ in range(200):
        s, u, t = sorted(rng.uniform(0.0, 1.0, size=3))
        direct = m.mu(s, t)
        via = compose_chain([m.mu(s, u), m.mu(u, t)])
        defect = map_distance_value(direct, via)
        assert defect <= 1.0 * (1.0 + (t - s)) * (t - u) * (u - s) + 1e-12


def test_euler_matrix_sews_to_the_matrix_exponential():
    a = [[0.2, -1.0], [1.0, 0.1]]
    m = make_euler_matrix(a)
    flow, _ = sew(m, 0.0, 1.0, 1e-9)
    expect = expm2(a)
    got = np.column_stack([flow.eval((1.0, 0.0)), flow.eval((0.0, 1.0))])
    assert np.linalg.norm(got - expect, 2) <= 1e-6


def test_young_examples_and_admissibility():
    m = make_young(lambda t: t, lambda t: t, 1.0, 1.0)
    _, cert = sew(m, 0.0, 1.0, 1e-9)
    assert cert.limit_value == pytest.approx(0.5, abs=1e-8)

    m2 = make_young(np.sin, lambda t: t * t, 1.0, 1.0, c_y=2.0)
    _, cert2 = sew(m2, 0.0, 1.0, 1e-9)
    expect = stieltjes_midpoint(lambda t: t * t, math.sin)
    assert cert2.limit_value == pytest.approx(expect, abs=1e-8)

    with pytest.raises(InadmissibleRegularity):
        make_young(lambda t: t, lambda t: t, 0.5, 0.5)


_H = HoelderData(1.0, ((1.0, 1.0, 1.0),))


@pytest.mark.parametrize(
    "build,fragment",
    [
        (lambda: make_young(math.sin, np.sin, 0.75, 0.75), "x_fn <built-in function sin>"),
        (lambda: make_young(lambda t: t, lambda t: list(t), 0.75, 0.75), "y_fn <function"),
        (lambda: make_young(lambda t: t, lambda t: t.astype(np.float32), 0.75, 0.75), "y_fn"),
        (lambda: make_young(lambda t: 1.0, lambda t: t, 0.75, 0.75), "x_fn"),
        (lambda: make_additive(lambda s, t: math.sin(s) * (t - s), _H), "mu_tilde"),
        (lambda: make_additive(lambda s, t: list(np.sin(s) * (t - s)), _H), "mu_tilde"),
        (lambda: make_additive(lambda s, t: np.sin(s[:1]) * (t[:1] - s[:1]), _H), "mu_tilde"),
    ],
    ids=["math-sin", "list", "float32", "scalar", "additive-math-sin", "additive-list",
         "additive-shape"],
)
def test_drivers_that_are_not_array_functions_fail_closed(build, fragment):
    # tried once on 2-element float64 arrays when the model is built, not deep inside a sew
    with pytest.raises(ValueError, match="must map float64 arrays") as err:
        build()
    assert fragment in str(err.value)


def test_translation_increments_are_float64_arrays():
    for m in (make_additive_sin(), make_young(np.sin, lambda t: t * t, 0.8, 0.7, c_y=2.0)):
        for params in ((0.0, 0.5), [0.0, 0.25, 1.0], regular(0.0, 1.0, 8).points):
            inc = m.increments(params)
            assert isinstance(inc, np.ndarray) and inc.dtype == np.float64
            assert inc.shape == (len(params) - 1,)


def test_young_three_point_defect_is_exact_product():
    m = make_young(lambda t: t, lambda t: t, 1.0, 1.0)
    s, u, t = 0.1, 0.35, 0.8
    direct = m.mu(s, t)
    via = compose_chain([m.mu(s, u), m.mu(u, t)])
    assert map_distance_value(direct, via) == pytest.approx((u - s) * (t - u), abs=1e-15)


def test_euler_step_lipschitz_within_declared_slope():
    # probed Lipschitz estimate is a lower bound; it must stay under 1 + L*|t-s|
    m = make_euler_sin()
    rng = np.random.default_rng(8)
    for _ in range(50):
        s, t = rng.uniform(0.0, 1.0, size=2)
        est = lipschitz_estimate(m.mu(float(s), float(t)))
        assert est <= 1.0 + m.hoelder.lip_slope * abs(t - s) + 1e-12


def test_hoelder_growth_axioms_and_validation():
    for m in ALL_INTERVAL_MODELS + [make_flat_connection("midpoint")]:
        h = m.hoelder
        assert h.g(0.0) >= 1.0
        samples = [h.g(0.1 * j) for j in range(11)]
        assert all(a <= b + 1e-15 for a, b in zip(samples, samples[1:]))
    with pytest.raises(ValueError):
        HoelderData(1.0, ((1.0, 0.5, 1.0),))  # a + b != 1 + eps
    with pytest.raises(ValueError):
        HoelderData(0.0, ((0.5, 0.5, 1.0),))  # eps must be positive
    with pytest.raises(ValueError):
        HoelderData(1.0, ((2.0, 1.0, 1.0),), mode="weaving")
    with pytest.raises(ValueError, match="at least one defect term"):
        HoelderData(1.0, ())
    with pytest.raises(ValueError, match="lip_slope"):
        HoelderData(1.0, ((1.0, 1.0, 1.0),), -0.5)
    for term in ((0.0, 2.0, 1.0), (2.0, 0.0, 1.0), (1.0, 1.0, -1.0)):
        with pytest.raises(ValueError, match="terms need"):
            HoelderData(1.0, (term,))
    h = HoelderData(1.0, ((1.0, 1.0, 1.0),), 0.5)
    with pytest.raises(ValueError, match="growth argument"):
        h.g(-0.1)
    with pytest.raises(ValueError, match="lip must be"):
        h.pulled_back(-1.0)


def test_euler_field_bound_must_be_declared():
    # a bound probed off the grid would miss the peak of sin(2x) at pi/4
    with pytest.raises(TypeError, match="field_bound"):
        make_euler(lambda x: math.sin(2.0 * x), 2.0)
    assert make_euler(math.cos, 1.0, field_bound=1.0).hoelder.c_total == 1.0


def test_euler_probes_are_probe_n_per_axis_and_the_defaults_keep_their_grids():
    rotation = [[0.0, 1.0], [-1.0, 0.0]]
    plane = make_euler(_matrix_field(rotation), 1.0, dim=2, field_bound=math.sqrt(2.0), probe_n=4)
    assert len(plane.space_at(0.0).probes) == 16
    # make_euler keeps its full grid: nothing tells it that a user's field is odd
    defaults = [
        (make_euler(math.sin, 1.0, field_bound=math.sin(1.0)),
         real_line(-1.0, 1.0, 5, name="euler-line")),
        (make_euler(_matrix_field(rotation), 1.0, dim=2, field_bound=math.sqrt(2.0)),
         plane_grid(1.0, 3, name="euler-plane")),
    ]
    for model, space in defaults:
        assert repr(model.space_at(0.0)) == repr(space)
    # the odd built-ins probe the points p >= -p of the same grids, under the same names
    halves = [
        (make_euler_linear(2.0), real_line(-1.0, 1.0, 5, name="euler-linear(2.0)-line"),
         (0.0, 0.5, 1.0)),
        (make_euler_sin(), real_line(-1.0, 1.0, 5, name="euler-sin-line"), (0.0, 0.5, 1.0)),
        (make_euler_matrix(rotation), plane_grid(1.0, 3, name="euler-matrix-plane"),
         ((0.0, 0.0), (0.0, 1.0), (1.0, -1.0), (1.0, 0.0), (1.0, 1.0))),
    ]
    for model, space, half in halves:
        assert repr(model.space_at(0.0)) == repr(dataclasses.replace(space, probes=half))
    # a grid that negation does not map onto itself bit for bit keeps every point
    for n in (4, 6):
        grid = real_line(-1.0, 1.0, n).probes
        assert {-p for p in grid} != set(grid)
        for model in (make_euler_linear(2.0, probe_n=n), make_euler_sin(probe_n=n)):
            assert repr(model.space_at(0.0).probes) == repr(grid)
    # the linear model declares |F| <= |lam| whatever its probes
    for n in (1, 2, 4):
        assert repr(make_euler_linear(-2.0, probe_n=n).hoelder) == repr(
            make_euler_linear(-2.0).hoelder)
    with pytest.raises(ValueError, match="lipschitz must be >= 0"):
        make_euler(math.sin, -1.0, field_bound=1.0)
    with pytest.raises(ValueError, match="dim must be 1 or 2"):
        make_euler(math.sin, 1.0, dim=3, field_bound=1.0)



# --- the built-in Euler models write out make_euler's step loop ---------------

def _matrix_field(a):
    (a00, a01), (a10, a11) = a
    return lambda p: (a00 * p[0] + a01 * p[1], a10 * p[0] + a11 * p[1])


def _euler_pairs():
    """Pairs of a built-in Euler model and the make_euler model of its
    field, Lipschitz constant and field bound, whose act runs the generic loop."""
    rng = np.random.default_rng(37)
    pairs = [(make_euler_linear(lam),
              make_euler(lambda x, _l=lam: _l * x, abs(lam), field_bound=abs(lam)))
             for lam in (1.0, -2.5, 0.3, 4.0, 0.0)]
    pairs.append((make_euler_sin(), make_euler(math.sin, 1.0, field_bound=1.0)))
    for _ in range(3):
        a = rng.uniform(-1.0, 1.0, size=(2, 2)).tolist()
        built = make_euler_matrix(a)
        field = _matrix_field(a)
        bound = max(p_norm(field(p)) for p in plane_grid(1.0, 3).probes)
        pairs.append((built, make_euler(field, built.hoelder.lip_slope, dim=2, field_bound=bound)))
    return pairs


def _seeded_chains():
    """Regular, reversed (negative steps) and irregular parameter arrays."""
    rng = np.random.default_rng(7)
    irregular = [np.sort(rng.uniform(-1.0, 1.5, size=n)) for n in (2, 5, 40, 300)]
    return ([regular(0.0, 1.0, 64).points, regular(0.7, -0.6, 100).points]
            + irregular + [c[::-1] for c in irregular]
            + [rng.uniform(-1.0, 1.0, size=25)])  # steps of both signs


@pytest.mark.parametrize("built,generic", _euler_pairs(), ids=lambda m: m.name)
def test_built_in_euler_acts_equal_the_generic_act_by_repr(built, generic):
    assert repr(built.hoelder) == repr(generic.hoelder)
    for params in _seeded_chains():
        fused, ref = compose_along(built, params), compose_along(generic, params)
        for p in ref.source.probes:  # the full grid, not the built-in model's half
            assert repr(fused.eval(p)) == repr(ref.eval(p)), (built.name, len(params), p)


@pytest.mark.parametrize("built,generic", _euler_pairs(), ids=lambda m: m.name)
def test_built_in_euler_sews_equal_the_generic_sews_by_repr(built, generic):
    rng = np.random.default_rng(11)
    spans = [(0.0, 1.0)] + [tuple(rng.uniform(-1.0, 1.0, size=2).tolist()) for _ in range(2)]
    for (s, t), tol in itertools.product(spans, (1e-7, 1e-8)):
        (flow, cert), (ref_flow, ref_cert) = sew(built, s, t, tol), sew(generic, s, t, tol)
        assert repr(cert.levels) == repr(ref_cert.levels), (built.name, s, t, tol)
        assert repr(cert.limit_value) == repr(ref_cert.limit_value)
        # the limit maps agree on the full grid, the half the built-in model probes included
        assert [repr(flow.eval(p)) for p in ref_flow.source.probes] == [
            repr(ref_flow.eval(p)) for p in ref_flow.source.probes]


def test_an_overflowing_linear_act_equals_the_generic_act_by_repr():
    lam = 1e300
    built, generic = make_euler_linear(lam), make_euler(lambda x: lam * x, lam, field_bound=lam)
    assert repr(built.hoelder) == repr(generic.hoelder)
    images = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in ((0.0, 0.5, 1.0, 1.5), (1.5, 1.0, 0.5, 0.0)):
            fused, ref = compose_along(built, params), compose_along(generic, params)
            for p in ref.source.probes:
                images.append(repr(fused.eval(p)))
                assert images[-1] == repr(ref.eval(p)), (params, p)
    assert "inf" in images and "nan" in images


def _zeros_unsigned(point) -> str:
    """repr of a point with every zero coordinate +0.0: no distance sees a zero's sign."""
    return repr(tuple(c + 0.0 for c in (point if isinstance(point, tuple) else (point,))))


@pytest.mark.parametrize("kind", ["linear", "sin", "matrix"])
def test_built_in_euler_chains_image_minus_p_to_minus_the_image_of_p(kind):
    # what lets the odd built-ins probe half their grid: over seeded chains of 1-40
    # steps of both signs, every non-zero grid point's mirror images to the
    # mirror of its image, infinite and NaN images included
    rng = np.random.default_rng(44)
    # half the fields of moderate size, half up to sizes whose chains overflow
    sizes = lambda shape, top: rng.choice((-1.0, 1.0), shape) * 10.0 ** rng.uniform(
        -3.0, rng.choice((3.0, top)), shape)
    if kind == "matrix":
        grid, neg = plane_grid(1.0, 3).probes, lambda p: (-p[0], -p[1])
    else:
        grid, neg = real_line(-1.0, 1.0, 5).probes, lambda p: -p
    images = []
    for _ in range(300):
        if kind == "linear":
            model = make_euler_linear(float(sizes((), 300.0)))
        elif kind == "sin":
            model = make_euler_sin()
        else:
            model = make_euler_matrix(sizes((2, 2), 70.0).tolist())
        chain = compose_along(model, rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 42))))
        for p in grid:
            if p != neg(p):  # the origin is its own mirror
                images.append(_zeros_unsigned(chain.eval(p)))
                assert _zeros_unsigned(chain.eval(neg(p))) == _zeros_unsigned(neg(chain.eval(p)))
    assert kind == "sin" or any("inf" in r for r in images) and any("nan" in r for r in images)


def test_sin_of_infinity_raises_the_same_error_in_both_acts():
    errors = []
    for m in (make_euler_sin(), make_euler(math.sin, 1.0, field_bound=1.0)):
        with pytest.raises(ValueError) as info:  # math.sin(inf): math domain error
            compose_along(m, (0.0, 0.5, 1.0)).eval(math.inf)
        errors.append(type(info.value))
    assert errors[0] is errors[1]


def _python_calls(image, p) -> int:
    """Python-level ``call`` events while ``image(p)`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        image(p)
    finally:
        sys.setprofile(outer)
    return calls


def _calls_per_image(model, k: int) -> int:
    fused = compose_along(model, regular(0.0, 1.0, k).points)
    return _python_calls(fused.eval, fused.source.probes[-1])


@pytest.mark.parametrize("built,generic", _euler_pairs(), ids=lambda m: m.name)
def test_built_in_euler_acts_make_no_python_call_per_step(built, generic):
    assert _calls_per_image(built, 16) == _calls_per_image(built, 1024)
    # the generic loop calls its point step and its field once per step, so
    # the count sees the difference
    assert _calls_per_image(generic, 16) < _calls_per_image(generic, 1024)


# --- flat connection ----------------------------------------------------------

def test_flat_connection_domain_checks():
    fc = make_flat_connection()
    with pytest.raises(ModelDomainError):
        fc.mu((0.1, 0.0), (1.0, 0.0))  # inside the excluded disk
    with pytest.raises(ModelDomainError):
        fc.mu((1.0, 0.0), (-1.0, 0.0))  # antipodal chord through the origin
    fm = make_flat_connection("midpoint")
    with pytest.raises(ModelDomainError):
        fm.mu((1.0, 0.9), (-1.0, -0.9))  # chord midpoint at the origin
    with pytest.raises(ValueError):
        make_flat_connection("simpson")


def _built_in_models():
    """Each built-in model, and the pullbacks of the flat connection along an
    arc, with parameter pairs (a, b) of its parameter space."""
    h = HoelderData(1.0, ((1.0, 1.0, 3.0),))
    times = ((0.1, 0.35), (0.9, 0.2), (0.4, 0.4))
    points = (((1.0, 0.2), (0.8, 0.7)), ((0.9, -0.3), (-0.2, 1.1)), ((1.0, 0.0),) * 2)
    on_line = [
        make_additive_sin(),
        make_additive(lambda s, t: np.exp(s) * (t - s), h),
        make_young(np.sin, lambda t: t * t, 0.75, 0.75, 1.0, 2.0),
        make_euler_linear(1.3),
        make_euler_sin(),
        make_euler_matrix(((0.0, 1.0), (-1.0, 0.2))),
    ]
    on_plane = [make_flat_connection(v) for v in ("exact-segment", "midpoint")]
    pulled = [pullback_flow(m, arc_path(1.0, 0.0, 2.0, 16)) for m in on_plane]
    return [(m, times) for m in on_line + pulled] + [(m, points) for m in on_plane]


def test_mu_is_act_over_its_one_increment():
    for model, pairs in _built_in_models():
        for a, b in pairs:
            source, target = model.space_at(b), model.space_at(a)
            m, via = model.mu(a, b), model.act(source, target, model.increments((a, b)))
            assert (m.source, m.target) == (via.source, via.target)
            for p in source.probes:
                assert repr(m.eval(p)) == repr(via.eval(p)), (model.name, a, b, p)


def test_mu_is_derived_unless_passed():
    m = make_additive_sin()
    passed = lambda a, b: None
    assert dataclasses.replace(m, mu=passed).mu is passed
    # replace keeps the derived mu of the old fields; mu=None derives it from the new ones
    doubled = lambda params: 2.0 * m.increments(params)
    shift = m.mu(0.5, 0.0).eval(0.0)
    assert shift != 0.0
    assert dataclasses.replace(m, increments=doubled).mu(0.5, 0.0).eval(0.0) == shift
    assert dataclasses.replace(m, increments=doubled, mu=None).mu(0.5, 0.0).eval(0.0) == 2.0 * shift


def test_a_derived_mu_holds_no_reference_to_its_model():
    enabled = gc.isenabled()
    gc.disable()
    try:
        ref = weakref.ref(make_euler_sin())
        assert ref() is None  # freed by reference counting alone: no cycle
    finally:
        if enabled:
            gc.enable()


def test_a_chain_checks_each_point_once(monkeypatch):
    screened, checked = [], []
    real_points, real_point = FlatConnection._check_points, FlatConnection._check_point

    def check_points(self, points):
        screened.append(len(points))
        real_points(self, points)

    def check_point(self, p):
        checked.append(p)
        real_point(self, p)

    monkeypatch.setattr(FlatConnection, "_check_points", check_points)
    monkeypatch.setattr(FlatConnection, "_check_point", check_point)
    k = 16
    arc = arc_path(1.0, 0.0, 2.0, 64)
    params = regular(0.0, 1.0, k).points
    for variant in ("exact-segment", "midpoint"):
        fc = make_flat_connection(variant)
        for chain in (lambda: compose_along(fc, tuple(map(arc.at, params))),
                      lambda: compose_along(pullback_flow(fc, arc), params)):
            screened.clear()
            checked.clear()
            chain()
            # a tuple chain takes the one array screen too, which finds no
            # point near the disk, so none needs confirming
            assert screened == [k + 1] and checked == []


def _disk_edge_points(lim, n_angles, seed):
    """(angle, point) pairs within 3 ulps of radius lim: those where a plain
    x*x + y*y < lim*lim or np.hypot screen disagrees with math.hypot, then
    every point of the first 40 angles."""
    tricky, plain = [], []
    for i, theta in enumerate(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, n_angles)):
        r = lim
        for _ in range(3):
            r = math.nextafter(r, 0.0)
        for _ in range(7):
            x, y = r * math.cos(theta), r * math.sin(theta)
            inside = math.hypot(x, y) < lim
            if inside != (x * x + y * y < lim * lim) or inside != (np.hypot(x, y) < lim):
                tricky.append((theta, (x, y)))
            elif i < 40:
                plain.append((theta, (x, y)))
            r = math.nextafter(r, 1.0)
    return tricky + plain


def test_points_at_the_disk_edge_raise_exactly_as_math_hypot_rejects():
    lim = 0.5 - 1e-12
    outcomes = set()
    for theta, p in _disk_edge_points(lim, 3000, 5):
        q0 = (math.cos(theta - 0.3), math.sin(theta - 0.3))
        q1 = (math.cos(theta + 0.3), math.sin(theta + 0.3))
        inside = math.hypot(*p) < lim
        outcomes.add(inside)
        for variant in ("exact-segment", "midpoint"):
            fc = make_flat_connection(variant)
            pulled = pullback_flow(fc, polyline((q0, p, q1)))
            for chain in (lambda: fc.mu(p, q1),
                          lambda: compose_along(fc, (q0, p, q1)),
                          lambda: compose_along(pulled, (0.0, 0.5, 1.0))):
                if inside:
                    with pytest.raises(ModelDomainError, match=re.escape(f"point {p} inside")):
                        chain()
                else:
                    chain()
    assert outcomes == {True, False}


def test_midpoint_too_close_chord_raises_in_every_chain():
    fm = make_flat_connection("midpoint")
    row = ((1.5, 0.0), (1.0, 0.9), (-1.0, -0.9))
    for chain in (lambda: compose_along(fm, row[1:]),
                  lambda: compose_along(fm, row),
                  lambda: compose_along(pullback_flow(fm, polyline(row)), (0.0, 0.5, 1.0))):
        with pytest.raises(ModelDomainError, match="midpoint too close"):
            chain()


def _quadruples(rng, n, r0):
    """n quadruples s, u, v, t in the plane: s at radius r0 to 3*r0, then three
    steps of at most r0/2 in any direction, so every chord of (s, u, t) and
    (s, v, t) is at most r0; some leave the domain."""
    phi = rng.uniform(0.0, 2.0 * math.pi, (n, 4))
    lengths = r0 * np.column_stack((rng.uniform(1.0, 3.0, n), rng.uniform(0.0, 0.5, (n, 3))))
    xs = np.add.accumulate(lengths * np.cos(phi), axis=1)
    ys = np.add.accumulate(lengths * np.sin(phi), axis=1)
    return [tuple(zip(*row)) for row in zip(xs.tolist(), ys.tolist())]


def _over_bound(model, quadruples):
    """The in-domain quadruples whose four-point defect exceeds its declared
    bound, and how many quadruples were in the domain."""
    over, used = [], 0
    for q in quadruples:
        try:
            defect, bound = four_point_defect(model, *q)
        except ModelDomainError:
            continue
        used += 1
        if not within_bound(defect, bound):
            over.append(q)
    return over, used


@pytest.mark.parametrize("variant", ["exact-segment", "midpoint"])
@pytest.mark.parametrize("r0", [1e-3, 1e-2, 0.1, 0.3, 0.5, 10.0, 1e3])
def test_flat_connection_four_point_bound_holds_at_every_r0(variant, r0):
    # the winding form is dilation invariant, so the declared constant must
    # scale with r0: the one of r0 = 0.5 fails from r0 = 0.3 down
    over, used = _over_bound(make_flat_connection(variant, r0),
                             _quadruples(np.random.default_rng(3), 1000, r0))
    assert used > 900
    assert over == []


@pytest.mark.parametrize("r0", [1e-3, 0.3, 0.5, 1e3])
def test_midpoint_four_point_bound_holds_at_the_inner_edge(r0):
    # annulus samples at r0's scale, from radius r0 to 1.5*r0: chains that
    # reach into the disk are out of the domain, the rest must hold
    samples = annulus_four_point_samples(np.random.default_rng(5), 400, (r0, 1.5 * r0),
                                         tuple(c * (r0 / 0.5) for c in ANNULUS_SCALES))
    over, used = _over_bound(make_flat_connection("midpoint", r0), samples)
    assert used > 200
    assert over == []


def test_midpoint_constant_scales_with_r0_as_its_cube():
    for r0, c in ((0.5, 3.0), (0.25, 24.0), (1.0, 0.375)):
        terms = make_flat_connection("midpoint", r0).hoelder.terms
        assert [t[2] for t in terms] == [c, c]
    assert {t[2] for t in make_flat_connection("exact-segment", 1e-3).hoelder.terms} == {0.0}


def test_flat_connection_inverse_is_exact():
    for variant in ("exact-segment", "midpoint"):
        fc = make_flat_connection(variant)
        x, y = (1.0, 0.2), (0.8, 0.7)
        round_trip = compose_chain([fc.mu(x, y), fc.mu(y, x)])
        assert all(
            math.hypot(*(np.array(round_trip.eval(p)) - np.array(p))) <= 1e-15
            for p in round_trip.source.probes
        )


def test_exact_segment_three_point_defect_vanishes_off_origin():
    fc = make_flat_connection()
    rng = np.random.default_rng(9)
    for _ in range(100):
        rho = rng.uniform(0.8, 1.6, size=3)
        base = rng.uniform(0.0, 2.0 * math.pi)
        ang = base + np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.5, size=2))])
        x, u, y = [(r * math.cos(a), r * math.sin(a)) for r, a in zip(rho, ang)]
        direct = fc.mu(x, y)
        via = compose_chain([fc.mu(x, u), fc.mu(u, y)])
        assert map_distance_value(direct, via) <= 1e-12


def test_midpoint_three_point_defect_has_positive_certified_gap():
    fm = make_flat_connection("midpoint")
    x, u, y = (1.0, 0.0), (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)), (0.0, 1.0)
    direct = fm.mu(x, y)
    via = compose_chain([fm.mu(x, u), fm.mu(u, y)])
    defect = map_distance_value(direct, via)
    d1 = euclidean(y, u)
    d2 = euclidean(u, x)
    assert 0.0 < defect <= fm.hoelder.defect_bound(d1, d2)


def test_exact_segment_holonomy_counts_winding():
    fc = make_flat_connection()
    rng = np.random.default_rng(17)
    for turns, segs in ((1.0, 48), (2.0, 96)):
        loop = circle_path(1.0, turns, segs)
        _, cert = holonomy(fc, loop, 1e-8)
        w = winding_number(loop.points)
        assert w == int(turns)
        assert abs(cert.limit_value - 2.0 * math.pi * w) <= 1e-9
    # a wobbly non-circular loop still matches its crossing-count winding
    pts = []
    n = 40
    for j in range(n):
        a = 2.0 * math.pi * j / n
        r = 1.2 + 0.3 * math.sin(3 * a)
        pts.append((r * math.cos(a), r * math.sin(a)))
    pts.append(pts[0])
    loop = polyline(tuple(pts))
    _, cert = holonomy(fc, loop, 1e-8)
    assert abs(cert.limit_value - 2.0 * math.pi * winding_number(loop.points)) <= 1e-9
