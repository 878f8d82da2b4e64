import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    InsufficientProbes,
    chain_composition_bound,
    composition_distance_bound,
    lipschitz_estimate,
    metric_axiom_violations,
    path_length,
    translate,
)
from sewkit import (
    DomainMismatch,
    MetricSpace,
    ProbedMap,
    compose,
    compose_chain,
    map_distance_value,
    plane_grid,
    real_line,
    translation_map,
)
from sewkit.metric import distances, euclidean


def line(probes, name="line"):
    return MetricSpace(name, euclidean, tuple(probes))


def affine(space, a, b):
    return ProbedMap(space, space, lambda x: a * x + b)


# --- extended distances -----------------------------------------------------

#: coordinates that stress the norm: signed zeros, non-finite values, extreme
#: magnitudes, and values whose differences overflow a double
_EDGE_COORDS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, -1e-300,
                1.7e308, -1.7e308, 5e-324]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_distances_have_the_bits_of_euclidean_row_by_row(dim):
    # arrays of point differences are measured by one routine with the bits of
    # the scalar metric, and an overflowing difference is a silent inf there too
    rng = np.random.default_rng(dim)
    n = 10_000
    shape = (n,) if dim == 1 else (n, dim)
    a = rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
    b = rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
    for x in (a, b):
        edge = rng.random(shape) < 0.2
        x[edge] = rng.choice(_EDGE_COORDS, size=int(edge.sum()))
    a[0], b[0] = 1.7e308, -1.7e308   # differences that overflow, of both signs
    a[1], b[1] = -1.7e308, 1.7e308
    points_a = a.tolist() if dim == 1 else list(map(tuple, a.tolist()))
    points_b = b.tolist() if dim == 1 else list(map(tuple, b.tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = distances(a, b)
        expect = list(map(euclidean, points_a, points_b))
    assert all(type(d) is float for d in got)
    assert list(map(repr, got)) == list(map(repr, expect))
    assert got[0] == got[1] == math.inf


def test_infinite_distance_between_galaxies():
    # two-galaxy extended space: points on either side of 0 are infinitely far
    def two_galaxy(a, b):
        return abs(a - b) if (a >= 0) == (b >= 0) else math.inf

    space = MetricSpace("galaxies", two_galaxy, (-2.0, -1.0, 1.0, 2.0))
    assert path_length((-2.0, -1.0, 1.0), space) == math.inf
    f = ProbedMap(space, space, lambda x: x)
    g = ProbedMap(space, space, lambda x: -x)
    assert map_distance_value(f, g) == math.inf


# --- map_distance_value -------------------------------------------------------

def test_map_distance_examples():
    space = line((0.0, 1.0))
    f = affine(space, 1.0, 0.0)
    assert map_distance_value(f, f) == 0.0
    g = affine(space, 1.0, 3.0)
    assert map_distance_value(f, g) == 3.0
    space3 = line((0.0, 0.5, 1.0))
    sq = ProbedMap(space3, space3, lambda x: x * x)
    ident = ProbedMap(space3, space3, lambda x: x)
    assert map_distance_value(sq, ident) == pytest.approx(0.25, abs=1e-15)


def test_map_distance_rejects_mismatched_spaces():
    f = affine(line((0.0, 1.0), "a"), 1.0, 0.0)
    g = affine(line((0.0, 1.0), "b"), 1.0, 0.0)
    with pytest.raises(DomainMismatch):
        map_distance_value(f, g)


@given(
    st.tuples(*[st.floats(-3, 3) for _ in range(6)]),
)
def test_map_distance_pseudo_metric(coeffs):
    a1, b1, a2, b2, a3, b3 = coeffs
    space = line((-1.0, -0.25, 0.5, 1.0))
    f, g, h = affine(space, a1, b1), affine(space, a2, b2), affine(space, a3, b3)
    dfg = map_distance_value(f, g)
    dgf = map_distance_value(g, f)
    assert dfg == pytest.approx(dgf, abs=1e-12)
    assert map_distance_value(f, f) == 0.0
    assert map_distance_value(f, h) <= dfg + map_distance_value(g, h) + 1e-12


# --- Lipschitz estimate and composition bounds -------------------------------

def test_lipschitz_estimate_examples():
    assert lipschitz_estimate(affine(line((0.0, 1.0, 2.0)), 1.0, 0.0)) == pytest.approx(1.0)
    assert lipschitz_estimate(affine(line((0.0, 1.0)), 3.0, 0.0)) == pytest.approx(3.0)
    space = line((0.0, math.pi / 2, math.pi))
    sin_map = ProbedMap(space, space, math.sin)
    assert lipschitz_estimate(sin_map) == pytest.approx(2.0 / math.pi, abs=1e-12)


def test_lipschitz_estimate_needs_two_probes():
    space = MetricSpace("pt", euclidean, (1.0,))
    with pytest.raises(InsufficientProbes):
        lipschitz_estimate(ProbedMap(space, space, lambda x: x))


def test_composition_distance_bound():
    assert composition_distance_bound(0.0, 1.0, 0.0) == 0.0
    assert composition_distance_bound(0.1, 2.0, 0.05) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        composition_distance_bound(-0.1, 1.0, 0.0)


def test_chain_composition_bound_unit_lipschitz():
    # three factors with unit Lipschitz constants: the gaps just add up
    assert chain_composition_bound([0.1, 0.2, 0.3], [1.0, 1.0, 1.0]) == pytest.approx(0.6)
    assert chain_composition_bound([1.0, 1.0], [2.0, 2.0]) == pytest.approx(3.0)


@given(
    st.tuples(*([st.floats(-0.5, 0.5) for _ in range(4)] + [st.floats(-2, 2) for _ in range(4)])),
)
@settings(max_examples=200)
def test_composition_bound_dominates_measured(coeffs):
    # inner maps keep the probe hull [-1,1] invariant, so the probed middle
    # sup distance (attained at the probes for affine gaps) is an honest sup
    a1, b1, a2, b2, c1, d1, c2, d2 = coeffs
    space = line((-1.0, 0.0, 0.5, 1.0))
    f, f2 = affine(space, a1, b1), affine(space, a2, b2)
    g, g2 = affine(space, c1, d1), affine(space, c2, d2)
    lhs = map_distance_value(compose(g, f), compose(g2, f2))
    # |c2| is the analytic Lipschitz constant of the primed outer map
    rhs = composition_distance_bound(
        map_distance_value(g, g2), abs(c2), map_distance_value(f, f2)
    )
    assert lhs <= rhs + 1e-9


# --- path length ------------------------------------------------------------

def test_path_length_examples():
    plane = MetricSpace("plane", euclidean, ((0.0, 0.0),))
    assert path_length([(0.0, 0.0)], plane) == 0.0
    l_shape = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
    assert path_length(l_shape, plane) == pytest.approx(2.0)
    circle = [
        (math.cos(a), math.sin(a))
        for a in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi)
    ]
    assert path_length(circle, plane) == pytest.approx(4.0 * math.sqrt(2.0))
    with pytest.raises(ValueError):
        path_length([], plane)
    for bad in (-0.5, math.nan):
        with pytest.raises(ValueError):
            path_length([0.0, 1.0], MetricSpace("bad", lambda a, b, d=bad: d, (0.0,)))


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8), st.integers(0, 6), st.floats(0, 1))
def test_path_length_monotone_under_refinement(samples, idx, w):
    space = line((0.0,), "r")
    base = path_length(samples, space)
    i = min(idx, len(samples) - 2)
    inserted = samples[: i + 1] + [samples[i] + w * (samples[i + 1] - samples[i])] + samples[i + 1 :]
    assert path_length(inserted, space) >= base - 1e-12


def test_builtin_spaces_satisfy_metric_axioms():
    assert metric_axiom_violations(real_line(-1, 1, 5)) == []


def test_a_space_needs_a_probe_and_one_probe_is_the_centre():
    assert real_line(-1.0, 3.0, 1).probes == (1.0,)
    assert plane_grid(2.0, 1).probes == ((0.0, 0.0),)
    for build in (lambda: real_line(n=0), lambda: plane_grid(n=0),
                  lambda: MetricSpace("empty", euclidean, ())):
        with pytest.raises(ValueError, match="probe"):
            build()


def test_compose_chain_streams_factors_from_a_generator():
    a, b = line((0.0, 1.0), "a"), line((0.0, 1.0), "b")
    f = affine(a, 2.0, 1.0)
    assert compose_chain(m for m in [f]) is f
    with pytest.raises(ValueError):
        compose_chain(m for m in [])
    # maps[0] o maps[1] o maps[2]: x -> 2x + 2 -> 4x + 5 -> 8x + 10
    assert compose_chain(affine(a, 2.0, float(j)) for j in range(3)).eval(1.0) == 18.0
    mixed = (affine(a, 1.0, 0.0), affine(b, 1.0, 0.0), affine(a, 1.0, 0.0))
    with pytest.raises(DomainMismatch, match="inner target 'b' != outer source 'a'"):
        compose_chain(m for m in mixed)


def test_compose_chain_never_holds_all_factors():
    space = line((0.0, 1.0))
    refs, most_alive = [], 0

    def factors():
        nonlocal most_alive
        for _ in range(50):
            most_alive = max(most_alive, sum(r() is not None for r in refs))
            m = affine(space, 1.0, 1.0)
            refs.append(weakref.ref(m))
            yield m

    chain = compose_chain(factors())
    assert chain.eval(0.0) == 50.0
    assert most_alive <= 2


# --- translations -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**4),
    st.floats(1e-12, 1.0),
    st.floats(-1.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_translation_map_adds_the_shifts_in_order_bit_for_bit(n, scale, p, seed):
    # magnitudes spread over three decades below the scale, signs mixed
    rng = np.random.default_rng(seed)
    shifts = scale * rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 0.0, n)
    sp = real_line()
    expect = repr(translate(p, shifts.tolist()))
    for given_shifts in (shifts, shifts.tolist()):
        image = translation_map(sp, sp, given_shifts).eval(p)
        assert type(image) is float and repr(image) == expect
