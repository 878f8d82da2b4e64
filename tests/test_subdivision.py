import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (
    CannotCoarsen,
    coarsen_minimal_pair,
    concat,
    dyadic_midpoints,
    max_gap,
    refines,
    reverse,
)
from sewkit import (
    EndpointMismatch,
    Subdivision,
    dyadic_refine,
    joint,
    mesh,
    regular,
)


def test_mesh_examples():
    assert mesh(Subdivision((0.0, 1.0))) == 1.0
    assert mesh(Subdivision((0.0, 0.25, 0.5, 1.0))) == 0.5
    assert mesh(regular(0.0, 1.0, 8)) == pytest.approx(0.125)
    assert mesh(Subdivision((0.5,))) == 0.0


def test_monotonicity_validation():
    with pytest.raises(ValueError):
        Subdivision((0.0, 0.5, 0.25, 1.0))
    with pytest.raises(ValueError):
        Subdivision((1.0, 0.25, 0.5, 0.0))  # decreasing interval needs decreasing points
    Subdivision((1.0, 0.5, 0.25, 0.0))
    with pytest.raises(ValueError, match="1-D"):
        Subdivision(((0.0, 0.0), (1.0, 1.0)))


@pytest.mark.parametrize("build", [
    lambda: Subdivision((0.0, math.nan, 1.0)),
    lambda: Subdivision((0.0, math.nan)),
    lambda: Subdivision((math.nan,)),
    lambda: Subdivision((0.0, math.inf)),
    lambda: regular(0.0, math.inf, 2),
    lambda: Subdivision(()),
    lambda: regular(0.0, 1.0, 0),
], ids=["nan-interior", "nan-end", "nan-point", "inf-end", "regular-to-inf", "empty",
        "regular-no-intervals"])
def test_non_finite_or_missing_points_are_rejected(build):
    # a NaN compares False both ways, so a pairwise order test alone lets it through
    with pytest.raises(ValueError):
        build()


def test_points_are_a_read_only_copy():
    a = np.array([0.0, 0.5, 1.0])
    sd = Subdivision(a)
    assert isinstance(sd.points, np.ndarray) and sd.points.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        sd.points[1] = 0.25
    a[1] = 0.25  # the caller's array stays writable, and the subdivision keeps its points
    assert sd.points.tolist() == [0.0, 0.5, 1.0]
    for derived in (regular(0.0, 1.0, 4), dyadic_refine(sd), reverse(sd), concat(sd, Subdivision((1.0, 2.0)))):
        with pytest.raises(ValueError, match="read-only"):
            derived.points[0] = 3.0


def test_dyadic_refine_examples():
    assert dyadic_refine(Subdivision((0.0, 1.0))).points.tolist() == [0.0, 0.5, 1.0]
    assert dyadic_refine(Subdivision((0.0, 0.5, 1.0))).points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    irregular = Subdivision((0.0, 0.1, 0.9, 1.0))
    assert mesh(dyadic_refine(irregular)) == pytest.approx(mesh(irregular) / 2.0)
    assert refines(dyadic_refine(irregular), irregular)


def test_joint_examples():
    a = Subdivision((0.0, 0.5, 1.0))
    b = Subdivision((0.0, 0.25, 1.0))
    assert joint(a, a).points.tolist() == a.points.tolist()
    assert joint(a, b).points.tolist() == [0.0, 0.25, 0.5, 1.0]
    assert mesh(joint(a, b)) <= min(mesh(a), mesh(b))
    with pytest.raises(EndpointMismatch):
        joint(a, Subdivision((0.0, 2.0)))


def test_reverse():
    s = Subdivision((0.0, 0.5, 1.0))
    assert reverse(s).points.tolist() == [1.0, 0.5, 0.0]
    assert reverse(reverse(s)).points.tolist() == s.points.tolist()
    assert mesh(reverse(s)) == mesh(s)


def test_concat():
    left = Subdivision((0.0, 0.25, 0.5))
    right = Subdivision((0.5, 1.0))
    assert concat(left, right).points.tolist() == [0.0, 0.25, 0.5, 1.0]
    with pytest.raises(EndpointMismatch):
        concat(left, Subdivision((0.6, 1.0)))


def test_coarsen_minimal_pair_examples():
    s, j = coarsen_minimal_pair(Subdivision((0.0, 0.1, 0.9, 1.0)))
    assert j == 1 and s.points.tolist() == [0.0, 0.9, 1.0]  # tie broken to smallest index
    s, j = coarsen_minimal_pair(regular(0.0, 1.0, 4))
    assert j == 1 and s.points.tolist() == [0.0, 0.5, 0.75, 1.0]
    with pytest.raises(CannotCoarsen):
        coarsen_minimal_pair(Subdivision((0.0, 1.0)))


def test_coarsen_pair_sum_inequality_randomized():
    # removed pair sum <= 2*span/(k-1) on random subdivisions
    rng = np.random.default_rng(42)
    for _ in range(300):
        k = int(rng.integers(2, 12))
        interior = tuple(sorted(rng.uniform(0.0, 1.0, size=k - 1)))
        subdiv = Subdivision((0.0, *interior, 1.0))
        pts = subdiv.points
        _, j = coarsen_minimal_pair(subdiv)
        assert abs(pts[j + 1] - pts[j - 1]) <= 2.0 / (subdiv.k - 1) + 1e-12


def test_coarsen_terminates_in_k_minus_1_steps():
    subdiv = Subdivision((0.0, 0.2, 0.3, 0.7, 0.95, 1.0))
    steps = 0
    while subdiv.interior.size:
        subdiv, _ = coarsen_minimal_pair(subdiv)
        steps += 1
    assert steps == 4
    assert subdiv.points.tolist() == [0.0, 1.0]


interiors = st.lists(st.floats(0.01, 0.99), max_size=5).map(
    lambda xs: tuple(sorted(set(round(x, 6) for x in xs)))
)


@given(interiors, interiors)
def test_joint_is_least_upper_bound(ia, ib):
    a = Subdivision((0.0, *ia, 1.0))
    b = Subdivision((0.0, *ib, 1.0))
    j = joint(a, b)
    assert refines(j, a) and refines(j, b)
    # any common refinement refines the joint
    common = Subdivision((0.0, *sorted(set(ia) | set(ib) | {0.5, 0.123456}), 1.0))
    assert refines(common, j)


@given(interiors)
def test_refinement_partial_order(ia):
    a = Subdivision((0.0, *ia, 1.0))
    d = dyadic_refine(a)
    assert refines(a, a)
    assert refines(d, a)
    assert not refines(a, d) or d.points.tolist() == a.points.tolist()


ends = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@given(ends, ends, st.integers(1, 8), st.integers(0, 8))
def test_refinement_ladders_match_the_plain_loop_bit_for_bit(s, t, k0, levels):
    # sew refines regular(s, t, k0) dyadically; these bits are what its CSVs print
    assume(abs(t - s) > 1e-3)
    subdiv = regular(s, t, k0)
    for _ in range(levels):
        assert repr(mesh(subdiv)) == repr(max_gap(subdiv.points.tolist()))
        refined = dyadic_refine(subdiv)
        assert repr(refined.points.tolist()) == repr(list(dyadic_midpoints(subdiv.points.tolist())))
        subdiv = refined
    assert repr(mesh(subdiv)) == repr(max_gap(subdiv.points.tolist()))
