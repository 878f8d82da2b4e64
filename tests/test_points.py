"""The point helpers keep the bits of their former 2-tuple forms, which the
CSV bounds and the net meshes read."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sewkit import segment_path
from sewkit.metric import euclidean

coords = st.floats(allow_nan=False, allow_infinity=False)
planar = st.tuples(coords, coords)


@given(planar, planar)
def test_euclidean_on_pairs_is_the_two_component_hypot(a, b):
    assert repr(euclidean(a, b)) == repr(math.hypot(a[0] - b[0], a[1] - b[1]))


@given(planar, planar, st.floats(0.0, 1.0))
def test_segment_sample_on_pairs_is_the_two_component_formula(a, b, w):
    # the ends are the stored points themselves, -0.0 included
    expected = ((1.0 - w) * a[0] + w * b[0], (1.0 - w) * a[1] + w * b[1])
    if w in (0.0, 1.0):
        expected = b if w else a
    assert repr(tuple(segment_path(a, b).sample([w])[0].tolist())) == repr(expected)


def test_euclidean_on_numbers_and_mismatched_points():
    assert euclidean(0.25, -1.0) == 1.25
    assert euclidean(3, 7) == 4
    assert euclidean((0.0, 0.0, 0.0), (1.0, 2.0, 2.0)) == 3.0
    with pytest.raises(ValueError):
        euclidean((0.0, 0.0), (1.0, 2.0, 2.0))
