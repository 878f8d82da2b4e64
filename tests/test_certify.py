import math

import numpy as np
import pytest

import oracles
from sewkit import (
    InsufficientSamples,
    SewkitError,
    annulus_four_point_samples,
    annulus_three_point_samples,
    arc_path,
    fit_strong_four_point,
    fit_three_point,
    four_point_defect,
    interval_four_point_samples,
    interval_three_point_samples,
    make_additive_sin,
    make_euler_linear,
    make_flat_connection,
    make_young,
    pullback_flow,
)
from sewkit import certify
from sewkit.certify import _check_sample_spread
from sewkit.metric import euclidean


def test_additive_sin_three_point_fit():
    rng = np.random.default_rng(0)
    report = fit_three_point(make_additive_sin(), interval_three_point_samples(rng, 48))
    assert 0.9 <= report.epsilon_hat <= 1.1
    assert report.c_hat <= 1.1
    assert not report.exact


def test_young_three_point_fit_is_sharp():
    rng = np.random.default_rng(1)
    m = make_young(lambda t: t, lambda t: t, 1.0, 1.0)
    report = fit_three_point(m, interval_three_point_samples(rng, 48))
    assert report.epsilon_hat == pytest.approx(1.0, abs=1e-6)
    assert report.c_hat == pytest.approx(1.0, abs=1e-6)
    # the defect of this model is exactly (u-s)*(t-u)
    for row in report.rows[:5]:
        assert row.defect == pytest.approx(row.gap_product, rel=1e-9)


def test_euler_three_point_fit_matches_declared_exponent():
    rng = np.random.default_rng(2)
    report = fit_three_point(make_euler_linear(1.0), interval_three_point_samples(rng, 48))
    assert abs(report.epsilon_hat - 1.0) <= 0.15


def test_exact_segment_pullback_reports_exact():
    rng = np.random.default_rng(3)
    fc = make_flat_connection()
    pulled = pullback_flow(fc, arc_path(1.0, 0.0, 1.2, 48))
    report = fit_three_point(pulled, interval_three_point_samples(rng, 48, scales=(1e-4, 0.2)))
    assert report.exact
    assert report.epsilon_hat == math.inf and report.c_hat == 0.0
    assert "exact" in report.note


def test_midpoint_strong_four_point_fit():
    rng = np.random.default_rng(4)
    fm = make_flat_connection("midpoint")
    report = fit_strong_four_point(fm, annulus_four_point_samples(rng, 160))
    assert report.strong_mode_ok
    assert abs(report.epsilon_hat - 1.0) <= 0.15
    # every sampled defect stays below the declared bound
    for row in report.rows:
        assert row.defect <= row.declared_bound + 1e-9


def test_midpoint_three_point_fit_on_the_annulus():
    rng = np.random.default_rng(5)
    fm = make_flat_connection("midpoint")
    report = fit_three_point(fm, annulus_three_point_samples(rng, 160))
    # knitting-mode data: symmetric three-point exponent reads 2*p - 1 = 2
    assert abs(report.epsilon_hat - 2.0) <= 0.3


def test_euler_lifted_to_the_line_is_flagged_sewing_only():
    rng = np.random.default_rng(6)
    report = fit_strong_four_point(
        make_euler_linear(1.0), interval_four_point_samples(rng, 48)
    )
    assert report.strong_mode_ok is False
    assert abs(report.epsilon_hat) <= 0.15  # defect has total degree 2
    assert "sewing-only" in report.note


def test_degenerate_quadruple_contributes_a_zero_consistency_row():
    rng = np.random.default_rng(7)
    m = make_euler_linear(1.0)
    samples = interval_four_point_samples(rng, 48)
    samples.append((0.1, 0.3, 0.3, 0.7))  # u == v: defect exactly zero
    report = fit_strong_four_point(m, samples)
    assert report.rows[-1].defect == 0.0
    assert report.rows[-1].residual is None  # excluded from the regression
    assert report.n_used == report.n_samples - 1


def test_sample_validation_errors():
    m = make_additive_sin()
    with pytest.raises(ValueError):
        fit_three_point(m, [(0.0, 0.4, 0.8)] * 19)
    narrow = [(0.0, 0.4 + i * 1e-6, 0.8) for i in range(25)]
    with pytest.raises(ValueError):
        fit_three_point(m, narrow)


def test_sample_spread_error_is_typed_and_still_a_value_error():
    narrow = [(0.0, 0.4 + i * 1e-6, 0.8) for i in range(25)]
    with pytest.raises(InsufficientSamples) as err:
        fit_three_point(make_additive_sin(), narrow)
    assert isinstance(err.value, SewkitError) and isinstance(err.value, ValueError)


def test_annulus_samples_span_four_decades_at_every_seed():
    # draws only: the gap products both fits regress on pass the spread check
    for seed in range(1000):
        four = annulus_four_point_samples(np.random.default_rng(seed))
        _check_sample_spread([euclidean(y, v) * euclidean(u, v) for _, u, v, y in four], "four")
        three = annulus_three_point_samples(np.random.default_rng(seed))
        _check_sample_spread([euclidean(y, u) * euclidean(u, x) for x, u, y in three], "three")


@pytest.mark.parametrize(
    "model,samples",
    [
        (make_euler_linear(1.0), interval_four_point_samples(np.random.default_rng(3), 48)),
        (make_flat_connection("midpoint"), annulus_four_point_samples(np.random.default_rng(3), 48)),
    ],
    ids=["interval", "annulus"],
)
def test_four_point_bound_equals_the_inline_formula(model, samples):
    h, d = model.hoelder, model.param_metric
    for x, u, v, y in samples:
        d_xu, d_yv, d_uv = d(x, u), d(y, v), d(u, v)
        inline = (1.0 + h.f(d_xu)) * sum(c * d_yv**a * d_uv**b for a, b, c in h.terms)
        inline += sum(c * d_xu**b * d_uv**a for a, b, c in h.terms)
        assert h.four_point_bound(d_xu, d_yv, d_uv) == inline


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_strong_four_point_rows_are_four_point_defect(seed):
    rng = np.random.default_rng(seed)
    cases = [
        (make_flat_connection("midpoint"), annulus_four_point_samples(rng, 48)),
        (make_euler_linear(1.0), interval_four_point_samples(rng, 48)),
        (make_additive_sin(), interval_four_point_samples(rng, 48)),
    ]
    for model, samples in cases:
        report = fit_strong_four_point(model, samples)
        for row, (x, u, v, y) in zip(report.rows, samples, strict=True):
            assert (row.defect, row.declared_bound) == four_point_defect(model, x, u, v, y)


_INTERVAL_OPTIONS = {"s_range": (-2.0, 3.5), "scales": (1e-6, 0.3)}
_ANNULUS_OPTIONS = {"radius_range": (0.2, 5.0), "scales": (1e-3, 0.5)}


@pytest.mark.parametrize(
    "name,options",
    [
        ("interval_three_point_samples", {}),
        ("interval_three_point_samples", _INTERVAL_OPTIONS),
        ("interval_four_point_samples", {}),
        ("interval_four_point_samples", _INTERVAL_OPTIONS),
        ("annulus_four_point_samples", {}),
        ("annulus_four_point_samples", _ANNULUS_OPTIONS),
        ("annulus_three_point_samples", {}),
        ("annulus_three_point_samples", _ANNULUS_OPTIONS),
    ],
    ids=lambda v: v.split("_samples")[0] if isinstance(v, str) else ("options" if v else "defaults"),
)
def test_samples_equal_the_scalar_draws_of_the_oracle(name, options):
    # one array draw gives the doubles of one scalar rng.uniform call per coordinate
    new, old = getattr(certify, name), getattr(oracles, name)
    for seed in range(300):
        for n in (0, 1, 2, 48, 160):
            got = new(np.random.default_rng(seed), n, **options)
            assert repr(got) == repr(old(np.random.default_rng(seed), n, **options))
            coords = [c for sample in got for point in sample
                      for c in (point if isinstance(point, tuple) else (point,))]
            assert all(type(c) is float for c in coords)
