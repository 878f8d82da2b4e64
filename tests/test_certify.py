import dataclasses
import math

import numpy as np
import pytest

import oracles
from sewkit import (
    ApproxFlowModel,
    HoelderData,
    InsufficientSamples,
    MetricSpace,
    NonFiniteValue,
    Readout,
    SewkitError,
    annulus_four_point_samples,
    annulus_three_point_samples,
    arc_path,
    chain_distances,
    cli,
    fit_strong_four_point,
    fit_three_point,
    four_point_defect,
    interval_four_point_samples,
    interval_three_point_samples,
    make_additive,
    make_additive_sin,
    make_euler_linear,
    make_euler_matrix,
    make_euler_sin,
    make_flat_connection,
    make_young,
    pullback_flow,
    real_line,
    sewing,
    translation_map,
    within_bound,
)
from sewkit import certify
from sewkit.certify import NOISE_FLOOR, _check_sample_spread
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


@pytest.mark.parametrize(
    "driver,integrand,s_range",
    [("linear", "linear", (0.0, 0.5)),
     ("linear", "quadratic", (0.8, 0.9)),
     ("quadratic", "linear", (0.8, 0.9))],
)
def test_young_declared_constants_are_tight(driver, integrand, s_range):
    # a constant declared too large passes every bound, so only a floor on the
    # largest defect/bound ratio pins it; the largest ratios at seed 0 are
    # 1.00000002, 0.932 and 0.982 (sup |2t| = 2 on [0, 1] is near t = 0.9)
    model = cli.build_model(cli.MODELS.check(
        {"name": "young", "driver": driver, "integrand": integrand,
         "alpha": 1.0, "beta": 1.0}, "model"))
    samples = interval_three_point_samples(np.random.default_rng(0), 48, s_range=s_range)
    report = fit_three_point(model, samples)
    assert max(r.defect / r.declared_bound for r in report.rows) >= 0.9


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
    h, d = model.hoelder, euclidean
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


# --- one array pass per sample set, equal to the per-sample loop ------------

def _rows(report):
    return [(r.geometry, r.gap_product, r.defect, r.declared_bound) for r in report.rows]


def _assert_rows_equal_the_loop(model, three, four):
    assert repr(_rows(fit_three_point(model, three))) == repr(
        oracles.three_point_rows(model, three))
    assert repr(_rows(fit_strong_four_point(model, four))) == repr(
        oracles.strong_four_point_rows(model, four))


_KINDS = tuple(oracles.YOUNG_SCALAR_FNS)
_TRANSLATIONS = [make_additive_sin()] + [
    cli.build_model(cli.MODELS.check(
        {"name": "young", "driver": d, "integrand": i, "alpha": 0.6, "beta": 0.6}, "model"))
    for d in _KINDS for i in _KINDS]


@pytest.mark.parametrize("model", _TRANSLATIONS, ids=lambda m: m.name)
def test_translation_three_point_rows_equal_the_per_sample_loop(model):
    # 40 interval sample sets on each of 10 models: 400 sets
    for seed in range(40):
        samples = interval_three_point_samples(np.random.default_rng(seed))
        assert repr(_rows(fit_three_point(model, samples))) == repr(
            oracles.three_point_rows(model, samples))


@pytest.mark.parametrize("variant", ["exact-segment", "midpoint"])
def test_flat_connection_rows_equal_the_per_sample_loop(variant):
    model = make_flat_connection(variant)
    for seed in range(200):
        _assert_rows_equal_the_loop(model, annulus_three_point_samples(np.random.default_rng(seed)),
                                    annulus_four_point_samples(np.random.default_rng(seed)))


@pytest.mark.parametrize(
    "model",
    [make_euler_linear(1.0), make_euler_sin(), make_euler_matrix([[0.0, 1.0], [-1.0, 0.5]]),
     pullback_flow(make_flat_connection("midpoint"), arc_path(1.0, 0.0, 1.2, 48)),
     pullback_flow(make_flat_connection(), arc_path(1.0, 0.0, 1.2, 48))],
    ids=["euler-linear", "euler-sin", "euler-matrix", "pullback-midpoint", "pullback-exact"],
)
def test_interval_rows_equal_the_per_sample_loop(model):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        _assert_rows_equal_the_loop(model, interval_three_point_samples(rng, scales=(1e-4, 0.2)),
                                    interval_four_point_samples(rng))


@pytest.mark.parametrize("make", [oracles.pure_gauge_so3, oracles.curved_so3])
def test_so3_four_point_rows_equal_the_per_sample_loop(make):
    model = make()
    for seed in range(3):
        samples = annulus_four_point_samples(np.random.default_rng(seed))
        assert repr(_rows(fit_strong_four_point(model, samples))) == repr(
            oracles.strong_four_point_rows(model, samples))


@pytest.mark.parametrize(
    "model,draw",
    [(_TRANSLATIONS[5], interval_three_point_samples),
     (make_flat_connection("midpoint"), annulus_four_point_samples),
     (pullback_flow(make_flat_connection("midpoint"), arc_path(1.0, 0.0, 1.2, 48)),
      interval_three_point_samples)],
    ids=["young", "midpoint", "pullback-midpoint"],
)
def test_closed_form_acts_are_measured_in_one_pass(monkeypatch, model, draw):
    # translations and rotations never reach the row loop, nor mu
    def no_row(*_args):
        raise AssertionError("measured row by row")

    monkeypatch.setattr(sewing, "map_distance_value", no_row)
    samples = draw(np.random.default_rng(0))
    fit = fit_three_point if len(samples[0]) == 3 else fit_strong_four_point
    fit(dataclasses.replace(model, mu=no_row), samples)


def test_chain_distances_keeps_an_infinite_distance_and_takes_one_row_per_sample():
    # mu_tilde is infinite over the widest gap only, so that row's (s, t) chain is infinite
    model = make_additive(lambda s, t: np.where(t - s > 0.09, np.inf, t - s),
                          HoelderData(1.0, ((1.0, 1.0, 1.0),)))
    samples = interval_three_point_samples(np.random.default_rng(0))
    a = [(s, t) for s, _u, t in samples]
    got = chain_distances(model, a, samples)
    assert got.tolist()[-1] == math.inf and np.isfinite(got[:-1]).all()
    assert repr(got.tolist()) == repr(
        [d for _g, _p, d, _b in oracles.three_point_rows(model, samples)])
    with pytest.raises(ValueError, match="as many rows"):
        chain_distances(model, a[:-1], samples)
    assert chain_distances(model, [], []).shape == (0,)
    # a row of one parameter is the chain mu(p, p), measured row by row
    single = chain_distances(model, [(0.1,), (0.3,)], [(0.1, 0.2), (0.3, 0.35)]).tolist()
    assert single == [sewing.map_distance_value(sewing.compose_along(model, p),
                                                sewing.compose_along(model, q))
                      for p, q in [((0.1,), (0.1, 0.2)), ((0.3,), (0.3, 0.35))]]


_SIN = make_additive_sin()
_LEFT, _RIGHT = real_line(name="left"), real_line(name="right")
_ABS_LINE = MetricSpace("line-abs", lambda x, y: abs(x - y), real_line().probes)


@pytest.mark.parametrize(
    "model",
    [dataclasses.replace(_SIN, increments=lambda p: np.ravel(_SIN.increments(p))),
     dataclasses.replace(_SIN, space_at=lambda p: _RIGHT if p >= 0.5 else _LEFT),
     dataclasses.replace(_SIN, space_at=lambda _p: _ABS_LINE)],
    ids=["increments-of-another-shape", "rows-in-other-spaces", "another-target-metric"],
)
def test_chain_distances_measures_row_by_row_where_the_pass_does_not_apply(model):
    a, b = [(0.1, 0.3), (0.6, 0.9)], [(0.1, 0.2, 0.3), (0.6, 0.8, 0.9)]
    assert sewing._stacked_distances(model, a, b) is None
    assert repr(chain_distances(model, a, b).tolist()) == repr(
        [sewing.map_distance_value(sewing.compose_along(model, p), sewing.compose_along(model, q))
         for p, q in zip(a, b)])


def test_a_model_whose_increments_take_one_chain_is_measured_row_by_row():
    # ``increments`` written for one chain fail on stacked rows (math.sin of a
    # row), so the fit measures its samples one chain at a time, as sew does
    space = real_line()
    model = ApproxFlowModel(
        name="chain-only", space_at=lambda _t: space, hoelder=HoelderData(1.0, ((1.0, 1.0, 1.0),)),
        summary=Readout(0.0), act=translation_map,
        increments=lambda p: [math.sin(s) * (t - s) for s, t in zip(p, p[1:])])
    assert sewing.sew(model, 0.0, 1.0, 1e-6)[1].converged
    samples = interval_three_point_samples(np.random.default_rng(0))
    report = fit_three_point(model, samples)
    assert abs(report.epsilon_hat - 1.0) < 0.01
    assert repr(_rows(report)) == repr(oracles.three_point_rows(model, samples))


# --- rows the regression leaves out -----------------------------------------

def test_a_zero_gap_product_row_is_reported_and_left_out_of_the_regression():
    # v == y: the quadruple's defect is the three-point one, at gap product 0
    samples = interval_four_point_samples(np.random.default_rng(7), 48)
    x, u, _v, y = samples[10]
    samples[10] = (x, u, y, y)
    report = fit_strong_four_point(make_additive_sin(), samples)
    row = report.rows[10]
    assert row.gap_product == 0.0 and row.defect > NOISE_FLOOR and row.residual is None
    assert within_bound(row.defect, row.declared_bound)
    assert report.n_used == 47 == sum(r.residual is not None for r in report.rows)
    rest = fit_strong_four_point(make_additive_sin(), samples[:10] + samples[11:])
    assert (report.epsilon_hat, report.c_hat) == (rest.epsilon_hat, rest.c_hat)


def test_an_infinite_defect_row_is_reported_and_left_out_of_the_regression():
    # mu_tilde is infinite over the widest gap only, so that row's defect is
    # infinite and fails its bound, and the other 47 rows make the fit
    wide = make_additive(lambda s, t: np.where(t - s > 0.09, np.inf, np.sin(t - s)),
                         HoelderData(1.0, ((1.0, 1.0, 1.0),)))
    samples = interval_three_point_samples(np.random.default_rng(0))
    report = fit_three_point(wide, samples)
    row = report.rows[-1]
    assert row.defect == math.inf and row.residual is None
    assert not within_bound(row.defect, row.declared_bound)
    assert math.isfinite(report.epsilon_hat) and math.isfinite(report.c_hat)
    assert report.n_used == 47 == sum(r.residual is not None for r in report.rows)
    rest = fit_three_point(wide, samples[:-1])
    assert (report.epsilon_hat, report.c_hat) == (rest.epsilon_hat, rest.c_hat)


def test_a_fit_with_no_finite_defect_left_raises_non_finite_value():
    # mu_tilde is infinite off the samples' starts, so each chain (s, u, t)
    # takes an infinite step (u, t) and every defect is infinite
    samples = interval_three_point_samples(np.random.default_rng(0))
    starts = [s for s, _u, _t in samples]
    off = make_additive(lambda s, t: np.where(np.isin(s, starts), np.sin(t - s), np.inf),
                        HoelderData(1.0, ((1.0, 1.0, 1.0),)))
    with pytest.raises(NonFiniteValue, match=r"three-point defect at s=.* is inf, and 0 finite"):
        fit_three_point(off, samples)


def test_a_fit_whose_c_hat_overflows_raises_non_finite_value():
    # every defect is finite, but the fitted intercept is past log(max double)
    huge = make_additive(lambda s, t: 1e308 * (t - s) ** 3, HoelderData(1.0, ((1.0, 1.0, 1e308),)))
    with pytest.raises(NonFiniteValue,
                       match=r"three-point fit's c_hat = exp\(7\d\d\.\d+\) overflows"):
        fit_three_point(huge, interval_three_point_samples(np.random.default_rng(0)))


def test_a_fit_through_one_point_raises_insufficient_samples():
    # translations by f(s)*(t-s), f stepping from 1 to 2 at c: a triple's defect
    # is (f(s) - f(u))*(t-u), rounding unless c lies in (s, u], as it does
    # for the last of these 40 disjoint triples only
    samples = [(0.2 * i, 0.2 * i + w / 2, 0.2 * i + w)
               for i, w in enumerate(np.geomspace(1e-4, 0.1, 40).tolist())]
    c = samples[-1][0] + 0.02
    step = make_additive(lambda s, t: np.where(s >= c, 2.0, 1.0) * (t - s),
                         HoelderData(1.0, ((1.0, 1.0, 1.0),)))
    rows = oracles.three_point_rows(step, samples)
    assert [i for i, (_g, _p, d, _b) in enumerate(rows) if d > NOISE_FLOOR] == [39]
    with pytest.raises(InsufficientSamples, match="two or more distinct positive gap products"):
        fit_three_point(step, samples)
