"""NaN distances, non-finite or malformed config values, and unrepresentable
bounds end in a typed error or a documented exit code, never a traceback."""
import copy
import csv
import dataclasses
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import misdeclared_flat_connection
from sewkit import (
    HoelderData,
    ModelDomainError,
    NonConvergence,
    NonFiniteValue,
    ProbedMap,
    annulus_four_point_samples,
    arc_path,
    build_net,
    cli,
    ellipse_arc_path,
    fit_strong_four_point,
    fit_three_point,
    holonomy,
    identity_map,
    interval_three_point_samples,
    knit_compare,
    make_additive,
    make_additive_sin,
    make_euler,
    make_euler_linear,
    make_flat_connection,
    map_distance_value,
    pair_lipschitz,
    path_to_csv,
    polyline,
    real_line,
    sewing,
    translation_map,
    within_bound,
)


def test_map_distance_raises_on_nan():
    sp = real_line()
    with pytest.raises(NonFiniteValue):
        map_distance_value(ProbedMap(sp, sp, lambda p: math.nan), identity_map(sp))
    # one NaN among finite probes is not dropped either
    half = ProbedMap(sp, sp, lambda p: math.nan if p > 0.0 else p)
    with pytest.raises(NonFiniteValue):
        map_distance_value(half, identity_map(sp))
    # nor is a NaN after an infinite probe distance
    inf_then_nan = ProbedMap(sp, sp, lambda p: math.inf if p < 0.0 else math.nan)
    with pytest.raises(NonFiniteValue):
        map_distance_value(inf_then_nan, identity_map(sp))


def test_map_distance_keeps_infinity_as_an_extended_distance():
    sp = real_line()
    assert map_distance_value(ProbedMap(sp, sp, lambda p: math.inf), identity_map(sp)) == math.inf


def _knit_compare_on_a_net(model):
    g0, g1 = arc_path(1.0, 0.0, math.pi, 16), ellipse_arc_path(1.0, 1.6, 0.0, math.pi, 16)
    return knit_compare(build_net(g0, g1, 8, pair_lipschitz(g0, g1)), model)


def test_knit_compare_raises_on_a_nan_flow():
    # the flat connection's rows are one rotation by the summed increments
    broken = dataclasses.replace(make_flat_connection(variant="midpoint"),
                                 increments=lambda xs: [math.nan] * (len(xs) - 1))
    with pytest.raises(NonFiniteValue):
        _knit_compare_on_a_net(broken)


def test_growth_bound_overflow_is_non_finite():
    h = HoelderData(1.0, ((1.0, 1.0, 1.0),), lip_slope=1e308)
    with pytest.raises(NonFiniteValue):
        h.g(1.0)


@pytest.mark.parametrize("delta", [1.0, 0.0], ids=["inf", "nan"])
def test_growth_bound_with_an_infinite_slope_is_non_finite(delta):
    # exp(inf * 1.0) is inf and exp(inf * 0.0) is NaN; neither raises OverflowError
    h = HoelderData(1.0, ((1.0, 1.0, 1.0),), math.inf)
    with pytest.raises(NonFiniteValue, match="growth bound"):
        h.g(delta)



@pytest.mark.parametrize(
    "build",
    [lambda: make_euler_linear(math.nan),
     lambda: make_euler(math.cos, math.nan, field_bound=1.0),
     lambda: make_euler(math.sin, 1.0, field_bound=math.nan),
     lambda: HoelderData(math.nan, ((1.0, 1.0, 1.0),)),
     lambda: HoelderData(1.0, ((1.0, 1.0, 1.0),), math.nan),
     lambda: HoelderData(1.0, ((1.0, math.nan, 1.0),)),
     lambda: HoelderData(1.0, ((1.0, 1.0, 1.0), (1.5, 0.5, math.nan)))],
    ids=["euler-linear-lam", "euler-lipschitz", "euler-field-bound", "epsilon", "lip-slope",
         "term-exponent", "term-constant"],
)
def test_nan_declared_data_is_rejected_when_built(build):
    # every other check is a comparison, which a NaN passes; the field-bound
    # case failed only inside sew, as a misleading overflow of the bounds
    with pytest.raises(ValueError, match="must not be NaN"):
        build()


def test_infinite_declared_constants_are_still_accepted():
    # README: euler_linear with lam = 1e308 exits 2 through NonFiniteValue in sew
    assert make_euler_linear(1e308).hoelder.c_total == math.inf
    assert HoelderData(1.0, ((1.0, 1.0, math.inf),), math.inf).lip_slope == math.inf


# --- CLI ---------------------------------------------------------------------

def _sew_cfg(tmp_path, **extra):
    cfg = {"experiment": "sew", "model": {"name": "euler_linear", "lam": 1.0},
           "interval": [0.0, 1.0], "tol": 1e-8, "max_level": 20, "seed": 0,
           "output": str(tmp_path / "out.csv")}
    cfg.update(extra)
    return cfg


def _knit_cfg(tmp_path, **extra):
    cfg = {"experiment": "knit", "model": {"name": "flat_connection", "variant": "midpoint"},
           "homotopy": {"kind": "semicircle_to_ellipse", "ry": 1.6, "segments": 16},
           "ks": [8], "seed": 0, "output": str(tmp_path / "out.csv")}
    cfg.update(extra)
    return cfg


def _run(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity are valid for Python's json
    return cli.run(str(path), quiet=True)


@pytest.mark.parametrize(
    "case,expect",
    [
        ({"model": {"name": "young", "alpha": math.nan}}, 1),
        ({"tol": math.nan}, 1),
        ({"tol": math.inf}, 1),
        ({"tol": 10**400}, 1),
        ({"interval": [0.0, -math.inf]}, 1),
        ({"interval": ["a", 1]}, 1),
        ({"interval": [0.0, 0.5, 1.0]}, 1),
        ({"model": {"name": "euler_matrix", "a": [[1]]}}, 1),
        ({"model": {"name": "euler_matrix", "a": [[1, 0], [0, "x"]]}}, 1),
        ({"model": {"name": "euler_linear", "lam": 1e308}}, 2),
        ({"model": {"name": "young", "alpha": 1e308, "beta": 1e308}}, 2),
        ({"model": {"name": "young", "alpha": 1e300, "beta": 0.5}}, 2),
        ({"model": {"name": "additive_sin"}, "interval": [0.0, 1e300]}, 2),
        ({"model": {"name": "euler_linear", "lam": 700.0}}, 2),
        ({"model": {"name": "euler_matrix", "a": [[1e120, 0], [0, 0]]}}, 2),
    ],
    ids=["young-alpha-nan", "tol-nan", "tol-inf", "tol-int-beyond-float", "interval-inf", "interval-str",
         "interval-len3", "matrix-1x1", "matrix-str", "lam-overflow", "young-eps-inf",
         "young-K-overflow", "span-power-overflow", "bound-product-overflow",
         "matrix-norm-overflow"],
)
def test_sew_config_fails_closed(tmp_path, capsys, case, expect):
    assert _run(tmp_path, _sew_cfg(tmp_path, **case)) == expect
    assert not (tmp_path / "out.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("config error" if expect == 1 else "non-finite value")


_QUADRATIC_YOUNG = {"name": "young", "driver": "quadratic", "integrand": "quadratic"}


@pytest.mark.parametrize("interval", [[0.0, 20.0], [-0.5, 0.5], [1.0, 1.5]])
def test_a_young_sew_off_the_unit_interval_is_a_config_error(tmp_path, capsys, interval):
    # the drivers' Hoelder constants hold on [0, 1]: quadratic's 2 is false on [0, 20]
    assert _run(tmp_path, _sew_cfg(tmp_path, model=_QUADRATIC_YOUNG, interval=interval)) == 1
    assert not (tmp_path / "out.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"config.interval {interval}" in err


@pytest.mark.parametrize("interval", [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
def test_a_young_sew_inside_the_unit_interval_runs(tmp_path, interval):
    assert _run(tmp_path, _sew_cfg(tmp_path, model=_QUADRATIC_YOUNG, interval=interval)) == 0


@pytest.mark.parametrize("tol", [0, 1e-40], ids=["full-ladder", "tiny-tol"])
def test_a_sew_past_double_resolution_exits_2_with_the_levels_built(tmp_path, capsys, tol):
    # the midpoints of level 6 over [1, 1 + 1e-14] round onto their intervals' ends
    cfg = _sew_cfg(tmp_path, model={"name": "additive_sin"}, interval=[1.0, 1.00000000000001],
                   tol=tol)
    assert _run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("non-convergence: ")
    with (tmp_path / "out.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[0] for r in rows] == ["0", "1", "2", "3", "4", "5", "limit"]
    reason = "level 6's midpoints round onto the ends of their intervals"
    with pytest.raises(NonConvergence, match=f"stopped at level 5: {reason}") as exc:
        sewing.sew(make_additive_sin(), 1.0, 1.00000000000001, tol)
    cert = exc.value.certificate
    assert [lv.level for lv in cert.levels] == [0, 1, 2, 3, 4, 5]
    assert not cert.converged and cert.stop_reason == reason


@pytest.mark.parametrize("a,names", [([[2e154, 0], [0, 2e154]], "g00, g11"),
                                     ([[2e154, 0], [0, 1]], "g00")], ids=["both-rows", "one-row"])
def test_an_overflowing_matrix_norm_names_its_entries(tmp_path, capsys, a, names):
    assert _run(tmp_path, _sew_cfg(tmp_path, model={"name": "euler_matrix", "a": a})) == 2
    err = capsys.readouterr().err
    assert err == f"non-finite value: Lipschitz constant: row products {names} overflow a double\n"
    assert "nan" not in err and not (tmp_path / "out.csv").exists()


def test_an_infinite_base_level_bound_raises_before_level_0_is_composed(monkeypatch):
    def no_chain(*args):
        raise AssertionError("a chain was composed")

    monkeypatch.setattr(sewing, "compose_along", no_chain)
    for model, interval in ((make_additive_sin(), (0.0, 1e300)), (make_euler_linear(700.0), (0.0, 1.0))):
        with pytest.raises(NonFiniteValue):
            sewing.sew(model, *interval, 1e-8)


@pytest.mark.parametrize("ks", [[1], [8.0], [True], ["8"]], ids=["one", "float", "bool", "str"])
def test_knit_ks_must_be_integers_from_two(tmp_path, capsys, ks):
    assert _run(tmp_path, _knit_cfg(tmp_path, ks=ks)) == 1
    assert "config.ks" in capsys.readouterr().err


def test_knit_ks_must_not_be_empty(tmp_path, capsys):
    # an empty ks certifies nothing, so it is rejected with the config, before any work
    assert _run(tmp_path, _knit_cfg(tmp_path, ks=[])) == 1
    assert capsys.readouterr().err.startswith("config error: config.ks must be a non-empty list")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("tol,max_level", [(math.nan, 5), (1e-8, -3)],
                         ids=["nan-tol", "negative-max-level"])
def test_sew_rejects_a_nan_tol_or_a_negative_max_level_before_level_0(monkeypatch, tol, max_level):
    # NaN is neither > 0 nor <= 0, so neither exit rule could hold; both raise
    # before a chain is composed, in sew and in holonomy through it
    def no_chain(*args):
        raise AssertionError("a chain was composed")

    monkeypatch.setattr(sewing, "compose_along", no_chain)
    with pytest.raises(ValueError, match="sew needs a tol that is not NaN and max_level >= 0"):
        sewing.sew(make_additive_sin(), 0.0, 1.0, tol, max_level=max_level)
    with pytest.raises(ValueError, match="sew needs"):
        holonomy(make_flat_connection("midpoint"), arc_path(1.0, 0.0, math.pi, 16), tol,
                 max_level=max_level)


def _holonomy_cfg(tmp_path, **extra):
    cfg = {"experiment": "holonomy", "model": {"name": "flat_connection", "variant": "midpoint"},
           "path": {"kind": "circle", "radius": 1.0, "segments": 16}, "tol": 1e-6,
           "max_level": 12, "seed": 0, "output": str(tmp_path / "out.csv")}
    cfg.update(extra)
    return cfg


_MIDPOINT = {"name": "flat_connection", "variant": "midpoint"}


@pytest.mark.parametrize(
    "case,expect,fragment",
    [
        ({"path": {"kind": "circle", "radius": 1e120, "segments": 16}}, 2,
         "non-finite value: pulled-back defect constant"),
        ({"path": {"kind": "circle", "radius": 1e30, "segments": 16}}, 2,
         "needs more than 2**20 intervals"),
        ({"model": dict(_MIDPOINT, r0=1e-6)}, 2, "needs more than 2**20 intervals"),
        ({"model": dict(_MIDPOINT, r0=1e-300),
          "path": {"kind": "circle", "radius": 1e-300, "segments": 16}}, 1,
         "config error: config.model: r0 = 1e-300 is too small"),
    ],
    ids=["pullback-overflow", "base-level-runaway-radius", "base-level-runaway-r0", "r0-underflow"],
)
def test_holonomy_config_fails_closed(tmp_path, capsys, case, expect, fragment):
    assert _run(tmp_path, _holonomy_cfg(tmp_path, **case)) == expect
    assert not (tmp_path / "out.csv").exists()
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "case,fragment,written",
    [
        ({"model": dict(_MIDPOINT, r0=1e-6),
          "path": {"kind": "circle", "radius": 1.0, "segments": 16}},
         "needs more than 2**20 intervals", None),
        ({"path": {"kind": "circle", "radius": 1.0, "segments": 48}, "tol": 1e-12,
          "max_level": 1}, "within 1 levels", ["0", "1", "limit", "angle"]),
    ],
    ids=["base-level-runaway", "max-level"],
)
def test_holonomy_non_convergence_is_reported_as_such(tmp_path, capsys, case, fragment, written):
    # neither is a violated bound: the sew stopped before it could certify
    # anything; one that stopped short of tol still writes the levels it built
    assert _run(tmp_path, _holonomy_cfg(tmp_path, **case)) == 2
    out = tmp_path / "out.csv"
    if written is None:
        assert not out.exists()
    else:
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [r[0] for r in rows[1:]] == written
        assert rows[-1][-1] == rows[-2][-1] != ""  # the angle repeats the limit's value
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: ") and fragment in err, err


def test_knit_keeps_its_rows_when_class_separation_stops_short(tmp_path, capsys):
    # both holonomies stop at max_level 1: each is reported, the knit rows
    # already measured are kept, and the separation certifies nothing
    cfg = _knit_cfg(tmp_path, ks=[8, 16], class_separation=True, tol=1e-12, max_level=1)
    assert _run(tmp_path, cfg) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("non-convergence: ") for line in err), err
    rows = list(csv.reader((tmp_path / "out.csv").read_text().splitlines()))
    assert [(r[0], r[-1]) for r in rows[1:]] == [
        ("8", "pass"), ("16", "pass"), ("class_separation", "fail")]


def test_a_class_separation_inside_the_excluded_disk_names_the_semicircles(tmp_path, capsys):
    # the user's paths stay at x >= 3; only the unit semicircles of the
    # class separation enter the disk of radius r0 = 1
    homotopy = {"kind": "pair", "path0": {"kind": "points", "points": [[3, 0], [3, 3]]},
                "path1": {"kind": "points", "points": [[3, 0], [4, 1.5], [3, 3]]}}
    cfg = _knit_cfg(tmp_path, model=dict(_MIDPOINT, r0=1.0), homotopy=homotopy,
                    class_separation=True)
    assert _run(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config.class_separation sews holonomies along the unit "
                          "semicircles, which must stay outside the excluded disk of "
                          "config.model.r0 = 1.0: pullback of flat-connection[midpoint]"), err
    assert "inside the excluded disk of radius 1.0" in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_knit_pair_far_from_the_origin_passes(tmp_path):
    homotopy = {"kind": "pair",
                "path0": {"kind": "points", "points": [[1e5, 0], [1e5, 1e5]]},
                "path1": {"kind": "points",
                          "points": [[1e5, 0], [110000.00000000001, 20000], [1e5, 1e5]]}}
    assert _run(tmp_path, _knit_cfg(tmp_path, homotopy=homotopy, ks=[8, 16, 32, 64])) == 0


def _square(**fields):
    return {"path": dict({"kind": "square"}, **fields)}


def _points(pts, breaks=None):
    spec = {"kind": "points", "points": pts}
    if breaks is not None:
        spec["breaks"] = breaks
    return {"path": spec}


_ARC = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]


@pytest.mark.parametrize(
    "make,case,fragment",
    [
        (_sew_cfg, {"model": {"name": "euler_linear", "probes": 0}}, "model.probes must be >= 1"),
        (_sew_cfg, {"max_level": -1}, "config.max_level must be >= 0"),
        (_sew_cfg, {"seed": -1}, "seed must be >= 0"),
        (_sew_cfg, {"max_level": True}, "config.max_level must be int, got bool"),
        (_sew_cfg, {"seed": True}, "config.seed must be int, got bool"),
        (_holonomy_cfg, {"model": {"name": "flat_connection", "variant": "foo"}}, "unknown variant"),
        (_holonomy_cfg, {"model": {"name": "flat_connection", "r0": -1}}, "r0 must be positive"),
        (_holonomy_cfg, {"model": {"name": "flat_connection", "probes": 1}}, "need n >= 2"),
        (_holonomy_cfg, {"model": {"name": "euler_linear"}}, "knitting-mode model"),
        (_holonomy_cfg, {"path": {"kind": "circle", "segments": 0}}, "path.segments must be >= 1"),
        (_holonomy_cfg, {"path": {"kind": "ellipse_arc", "rx": 0.0, "ry": 0.0}}, "zero-length arc"),
        (_holonomy_cfg, _square(center=[1]), "path.center must be a point"),
        (_holonomy_cfg, _square(center=["x", 0]), "path.center must be a number"),
        (_holonomy_cfg, _points([[1, "a"], [2, 0]]), "path.points entry must be a number"),
        (_holonomy_cfg, _points([1.0, 2.0]), "path.points entry must be a point"),
        (_holonomy_cfg, _points([[1.0, 0.0]]), "need at least two points"),
        (_holonomy_cfg, _points(_ARC, [0.0, 1.0]), "equal length"),
        (_holonomy_cfg, _points(_ARC, [0.0, "h", 1.0]), "path.breaks entry must be a number"),
        (_holonomy_cfg, {"path": {"kind": "csv", "file": "no-such-path.csv"}}, "no-such-path.csv"),
        (_holonomy_cfg, {"max_level": -1}, "config.max_level must be >= 0"),
        (_sew_cfg, {"max_levl": 2}, "unknown field config.max_levl"),
        (_sew_cfg, {"probes": 3}, "unknown field config.probes"),
        (_sew_cfg, {"model": {"name": "euler_matrix", "a": [[0, 1], [-1, 0]], "probes": 3}},
         "unknown field config.model.probes"),
        (_sew_cfg, {"model": {"name": "additive_sin", "lam": 2.0}}, "unknown field config.model.lam"),
        (_holonomy_cfg, {"path": {"kind": "circle", "radiuss": 2.0}},
         "unknown field config.path.radiuss"),
        (_knit_cfg, {"interval": [0.0, 1.0]}, "unknown field config.interval"),
        (_knit_cfg, {"homotopy": {"path0": {"kind": "arc", "turns": 1.0}, "path1": {"kind": "arc"}}},
         "unknown field config.homotopy.path0.turns"),
    ],
    ids=["probes-zero", "max-level-negative", "seed-negative", "max-level-bool", "seed-bool",
         "variant-unknown",
         "r0-negative", "fiber-probes-one", "holonomy-interval-model", "segments-zero",
         "ellipse-zero-length", "center-short", "center-str", "points-str", "points-1d",
         "points-single", "breaks-length", "breaks-str", "csv-missing",
         "holonomy-max-level-negative", "unknown-max-levl", "unknown-top-level-probes",
         "unknown-matrix-probes", "unknown-additive-lam", "unknown-path-radiuss",
         "unknown-knit-interval", "unknown-pair-path0-turns"],
)
def test_model_and_path_fields_fail_closed(tmp_path, capsys, make, case, fragment):
    assert _run(tmp_path, make(tmp_path, **case)) == 1
    assert not (tmp_path / "out.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("config error") and fragment in err


def _upper_bounds(table):
    """The upper bound of every field of a config table that has one, by
    field name; a list field's bound is its entries'."""
    bounds = {}
    for fields, _ in table.variants.values():
        for key, field in fields.items():
            if isinstance(field.kind, cli.Tagged):
                nested = _upper_bounds(field.kind)
            else:
                if inspect.isfunction(field.kind):  # a ``cli._list`` checker: its entries'
                    field = inspect.getclosurevars(field.kind).nonlocals.get("entry", field)
                nested = {} if field.most is None else {key: field.most}
            for name, most in nested.items():
                assert bounds.setdefault(name, most) == most, name
    return bounds


_MOST = _upper_bounds(cli.CONFIG)


def _certify_cfg(tmp_path, samples):
    return {"experiment": "certify", "model": {"name": "additive_sin"}, "samples": samples,
            "output": str(tmp_path / "out.csv")}


#: a config for each bounded field, given a value for it, and the field's dotted name
_BOUNDED = [
    (lambda t, v: _sew_cfg(t, model={"name": "euler_sin", "probes": v}), "config.model.probes"),
    (lambda t, v: _holonomy_cfg(t, model={"name": "flat_connection", "probes": v}),
     "config.model.probes"),
    (lambda t, v: _holonomy_cfg(t, path={"kind": "arc", "segments": v}), "config.path.segments"),
    (lambda t, v: _knit_cfg(t, homotopy={"kind": "semicircle_to_ellipse", "segments": v}),
     "config.homotopy.segments"),
    (lambda t, v: _knit_cfg(t, ks=[8, v]), "config.ks"),
    (_certify_cfg, "config.samples"),
]


def test_upper_bounds_cover_the_fields_that_set_the_work():
    assert set(_MOST) == {"probes", "segments", "ks", "samples"}
    assert {where.rsplit(".", 1)[1] for _, where in _BOUNDED} == set(_MOST)


@pytest.mark.parametrize("make,where", _BOUNDED, ids=[w for _, w in _BOUNDED])
def test_a_value_above_its_bound_is_a_config_error(tmp_path, capsys, make, where):
    most = _MOST[where.rsplit(".", 1)[1]]
    cli.CONFIG.check(make(tmp_path, most), "config")
    assert _run(tmp_path, make(tmp_path, most + 1)) == 1
    assert not (tmp_path / "out.csv").exists()
    assert f"field {where}" in capsys.readouterr().err


def test_readme_states_every_upper_bound():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## CLI"):readme.index("## Experiment scripts")]
    for name, most in _MOST.items():
        assert any(f"`{name}`" in line and f"at most {most}" in line
                   for line in section.splitlines()), name


def test_negative_samples_is_a_config_error_before_any_draw(tmp_path, capsys):
    assert _run(tmp_path, _certify_cfg(tmp_path, -5)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: field config.samples ") and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    row = next(line for line in readme.splitlines() if line.startswith("| `certify` |"))
    assert "`samples` 48 (at least 0, at most 10000)" in row


def _certify_sample_rows(tmp_path, model, mode, seed):
    cfg = {"experiment": "certify", "model": model, "mode": mode, "seed": seed,
           "output": str(tmp_path / "out.csv")}
    code = _run(tmp_path, cfg)
    with (tmp_path / "out.csv").open(newline="") as fh:
        return code, [(float(r[2]), float(r[3])) for r in csv.reader(fh) if r[0] == "sample"]


def test_a_zero_declared_bound_is_checked_like_any_other(tmp_path, monkeypatch):
    # additive_sin declared with C = 0: its defects (up to about 2.3e-3) break the bound
    zero = HoelderData(1.0, ((1.0, 1.0, 0.0),), 0.0)
    monkeypatch.setattr(cli, "build_model",
                        lambda spec: dataclasses.replace(make_additive_sin(), hoelder=zero))
    code, rows = _certify_sample_rows(tmp_path, {"name": "additive_sin"}, "three_point", 3)
    assert code == 2
    assert len(rows) == 48 and {bound for _, bound in rows} == {0.0}
    assert max(defect for defect, _ in rows) > 1e-3


# euler_linear declares C = lam * field_bound = lam**2, which overflows from
# lam = 1.4e154; the strong four-point bound multiplies C by 1 + lam*d_us and
# a squared gap, so it overflows from lam = 1e104 at seed 3
_OVERFLOWING_CERTIFY = [(1e155, "three_point"), (2e154, "three_point"), (1.4e154, "three_point"),
                        (2e154, "strong_four_point"), (1e154, "strong_four_point"),
                        (1e104, "strong_four_point")]


@pytest.mark.parametrize("lam,mode", _OVERFLOWING_CERTIFY,
                         ids=[f"{lam:g}-{mode}" for lam, mode in _OVERFLOWING_CERTIFY])
def test_a_certify_bound_that_overflows_exits_2(tmp_path, capsys, lam, mode):
    cfg = {"experiment": "certify", "model": {"name": "euler_linear", "lam": lam},
           "mode": mode, "seed": 3, "output": str(tmp_path / "out.csv")}
    assert _run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("non-finite value: ") and "Traceback" not in err
    assert "declared bound at " in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("lam,mode", [(1e154, "three_point"), (1e103, "strong_four_point")])
def test_a_certify_bound_below_the_overflow_passes(tmp_path, lam, mode):
    code, rows = _certify_sample_rows(tmp_path, {"name": "euler_linear", "lam": lam}, mode, 3)
    assert code == 0
    assert len(rows) == 48 and all(math.isfinite(bound) for _, bound in rows)


@pytest.mark.parametrize("mode", ["three_point", "strong_four_point"])
def test_exact_segment_certify_passes_its_zero_bound_through_the_slack(tmp_path, mode):
    # declared C = 0; at seed 7 both modes measure rounding-level defects above 0
    code, rows = _certify_sample_rows(tmp_path, {"name": "flat_connection"}, mode, 7)
    assert code == 0
    assert len(rows) == 48 and {bound for _, bound in rows} == {0.0}
    assert 0.0 < max(defect for defect, _ in rows) <= 1e-15


# --- certify sample sets fail closed through their one array pass -----------

def test_a_nan_in_one_stacked_row_raises_non_finite_value():
    samples = interval_three_point_samples(np.random.default_rng(0))
    s_nan = samples[17][0]
    model = make_additive(lambda s, t: np.where(s == s_nan, np.nan, np.sin(s) * (t - s)),
                          HoelderData(1.0, ((1.0, 1.0, 1.0),)))
    assert model.act is translation_map  # measured in one stacked pass
    with pytest.raises(NonFiniteValue, match="NaN probe distance"):
        fit_three_point(model, samples)


def test_a_nan_row_of_the_stacked_pass_is_named():
    samples = interval_three_point_samples(np.random.default_rng(0))
    s_nan = samples[17][0]
    model = make_additive(lambda s, t: np.where(s == s_nan, np.nan, np.sin(s) * (t - s)),
                          HoelderData(1.0, ((1.0, 1.0, 1.0),)))
    a = [(s, t) for s, _u, t in samples]
    with pytest.raises(NonFiniteValue, match=r"^chain_distances row 17 of additive: NaN probe "
                                             r"distance in \[nan, nan, nan, nan, nan\]$"):
        sewing.chain_distances(model, a, samples)


def test_the_midpoint_radius_guard_holds_in_the_stacked_pass():
    # the chord (0.6, 0) -> (-0.6, 0.1) stays outside r0 = 0.5, its midpoint does not
    samples = annulus_four_point_samples(np.random.default_rng(0))
    samples[5] = ((0.6, 0.0), (-0.6, 0.1), (-0.6, 0.2), (-0.6, 0.3))
    with pytest.raises(ModelDomainError, match="chord midpoint too close to the origin"):
        fit_strong_four_point(make_flat_connection("midpoint"), samples)


def test_a_certify_sample_inside_the_excluded_disk_names_its_point():
    samples = annulus_four_point_samples(np.random.default_rng(1))
    samples[9] = ((0.6, 0.0), (0.3, 0.1), (0.6, 0.2), (0.6, 0.3))
    with pytest.raises(ModelDomainError,
                       match=re.escape("point (0.3, 0.1) inside the excluded disk of radius 0.5")):
        fit_strong_four_point(make_flat_connection("midpoint"), samples)


@pytest.mark.parametrize("r0", [1e-3, 1.5, 1e3])
def test_certify_draws_at_the_scale_of_r0_stay_outside_the_disk(tmp_path, r0):
    # annulus radius 1.8*r0 to 3.2*r0, chords scaled by r0/0.5: at r0 = 1.5 the
    # fixed draws of radius 0.9 to 1.6 put a sample point inside the disk
    code, rows = _certify_sample_rows(tmp_path, dict(_MIDPOINT, r0=r0), "strong_four_point", 1)
    assert code == 0
    assert len(rows) == 48 and all(within_bound(defect, bound) for defect, bound in rows)


@pytest.mark.parametrize("variant", ["exact-segment", "midpoint"])
@pytest.mark.parametrize("r0", [math.nan, math.inf, -math.inf])
def test_a_non_finite_r0_is_rejected(variant, r0):
    # a NaN r0 would skip every disk check, and a NaN max_param_step one base level
    with pytest.raises(ValueError, match="r0 must be positive and finite"):
        make_flat_connection(variant, r0)


def test_a_midpoint_constant_past_the_largest_double_is_non_finite():
    # C(r0) = 3 * (0.5 / r0)**3 overflows at r0 = 1e-150, where the exact rule declares 0
    with pytest.raises(NonFiniteValue, match="midpoint defect constant"):
        make_flat_connection("midpoint", 1e-150)
    assert make_flat_connection("exact-segment", 1e-150).hoelder.c_total == 0.0


# --- negative controls for the knitting-mode rows ----------------------------
# The midpoint connection declared with c in place of its honest constant 3:
# each check must fail once c is small enough, and pass at the declared 3.

@pytest.mark.parametrize("c,code,over", [(0.03, 2, 16), (3.0, 0, 0)])
def test_strong_four_point_certify_flags_a_misdeclared_connection(tmp_path, monkeypatch,
                                                                  c, code, over):
    monkeypatch.setattr(cli, "build_model", lambda spec: misdeclared_flat_connection(c))
    got, rows = _certify_sample_rows(
        tmp_path, {"name": "flat_connection", "variant": "midpoint"}, "strong_four_point", 0)
    assert got == code
    assert len(rows) == 48
    assert sum(not within_bound(defect, bound) for defect, bound in rows) == over


@pytest.mark.parametrize("c,code,note", [(1e-5, 2, "fail"), (3e-4, 0, "pass"), (3.0, 0, "pass")])
def test_knit_rows_flag_a_misdeclared_connection(tmp_path, monkeypatch, c, code, note):
    monkeypatch.setattr(cli, "build_model", lambda spec: misdeclared_flat_connection(c))
    cfg = {"experiment": "knit", "model": {"name": "flat_connection", "variant": "midpoint"},
           "homotopy": {"kind": "semicircle_to_ellipse"}, "seed": 0,
           "output": str(tmp_path / "out.csv")}
    assert _run(tmp_path, cfg) == code
    with (tmp_path / "out.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(r[0], r[4]) for r in rows] == [(k, note) for k in ("8", "16", "32", "64")]


def test_a_net_mesh_over_the_declared_ell_over_k_exits_2(tmp_path, capsys, monkeypatch):
    # the homotopy's Lipschitz bound understated four times: build_net's mesh
    # check is a certified inequality, so the run exits 2 as a bound violation
    build = cli.build_homotopy

    def understated(spec):
        g0, g1, ell = build(spec)
        return g0, g1, ell / 4.0

    monkeypatch.setattr(cli, "build_homotopy", understated)
    cfg = {"experiment": "knit", "model": {"name": "flat_connection"},
           "homotopy": {"kind": "semicircle_to_ellipse"}, "output": str(tmp_path / "out.csv")}
    assert _run(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("bound violation: net mesh at k=8, declared ell/k: ")
    assert not (tmp_path / "out.csv").exists()


# --- config fuzzing ------------------------------------------------------------
# A fuzzed config is drawn from the config table: an experiment, then a model,
# path or homotopy kind (now and then an unknown one), with its required fields
# and a random share of its optional ones.  Then either up to three positions
# anywhere in it (a field, a nested field or a list entry) take junk: NaN,
# infinities, the extreme finite values 1e308 and 1e-300, negative, zero or
# wrong-type values; or one key, at any nesting level, is misspelled or
# invented, which must exit 1 and name that key.
# A field with an upper bound may also take the value just above it.  Cost
# stays bounded: max_level, segments and ks are always drawn, with
# max_level <= 8, segments and ks <= 16, samples <= 48.

_JUNK = [math.nan, math.inf, -math.inf, 1e308, 1e-300, -1, -0.5, 0, "x", None, True, [], [1.0], {}]

#: valid values of every table field, by name
_VALUES = {
    "seed": [0, 7],
    "output": ["out.csv"],
    "tol": [1e-4, 1e-2],
    "max_level": [0, 4, 8],
    "interval": [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]],
    "ks": [[4, 8], [16]],
    "class_separation": [False, True],
    "samples": [24, 48],
    "mode": ["three_point", "strong_four_point"],
    "probes": [2, 3, 8],
    "lam": [0.5, 1.0],
    "a": [[[0.0, 1.0], [-1.0, 0.0]]],
    "driver": ["linear", "sin", "quadratic"],
    "integrand": ["linear", "sin", "quadratic"],
    "alpha": [0.6, 1.0],
    "beta": [0.6, 1.0],
    "variant": ["exact-segment", "midpoint"],
    "r0": [0.5, 1.0],
    "segments": [1, 4, 16],
    "radius": [1.0, 2.0],
    "turns": [0.5, 1.0, 2.0],
    "angle0": [0.0],
    "angle1": [3.0, -3.0],
    "rx": [1.0],
    "ry": [1.0, 1.6],
    "center": [[2.0, 0.0], [0.0, 0.0]],
    "half_side": [0.5],
    "points": [[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]],
    "breaks": [[0.0, 0.5, 1.0], [0.0, 0.25, 1.0]],
    "file": ["no-such-path.csv"],
}
#: fields that set a run's cost, so no default may stand in for them
_ALWAYS = {"max_level", "segments", "ks"}


def _draw_object(draw, table, name, unknown_tags):
    spec = {table.tag: name}
    fields, _ = table.variants.get(name, ({}, None))
    for key, field in fields.items():
        if field.default is not cli.REQUIRED and key not in _ALWAYS and draw(st.booleans()):
            continue
        if isinstance(field.kind, cli.Tagged):
            names = [*field.kind.variants, "bogus"] if unknown_tags else list(field.kind.variants)
            spec[key] = _draw_object(draw, field.kind, draw(st.sampled_from(names)), unknown_tags)
        else:
            spec[key] = copy.deepcopy(draw(st.sampled_from(_VALUES[key])))
    return spec


def _objects(node, where):
    """Every (dotted name, object) in a config, nested ones included."""
    yield where, node
    for key, val in node.items():
        if isinstance(val, dict):
            yield from _objects(val, f"{where}.{key}")


def _slots(node, name=None):
    """Every (container, key, field name) position in a config, nested ones
    included; a list entry carries the name of its list."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in keys:
        field = key if isinstance(node, dict) else name
        yield node, key, field
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key], field)


@st.composite
def _fuzzed_configs(draw):
    """A config and, when one of its keys was misspelled or invented, its dotted name."""
    misspell = draw(st.integers(0, 3)) == 0
    cfg = _draw_object(draw, cli.CONFIG, draw(st.sampled_from(list(cli.CONFIG.variants))), not misspell)
    if cfg["experiment"] in ("holonomy", "knit") and draw(st.integers(0, 3)):
        # the one model over the plane
        cfg["model"] = _draw_object(draw, cli.MODELS, "flat_connection", False)
    if misspell:
        where, node = draw(st.sampled_from(list(_objects(cfg, "config"))))
        key = draw(st.sampled_from(sorted(node)))
        bad = draw(st.sampled_from([key + "s", key.upper(), "extra"]))
        node[bad] = node.pop(key) if bad != "extra" else 1.0
        return cfg, f"{where}.{bad}"
    for _ in range(draw(st.integers(0, 3))):
        node, key, name = draw(st.sampled_from(list(_slots(cfg))))
        junk = _JUNK
        if key == "output":
            junk = [v for v in _JUNK if not isinstance(v, str)]
        if name in _MOST:
            junk = junk + [_MOST[name] + 1]
        node[key] = copy.deepcopy(draw(st.sampled_from(junk)))  # junk lists are shared objects
    return cfg, None


def test_fuzz_values_cover_the_table():
    def names(table):
        for fields, _ in table.variants.values():
            for key, field in fields.items():
                if isinstance(field.kind, cli.Tagged):
                    yield from names(field.kind)
                else:
                    yield key

    assert set(names(cli.CONFIG)) == set(_VALUES)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_fuzzed_configs())
def test_fuzzed_configs_exit_with_a_documented_code(tmp_path, capsys, case):
    cfg, bad_key = case
    if cfg.get("output") == "out.csv":
        cfg["output"] = str(tmp_path / "out.csv")
    (tmp_path / "out.csv").unlink(missing_ok=True)  # tmp_path is shared between examples
    code = _run(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if bad_key is not None:
        assert code == 1 and bad_key in err, err
        assert not (tmp_path / "out.csv").exists()
    if (tmp_path / "out.csv").exists():
        # no fit, level or knit row reports a NaN as a value
        with open(tmp_path / "out.csv", newline="") as fh:
            values = [v for row in csv.reader(fh) for cell in row for v in re.split("[;=]", cell)]
        assert "nan" not in values, values


@pytest.mark.parametrize(
    "line,fragment",
    [(True, "path.file must hold a path in the plane"), (False, "holds no path")],
    ids=["off-the-plane", "empty"],
)
def test_unusable_csv_path_is_a_config_error(tmp_path, capsys, line, fragment):
    file = tmp_path / "path.csv"
    if line:
        path_to_csv(polyline([0.0, 1.0]), str(file))
    else:
        file.write_text("")
    assert _run(tmp_path, _holonomy_cfg(tmp_path, path={"kind": "csv", "file": str(file)})) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["midpoint", "exact-segment"])
def test_csv_path_with_a_nan_cell_is_a_config_error(tmp_path, capsys, variant):
    file = tmp_path / "nan.csv"
    file.write_text("u,x0,x1\n0,1,0\n0.5,nan,0.5\n1,0,1\n")
    model = {"name": "flat_connection", "variant": variant}
    cfg = _holonomy_cfg(tmp_path, model=model, path={"kind": "csv", "file": str(file)})
    assert _run(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config.path: points must be finite"), err
    assert not (tmp_path / "out.csv").exists()

    arc = {"kind": "arc", "radius": 1.0, "angle0": 0.0, "angle1": math.pi / 2, "segments": 8}
    homotopy = {"kind": "pair", "path0": {"kind": "csv", "file": str(file)}, "path1": arc}
    assert _run(tmp_path, _knit_cfg(tmp_path, model=model, homotopy=homotopy)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config.homotopy.path0: points must be finite"), err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "content,row",
    [("u,x0,x1\n0,1,0\n1,0,1\n\n", 4), ("u,x0,x1\n0,1,0\n\n1,0,1\n", 3),
     ("u,x0\n0,1\n0.5\n1,2\n", 3)],
    ids=["trailing-blank-line", "blank-line-between-rows", "short-row"],
)
def test_csv_path_with_a_blank_or_short_row_is_a_config_error(tmp_path, capsys, content, row):
    file = tmp_path / "path.csv"
    file.write_text(content)
    assert _run(tmp_path, _holonomy_cfg(tmp_path, path={"kind": "csv", "file": str(file)})) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config.path") and f"row {row} " in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "content", [b'{"tol": 1' + b"0" * 5000 + b"}", b"\xff\xfe{}"], ids=["int-5001-digits", "not-utf8"]
)
def test_unparsable_config_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert cli.run(str(path), quiet=True) == 1
    assert "config is not valid JSON" in capsys.readouterr().err


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    assert _run(tmp_path, _sew_cfg(tmp_path, output=str(tmp_path))) == 1
    assert "cannot write config.output" in capsys.readouterr().err
