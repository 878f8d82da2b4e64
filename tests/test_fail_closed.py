"""NaN distances, non-finite or malformed config values, and unrepresentable
bounds end in a typed error or a documented exit code, never a traceback."""
import copy
import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sewkit import (
    HoelderData,
    NonFiniteValue,
    ProbedMap,
    arc_path,
    build_net,
    cli,
    ellipse_arc_path,
    identity_map,
    knit_compare,
    make_flat_connection,
    map_distance_value,
    pair_lipschitz,
    path_to_csv,
    polyline,
    real_line,
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


def test_knit_compare_raises_on_a_nan_flow():
    fc = make_flat_connection(variant="midpoint")
    fiber = fc.space_at((1.0, 0.0))
    nan_mu = lambda x, y: ProbedMap(fiber, fiber, lambda p: (math.nan, math.nan))
    broken = dataclasses.replace(fc, mu=nan_mu)
    g0, g1 = arc_path(1.0, 0.0, math.pi, 16), ellipse_arc_path(1.0, 1.6, 0.0, math.pi, 16)
    with pytest.raises(NonFiniteValue):
        knit_compare(build_net(g0, g1, 8, pair_lipschitz(g0, g1)), broken)


def test_growth_bound_overflow_is_non_finite():
    h = HoelderData(1.0, ((1.0, 1.0, 1.0),), lip_slope=1e308)
    with pytest.raises(NonFiniteValue):
        h.g(1.0)


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
    ],
    ids=["young-alpha-nan", "tol-nan", "tol-inf", "tol-int-beyond-float", "interval-inf", "interval-str",
         "interval-len3", "matrix-1x1", "matrix-str", "lam-overflow"],
)
def test_sew_config_fails_closed(tmp_path, capsys, case, expect):
    assert _run(tmp_path, _sew_cfg(tmp_path, **case)) == expect
    assert not (tmp_path / "out.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("config error" if expect == 1 else "non-finite value")


@pytest.mark.parametrize("ks", [[1], [8.0], [True], ["8"]], ids=["one", "float", "bool", "str"])
def test_knit_ks_must_be_integers_from_two(tmp_path, capsys, ks):
    assert _run(tmp_path, _knit_cfg(tmp_path, ks=ks)) == 1
    assert "config.ks" in capsys.readouterr().err


def _holonomy_cfg(tmp_path, **extra):
    cfg = {"experiment": "holonomy", "model": {"name": "flat_connection", "variant": "midpoint"},
           "path": {"kind": "circle", "radius": 1.0, "segments": 16}, "tol": 1e-6,
           "max_level": 12, "seed": 0, "output": str(tmp_path / "out.csv")}
    cfg.update(extra)
    return cfg


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


# --- config fuzzing ------------------------------------------------------------
# A fuzzed config is drawn from the config table: an experiment, then a model,
# path or homotopy kind (now and then an unknown one), with its required fields
# and a random share of its optional ones.  Then either up to three positions
# anywhere in it (a field, a nested field or a list entry) take junk: NaN,
# infinities, negative, zero or wrong-type values; or one key, at any nesting
# level, is misspelled or invented, which must exit 1 and name that key.
# Cost stays bounded: max_level, segments and ks are always drawn, with
# max_level <= 8, segments and ks <= 16, samples <= 48.

_JUNK = [math.nan, math.inf, -math.inf, -1, -0.5, 0, "x", None, True, [], [1.0], {}]

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


def _slots(node):
    """Every (container, key) position in a config, nested ones included."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


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
        node, key = draw(st.sampled_from(list(_slots(cfg))))
        junk = _JUNK
        if key == "output":
            junk = [v for v in _JUNK if not isinstance(v, str)]
        node[key] = draw(st.sampled_from(junk))
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
