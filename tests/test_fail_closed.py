"""NaN distances, non-finite or malformed config values, and unrepresentable
bounds end in a typed error or a documented exit code, never a traceback."""
import dataclasses
import json
import math

import pytest

from sewkit import (
    INFINITE,
    HoelderData,
    NonFiniteValue,
    ProbedMap,
    arc_path,
    build_net,
    cli,
    ellipse_arc_path,
    identity_map,
    knit_compare,
    linear_pair_homotopy,
    make_flat_connection,
    map_distance,
    map_distance_value,
    real_line,
)


def test_map_distance_raises_on_nan():
    sp = real_line()
    with pytest.raises(NonFiniteValue):
        map_distance_value(ProbedMap(sp, sp, lambda p: math.nan), identity_map(sp))
    # one NaN among finite probes is not dropped either
    half = ProbedMap(sp, sp, lambda p: math.nan if p > 0.0 else p)
    with pytest.raises(NonFiniteValue):
        map_distance(half, identity_map(sp))


def test_map_distance_keeps_infinity_as_an_extended_distance():
    sp = real_line()
    assert map_distance(ProbedMap(sp, sp, lambda p: math.inf), identity_map(sp)) == INFINITE


def test_knit_compare_raises_on_a_nan_flow():
    fc = make_flat_connection(variant="midpoint")
    fiber = fc.space_at((1.0, 0.0))
    nan_mu = lambda x, y: ProbedMap(fiber, fiber, lambda p: (math.nan, math.nan))
    broken = dataclasses.replace(fc, mu=nan_mu)
    H, ell = linear_pair_homotopy(arc_path(1.0, 0.0, math.pi, 16),
                                  ellipse_arc_path(1.0, 1.6, 0.0, math.pi, 16))
    with pytest.raises(NonFiniteValue):
        knit_compare(build_net(H, 8, ell), broken)


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
        ({"interval": [0.0, -math.inf]}, 1),
        ({"interval": ["a", 1]}, 1),
        ({"interval": [0.0, 0.5, 1.0]}, 1),
        ({"model": {"name": "euler_matrix", "a": [[1]]}}, 1),
        ({"model": {"name": "euler_matrix", "a": [[1, 0], [0, "x"]]}}, 1),
        ({"model": {"name": "euler_linear", "lam": 1e308}}, 2),
    ],
    ids=["young-alpha-nan", "tol-nan", "tol-inf", "interval-inf", "interval-str",
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
