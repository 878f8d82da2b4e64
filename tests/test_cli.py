import csv
import json
import math

import pytest

from sewkit import cli, make_euler


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def euler_cfg(tmp_path, out="euler.csv", **extra):
    cfg = {
        "experiment": "sew",
        "model": {"name": "euler_linear", "lam": 1.0},
        "interval": [0.0, 1.0],
        "tol": 1e-8,
        "max_level": 20,
        "seed": 0,
        "output": str(tmp_path / out),
    }
    cfg.update(extra)
    return write_cfg(tmp_path, "euler.json", cfg)


def test_sew_experiment_ends_with_the_exponential(tmp_path):
    path = euler_cfg(tmp_path)
    assert cli.run(path, quiet=True) == 0
    rows = read_rows(tmp_path / "euler.csv")
    assert rows[0] == ["level", "mesh", "successive_distance", "bound", "value"]
    assert rows[-1][0] == "limit"
    assert float(rows[-1][4]) == pytest.approx(math.e, abs=1e-6)


def test_sew_nonconvergence_exits_two(tmp_path):
    path = euler_cfg(tmp_path, out="short.csv", tol=1e-13, max_level=3)
    assert cli.run(path, quiet=True) == 2
    rows = read_rows(tmp_path / "short.csv")
    assert rows[-1][0] == "limit"


def test_sew_nan_probe_values_exit_two(tmp_path, monkeypatch, capsys):
    nan_tail = make_euler(lambda x: math.nan if x > 0.5 else x, 1.0, field_bound=1.0)
    monkeypatch.setattr(cli, "build_model", lambda spec, where="model": nan_tail)
    path = euler_cfg(tmp_path, out="nan.csv")
    assert cli.run(path, quiet=True) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "nan.csv").exists()


def test_rough_young_sew_reaches_the_integral(tmp_path):
    cfg = {
        "experiment": "sew",
        "model": {"name": "young", "driver": "sin", "integrand": "linear",
                  "alpha": 0.6, "beta": 0.6},
        "interval": [0.0, 1.0],
        "tol": 1e-8,
        "seed": 0,
        "output": str(tmp_path / "rough.csv"),
    }
    assert cli.run(write_cfg(tmp_path, "rough.json", cfg), quiet=True) == 0
    rows = read_rows(tmp_path / "rough.csv")
    assert rows[-1][0] == "limit"
    exact = math.sin(1.0) + math.cos(1.0) - 1.0
    assert abs(float(rows[-1][4]) - exact) <= 1e-8


def test_holonomy_experiment_reports_winding(tmp_path):
    cfg = {
        "experiment": "holonomy",
        "model": {"name": "flat_connection", "variant": "exact-segment"},
        "path": {"kind": "circle", "radius": 1.0, "turns": 1.0, "segments": 64},
        "tol": 1e-8,
        "seed": 0,
        "output": str(tmp_path / "hol.csv"),
    }
    assert cli.run(write_cfg(tmp_path, "hol.json", cfg), quiet=True) == 0
    rows = read_rows(tmp_path / "hol.csv")
    assert rows[-1][0] == "angle"
    assert float(rows[-1][4]) == pytest.approx(2.0 * math.pi, abs=1e-6)


def test_knit_experiment_with_class_separation(tmp_path):
    cfg = {
        "experiment": "knit",
        "model": {"name": "flat_connection", "variant": "midpoint"},
        "homotopy": {
            "path0": {"kind": "arc", "radius": 1.0, "angle0": 0.0, "angle1": math.pi},
            "path1": {"kind": "ellipse_arc", "rx": 1.0, "ry": 1.6, "angle0": 0.0, "angle1": math.pi},
        },
        "ks": [8, 16],
        "class_separation": True,
        "tol": 1e-8,
        "seed": 0,
        "output": str(tmp_path / "knit.csv"),
    }
    assert cli.run(write_cfg(tmp_path, "knit.json", cfg), quiet=True) == 0
    rows = read_rows(tmp_path / "knit.csv")
    assert rows[0] == ["k", "delta", "measured", "bound", "note"]
    assert [r[4] for r in rows[1:]] == ["pass"] * len(rows[1:])
    sep = [r for r in rows if r[0] == "class_separation"]
    assert len(sep) == 1
    assert float(sep[0][2]) == pytest.approx(2.0 * math.pi, abs=1e-6)


def test_class_separation_holonomies_obey_max_level(tmp_path, monkeypatch):
    # tol <= 0 runs the full ladder, so only max_level bounds these holonomies
    tols = []

    def holonomy_capped_at_three(model, path, tol, max_level=24):
        assert max_level == 3, f"holonomy called with max_level={max_level}"
        tols.append(tol)
        return real_holonomy(model, path, tol, max_level=max_level)

    real_holonomy = cli.holonomy
    monkeypatch.setattr(cli, "holonomy", holonomy_capped_at_three)
    cfg = {
        "experiment": "knit",
        "model": {"name": "flat_connection"},
        "homotopy": {"kind": "semicircle_to_ellipse", "ry": 1.6, "segments": 16},
        "ks": [8],
        "class_separation": True,
        "tol": -1,
        "max_level": 3,
        "output": str(tmp_path / "knit.csv"),
    }
    assert cli.run(write_cfg(tmp_path, "knit.json", cfg), quiet=True) == 0
    assert tols == [-1.0, -1.0]


@pytest.mark.parametrize("value", ["false", 0.5, [0], 1], ids=["str", "float", "list", "int"])
def test_class_separation_must_be_a_boolean(tmp_path, capsys, value):
    cfg = {
        "experiment": "knit",
        "model": {"name": "flat_connection"},
        "homotopy": {"kind": "semicircle_to_ellipse", "ry": 1.6, "segments": 16},
        "ks": [8],
        "class_separation": value,
        "output": str(tmp_path / "knit.csv"),
    }
    assert cli.run(write_cfg(tmp_path, "knit.json", cfg), quiet=True) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "knit.csv").exists()


def test_knit_experiment_with_named_homotopy(tmp_path):
    cfg = {
        "experiment": "knit",
        "model": {"name": "flat_connection", "variant": "exact-segment"},
        "homotopy": {"kind": "semicircle_to_ellipse", "ry": 1.5, "segments": 32},
        "ks": [8],
        "seed": 0,
        "output": str(tmp_path / "named.csv"),
    }
    assert cli.run(write_cfg(tmp_path, "named.json", cfg), quiet=True) == 0
    rows = read_rows(tmp_path / "named.csv")
    assert float(rows[1][2]) <= 1e-9  # exact variant: rounding-level knit gap


def test_certify_experiment_fits_young(tmp_path):
    cfg = {
        "experiment": "certify",
        "model": {"name": "young", "driver": "linear", "integrand": "linear"},
        "mode": "three_point",
        "samples": 48,
        "seed": 3,
        "output": str(tmp_path / "young.csv"),
    }
    assert cli.run(write_cfg(tmp_path, "young.json", cfg), quiet=True) == 0
    rows = read_rows(tmp_path / "young.csv")
    fit = [r for r in rows if r[0] == "fit"][0]
    eps_hat = float(fit[1].split(";")[0].split("=")[1])
    assert eps_hat == pytest.approx(1.0, abs=0.15)


def test_config_errors_exit_one(tmp_path, capsys):
    assert cli.run(str(tmp_path / "missing.json"), quiet=True) == 1
    assert "config error" in capsys.readouterr().err

    bad = write_cfg(
        tmp_path,
        "bad.json",
        {"experiment": "sew", "model": {"name": "heun"}, "output": str(tmp_path / "x.csv")},
    )
    assert cli.run(bad, quiet=True) == 1
    err = capsys.readouterr().err
    assert "model.name" in err and "heun" in err

    nofield = write_cfg(
        tmp_path, "nofield.json", {"experiment": "sew", "model": {"name": "euler_linear"}}
    )
    assert cli.run(nofield, quiet=True) == 1
    assert "config.output" in capsys.readouterr().err

    mismatch = euler_cfg(tmp_path)
    assert cli.run(mismatch, quiet=True, experiment="knit") == 1


def test_certify_with_too_narrow_sample_spread_exits_one(tmp_path, capsys):
    # at sample seed 55 the annulus gap products span less than four decades
    cfg = {
        "experiment": "certify",
        "model": {"name": "flat_connection", "variant": "midpoint"},
        "mode": "strong_four_point",
        "samples": 48,
        "seed": 55,
        "output": str(tmp_path / "four.csv"),
    }
    assert cli.run(write_cfg(tmp_path, "four.json", cfg), quiet=True) == 1
    assert "geometric range of gap sizes" in capsys.readouterr().err


def test_unknown_experiment_rejected(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "weird.json", {"experiment": "embroider", "output": str(tmp_path / "x.csv")}
    )
    assert cli.run(cfg, quiet=True) == 1
    assert "experiment" in capsys.readouterr().err


def test_identical_config_and_seed_reproduce_bytes(tmp_path):
    path = euler_cfg(tmp_path)
    cli.run(path, quiet=True)
    first = (tmp_path / "euler.csv").read_bytes()
    cli.run(path, quiet=True)
    assert (tmp_path / "euler.csv").read_bytes() == first

    cfg = {
        "experiment": "certify",
        "model": {"name": "additive_sin"},
        "mode": "three_point",
        "samples": 32,
        "seed": 11,
        "output": str(tmp_path / "cert.csv"),
    }
    p = write_cfg(tmp_path, "cert.json", cfg)
    cli.run(p, quiet=True)
    first = (tmp_path / "cert.csv").read_bytes()
    cli.run(p, quiet=True)
    assert (tmp_path / "cert.csv").read_bytes() == first
    # a different seed changes the sampled geometry
    cli.run(p, seed=12, quiet=True)
    assert (tmp_path / "cert.csv").read_bytes() != first


def test_main_entry_point(tmp_path, capsys):
    path = euler_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sew", "--config", path, "--quiet"])
    assert exc.value.code == 0
