import csv
import json
import math
import os
import runpy
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from perfbench import workloads
from sewkit import certify, cli, make_euler

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize(
    "model,exact",
    [({"name": "euler_linear", "lam": 1.0, "probes": 1}, math.e),
     ({"name": "euler_sin", "probes": 1}, 2.0 * math.atan(math.tan(0.5) * math.e))],
    ids=["euler_linear", "euler_sin"],
)
def test_a_sew_measures_its_readout_off_the_probes(tmp_path, model, exact):
    # the one probe, 0.0, is a fixed point of both fields; the limit is read at 1.0
    assert cli.run(euler_cfg(tmp_path, model=model), quiet=True) == 0
    rows = read_rows(tmp_path / "euler.csv")
    assert rows[-1][0] == "limit"
    assert float(rows[-1][4]) == pytest.approx(exact, abs=1e-6)


def test_sew_nonconvergence_exits_two(tmp_path, capsys):
    path = euler_cfg(tmp_path, out="short.csv", tol=1e-13, max_level=3)
    assert cli.run(path, quiet=True) == 2
    assert capsys.readouterr().err.startswith("non-convergence: ")
    rows = read_rows(tmp_path / "short.csv")
    assert rows[-1][0] == "limit"


@pytest.mark.parametrize("extra,claimed", [
    ({"interval": [0.0, 0.5], "tol": 10.0}, 2.7120377849119373),
    ({"model": {"name": "euler_matrix", "a": [[0.5, 0.0], [0.0, 0.5]]}, "tol": 0.0,
      "max_level": 0}, 3.835400617090749),
], ids=["loose-tol", "max-level-0"])
def test_a_sew_ending_on_its_one_interval_base_level_exits_zero(tmp_path, capsys, extra, claimed):
    # its composite is mu(s, t), so the limit row's tail is the claimed bound
    assert cli.run(euler_cfg(tmp_path, **extra), quiet=True) == 0
    assert capsys.readouterr().err == ""
    rows = read_rows(tmp_path / "euler.csv")
    assert [row[0] for row in rows[1:]] == ["0", "limit"]
    assert float(rows[-1][2]) == float(rows[-1][3]) == claimed


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


def test_a_holonomy_whose_levels_would_pass_the_interval_cap_exits_two(tmp_path, capsys):
    # r0 = 0.02 needs a base level of 512 intervals along the unit circle; at
    # tol 0 the ladder stops before level 12 would pass 2**20 intervals
    # (max_level 12 bounds the ladder of a sew that would not stop; the
    # default 20 would ask for 512 * 2**20 intervals)
    cfg = {
        "experiment": "holonomy",
        "model": {"name": "flat_connection", "variant": "midpoint", "r0": 0.02},
        "path": {"kind": "circle"},
        "tol": 0,
        "max_level": 12,
        "output": str(tmp_path / "cap.csv"),
    }
    assert cli.run(write_cfg(tmp_path, "cap.json", cfg), quiet=True) == 2
    assert capsys.readouterr().err == (
        "non-convergence: sew of pullback(flat-connection[midpoint]) stopped at level 11: "
        "level 12 would pass 2**20 intervals\n")
    rows = read_rows(tmp_path / "cap.csv")
    assert [r[0] for r in rows[1:]] == [str(j) for j in range(12)] + ["limit", "angle"]
    assert float(rows[12][1]) == 2.0**-20


@pytest.mark.parametrize("variant", ["exact-segment", "midpoint"])
def test_holonomy_limit_row_is_the_angle_and_levels_carry_values(tmp_path, variant):
    cfg = {
        "experiment": "holonomy",
        "model": {"name": "flat_connection", "variant": variant},
        "path": {"kind": "arc", "radius": 1.0, "angle0": 0.0, "angle1": -math.pi},
        "output": str(tmp_path / "hol.csv"),
    }
    assert cli.run(write_cfg(tmp_path, "hol.json", cfg), quiet=True) == 0
    rows = read_rows(tmp_path / "hol.csv")
    (limit,) = [r for r in rows if r[0] == "limit"]
    assert rows[-1][0] == "angle"
    assert limit[4] == rows[-1][4]
    assert all(r[4] != "" for r in rows[1:])


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


_SMALL_R0_CONFIGS = {
    "holonomy": {"experiment": "holonomy",
                 "model": {"name": "flat_connection", "variant": "midpoint", "r0": 0.05},
                 "path": {"kind": "circle", "radius": 0.1}},
    "knit": {"experiment": "knit",
             "model": {"name": "flat_connection", "variant": "midpoint", "r0": 0.02},
             "homotopy": {"path0": {"kind": "arc", "radius": 0.03},
                          "path1": {"kind": "ellipse_arc", "rx": 0.03, "ry": 0.048}}},
}


@pytest.mark.parametrize("name", sorted(_SMALL_R0_CONFIGS))
def test_the_midpoint_connection_passes_its_own_bounds_at_a_small_r0(tmp_path, name):
    # with the constant of r0 = 0.5 at every r0, both failed a bound (exit 2)
    cfg = dict(_SMALL_R0_CONFIGS[name], output=str(tmp_path / "out.csv"))
    assert cli.run(write_cfg(tmp_path, "small.json", cfg), quiet=True) == 0


@pytest.fixture
def fresh_separations(monkeypatch):
    """An empty store of kept class separations for one test, so a test that
    counts holonomies does not depend on which tests ran before it."""
    monkeypatch.setattr(cli, "_separations", OrderedDict())
    return cli._separations


@pytest.fixture
def holonomy_calls(monkeypatch, fresh_separations):
    """The paths of every holonomy the CLI sews, in call order."""
    calls = []
    real_holonomy = cli.holonomy

    def spy(model, path, *args, **kwargs):
        calls.append(path)
        return real_holonomy(model, path, *args, **kwargs)

    monkeypatch.setattr(cli, "holonomy", spy)
    return calls


def separation_cfg(tmp_path, out="sep.csv", model=None, **extra):
    cfg = {
        "experiment": "knit",
        "model": model or {"name": "flat_connection", "variant": "midpoint"},
        "homotopy": {"kind": "semicircle_to_ellipse", "ry": 1.6, "segments": 16},
        "ks": [8],
        "class_separation": True,
        "tol": 1e-8,
        "output": str(tmp_path / out),
    }
    cfg.update(extra)
    return cfg


def test_a_kept_class_separation_writes_the_bytes_of_a_sewn_one(tmp_path, holonomy_calls):
    path = write_cfg(tmp_path, "sep.json", separation_cfg(tmp_path))
    assert cli.run(path, quiet=True) == 0
    sewn = (tmp_path / "sep.csv").read_bytes()
    assert len(holonomy_calls) == 2
    (tmp_path / "sep.csv").unlink()
    assert cli.run(path, quiet=True) == 0
    assert (tmp_path / "sep.csv").read_bytes() == sewn
    assert len(holonomy_calls) == 2  # the second run sewed nothing


@pytest.mark.parametrize("change", [
    {"model": {"name": "flat_connection", "variant": "exact-segment"}},
    {"model": {"name": "flat_connection", "variant": "midpoint", "r0": 0.6}},
    {"model": {"name": "flat_connection", "variant": "midpoint", "probes": 4}},
    {"tol": 1e-7},
    {"max_level": 19},
], ids=["variant", "r0", "probes", "tol", "max_level"])
def test_every_part_of_the_separation_key_sews_again(tmp_path, holonomy_calls, change):
    assert cli.run(write_cfg(tmp_path, "a.json", separation_cfg(tmp_path)), quiet=True) == 0
    changed = separation_cfg(tmp_path, out="b.csv", **change)
    assert cli.run(write_cfg(tmp_path, "b.json", changed), quiet=True) == 0
    assert len(holonomy_calls) == 4


def test_the_rest_of_a_knit_config_reuses_the_separation(tmp_path, holonomy_calls):
    # the model spec is compared with its defaults filled in
    assert cli.run(write_cfg(tmp_path, "a.json", separation_cfg(tmp_path)), quiet=True) == 0
    other = separation_cfg(
        tmp_path, out="b.csv", ks=[16, 32], seed=5,
        model={"name": "flat_connection", "variant": "midpoint", "r0": 0.5, "probes": 8},
        homotopy={"kind": "semicircle_to_ellipse", "ry": 1.3, "segments": 32})
    assert cli.run(write_cfg(tmp_path, "b.json", other), quiet=True) == 0
    assert len(holonomy_calls) == 2
    rows_a, rows_b = read_rows(tmp_path / "sep.csv"), read_rows(tmp_path / "b.csv")
    assert rows_a[-1] == rows_b[-1] and rows_a[-1][0] == "class_separation"


def test_stopped_class_separations_are_sewn_again(tmp_path, capsys, holonomy_calls):
    # the config of test_knit_keeps_its_rows_when_class_separation_stops_short
    cfg = separation_cfg(tmp_path, ks=[8, 16], tol=1e-12, max_level=1, seed=0)
    path = write_cfg(tmp_path, "sep.json", cfg)
    for attempt in (1, 2):
        assert cli.run(path, quiet=True) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("non-convergence: ") for line in err), err
        rows = read_rows(tmp_path / "sep.csv")
        assert [(r[0], r[-1]) for r in rows[1:]] == [
            ("8", "pass"), ("16", "pass"), ("class_separation", "fail")]
        assert len(holonomy_calls) == 2 * attempt
    assert not cli._separations


def test_the_kept_separations_are_bounded(tmp_path, holonomy_calls):
    # each key is a tol; a reused separation counts as recently used
    def sews(tol):
        before = len(holonomy_calls)
        cfg = separation_cfg(tmp_path, model={"name": "flat_connection"}, tol=tol)
        assert cli.run(write_cfg(tmp_path, "sep.json", cfg), quiet=True) == 0
        assert len(cli._separations) <= cli._SEPARATIONS_KEPT
        return len(holonomy_calls) - before

    tols = [1e-4 * (1.0 + i) for i in range(cli._SEPARATIONS_KEPT + 3)]
    kept = tols[:cli._SEPARATIONS_KEPT]
    assert [sews(tol) for tol in kept] == [2] * len(kept)
    assert sews(kept[0]) == 0
    assert sews(tols[-1]) == 2  # drops the least recently used, kept[1]
    assert (sews(kept[0]), sews(kept[1])) == (0, 2)
    assert [sews(tol) for tol in tols[len(kept):-1]] == [2, 2]
    assert len(cli._separations) == cli._SEPARATIONS_KEPT
    assert all(isinstance(v, float) for v in cli._separations.values())


def test_class_separation_holonomies_obey_max_level(tmp_path, monkeypatch, fresh_separations):
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


@pytest.mark.parametrize("mode", ["three_point", "strong_four_point"])
def test_planar_certify_geometry_cells_are_quoted_and_read_back_whole(tmp_path, mode):
    # a planar sample's geometry holds ", " inside its points, so csv.writer
    # quotes the cell; csv.reader gives back each sample's own string
    cfg = {"experiment": "certify", "model": {"name": "flat_connection", "variant": "midpoint"},
           "mode": mode, "seed": 0, "output": str(tmp_path / "geo.csv")}
    assert cli.run(write_cfg(tmp_path, "geo.json", cfg), quiet=True) == 0
    rng = np.random.default_rng(0)
    if mode == "three_point":
        want = [f"s={s!r};u={u!r};t={t!r}"
                for s, u, t in certify.annulus_three_point_samples(rng)]
    else:
        want = [f"x={x!r};u={u!r};v={v!r};y={y!r}"
                for x, u, v, y in certify.annulus_four_point_samples(rng)]
    rows = read_rows(tmp_path / "geo.csv")
    assert [r[1] for r in rows if r[0] == "sample"] == want
    assert f'sample,"{want[0]}",' in (tmp_path / "geo.csv").read_text()


def test_config_errors_exit_one(tmp_path, capsys):
    assert cli.run(str(tmp_path / "missing.json"), quiet=True) == 1
    assert "config error" in capsys.readouterr().err
    assert cli.run(str(tmp_path), quiet=True) == 1  # a directory
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
    capsys.readouterr()

    listed = write_cfg(tmp_path, "listed.json", [json.loads(Path(mismatch).read_text())])
    assert cli.run(listed, quiet=True) == 1
    assert "config must be a JSON object" in capsys.readouterr().err

    assert cli.run(mismatch, seed=-1, quiet=True) == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_certify_with_too_few_samples_exits_one(tmp_path, capsys):
    cfg = {
        "experiment": "certify",
        "model": {"name": "flat_connection", "variant": "midpoint"},
        "mode": "strong_four_point",
        "samples": 10,
        "seed": 55,
        "output": str(tmp_path / "four.csv"),
    }
    assert cli.run(write_cfg(tmp_path, "four.json", cfg), quiet=True) == 1
    assert "at least 20 samples" in capsys.readouterr().err
    assert not (tmp_path / "four.csv").exists()


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


#: certify configs whose fit bytes moved with numpy's SIMD level or OpenBLAS's
#: kernel while the fit ran through np.log and np.polyfit
_KERNEL_SENSITIVE = [
    {"experiment": "certify", "mode": "three_point", "seed": 4,
     "model": {"name": "young", "driver": "sin", "integrand": "quadratic",
               "alpha": 0.8, "beta": 0.7}},
    {"experiment": "certify", "mode": "strong_four_point", "seed": 0,
     "model": {"name": "flat_connection", "variant": "midpoint"}},
    {"experiment": "certify", "mode": "three_point", "samples": 48, "seed": 751,
     "model": {"name": "young", "driver": "quadratic", "integrand": "quadratic",
               "alpha": 0.9673649406294775, "beta": 0.9450636278055713}},
]

#: environment switches of numpy's SIMD dispatch and of OpenBLAS's kernel
_KERNEL_SWITCHES = {
    "numpy without AVX-512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "OpenBLAS Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
}

_RUN_EACH = ("import sys; from sewkit import cli; "
             "print([cli.run(p, quiet=True) for p in sys.argv[1:]])")


def _certify_bytes(tmp_path, name, switch):
    """The CSV bytes of every kernel-sensitive config, run in one child
    process whose environment holds ``switch`` and no other kernel switch."""
    out = tmp_path / name.replace(" ", "-")
    out.mkdir()
    paths = [write_cfg(out, f"{i}.json", dict(cfg, output=str(out / f"{i}.csv")))
             for i, cfg in enumerate(_KERNEL_SENSITIVE)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RUN_EACH, *paths], env={**env, **switch},
                          capture_output=True, text=True)
    # a switch that numpy or OpenBLAS rejects fails here, with its message
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", f"{[0] * len(paths)}\n"), name
    return [(out / f"{i}.csv").read_bytes() for i in range(len(paths))]


def test_certify_bytes_depend_on_neither_numpy_dispatch_nor_the_blas_kernel(tmp_path):
    default = _certify_bytes(tmp_path, "default", {})
    for name, switch in _KERNEL_SWITCHES.items():
        got = _certify_bytes(tmp_path, name, switch)
        for cfg, a, b in zip(_KERNEL_SENSITIVE, default, got):
            assert a == b, f"{name} changes the CSV of {cfg}"


def test_main_entry_point(tmp_path, capsys):
    path = euler_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sew", "--config", path, "--quiet"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exc:
        cli.main(["sew", "--config", path])
    assert exc.value.code == 0
    rows = len(read_rows(tmp_path / "euler.csv")) - 1
    assert capsys.readouterr().out == f"sew: wrote {rows} rows to {tmp_path / 'euler.csv'} (exit 0)\n"


# --- the config table ----------------------------------------------------------

def test_config_check_fills_every_default():
    cfg = cli.CONFIG.check({"experiment": "holonomy", "model": {"name": "flat_connection"},
                            "path": {"kind": "square"}, "output": "out.csv"}, "config")
    assert cfg == {
        "experiment": "holonomy",
        "model": {"name": "flat_connection", "variant": "exact-segment", "r0": 0.5, "probes": 8},
        "path": {"kind": "square", "center": (2.0, 0.0), "half_side": 0.5},
        "tol": 1e-8, "max_level": 20, "seed": 0, "output": "out.csv",
    }
    assert cli.MAX_LEVEL == 20


def _script_configs(tmp_path, monkeypatch):
    """The configs the experiment scripts write, collected without running them."""
    configs = []

    def collect(config_path):
        configs.append(json.loads(Path(config_path).read_text()))
        return 0

    monkeypatch.setattr(cli, "run", collect)
    for script in ("run_euler_sew.py", "run_winding_knit.py", "run_certify_young.py"):
        monkeypatch.setattr(sys, "argv", [script, str(tmp_path)])
        with pytest.raises(SystemExit):
            runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    return configs


def test_benchmark_and_script_configs_pass_the_table(tmp_path, monkeypatch):
    configs = [dict(op.config, output="out.csv")
               for w in ("sew-smooth", "sew-rough", "knit-holonomy")
               for op in workloads.generate(w, 7, 150)]
    configs += _script_configs(tmp_path, monkeypatch)
    assert len(configs) == 453
    for cfg in configs:
        cli.CONFIG.check(cfg, "config")


def _table_names(table):
    """Every variant name and field name of a config table, nested ones included."""
    for name, (fields, _) in table.variants.items():
        yield name
        for key, field in fields.items():
            yield key
            if isinstance(field.kind, cli.Tagged):
                yield from _table_names(field.kind)


def test_readme_cli_section_names_every_table_field():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## CLI"):readme.index("## Experiment scripts")]
    missing = sorted({n for n in _table_names(cli.CONFIG) if f"`{n}`" not in section
                      and f'"{n}"' not in section})
    assert not missing, f"README's CLI section does not name {missing}"
    examples = section.split("```json")[1:]
    assert [cli.CONFIG.check(json.loads(block.split("```")[0]), "config")["experiment"]
            for block in examples] == ["sew", "holonomy", "knit", "certify"]
