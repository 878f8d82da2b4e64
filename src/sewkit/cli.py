"""Config-driven experiment runner with reproducible CSV output.

Experiments: sew, holonomy, knit, certify.  Configs are JSON documents; all
floats print with 17 significant digits so identical config + seed produces
byte-identical CSV.  Exit codes: 0 all assertions pass, 1 config errors
(including certification samples too few or too narrow), 2 bound
violations, non-convergence or non-finite values.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import certify as certify_mod
from .errors import BoundViolation, ConfigError, NonConvergence, NonFiniteValue, SewkitError
from .flows import MODE_KNITTING, ApproxFlowModel
from .knitting import build_net, holonomy, knit_compare, pair_lipschitz
from .models import (
    FlatConnection,
    make_additive_sin,
    make_euler_linear,
    make_euler_matrix,
    make_euler_sin,
    make_flat_connection,
    make_young,
)
from .paths import (
    LipPath,
    arc_path,
    circle_path,
    ellipse_arc_path,
    path_from_csv,
    polyline,
    square_loop,
)
from .sewing import SewCertificate, sew, within_bound

EXPERIMENTS = ("sew", "knit", "holonomy", "certify")

_YOUNG_FNS: dict[str, tuple[Callable[[float], float], float]] = {
    # name -> (function, Hoelder-1 constant on [0,1])
    "linear": (lambda t: t, 1.0),
    "sin": (math.sin, 1.0),
    "quadratic": (lambda t: t * t, 2.0),
}


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


_REQUIRED = object()


def _finite(val: Any, where: str) -> float:
    """A config number as a finite float; bools, strings, NaN and infinities
    raise ConfigError."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where} must be a number, got {type(val).__name__}")
    if not math.isfinite(val):
        raise ConfigError(f"{where} must be finite, got {val!r}")
    return float(val)


def _cfg_get(cfg: dict, key: str, kind, where: str, default=_REQUIRED, least: int | None = None):
    """Field ``key`` of ``cfg`` as ``kind``; an int field below ``least`` raises ConfigError."""
    if key not in cfg:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"missing field {where}.{key}")
    val = cfg[key]
    if kind is float:
        return _finite(val, f"field {where}.{key}")
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ConfigError(f"field {where}.{key} must be {kind.__name__}, got {type(val).__name__}")
    if least is not None and val < least:
        raise ConfigError(f"field {where}.{key} must be >= {least}, got {val}")
    return val


def _point(val: Any, where: str) -> tuple[float, float]:
    """A config point of the plane: a list of two finite numbers."""
    if not (isinstance(val, list) and len(val) == 2):
        raise ConfigError(f"{where} must be a point [x, y], got {val!r}")
    return (_finite(val[0], where), _finite(val[1], where))


def build_model(spec: dict, where: str = "model") -> ApproxFlowModel:
    """The model a config names; constructor ValueErrors become ConfigErrors."""
    try:
        return _model(spec, where)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _model(spec: dict, where: str) -> ApproxFlowModel:
    name = _cfg_get(spec, "name", str, where)
    probes = _cfg_get(spec, "probes", int, where, 5, least=1)
    if name == "additive_sin":
        return make_additive_sin(probe_n=probes)
    if name == "euler_linear":
        return make_euler_linear(_cfg_get(spec, "lam", float, where, 1.0), probe_n=probes)
    if name == "euler_sin":
        return make_euler_sin(probe_n=probes)
    if name == "euler_matrix":
        a = _cfg_get(spec, "a", list, where)
        if len(a) != 2 or not all(isinstance(r, list) and len(r) == 2 for r in a):
            raise ConfigError(f"{where}.a must be a 2x2 matrix, got {a!r}")
        return make_euler_matrix([[_finite(v, f"{where}.a entry") for v in r] for r in a])
    if name == "young":
        xk = _cfg_get(spec, "driver", str, where, "linear")
        yk = _cfg_get(spec, "integrand", str, where, "linear")
        for key, val in (("driver", xk), ("integrand", yk)):
            if val not in _YOUNG_FNS:
                raise ConfigError(
                    f"{where}.{key} must be one of {sorted(_YOUNG_FNS)}, got {val!r}"
                )
        x_fn, c_x = _YOUNG_FNS[xk]
        y_fn, c_y = _YOUNG_FNS[yk]
        return make_young(
            x_fn,
            y_fn,
            _cfg_get(spec, "alpha", float, where, 1.0),
            _cfg_get(spec, "beta", float, where, 1.0),
            c_x,
            c_y,
            name=f"young({xk},{yk})",
            probe_n=probes,
        )
    if name == "flat_connection":
        return make_flat_connection(
            variant=_cfg_get(spec, "variant", str, where, FlatConnection.EXACT),
            r0=_cfg_get(spec, "r0", float, where, 0.5),
            fiber_probes=_cfg_get(spec, "probes", int, where, 8, least=1),
        )
    raise ConfigError(
        f"unknown {where}.name {name!r}; expected one of additive_sin, euler_linear, "
        "euler_sin, euler_matrix, young, flat_connection"
    )


def build_path(spec: dict, where: str = "path") -> LipPath:
    """The PL path in the plane a config describes; constructor ValueErrors and
    unreadable path files become ConfigErrors."""
    try:
        return _path(spec, where)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _path(spec: dict, where: str) -> LipPath:
    kind = _cfg_get(spec, "kind", str, where)
    segs = _cfg_get(spec, "segments", int, where, 64, least=1)
    if kind == "circle":
        return circle_path(
            _cfg_get(spec, "radius", float, where, 1.0),
            _cfg_get(spec, "turns", float, where, 1.0),
            segs,
        )
    if kind == "arc":
        return arc_path(
            _cfg_get(spec, "radius", float, where, 1.0),
            _cfg_get(spec, "angle0", float, where, 0.0),
            _cfg_get(spec, "angle1", float, where, math.pi),
            segs,
        )
    if kind == "ellipse_arc":
        return ellipse_arc_path(
            _cfg_get(spec, "rx", float, where, 1.0),
            _cfg_get(spec, "ry", float, where, 1.5),
            _cfg_get(spec, "angle0", float, where, 0.0),
            _cfg_get(spec, "angle1", float, where, math.pi),
            segs,
        )
    if kind == "square":
        center = _point(_cfg_get(spec, "center", list, where, [2.0, 0.0]), f"{where}.center")
        return square_loop(center, _cfg_get(spec, "half_side", float, where, 0.5))
    if kind == "points":
        pts = [_point(p, f"{where}.points entry") for p in _cfg_get(spec, "points", list, where)]
        breaks = _cfg_get(spec, "breaks", list, where, None)
        return polyline(pts, [_finite(b, f"{where}.breaks entry") for b in breaks] if breaks else None)
    if kind == "csv":
        g = path_from_csv(_cfg_get(spec, "file", str, where))
        if all(isinstance(p, tuple) and len(p) == 2 for p in g.points):
            return g
        raise ConfigError(f"{where}.file must hold a path in the plane")
    raise ConfigError(f"unknown {where}.kind {kind!r}")


def build_homotopy(spec: dict, where: str = "config.homotopy") -> tuple[LipPath, LipPath, float]:
    """The straight-line homotopy between two PL paths, as (g0, g1, ell): a
    pair of paths from the config or a named built-in from the circle family."""
    kind = spec.get("kind", "pair")
    if kind == "pair":
        g0 = build_path(_cfg_get(spec, "path0", dict, where), f"{where}.path0")
        g1 = build_path(_cfg_get(spec, "path1", dict, where), f"{where}.path1")
    elif kind == "semicircle_to_ellipse":
        segs = _cfg_get(spec, "segments", int, where, 64, least=1)
        g0 = arc_path(1.0, 0.0, math.pi, segs)
        g1 = ellipse_arc_path(1.0, _cfg_get(spec, "ry", float, where, 1.6), 0.0, math.pi, segs)
    else:
        raise ConfigError(f"unknown {where}.kind {kind!r}; expected pair or semicircle_to_ellipse")
    return g0, g1, pair_lipschitz(g0, g1)


def _write_csv(path: str, header: list[str], rows: list[list[Any]]) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


_LEVEL_HEADER = ["level", "mesh", "successive_distance", "bound", "value"]


def _level_rows(cert: SewCertificate) -> list[list[Any]]:
    """One CSV row per sewing level and a final ``limit`` row; a missing value prints empty."""
    rows: list[list[Any]] = [
        [rec.level, rec.mesh, rec.successive if rec.successive is not None else 0.0,
         rec.refine_bound, rec.value if rec.value is not None else ""]
        for rec in cert.levels
    ]
    rows.append(["limit", 0.0, cert.tail_estimate, cert.claimed_bound,
                 cert.limit_value if cert.limit_value is not None else ""])
    return rows


def _plane_model(cfg: dict, experiment: str) -> ApproxFlowModel:
    """The config's model, which must live over the punctured plane."""
    model = build_model(_cfg_get(cfg, "model", dict, "config"))
    if model.hoelder.mode != MODE_KNITTING:
        raise ConfigError(f"{experiment} experiments need a knitting-mode model (flat_connection)")
    return model


def _run_sew(cfg: dict, rng: np.random.Generator) -> tuple[list[str], list[list[Any]], int]:
    model = build_model(_cfg_get(cfg, "model", dict, "config"))
    interval = _cfg_get(cfg, "interval", list, "config", [0.0, 1.0])
    if len(interval) != 2:
        raise ConfigError(f"config.interval must hold two numbers, got {interval!r}")
    s, t = (_finite(v, "config.interval entry") for v in interval)
    tol = _cfg_get(cfg, "tol", float, "config", 1e-8)
    max_level = _cfg_get(cfg, "max_level", int, "config", 20, least=0)
    status = 0
    try:
        _, cert = sew(model, s, t, tol, max_level=max_level)
    except NonConvergence as exc:
        if exc.certificate is None:
            raise
        cert = exc.certificate
        status = 2
    return _LEVEL_HEADER, _level_rows(cert), status


def _run_holonomy(cfg: dict, rng: np.random.Generator) -> tuple[list[str], list[list[Any]], int]:
    model = _plane_model(cfg, "holonomy")
    path = build_path(_cfg_get(cfg, "path", dict, "config"))
    tol = _cfg_get(cfg, "tol", float, "config", 1e-8)
    max_level = _cfg_get(cfg, "max_level", int, "config", 20, least=0)
    _, summary = holonomy(model, path, tol, max_level=max_level)
    rows = _level_rows(summary.certificate)
    if summary.angle is not None:
        rows.append(["angle", 0.0, 0.0, 0.0, summary.angle])
    return _LEVEL_HEADER, rows, 0


def _run_knit(cfg: dict, rng: np.random.Generator) -> tuple[list[str], list[list[Any]], int]:
    model = _plane_model(cfg, "knit")
    g0, g1, ell = build_homotopy(_cfg_get(cfg, "homotopy", dict, "config"))
    ks = _cfg_get(cfg, "ks", list, "config", [8, 16, 32, 64])
    if not all(isinstance(k, int) and not isinstance(k, bool) and k >= 2 for k in ks):
        raise ConfigError(f"config.ks entries must be integers >= 2, got {ks!r}")
    class_separation = _cfg_get(cfg, "class_separation", bool, "config", False)
    status = 0
    rows: list[list[Any]] = []
    for k in ks:
        net = build_net(g0, g1, k, ell)
        measured, bound = knit_compare(net, model)
        ok = within_bound(measured, bound)
        if not ok:
            status = 2
        rows.append([k, 1.0 / k, measured, bound, "pass" if ok else "fail"])
    if class_separation:
        tol = _cfg_get(cfg, "tol", float, "config", 1e-8)
        max_level = _cfg_get(cfg, "max_level", int, "config", 20, least=0)
        upper = arc_path(1.0, 0.0, math.pi, 64)
        lower = arc_path(1.0, 0.0, -math.pi, 64)
        _, s_up = holonomy(model, upper, tol, max_level=max_level)
        _, s_lo = holonomy(model, lower, tol, max_level=max_level)
        sep = s_up.angle - s_lo.angle
        ok = abs(sep - 2.0 * math.pi) <= 1e-6
        if not ok:
            status = 2
        rows.append(["class_separation", 0.0, sep, 2.0 * math.pi, "pass" if ok else "fail"])
    return ["k", "delta", "measured", "bound", "note"], rows, status


def _run_certify(cfg: dict, rng: np.random.Generator) -> tuple[list[str], list[list[Any]], int]:
    model_spec = _cfg_get(cfg, "model", dict, "config")
    model = build_model(model_spec)
    mode = _cfg_get(cfg, "mode", str, "config", "three_point")
    n = _cfg_get(cfg, "samples", int, "config", 48)
    on_plane = model_spec.get("name") == "flat_connection"
    if mode == "three_point":
        samples = (
            certify_mod.annulus_three_point_samples(rng, n)
            if on_plane
            else certify_mod.interval_three_point_samples(rng, n)
        )
        report = certify_mod.fit_three_point(model, samples)
    elif mode == "strong_four_point":
        samples = (
            certify_mod.annulus_four_point_samples(rng, n)
            if on_plane
            else certify_mod.interval_four_point_samples(rng, n)
        )
        report = certify_mod.fit_strong_four_point(model, samples)
    else:
        raise ConfigError("config.mode must be three_point or strong_four_point")
    status = 0
    rows: list[list[Any]] = []
    for r in report.rows:
        ok = within_bound(r.defect, r.declared_bound) if r.declared_bound > 0.0 else True
        if not ok:
            status = 2
        rows.append(
            ["sample", r.geometry, r.defect, r.declared_bound,
             r.residual if r.residual is not None else ""]
        )
    summary = (
        f"eps_hat={_fmt(report.epsilon_hat)};c_hat={_fmt(report.c_hat)};"
        f"exact={report.exact};strong_mode_ok={report.strong_mode_ok};"
        f"n_used={report.n_used}"
    )
    rows.append(["fit", summary, 0.0, 0.0, report.residual_rms])
    if report.note:
        rows.append(["note", report.note, 0.0, 0.0, ""])
    return ["row", "geometry", "defect", "bound", "residual"], rows, status


_RUNNERS = {
    "sew": _run_sew,
    "holonomy": _run_holonomy,
    "knit": _run_knit,
    "certify": _run_certify,
}


def run(config_path: str, seed: int | None = None, quiet: bool = False,
        experiment: str | None = None) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        try:
            cfg = json.loads(Path(config_path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        exp = cfg.get("experiment", experiment)
        if experiment is not None and exp != experiment:
            raise ConfigError(
                f"config.experiment {exp!r} does not match the {experiment!r} subcommand"
            )
        if exp not in EXPERIMENTS:
            raise ConfigError(f"config.experiment must be one of {EXPERIMENTS}, got {exp!r}")
        if seed is None:
            seed = _cfg_get(cfg, "seed", int, "config", 0)
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        output = _cfg_get(cfg, "output", str, "config")
        header, rows, status = _RUNNERS[exp](cfg, rng)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (BoundViolation, NonConvergence) as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 2
    except NonFiniteValue as exc:
        print(f"non-finite value: {exc}", file=sys.stderr)
        return 2
    except SewkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _write_csv(output, header, rows)
    except OSError as exc:
        print(f"config error: cannot write config.output: {exc}", file=sys.stderr)
        return 1
    if not quiet:
        print(f"{exp}: wrote {len(rows)} rows to {output} (exit {status})")
    return status


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="sewkit", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)
    sys.exit(run(args.config, seed=args.seed, quiet=args.quiet, experiment=args.experiment))


if __name__ == "__main__":
    main()
