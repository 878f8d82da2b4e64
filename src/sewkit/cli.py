"""Config-driven experiment runner with reproducible CSV output.

Experiments: sew, holonomy, knit, certify.  Configs are JSON documents,
checked as a whole against ``CONFIG`` before any work: it declares every
field of every experiment, model, path kind and homotopy kind with its type,
default and bounds.  All floats print with 17 significant digits so
identical config + seed produces byte-identical CSV.  Exit codes: 0 all
assertions pass, 1 config errors (an unknown field, a wrong type, a
non-finite number, a value outside its bounds, anything a constructor rejects,
certification samples too few or too narrow), 2 bound violations,
non-convergence or non-finite values.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import certify as certify_mod
from .errors import (
    BoundViolation,
    ConfigError,
    ModelDomainError,
    NonConvergence,
    NonFiniteValue,
    SewkitError,
)
from .flows import MODE_KNITTING, ApproxFlowModel
from .knitting import build_net, holonomy, knit_compare, pair_lipschitz
from .models import (
    EULER_EXPANSION_ORDERS,
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
from .sewing import MAX_LEVEL, SewCertificate, sew, within_bound

_YOUNG_FNS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], float]] = {
    # name -> (C^inf array function, Hoelder-1 constant on [0,1])
    "linear": (lambda t: t, 1.0),
    "sin": (np.sin, 1.0),
    "quadratic": (lambda t: t * t, 2.0),
}


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


#: the default of a field that has none
REQUIRED = object()


class Field(NamedTuple):
    """``kind`` is int, float, str, bool, a tuple of the allowed strings or a
    checker ``(value, where) -> value``, such as a :class:`Tagged` table;
    ``least`` and ``most`` bound an int."""

    kind: Any
    default: Any = REQUIRED
    least: int | None = None
    most: int | None = None


@dataclass(frozen=True)
class Tagged:
    """Config objects whose ``tag`` field names their variant: its fields, and
    what builds it from their checked values in field order (an experiment's
    runner takes the whole checked config and the seeded generator)."""

    tag: str
    variants: dict[str, tuple[dict[str, Field], Callable]]
    default: str | None = None

    def check(self, spec: Any, where: str) -> dict:
        """``spec`` checked against its variant, defaults filled in.  Every key
        the variant does not list (that no variant lists, when the tag names
        none) is named in one error."""
        if not isinstance(spec, dict):
            raise ConfigError(f"field {where} must be dict, got {type(spec).__name__}")
        name = spec.get(self.tag, self.default)
        variant = self.variants.get(name) if isinstance(name, str) else None
        known = variant[0] if variant else {k for f, _ in self.variants.values() for k in f}
        unknown = [f"{where}.{key}" for key in spec if key != self.tag and key not in known]
        if unknown:
            raise ConfigError(f"unknown field {', '.join(unknown)}")
        if variant is None:
            raise ConfigError(f"unknown {where}.{self.tag} {name!r}; "
                              f"expected one of {', '.join(self.variants)}")
        checked = {self.tag: name}
        for key, field in variant[0].items():
            if key in spec:
                checked[key] = _check_field(field, spec[key], f"{where}.{key}")
            elif field.default is REQUIRED:
                raise ConfigError(f"missing field {where}.{key}")
            else:
                checked[key] = field.default
        return checked

    __call__ = check

    def build(self, spec: dict, where: str) -> Any:
        """The object of a checked spec; constructor ValueErrors and unreadable
        files become ConfigErrors."""
        fields, build = self.variants[spec[self.tag]]
        try:
            return build(*(spec[key] for key in fields))
        except (ValueError, OSError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc


def _check_field(field: Field, val: Any, where: str) -> Any:
    kind = field.kind
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"field {where} must be a number, got {type(val).__name__}")
        if not abs(val) <= sys.float_info.max:  # NaN, infinities and ints beyond any float
            raise ConfigError(f"field {where} must be finite, got {val!r}")
        return float(val)
    if isinstance(kind, tuple):
        if val not in kind:
            raise ConfigError(f"field {where} must be one of {list(kind)}, got {val!r}")
        return val
    if not isinstance(kind, type):
        return kind(val, where)
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ConfigError(f"field {where} must be {kind.__name__}, got {type(val).__name__}")
    if field.least is not None and val < field.least:
        raise ConfigError(f"field {where} must be >= {field.least}, got {val}")
    if field.most is not None and val > field.most:
        raise ConfigError(f"field {where} must be <= {field.most}, got {val}")
    return val


def _point(val: Any, where: str) -> tuple[float, float]:
    """A config point of the plane: a list of two finite numbers."""
    if not (isinstance(val, list) and len(val) == 2):
        raise ConfigError(f"{where} must be a point [x, y], got {val!r}")
    return (_check_field(_FLOAT, val[0], where), _check_field(_FLOAT, val[1], where))


def _list(entry: Field, length: int | None = None, nonempty: bool = False
          ) -> Callable[[Any, str], list]:
    """A checker of a list, of ``length`` entries when given and of at least
    one when ``nonempty``, each an ``entry``."""

    def check(val: Any, where: str) -> list:
        if not isinstance(val, list) or (length is not None and len(val) != length):
            raise ConfigError(f"{where} must be a list{'' if length is None else f' of {length}'}, "
                              f"got {val!r}")
        if nonempty and not val:
            raise ConfigError(f"{where} must be a non-empty list, got []")
        return [_check_field(entry, v, f"{where} entry") for v in val]

    return check


def _young(driver: str, integrand: str, alpha: float, beta: float, probes: int) -> ApproxFlowModel:
    """A Young model of two ``_YOUNG_FNS``; all are C^inf, so it declares the
    Euler orders (its composites are explicit Euler for z' = y(s) x'(s))."""
    (x_fn, c_x), (y_fn, c_y) = _YOUNG_FNS[driver], _YOUNG_FNS[integrand]
    model = make_young(x_fn, y_fn, alpha, beta, c_x, c_y,
                       name=f"young({driver},{integrand})", probe_n=probes)
    return replace(model, expansion_orders=EULER_EXPANSION_ORDERS)


_FLOAT = Field(float)
# upper bounds on the fields that set a run's work, far above any use so far
_PROBES = Field(int, 5, least=1, most=64)
_SEGMENTS = Field(int, 64, least=1, most=4096)
_ANGLES = {"angle0": Field(float, 0.0), "angle1": Field(float, math.pi)}

MODELS = Tagged("name", {
    "additive_sin": ({"probes": _PROBES}, make_additive_sin),
    "euler_linear": ({"lam": Field(float, 1.0), "probes": _PROBES}, make_euler_linear),
    "euler_sin": ({"probes": _PROBES}, make_euler_sin),
    "euler_matrix": ({"a": Field(_list(Field(_list(_FLOAT, 2)), 2))}, make_euler_matrix),
    "young": ({"driver": Field(tuple(_YOUNG_FNS), "linear"),
               "integrand": Field(tuple(_YOUNG_FNS), "linear"),
               "alpha": Field(float, 1.0), "beta": Field(float, 1.0), "probes": _PROBES}, _young),
    "flat_connection": ({"variant": Field(str, FlatConnection.EXACT), "r0": Field(float, 0.5),
                         "probes": Field(int, 8, least=1, most=64)}, make_flat_connection),
})

PATHS = Tagged("kind", {
    "circle": ({"radius": Field(float, 1.0), "turns": Field(float, 1.0), "segments": _SEGMENTS},
               circle_path),
    "arc": ({"radius": Field(float, 1.0), **_ANGLES, "segments": _SEGMENTS}, arc_path),
    "ellipse_arc": ({"rx": Field(float, 1.0), "ry": Field(float, 1.5), **_ANGLES,
                     "segments": _SEGMENTS}, ellipse_arc_path),
    "square": ({"center": Field(_point, (2.0, 0.0)), "half_side": Field(float, 0.5)}, square_loop),
    "points": ({"points": Field(_list(Field(_point))), "breaks": Field(_list(_FLOAT), None)},
               lambda points, breaks: polyline(points, breaks or None)),
    "csv": ({"file": Field(str)}, path_from_csv),
})

HOMOTOPIES = Tagged("kind", {
    "pair": ({"path0": Field(PATHS), "path1": Field(PATHS)},
             lambda p0, p1: (build_path(p0, "config.homotopy.path0"),
                             build_path(p1, "config.homotopy.path1"))),
    "semicircle_to_ellipse": ({"segments": _SEGMENTS, "ry": Field(float, 1.6)},
                              lambda segs, ry: (arc_path(1.0, 0.0, math.pi, segs),
                                                ellipse_arc_path(1.0, ry, 0.0, math.pi, segs))),
}, default="pair")


def build_model(spec: dict) -> ApproxFlowModel:
    """The model of a checked ``config.model`` spec."""
    return MODELS.build(spec, "config.model")


def build_path(spec: dict, where: str = "config.path") -> LipPath:
    """The PL path of a checked spec, which must lie in the plane."""
    g = PATHS.build(spec, where)
    if spec["kind"] == "csv" and not all(isinstance(p, tuple) and len(p) == 2 for p in g.points):
        raise ConfigError(f"{where}.file must hold a path in the plane")
    return g


def build_homotopy(spec: dict) -> tuple[LipPath, LipPath, float]:
    """The straight-line homotopy of a checked spec, as (g0, g1, ell): a pair
    of paths from the config or a named built-in from the circle family."""
    g0, g1 = HOMOTOPIES.build(spec, "config.homotopy")
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
    model = build_model(cfg["model"])
    if model.hoelder.mode != MODE_KNITTING:
        raise ConfigError(f"{experiment} experiments need a knitting-mode model (flat_connection)")
    return model


def _sewn(cfg: dict, sewer: Callable, *args: Any) -> tuple[SewCertificate, int]:
    """The certificate and exit code of ``sewer`` (``sew`` or ``holonomy``) at
    the config's budget.  A sew that stops short keeps the levels it built and
    prints its reason here, as ``run`` would (exit 2); one with no certificate
    (a base level past ``2**MAX_LEVEL`` intervals) propagates."""
    try:
        return sewer(*args, cfg["tol"], max_level=cfg["max_level"])[1], 0
    except NonConvergence as exc:
        if exc.certificate is None:
            raise
        return exc.certificate, _fail(exc)


def _run_sew(cfg: dict, rng: np.random.Generator) -> tuple[list[str], list[list[Any]], int]:
    interval = cfg["interval"]
    # the Young drivers' Hoelder constants are declared on [0, 1] only
    if cfg["model"]["name"] == "young" and not all(0.0 <= u <= 1.0 for u in interval):
        raise ConfigError(f"config.interval {interval} must lie in [0, 1] for a young model, "
                          "where its drivers' Hoelder constants are declared")
    cert, status = _sewn(cfg, sew, build_model(cfg["model"]), *interval)
    return _LEVEL_HEADER, _level_rows(cert), status


def _run_holonomy(cfg: dict, rng: np.random.Generator) -> tuple[list[str], list[list[Any]], int]:
    model = _plane_model(cfg, "holonomy")
    cert, status = _sewn(cfg, holonomy, model, build_path(cfg["path"]))
    return _LEVEL_HEADER, _level_rows(cert) + [["angle", 0.0, 0.0, 0.0, cert.limit_value]], status


def _run_knit(cfg: dict, rng: np.random.Generator) -> tuple[list[str], list[list[Any]], int]:
    model = _plane_model(cfg, "knit")
    g0, g1, ell = build_homotopy(cfg["homotopy"])
    status = 0
    rows: list[list[Any]] = []
    for k in cfg["ks"]:
        net = build_net(g0, g1, k, ell)
        measured, bound = knit_compare(net, model)
        ok = within_bound(measured, bound)
        if not ok:
            status = 2
        rows.append([k, 1.0 / k, measured, bound, "pass" if ok else "fail"])
    if cfg["class_separation"]:
        sep, sep_status = _class_separation(cfg, model)
        # a holonomy that stopped short certifies no separation
        ok = sep_status == 0 and abs(sep - 2.0 * math.pi) <= 1e-6
        if not ok:
            status = 2
        rows.append(["class_separation", 0.0, sep, 2.0 * math.pi, "pass" if ok else "fail"])
    return ["k", "delta", "measured", "bound", "note"], rows, status


#: the most class separations kept in one process
_SEPARATIONS_KEPT = 16
#: converged class separations by (model spec, tol, max_level), least recently used first
_separations: OrderedDict[tuple[str, float, int], float] = OrderedDict()


def _class_separation(cfg: dict, model: ApproxFlowModel) -> tuple[float, int]:
    """The holonomy along the upper unit semicircle minus the lower one's, and
    its exit code.  Nothing else of the config reaches it, so one whose two
    holonomies converged is kept by the model spec, ``tol`` and ``max_level``
    and reused; one that stopped short is sewn again, and reported, each time."""
    key = (json.dumps(cfg["model"], sort_keys=True), cfg["tol"], cfg["max_level"])
    if key in _separations:
        _separations.move_to_end(key)
        return _separations[key], 0
    try:
        up, up_status = _sewn(cfg, holonomy, model, arc_path(1.0, 0.0, math.pi, 64))
        lo, lo_status = _sewn(cfg, holonomy, model, arc_path(1.0, 0.0, -math.pi, 64))
    except ModelDomainError as exc:
        raise ModelDomainError(
            f"config.class_separation sews holonomies along the unit semicircles, which must "
            f"stay outside the excluded disk of config.model.r0 = {cfg['model']['r0']!r}: "
            f"{exc}") from exc
    sep = up.limit_value - lo.limit_value
    if up_status == lo_status == 0:
        _separations[key] = sep
        if len(_separations) > _SEPARATIONS_KEPT:
            _separations.popitem(last=False)
    return sep, up_status or lo_status


def _run_certify(cfg: dict, rng: np.random.Generator) -> tuple[list[str], list[list[Any]], int]:
    model = build_model(cfg["model"])
    three = cfg["mode"] == "three_point"
    fit = certify_mod.fit_three_point if three else certify_mod.fit_strong_four_point
    if model.hoelder.mode == MODE_KNITTING:
        # the flat connection, drawn at its own scale: radius 1.8 * r0 to 3.2 * r0 and
        # chords scaled by r0 / 0.5, which at the default r0 = 0.5 are the defaults' bits
        r0 = cfg["model"]["r0"]
        draw = (certify_mod.annulus_three_point_samples if three
                else certify_mod.annulus_four_point_samples)
        samples = draw(rng, cfg["samples"], (1.8 * r0, 3.2 * r0),
                       tuple(c * (r0 / 0.5) for c in certify_mod.ANNULUS_SCALES))
    else:
        draw = (certify_mod.interval_three_point_samples if three
                else certify_mod.interval_four_point_samples)
        samples = draw(rng, cfg["samples"])
    report = fit(model, samples)
    status = 0
    rows: list[list[Any]] = []
    for r in report.rows:
        ok = within_bound(r.defect, r.declared_bound)
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


_SEW_BUDGET = {"tol": Field(float, 1e-8), "max_level": Field(int, MAX_LEVEL, least=0)}
_RUN = {"seed": Field(int, 0, least=0), "output": Field(str)}

CONFIG = Tagged("experiment", {
    "sew": ({"model": Field(MODELS), "interval": Field(_list(_FLOAT, 2), [0.0, 1.0]),
             **_SEW_BUDGET, **_RUN}, _run_sew),
    "knit": ({"model": Field(MODELS), "homotopy": Field(HOMOTOPIES),
              "ks": Field(_list(Field(int, least=2, most=4096), nonempty=True), [8, 16, 32, 64]),
              "class_separation": Field(bool, False), **_SEW_BUDGET, **_RUN}, _run_knit),
    "holonomy": ({"model": Field(MODELS), "path": Field(PATHS), **_SEW_BUDGET, **_RUN},
                 _run_holonomy),
    "certify": ({"model": Field(MODELS),
                 "mode": Field(("three_point", "strong_four_point"), "three_point"),
                 "samples": Field(int, 48, least=0, most=10_000), **_RUN}, _run_certify),
})


#: how a failed run reports: (type, stderr label, exit code), the most specific type first
_FAILURES = (
    (ConfigError, "config error", 1),
    (BoundViolation, "bound violation", 2),
    (NonConvergence, "non-convergence", 2),
    (NonFiniteValue, "non-finite value", 2),
    (SewkitError, "error", 1),
)


def _fail(exc: SewkitError) -> int:
    """Print ``exc`` on stderr under its ``_FAILURES`` label; its exit code."""
    label, code = next((label, code) for kind, label, code in _FAILURES if isinstance(exc, kind))
    print(f"{label}: {exc}", file=sys.stderr)
    return code


def run(config_path: str, seed: int | None = None, quiet: bool = False,
        experiment: str | None = None) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        try:
            cfg = json.loads(Path(config_path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read the config file: {exc}")
        except ValueError as exc:  # malformed JSON, an int beyond Python's limit, or not UTF-8
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        exp = cfg.get("experiment", experiment)
        if experiment is not None and exp != experiment:
            raise ConfigError(
                f"config.experiment {exp!r} does not match the {experiment!r} subcommand"
            )
        cfg = CONFIG.check(dict(cfg, experiment=exp), "config")
        seed = cfg["seed"] if seed is None else seed
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        header, rows, status = CONFIG.variants[exp][1](cfg, np.random.default_rng(seed))
    except SewkitError as exc:
        return _fail(exc)
    try:
        _write_csv(cfg["output"], header, rows)
    except OSError as exc:
        return _fail(ConfigError(f"cannot write config.output: {exc}"))
    if not quiet:
        print(f"{exp}: wrote {len(rows)} rows to {cfg['output']} (exit {status})")
    return status


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="sewkit", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in CONFIG.variants:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)
    sys.exit(run(args.config, seed=args.seed, quiet=args.quiet, experiment=args.experiment))


if __name__ == "__main__":
    main()
