"""Empirical defect certification: fit exponents and constants from samples.

Three-point fits regress log defect against log(|t-u|*|u-s|) under the
symmetric ansatz a = b = (1+eps)/2; strong four-point fits use total degree
2+eps.  Declared model data stays authoritative; fits are diagnostics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSamples
from .flows import ApproxFlowModel
from .metric import Point, compose_chain, map_distance_value

#: defects below this are excluded from regressions (noise floor)
NOISE_FLOOR = 1e-13

#: fitted strong-mode exponents below this flag the model as sewing-only
STRONG_MODE_MIN_EPSILON = 0.1


@dataclass
class FitSample:
    geometry: str
    gap_product: float
    defect: float
    declared_bound: float
    residual: float | None = None   # log-space residual; None when excluded


@dataclass
class FitReport:
    kind: str                       # "three-point" or "strong-four-point"
    exact: bool
    epsilon_hat: float
    c_hat: float
    n_samples: int
    n_used: int
    residual_rms: float
    rows: list[FitSample]
    strong_mode_ok: bool | None = None
    note: str = ""


def _regress(report_kind: str, rows: list[FitSample], degree_offset: float) -> FitReport:
    used = [r for r in rows if r.defect > NOISE_FLOOR]
    if not used:
        return FitReport(
            kind=report_kind,
            exact=True,
            epsilon_hat=math.inf,
            c_hat=0.0,
            n_samples=len(rows),
            n_used=0,
            residual_rms=0.0,
            rows=rows,
            note="exact model: every sampled defect is zero (epsilon = infinity)",
        )
    xs = np.log([r.gap_product for r in used])
    ys = np.log([r.defect for r in used])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    res = ys - fitted
    for r, e in zip(used, res):
        r.residual = float(e)
    eps_hat = 2.0 * float(slope) - degree_offset
    return FitReport(
        kind=report_kind,
        exact=False,
        epsilon_hat=eps_hat,
        c_hat=float(math.exp(intercept)),
        n_samples=len(rows),
        n_used=len(used),
        residual_rms=float(np.sqrt(np.mean(res**2))),
        rows=rows,
    )


def _check_sample_spread(products: Sequence[float], what: str) -> None:
    pos = [p for p in products if p > 0.0]
    if len(pos) < 20:
        raise InsufficientSamples(f"{what} needs at least 20 samples with positive gaps")
    lo, hi = min(pos), max(pos)
    # two decades of gap sizes = four decades of the pairwise product
    if hi / lo < 1e4:
        raise InsufficientSamples(
            f"{what} needs a geometric range of gap sizes of at least two decades"
        )


def fit_three_point(model: ApproxFlowModel, samples: Sequence[tuple]) -> FitReport:
    """Fit (eps, C) from d(mu_st, mu_su o mu_ut) on sampled triples (s, u, t)."""
    h = model.hoelder
    d_p = model.param_metric
    rows: list[FitSample] = []
    products = []
    for s, u, t in samples:
        direct = model.mu(s, t)
        via = compose_chain([model.mu(s, u), model.mu(u, t)])
        defect = map_distance_value(direct, via)
        g1, g2 = d_p(t, u), d_p(u, s)
        declared = h.defect_bound(g1, g2)
        rows.append(FitSample(f"s={s!r};u={u!r};t={t!r}", g1 * g2, defect, declared))
        products.append(g1 * g2)
    _check_sample_spread(products, "fit_three_point")
    return _regress("three-point", rows, degree_offset=1.0)


def fit_strong_four_point(model: ApproxFlowModel, samples: Sequence[tuple]) -> FitReport:
    """Fit the strong four-point exponent from quadruples (x, u, v, y).

    The regressor is log(d(y,v)*d(u,v)); a fitted total degree below
    2 + STRONG_MODE_MIN_EPSILON flags the model as sewing-only.
    """
    h = model.hoelder
    d_p = model.param_metric
    rows: list[FitSample] = []
    products = []
    for x, u, v, y in samples:
        via_u = compose_chain([model.mu(x, u), model.mu(u, y)])
        via_v = compose_chain([model.mu(x, v), model.mu(v, y)])
        defect = map_distance_value(via_u, via_v)
        d_yv, d_uv = d_p(y, v), d_p(u, v)
        declared = h.four_point_bound(d_p(x, u), d_yv, d_uv)
        rows.append(
            FitSample(f"x={x!r};u={u!r};v={v!r};y={y!r}", d_yv * d_uv, defect, declared)
        )
        products.append(d_yv * d_uv)
    _check_sample_spread(products, "fit_strong_four_point")
    report = _regress("strong-four-point", rows, degree_offset=2.0)
    if not report.exact:
        report.strong_mode_ok = report.epsilon_hat >= STRONG_MODE_MIN_EPSILON
        if not report.strong_mode_ok:
            report.note = (
                f"fitted total degree {2.0 + report.epsilon_hat:.3f} < "
                f"{2.0 + STRONG_MODE_MIN_EPSILON}: sewing-only model"
            )
    else:
        report.strong_mode_ok = True
    return report


# ---------------------------------------------------------------------------
# default sample generators

def interval_three_point_samples(
    rng: np.random.Generator,
    n: int = 48,
    s_range: tuple[float, float] = (0.0, 0.5),
    scales: tuple[float, float] = (1e-4, 1e-1),
) -> list[tuple[float, float, float]]:
    """Triples s < u < t with u strictly inside, gaps spanning the scale range."""
    out = []
    log_lo, log_hi = math.log(scales[0]), math.log(scales[1])
    for i in range(n):
        w = math.exp(log_lo + (log_hi - log_lo) * (i / max(1, n - 1)))
        s = float(rng.uniform(*s_range))
        theta = float(rng.uniform(0.3, 0.7))
        out.append((s, s + theta * w, s + w))
    return out


def interval_four_point_samples(
    rng: np.random.Generator,
    n: int = 48,
    s_range: tuple[float, float] = (0.0, 0.5),
    scales: tuple[float, float] = (1e-4, 1e-1),
) -> list[tuple[float, float, float, float]]:
    """Quadruple chains x < u < v < y with comparable single-scale gaps."""
    out = []
    log_lo, log_hi = math.log(scales[0]), math.log(scales[1])
    for i in range(n):
        hscale = math.exp(log_lo + (log_hi - log_lo) * (i / max(1, n - 1)))
        x = float(rng.uniform(*s_range))
        h1, h2, h3 = (float(rng.uniform(0.5, 1.0)) * hscale for _ in range(3))
        out.append((x, x + h1, x + h1 + h2, x + h1 + h2 + h3))
    return out


def annulus_four_point_samples(
    rng: np.random.Generator,
    n: int = 48,
    radius_range: tuple[float, float] = (0.9, 1.6),
    scales: tuple[float, float] = (1e-3, 0.12),
) -> list[tuple[Point, Point, Point, Point]]:
    """Quadruple chains in the punctured plane, chords small against the radius."""
    out = []
    log_lo, log_hi = math.log(scales[0]), math.log(scales[1])
    for i in range(n):
        hscale = math.exp(log_lo + (log_hi - log_lo) * (i / max(1, n - 1)))
        rho = float(rng.uniform(*radius_range))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        p = (rho * math.cos(phi), rho * math.sin(phi))
        chain = [p]
        for _ in range(3):
            ang = float(rng.uniform(0.0, 2.0 * math.pi))
            step = float(rng.uniform(0.5, 1.0)) * hscale
            q = (chain[-1][0] + step * math.cos(ang), chain[-1][1] + step * math.sin(ang))
            chain.append(q)
        out.append(tuple(chain))
    return out


def annulus_three_point_samples(
    rng: np.random.Generator,
    n: int = 48,
    radius_range: tuple[float, float] = (0.9, 1.6),
    scales: tuple[float, float] = (1e-3, 0.12),
) -> list[tuple[Point, Point, Point]]:
    out = [(x, u, y) for x, u, _v, y in annulus_four_point_samples(rng, n, radius_range, scales)]
    return out
