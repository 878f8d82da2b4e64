"""Empirical defect certification: fit exponents and constants from samples.

Three-point fits regress log defect against log(|t-u|*|u-s|) under the
symmetric ansatz a = b = (1+eps)/2; strong four-point fits use total degree
2+eps.  Each sample set's defects are measured by one ``chain_distances``
call.  Declared model data stays authoritative; fits are diagnostics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientSamples, NonFiniteValue
from .flows import ApproxFlowModel
from .metric import Point, euclidean
from .metric import compose_chain, map_distance_value  # unused here: kept for perfbench/tracer.py
from .sewing import chain_distances

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
    """Fit the finite log defects above ``NOISE_FLOOR`` against their log gap
    products, over the rows whose gap product is positive; the other rows
    stay in the report without a residual, each still with its defect and
    declared bound to check.  A row whose declared bound is not a finite double
    raises :class:`NonFiniteValue` naming its geometry: no double holds that
    bound, so it certifies nothing, and the fit of such a model's defects
    may overflow.  Fitted defects at fewer than two distinct positive gap
    products raise :class:`NonFiniteValue` naming the first row whose defect
    is not finite, if there is one, and :class:`InsufficientSamples`
    otherwise: no line runs through one point."""
    for r in rows:
        if not math.isfinite(r.declared_bound):
            raise NonFiniteValue(
                f"{report_kind} declared bound at {r.geometry} is {r.declared_bound!r}"
            )
    unfit = [r for r in rows if not math.isfinite(r.defect)]
    noisy = [r for r in rows if NOISE_FLOOR < r.defect < math.inf]
    if not noisy and not unfit:
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
    used = [r for r in noisy if r.gap_product > 0.0]
    if len({r.gap_product for r in used}) < 2:
        if unfit:
            raise NonFiniteValue(
                f"{report_kind} defect at {unfit[0].geometry} is {unfit[0].defect!r}, and "
                f"{len(used)} finite defects remain to fit"
            )
        raise InsufficientSamples(
            f"{report_kind} fit needs defects above {NOISE_FLOOR} at two or more distinct "
            f"positive gap products, got {len(used)} such rows"
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
    """Fit (eps, C) from d(mu_st, mu_su o mu_ut) on sampled triples (s, u, t):
    the chains (s, t) and (s, u, t) of every sample, measured in one
    ``chain_distances`` call, each against its ``defect_bound``."""
    h = model.hoelder
    defects = chain_distances(model, [(s, t) for s, _u, t in samples], samples).tolist()
    rows: list[FitSample] = []
    for (s, u, t), defect in zip(samples, defects):
        g1, g2 = euclidean(t, u), euclidean(u, s)
        declared = h.defect_bound(g1, g2)
        rows.append(FitSample(f"s={s!r};u={u!r};t={t!r}", g1 * g2, defect, declared))
    _check_sample_spread([r.gap_product for r in rows], "fit_three_point")
    return _regress("three-point", rows, degree_offset=1.0)


def fit_strong_four_point(model: ApproxFlowModel, samples: Sequence[tuple]) -> FitReport:
    """Fit the strong four-point exponent from quadruples (x, u, v, y).

    Each row's defect and declared bound are ``four_point_defect``'s: the
    chains (x, u, y) and (x, v, y) of every sample, measured in one
    ``chain_distances`` call, each against its ``four_point_bound``.  The
    regressor is log(d(y,v)*d(u,v)); a fitted total degree below
    2 + STRONG_MODE_MIN_EPSILON flags the model as sewing-only.
    """
    h = model.hoelder
    defects = chain_distances(
        model, [(x, u, y) for x, u, _v, y in samples], [(x, v, y) for x, _u, v, y in samples]
    ).tolist()
    rows: list[FitSample] = []
    for (x, u, v, y), defect in zip(samples, defects):
        d_yv, d_uv = euclidean(y, v), euclidean(u, v)
        declared = h.four_point_bound(euclidean(u, x), d_yv, d_uv)
        rows.append(
            FitSample(f"x={x!r};u={u!r};v={v!r};y={y!r}", d_yv * d_uv, defect, declared)
        )
    _check_sample_spread([r.gap_product for r in rows], "fit_strong_four_point")
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

def _draws(rng: np.random.Generator, n: int, *ranges: tuple[float, float]) -> np.ndarray:
    """An (n, len(ranges)) array whose column j is uniform on ranges[j]: numpy's
    own ``uniform`` formula, so row by row the doubles of scalar ``uniform``
    calls in range order."""
    lo, hi = np.array(ranges, dtype=float).T
    return lo + (hi - lo) * rng.random((n, len(ranges)))


def _scales(n: int, scales: tuple[float, float]) -> np.ndarray:
    """The n per-sample scales as a column, log-spaced from scales[0] to scales[1]."""
    log_lo, log_hi = math.log(scales[0]), math.log(scales[1])
    steps = [math.exp(log_lo + (log_hi - log_lo) * (i / max(1, n - 1))) for i in range(n)]
    return np.array(steps).reshape(n, 1)


def interval_three_point_samples(
    rng: np.random.Generator,
    n: int = 48,
    s_range: tuple[float, float] = (0.0, 0.5),
    scales: tuple[float, float] = (1e-4, 1e-1),
) -> list[tuple[float, float, float]]:
    """Triples s < u < t with u strictly inside, gaps spanning the scale range."""
    w = _scales(n, scales)
    s, theta = np.hsplit(_draws(rng, n, s_range, (0.3, 0.7)), 2)
    return list(map(tuple, np.hstack((s, s + theta * w, s + w)).tolist()))


def interval_four_point_samples(
    rng: np.random.Generator,
    n: int = 48,
    s_range: tuple[float, float] = (0.0, 0.5),
    scales: tuple[float, float] = (1e-4, 1e-1),
) -> list[tuple[float, float, float, float]]:
    """Quadruple chains x < u < v < y with comparable single-scale gaps."""
    steps = _draws(rng, n, s_range, *[(0.5, 1.0)] * 3)
    steps[:, 1:] *= _scales(n, scales)
    return list(map(tuple, np.add.accumulate(steps, axis=1).tolist()))


#: chord scales of the annulus samples.  Each chain step is 0.5 to 1 times its
#: sample's scale, so sample 0 has every step <= 5e-4 and the last one every
#: step >= 0.5 * 0.12.  The four-point gap products then span at least
#: 0.25 * 240**2 = 14400, above the four decades ``_check_sample_spread`` asks
#: for, at every seed; a floor of 1e-3 let the span fall to 3600.
ANNULUS_SCALES = (5e-4, 0.12)


def annulus_four_point_samples(
    rng: np.random.Generator,
    n: int = 48,
    radius_range: tuple[float, float] = (0.9, 1.6),
    scales: tuple[float, float] = ANNULUS_SCALES,
) -> list[tuple[Point, Point, Point, Point]]:
    """Quadruple chains in the punctured plane, chords small against the radius;
    the cosines and sines are ``math``'s, whose bits do not depend on numpy's build."""
    turn = (0.0, 2.0 * math.pi)
    d = _draws(rng, n, radius_range, turn, *[turn, (0.5, 1.0)] * 3)
    lengths = np.hstack((d[:, :1], d[:, 3::2] * _scales(n, scales)))
    angles = d[:, [1, 2, 4, 6]].ravel().tolist()
    cos = np.fromiter(map(math.cos, angles), float).reshape(n, 4)
    sin = np.fromiter(map(math.sin, angles), float).reshape(n, 4)
    xs = np.add.accumulate(lengths * cos, axis=1)
    ys = np.add.accumulate(lengths * sin, axis=1)
    return [tuple(zip(*row)) for row in zip(xs.tolist(), ys.tolist())]


def annulus_three_point_samples(
    rng: np.random.Generator,
    n: int = 48,
    radius_range: tuple[float, float] = (0.9, 1.6),
    scales: tuple[float, float] = ANNULUS_SCALES,
) -> list[tuple[Point, Point, Point]]:
    """The chains of ``annulus_four_point_samples`` without their third point."""
    return [(x, u, y) for x, u, _v, y in annulus_four_point_samples(rng, n, radius_range, scales)]
