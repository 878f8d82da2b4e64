"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run pytest with -s or read captured output).
"""
import json
import math
import time

import numpy as np
import pytest

from sewkit import (
    HoelderData,
    Subdivision,
    arc_path,
    build_net,
    circle_path,
    cli,
    constant_K,
    dyadic_refine,
    ellipse_arc_path,
    flow_law_defect,
    four_point_defect,
    holonomy,
    inverse_defect,
    inverse_defect_bound,
    joint,
    knit_compare,
    make_additive_sin,
    make_euler_linear,
    make_euler_sin,
    make_flat_connection,
    make_young,
    map_distance_value,
    mesh_lemma_check,
    pair_lipschitz,
    pl_thin_reduce,
    polyline,
    sew,
    square_loop,
    zeta,
)
from sewkit.certify import annulus_four_point_samples


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def interval_models():
    return [
        make_additive_sin(),
        make_euler_linear(1.0),
        make_young(lambda t: t, lambda t: t, 1.0, 1.0),
        make_euler_sin(),
    ]


def test_criterion_1_euler_sewing_order():
    t0 = time.perf_counter()
    m = make_euler_linear(1.0)
    _, cert = sew(m, 0.0, 1.0, 0.0, max_level=14)
    elapsed = time.perf_counter() - t0
    errs = {rec.level: abs(rec.value - math.e) for rec in cert.levels}
    ratios = [errs[n] / errs[n + 1] for n in range(4, 13)]
    order_ok = all(1.7 <= r <= 2.3 for r in ratios)
    final_ok = abs(cert.limit_value - math.e) <= 1e-6
    time_ok = elapsed < 5.0
    report(
        1,
        "euler sewing order",
        order_ok and final_ok and time_ok,
        f"ratios {min(ratios):.2f}..{max(ratios):.2f}, "
        f"final err {abs(cert.limit_value - math.e):.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_additive_sewing():
    m = make_additive_sin()
    _, cert = sew(m, 0.0, 1.0, 1e-9)
    value_ok = abs(cert.limit_value - (1.0 - math.cos(1.0))) <= 1e-8
    k = constant_K(HoelderData(1.0, ((1.0, 1.0, 1.0),)))
    k_ok = cert.K == pytest.approx(4.0 * zeta(2.0) * 1.0, rel=1e-12) and cert.K == k
    # g = 1 for translations, span = 1: the claimed bound is K itself
    bound_ok = cert.mu_bound_ok and cert.claimed_bound == pytest.approx(k, rel=1e-12)
    report(
        2,
        "additive sewing",
        value_ok and k_ok and bound_ok,
        f"err {abs(cert.limit_value - (1 - math.cos(1.0))):.2e}, "
        f"gap {cert.mu_distance:.3f} <= K {k:.3f}",
    )


def test_criterion_3_mesh_lemma_property_suite():
    rng = np.random.default_rng(20260808)
    models = interval_models()
    violations = 0
    for trial in range(1000):
        m = models[trial % len(models)]
        s = float(rng.uniform(0.0, 0.85))
        t = s + float(rng.uniform(0.1, 1.0 - s))
        if rng.uniform() < 0.25:
            s, t = t, s
        n_interior = int(rng.integers(0, 6))
        interior = np.sort(rng.uniform(min(s, t), max(s, t), size=n_interior))
        if t < s:
            interior = interior[::-1]
        coarse = Subdivision(s, t, tuple(float(x) for x in interior))
        choice = trial % 3
        if choice == 0:
            fine = dyadic_refine(coarse)
        elif choice == 1:
            fine = dyadic_refine(dyadic_refine(coarse))
        else:
            extra = np.sort(rng.uniform(min(s, t), max(s, t), size=3))
            if t < s:
                extra = extra[::-1]
            fine = joint(coarse, Subdivision(s, t, tuple(float(x) for x in extra)))
        lhs, rhs = mesh_lemma_check(m, coarse, fine)
        if lhs > rhs + 1e-9 * (1.0 + rhs):
            violations += 1
    report(3, "mesh lemma property suite", violations == 0, f"{violations} violations in 1000")


def test_criterion_4_flow_law_and_inverse():
    rng = np.random.default_rng(404)
    models = interval_models()
    tol = 1e-8
    worst = 0.0
    for trial in range(100):
        m = models[trial % len(models)]
        s = float(rng.uniform(0.0, 0.7))
        t = s + float(rng.uniform(0.2, 1.0 - s))
        u = s + float(rng.uniform(0.25, 0.75)) * (t - s)
        d = flow_law_defect(m, s, u, t, tol)
        worst = max(worst, d)
    flow_ok = worst <= 3.0 * tol

    m = make_euler_linear(1.0)
    prev = None
    inverse_ok = True
    for k in (2, 4, 8, 16, 32, 64):
        measured = inverse_defect(m, 0.0, 1.0, k)  # raises on bound violation
        bound = inverse_defect_bound(m.hoelder, 1.0, k)
        inverse_ok &= measured <= bound
        if prev is not None:
            inverse_ok &= measured < prev
        prev = measured
    report(
        4,
        "flow law and inverse",
        flow_ok and inverse_ok,
        f"worst flow-law defect {worst:.2e} <= {3 * tol:.1e}",
    )


def test_criterion_5_four_point_remark():
    rng = np.random.default_rng(505)
    exact_ok = True
    for m in interval_models():
        s, u, t = (float(x) for x in rng.uniform(0.0, 1.0, size=3))
        exact_ok &= four_point_defect(m, s, u, u, t) == (0.0, 0.0)

    violations = 0
    for m in interval_models():
        for _ in range(1000):
            s, u, v, t = (float(x) for x in rng.uniform(0.0, 1.0, size=4))
            lhs, rhs = four_point_defect(m, s, u, v, t)
            if lhs > rhs + 1e-9 * (1.0 + rhs):
                violations += 1
    # parameter-space models on safe quadruple chains in the annulus
    for variant in ("exact-segment", "midpoint"):
        fm = make_flat_connection(variant)
        for x, u, v, y in annulus_four_point_samples(rng, 1000):
            lhs, rhs = four_point_defect(fm, x, u, v, y)
            if lhs > rhs + 1e-9 * (1.0 + rhs):
                violations += 1
    report(5, "four-point remark", exact_ok and violations == 0, f"{violations} violations")


def test_criterion_6_constant_K_numeric():
    k = constant_K(HoelderData(1.0, ((1.0, 1.0, 1.0),)))
    oracle = 4.0 * zeta(2.0, 1e-12)
    ok = abs(k - 6.5797362674) <= 1e-8 and abs(k - oracle) <= 1e-10
    report(6, "constant_K numeric", ok, f"K = {k:.10f}")


def test_criterion_7_knitting_invariance():
    t0 = time.perf_counter()
    g0 = arc_path(1.0, 0.0, math.pi, 64)
    g1 = ellipse_arc_path(1.0, 1.6, 0.0, math.pi, 64)
    ell = pair_lipschitz(g0, g1)

    fc = make_flat_connection()  # 8 fiber probes by default
    _, s0 = holonomy(fc, g0, 1e-9)
    _, s1 = holonomy(fc, g1, 1e-9)
    angles_ok = abs(s0.angle - s1.angle) <= 1e-9

    fm = make_flat_connection("midpoint")
    measured = {}
    bound_ok = True
    for k in (8, 16, 32, 64):
        net = build_net(g0, g1, k, ell)
        got, bound = knit_compare(net, fm)
        measured[k] = got
        bound_ok &= got <= bound + 1e-9 * (1.0 + bound)
    deltas = np.log([1.0 / k for k in (8, 16, 32, 64)])
    slope = float(np.polyfit(deltas, np.log([measured[k] for k in (8, 16, 32, 64)]), 1)[0])
    rate_ok = slope >= 0.9
    elapsed = time.perf_counter() - t0
    report(
        7,
        "knitting invariance",
        angles_ok and bound_ok and rate_ok and elapsed < 30.0,
        f"angle gap {abs(s0.angle - s1.angle):.1e}, decay slope {slope:.2f}, {elapsed:.2f}s",
    )


def test_criterion_8_class_separation():
    fc = make_flat_connection()
    _, winding = holonomy(fc, circle_path(1.0, 1.0, 64), 1e-8)
    _, contractible = holonomy(fc, square_loop((2.0, 0.0), 0.5), 1e-8)
    _, upper = holonomy(fc, arc_path(1.0, 0.0, math.pi, 64), 1e-8)
    _, lower = holonomy(fc, arc_path(1.0, 0.0, -math.pi, 64), 1e-8)
    ok = (
        abs(winding.angle - 2.0 * math.pi) <= 1e-6
        and abs(contractible.angle) <= 1e-6
        and abs((upper.angle - lower.angle) - 2.0 * math.pi) <= 1e-6
    )
    report(
        8,
        "class separation",
        ok,
        f"winding {winding.angle:.8f}, contractible {contractible.angle:.1e}",
    )


def test_criterion_9_thin_reduction_shadow():
    rng = np.random.default_rng(909)
    fc = make_flat_connection()
    tol = 1e-8
    budget = 2.0 * tol + inverse_defect_bound(fc.hoelder.pulled_back(1.0), 1.0, 8) + 1e-9
    violations = 0
    for _ in range(50):
        n_pts = int(rng.integers(5, 9))
        angles = np.cumsum(rng.uniform(0.1, 0.5, size=n_pts))
        radii = rng.uniform(0.9, 1.8, size=n_pts)
        pts = [(float(r * math.cos(a)), float(r * math.sin(a))) for r, a in zip(radii, angles)]
        # inject exact out-and-back spikes at two random interior breakpoints
        for _ in range(2):
            j = int(rng.integers(1, len(pts) - 1))
            px, py = pts[j]
            scale = 1.0 + float(rng.uniform(0.2, 0.4))
            pts = pts[: j + 1] + [(px * scale, py * scale), (px, py)] + pts[j + 1 :]
        g = polyline(tuple(pts))
        reduced = pl_thin_reduce(g)
        flow_a, sa = holonomy(fc, g, tol)
        flow_b, sb = holonomy(fc, reduced, tol)
        if map_distance_value(flow_a, flow_b) > budget or abs(sa.angle - sb.angle) > budget:
            violations += 1
    report(9, "thin-reduction shadow", violations == 0, f"{violations} violations in 50")


def test_criterion_10_reproducibility(tmp_path):
    sew_cfg = {
        "experiment": "sew",
        "model": {"name": "euler_linear", "lam": 1.0},
        "interval": [0.0, 1.0],
        "tol": 1e-8,
        "max_level": 20,
        "seed": 0,
        "output": str(tmp_path / "sew.csv"),
    }
    cert_cfg = {
        "experiment": "certify",
        "model": {"name": "additive_sin"},
        "mode": "three_point",
        "samples": 40,
        "seed": 7,
        "output": str(tmp_path / "cert.csv"),
    }
    ok = True
    for name, cfg in (("sew.json", sew_cfg), ("cert.json", cert_cfg)):
        cfg_path = tmp_path / name
        cfg_path.write_text(json.dumps(cfg))
        assert cli.run(str(cfg_path), quiet=True) == 0
        first = (tmp_path / cfg["output"].split("/")[-1]).read_bytes()
        assert cli.run(str(cfg_path), quiet=True) == 0
        second = (tmp_path / cfg["output"].split("/")[-1]).read_bytes()
        ok &= first == second
    report(10, "reproducibility", ok)
