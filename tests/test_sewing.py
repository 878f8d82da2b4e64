import dataclasses
import math
import time

import numpy as np
import pytest

from oracles import (
    YOUNG_SCALAR_FNS,
    NotARefinement,
    concat,
    flow_law_defect,
    left_riemann,
    mesh_lemma_check,
    misdeclared_additive_sin,
    translate,
    young_increments,
)
from sewkit import (
    BoundViolation,
    HoelderData,
    NonConvergence,
    NonFiniteValue,
    Subdivision,
    WrongMode,
    compose_along,
    compose_chain,
    constant_K,
    dyadic_refine,
    four_point_defect,
    inverse_defect,
    inverse_defect_bound,
    make_additive,
    make_additive_sin,
    make_euler,
    make_euler_linear,
    make_euler_matrix,
    make_euler_sin,
    make_young,
    refinement_bound,
    regular,
    sew,
    zeta,
)
from sewkit import cli
from sewkit.flows import MODE_KNITTING


# --- zeta oracle -------------------------------------------------------------

def test_zeta_against_closed_forms():
    assert zeta(2.0, 1e-10) == pytest.approx(math.pi**2 / 6.0, abs=1e-10)
    assert zeta(4.0, 1e-10) == pytest.approx(math.pi**4 / 90.0, abs=1e-10)


def test_zeta_tends_to_one():
    val = zeta(30.0, 1e-12)
    assert 1.0 < val < 1.0 + 1e-8


def test_zeta_rejects_divergent_arguments():
    with pytest.raises(ValueError):
        zeta(1.0)
    with pytest.raises(ValueError):
        zeta(0.5)


@pytest.mark.parametrize("s", [1.001, 1.01, 1.2, 1.5, 2.0, 3.0, 30.0])
def test_zeta_matches_mpmath(s):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.zeta(s)
        rel = abs((mpmath.mpf(zeta(s)) - ref) / ref)
    assert rel <= 4e-16


@pytest.mark.parametrize(
    "s,tol",
    [
        (math.nan, 1e-12),
        (math.inf, 1e-12),
        (-math.inf, 1e-12),
        (2.0, math.nan),
        (2.0, math.inf),
        (2.0, 0.0),
        (2.0, -1e-12),
        (2.0, 1e-17),  # below the double spacing at 1: no double can meet it
    ],
)
def test_zeta_fails_closed_on_unusable_arguments(s, tol):
    with pytest.raises(ValueError):
        zeta(s, tol)


def test_zeta_at_extreme_finite_arguments():
    assert zeta(2.0, math.ulp(1.0)) == pytest.approx(math.pi**2 / 6.0, rel=4e-16)
    assert zeta(1e300) == 1.0
    # zeta(1 + h) = 1/h + Euler's gamma + O(h)
    assert zeta(1.0 + 2.0**-30) == pytest.approx(2.0**30 + 0.5772156649, rel=1e-15)


# --- constant K ---------------------------------------------------------------

def test_constant_K_examples():
    h = HoelderData(1.0, ((1.0, 1.0, 1.0),))
    assert constant_K(h) == pytest.approx(4.0 * zeta(2.0), abs=1e-12)
    assert constant_K(h) == pytest.approx(6.5797362674, abs=1e-8)

    h0 = HoelderData(1.0, ((1.0, 1.0, 0.0),))
    assert constant_K(h0) == 0.0

    h_half = HoelderData(0.5, ((0.75, 0.75, 2.0), (0.5, 1.0, 3.0)))
    expect = 2.0**1.5 * 5.0 * zeta(1.5, 1e-9)
    assert constant_K(h_half) == pytest.approx(expect, rel=1e-9)
    assert expect == pytest.approx(36.944, abs=2e-3)


def test_constant_K_in_the_rough_regime_is_fast():
    h = HoelderData(0.2, ((0.6, 0.6, 1.0),))
    zeta.cache_clear()
    t0 = time.perf_counter()
    k = constant_K(h)
    assert time.perf_counter() - t0 < 0.5
    assert k == pytest.approx(2.0**1.2 * 5.5915824411777507, rel=1e-14)


def test_constant_K_rejects_knitting_mode():
    h = HoelderData(1.0, ((2.0, 1.0, 1.0),), mode=MODE_KNITTING)
    with pytest.raises(WrongMode):
        constant_K(h)


# --- compose_along -----------------------------------------------------------

def test_compose_along_trivial_returns_mu_exactly():
    m = make_euler_linear(1.0)
    trivial = Subdivision((0.0, 1.0))
    composed = compose_along(m, trivial.points)
    direct = m.mu(0.0, 1.0)
    assert all(composed.eval(p) == direct.eval(p) for p in composed.source.probes)


def test_compose_along_euler_two_steps():
    m = make_euler_linear(1.0)
    composed = compose_along(m, Subdivision((0.0, 0.5, 1.0)).points)
    assert composed.eval(1.0) == pytest.approx(2.25)


def test_compose_along_additive_left_sum():
    m = make_additive_sin()
    composed = compose_along(m, regular(0.0, 1.0, 4).points)
    expect = left_riemann(math.sin, 0.0, 1.0, 4)
    assert composed.eval(0.0) == pytest.approx(expect, abs=1e-15)
    assert expect == pytest.approx(0.3521170644705151, abs=1e-13)


def test_splitting_consistency_is_exact():
    m = make_additive_sin()
    left = Subdivision((0.0, 0.1, 0.3, 0.4))
    right = Subdivision((0.4, 0.7, 1.0))
    glued = compose_along(m, concat(left, right).points)
    a = compose_along(m, left.points)
    b = compose_along(m, right.points)
    for p in glued.source.probes:
        assert glued.eval(p) == a.eval(b.eval(p))


def _translation_models():
    kinds = cli.MODELS.variants["young"][0]["driver"].kind
    h = HoelderData(1.0, ((1.0, 1.0, 3.0),))
    return [make_additive_sin(), make_additive(lambda s, t: np.exp(s) * (t - s), h)] + [
        cli.build_model(cli.MODELS.check(
            {"name": "young", "driver": x, "integrand": y, "alpha": 0.75, "beta": 0.75}, "model"))
        for x in kinds for y in kinds
    ]


def _interval_models():
    """The translation models and the Euler models on the line and the plane."""
    return _translation_models() + [
        make_euler_linear(1.3), make_euler_sin(), make_euler_matrix(((0.0, 1.0), (-1.0, 0.2)))]


_SUBDIVISIONS = [
    regular(0.0, 1.0, 7),
    dyadic_refine(dyadic_refine(regular(0.1, 0.9, 3))),
    regular(1.0, 0.2, 6),
    concat(Subdivision((0.0, 0.1, 0.3, 0.4)), Subdivision((0.4, 0.7, 1.0))),
    Subdivision((-0.3, -0.29, 0.0, 0.013, 0.5, 0.51, 1.1, 1.2)),
]


@pytest.mark.parametrize("sd", _SUBDIVISIONS, ids=["regular", "dyadic", "reversed", "concat", "irregular"])
def test_translation_composites_equal_the_chain_bit_for_bit(sd):
    # the translation models and the Euler models: both compose to one act
    # over their increments; the reversed subdivision runs a chain backwards,
    # as inverse_defect does
    pts = sd.points
    for m in _interval_models():
        fused = compose_along(m, sd.points)
        chain = compose_chain(map(m.mu, pts, pts[1:]))
        assert fused.source is chain.source and fused.target is chain.target
        for p in fused.source.probes:
            assert fused.eval(p) == chain.eval(p), m.name


@pytest.mark.parametrize("sd", _SUBDIVISIONS, ids=["regular", "dyadic", "reversed", "concat", "irregular"])
def test_translation_composites_equal_the_scalar_oracle_bit_for_bit(sd):
    # the increments of a plain math loop, summed by reduce(add) in the chain's
    # order (last interval first): independent of the models' array increments
    pts = sd.points.tolist()
    cases = [(make_additive_sin(), lambda t: t, math.sin)] + [
        (cli.build_model(cli.MODELS.check(
            {"name": "young", "driver": x, "integrand": y, "alpha": 0.75, "beta": 0.75}, "model")),
         YOUNG_SCALAR_FNS[x], YOUNG_SCALAR_FNS[y])
        for x in YOUNG_SCALAR_FNS for y in YOUNG_SCALAR_FNS
    ]
    assert tuple(YOUNG_SCALAR_FNS) == cli.MODELS.variants["young"][0]["driver"].kind
    for m, x, y in cases:
        shifts = young_increments(x, y, pts)[::-1]
        fused = compose_along(m, sd.points)
        for p in fused.source.probes:
            assert repr(fused.eval(p)) == repr(translate(p, shifts)), m.name


def test_interval_composites_build_no_map_per_interval():
    for base in _interval_models():
        calls = []

        def counting_mu(s, t):
            calls.append((s, t))
            return base.mu(s, t)

        m = dataclasses.replace(base, mu=counting_mu)
        p = base.summary.point
        for k in (2, 3, 64):
            assert compose_along(m, regular(0.0, 1.0, k).points).eval(p) == compose_along(
                base, regular(0.0, 1.0, k).points).eval(p)
        assert calls == [], base.name


# --- sew ----------------------------------------------------------------------

def test_sew_identity_at_equal_endpoints():
    m = make_euler_linear(1.0)
    flow, cert = sew(m, 0.3, 0.3, 1e-10)
    assert all(flow.eval(p) == p for p in flow.source.probes)
    assert all((r.successive or 0.0) == 0.0 for r in cert.levels)


def test_sew_euler_reaches_the_exponential():
    m = make_euler_linear(1.0)
    flow, cert = sew(m, 0.0, 1.0, 1e-8)
    assert abs(flow.eval(1.0) - math.e) <= 1e-6
    assert cert.converged and cert.mu_bound_ok


def test_sew_additive_sin_reaches_the_integral():
    m = make_additive_sin()
    _, cert = sew(m, 0.0, 1.0, 1e-8)
    assert cert.limit_value == pytest.approx(1.0 - math.cos(1.0), abs=1e-8)


def test_sew_young_linear_reaches_half():
    m = make_young(lambda t: t, lambda t: t, 1.0, 1.0)
    _, cert = sew(m, 0.0, 1.0, 1e-8)
    assert cert.limit_value == pytest.approx(0.5, abs=1e-8)


def test_sew_is_deterministic():
    m = make_euler_sin()
    flow1, cert1 = sew(m, 0.0, 1.0, 1e-8)
    flow2, cert2 = sew(m, 0.0, 1.0, 1e-8)
    assert [r.successive for r in cert1.levels] == [r.successive for r in cert2.levels]
    assert all(flow1.eval(p) == flow2.eval(p) for p in flow1.source.probes)


def test_sew_successive_distances_respect_refinement_bound():
    for m in (make_euler_linear(1.0), make_additive_sin(), make_euler_sin()):
        _, cert = sew(m, 0.0, 1.0, 0.0, max_level=8)
        for rec in cert.levels[1:]:
            assert rec.successive <= rec.refine_bound + 1e-9


def test_sew_convergence_order_near_two():
    # successive distances shrink by a factor in [1.7, 2.3] once mesh < 0.1
    for m in (make_euler_linear(1.0), make_additive_sin()):
        _, cert = sew(m, 0.0, 1.0, 0.0, max_level=10)
        recs = [r for r in cert.levels[1:] if r.mesh < 0.1 and r.successive]
        for a, b in zip(recs, recs[1:]):
            assert 1.7 <= a.successive / b.successive <= 2.3


def test_sew_nonconvergence_carries_the_level_log():
    m = make_additive_sin()
    with pytest.raises(NonConvergence) as err:
        sew(m, 0.0, 1.0, 1e-13, max_level=3)
    cert = err.value.certificate
    assert cert is not None and len(cert.levels) == 4 and not cert.converged


def test_sew_rejects_nan_probe_values():
    # the NaN probes are not first, so a bare max over distances would drop them
    m = make_euler(lambda x: math.nan if x > 0.5 else x, 1.0, field_bound=1.0)
    with pytest.raises(NonFiniteValue):
        sew(m, 0.0, 1.0, 1e-8)


def test_sew_rejects_infinite_probe_distances():
    # translations by +inf on steps below 0.3: level 2 is infinitely far from level 1
    h = HoelderData(1.0, ((1.0, 1.0, 1.0),))
    m = make_additive(lambda s, t: np.where(abs(t - s) < 0.3, math.inf, np.sin(s) * (t - s)), h)
    with pytest.raises(NonFiniteValue, match="level 2"):
        sew(m, 0.0, 1.0, 1e-8)
    # a NaN increment on the second of four intervals: the summed composite keeps it
    m = make_additive(lambda s, t: np.where(s == 0.25, math.nan, np.sin(s) * (t - s)), h)
    with pytest.raises(NonFiniteValue, match="level 2"):
        sew(m, 0.0, 1.0, 1e-8)


# --- flow law and inverse ------------------------------------------------------

def test_flow_law_defect_zero_at_u_equal_s():
    m = make_additive_sin()
    assert flow_law_defect(m, 0.0, 0.0, 1.0, 1e-8) == 0.0


@pytest.mark.parametrize("s,u,t", [(0.0, 0.5, 1.0), (0.0, 0.3, 1.0)])
def test_flow_law_defect_within_three_tol(s, u, t):
    for m in (make_euler_linear(1.0), make_additive_sin()):
        assert flow_law_defect(m, s, u, t, 1e-8) <= 3e-8


def test_inverse_defect_examples():
    m = make_euler_linear(1.0)
    assert inverse_defect(m, 0.5, 0.5, 7) == 0.0
    measured = inverse_defect(m, 0.0, 1.0, 16)
    bound = inverse_defect_bound(m.hoelder, 1.0, 16)
    assert bound == pytest.approx(math.e / 16.0, rel=1e-12)
    # the exact round-trip factor is (1 - 1/k^2)^k
    assert measured == pytest.approx(1.0 - (1.0 - 1.0 / 256.0) ** 16, abs=1e-12)
    assert measured < bound
    for n in (4, 8, 16):
        assert inverse_defect(m, 0.0, 1.0, 2 * n) < inverse_defect(m, 0.0, 1.0, n)


# --- negative controls: additive_sin declared with too small a constant ------
# Its honest three-point constant is 1; each check below must fire once the
# declared constant c is small enough, and none may fire at c = 1.

@pytest.mark.parametrize(
    "c,fragment",
    [(1e-2, r"at level 1 of .*, refinement bound: .* exceeds 6\.580e-02"),
     (0.05, r", claimed bound: .* exceeds ")],
    ids=["refinement-bound", "claimed-bound"],
)
def test_sew_of_a_misdeclared_model_raises(c, fragment):
    with pytest.raises(BoundViolation, match=fragment):
        sew(misdeclared_additive_sin(c), 0.0, 1.0, 1e-8)


def test_inverse_defect_of_a_misdeclared_model_raises():
    m = misdeclared_additive_sin(0.1)
    _, cert = sew(m, 0.0, 1.0, 1e-8)  # d(mu_st, limit) is still inside the claimed bound
    assert cert.mu_bound_ok
    with pytest.raises(BoundViolation, match="inverse defect"):
        inverse_defect(m, 0.0, 1.0, 8)


def test_the_honestly_declared_control_passes_every_check():
    m = misdeclared_additive_sin(1.0)
    _, cert = sew(m, 0.0, 1.0, 1e-8)
    assert cert.converged and cert.mu_bound_ok
    assert inverse_defect(m, 0.0, 1.0, 8) <= inverse_defect_bound(m.hoelder, 1.0, 8)


# --- mesh lemma and four-point --------------------------------------------------

def test_mesh_lemma_check_examples():
    m = make_euler_linear(1.0)
    same = regular(0.0, 1.0, 4)
    lhs, rhs = mesh_lemma_check(m, same, same)
    assert lhs == 0.0 and rhs >= 0.0

    lhs, rhs = mesh_lemma_check(m, regular(0.0, 1.0, 4), regular(0.0, 1.0, 16))
    expected_rhs = 4.0 * zeta(2.0) * math.e * math.exp(0.25) * 0.25
    assert rhs == pytest.approx(expected_rhs, rel=1e-12)
    assert lhs <= rhs

    with pytest.raises(NotARefinement):
        mesh_lemma_check(m, regular(0.0, 1.0, 3), regular(0.0, 1.0, 4))


def test_mesh_lemma_property_additive_dyadic():
    m = make_additive_sin()
    rng = np.random.default_rng(5)
    for _ in range(50):
        interior = tuple(sorted(rng.uniform(0.0, 1.0, size=int(rng.integers(0, 4)))))
        coarse = Subdivision((0.0, *interior, 1.0))
        lhs, rhs = mesh_lemma_check(m, coarse, dyadic_refine(coarse))
        assert lhs <= rhs + 1e-9


def test_four_point_defect_examples():
    m = make_euler_linear(1.0)
    assert four_point_defect(m, 0.0, 0.3, 0.3, 1.0) == (0.0, 0.0)
    lhs, rhs = four_point_defect(m, 0.0, 0.3, 0.6, 1.0)
    assert 0.0 < lhs <= rhs

    # v = t reduces the bound to the three-point estimate
    ad = make_additive_sin()
    _, rhs = four_point_defect(ad, 0.0, 0.25, 1.0, 1.0)
    assert rhs == pytest.approx(ad.hoelder.defect_bound(0.75, 0.25), rel=1e-12)


def test_four_point_bound_on_random_quadruples():
    rng = np.random.default_rng(11)
    models = [make_euler_linear(1.0), make_additive_sin(), make_euler_sin()]
    for _ in range(200):
        m = models[int(rng.integers(0, len(models)))]
        s, u, v, t = rng.uniform(0.0, 1.0, size=4)
        lhs, rhs = four_point_defect(m, s, u, v, t)
        assert lhs <= rhs + 1e-9


def test_refinement_bound_formula():
    h = HoelderData(1.0, ((1.0, 1.0, 1.0),), 1.0)
    got = refinement_bound(h, 1.0, 0.25)
    assert got == pytest.approx(constant_K(h) * math.e * math.exp(0.25) * 0.25, rel=1e-12)
