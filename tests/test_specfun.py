"""Special-function layer: exact values, frozen quadrature references, and
the cross-check identities.

Frozen [reference] constants were produced by independent oracles: mpmath
adaptive quadrature of the defining integrals (incomplete gamma, Tricomi U),
a 2-D quadrature of the Marcum-Q defining integral with the Bessel factor
expanded as its own integral, and 500-term extended-precision summation for
the hypergeometric series.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from edsense import specfun
from edsense.channels import KappaMuShadowedParams, kms_mgf
from edsense.detection import DetectorConfig, auc_instant, prob_detect_instant
from edsense.errors import ConvergenceError, DomainError
from edsense.specfun import (
    beta,
    gauss_2f1,
    kummer_1f1,
    ln_beta,
    ln_gamma,
    ln_tricomi_u,
    lower_inc_gamma,
    marcum_q,
    reg_inc_beta,
    reg_lower_gamma,
    reg_upper_gamma,
    tricomi_u,
    upper_inc_gamma,
)


@pytest.mark.parametrize("x,expected", [
    (1.0, 0.0),
    (0.5, 0.5723649429247001),   # ln sqrt(pi)
    (10.0, math.log(362880.0)),  # 9!
])
def test_ln_gamma_values(x, expected):
    assert math.isclose(ln_gamma(x), expected, rel_tol=0, abs_tol=1e-13)


def test_ln_gamma_domain():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-2.5)


def test_lower_inc_gamma():
    assert lower_inc_gamma(1.0, 0.0) == 0.0
    assert math.isclose(lower_inc_gamma(1.0, 2.0), 1.0 - math.exp(-2.0), rel_tol=1e-13)
    # reference: mpmath quadrature of the defining integral to 1e-13
    assert math.isclose(lower_inc_gamma(3.5, 4.2), 2.3308443567160443, rel_tol=1e-12)
    with pytest.raises(DomainError):
        lower_inc_gamma(-1.0, 2.0)
    with pytest.raises(DomainError):
        lower_inc_gamma(1.0, -0.5)


def test_upper_inc_gamma():
    assert math.isclose(upper_inc_gamma(2.0, 0.0), 1.0, rel_tol=1e-14)
    assert math.isclose(upper_inc_gamma(1.0, 3.0), math.exp(-3.0), rel_tol=1e-13)
    # reference: Gamma(5) - G(5, 7), confirmed by quadrature on [7, inf)
    assert math.isclose(upper_inc_gamma(5.0, 7.0), 4.1517985891697123, rel_tol=1e-12)


def test_incomplete_gamma_partition():
    for z in (0.3, 1.0, 2.5, 7.0, 40.0):
        for y in (0.0, 0.1, 1.0, 5.0, 60.0):
            total = lower_inc_gamma(z, y) + upper_inc_gamma(z, y)
            assert math.isclose(total, math.exp(ln_gamma(z)), rel_tol=1e-12)


@pytest.mark.parametrize("z,y", [(30.0, 1e-5), (60.0, 1e-3), (60.0, 1e-300)])
def test_reg_lower_gamma_far_below_large_order(z, y):
    # (y - z)/z drops y's digits where y << z; (60, 1e-300) used to take the
    # log of 0
    assert math.isclose(reg_lower_gamma(z, y), special.gammainc(z, y), rel_tol=1e-12)


def test_gamma_weight_array_matches_scalar():
    for z in (12.5, 30.0, 60.0):
        y = np.array([1e-300, 1e-5, 0.3 * z, 0.5 * z, z, 2.0 * z, 1e4])
        want = [specfun._ln_gamma_weight(z, v) for v in y.tolist()]
        np.testing.assert_allclose(specfun._ln_gamma_weight(z, y), want, rtol=1e-14)


@pytest.mark.parametrize("z", [29.5, 30.0, 200.0, 2400.0, 2400.5])
def test_reg_gamma_large_order(z):
    # y^z e^-y / Gamma(z) in front of both expansions must not be formed by
    # subtracting numbers near z ln z: that rounding error is 2e-12 relative
    # at z = 2400
    for y in (0.9 * z, z - math.sqrt(z), z - 0.3, z + 0.7, z + math.sqrt(z), 1.1 * z):
        assert math.isclose(reg_lower_gamma(z, y), special.gammainc(z, y), rel_tol=1e-13)
        assert math.isclose(reg_upper_gamma(z, y), special.gammaincc(z, y), rel_tol=1e-13)


def test_beta_values():
    assert math.isclose(beta(1.0, 1.0), 1.0, rel_tol=1e-14)
    assert math.isclose(beta(2.0, 3.0), 1.0 / 12.0, rel_tol=1e-13)
    assert math.isclose(beta(0.5, 0.5), math.pi, rel_tol=1e-13)
    with pytest.raises(DomainError):
        beta(0.0, 1.0)


def test_reg_inc_beta_basics():
    assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1, b) = 1 - (1-x)^b exactly
    assert math.isclose(reg_inc_beta(1.0, 4.0, 0.3), 1.0 - 0.7 ** 4, rel_tol=1e-13)
    # symmetry I_x(a,b) + I_{1-x}(b,a) = 1
    assert math.isclose(reg_inc_beta(2.5, 1.3, 0.4) + reg_inc_beta(1.3, 2.5, 0.6),
                        1.0, rel_tol=1e-12)


def test_marcum_q_values():
    assert marcum_q(2, 1.3, 0.0) == 1.0
    assert math.isclose(marcum_q(1, 0.0, 2.0), math.exp(-2.0), rel_tol=1e-12)
    # reference: 2-D quadrature of the defining integral (Bessel factor as an
    # angular integral) to 1e-10
    assert math.isclose(marcum_q(2, 2.0, 3.0), 0.35269789604963452, abs_tol=1e-12)
    with pytest.raises(DomainError):
        marcum_q(0, 1.0, 1.0)
    with pytest.raises(DomainError):
        marcum_q(2, -1.0, 1.0)


@pytest.mark.parametrize("u,a,b", [
    (2, 1023.0, 920.7),   # raised ConvergenceError before
    (1, 300.0, 290.0),
    (4, 150.0, 140.0),
    (3, 40.0, 38.5),
    (2, 100.0, 95.0),
    (2, 100.0, 99.9),
])
def test_marcum_q_complementary_route(u, a, b):
    # b < a: the complementary sum; Q_u(a, b) is the noncentral chi-square
    # survival function at b^2 with 2u degrees of freedom and noncentrality
    # a^2.
    assert math.isclose(marcum_q(u, a, b), stats.ncx2.sf(b * b, 2 * u, a * a),
                        abs_tol=1e-12)


@pytest.mark.parametrize("u,a,b", [
    (2, 1023.0, 1030.0),  # raised ConvergenceError before
    (5, 1000.0, 1001.0),  # raised ConvergenceError before
    (1, 400.0, 405.0),
])
def test_marcum_q_direct_route_large_noncentrality(u, a, b):
    # b > a at noncentrality a^2 >= 1e5: the direct sum, whose first terms
    # are negligible far beyond the Poisson window's left edge
    assert math.isclose(marcum_q(u, a, b), stats.ncx2.sf(b * b, 2 * u, a * a),
                        abs_tol=1e-12)


@pytest.mark.parametrize("u,a,b", [
    (3, 1000.0, 1000.0),  # raised ConvergenceError before
    (3, 1000.0, 999.0),   # raised ConvergenceError before
    (3, 1000.0, 1000.5),
    (2, 850.0, 850.0),
])
def test_marcum_q_near_mode_large_noncentrality(u, a, b):
    # b within about 1 of a at noncentrality a^2 ~ 1e6: the window spans the
    # Poisson mode on both sides, 7,000-8,500 terms
    assert math.isclose(marcum_q(u, a, b), stats.ncx2.sf(b * b, 2 * u, a * a),
                        abs_tol=1e-12)


def test_marcum_q_term_budget():
    # noncentrality 1e8 with b = a needs a window of about 85,000 terms
    with pytest.raises(ConvergenceError, match=r"needs (\d+) terms") as err:
        marcum_q(2, 1e4, 1e4)
    needed = int(re.search(r"needs (\d+) terms", str(err.value)).group(1))
    assert 80000 < needed < 95000


@settings(max_examples=40)
@given(u=st.integers(1, 20), a=st.floats(0.0, 1000.0), offset=st.floats(-3.0, 3.0))
def test_marcum_q_property(u, a, offset):
    # b near a, on either side, so that both the direct and the
    # complementary sum are taken
    b = max(0.0, a + offset)
    want = stats.ncx2.sf(b * b, 2 * u, a * a)
    assert abs(marcum_q(u, a, b) - want) <= 1e-12
    cfg = DetectorConfig(u=u, lam=b * b)
    assert abs(prob_detect_instant(cfg, 0.5 * a * a) - want) <= 1e-12


def test_marcum_q_monotonicity_grid():
    grid_a = np.linspace(0.0, 4.5, 10)
    grid_b = np.linspace(0.0, 3.6, 10)
    for u in (1, 2):
        for a in grid_a:
            vals = [marcum_q(u, float(a), float(b)) for b in grid_b]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))  # falls in b
        for b in grid_b:
            vals = [marcum_q(u, float(a), float(b)) for a in grid_a]
            assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))  # rises in a
    # order monotonicity Q_{u+1} >= Q_u
    for a in (0.0, 1.1, 2.7):
        for b in (0.5, 2.0, 3.3):
            assert marcum_q(3, a, b) >= marcum_q(2, a, b) - 1e-12


def test_marcum_q_large_noncentrality():
    # windowed summation must stay accurate far beyond the naive e^{-x} range
    assert math.isclose(marcum_q(2, math.sqrt(2.0 * 1500.0), 3.0), 1.0, abs_tol=1e-11)
    assert math.isclose(marcum_q(2, 20.0, 21.0), 0.17701876427007, abs_tol=1e-11)


def test_kummer_1f1():
    assert kummer_1f1(2.0, 3.0, 0.0) == 1.0
    assert math.isclose(kummer_1f1(1.0, 1.0, 2.5), math.exp(2.5), rel_tol=1e-12)
    # reference: 500-term extended-precision direct summation
    assert math.isclose(kummer_1f1(3.0, 5.0, -2.0), 0.32702632369427134, rel_tol=1e-12)
    with pytest.raises(DomainError):
        kummer_1f1(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        kummer_1f1(1.0, -3.0, 1.0)


@pytest.mark.parametrize("a,b,z,expected", [
    (2.5, 2.0, -800.0, -1.565713346756869e-8),   # [reference mpmath hyp1f1]
    (0.5, 1.5, -750.0, 0.03236043187592832),     # [reference mpmath hyp1f1]
])
def test_kummer_1f1_where_exp_z_underflows(a, b, z, expected):
    # e^z underflows and 1F1(b-a; b; -z) overflows a float, once nan; the
    # term ratios are near 0.8 where the terms fall below 1e-12 of the sum,
    # and the geometric tail bound keeps the dropped tail below 1e-12 of it
    # (the three-small-terms stop alone left about 2e-12)
    assert math.isclose(kummer_1f1(a, b, z), expected, rel_tol=1e-12)


def test_kummer_1f1_tail_bound_where_term_ratios_near_one():
    # 1F1(1; 1; z) = e^z; at z = 700 the ratios z/(j+1) are about 0.78 where
    # the terms fall below 1e-12 of the sum, and the three-small-terms stop
    # alone was 1.87e-12 off
    assert math.isclose(kummer_1f1(1.0, 1.0, 700.0), math.exp(700.0), rel_tol=1e-12)


def test_kummer_transformation_consistency():
    # direct series vs e^z * 1F1(b-a; b; -z) across the stated range
    for z in np.linspace(-20.0, 20.0, 11):
        if z == 0.0:
            continue
        a, b = 1.7, 3.4
        direct = kummer_1f1(a, b, float(z))
        transformed = math.exp(z) * kummer_1f1(b - a, b, float(-z))
        assert math.isclose(direct, transformed, rel_tol=1e-10)


def test_gauss_2f1():
    assert gauss_2f1(1.2, 0.4, 2.2, 0.0) == 1.0
    assert math.isclose(gauss_2f1(1.0, 1.0, 2.0, 0.5), 2.0 * math.log(2.0), rel_tol=1e-12)
    # reference: extended-precision series after the Pfaff transformation
    assert math.isclose(gauss_2f1(2.5, 1.0, 4.0, -3.0), 10.0 / 27.0, rel_tol=1e-11)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        gauss_2f1(1.0, 1.0, -1.0, 0.5)


def test_gauss_2f1_route_consistency():
    # 2F1(1,1;2;z) = -ln(1-z)/z has one elementary form covering every route
    for z in (-8.0, -1.5, -0.4, 0.3, 0.6, 0.9, 0.99):
        want = -math.log1p(-z) / z
        assert math.isclose(gauss_2f1(1.0, 1.0, 2.0, z), want, rel_tol=1e-10), z
    # Pfaff invariance: f(a,b;c;z) = (1-z)^-a f(a, c-b; c; z/(z-1))
    a, b, c = 1.8, 0.9, 3.3
    for z in (0.2, 0.45):
        lhs = gauss_2f1(a, b, c, z)
        rhs = (1.0 - z) ** (-a) * gauss_2f1(a, c - b, c, z / (z - 1.0))
        assert math.isclose(lhs, rhs, rel_tol=1e-11)


@pytest.mark.parametrize("m,ms,a", [(2.5, 10.0, 1.5), (4.0, 20.0, 3.02)])
def test_gauss_2f1_euler_route_near_integer(m, ms, a):
    # the Fisher rate moment's 2F1(m+m_s, m; m+m_s+A; z), whose c-a-b = A-m
    # lies near an integer, so z > 0.5 takes the Euler integral
    for z in (0.6, 0.75, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8):
        want = special.hyp2f1(m + ms, m, m + ms + a, z)
        assert math.isclose(gauss_2f1(m + ms, m, m + ms + a, z), want, rel_tol=1e-12), z


def test_tricomi_u_values():
    # U(1;1;z) = e^z E1(z)
    assert math.isclose(tricomi_u(1.0, 1.0, 1.0), 0.59634736232319407, rel_tol=1e-10)
    # U(a; a+1; z) = z^-a
    for a, z in ((2.5, 1.7), (1.0, 0.3), (4.0, 6.0)):
        assert math.isclose(tricomi_u(a, a + 1.0, z), z ** (-a), rel_tol=1e-10)
    # reference: independent high-order quadrature of the defining integral
    assert math.isclose(tricomi_u(2.5, 0.5, 1.2), 0.05405052699340677, rel_tol=1e-10)
    with pytest.raises(DomainError):
        tricomi_u(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        tricomi_u(1.0, 1.0, 0.0)


def test_tricomi_u_kummer_connection():
    # U(a;b;z) = G(1-b)/G(a-b+1) 1F1(a;b;z) + G(b-1)/G(a) z^(1-b) 1F1(a-b+1;2-b;z)
    rng = np.random.default_rng(1234)
    found = 0
    while found < 20:
        a = float(rng.uniform(0.5, 4.0))
        b = float(rng.uniform(-1.5, 2.8))
        if abs(b - round(b)) <= 0.1:
            continue
        z = float(rng.uniform(0.4, 5.0))
        t1 = math.gamma(1.0 - b) / math.gamma(a - b + 1.0) * kummer_1f1(a, b, z)
        t2 = math.gamma(b - 1.0) / math.gamma(a) * z ** (1.0 - b) \
            * kummer_1f1(a - b + 1.0, 2.0 - b, z)
        u_val = tricomi_u(a, b, z)
        assert abs(u_val - (t1 + t2)) <= 1e-9 * (abs(t1) + abs(t2) + abs(u_val))
        found += 1


# ln U(a; b; z) from mpmath 1.3.0 at mp.dps = 30:
# float(mpmath.log(mpmath.hyperu(a, b, z))).
_LN_TRICOMI_REF = [
    (0.1, -30.0, 0.001, -0.3419442208015792),
    (0.1, -20.0, 0.5, -0.3047634035701526),
    (0.1, 0.0, 1.0, -0.06343816796967931),
    (0.1, 0.5, 30.0, -0.3420662288503788),
    (0.1, 12.0, 100.0, -0.44905013633847424),
    (0.35, -30.0, 0.02, -1.1984536461591127),
    (0.35, -1.0, 0.5, -0.3012943665343416),
    (0.35, 0.0, 4.0, -0.5776523002890591),
    (0.35, 2.5, 30.0, -1.177047886837448),
    (0.35, 12.0, 0.001, 90.15620441857898),
    (1.0, -30.0, 0.5, -3.450507260761084),
    (1.0, -1.0, 1.0, -1.210079139561991),
    (1.0, 1.0, 4.0, -1.5782026041734052),
    (1.0, 2.5, 100.0, -4.600207156280825),
    (1.0, 30.0, 0.001, 268.2156462276635),
    (2.5, -7.5, 0.5, -5.714016031262275),
    (2.5, -1.0, 4.0, -5.107061795515247),
    (2.5, 1.0, 30.0, -8.693520994692872),
    (2.5, 25.0, 100.0, -10.922272128273123),
    (2.5, 30.0, 0.02, 181.07265561981447),
    (7.5, -20.0, 0.02, -23.891054952187215),
    (7.5, -7.5, 1.0, -19.233021550388436),
    (7.5, 0.5, 4.0, -17.000762125277113),
    (7.5, 1.0, 100.0, -35.06152877623827),
    (7.5, 25.0, 0.001, 209.85915541327347),
    (40.0, -20.0, 0.5, -147.2563134803275),
    (40.0, 0.0, 1.0, -120.96136643461789),
    (40.0, 0.5, 30.0, -164.12384040515755),
    (40.0, 12.0, 100.0, -193.14884380727202),
    (40.0, 25.0, 0.02, 38.84956510116367),
    (300.0, -30.0, 0.02, -1513.0603258663616),
    (300.0, -20.0, 1.0, -1498.9956693696556),
    (300.0, 0.0, 4.0, -1479.876929676435),
    (300.0, 2.5, 30.0, -1584.3122208551742),
    (300.0, 12.0, 0.001, -1318.1411990558588),
    (2000.0, -30.0, 0.5, -13384.612292053864),
    (2000.0, -1.0, 1.0, -13296.787471890078),
    (2000.0, 0.0, 30.0, -13678.405594915685),
    (2000.0, 2.5, 100.0, -14045.166230710889),
    (2000.0, 30.0, 0.001, -12930.779101954624),
    (30000.0, -20.0, 0.001, -279439.9501080448),
    (30000.0, -7.5, 0.5, -279557.5031645109),
    (30000.0, -1.0, 1.0, -279622.56625765597),
    (30000.0, 1.0, 0.02, -279314.35306169064),
    (30000.0, 2.5, 0.001, -279262.5760719765),
    (30000.0, 25.0, 1.0, -279487.6554167652),
    (30000.0, 30.0, 0.02, -279099.86042952054),
]


@pytest.mark.parametrize("a,b,z,want", _LN_TRICOMI_REF)
def test_ln_tricomi_u_against_mpmath(a, b, z, want):
    """Frozen mpmath values over a in [0.1, 3e4], b in [-30, 30], z in
    [1e-3, 100]; at (3e4, -20, 1e-3) and (3e4, 25, 1) an adaptive
    Gauss-Kronrod rule stalled at its 4000-panel budget."""
    assert abs(ln_tricomi_u(a, b, z) - want) <= 2e-15 * max(1.0, abs(want))


def test_ln_tricomi_u_small_a_raises():
    # toward t = 0 the integrand falls only as t^a, past the rule's reach
    # below a = 0.05 (reference as in _LN_TRICOMI_REF)
    assert abs(ln_tricomi_u(0.05, 1.0, 1.0) - -0.0018173811204801123) <= 1e-13
    with pytest.raises(ConvergenceError):
        ln_tricomi_u(0.04, 1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gauss_2f1_rejects_non_finite_arguments(bad):
    # a NaN z or parameter used to run the whole series or tanh-sinh budget
    # and then raise ConvergenceError
    for args in ((bad, 1.0, 2.0, 0.3), (1.0, bad, 2.0, 0.3),
                 (1.0, 1.0, bad, 0.3), (1.0, 1.0, 2.0, bad)):
        with pytest.raises(DomainError, match="finite"):
            gauss_2f1(*args)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kummer_1f1_rejects_non_finite_arguments(bad):
    # a NaN parameter used to run 10,000 terms and raise ConvergenceError;
    # z = inf returned inf
    for args in ((bad, 1.5, 2.0), (1.0, bad, 2.0), (1.0, 1.5, bad)):
        with pytest.raises(DomainError, match="finite"):
            kummer_1f1(*args)


_KMS = KappaMuShadowedParams(2.0, 3, 2, 8.0)
_CFG = DetectorConfig(2, 5.0)


# Each function with a valid argument tuple; the test puts the bad value in
# every slot in turn.
@pytest.mark.parametrize("fn,args", [
    (ln_gamma, (2.0,)),
    (ln_beta, (2.0, 1.0)),
    (reg_lower_gamma, (2.0, 1.0)),
    (reg_upper_gamma, (2.0, 1.0)),
    (reg_inc_beta, (2.0, 1.0, 0.5)),
    (marcum_q, (2, 1.0, 1.0)),
    (tricomi_u, (1.5, 2.0, 1.0)),
    (lambda s: kms_mgf(_KMS, s), (0.1,)),
    (lambda g: prob_detect_instant(_CFG, g), (1.0,)),
    (lambda g: auc_instant(_CFG, g), (1.0,)),
], ids=["ln_gamma", "ln_beta", "reg_lower_gamma", "reg_upper_gamma", "reg_inc_beta",
        "marcum_q", "tricomi_u", "kms_mgf", "prob_detect_instant", "auc_instant"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_raise(fn, args, bad):
    # these returned nan or 0.5, or raised ValueError, OverflowError or a
    # "stalled" ConvergenceError
    fn(*args)
    for i in range(len(args)):
        with pytest.raises(DomainError):
            fn(*args[:i], bad, *args[i + 1:])


def test_determinism():
    args = (2, 1.9, 2.7)
    assert marcum_q(*args) == marcum_q(*args)
    assert tricomi_u(2.2, 0.7, 1.1) == tricomi_u(2.2, 0.7, 1.1)
    assert gauss_2f1(1.3, 0.8, 2.6, 0.77) == gauss_2f1(1.3, 0.8, 2.6, 0.77)


def test_series_convergence_error():
    # 1F1(3; 2; 900) = 3.3052952142606472e+393 [reference mpmath hyp1f1], once inf
    with pytest.raises(ConvergenceError, match="float range"):
        kummer_1f1(3.0, 2.0, 900.0)
    # a finite value whose series needs more than 10,000 terms
    with pytest.raises(ConvergenceError, match="10000 terms"):
        kummer_1f1(0.5, 1.5, -2e4)
