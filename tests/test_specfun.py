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
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from edsense import specfun
from edsense.channels import FisherFParams, KappaMuShadowedParams, f_cdf, kms_mgf
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


# mu(z) = ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2 from mpmath 1.3.0 at
# mp.dps = 40
@pytest.mark.parametrize("z,want", [
    (1e-3, 2.5422704679670947),
    (0.3, 0.2360649007482156),
    (3.0, 0.02767792568499834),
    (9.7, 0.008588030898606215),
    (9.999, 0.008331396020466343),
    (10.0, 0.00833056343336287),
    (29.5, 0.002824750591511346),
    (30.0, 0.0027776749297526936),
    (1e3, 8.333333055555635e-05),
])
def test_binet_against_mpmath(z, want):
    assert abs(specfun._binet(z) - want) <= 4e-15


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


# ln(x^a y^b / B(a, b)), y = 1 - x, from mpmath 1.3.0 at mp.dps = 40: below
# a + b = 30 the front factor is a ln x + b ln y - ln B(a, b), from 30 up
# three Gamma weights; each is within 1e-14 (the weights were 1.4e-14 off at
# the fourth cell, the direct form is exact there).
@pytest.mark.parametrize("a,b,x,want", [
    (0.5, 0.5, 0.25, -1.9817181026352359473),
    (2.5, 10.0, 0.375, -1.5042722636046141979),
    (1.2, 3.0, 0.0009765625, -6.8799147392588629653),
    (14.5, 15.25, 0.9990234375, -85.031836194876581381),
    (15.0, 15.0, 0.5, 0.080181184892286727371),
    (20.0, 10.0, 0.75, -0.50125776034747937449),
])
def test_ln_beta_front_against_mpmath(a, b, x, want):
    got = specfun._ln_beta_front(a, b, x, 1.0 - x)
    assert abs(got - want) <= 1e-14  # relative, in x^a y^b / B(a, b)


def test_reg_inc_beta_basics():
    assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
    assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1, b) = 1 - (1-x)^b exactly
    assert math.isclose(reg_inc_beta(1.0, 4.0, 0.3), 1.0 - 0.7 ** 4, rel_tol=1e-13)
    # symmetry I_x(a,b) + I_{1-x}(b,a) = 1
    assert math.isclose(reg_inc_beta(2.5, 1.3, 0.4) + reg_inc_beta(1.3, 2.5, 0.6),
                        1.0, rel_tol=1e-12)


# I_x(a, b) from mpmath 1.3.0 at mp.dps = 40.  The front factor from lgamma
# values near 3000 and 1e5 left the first 4.3e-12 and the second 3.4e-10 off.
@pytest.mark.parametrize("a,b,x,want", [
    (30.0, 2951.0, 30.0 / 3030.0, 0.48825989261070189194),
    (1e-3, 1e5, 1e-7, 0.9959693981573928612),
])
def test_reg_inc_beta_against_mpmath(a, b, x, want):
    assert math.isclose(reg_inc_beta(a, b, x), want, rel_tol=1e-13)


def test_reg_inc_beta_below_the_normal_range():
    # (a+b) x must be a normal float; below it the front factor's Gamma
    # weight would take a subnormal (a+b) x that has lost its digits
    assert math.isclose(reg_inc_beta(0.3, 2.0, 1e-300), 1.3e-90, rel_tol=1e-13)
    for x in (1e-310, 5e-324):
        with pytest.raises(DomainError, match="normal floats"):
            reg_inc_beta(0.3, 2.0, x)


# Lentz's fraction takes many steps near the branch switch at large
# parameters; both cells are pinned at the accuracy they had when the
# numerators were formed per step (2.2e-14 and 6.7e-14 absolute).
# I_x(8.623, 2589) at x = t/(1+t), t = omega gamma as f_cdf forms it at
# (m, m_s, mean) = (8.623, 2589, 32.94), gamma = 45.42, from mpmath 1.3.0 at
# mp.dps = 40: 0.86534948603865547729; I_0.5(1e5, 1e5) = 1/2 exactly.
def test_beta_cf_near_the_branch_switch():
    got = f_cdf(FisherFParams(8.623, 2589.0, 32.94), 45.42)
    assert abs(got - 0.86534948603865547729) <= 2.2e-14
    assert abs(reg_inc_beta(1e5, 1e5, 0.5) - 0.5) <= 6.8e-14


def test_beta_cf_past_one_chunk():
    # I_0.499(1e4, 1e4) runs its fraction into a third chunk of numerators.
    # mpmath 1.3.0 at mp.dps = 40, as x^a y^b / (a B(a, b)) 2F1(a+b, 1; a+1; x)
    want = 0.38864995214253754957
    got = reg_inc_beta(1e4, 1e4, 0.499)
    assert specfun._beta_cf_steps.cache_info().misses == 3
    assert math.isclose(got, want, rel_tol=1e-13)


def _beta_cf_per_step(a, b, x, y):
    """Lentz's fraction of ``specfun._beta_cf`` with each partial numerator
    formed from i and x at its own step."""
    tiny = 1e-300
    c, d = 1.0, ((a + 1.0) * y - (b - 1.0) * x) / (a + 1.0)
    d = 1.0 / (d if abs(d) >= tiny else tiny)
    h = d
    for i in map(float, range(1, 20_000)):
        for aa in (i * (b - i) * x / ((a - 1.0 + 2.0 * i) * (a + 2.0 * i)),
                   -(a + i) * (a + b + i) * x / ((a + 2.0 * i) * (a + 1.0 + 2.0 * i))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) >= tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ConvergenceError("reference fraction did not settle")


@pytest.mark.parametrize("a,b", [(3.057, 18.83), (3.621, 9.451), (1.384, 2.855), (1.44, 2.148)])
def test_beta_cf_against_per_step_numerators(a, b):
    # the fractions of the benchmark's Fisher-Snedecor CDF tables, both
    # branches; the numerators differ only in where x is multiplied in
    compared = 0
    for x in np.linspace(0.002, 0.998, 200).tolist():
        y = 1.0 - x
        if x < (a + 1.0) / (a + b + 2.0):
            got, want = specfun._beta_cf(a, b, x, y), _beta_cf_per_step(a, b, x, y)
        else:
            got, want = specfun._beta_cf(b, a, y, x), _beta_cf_per_step(b, a, y, x)
        assert math.isclose(got, want, rel_tol=2e-15)
        compared += 1
    assert compared == 200


def test_beta_cf_chunks_are_immutable_and_cold_equals_warm():
    p = FisherFParams(8.623, 2589.0, 32.94)
    gammas = [45.42 * 1.05 ** k for k in range(-40, 41)]
    cold = [f_cdf(p, g) for g in gammas] + [reg_inc_beta(1e4, 1e4, 0.499)]
    info = specfun._beta_cf_steps.cache_info()
    assert info.hits > 0 and info.misses >= 3
    warm = [f_cdf(p, g) for g in gammas] + [reg_inc_beta(1e4, 1e4, 0.499)]
    assert warm == cold
    assert specfun._beta_cf_steps.cache_info().misses == info.misses
    chunk = specfun._beta_cf_steps(1e4, 1e4, 1)
    assert isinstance(chunk, tuple) and len(chunk) == specfun._CHUNK
    assert all(isinstance(pair, tuple) and len(pair) == 2 for pair in chunk)
    # numerators i (b-i) / ((a-1+2i) (a+2i)) and -(a+i) (a+b+i) / ((a+2i) (a+1+2i))
    a, b, i = 1e4, 1e4, specfun._CHUNK + 1.0
    assert chunk[0] == (i * (b - i) / ((a - 1.0 + 2.0 * i) * (a + 2.0 * i)),
                        -(a + i) * (a + b + i) / ((a + 2.0 * i) * (a + 1.0 + 2.0 * i)))


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


@pytest.mark.parametrize("a,b,c,z,route", [
    (1.5, 2.5, 4.0, -0.5, "series"),
    (5.525, 4.057, 6.644, -9.0, "connection"),  # a Fisher rate cell at low SNR
    (1.5, 4.3, 5.7, -9.0, "connection"),
    (12.5, 2.5, 14.0, -9.0, "euler"),
    (2.5, 12.5, 14.0, -1e8, "euler"),
    (-3.5, 2.0, 4.25, -0.2, "series"),
])
def test_gauss_2f1_pfaff_step_is_the_z_positive_core(monkeypatch, a, b, c, z, route):
    # at z < 0 the core returns w^-a 2F1(a, c-b; c; z/(z-1)) (w^-b and
    # c-a for |a| > |b|) from its own z > 0 route, bit for bit
    w = 1.0 - z
    routes = {}
    for name in ("connection", "euler"):
        real, routes[name] = getattr(specfun, f"_{name}_2f1"), []
        monkeypatch.setattr(specfun, f"_{name}_2f1",
                            lambda *args, real=real, seen=routes[name]: seen.append(1) or real(*args))
    got = specfun._gauss_2f1(a, b, c, z, w)
    taken = [name for name, seen in routes.items() if seen] or ["series"]
    assert taken[-1] == route
    if abs(a) <= abs(b):
        s, ln_scale = specfun._gauss_2f1(a, c - b, c, -z / w, 1.0 / w)
        assert got == (s, ln_scale - a * math.log(w))
    else:
        s, ln_scale = specfun._gauss_2f1(c - a, b, c, -z / w, 1.0 / w)
        assert got == (s, ln_scale - b * math.log(w))


def _connection_in_lists(connection, w):
    """The 1-z formula's terms combined as lists: the largest log scale,
    then each term scaled to it and summed in order."""
    pieces = []
    for p0, p1, q0, sign, ln, shift in connection:
        s, bits = specfun._series_phq(p0, p1, q0, w, "gauss_2f1")
        pieces.append((sign * s, ln + shift * math.log(w) + bits * math.log(2.0)))
    top = max(ln for _, ln in pieces)
    total = size = 0.0
    for s, ln in pieces:
        total += s * math.exp(ln - top)
        size += abs(s * math.exp(ln - top))
    return (total, top) if size <= specfun._MAX_CANCELLATION * abs(total) else None


@pytest.mark.parametrize("a,b,c", [
    (5.525, 4.057, 6.644),  # the Fisher rate's (m+m_s, m; m+m_s+A), two terms
    (4.2, 1.1, 6.1),
    (3.5, 1.2, 1.5),        # c-a = -2: the first term's 1/Gamma kills it
])
def test_connection_2f1_combines_its_terms_as_before(a, b, c):
    connection = specfun._setup_2f1(a, b, c)[0]
    assert len(connection) == (1 if c - a == round(c - a) else 2)
    for w in np.geomspace(1e-12, 0.5, 60).tolist():
        got = specfun._connection_2f1(connection, w)
        assert got is not None and got == _connection_in_lists(connection, w)


def test_gauss_2f1_large_negative_argument():
    # z/(z-1) rounds to 1 from z of about -1e16 on; the Pfaff step now hands
    # on 1/(1-z) as the new argument's complement.  2F1(1,1;2;z) was 3.6e-9
    # off at -1e10 and 2.5e-5 off at -1e14, and raised DomainError at -1e16.
    for z in (-1e6, -1e10, -1e14):
        want = -math.log1p(-z) / z
        assert math.isclose(gauss_2f1(1.0, 1.0, 2.0, z), want, rel_tol=1e-12), z
    for z in [-10.0 ** k for k in range(16, 309, 4)] + [-sys.float_info.max]:
        try:
            got = gauss_2f1(1.0, 1.0, 2.0, z)
        except ConvergenceError:
            continue
        assert math.isclose(got, -math.log1p(-z) / z, rel_tol=1e-12), z


@pytest.mark.parametrize("m,ms,a", [(2.5, 10.0, 1.5), (4.0, 20.0, 3.02)])
def test_gauss_2f1_euler_route_near_integer(m, ms, a):
    # the Fisher rate moment's 2F1(m+m_s, m; m+m_s+A; z), whose c-a-b = A-m
    # lies near an integer, so z > 0.5 takes the Euler integral
    for z in (0.6, 0.75, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8):
        want = special.hyp2f1(m + ms, m, m + ms + a, z)
        assert math.isclose(gauss_2f1(m + ms, m, m + ms + a, z), want, rel_tol=1e-12), z


def test_gauss_2f1_direct_series_raises_where_it_cancels():
    # after the Pfaff step 2F1(a, c-b; c; 0.678), c-b = -8.99, no Euler
    # ordering applies and the direct series' first terms cancel; mpmath
    # 1.3.0 (mp.dps = 40) gives -6.8842194480335637864e-6
    want = -6.8842194480335637864e-6
    try:
        got = gauss_2f1(1.5931546116744544, 10.577354679591151, 1.5916641652460806,
                        -2.110296913676124)
    except ConvergenceError:
        return
    assert math.isclose(got, want, rel_tol=1e-12), got


# Cells on which a series' first terms cancel; the parent of the head check
# returned each silently off by the stated amount.  Values from mpmath 1.3.0
# at mp.dps = 40.
_HEAD_CANCELS = [
    # the 1-z formula's piece cancels and no Euler ordering applies (5.4e-2)
    (gauss_2f1, (28.409306083607266, 27.655792102298985, 1.2132623442542654,
                 -1.0052986644325785), -9.372002063763754e-11),
    # the z <= 0.5 series after the Pfaff step (1.8e-3)
    (gauss_2f1, (14.204779133044612, 28.36759079071496, 4.80474024143418,
                 -0.9952928381972148), 1.6449650477307302e-11),
    # c < 0: the z <= 0.5 series (1.6e-9) and the 1-z formula (7.3e-7)
    (gauss_2f1, (9.311365856069155, 9.235148120253495, -6.209914384852264,
                 -0.8050403205295842), -0.03671203574598475),
    (gauss_2f1, (10.723188829651317, 10.118361553684803, -11.330368514734277,
                 -1.0052986644325785), -35.2905392677882),
    # kummer_1f1 with a < 0 (7.5e-3) and, after the Kummer step, b-a < 0 (2.6e-5)
    (kummer_1f1, (-18.917573710259187, 32.78400215393094, 40.1846749067754),
     -4.386887738660071e-09),
    (kummer_1f1, (27.553588175069308, 5.300323246040188, -41.414739422246555),
     -2.697910045211043e-16),
]


@pytest.mark.parametrize("fn,args,want", _HEAD_CANCELS)
def test_series_whose_head_cancels_is_right_or_raises(fn, args, want):
    try:
        got = fn(*args)
    except ConvergenceError:
        return
    assert math.isclose(got, want, rel_tol=1e-12), got


def test_one_minus_z_piece_whose_head_cancels_takes_the_euler_integral():
    # the 1-z formula's first piece is 2F1(-19.6, 24.7; 1-d; 0.46), whose
    # first terms cancel beyond the check; the Euler integral applies.
    # mpmath 1.3.0 (mp.dps = 40) gives 0.0002945807607519658
    a, b, c, z = -19.60141868904022, 24.67732332986363, 36.485947451890276, 0.5393994326025074
    connection, euler = specfun._setup_2f1(a, b, c)
    assert euler is not None
    assert specfun._connection_2f1(connection, 1.0 - z) is None
    assert math.isclose(gauss_2f1(a, b, c, z), 0.0002945807607519658, rel_tol=1e-13)


def test_series_head_is_empty_without_a_negative_parameter():
    # such a series makes no head check: its head's ratio tuple is empty
    assert specfun._series_head(2.5, 1.5, 4.0) == ()
    assert specfun._series_head(0.3, None, 1e-3) == ()
    assert len(specfun._series_head(-3.0, 2.0, 5.0)) == 4
    assert len(specfun._series_head(27.5, None, -0.2)) == 1


def _chunks_used(monkeypatch, fn, *args):
    """fn(*args) and the chunks of term ratios that the series asked for."""
    seen = []
    ratios = specfun._series_ratios

    def record(p0, p1, q0, k):
        seen.append(k)
        return ratios(p0, p1, q0, k)

    monkeypatch.setattr(specfun, "_series_ratios", record)
    return fn(*args), sorted(set(seen))


# 1F1(1; 2; z) = (e^z - 1)/z, whose terms z^j/(j+1)! stay below 2^-53 of the
# sum from a last index of 49, 50 and 51 on at these z: the blocked loop
# stops at the block ending at index 50, the last of chunk 0, or at 55, in
# chunk 1.  Values from mpmath 1.3.0 at mp.dps = 40.
@pytest.mark.parametrize("z,want,chunks", [
    (10.52, 3521.684837643692, [0]),
    (10.96, 5248.671810061284, [0]),
    (11.4, 7835.15117200049, [0, 1]),
])
def test_series_stop_across_a_chunk_edge(monkeypatch, z, want, chunks):
    got, used = _chunks_used(monkeypatch, kummer_1f1, 1.0, 2.0, z)
    assert used == chunks
    assert math.isclose(got, want, rel_tol=4e-16), got


def test_series_stop_inside_the_first_block(monkeypatch):
    # 1F1(1; 2; 1e-6) = expm1(z)/z: t_3 is 2.5e-19 of the sum; mpmath 1.3.0
    # (mp.dps = 40) gives 1.0000005000001666667
    got, used = _chunks_used(monkeypatch, kummer_1f1, 1.0, 2.0, 1e-6)
    assert used == [0]
    assert math.isclose(got, 1.0000005000001666667, rel_tol=2.3e-16)


def test_series_rescale_inside_a_block():
    # 1F1(1; 2; 700.3): the terms pass 2^600 at index 181, inside the block
    # 181..185, and are rescaled at its end; mpmath 1.3.0 (mp.dps = 40) gives
    # 1.9549765414963451817e301
    assert math.isclose(kummer_1f1(1.0, 2.0, 700.3), 1.9549765414963451817e301,
                        rel_tol=1e-13)


def test_terminating_series():
    # 2F1(-3, 2; 5; 0.3) has four nonzero terms, then t == 0 ends the sum;
    # mpmath 1.3.0 (mp.dps = 40) gives 0.69091428571428572395
    assert math.isclose(gauss_2f1(-3.0, 2.0, 5.0, 0.3), 0.69091428571428572395, rel_tol=2.3e-16)


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


def test_incomplete_gamma_at_huge_y():
    # beyond y of about 1e16 the continued fraction's b += 2 stopped moving
    # b and 20 of these 212 points raised "continued fraction stalled"
    for z in (1.0, 2.0, 2.5, 3.0):
        for k in range(100, 309, 4):
            assert reg_upper_gamma(z, 10.0 ** k) == 0.0, (z, k)
            assert reg_lower_gamma(z, 10.0 ** k) == 1.0, (z, k)
    assert reg_upper_gamma(2.0, 1.125e299) == 0.0


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
