"""The shadowed kappa-mu effective rate as a finite sum of Erlang moments
(``capacity._ln_rate_moment_kms``): the partial fractions where their guard
passes, the short Gamma mixture, and the MGF integral for the rest.

[reference] ``kms_rate_mpmath_cells.json``: 160 random cells (kappa, mu, m,
mean SNR in dB, A, rate): kappa 0 on 31, 1e-5 to 1e-2 on 41, and 1e-2 to
1e3; mu 1 to 60, and 100 to 1000 on 11; mu = m on 38; -80 to 60 dB (81
below -20 dB); A 0.2 to 10.  Each rate is mpmath 1.3.0 at dps 40: the MGF
integral in s = ln t of e^(A s - e^s) times 1 - M(-e^s) (or M(-e^s) where
1 - M > 1/2), split
every 2 in s from 60 below the smallest of ln theta2, ln theta1, 0 and ln A
to 8 above the largest, checked against a split every 1.5.  On the 7 cells
where the two splits differed by more than 1e-16 (all above 30 dB, where the
MGF falls steeply at t of theta2), the Gamma mixture sum_j P[N = j]
theta^(k+1) U(k+1, k+2-A, theta), k = a-1+j, with mpmath's hyperu at dps 50
replaces it.
"""

import json
import math
from pathlib import Path

import pytest

from edsense import capacity
from edsense.capacity import DelayQoS, eff_rate_kms
from edsense.channels import KappaMuShadowedParams
from edsense.errors import ConvergenceError
from edsense import specfun
from edsense.specfun import gauss_2f1

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs.json"


def _rows():
    return json.loads(Path(__file__).with_name("kms_rate_mpmath_cells.json").read_text())


def _kms(kappa, mu, m, db):
    return KappaMuShadowedParams(kappa, mu, m, 10.0 ** (db / 10.0))


def _routes(monkeypatch):
    """Record which route answers each call: 'pf', 'mix' or 'mgf'."""
    taken = []
    pf, mgf = capacity._ln_moment_pf, capacity._ln_rate_moment_mgf

    def counted_pf(*args):
        ln_m = pf(*args)
        taken.append("pf" if ln_m is not None else "pf declined")
        return ln_m

    def counted_mgf(*args):
        taken.append("mgf")
        return mgf(*args)

    def route(p, a):
        # the routes are set up first, outside the count
        capacity._routes(p.mu, p.m, p.q, p.qc, a)
        taken.clear()
        monkeypatch.setattr(capacity, "_ln_moment_pf", counted_pf)
        monkeypatch.setattr(capacity, "_ln_rate_moment_mgf", counted_mgf)
        try:
            value = eff_rate_kms(p, DelayQoS(a))
        finally:
            monkeypatch.setattr(capacity, "_ln_moment_pf", pf)
            monkeypatch.setattr(capacity, "_ln_rate_moment_mgf", mgf)
        return value, ("mgf" if "mgf" in taken else "pf" if "pf" in taken else "mix")

    return route


def test_kms_rate_against_mpmath_on_each_route(monkeypatch):
    # every cell within 1e-12 on the route that takes it (worst 2.3e-14),
    # except the 15 cells below -20 dB that the MGF integral takes: its ln M
    # keeps an absolute, not a relative, error there (8.6e-9 of the rate at
    # -80 dB), the low-SNR fault that the Erlang sums' 1 - M mends only where
    # they answer
    rows = _rows()
    assert len(rows) == 160
    route = _routes(monkeypatch)
    counts = {"pf": 0, "mix": 0, "mgf": 0}
    skipped = 0
    for kappa, mu, m, db, a, want in rows:
        got, taken = route(_kms(kappa, mu, m, db), a)
        counts[taken] += 1
        if taken == "mgf" and db < -20.0:
            skipped += 1
            continue
        assert math.isclose(got, want, rel_tol=1e-12), (kappa, mu, m, db, a, taken)
    assert skipped == 15
    assert counts["pf"] + counts["mix"] == 116 and min(counts.values()) > 10


def test_kms_rate_against_mpmath_with_the_integral_forced(monkeypatch):
    # both Erlang-sum routes off: the MGF integral alone, from -20 dB up (see
    # above for the cells below)
    monkeypatch.setattr(capacity, "_MAX_RATE_SPREAD", 0.0)
    checked = 0
    for kappa, mu, m, db, a, want in _rows():
        if db >= -20.0:
            got = eff_rate_kms(_kms(kappa, mu, m, db), DelayQoS(a))
            assert math.isclose(got, want, rel_tol=1e-12), (kappa, mu, m, db, a)
            checked += 1
    assert checked == 79


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("mean,want", [(1e270, 887.6418556426665916),
                                       (1e275, 904.22499952930422709)])
def test_kms_rate_where_theta1_is_near_the_float_floor(monkeypatch, forced, mean, want):
    # mu = m = 1, kappa = 0 (theta1 = 1e-270, 1e-275): theta e^theta
    # E_1(theta) (mpmath 1.3.0, dps 60), on the one-term mixture and with
    # the integral forced.  The integral warned "invalid value encountered in
    # multiply" (0 * log1p(inf) from the shape-0 factor) and raised
    # ConvergenceError from a mean of about 1e274; it now warns no more, but
    # at 1e275 its integrand's plateau, ln(1/theta1) = 633 long in s = ln t,
    # passes the peak-centred rule's nodes (about 630 either side), and it
    # still raises
    if forced:
        monkeypatch.setattr(capacity, "_MAX_RATE_SPREAD", 0.0)
    p, q = KappaMuShadowedParams(0.0, 1, 1, mean), DelayQoS(1.0)
    if forced and mean > 1e274:
        with pytest.raises(ConvergenceError):
            eff_rate_kms(p, q)
        return
    assert math.isclose(eff_rate_kms(p, q), want, rel_tol=1e-12)


def _rate_slots():
    slots = json.loads(REFS.read_text())["workloads"]["sweeps"]
    return {slot["slot"]: slot["variants"] for slot in slots if slot["kind"] == "rate_kms"}


# (partial fractions, mixture, integral) per stored variant of each slot
_ROUTE_COUNTS = {
    "rate-kms-mu2-m1": [(17, 0, 0)] * 4,
    "rate-kms-mu4-m2": [(17, 0, 0)] * 4,
    "rate-kms-mu12-m6": [(12, 0, 5), (13, 0, 4), (0, 0, 17), (12, 0, 5)],
    "rate-kms-mu60-m30": [(0, 0, 5)] * 4,
    "fault-rate-kms-k1e-5-mu4-m2-A5": [(0, 14, 3)],
    "fault-rate-kms-k0.05-mu12-m6-A2": [(0, 17, 0)],
}


def test_route_counts_on_the_benchmark_rate_slots(monkeypatch):
    slots = _rate_slots()
    assert set(slots) == set(_ROUTE_COUNTS)
    route = _routes(monkeypatch)
    for name, variants in slots.items():
        counts = []
        for v in variants:
            p = v["params"]
            taken = [route(_kms(p["kappa"], p["mu"], p["m"], db), p["a"])[1] for db in p["snr_db"]]
            counts.append(tuple(taken.count(r) for r in ("pf", "mix", "mgf")))
        assert counts == _ROUTE_COUNTS[name], name


def test_mu60_slot_never_calls_the_erlang_kernel(monkeypatch):
    # its partial fractions' 1 - M spreads over 1e3 even as theta1 -> inf,
    # which the route set-up finds from the weights alone, and its mixture needs more
    # than _MAX_MIX_TERMS terms: the integral pays for nothing new
    calls = []
    kernel = capacity._erlang_sums
    monkeypatch.setattr(capacity, "_erlang_sums", lambda *args: calls.append(args) or kernel(*args))
    for v in _rate_slots()["rate-kms-mu60-m30"]:
        p = v["params"]
        for db in p["snr_db"]:
            eff_rate_kms(_kms(p["kappa"], p["mu"], p["m"], db), DelayQoS(p["a"]))
    assert calls == []


def test_gauss_2f1_at_large_c():
    # the 1-z series' K and alpha_0 as Gamma quotients over paired
    # differences: 1.2e-11 off before (lgamma sums near c ln c); mpmath
    # 1.3.0 (dps 40)
    assert math.isclose(gauss_2f1(1.3, 2.7, 9000.5, 0.9), 1.0003511298956231844, rel_tol=1e-13)
    assert math.isclose(gauss_2f1(1.3, 2.7, 900.5, 0.9), 1.0035230303053594111, rel_tol=1e-13)


# (2, 4, 2), A = 1: the partial-fraction sum in mpmath 1.3.0 (dps 60, its
# Erlang moments by mpmath's hyperu); the MGF integral alone was 8.6e-9,
# 5.0e-11 and 4.4e-13 off at -80, -60 and -40 dB
_LOW_SNR = {-80: 1.4426950284657563354e-8, -70: 1.4426949166569098129e-7,
            -60: 1.4426937985701773143e-6, -50: 0.000014426826178760258846,
            -40: 0.00014425708282481284204, -30: 0.0014414546596222824672,
            -20: 0.014304621254773941253, -10: 0.13345734502269179629,
            0: 0.88972519398527571465, 10: 3.039627253462797298,
            20: 6.1109485924698360407, 30: 9.401555165880059514}


@pytest.mark.parametrize("db", sorted(_LOW_SNR))
def test_kms_rate_relative_at_low_snr(monkeypatch, db):
    got, taken = _routes(monkeypatch)(_kms(2.0, 4, 2, float(db)), 1.0)
    assert taken == "pf"
    assert math.isclose(got, _LOW_SNR[db], rel_tol=1e-12)


# (x, A, k, E_k, D_k): E_k = x^A U(A, A-k, x) in mpmath 1.3.0 (dps 40), on
# both seeds and both directions of the recurrence; the cells at x = 2.5,
# 6.5 and 3.0 run D forward past k = x, where f = k+1-A-x < 0 and each step
# cancels
_KERNEL_CELLS = [
    (0.03, 0.45, 0, 0.28810895080433140835, 0.71189104919566859165),
    (0.2, 5.5, 7, 2.1792345558043263285e-8, 0.99999997820765444196),
    (0.6, 2.3, 4, 0.011249152817653905632, 0.98875084718234609437),
    (2.5, 3.7, 9, 0.0045630095912544960069, 0.99543699040874550399),
    (6.5, 7.9, 20, 0.000030207868810038861573, 0.99996979213118996114),
    (3.0, 2.0, 14, 0.031967501507332742224, 0.96803249849266725778),
    (40.0, 1.5, 3, 0.87000007209554010372, 0.12999992790445989628),
    (900.0, 9.5, 2, 0.9690568077108064213, 0.030943192289193578704),
]


@pytest.mark.parametrize("x,a,k,e_k,d_k", _KERNEL_CELLS)
def test_erlang_sums_stay_within_their_size(x, a, k, e_k, d_k):
    # the guard's premise: each error within 16 units of its size
    e, size_e, d, size_d = specfun._erlang_sums(x, a, k, (1.0,), 1.0, 1.0)
    assert abs(e - e_k) <= 16.0 * 2.0 ** -53 * size_e
    assert abs(d - d_k) <= 16.0 * 2.0 ** -53 * size_d


@pytest.mark.parametrize("p,a", [(KappaMuShadowedParams(0.0, 10**6, 10**6, 1.0), 1.0),
                                 (KappaMuShadowedParams(2.0, 4, 2, 10.0), 1e7)])
def test_erlang_sums_decline_past_their_order(p, a):
    # a + k past _MAX_ERLANG (k = 999,999 on the one-term mixture; A = 1e7
    # in the reach's bisection): the sums decline before any seed or table,
    # and the MGF integral answers as it would alone
    assert specfun._erlang_sums(1e6, a, 10**6 - 1, (1.0,), 1.0, 1.0) is None
    try:
        want = capacity._ln_rate_moment_mgf(p, a)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            eff_rate_kms(p, DelayQoS(a))
    else:
        assert eff_rate_kms(p, DelayQoS(a)) == -want / (a * math.log(2.0))
    assert specfun._cf_coefficients.cache_info().currsize == 0
