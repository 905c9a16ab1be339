"""The shadowed kappa-mu density and distribution function by their closed
form at integer mu and m (``channels._partial_fractions``), which kms_pdf
and kms_cdf take where its rounding guard passes, and the Gamma-mixture walk
that they take elsewhere.

[reference] mpmath 1.3.0: the partial-fraction sum of the closed form,
f = theta1 sum a_k Pois(x; k) + theta2 sum b_k Pois(y; k) and 1 - F =
sum abar_k Pois(x; k) + sum bbar_k Pois(y; k), x = theta1 gamma, y =
theta2 gamma, with theta1, theta2, q and qc exact from the float parameters,
at dps = max(100, 80 + 0.31 (mu + 1) - (mu + 1) log10 q), which leaves at
least 80 digits after the weights' cancellation (abar_0 + bbar_0 = 1 was
checked to 1e-40 on every cell).  It agrees with every frozen kappa-mu value
of test_channels.py (1F1 and direct-sum references) to the last digit.
"""

import json
import math
from pathlib import Path

import pytest

from edsense import _memo, channels
from edsense.channels import KappaMuShadowedParams, kms_cdf, kms_pdf
from edsense.errors import ConvergenceError, DomainError


def _kms(kappa, mu, m, mean):
    return KappaMuShadowedParams(kappa=kappa, mu=mu, m=m, mean_snr=mean)


def _form(p):
    return channels._partial_fractions(p.mu, p.m, p.q, p.qc), p.theta1, p.qc


def _walk_reads(monkeypatch):
    """Record every chunk of term ratios that a walk reads."""
    reads = []
    for name in ("_pdf_ratios", "_cdf_ratios"):
        ratios = getattr(channels, name)

        def counted(shape, k, ratios=ratios):
            reads.append(k)
            return ratios(shape, k)

        monkeypatch.setattr(channels, name, counted)
    return reads


@pytest.mark.parametrize("closed_form", [True, False])
def test_kms_pdf_and_cdf_against_mpmath(monkeypatch, closed_form):
    # 280 random cells: 240 with mu from 2 to 60 (kappa 0.1-1000, mean
    # 0.1-1000, gamma / mean 0.1-30) and 40 with mu from 100 to 1000 (gamma /
    # mean 0.5-5), m < mu.  The closed form takes 208 of the densities and
    # 148 of the distribution functions; the worst cells are 3.5e-13 (f) and
    # 8.5e-14 (F) off with it, and 4.5e-13 and 1.0e-13 by the walk alone.
    rows = json.loads(Path(__file__).with_name("kms_mpmath_cells.json").read_text())
    assert len(rows) >= 250
    if not closed_form:
        monkeypatch.setattr(channels, "_MAX_SPREAD", 0.0)
    taken = []
    closed = channels._closed_form

    def counted(sums, x, y):
        ln = closed(sums, x, y)
        taken.append(ln is not None)
        return ln

    monkeypatch.setattr(channels, "_closed_form", counted)
    for kappa, mu, m, mean, gamma, pdf, cdf in rows:
        p = _kms(kappa, mu, m, mean)
        if pdf > 1e-300:
            assert math.isclose(kms_pdf(p, gamma), pdf, rel_tol=1e-12)
        assert math.isclose(kms_cdf(p, gamma), cdf, rel_tol=1e-12)
    assert sum(taken) >= 300 if closed_form else not any(taken)


@pytest.mark.parametrize("mu,m", [(2, 1), (4, 2), (12, 6), (60, 30), (1000, 1)])
def test_closed_form_agrees_with_the_walk_across_its_reach(monkeypatch, mu, m):
    # kappa 2 at a mean of 10, from half of each reach to 4 times it.  (At
    # mu = 1000 and kappa 0.5 the two differ by up to 7e-13 just above the
    # density's reach, where the walk itself is 8.8e-13 off mpmath and the
    # closed form 4.1e-13.)
    p = _kms(2.0, mu, m, 10.0)
    form, rate, _ = _form(p)
    cells = [(fn, form[i] * f / rate) for fn, i in ((kms_pdf, 2), (kms_cdf, 3))
             for f in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 4.0)]
    reads = _walk_reads(monkeypatch)
    got, walked = [], []
    for fn, gamma in cells:
        before = len(reads)
        got.append(fn(p, gamma))
        walked.append(len(reads) > before)
    # below each reach the walk answers, from just above it the closed form
    assert walked == [True] * 3 + [False] * 4 + [True] * 3 + [False] * 4
    monkeypatch.setattr(channels, "_MAX_SPREAD", 0.0)
    for (fn, gamma), value in zip(cells, got):
        assert abs(value - fn(p, gamma)) <= 1e-13 * value


def test_closed_form_weights_sum_to_one():
    # abar_0 + bbar_0 = 1, the distribution function's weights at gamma = 0
    for kappa, mu, m in ((2.0, 2, 1), (0.5, 4, 2), (2.0, 12, 6), (10.0, 60, 30),
                         (1e3, 1000, 1), (0.1, 5, 4)):
        form, _, _ = _form(_kms(kappa, mu, m, 10.0))
        parts = [w * math.exp(ln_scale) for _, _, ln_scale, ((_, w, _), *_) in form[1]]
        sizes = [s * math.exp(ln_scale) for _, _, ln_scale, ((_, _, s), *_) in form[1]]
        assert abs(math.fsum(parts) - 1.0) <= 1e-15 * sum(sizes)


def test_closed_form_declines_at_small_kappa_and_below_its_reach(monkeypatch):
    # the benchmark's kappa = 1e-5 table (mu 4, m 2, 10 dB, gamma from 0.02
    # to 4 times the mean) cancels by about 1/q^3 = 1e14 and takes the walk
    # at every row, as does the mu = 60 table below its reach (theta1 gamma
    # of about 530 here), which the closed form takes above it
    reads = _walk_reads(monkeypatch)
    p = _kms(1e-5, 4, 2, 10.0)
    form, rate, qc = _form(p)
    for i in range(1, 201):
        gamma = 0.02 * i * p.mean_snr
        x = rate * gamma
        assert x < form[2] or channels._closed_form(form[0], x, qc * x) is None
        assert x < form[3] or channels._closed_form(form[1], x, qc * x) is None
        before = len(reads)
        kms_pdf(p, gamma)
        kms_cdf(p, gamma)
        assert len(reads) >= before + 2
    p = _kms(2.066, 60, 30, 10.0 ** 1.032)
    form, rate, _ = _form(p)
    walked = []
    for i in range(1, 13):
        before = len(reads)
        kms_pdf(p, 0.25 * i * p.mean_snr)
        walked.append((len(reads) > before, rate * 0.25 * i * p.mean_snr < form[2]))
    assert all(w == below for w, below in walked)
    assert {below for _, below in walked} == {True, False}


@pytest.mark.parametrize("kappa", [1e-5, 1e-2, 1.0, 1e3, 1e12])
def test_closed_form_stays_in_range(kappa):
    # mu = 1000 puts terms of Pois(t; 999) / Pois(t; 0) = 999! / t^999 in the
    # sums, and q x = 1.5e14 (kappa = 1e12) e^-x far below the float range:
    # no OverflowError, every density finite and every F within [0, 1] or
    # ConvergenceError (past the walk's 2^20-index cap where 1 - F > 1/2, and
    # at kappa = 1e3, m = 999, theta1 gamma = 1001, as before)
    for mu, m in ((1000, 1), (1000, 500), (1000, 999), (3, 2)):
        p = _kms(kappa, mu, m, 1.0)
        for gamma in (1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 50.0, 1e6, 1e300):
            assert 0.0 <= kms_pdf(p, gamma) < math.inf
            try:
                assert 0.0 <= kms_cdf(p, gamma) <= 1.0
            except ConvergenceError:  # the walk's, where the closed form declines
                pass


def test_closed_form_answers_past_the_walks_index_cap():
    # theta1 gamma = 4e6, past kms_cdf's 2^20-index cap: 1 - F = 0.41 here,
    # within the closed form's reach, where the walk raised ConvergenceError
    assert math.isclose(kms_cdf(_kms(1e6, 4, 2, 1.0), 1.0), 0.5939941502901281, rel_tol=1e-12)


def test_closed_form_reads_no_walk_chunk(monkeypatch):
    # two cells of long walks: kms_cdf at theta1 gamma = 9e5 (kappa 2, mu 4,
    # m 2, 10 dB; about 14 ms a point by the walk) and kms_pdf at q theta1
    # gamma = 8e6 (mu = 1000; about 8 ms); [reference] as
    # test_kms_pdf_far_from_the_mean
    reads = _walk_reads(monkeypatch)
    p = _kms(2.0, 4, 2, 10.0)
    assert kms_cdf(p, 9e5 / p.theta1) == 1.0
    got = kms_pdf(_kms(1e3, 1000, 1, 3.0), 24.0)
    assert math.isclose(got, 0.00011115257167529259766, rel_tol=1e-12)
    assert reads == []


def test_closed_form_is_not_set_up_past_its_order(monkeypatch):
    # mu = 1001: no weights are built, and the walk answers as before
    # [reference] the partial-fraction sum in mpmath, as above
    assert _form(_kms(1e3, 1000, 1, 3.0))[0][2] < math.inf
    assert _form(_kms(1e3, 1001, 1, 3.0))[0] == (None, None, math.inf, math.inf, None)
    # mu kappa = inf: theta1 = inf, so the parameters are refused (kms_cdf
    # raised ConvergenceError here while they were accepted)
    with pytest.raises(DomainError):
        _kms(1e308, 2, 1, 1.0)
    reads = _walk_reads(monkeypatch)
    got = kms_pdf(_kms(1e3, 1001, 1, 3.0), 3.0)
    assert reads and math.isclose(got, 0.12274898430576521, rel_tol=1e-12)


def test_closed_form_memo_is_bounded_and_read_only():
    assert channels._partial_fractions in _memo.REGISTRY
    assert channels._partial_fractions.cache_info().maxsize is not None
    form, _, _ = _form(_kms(2.0, 4, 2, 10.0))

    def frozen(obj):
        return not isinstance(obj, (list, dict, set)) and (
            not isinstance(obj, tuple) or all(map(frozen, obj)))

    assert isinstance(form, tuple) and frozen(form)
    with pytest.raises(TypeError):
        form[0][0] = ()
