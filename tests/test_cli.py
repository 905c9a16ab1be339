"""Command-line behavior: CSV format and determinism, exit codes, JSON
config, and the verification report."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import edsense
from edsense import cli
from edsense.channels import KappaMuShadowedParams
from edsense.cli import SweepConfig, main


def _run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def _rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# edsense ")
    header = lines[1].split(",")
    body = [line.split(",") for line in lines[2:]]
    return header, body


def test_croc_csv(tmp_path):
    code, out = _run(tmp_path, "croc.csv",
                     ["croc", "--channel", "kms", "--kappa", "2", "--mu", "3",
                      "--m", "2", "--snr-db", "10", "--u", "2",
                      "--pf-points", "6"])
    assert code == 0
    header, body = _rows(out)
    assert header == ["pf", "pmd"]
    assert len(body) == 6
    pmds = [float(r[1]) for r in body]
    assert all(b <= a + 1e-12 for a, b in zip(pmds, pmds[1:]))
    # 10 significant digits, scientific notation
    assert all("e" in field for row in body for field in row)


def test_croc_single_point(tmp_path):
    code, out = _run(tmp_path, "croc1.csv",
                     ["croc", "--channel", "fisher", "--m", "2", "--ms", "10",
                      "--snr-db", "0", "--pf-points", "1", "--pf-min", "0.5",
                      "--tol", "1e-6"])
    assert code == 0
    _, body = _rows(out)
    assert len(body) == 1
    assert math.isclose(float(body[0][0]), 0.5)


def test_byte_identical_reruns(tmp_path):
    args = ["auc", "--channel", "kms", "--kappa", "2", "--mu", "2", "--m", "1",
            "--snr-db", "0:20:5", "--u", "2"]
    _, first = _run(tmp_path, "a1.csv", args)
    _, second = _run(tmp_path, "a2.csv", args)
    assert first.read_bytes().split(b"\n", 1)[1] == second.read_bytes().split(b"\n", 1)[1]
    # identical including provenance when the whole command line matches
    _, third = _run(tmp_path, "a1b.csv", args)
    assert first.name != third.name  # file differs, content apart from it identical


def test_auc_sweep_monotone(tmp_path):
    code, out = _run(tmp_path, "auc.csv",
                     ["auc", "--channel", "kms", "--kappa", "2", "--mu", "2",
                      "--m", "1", "--snr-db", "0:20:1", "--u", "2"])
    assert code == 0
    header, body = _rows(out)
    assert header == ["snr_db", "comp_auc"]
    assert len(body) == 21
    comp = [float(r[1]) for r in body]
    assert all(b < a for a, b in zip(comp, comp[1:]))


def test_effrate_sweep(tmp_path):
    code, out = _run(tmp_path, "rate.csv",
                     ["effrate", "--channel", "fisher", "--m", "2", "--ms", "3",
                      "--snr-db", "0:20:2", "--a", "1"])
    assert code == 0
    header, body = _rows(out)
    assert header == ["snr_db", "eff_rate_bits"]
    rates = [float(r[1]) for r in body]
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("args,row", [
    # mpmath 1.3.0 (mp.dps = 50) gives 52.15084952 and 13.33182903 bits/s/Hz;
    # the first printed 5.288666154e+01, the second died with a ValueError
    (["--m", "2", "--ms", "3", "--snr-db", "160", "--a", "1"],
     ["1.600000000e+02", "5.215084952e+01"]),
    (["--m", "100", "--ms", "3", "--snr-db", "90", "--a", "200"],
     ["9.000000000e+01", "1.333182903e+01"]),
])
def test_effrate_fisher_high_snr(tmp_path, args, row):
    code, out = _run(tmp_path, "rate.csv", ["effrate", "--channel", "fisher", *args])
    assert code == 0
    _, body = _rows(out)
    assert body == [row]


def test_pdf_table_consistency(tmp_path):
    code, out = _run(tmp_path, "pdf.csv",
                     ["pdf", "--channel", "kms", "--kappa", "0", "--mu", "2",
                      "--m", "1", "--snr-db", "6", "--points", "400"])
    assert code == 0
    header, body = _rows(out)
    assert header == ["gamma", "pdf", "cdf"]
    g = np.array([float(r[0]) for r in body])
    pdf = np.array([float(r[1]) for r in body])
    cdf = np.array([float(r[2]) for r in body])
    assert np.all(pdf >= 0)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[-1] >= 0.999
    # trapezoid integral of the pdf column reproduces the cdf column
    assert abs(np.trapezoid(pdf, g) - cdf[-1]) < 1e-3


def test_pdf_fisher_m_below_one(tmp_path):
    code, out = _run(tmp_path, "pdff.csv",
                     ["pdf", "--channel", "fisher", "--m", "0.8", "--ms", "3",
                      "--snr-db", "6", "--points", "50"])
    assert code == 0
    _, body = _rows(out)
    assert float(body[0][0]) > 0.0  # grid dodges the singular origin


def test_json_config(tmp_path):
    cfg = dict(channel="kms", kappa=2.0, mu=2, m=1, snr_db="0:10:5", u=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = _run(tmp_path, "json.csv", ["auc", "--json", str(path)])
    assert code == 0
    _, body = _rows(out)
    assert len(body) == 3
    # explicit flags take precedence over the JSON values
    code, out2 = _run(tmp_path, "json2.csv",
                      ["auc", "--json", str(path), "--snr-db", "0:10:10"])
    assert code == 0
    _, body2 = _rows(out2)
    assert len(body2) == 2


def test_json_rejects_non_integral_integers(tmp_path):
    base = dict(channel="kms", kappa=2.0, mu=2, m=1, snr_db="0:10:5")
    for key, value in (("u", 2.5), ("pf_points", 3.5), ("seed", 1.5),
                       ("points", 20.5), ("mc_samples", 1e4 + 0.5)):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(dict(base, **{key: value})))
        code, _ = _run(tmp_path, f"{key}.csv", ["auc", "--json", str(path)])
        assert code == 2, key
    # an integral float is an integer
    path = tmp_path / "u2.json"
    path.write_text(json.dumps(dict(base, u=2.0)))
    code, out = _run(tmp_path, "u2.csv", ["auc", "--json", str(path)])
    assert code == 0
    assert len(_rows(out)[1]) == 3


@pytest.mark.parametrize("key,value", [
    ("u", "abc"), ("tol", "x"), ("kappa", "abc"), ("snr_db", [0, 10]), ("a", None)])
def test_json_rejects_wrong_types(tmp_path, capsys, key, value):
    base = dict(channel="kms", kappa=2.0, mu=2, m=1, snr_db="0:10:5")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(base, **{key: value})))
    code, _ = _run(tmp_path, "bad.csv", ["effrate", "--json", str(path)])
    assert code == 2
    assert f"invalid parameters: {key}:" in capsys.readouterr().err


def test_negative_snr_range(tmp_path):
    code, out = _run(tmp_path, "neg.csv",
                     ["auc", "--channel", "kms", "--kappa", "2", "--mu", "2",
                      "--m", "1", "--snr-db", "-10:0:5", "--u", "2"])
    assert code == 0
    _, body = _rows(out)
    assert [float(r[0]) for r in body] == [-10.0, -5.0, 0.0]


def test_auc_at_large_u(tmp_path):
    code, out = _run(tmp_path, "u600.csv",
                     ["auc", "--channel", "kms", "--kappa", "2", "--mu", "3",
                      "--m", "2", "--snr-db", "0:10:5", "--u", "600"])
    assert code == 0
    assert all(0.0 <= float(r[1]) <= 0.5 for r in _rows(out)[1])


def test_usage_errors_exit_2(tmp_path):
    code, _ = _run(tmp_path, "x.csv", ["croc", "--channel", "kms", "--kappa", "2",
                                       "--mu", "3", "--m", "2"])  # no snr
    assert code == 2
    code, _ = _run(tmp_path, "y.csv", ["croc", "--channel", "kms", "--kappa", "2",
                                       "--mu", "1", "--m", "2", "--snr-db", "10"])
    assert code == 2  # mu < m
    code, _ = _run(tmp_path, "z.csv", ["auc", "--snr-db", "0:10:1"])
    assert code == 2  # missing channel


@pytest.mark.parametrize("args", [
    ["effrate", "--channel", "kms", "--kappa", "2", "--mu", "3", "--m", "2",
     "--snr-db", "inf"],
    ["effrate", "--channel", "kms", "--kappa", "nan", "--mu", "3", "--m", "2",
     "--snr-db", "10"],
    ["auc", "--channel", "fisher", "--m", "2", "--ms", "3", "--snr-db", "nan"],
    # exit 3 before ("cannot convert float infinity to integer")
    ["auc", "--channel", "kms", "--kappa", "1", "--mu", "2", "--m", "1",
     "--snr-db", "0:inf:1"],
    ["auc", "--channel", "kms", "--kappa", "1", "--mu", "2", "--m", "1",
     "--snr-db", "0:1e300:1e-300"],
])
def test_non_finite_parameters_exit_2(tmp_path, capsys, args):
    # a non-finite channel parameter is a usage error, not a traceback (exit 1)
    # or a numerical failure (exit 3)
    code, out = _run(tmp_path, "nf.csv", args)
    assert code == 2
    assert "invalid parameters" in capsys.readouterr().err
    assert not out.exists()


_KMS = ["--channel", "kms", "--kappa", "2", "--mu", "2", "--m", "1", "--snr-db", "0"]


@pytest.mark.parametrize("args", [
    # omega = inf and theta1 = inf: exit 3 while the parameters were accepted
    ["effrate", "--channel", "fisher", "--m", "2", "--ms", "3", "--snr-db=-3100"],
    ["auc", "--channel", "kms", "--kappa", "1e308", "--mu", "2", "--m", "1",
     "--snr-db", "0"],
    # a bad flag value is read as a bad --json value is (argparse's usage
    # message before)
    ["auc", *_KMS, "--u", "abc"],
    ["auc", *_KMS, "--mu", "2.5"],
    ["auc", *_KMS, "--channel", "foo"],
], ids=["omega-inf", "theta1-inf", "u-abc", "mu-2.5", "channel-foo"])
def test_bad_values_are_invalid_parameters(tmp_path, capsys, args):
    code, out = _run(tmp_path, "bad.csv", args)
    assert code == 2
    assert "edsense: invalid parameters: " in capsys.readouterr().err
    assert not out.exists()


def test_one_field_table_types_flags_and_json():
    names = {name for name, _, _ in cli._FIELDS}
    fields = {f.name for f in dataclasses.fields(SweepConfig)}
    qos = {"a", "theta_exp", "block_t", "bandwidth"}  # these set a_exponent
    assert names - qos == fields - {"command", "a_exponent"}
    assert all(action.type is None for action in cli._build_parser()._actions)


@pytest.mark.parametrize("points", ["-1", "0"])
def test_pdf_points_below_one_exit_2(tmp_path, capsys, points):
    # -1 used to end in a numpy traceback (exit 1), 0 in a table with no rows
    code, out = _run(tmp_path, "pts.csv",
                     ["pdf", "--channel", "kms", "--kappa", "2", "--mu", "3",
                      "--m", "2", "--snr-db", "10", "--points", points])
    assert code == 2
    assert "invalid parameters" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_2(tmp_path, capsys, tol):
    # --tol nan used to stop the detection series after one term and print
    # P_md 0.01596 where 0.4379 is right
    code, out = _run(tmp_path, "tol.csv",
                     ["croc", "--channel", "kms", "--kappa", "2", "--mu", "3",
                      "--m", "2", "--snr-db=10", "--u", "2", "--pf-points", "3",
                      "--tol", tol])
    assert code == 2
    assert "invalid parameters" in capsys.readouterr().err
    assert not out.exists()


def _comp_auc_reference(p, u):
    """1 - A = E[sum_{i<u} Pois(gamma/2; i) w_i], w_i = P[Bin(2u-1, 1/2) >=
    u+i], by scipy quadrature over the density of gamma = Gamma(mu-m,
    theta1) + Gamma(m, theta2), itself a convolution quadrature of scipy
    Gamma densities; the Poisson factor is below 1e-30 past gamma = 150."""
    w = [stats.binom.sf(u + i - 1, 2 * u - 1, 0.5) for i in range(u)]

    def density(g):
        return integrate.quad(
            lambda s: stats.gamma.pdf(s, p.mu - p.m, scale=1.0 / p.theta1)
            * stats.gamma.pdf(g - s, p.m, scale=1.0 / p.theta2),
            0.0, g, epsabs=0.0, epsrel=1e-13)[0]

    return integrate.quad(
        lambda g: sum(stats.poisson.pmf(i, g / 2.0) * w[i] for i in range(u)) * density(g),
        0.0, 150.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]


def test_auc_complement_keeps_relative_accuracy(tmp_path):
    # comp_auc is summed directly; taken as 1 - A it was 1.2e-7 relative off
    # at 40 dB and 5.3e-5 at 50 dB
    code, out = _run(tmp_path, "hi.csv",
                     ["auc", "--channel", "kms", "--kappa", "2", "--mu", "3",
                      "--m", "2", "--snr-db", "40:50:10", "--u", "2"])
    assert code == 0
    rows = _rows(out)[1]
    assert [float(r[0]) for r in rows] == [40.0, 50.0]
    for db, comp in rows:
        p = KappaMuShadowedParams(2.0, 3, 2, 10.0 ** (float(db) / 10.0))
        assert math.isclose(float(comp), _comp_auc_reference(p, 2), rel_tol=1e-9), db


def test_numerical_failure_exits_3(tmp_path):
    # u = 6000 puts the threshold for P_f = 1e-3 beyond the bracket's
    # lam = 1e4 limit
    code, _ = _run(tmp_path, "n.csv",
                   ["croc", "--channel", "kms", "--kappa", "2", "--mu", "3",
                    "--m", "2", "--snr-db", "10", "--u", "6000",
                    "--pf-points", "2"])
    assert code == 3


def test_verify_single_cell_and_perturb(tmp_path, monkeypatch):
    args = ["verify", "--channel", "kms", "--kappa", "0", "--mu", "2", "--m", "1",
            "--snr-db", "6", "--seed", "7", "--mc-samples", "100000"]
    code, out = _run(tmp_path, "v.txt", args)
    assert code == 0
    text = out.read_text()
    assert "PASS" in text and "FAIL" not in text
    monkeypatch.setenv("EDSENSE_VERIFY_PERTURB", "1e-3")
    code, out = _run(tmp_path, "v2.txt", args)
    assert code == 1
    assert "FAIL" in out.read_text()


@pytest.mark.parametrize("value", ["abc", "nan"])
def test_verify_rejects_malformed_perturb(value, monkeypatch, capsys):
    # "abc" used to die with a ValueError traceback and "nan" to print FAIL
    # rows, both with exit code 1, which means a failed verification
    monkeypatch.setenv("EDSENSE_VERIFY_PERTURB", value)
    code = main(["verify", "--channel", "kms", "--kappa", "0", "--mu", "2", "--m", "1",
                 "--snr-db", "6", "--mc-samples", "10000", "--out", "-"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("edsense: invalid parameters: ")


def test_verify_beyond_the_fisher_reference_exits_3(capsys):
    # below m_s of about 0.03 (m = 2, 10 dB) the Fisher tail past the cut lies
    # beyond the float range, so the reference cannot be formed
    code = main(["verify", "--channel", "fisher", "--m", "2", "--ms", "0.03",
                 "--snr-db", "10", "--u", "2", "--mc-samples", "10000", "--out", "-"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "no finite cutoff" in captured.err


def test_verify_heavy_shadowing_cell(tmp_path):
    # the reference cutoff used to drop up to 1e-2 of the Fisher mass at
    # m_s = 0.3, so the quadrature missed P_d and the AUC by 1.7e-5
    code, out = _run(tmp_path, "v.txt",
                     ["verify", "--channel", "fisher", "--m", "2", "--ms", "0.3",
                      "--snr-db", "10", "--u", "2"])
    assert code == 0
    _, body = _rows(out)
    assert [row[0] for row in body] == ["avg_pd_f", "avg_auc_f", "eff_rate_f"]
    assert all(row[-1] == "PASS" for row in body)


def test_stdout_output(capsys):
    code = main(["pdf", "--channel", "fisher", "--m", "1", "--ms", "2",
                 "--snr-db", "0", "--points", "5", "--out", "-"])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.startswith("# edsense ")
    assert "gamma,pdf,cdf" in captured


# Imports edsense, runs the CLI on the given arguments (none: import only) and
# prints the exit code and the scipy modules loaded.
_SCIPY_PROBE = """
import json, sys
import edsense
code = 0
if len(sys.argv) > 1:
    from edsense.cli import main
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _probe_scipy(args):
    env = dict(os.environ)
    src = str(Path(edsense.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *args], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    code, scipy_modules = json.loads(done.stdout.splitlines()[-1])
    return code, scipy_modules


@pytest.mark.parametrize("args", [
    [],
    ["croc", "--channel", "kms", "--kappa", "2", "--mu", "3", "--m", "2",
     "--snr-db", "10", "--pf-points", "4"],
    ["croc", "--channel", "fisher", "--m", "2", "--ms", "3", "--snr-db", "5",
     "--pf-points", "4"],
    ["auc", "--channel", "kms", "--kappa", "2", "--mu", "2", "--m", "1",
     "--snr-db", "0:10:5"],
    ["effrate", "--channel", "fisher", "--m", "2", "--ms", "3",
     "--snr-db", "0:10:5", "--a", "1"],
    ["pdf", "--channel", "kms", "--kappa", "1", "--mu", "2", "--m", "1",
     "--snr-db", "6", "--points", "20"],
], ids=["import", "croc-kms", "croc-fisher", "auc", "effrate", "pdf"])
def test_no_scipy_unless_verifying(args, tmp_path):
    if args:
        args = args + ["--out", str(tmp_path / "out.csv")]
    code, scipy_modules = _probe_scipy(args)
    assert code == 0
    assert scipy_modules == []


def test_verify_loads_scipy(tmp_path):
    code, scipy_modules = _probe_scipy(
        ["verify", "--channel", "kms", "--kappa", "0", "--mu", "2", "--m", "1",
         "--snr-db", "6", "--seed", "7", "--mc-samples", "100000",
         "--out", str(tmp_path / "v.txt")])
    assert code == 0
    assert "scipy.integrate" in scipy_modules and "scipy.special" in scipy_modules
    assert not [m for m in scipy_modules if m.startswith("scipy.stats")]
