"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints exactly one PASS/FAIL line
(through the capture), and enforces its runtime budget.  Shared sampling work
stays inside the test that needs it so the budgets are honest.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as spstats

from opelab import cli, functions, measures
from opelab.asymptotics import (
    alpha_nevai_functional,
    arcsine_density,
    concentration_mass,
    decay_diagnostic,
    nevai_integral,
    totik_error,
    universality_error,
)
from opelab.bounds import bound_global, lemma32_check, wilson_interval
from opelab.kernel import CDKernel, kernel_cd, kernel_sum, reproducing_residual
from opelab.linstat import (
    ScaledStatistic,
    exact_mean,
    exact_scaled_variance,
    exact_variance,
    log_mgf,
)
from opelab.sampler import RngStream, sample_matrix_model_batch, sample_ope_batch

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FAMILIES = {
    "chebyshev": measures.chebyshev,
    "legendre": measures.legendre,
    "varying_gaussian_4": lambda: measures.varying_gaussian(4),
    "varying_gaussian_16": lambda: measures.varying_gaussian(16),
}

SUITE = functions.bounded_suite(50)


def _report(capsys, number, name, ok, elapsed, budget, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        extra = f" [{detail}]" if detail else ""
        print(f"ACCEPTANCE {number:2d} {name}: {status} "
              f"({elapsed:.2f}s / budget {budget:.0f}s){extra}")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s"


def test_criterion_01_trace_identity(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for make in FAMILIES.values():
        mu = make()
        for n in (1, 5, 20, 100):
            # sum_i w_i K(x_i, x_i) via the sqrt-weight-scaled design
            _, _, S = mu.gauss_rule_scaled(max(n, 2), n)
            trace = float(np.sum(S * S))
            worst = max(worst, abs(trace - n) / n)
    ok = worst <= 1e-10
    _report(capsys, 1, "trace identity", ok, time.perf_counter() - t0, 5.0,
            f"worst rel dev {worst:.2e}")


def test_criterion_02_reproducing_property(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for make in FAMILIES.values():
        kern = CDKernel(make(), 50)
        for _ in range(100):
            x, y = rng.uniform(-0.9, 0.9, 2)
            res = reproducing_residual(kern, x, y, m=50)
            rel = res / (1.0 + abs(kernel_sum(kern, x, y)))
            worst = max(worst, rel)
    ok = worst <= 1e-9
    _report(capsys, 2, "reproducing property", ok, time.perf_counter() - t0,
            10.0, f"worst residual {worst:.2e}")


def test_criterion_03_cd_formula(capsys):
    t0 = time.perf_counter()
    kern = CDKernel(measures.chebyshev(), 50)
    rng = np.random.default_rng(3)
    worst, checked = 0.0, 0
    while checked < 1000:
        x, y = rng.uniform(-0.95, 0.95, 2)
        if abs(x - y) < 1e-3:
            continue
        a, b = kernel_cd(kern, x, y), kernel_sum(kern, x, y)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
        checked += 1
    ok = worst <= 1e-8
    _report(capsys, 3, "CD formula agreement", ok, time.perf_counter() - t0,
            5.0, f"worst rel err {worst:.2e}")


def test_criterion_04_variance_oracle(capsys):
    t0 = time.perf_counter()
    ident = functions.get("identity")
    devs = []
    for n in (2, 5, 20):
        v = exact_variance(CDKernel(measures.chebyshev(), n), ident)
        devs.append(abs(v - 0.25))
    v = exact_variance(CDKernel(measures.legendre(), 2), ident)
    devs.append(abs(v - 4.0 / 15.0))
    worst = max(devs)
    ok = worst <= 1e-10
    _report(capsys, 4, "variance oracle b_n^2", ok, time.perf_counter() - t0,
            5.0, f"worst abs dev {worst:.2e}")


def test_criterion_05_generic_variance_bound(capsys):
    t0 = time.perf_counter()
    violations = 0
    for mk in (measures.chebyshev, measures.legendre, measures.varying_gaussian):
        for n in (5, 50):
            mu = mk(n) if mk is measures.varying_gaussian else mk()
            kern = CDKernel(mu, n)
            m = 2 * n + 64
            for f in SUITE:
                cap = 2.0 * n * f.sup_norm ** 2
                if exact_variance(kern, f, m) > cap:
                    violations += 1
                stat = ScaledStatistic(f, 0.5, 0.0)
                if exact_scaled_variance(kern, stat, m) > cap:
                    violations += 1
    ok = violations == 0
    _report(capsys, 5, "generic variance bound", ok, time.perf_counter() - t0,
            60.0, f"{violations} violations over {len(SUITE) * 12} checks")


def test_criterion_06_lipschitz_variance_bound(capsys):
    t0 = time.perf_counter()
    violations = 0
    checks = 0
    for mk in (measures.chebyshev, measures.legendre, measures.varying_gaussian):
        for n in (5, 50):
            mu = mk(n) if mk is measures.varying_gaussian else mk()
            kern = CDKernel(mu, n)
            bn = float(mu.recurrence(n).offdiag[n - 1])
            m = 2 * n + 64
            for alpha in (0.0, 0.3, 0.5, 0.8):
                for f in SUITE:
                    var = exact_scaled_variance(kern, ScaledStatistic(f, alpha, 0.0), m)
                    cap = f.lipschitz ** 2 * bn * bn * float(n) ** (2.0 * alpha)
                    checks += 1
                    if var > cap * (1.0 + 1e-9):
                        violations += 1
    ok = violations == 0
    _report(capsys, 6, "Lipschitz variance bound", ok, time.perf_counter() - t0,
            60.0, f"{violations} violations over {checks} checks")


def test_criterion_07_log_det_linearization(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    violations = 0
    for mk in (measures.chebyshev, measures.legendre, measures.varying_gaussian):
        for n in (5, 20, 50):
            mu = mk(n) if mk is measures.varying_gaussian else mk()
            kern = CDKernel(mu, n)
            m = 2 * n + 64
            for _ in range(200):
                f = SUITE[rng.integers(len(SUITE))]
                t = rng.uniform(-1.0, 1.0) * 0.999 / (3.0 * f.sup_norm)
                lhs, rhs, holds = lemma32_check(kern, f, t, m)
                if not holds:
                    violations += 1
    ok = violations == 0
    _report(capsys, 7, "log-det linearization", ok, time.perf_counter() - t0,
            180.0, f"{violations} violations over 1800 checks")


def test_criterion_08_mgf_cumulants(capsys):
    t0 = time.perf_counter()
    h = 1e-3
    worst = 0.0
    for mu, fname, n in ((measures.chebyshev(), "square", 10),
                         (measures.legendre(), "cosine", 8)):
        kern = CDKernel(mu, n)
        f = functions.get(fname)
        lp, lm = log_mgf(kern, f, h), log_mgf(kern, f, -h)
        mean, var = exact_mean(kern, f), exact_variance(kern, f)
        worst = max(worst, abs((lp - lm) / (2 * h) - mean) / abs(mean))
        worst = max(worst, abs((lp + lm) / (h * h) - var) / var)
    ok = worst <= 1e-4
    _report(capsys, 8, "MGF cumulants", ok, time.perf_counter() - t0, 30.0,
            f"worst rel dev {worst:.2e}")


def test_criterion_09_monte_carlo_concentration(capsys):
    t0 = time.perf_counter()
    n, replicas = 50, 10_000
    kern = CDKernel(measures.chebyshev(), n)
    samples = sample_ope_batch(kern, RngStream(20240815, 0), replicas)
    failures = []
    for fname in ("square", "smooth_bump"):
        f = functions.get(fname)
        mean = exact_mean(kern, f)
        vals = np.sum(f(samples), axis=1)
        for eps in (0.1, 0.3):
            exceed = int(np.sum(np.abs(vals - mean) / n >= eps))
            _, hi = wilson_interval(exceed, replicas)
            rhs = bound_global(n, f.sup_norm, eps).rhs
            if hi > rhs:
                failures.append((fname, eps, hi, rhs))
    ok = not failures
    _report(capsys, 9, "Monte Carlo concentration", ok, time.perf_counter() - t0,
            300.0, f"failures: {failures}" if failures else "4/4 dominated")


def test_criterion_10_sampler_cross_validation(capsys):
    t0 = time.perf_counter()
    n, replicas = 10, 10_000
    kern = CDKernel(measures.varying_gaussian(n), n)
    want = exact_mean(kern, functions.get("square"))
    hkpv = np.sum(sample_ope_batch(kern, RngStream(10, 0), replicas) ** 2, axis=1)
    tri = np.sum(sample_matrix_model_batch(measures.varying_gaussian(n), n, RngStream(10, 1),
                                           replicas) ** 2, axis=1)
    ks = spstats.ks_2samp(hkpv, tri).statistic
    devs = [abs(np.mean(v) - want) / (np.std(v, ddof=1) / math.sqrt(replicas))
            for v in (hkpv, tri)]
    ok = ks <= 0.02 and max(devs) <= 3.0
    _report(capsys, 10, "sampler cross-validation", ok, time.perf_counter() - t0,
            300.0, f"KS {ks:.4f}, mean devs {devs[0]:.2f}/{devs[1]:.2f} SE")


def test_criterion_11_bulk_universality(capsys):
    t0 = time.perf_counter()
    mu = measures.chebyshev()
    e50 = universality_error(CDKernel(mu, 50), 0.0)
    e200 = universality_error(CDKernel(mu, 200), 0.0)
    ok = e200 <= 0.05 and e200 < e50
    _report(capsys, 11, "bulk universality", ok, time.perf_counter() - t0,
            30.0, f"sup err {e200:.4f} at n=200 (n=50: {e50:.4f})")


def test_criterion_12_density_convergence(capsys):
    t0 = time.perf_counter()
    mu, rho = measures.chebyshev(), arcsine_density()
    errs = [totik_error(CDKernel(mu, n), rho, (-0.5, 0.5)) for n in (50, 100, 200)]
    ok = errs[0] > errs[1] > errs[2] and errs[2] <= 0.02 / math.pi
    _report(capsys, 12, "density convergence", ok, time.perf_counter() - t0,
            30.0, f"errors {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f}")


def test_criterion_13_localization_diagnostics(capsys):
    t0 = time.perf_counter()
    mu = measures.chebyshev()
    f = functions.get("smooth_bump")
    alpha, xstar = 0.5, 0.0
    n_grid = [50, 100, 200, 400]
    nevai, anev, svar, cmass = [], [], [], []
    for n in n_grid:
        kern = CDKernel(mu, n)
        nevai.append(abs(nevai_integral(kern, f, xstar)))
        anev.append(alpha_nevai_functional(kern, f, alpha, xstar))
        svar.append(float(n) ** (alpha - 1.0)
                    * exact_scaled_variance(kern, ScaledStatistic(f, alpha, xstar)))
        cmass.append(concentration_mass(kern, xstar, 0.1))
    diags = [decay_diagnostic(n_grid, series) for series in (nevai, anev, svar)]
    decay_ok = all(d.is_decreasing and d.fit_slope < 0 for d in diags)
    mass_ok = all(a < b for a, b in zip(cmass, cmass[1:])) and cmass[-1] <= 1.0 + 1e-9
    ok = decay_ok and mass_ok
    _report(capsys, 13, "localization diagnostics", ok, time.perf_counter() - t0,
            180.0, f"slopes {[round(d.fit_slope, 3) for d in diags]}, "
                   f"mass {cmass[0]:.3f}->{cmass[-1]:.3f}")


def test_criterion_14_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    config = str(CONFIG_DIR / "sample_chebyshev.json")
    payload = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        assert cli.main(["sample", "--config", config, "--out", str(out)]) == 0
        payload.append((out / "samples_n8.csv").read_bytes())
    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    ok = payload[0] == payload[1] and "samples_n8.csv" in manifest["outputs"]
    _report(capsys, 14, "determinism", ok, time.perf_counter() - t0, 60.0,
            "byte-identical CSV" if ok else "outputs differ")
