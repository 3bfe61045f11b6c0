"""The benchmark workloads and their correctness gates.

Each workload builds its shared objects in ``setup``, derives the inputs of
op ``i`` from the run seed alone (``inputs``), runs one op against the
program (``op``, the timed part) and checks its outputs against an
independent oracle (``gate``, untimed; returns a problem string or None).
``finish`` applies the run-level gates.  Gates use only public API; where
a closed form exists (moments of x and x^2 from the Jacobi matrix, the
Chebyshev and Hermite kernels) they compare against it, computed here.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
from scipy.special import eval_hermitenorm, gammaln

# Program functions are called through their modules, so that the wrappers a
# traced run installs there see the benchmark's own calls too.
from opelab import bounds, cli, functions, linstat, measures, sampler
from opelab.kernel import CDKernel
from opelab.linstat import ScaledStatistic
from opelab.sampler import RngStream

FAMILIES = ("chebyshev", "legendre", "varying_gaussian")


def make_measure(family: str, n: int):
    if family == "varying_gaussian":
        return measures.varying_gaussian(n)
    return getattr(measures, family)()


def offdiag(family: str, n: int, count: int) -> np.ndarray:
    """Closed-form b_1..b_count of the orthonormal recurrence (all a_k = 0)."""
    k = np.arange(1, count + 1, dtype=float)
    if family == "chebyshev":
        b = np.full(count, 0.5)
        b[0] = 1.0 / math.sqrt(2.0)
        return b
    if family == "legendre":
        return k / np.sqrt(4.0 * k * k - 1.0)
    return np.sqrt(k / float(n))


def square_oracles(family: str, n: int):
    """(E X_{x^2}, Var X_{x^2}, Var X_x) from the Jacobi matrix J.

    E X_{x^2} = sum_{k<n} (J^2)_{kk}; with a_k = 0 the variance forms reduce
    to b_n^2 b_{n+1}^2 + b_{n-1}^2 b_n^2 and b_n^2.
    """
    b = np.concatenate(([0.0], offdiag(family, n, n + 1)))   # b[k] = b_k
    mean = float(np.sum(b[:n] ** 2 + b[1:n + 1] ** 2))
    var_sq = b[n] ** 2 * b[n + 1] ** 2 + b[n - 1] ** 2 * b[n] ** 2
    return mean, float(var_sq), float(b[n] ** 2)


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


class HkpvMC:
    """One exact HKPV replica of the Chebyshev ensemble at n = 50 per op."""

    name = "hkpv_mc"
    trace_ops_per_s = 8.0    # traced ops per second of --seconds
    n = 50
    warmup_stream = 2**62    # far from the op substreams 0, 1, 2, ...

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self):
        self.kern = CDKernel(measures.chebyshev(), self.n)
        self.stats = {"square": functions.get("square"),
                      "smooth_bump": functions.get("smooth_bump")}
        self.mean = {k: linstat.exact_mean(self.kern, f) for k, f in self.stats.items()}
        self.var = {k: linstat.exact_variance(self.kern, f) for k, f in self.stats.items()}
        # the first sample builds the proposal envelope
        sampler.sample_ope(self.kern, RngStream(self.seed, self.warmup_stream))
        self.values = {}   # substream -> (X_square, X_bump); reruns overwrite

    def inputs(self, i):
        return RngStream(self.seed, i)

    def op(self, rng):
        return sampler.sample_ope(self.kern, rng)

    def gate(self, rng, sample):
        pts = np.asarray(sample.points)
        self.values[rng.stream_index] = [float(np.sum(f(pts))) for f in self.stats.values()]
        if pts.shape != (self.n,) or np.any(np.diff(pts) < 0.0) or np.any(np.abs(pts) > 1.0):
            return f"substream {rng.stream_index}: sample not sorted inside [-1, 1]"
        return None

    def finish(self) -> tuple[int, list]:
        """Run-level gates: the exact moments of X_{x^2} against their closed
        forms, and the Monte Carlo mean (within 4 SE) and variance (within
        5 SE) of X_{x^2} and X_bump against the exact moments.  The variance
        gate is what catches a sampler that keeps the one-point marginal but
        loses the repulsion."""
        mean_cf, var_cf, _ = square_oracles("chebyshev", self.n)
        problems = [f"{label} = {got!r}, closed form {want!r}"
                    for label, got, want in (("exact_mean(x^2)", self.mean["square"], mean_cf),
                                             ("exact_variance(x^2)", self.var["square"], var_cf))
                    if not rel(got, want) <= 1e-10]
        vals = np.array(list(self.values.values()))
        if len(vals) < 2:
            return 4, problems + ["fewer than 2 replicas for the Monte Carlo gates"]
        count = len(vals)
        for j, name in enumerate(self.stats):
            x = vals[:, j]
            se_mean = x.std(ddof=1) / math.sqrt(count)
            if not abs(x.mean() - self.mean[name]) <= 4.0 * se_mean:
                problems.append(f"MC mean of X_{name} is more than 4 SE from exact_mean")
            var = x.var(ddof=1)
            se_var = math.sqrt(max(np.mean((x - x.mean()) ** 4) - var * var, 0.0) / count)
            if not abs(var - self.var[name]) <= 5.0 * se_var:
                problems.append(f"MC variance of X_{name} is more than 5 SE from exact_variance")
        return 4, problems


class MomentsCold:
    """The `stats` request for one family over n in {100, 400}, cold caches.

    Not listed in BENCHMARK.json: its BLAS-bound ops do not slow down with
    the machine-speed probe of run.py on a shared host, so its figures stay
    unsteady there.  Run it by name.
    """

    name = "moments_cold"
    trace_ops_per_s = 0.12
    ns = (100, 400)
    alpha = 0.5

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self):
        self.square = functions.get("square")
        self.identity = functions.get("identity")
        self.bump = functions.get("smooth_bump")
        for family in FAMILIES:          # loads every code path once, at small n
            self._stats(family, 8, 0.1)

    def inputs(self, i):
        return FAMILIES[i % len(FAMILIES)], float(op_rng(self.seed, i).uniform(0.05, 0.3))

    def _stats(self, family, n, t):
        kern = CDKernel(make_measure(family, n), n)   # fresh: rule caches start empty
        sq = self.square
        return (kern, linstat.exact_mean(kern, sq), linstat.exact_variance(kern, sq),
                linstat.log_mgf(kern, sq, t), linstat.log_mgf(kern, sq, -t),
                linstat.exact_scaled_variance(kern, ScaledStatistic(self.bump, self.alpha, 0.0)))

    def op(self, inp):
        family, t = inp
        return {n: self._stats(family, n, t) for n in self.ns}

    def gate(self, inp, out):
        family, t = inp
        for n, (kern, mean, var, lp, lm, svar) in out.items():
            mean_cf, var_cf, var_x_cf = square_oracles(family, n)
            # the identity's variance integrand has degree 2n: n + 1 nodes are exact
            var_x = linstat.exact_variance(kern, self.identity, n + 1)
            for label, got, want in (("E X_x^2", mean, mean_cf), ("Var X_x^2", var, var_cf),
                                     ("Var X_x", var_x, var_x_cf)):
                if not rel(got, want) <= 1e-10:
                    return f"{family} n={n}: {label} = {got!r}, closed form {want!r}"
            # Jensen: log E e^{tX} >= t E X for either sign of t
            tol = 1e-9 * (1.0 + abs(t * mean))
            if not (lp >= t * mean - tol and lm >= -t * mean - tol):
                return f"{family} n={n}: log_mgf(+-{t}) below the Jensen bound"
            b_n = offdiag(family, n, n)[-1]
            cap = min(2.0 * n * self.bump.sup_norm ** 2,
                      self.bump.lipschitz ** 2 * b_n ** 2 * float(n) ** (2 * self.alpha))
            if not 0.0 < svar <= cap * (1.0 + 1e-9):
                return f"{family} n={n}: scaled variance {svar!r} outside (0, {cap!r}]"
        return None

    def finish(self):
        return 0, []


class BoundSweep:
    """One bounded_suite member against nine shared, warm kernels."""

    name = "bound_sweep"
    trace_ops_per_s = 12.0
    ns = (5, 20, 50)
    alphas = (0.3, 0.5, 0.8)

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self):
        self.suite = functions.bounded_suite()
        self.kernels = [(CDKernel(make_measure(fam, n), n), offdiag(fam, n, n)[-1])
                        for fam in FAMILIES for n in self.ns]
        f = self.suite[0]
        for kern, _ in self.kernels:     # fills each kernel's m = 2n + 64 rule
            m = 2 * kern.n + 64
            bounds.lemma32_check(kern, f, 0.1, m)
            linstat.exact_scaled_variance(kern, ScaledStatistic(f, 0.5, 0.0), m)

    def inputs(self, i):
        rng = op_rng(self.seed, i)
        f = self.suite[int(rng.integers(len(self.suite)))]
        k = len(self.kernels)
        ts = rng.uniform(-1.0, 1.0, k) * 0.999 / (3.0 * f.sup_norm)
        alphas = rng.choice(self.alphas, k)
        return f, ts.tolist(), alphas.tolist()

    def op(self, inp):
        f, ts, alphas = inp
        out = []
        for (kern, _), t, alpha in zip(self.kernels, ts, alphas):
            m = 2 * kern.n + 64
            _, _, holds = bounds.lemma32_check(kern, f, t, m)
            stat = ScaledStatistic(f, alpha, 0.0)
            out.append((holds, linstat.exact_scaled_variance(kern, stat, m)))
        return out

    def gate(self, inp, out):
        f, ts, alphas = inp
        for (kern, b_n), alpha, (holds, var) in zip(self.kernels, alphas, out):
            n = kern.n
            if not holds:
                return f"{kern.measure.family} n={n}: Lemma 3.2 violated for {f.name}"
            generic = 2.0 * n * f.sup_norm ** 2
            lipschitz = f.lipschitz ** 2 * b_n ** 2 * float(n) ** (2.0 * alpha)
            if not (-1e-12 <= var <= generic and var <= lipschitz * (1.0 + 1e-9)):
                return (f"{kern.measure.family} n={n}: scaled variance {var!r} over "
                        f"the cap (generic {generic!r}, Lipschitz {lipschitz!r})")
        return None

    def finish(self):
        return 0, []


def _tilde_chebyshev(n: int, x, y) -> np.ndarray:
    """sqrt(w(x) w(y)) K_n(x, y) for the arcsine weight: p_k = sqrt(2) cos(k arccos x)."""
    a, b = np.arccos(x), np.arccos(y)
    k = np.arange(1, n)
    kern = 1.0 + 2.0 * np.sum(np.cos(np.multiply.outer(a, k)) * np.cos(np.multiply.outer(b, k)),
                              axis=-1)
    return kern / (math.pi * np.sqrt(np.sin(a) * np.sin(b)))


def _tilde_gaussian(n: int, big_n: int, x, y) -> np.ndarray:
    """Same for the weight N(0, 1/big_n): p_k(x) = He_k(sqrt(big_n) x) / sqrt(k!)."""
    k = np.arange(n)

    def half(z):   # sqrt(w(z)) p_k(z), one row per point
        z = np.asarray(z, dtype=float)[..., None]
        log_sw = 0.25 * math.log(big_n / (2.0 * math.pi)) - 0.25 * big_n * z * z
        he = eval_hermitenorm(k, math.sqrt(big_n) * z)
        return np.exp(log_sw - 0.5 * gammaln(k + 1.0)) * he

    return np.sum(half(x) * half(y), axis=-1)


def universality_oracle(raw: dict) -> dict:
    """n -> (universality_error, totik_error) of a universality config, from
    closed-form kernels (defaults of opelab.asymptotics: a 41 x 41 grid on
    [-2, 2]^2, 201 points on the middle half of the equilibrium support)."""
    family = raw["measure"]["family"]
    x0 = float(raw.get("statistic", {}).get("xstar", 0.0))
    out = {}
    for n in raw["n_grid"]:
        if family == "chebyshev1st":
            tilde = lambda x, y, n=n: _tilde_chebyshev(n, x, y)
            radius = 1.0
            rho = lambda x: 1.0 / (math.pi * np.sqrt(1.0 - x * x))
        elif family == "varying_gaussian":
            big_n = int(raw["measure"]["params"]["n"])
            tilde = lambda x, y, n=n, big_n=big_n: _tilde_gaussian(n, big_n, x, y)
            radius = 2.0 * math.sqrt(n / big_n)   # max_k 2 b_k over the first n
            rho = lambda x, r=radius: 2.0 / (math.pi * r * r) * np.sqrt(r * r - x * x)
        else:
            raise ValueError(f"no closed-form kernel for family {family!r}")
        grid = np.linspace(-2.0, 2.0, 41)
        a, b = np.meshgrid(grid, grid, indexing="ij")
        k0 = float(tilde(np.array(x0), np.array(x0)))
        universality = np.max(np.abs(tilde(x0 + a / k0, x0 + b / k0) / k0 - np.sinc(b - a)))
        x = np.linspace(-0.5 * radius, 0.5 * radius, 201)
        totik = np.max(np.abs(tilde(x, x) / n - rho(x)))
        out[n] = (float(universality), float(totik))
    return out


class CliReport:
    """In-process cli.run of two committed example configs, each into a fresh dir."""

    name = "cli_report"
    trace_ops_per_s = 0.12
    configs = ("report_chebyshev.json", "universality_varying_gaussian.json")

    def __init__(self, root: Path, seed: int):
        self.raws = [json.loads((root / "configs" / c).read_text()) for c in self.configs]
        self.work = root / ".opebench_work"
        self.reference = None
        self.oracle = [universality_oracle(raw) for raw in self.raws]

    def setup(self):
        self.work.mkdir(exist_ok=True)
        for raw in self.raws:            # same code paths at a tiny n
            small = dict(copy.deepcopy(raw), n_grid=[10])
            out = tempfile.mkdtemp(dir=self.work)
            try:
                cli.run(cli.ExperimentConfig.from_dict(small), out)
            finally:
                shutil.rmtree(out, ignore_errors=True)

    def inputs(self, i):
        # the output dirs are made here, outside the timed op
        return [(copy.deepcopy(raw), tempfile.mkdtemp(dir=self.work)) for raw in self.raws]

    def op(self, inp):
        return [cli.run(cli.ExperimentConfig.from_dict(raw), out) for raw, out in inp]

    def gate(self, inp, out):
        try:
            hashes = [m["outputs"] for m in out]
            if self.reference is None:
                self.reference = hashes
            if hashes != self.reference:
                return "output hashes differ from the first op's"
            for (_, out_dir), manifest, oracle in zip(inp, out, self.oracle):
                for name in manifest["outputs"]:
                    if name.endswith(".csv") and not _csv_finite(Path(out_dir) / name):
                        return f"{name}: non-finite value"
                with open(Path(out_dir) / "universality.csv", newline="") as fh:
                    rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
                got = {int(n): (ue, te) for n, ue, te in rows}
                for n, want in oracle.items():
                    if not np.allclose(got.get(n, (np.nan, np.nan)), want, rtol=1e-9, atol=1e-12):
                        return f"universality.csv n={n}: {got.get(n)} != closed form {want}"
            return None
        finally:
            for _, out_dir in inp:
                shutil.rmtree(out_dir, ignore_errors=True)

    def finish(self):
        shutil.rmtree(self.work, ignore_errors=True)
        return 0, []


def _csv_finite(path: Path) -> bool:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return bool(rows) and all(math.isfinite(float(v)) for row in rows for v in row)


WORKLOADS = {w.name: w for w in (HkpvMC, MomentsCold, BoundSweep, CliReport)}
