"""Experiment runner: seeded, reproducible sweeps over all library facilities.

Configs are JSON; each subcommand maps to one experiment family.  All numeric
CSV output uses 17-significant-digit formatting so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .asymptotics import (
    _nevai_points,
    _universality_points,
    arcsine_density,
    concentration_mass,
    nevai_integral,
    alpha_nevai_functional,
    semicircle_density,
    totik_error,
    universality_error,
)
from .bounds import constant_A, tail_probability_mc
from .errors import ConfigurationError, DomainError, OpelabError
from .functions import from_spec
from .kernel import CDKernel
from .linstat import ScaledStatistic, exact_mean, exact_scaled_variance, exact_variance
from .measures import Measure, config_number
from .sampler import (RngStream, check_sampleable, export_samples, sample_gue_batch,
                      sample_ope_batch)

_EXPERIMENTS = ("sample", "stats", "bounds", "nevai", "universality", "report")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _section(raw: dict, key: str, default, kind: type):
    value = raw.get(key, default)
    if not isinstance(value, kind):
        json_kind = "object" if kind is dict else "array"
        raise ConfigurationError(f"{key} must be a JSON {json_kind}, got {value!r}")
    return value


@dataclass
class ExperimentConfig:
    experiment: str
    measure: Measure
    n_grid: list
    statistic: ScaledStatistic
    f_spec: object
    replicas: int = 1
    seed: int = 0
    epsilons: list = field(default_factory=lambda: [0.1, 0.3])
    normalization: str | float = "n"
    method: str = "hkpv"
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config must be a JSON object, got {raw!r}")
        try:
            experiment = raw["experiment"].lower()
        except (KeyError, AttributeError):
            raise ConfigurationError("config must name an 'experiment'") from None
        if experiment not in _EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {experiment!r}; one of {_EXPERIMENTS}")
        measure = Measure.from_json(_section(raw, "measure", {"family": "chebyshev1st"}, dict))
        n_grid = [config_number(k, "n_grid entry", integer=True)
                  for k in _section(raw, "n_grid", [10], list)]
        if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])) \
                or any(k < 1 for k in n_grid):
            raise ConfigurationError("n_grid must be nonempty and strictly increasing")
        stat_raw = _section(raw, "statistic",
                            {"f": "identity", "alpha": 0.0, "xstar": 0.0}, dict)
        f_spec = stat_raw.get("f", "identity")
        f = from_spec(f_spec)
        alpha = config_number(stat_raw.get("alpha", 0.0), "statistic.alpha")
        if not (0.0 <= alpha < 1.0):
            raise ConfigurationError("statistic.alpha must lie in [0, 1)")
        statistic = ScaledStatistic(f, alpha,
                                    config_number(stat_raw.get("xstar", 0.0), "statistic.xstar"))
        # the fewest replicas and the default: bounds needs 10^3 for its
        # Monte Carlo tails (tail_probability_mc)
        min_replicas = 1000 if experiment == "bounds" else 1
        replicas = config_number(raw.get("replicas", min_replicas), "replicas", integer=True)
        if replicas < min_replicas:
            raise ConfigurationError(f"{experiment} needs replicas >= {min_replicas}")
        seed = config_number(raw.get("seed", 0), "seed", integer=True)
        if not (0 <= seed < 2**64):
            raise ConfigurationError("seed must be u64")
        eps = [config_number(e, "epsilons entry")
               for e in _section(raw, "epsilons", [0.1, 0.3], list)]
        if any(e <= 0 for e in eps):
            raise ConfigurationError("epsilons must be positive")
        normalization = raw.get("normalization", "n")
        if normalization != "n":
            normalization = config_number(normalization, "normalization")
            if normalization <= 0.0:
                raise ConfigurationError(
                    f"normalization must be 'n' or a positive number, got {normalization!r}")
        method = raw.get("method", "hkpv")
        if method not in ("hkpv", "tridiagonal"):
            raise ConfigurationError("method must be 'hkpv' or 'tridiagonal'")
        if experiment in ("nevai", "report"):
            for n in n_grid:
                try:
                    _nevai_points(measure.support, _nevai_alpha(statistic), statistic.xstar, n)
                except DomainError as exc:
                    raise ConfigurationError(f"alpha-Nevai grid at n={n}: {exc}") from None
        if experiment in ("universality", "report"):
            for n in n_grid:
                try:
                    _universality_points(CDKernel(measure, n), statistic.xstar)
                except DomainError as exc:
                    raise ConfigurationError(f"universality grid at n={n}: {exc}") from None
        if experiment in ("sample", "bounds"):
            # bounds draws its Monte Carlo replicas with HKPV whatever the method
            check_sampleable(measure, method if experiment == "sample" else "hkpv")
        return cls(experiment, measure, n_grid, statistic, f_spec, replicas,
                   seed, eps, normalization, method, raw)


def _load_config(path: str) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, (str, int, bool)) else _fmt(v)
                             for v in row])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Experiment bodies: each returns a list of written file names
# ---------------------------------------------------------------------------

def _run_sample(cfg: ExperimentConfig, out: Path) -> list:
    files = []
    for n in cfg.n_grid:
        rng = RngStream(cfg.seed, 0)
        if cfg.method == "tridiagonal":
            samples = sample_gue_batch(n, rng, cfg.replicas, cfg.measure.gaussian_n)
        else:
            samples = sample_ope_batch(CDKernel(cfg.measure, n), rng, cfg.replicas)
        path = out / f"samples_n{n}.csv"
        export_samples(path, samples, cfg.measure, cfg.seed, cfg.method)
        files.append(path.name)
    return files


def _nevai_alpha(s: ScaledStatistic) -> float:
    """The nevai diagnostics' alpha: the statistic's, or 0.5 if that is 0."""
    return s.alpha if s.alpha > 0 else 0.5


def _scaled_variance(kern: CDKernel, s: ScaledStatistic) -> float:
    """exact_scaled_variance, computed once per statistic on a kernel."""
    return kern.cached(("scaled_variance", s), lambda: exact_scaled_variance(kern, s))


def _stats_rows(cfg: ExperimentConfig, kern: CDKernel) -> list:
    s = cfg.statistic
    mean = exact_mean(kern, s.f)
    var = exact_variance(kern, s.f)
    return [[kern.n, mean, var, _scaled_variance(kern, s) if s.alpha > 0 else var]]


def _bounds_rows(cfg: ExperimentConfig, kern: CDKernel) -> list:
    norm = float(kern.n) if cfg.normalization == "n" else cfg.normalization
    results = tail_probability_mc(kern, cfg.statistic.f, cfg.epsilons, cfg.replicas,
                                  RngStream(cfg.seed, 0), norm)
    return [[kern.n, eps, res["empirical"], res["wilson"][0], res["wilson"][1],
             res["bound"].rhs, res["bound"].regime, res["dominated"]]
            for eps, res in zip(cfg.epsilons, results)]


def _nevai_rows(cfg: ExperimentConfig, kern: CDKernel) -> list:
    s = cfg.statistic
    alpha = _nevai_alpha(s)
    ni = nevai_integral(kern, s.f, s.xstar)
    an = alpha_nevai_functional(kern, s.f, alpha, s.xstar)
    cm = concentration_mass(kern, s.xstar, 0.1)
    sv = float(kern.n) ** (alpha - 1.0) * _scaled_variance(
        kern, ScaledStatistic(s.f, alpha, s.xstar))
    return [[kern.n, ni, an, cm, sv]]


def _universality_rows(cfg: ExperimentConfig, kern: CDKernel) -> list:
    ue = universality_error(kern, cfg.statistic.xstar)
    rho = (arcsine_density(cfg.measure.support) if cfg.measure.compact
           else semicircle_density(cfg.measure, kern.n))
    lo, hi = rho.support   # the middle half of the equilibrium support
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    te = totik_error(kern, rho, (mid - 0.5 * half, mid + 0.5 * half))
    return [[kern.n, ue, te]]


# The per-n tables: file, header and the rows of one n for each.
_TABLES = {
    "stats": ("stats.csv", ["n", "mean", "variance", "scaled_variance"], _stats_rows),
    "bounds": ("bounds.csv", ["n", "epsilon", "empirical", "wilson_lo", "wilson_hi",
                              "rhs", "regime", "dominated"], _bounds_rows),
    "nevai": ("nevai.csv", ["n", "nevai_integral", "alpha_nevai", "concentration_mass",
                            "scaled_variance_rate"], _nevai_rows),
    "universality": ("universality.csv", ["n", "universality_error", "totik_error"],
                     _universality_rows),
}


def _run_tables(cfg: ExperimentConfig, out: Path, names=None) -> list:
    """The named tables (the experiment's own by default), every row of an n
    on one kernel: a report's nevai.csv reuses the rules and scaled variances
    of its stats.csv.  Each kernel is dropped before the next n."""
    names = names or (cfg.experiment,)
    rows = {name: [] for name in names}
    for n in cfg.n_grid:
        kern = CDKernel(cfg.measure, n)
        for name in names:
            rows[name] += _TABLES[name][2](cfg, kern)
    for name in names:
        _write_csv(out / _TABLES[name][0], _TABLES[name][1], rows[name])
    return [_TABLES[name][0] for name in names]


def _run_report(cfg: ExperimentConfig, out: Path) -> list:
    files = _run_tables(cfg, out, ("stats", "nevai", "universality"))
    summary = {
        "constant_A": constant_A().value,
        "measure": cfg.measure.to_json(),
        "n_grid": cfg.n_grid,
    }
    path = out / "report.json"
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return files + [path.name]


_RUNNERS = {"sample": _run_sample, "report": _run_report, **dict.fromkeys(_TABLES, _run_tables)}


def run(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Execute the configured experiment; returns the run manifest dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stages = {}
    t0 = time.perf_counter()
    files = _RUNNERS[cfg.experiment](cfg, out)
    stages[cfg.experiment] = time.perf_counter() - t0
    manifest = {
        "schema_version": 1,
        "tool_version": __version__,
        "config": cfg.raw,
        "constant_A": constant_A().value,
        "wall_clock_s": stages,
        "outputs": {name: _sha256(out / name) for name in files},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opelab",
        description="Orthogonal polynomial ensemble experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENTS:
        p = sub.add_parser(name, help=f"run a {name} experiment")
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
    pv = sub.add_parser("validate", help="check a config without running it")
    pv.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("valid")
        return 0

    if cfg.experiment != args.command:
        print(f"config names experiment {cfg.experiment!r}, "
              f"but subcommand is {args.command!r}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.raw["seed"] = args.seed
    out_dir = args.out or cfg.raw.get("output_dir", "opelab-out")
    try:
        run(cfg, out_dir)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OpelabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
