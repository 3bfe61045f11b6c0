"""Concentration-bound right-hand sides for linear statistics of projection DPPs.

Every bound has the two-regime structure 2*exp(-min(Gaussian, Exponential))
with a universal constant A computed once from its defining series with a
certified geometric tail.  Monte Carlo tail frequencies (with Wilson
confidence intervals) are compared against the analytic bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import PreconditionError
from .kernel import CDKernel
from .linstat import TestFunction, _ladder, exact_mean

__all__ = [
    "ConstantA",
    "BoundReport",
    "constant_A",
    "bound_thm31",
    "bound_rank",
    "bound_global",
    "bound_normalized",
    "bound_lipschitz",
    "bound_meso",
    "bound_local",
    "lemma32_check",
    "wilson_interval",
    "tail_probability_mc",
]

GAUSSIAN = "Gaussian"
EXPONENTIAL = "Exponential"


@dataclass(frozen=True)
class ConstantA:
    """The universal constant A = 2e^2 sum_m (e/3)^m (m+2)^{3/2}."""

    value: float
    terms_used: int
    tail_bound: float


@lru_cache(maxsize=1)
def constant_A() -> ConstantA:
    """Sum the series until a geometric tail bound certifies 1e-12 relative.

    The term ratio r_m = (e/3)((m+3)/(m+2))^{3/2} decreases below 1, so past
    that point the tail is dominated by a geometric series.
    """
    ratio0 = math.e / 3.0
    total = 0.0
    m = 0
    term = 2.0 ** 1.5  # (e/3)^0 * (0+2)^{3/2}
    while True:
        total += term
        r = ratio0 * ((m + 3) / (m + 2)) ** 1.5
        if r < 1.0:
            tail = term * r / (1.0 - r)
            if tail <= 1e-12 * total:
                break
        term *= r
        m += 1
    scale = 2.0 * math.e ** 2
    return ConstantA(value=scale * total, terms_used=m + 1, tail_bound=scale * tail)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated right-hand side, with its regime and echoed inputs."""

    bound_name: str
    epsilon: float
    rhs: float
    regime: str
    inputs: dict = field(default_factory=dict)
    asymptotic: bool = False
    log_rhs: float = 0.0  # log(2) - exponent; exact even when rhs underflows

    def to_json(self) -> str:
        payload = {
            "bound_name": self.bound_name,
            "epsilon": self.epsilon,
            "rhs": self.rhs,
            "log_rhs": self.log_rhs,
            "regime": self.regime,
            "inputs": self.inputs,
            "asymptotic": self.asymptotic,
            "constant_A": constant_A().value,
        }
        return json.dumps(payload, sort_keys=True)


def _two_regime(name, eps, gauss_exp, exp_exp, inputs, asymptotic=False) -> BoundReport:
    """Evaluate 2 e^{-min(exponents)} (the min selector of the theorems);
    record which regime supplied the minimum."""
    if gauss_exp is None:
        regime, expo = EXPONENTIAL, exp_exp
    elif exp_exp is None or gauss_exp <= exp_exp:
        regime, expo = GAUSSIAN, gauss_exp
    else:
        regime, expo = EXPONENTIAL, exp_exp
    return BoundReport(name, eps, 2.0 * math.exp(-expo), regime, inputs, asymptotic,
                       log_rhs=math.log(2.0) - expo)


def _check_positive(**kwargs):
    for key, val in kwargs.items():
        if not val > 0.0:
            raise PreconditionError(f"{key} must be positive, got {val!r}")


def bound_thm31(var: float, sup_norm: float, eps: float) -> BoundReport:
    """General projection-DPP bound in terms of the actual variance."""
    _check_positive(sup_norm=sup_norm, eps=eps)
    if var < 0.0:
        raise PreconditionError("variance must be nonnegative")
    A = constant_A().value
    inputs = {"var": var, "sup_norm": sup_norm}
    if var == 0.0 or eps >= 2.0 * A * var / (3.0 * sup_norm):
        return _two_regime("GeneralThm31", eps, None, eps / (6.0 * sup_norm), inputs)
    return _two_regime("GeneralThm31", eps, eps * eps / (4.0 * A * var),
                       None, inputs)


def bound_rank(rank: int, sup_norm: float, eps: float) -> BoundReport:
    """Rank-only bound: variance replaced by its generic bound 2*rank*sup^2."""
    _check_positive(sup_norm=sup_norm, eps=eps)
    A = constant_A().value
    inputs = {"rank": rank, "sup_norm": sup_norm}
    if eps >= 4.0 * A * rank * sup_norm / 3.0:
        return _two_regime("RankThm33", eps, None, eps / (6.0 * sup_norm), inputs)
    return _two_regime("RankThm33", eps,
                       eps * eps / (8.0 * A * rank * sup_norm ** 2), None, inputs)


def bound_global(n: int, sup_norm: float, eps: float) -> BoundReport:
    """Tail bound for the normalized global statistic X_f / n."""
    _check_positive(sup_norm=sup_norm, eps=eps)
    A = constant_A().value
    return _two_regime(
        "GlobalThm11", eps,
        n * eps * eps / (8.0 * A * sup_norm ** 2),
        n * eps / (6.0 * sup_norm),
        {"n": n, "sup_norm": sup_norm},
    )


def bound_normalized(n: int, N: float, sup_norm: float, eps: float) -> BoundReport:
    """Tail bound for X_f / N with a general normalizing constant N."""
    _check_positive(N=N, sup_norm=sup_norm, eps=eps)
    A = constant_A().value
    return _two_regime(
        "NormalizedThm13", eps,
        eps * eps * N * N / (8.0 * A * n * sup_norm ** 2),
        eps * N / (6.0 * sup_norm),
        {"n": n, "N": N, "sup_norm": sup_norm},
    )


def bound_lipschitz(lip: float, sup_norm: float, eps: float, c: float = 1.0) -> BoundReport:
    """Unnormalized tail bound for Lipschitz f; c bounds the squared
    leading-coefficient ratio (b_n^2), O(1) for compact support."""
    _check_positive(lip=lip, sup_norm=sup_norm, eps=eps, c=c)
    A = constant_A().value
    return _two_regime(
        "LipschitzThm45III", eps,
        eps * eps / (4.0 * A * lip * lip * c),
        eps / (6.0 * sup_norm),
        {"lip": lip, "sup_norm": sup_norm, "c": c},
        asymptotic=True,
    )


def bound_meso(n: int, alpha: float, sup_norm: float, eps: float,
               lipschitz: Optional[float] = None, c: float = 1.0) -> BoundReport:
    """Mesoscopic tail bounds at scale n^{-alpha}.

    Without a Lipschitz constant: bound for |X - EX| / n^{1-alpha} (meaningful
    for alpha < 1/2).  With one: bound for |X - EX| / n^{alpha}.
    """
    _check_positive(sup_norm=sup_norm, eps=eps)
    if not (0.0 <= alpha < 1.0):
        raise PreconditionError("alpha must lie in [0, 1)")
    A = constant_A().value
    if lipschitz is None:
        return _two_regime(
            "MesoThm46I", eps,
            eps * eps * n ** (1.0 - 2.0 * alpha) / (8.0 * A * sup_norm ** 2),
            eps * n ** (1.0 - alpha) / (6.0 * sup_norm),
            {"n": n, "alpha": alpha, "sup_norm": sup_norm},
        )
    _check_positive(lipschitz=lipschitz, c=c)
    return _two_regime(
        "MesoLipschitzThm46II", eps,
        eps * eps / (2.0 * A * lipschitz * lipschitz * c),
        eps * n ** alpha / (6.0 * sup_norm),
        {"n": n, "alpha": alpha, "sup_norm": sup_norm, "lipschitz": lipschitz, "c": c},
        asymptotic=True,
    )


def bound_local(n: int, alpha: float, sup_norm: float, eps: float) -> BoundReport:
    """Local law-of-large-numbers bound at scale n^{-alpha}; valid only for
    n sufficiently large (flagged asymptotic)."""
    _check_positive(sup_norm=sup_norm, eps=eps)
    if not (0.0 <= alpha < 1.0):
        raise PreconditionError("alpha must lie in [0, 1)")
    return _two_regime(
        "LocalThm58", eps,
        None,
        eps * n ** (1.0 - alpha) / (6.0 * sup_norm),
        {"n": n, "alpha": alpha, "sup_norm": sup_norm},
        asymptotic=True,
    )


def lemma32_check(kern: CDKernel, f: TestFunction, t: float, m: int | None = None):
    """Check |log det(1+(e^{tf}-1)K) - t Tr fK| <= A t^2 ||[f,K]||_2^2 / 2.

    Returns (lhs, rhs, holds).
    """
    if abs(t) > 1.0 / (3.0 * f.sup_norm):
        raise PreconditionError(
            f"|t|={abs(t)} outside the admissible range 1/(3 sup_norm)"
        )
    if t == 0.0:
        return 0.0, 0.0, True
    lmgf, mean, var = _ladder(kern, f, m, (t, "mean", "variance"))
    lhs = abs(lmgf - t * mean)
    rhs = 0.5 * constant_A().value * t * t * (2.0 * var)  # ||[f, K]||_2^2 = 2 Var X_f
    return lhs, rhs, bool(lhs <= rhs + 1e-10)


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise PreconditionError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def tail_probability_mc(kern: CDKernel, f: TestFunction, epsilons,
                        replicas: int, rng, normalization: float) -> list:
    """Empirical P(|X_f - E X_f| / normalization >= eps) vs the matching bound,
    for each eps in `epsilons`, all on one batch of replicas.

    Returns one dict per eps with the empirical frequency, Wilson 95%
    interval, the analytic BoundReport, and whether the upper confidence
    limit is dominated.
    """
    from .sampler import sample_ope_batch

    if replicas < 1000:
        raise PreconditionError("need at least 10^3 replicas")
    for eps in epsilons:
        _check_positive(eps=eps, normalization=normalization)
    mean = exact_mean(kern, f)
    samples = sample_ope_batch(kern, rng, replicas)
    dev = np.abs(np.sum(f(samples), axis=1) - mean) / normalization
    n = kern.n
    results = []
    for eps in epsilons:
        exceed = int(np.sum(dev >= eps))
        lo, hi = wilson_interval(exceed, replicas)
        if abs(normalization - n) <= 1e-12 * n:
            report = bound_global(n, f.sup_norm, eps)
        else:
            report = bound_normalized(n, normalization, f.sup_norm, eps)
        results.append({
            "empirical": exceed / replicas,
            "wilson": (lo, hi),
            "bound": report,
            "dominated": bool(hi <= report.rhs),
            "replicas": replicas,
        })
    return results
