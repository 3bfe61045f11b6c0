"""Asymptotic diagnostics: Nevai functionals, bulk universality, equilibrium
densities, and finite-n decay trends standing in for o(1)/o(n) statements."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .kernel import CDKernel, _rescaled, _sqrt_weight, kernel_matrix, kernel_tilde
from .linstat import (_M_BASE, ScaledStatistic, TestFunction, _global_rule, _window_rule,
                      exact_scaled_variance, scaled_function)
from .measures import Measure

__all__ = [
    "EquilibriumDensity",
    "DecayDiagnostic",
    "arcsine_density",
    "semicircle_density",
    "sine_kernel",
    "nevai_integral",
    "alpha_nevai_functional",
    "concentration_mass",
    "universality_error",
    "totik_error",
    "variance_decay_diagnostic",
    "decay_diagnostic",
]

_DEFAULT_S_GRID = tuple(np.linspace(-2.0, 2.0, 21))


@dataclass(frozen=True)
class EquilibriumDensity:
    """A limiting spectral density with its support."""

    kind: str
    evaluator: Callable
    support: tuple[float, float]

    def __call__(self, x):
        return np.asarray(self.evaluator(np.asarray(x, dtype=float)), dtype=float)


def arcsine_density(support: tuple[float, float] = (-1.0, 1.0)) -> EquilibriumDensity:
    """Equilibrium measure of [c - h, c + h]: 1 / (pi sqrt(h^2 - (x - c)^2))."""
    lo, hi = support
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def ev(x):
        x = np.asarray(x, dtype=float)
        return 1.0 / (np.pi * np.sqrt(np.maximum(h * h - (x - c) * (x - c), 0.0)))

    return EquilibriumDensity("Arcsine", ev, (float(lo), float(hi)))


def semicircle_density(measure: Measure, n: int) -> EquilibriumDensity:
    """Semicircle law for the varying Gaussian weight at rank n.

    The support radius is read off the recurrence: the spectral edge is
    max_k (a_k + 2 b_{k+1}) over the first n coefficients.
    """
    coeffs = measure.recurrence(n)
    a = coeffs.diag[:n]
    b = coeffs.offdiag[:n]
    radius = float(np.max(a + 2.0 * b))

    def ev(x):
        x = np.asarray(x, dtype=float)
        return 2.0 / (np.pi * radius * radius) * np.sqrt(
            np.maximum(radius * radius - x * x, 0.0))

    return EquilibriumDensity("SemicircleVaryingGaussian", ev, (-radius, radius))


@dataclass(frozen=True)
class DecayDiagnostic:
    """Values of a diagnostic along an n-grid, with trend summaries."""

    n_grid: tuple
    values: tuple
    is_decreasing: bool
    fit_slope: float


def decay_diagnostic(n_grid: Sequence[int], values: Sequence[float]) -> DecayDiagnostic:
    vals = np.asarray(values, dtype=float)
    ns = np.asarray(n_grid, dtype=float)
    if vals.size != ns.size or vals.size < 2:
        raise PreconditionError("need matching n_grid and values of length >= 2")
    if not np.all(np.isfinite(vals)):
        raise PreconditionError("diagnostic values must be finite")
    dec = bool(np.all(np.diff(vals) < 0.0))
    pos = vals > 0.0
    if np.count_nonzero(pos) >= 2:
        slope = float(np.polyfit(np.log(ns[pos]), np.log(vals[pos]), 1)[0])
    else:
        slope = 0.0
    return DecayDiagnostic(tuple(int(k) for k in n_grid), tuple(vals), dec, slope)


def sine_kernel(a: float, b: float) -> float:
    """sin(pi(b-a)) / (pi(b-a)), with the removable singularity set to 1."""
    return float(np.sinc(b - a))


# ---------------------------------------------------------------------------
# Nevai-type functionals
# ---------------------------------------------------------------------------

def _nu_average(kern: CDKernel, x, rule, g: Callable) -> np.ndarray:
    """The mean of g under nu_x(dy) = K_n(x,y)^2 dmu(y) / K_n(x,x) at each
    point x_k, as ((P S^T)^2 g(nodes)) / rowsum(P^2) on a cached rule
    (nodes, S, kd) with P the design at the x_k.  The rule enters through its
    sqrt-weight-scaled design S: a tiny raw weight is accurate only in
    absolute terms and must never meet a huge kernel value."""
    nodes, S, _ = rule
    p = kern.design(x)
    kxx = np.sum(p * p, axis=1)
    if np.any(kxx <= 0.0):
        raise PreconditionError("kernel vanishes on the diagonal")
    return np.square(p @ S.T) @ g(nodes) / kxx


def _nevai_rule(kern: CDKernel, f: TestFunction, m: int | None):
    """The cached rule resolving both f and the degree-(2n-2) kernel square:
    the base panels of f's finite support, split at its discontinuities, or
    else the m-point mu-Gauss rule (4n + 128 by default, the moments' second
    rung).  A continuous f whose support covers a compact support takes the
    mu-Gauss rule too: it integrates a Jacobi end weight exactly, where theta
    panels near a singular end stall at errors of 3e-6."""
    mu, win = kern.measure, f.support
    covers = (mu.compact and win is not None and not f.discontinuities
              and win[0] <= mu.support[0] and mu.support[1] <= win[1])
    if win is not None and all(math.isfinite(v) for v in win) and not covers:
        return _window_rule(kern, *win, f.discontinuities, 1)
    size = m if m is not None else 2 * (2 * kern.n + _M_BASE)   # the ladder's second rung
    if size < kern.n:
        raise PreconditionError(f"quadrature size {size} below rank {kern.n}")
    return _global_rule(kern, size)


def nevai_integral(kern: CDKernel, f: TestFunction, x: float, m: int | None = None) -> float:
    """int (f(y) - f(x)) K_n(x,y)^2 / K_n(x,x) dmu(y)."""
    return float(_nu_average(kern, x, _nevai_rule(kern, f, m), f)[0] - f(x))


def _nevai_points(support: tuple[float, float], alpha: float, xstar: float, n: int,
                  s_grid: Optional[Sequence[float]] = None):
    """The grid s and the points x_s = x* + s/n^a of alpha_nevai_functional;
    DomainError if an x_s leaves the support."""
    s = np.asarray(_DEFAULT_S_GRID if s_grid is None else s_grid, dtype=float)
    xs = xstar + s / float(n) ** alpha
    lo, hi = support
    outside = xs[~((lo <= xs) & (xs <= hi))]
    if outside.size:
        raise DomainError(f"evaluation point {outside[0]} outside the support")
    return s, xs


def alpha_nevai_functional(kern: CDKernel, f: TestFunction, alpha: float, xstar: float,
                           s_grid: Optional[Sequence[float]] = None,
                           m: int | None = None) -> float:
    """sup_s |int (f(s) - f(n^a(y-x*))) K(x_s,y)^2 / K(x_s,x_s) dmu(y)|,
    where x_s = x* + s/n^a, all s in one batch, over the whole support: the
    f(s) term carries the unit mass of nu_{x_s}.  DomainError if an x_s
    leaves the support."""
    if not (0.0 <= alpha < 1.0):
        raise PreconditionError("alpha must lie in [0, 1)")
    s, xs = _nevai_points(kern.measure.support, alpha, xstar, kern.n, s_grid)
    ft = scaled_function(ScaledStatistic(f, alpha, xstar), kern.n)
    vals = f(s) - _nu_average(kern, xs, _nevai_rule(kern, ft, m), ft)
    return float(np.max(np.abs(vals), initial=0.0))


def concentration_mass(kern: CDKernel, xstar: float, delta: float) -> float:
    """Mass of K_n(x*,y)^2 dmu(y) / K_n(x*,x*) within |y - x*| < delta."""
    if delta <= 0.0:
        raise PreconditionError("delta must be positive")
    lo, hi = kern.measure.support
    if kern.measure.compact and xstar - delta <= lo and xstar + delta >= hi:
        # full support: the reproducing property int K(x*,y)^2 dmu = K(x*,x*)
        return 1.0
    rule = _window_rule(kern, xstar - delta, xstar + delta, (), 1)
    return float(_nu_average(kern, xstar, rule, np.ones_like)[0])


# ---------------------------------------------------------------------------
# Universality and density convergence
# ---------------------------------------------------------------------------

def _universality_points(kern: CDKernel, x: float, box: float = 2.0, grid: int = 41):
    """The grid s in [-box, box], Kt(x, x) and the points x + s / Kt(x, x) of
    universality_error; DomainError, as in scaled_kernel, if Kt(x, x)
    vanishes or a point leaves the measure's x-range (see kernel._rescaled)."""
    s = np.linspace(-box, box, grid)
    k0, z = _rescaled(kern, x, s)
    return s, k0, z


def universality_error(kern: CDKernel, x: float, box: float = 2.0, grid: int = 41) -> float:
    """sup over an (a,b) grid in [-box, box]^2 of |scaled_kernel(kern, x, a, b)
    - sine_kernel(a, b)|, from one kernel_matrix on the rescaled grid points;
    DomainError, as in scaled_kernel, if one of them leaves the measure's x-range."""
    pts, k0, z = _universality_points(kern, x, box, grid)
    sw = _sqrt_weight(kern, z)
    scaled = np.outer(sw, sw) * kernel_matrix(kern, z, z) / k0
    return float(np.max(np.abs(scaled - np.sinc(pts[None, :] - pts[:, None]))))


def totik_error(kern: CDKernel, rho: EquilibriumDensity, interval: tuple[float, float],
                grid: int = 201) -> float:
    """sup over the interval grid of |w(x) K_n(x,x) / n - rho(x)|."""
    x = np.linspace(interval[0], interval[1], grid)
    ktilde = np.asarray(kernel_tilde(kern, x, x))
    return float(np.max(np.abs(ktilde / kern.n - rho(x))))


def variance_decay_diagnostic(measure: Measure, f: TestFunction, alpha: float,
                              xstar: float, n_grid: Sequence[int]) -> DecayDiagnostic:
    """n^{alpha-1} Var X_{f,alpha,x*} along an n-grid (should tend to 0)."""
    if not (0.0 < alpha < 1.0):
        raise PreconditionError("alpha must lie in (0, 1)")
    values = []
    for n in n_grid:
        kern = CDKernel(measure, int(n))
        stat = ScaledStatistic(f, alpha, xstar)
        values.append(float(n) ** (alpha - 1.0) * exact_scaled_variance(kern, stat))
    return decay_diagnostic(list(n_grid), values)
