"""Asymptotic diagnostics: Nevai functionals, bulk universality, equilibrium
densities, and finite-n decay trends standing in for o(1)/o(n) statements."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .kernel import CDKernel, _cross, _sqrt_weight, kernel_matrix, kernel_tilde
from .linstat import (ScaledStatistic, TestFunction, _global_rule, _panel_rule,
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

def nevai_integral(kern: CDKernel, f: TestFunction, x: float, m: int | None = None) -> float:
    """int (f(y) - f(x)) K_n(x,y)^2 / K_n(x,x) dmu(y)."""
    nodes, diag, square = _nevai_rule(kern, f, m, x)
    kxx = float(diag[0])
    if kxx <= 0.0:
        raise PreconditionError("kernel vanishes on the diagonal")
    term1 = float(np.sum(f(nodes) * square))
    return (term1 - f(x) * kxx) / kxx


def _restricted_square(kern: CDKernel, x, nodes: np.ndarray, weights: np.ndarray):
    """K_n(x_k, x_k) and (w_i K_n(x_k, z_i)^2)_{k,i} for the points x_k and a
    panel rule (z_i, w_i), from one recurrence pass over both."""
    px, kxz = _cross(kern, x, nodes)
    return np.sum(px * px, axis=0), weights * kxz * kxz


def _nevai_rule(kern: CDKernel, f: TestFunction, m: int | None, x):
    """Nodes z_i, the diagonal K_n(x_k, x_k) and the matrix
    (w_i K_n(x_k, z_i)^2)_{k,i} for the points x_k and a rule (z_i, w_i) of
    dmu resolving both f and the degree-(2n-2) kernel square, from one
    recurrence pass.

    A compactly supported f gets linstat._panel_rule on its support, split
    at its discontinuities.  Otherwise the m-point Gauss rule of mu enters
    through its sqrt-weight-scaled design S[i, j] = sqrt(w_i) p_j(z_i), as
    (P S^T)^2 with P the design at the x_k: a tiny raw Gauss weight is
    accurate only in absolute terms and must never meet a huge kernel value.
    """
    if f.support is not None and all(math.isfinite(v) for v in f.support):
        nodes, weights = _panel_rule(kern, *f.support, 1, f.discontinuities)
        return (nodes,) + _restricted_square(kern, x, nodes, weights)
    size = m if m is not None else 4 * kern.n + 256
    if size < kern.n:
        raise PreconditionError(f"quadrature size {size} below rank {kern.n}")
    nodes, S, _ = _global_rule(kern, size)
    p = kern.design(x)
    a = p @ S.T
    return nodes, np.sum(p * p, axis=1), a * a


def alpha_nevai_functional(kern: CDKernel, f: TestFunction, alpha: float, xstar: float,
                           s_grid: Optional[Sequence[float]] = None,
                           m: int | None = None) -> float:
    """sup_s |int (f(s) - f(n^a(y-x*))) K(x_s,y)^2 / K(x_s,x_s) dmu(y)|,
    where x_s = x* + s/n^a, all s in one batch; DomainError if an x_s leaves
    the support."""
    if not (0.0 <= alpha < 1.0):
        raise PreconditionError("alpha must lie in [0, 1)")
    s = np.asarray(_DEFAULT_S_GRID if s_grid is None else s_grid, dtype=float)
    n = kern.n
    xs = xstar + s / float(n) ** alpha
    lo, hi = kern.measure.support
    outside = xs[~((lo <= xs) & (xs <= hi))]
    if outside.size:
        raise DomainError(f"evaluation point {outside[0]} outside the support")
    ft = scaled_function(ScaledStatistic(f, alpha, xstar), n)
    nodes, diag, q = _nevai_rule(kern, ft, m, xs)
    vals = (f(s) * np.sum(q, axis=1) - q @ ft(nodes)) / diag
    return float(np.max(np.abs(vals), initial=0.0))


def concentration_mass(kern: CDKernel, xstar: float, delta: float) -> float:
    """Mass of K_n(x*,y)^2 dmu(y) / K_n(x*,x*) within |y - x*| < delta."""
    if delta <= 0.0:
        raise PreconditionError("delta must be positive")
    lo, hi = kern.measure.support
    if kern.measure.compact and xstar - delta <= lo and xstar + delta >= hi:
        # full support: the reproducing property int K(x*,y)^2 dmu = K(x*,x*)
        return 1.0
    nodes, weights = _panel_rule(kern, xstar - delta, xstar + delta, 1)
    kxx, square = _restricted_square(kern, xstar, nodes, weights)
    return float(np.sum(square[0])) / float(kxx[0])


# ---------------------------------------------------------------------------
# Universality and density convergence
# ---------------------------------------------------------------------------

def universality_error(kern: CDKernel, x: float, box: float = 2.0, grid: int = 41) -> float:
    """sup over an (a,b) grid in [-box, box]^2 of |scaled_kernel(kern, x, a, b)
    - sine_kernel(a, b)|, from one kernel_matrix on the rescaled grid points;
    DomainError, as in scaled_kernel, if one of them leaves the support."""
    pts = np.linspace(-box, box, grid)
    k0 = float(kernel_tilde(kern, x, x))
    if k0 <= 0.0:
        raise DomainError(f"weighted kernel vanishes on the diagonal at x={x}")
    z = x + pts / k0
    lo, hi = kern.measure.support
    if not np.all((lo <= z) & (z <= hi)):
        raise DomainError("rescaled argument left the support of the measure")
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
