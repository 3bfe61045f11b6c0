"""Christoffel-Darboux kernel evaluation: summed, two-point formula, weighted, rescaled."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError
from .measures import Measure, RecurrenceCoefficients, design_matrix, orthonormal_prefix

__all__ = [
    "CDKernel",
    "kernel_sum",
    "kernel_matrix",
    "kernel_cd",
    "kernel_tilde",
    "scaled_kernel",
    "reproducing_residual",
]

# Below this separation the two-point formula cancels badly; route to the sum.
_CD_SWITCH = 1e-6
# Entries a kernel's cache keeps: a rule per quadrature rung and window, the
# Gram square of a rule that explicit-m variances read (linstat._gram_square,
# at most 8 MB each), the sampler's envelope and a report's scaled variances.
# No benchmark workload holds more than this at once.
_CACHE_SIZE = 32


@dataclass
class CDKernel:
    """Degree-n Christoffel-Darboux kernel K_n(x, y) = sum_{j<n} p_j(x) p_j(y)."""

    measure: Measure
    n: int
    coeffs: RecurrenceCoefficients = field(init=False)
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("kernel rank n must be >= 1")
        self.coeffs = self.measure.recurrence(self.n + 1)

    def cached(self, key, build):
        """The value cached under key, from build() on a miss.  The cache
        keeps the _CACHE_SIZE newest entries, evicting the oldest first."""
        if key not in self.cache:
            if len(self.cache) >= _CACHE_SIZE:
                del self.cache[next(iter(self.cache))]
            self.cache[key] = build()
        return self.cache[key]

    def design(self, x) -> np.ndarray:
        """Feature matrix (p_0(x_i), ..., p_{n-1}(x_i)) row per point."""
        return design_matrix(self.coeffs, self.n, x)


def _one_pass(kern: CDKernel, x, y) -> tuple[np.ndarray, np.ndarray]:
    """(p_0, ..., p_{n-1}) at the points of x and of y as two (n, size)
    blocks, from one recurrence pass over all of them.  The recurrence acts
    point by point, so each block equals a pass over its own points."""
    xf = np.asarray(x, dtype=float).reshape(-1)
    P = orthonormal_prefix(kern.coeffs, kern.n - 1,
                           np.concatenate((xf, np.asarray(y, dtype=float).reshape(-1))))
    return P[:, :xf.size], P[:, xf.size:]


def kernel_sum(kern: CDKernel, x, y) -> np.ndarray | float:
    """K_n(x, y) by direct summation of the orthonormal polynomial products,
    from one recurrence pass over the points of x and y (over x alone if y
    is x)."""
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if y is x:
        px = py = orthonormal_prefix(kern.coeffs, kern.n - 1, xb)
    else:
        shape = (kern.n,) + xb.shape
        px, py = (p.reshape(shape) for p in _one_pass(kern, xb, yb))
    val = np.sum(px * py, axis=0)
    return float(val) if val.ndim == 0 else val


def kernel_matrix(kern: CDKernel, x, y) -> np.ndarray:
    """K_n(x_i, y_j) for every pair, as design(x) @ design(y)^T.

    Runs the recurrence once over the points of x and y together (over x
    alone if y is x), where kernel_sum on broadcast arguments runs it once
    per pair.  Scalars count as one point.
    """
    if y is x:
        px = kern.design(x)
        return px @ px.T
    px, py = _one_pass(kern, x, y)
    # numpy multiplies a strided row vector without BLAS, so in another
    # summation order: a contiguous copy of px keeps design(x) @ design(y)^T
    return np.ascontiguousarray(px).T @ py


def kernel_cd(kern: CDKernel, x: float, y: float) -> float:
    """K_n(x, y) via the two-point Christoffel-Darboux formula, from one
    recurrence pass over both points.

    Delegates to kernel_sum when |x - y| falls below the diagonal switch
    threshold, where the formula cancels.
    """
    if abs(x - y) < _CD_SWITCH * (1.0 + abs(x) + abs(y)):
        return float(kernel_sum(kern, x, y))
    n = kern.n
    px, py = orthonormal_prefix(kern.coeffs, n, np.array([x, y], dtype=float)).T
    b_n = kern.coeffs.offdiag[n - 1]
    return float(b_n * (px[n] * py[n - 1] - py[n] * px[n - 1]) / (x - y))


def _sqrt_weight(kern: CDKernel, x) -> np.ndarray:
    lw = kern.measure.log_weight(x)
    if np.any(~np.isfinite(np.atleast_1d(lw))):
        raise DomainError("weight is zero (or undefined) at an evaluation point")
    return np.exp(0.5 * lw)


def kernel_tilde(kern: CDKernel, x, y) -> np.ndarray | float:
    """Weighted kernel w(x)^{1/2} w(y)^{1/2} K_n(x, y).

    The square-root weights are formed in log-space, which avoids underflow
    for the varying Gaussian family at large n.
    """
    sx = _sqrt_weight(kern, x)
    sy = sx if y is x else _sqrt_weight(kern, y)
    val = sx * sy * kernel_sum(kern, x, y)
    arr = np.asarray(val)
    return float(arr) if arr.ndim == 0 else arr


def _rescaled(kern: CDKernel, x: float, s) -> tuple[float, np.ndarray]:
    """Kt(x, x) and the points x + s / Kt(x, x), with Kt the weighted kernel;
    DomainError if Kt(x, x) vanishes or a point leaves the coordinate's
    x-range (Coordinate.x_range), past which Kt underflows on the line."""
    k0 = float(kernel_tilde(kern, x, x))
    if k0 <= 0.0:
        raise DomainError(f"weighted kernel vanishes on the diagonal at x={x}")
    z = x + np.asarray(s, dtype=float) / k0
    lo, hi = kern.measure.coordinate(kern.n).x_range()
    if not np.all((lo <= z) & (z <= hi)):
        raise DomainError("rescaled argument left the support of the measure")
    return k0, z


def scaled_kernel(kern: CDKernel, x: float, a: float, b: float) -> float:
    """Microscopically rescaled kernel at bulk point x.

    Evaluates Kt(x + a/Kt(x,x), x + b/Kt(x,x)) / Kt(x,x) with Kt the weighted
    kernel; this is the object that converges to the sine kernel in the bulk.
    """
    k0, (xa, xb) = _rescaled(kern, x, (a, b))
    return float(kernel_tilde(kern, xa, xb)) / k0


def reproducing_residual(kern: CDKernel, x: float, y: float, m: int) -> float:
    """|quadrature of int K(x,z) K(z,y) dmu(z) - K(x,y)|.

    The integrand is a polynomial of degree <= 2n-2 in z, so any Gauss rule
    with m >= n nodes is exact up to rounding.  The rule is the m Gauss nodes
    z_i with the Christoffel numbers 1 / K_m(z_i, z_i) from the forward
    recurrence as weights.  The raw Golub-Welsch weights would not do: a tiny
    one is accurate only in absolute terms, while K(x, z_i) K(z_i, y) is huge
    exactly there.  The residual thus checks that the nodes (closed-form for
    Chebyshev, Jacobi-matrix eigenvalues otherwise) are the zeros of p_m and
    that the recurrence values agree with them.  K(x, z_i) and K(y, z_i) come
    from one kernel_matrix, so the recurrence runs once over the nodes.
    """
    if m < kern.n:
        raise PreconditionError(f"need m >= n = {kern.n}, got m = {m}")
    nodes, _ = kern.measure.gauss_rule(m)
    pz = orthonormal_prefix(kern.measure.recurrence(m), m - 1, nodes)
    christoffel = 1.0 / np.sum(pz * pz, axis=0)
    kxz, kyz = kernel_matrix(kern, np.array([x, y], dtype=float), nodes)
    integral = float(np.sum(christoffel * kxz * kyz))
    return abs(integral - float(kernel_sum(kern, x, y)))
