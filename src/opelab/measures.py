"""Reference probability measures, orthonormal polynomial systems and Gauss rules.

All polynomial systems use the orthonormal three-term recurrence

    b_{k+1} p_{k+1}(x) = (x - a_k) p_k(x) - b_k p_{k-1}(x),   p_{-1} = 0, p_0 = 1,

so the leading-coefficient ratio gamma_{n-1}/gamma_n equals b_n.  Every measure
is a probability measure; discretized measures are normalized at construction.
Everything that depends on the family of a measure is its entry in the table
FAMILIES at the end of this module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import betaln, roots_hermite

from .errors import (
    ConfigurationError,
    DegenerateMeasureError,
    InstabilityError,
    NumericalError,
    PreconditionError,
)

__all__ = [
    "RecurrenceCoefficients",
    "Measure",
    "chebyshev",
    "legendre",
    "jacobi",
    "varying_gaussian",
    "discretized",
    "register_weight",
    "Family",
    "FAMILIES",
    "stieltjes_recurrence",
    "orthonormal_prefix",
    "design_matrix",
    "gauss_quadrature_scaled",
]


def config_number(value, name: str, integer: bool = False):
    """A finite JSON number (an integral one if integer), else ConfigurationError."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and isinstance(value, float):
        ok = value.is_integer() if integer else math.isfinite(value)
    elif ok and not integer:
        ok = abs(value) <= sys.float_info.max
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ConfigurationError(f"{name} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Jacobi-matrix coefficients: diag a_0..a_{D-1}, offdiag b_1..b_D."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)
        if diag.shape != offdiag.shape or diag.ndim != 1:
            raise ConfigurationError("diag and offdiag must be 1-d of equal length")
        if not np.all(np.isfinite(diag)) or not np.all(np.isfinite(offdiag)):
            raise ConfigurationError("non-finite recurrence coefficient")
        if np.any(offdiag <= 0.0):
            k = int(np.argmax(offdiag <= 0.0))
            raise InstabilityError(k + 1, float(offdiag[k]))

    @property
    def depth(self) -> int:
        return len(self.diag)


def orthonormal_prefix(coeffs: RecurrenceCoefficients, k: int, x) -> np.ndarray:
    """All of p_0(x),...,p_k(x) in one forward-recurrence pass.

    Returns an array of shape (k+1,) + shape(x).
    """
    if k < 0 or k > coeffs.depth:
        raise PreconditionError(f"index {k} out of range for depth {coeffs.depth}")
    xv = np.asarray(x, dtype=float)
    out = np.empty((k + 1,) + xv.shape)
    out[0] = 1.0
    if k == 0:
        return out
    # Coefficients as Python floats, and a zero a_j (None below) skipped since
    # x - 0.0 == x exactly: the same values as with the arrays' own entries.
    a = [None if c == 0.0 and math.copysign(1.0, c) > 0.0 else c
         for c in coeffs.diag[:k].tolist()]
    b = coeffs.offdiag[:k].tolist()
    out[1] = (xv if a[0] is None else xv - a[0]) / b[0]
    for j in range(1, k):
        shifted = xv if a[j] is None else xv - a[j]
        out[j + 1] = (shifted * out[j] - b[j - 1] * out[j - 1]) / b[j]
    return out


def design_matrix(coeffs: RecurrenceCoefficients, n: int, x) -> np.ndarray:
    """Matrix P with P[i, j] = p_j(x_i), j < n."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    return orthonormal_prefix(coeffs, n - 1, xv).T


def _check_rule_size(m: int, ncols: int, depth: int | None = None) -> None:
    if not (1 <= ncols <= m):
        raise PreconditionError(f"need 1 <= ncols <= m, got ncols={ncols}, m={m}")
    if depth is not None and m > depth:
        raise PreconditionError(f"need 1 <= m <= depth, got m={m}, depth={depth}")


def gauss_quadrature_scaled(coeffs: RecurrenceCoefficients, m: int, ncols: int):
    """m-point Gauss rule plus the sqrt-weight-scaled design matrix, by the
    Golub-Welsch eigensolve of the Jacobi matrix (Math. Comp. 23, 1969).

    Returns (nodes, weights, S) with the nodes ascending and
    S[i, j] = sqrt(w_i) p_j(x_i) for j < ncols, read directly off the
    eigenvectors with the sign making S[:, 0] > 0.  Every entry of S is O(1)
    even where the weights underflow and the polynomial values overflow (e.g.
    Gaussian-type weights at large m), which the forward recurrence cannot
    guarantee.  The columns of S are rows of an orthogonal matrix, so
    S^T S = I for any recurrence.  Measure.gauss_rule_scaled uses this
    routine for every family without a closed-form rule in FAMILIES.

    Each weight is the square of an eigenvector component that is accurate
    only in absolute terms (about 1e-16 on sqrt(w_i)), so a small weight need
    not be accurate relative to itself: at m = 50 for varying_gaussian(16) the
    weights near 1e-37 are off by up to 1 %.  Never multiply them by
    forward-recurrence values p_j(x_i), which are huge exactly there; use S,
    or the Christoffel numbers 1 / sum_{j<m} p_j(x_i)^2 from the recurrence.
    """
    _check_rule_size(m, ncols, coeffs.depth)
    try:
        vals, vecs = eigh_tridiagonal(coeffs.diag[:m], coeffs.offdiag[: m - 1])
    except Exception as exc:  # pragma: no cover - eigensolver failures are rare
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc
    # column i of vecs is the unit eigenvector (s_i sqrt(w_i) p_j(x_i))_j
    sign = np.where(vecs[0, :] >= 0.0, 1.0, -1.0)
    weights = vecs[0, :] ** 2
    S = (vecs[:ncols, :] * sign[None, :]).T
    return vals, weights, S


def _chebyshev_rule(m: int, ncols: int):
    """Gauss-Chebyshev rule in closed form (Gautschi 2004, Sec. 1.4), in the
    conventions of gauss_quadrature_scaled.

    Ascending nodes x_i = cos(theta_i), theta_i = (2i-1) pi / 2m for
    i = m, ..., 1, weights 1/m, S[i, 0] = sqrt(1/m) and
    S[i, j] = sqrt(2/m) cos(j theta_i).  The argument j (2i-1) pi / 2m is
    reduced mod 2 pi in integers, k = j (2i-1) mod 4m, before the cosine:
    cos(j * theta_i) in floating point loses about j ulp of theta_i, which at
    m = 3328, ncols = 800 leaves S^T S - I at 3e-14 instead of 3e-15.
    """
    _check_rule_size(m, ncols)
    odd = np.arange(2 * m - 1, 0, -2, dtype=np.int64)
    table = np.cos((math.pi / (2 * m)) * np.arange(4 * m))
    nodes = table[odd]
    S = table[np.outer(odd, np.arange(ncols, dtype=np.int64)) % (4 * m)]
    S *= math.sqrt(2.0 / m)
    S[:, 0] = math.sqrt(1.0 / m)
    return nodes, np.full(m, 1.0 / m), S


# 16-point Gauss-Legendre rule on [-1, 1], shared by every composite panel rule.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl_panels(edges: np.ndarray):
    """Composite 16-point Gauss-Legendre rule for Lebesgue measure on the
    panels [edges[k], edges[k+1]], as (nodes, weights), panel by panel."""
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# Closed-form recurrences for the classical families
# ---------------------------------------------------------------------------

def _chebyshev_coeffs(depth: int) -> RecurrenceCoefficients:
    b = np.full(depth, 0.5)
    b[0] = 1.0 / math.sqrt(2.0)
    return RecurrenceCoefficients(np.zeros(depth), b)


def _legendre_coeffs(depth: int) -> RecurrenceCoefficients:
    k = np.arange(1, depth + 1, dtype=float)
    b = k / np.sqrt(4.0 * k * k - 1.0)
    return RecurrenceCoefficients(np.zeros(depth), b)


def _jacobi_coeffs(depth: int, a: float, b: float) -> RecurrenceCoefficients:
    if a <= -1.0 or b <= -1.0:
        raise ConfigurationError("Jacobi exponents must exceed -1")
    diag = np.empty(depth)
    beta = np.empty(depth)
    diag[0] = (b - a) / (a + b + 2.0)
    beta[0] = 4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    for k in range(1, depth):
        s = 2.0 * k + a + b
        diag[k] = (b * b - a * a) / (s * (s + 2.0))
        kk = k + 1  # beta index: beta[k] = beta_{k+1} monic
        ss = 2.0 * kk + a + b
        beta[k] = (
            4.0 * kk * (kk + a) * (kk + b) * (kk + a + b)
            / (ss * ss * (ss + 1.0) * (ss - 1.0))
        )
    return RecurrenceCoefficients(diag, np.sqrt(beta))


def _varying_gaussian_coeffs(depth: int, n: int) -> RecurrenceCoefficients:
    k = np.arange(1, depth + 1, dtype=float)
    return RecurrenceCoefficients(np.zeros(depth), np.sqrt(k / float(n)))


# ---------------------------------------------------------------------------
# Discretized Stieltjes procedure
# ---------------------------------------------------------------------------

def _chebyshev_grid(weight: Callable, lo: float, hi: float, grid: int):
    """Discretization of weight(x)dx on [lo, hi] by a Gauss-Chebyshev rule."""
    i = np.arange(1, grid + 1)
    theta = (2.0 * i - 1.0) * math.pi / (2.0 * grid)
    t = np.cos(theta)
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo) + half * t
    w = (math.pi / grid) * half * np.sin(theta) * np.asarray(weight(x), dtype=float)
    return x, w


def _hermite_grid(weight: Callable, grid: int, scale: float = 1.0):
    """Discretization of weight(x)dx on the line by a scaled Gauss-Hermite rule.

    The substitution x = scale * t keeps the correction factor e^{t^2} w(scale t)
    bounded for Gaussian-like weights of matching scale.
    """
    t, hw = roots_hermite(grid)
    x = scale * t
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logw = np.log(np.asarray(weight(x), dtype=float))
        factor = np.exp(t * t + logw)
    factor = np.where(np.isfinite(factor), factor, 0.0)
    w = scale * hw * factor
    return x, np.where(np.isfinite(w), w, 0.0)


def _discrete_stieltjes(x: np.ndarray, w: np.ndarray, depth: int) -> RecurrenceCoefficients:
    """Lanczos/Stieltjes recursion on a discrete measure, fully reorthogonalized."""
    mass = float(np.sum(w))
    if not mass > 0.0:
        raise DegenerateMeasureError("weight integrates to zero on the support")
    w = w / mass
    diag = np.empty(depth)
    off = np.empty(depth)
    q_prev = np.zeros_like(x)
    q = np.ones_like(x)
    basis = [q]
    b = 0.0
    for k in range(depth):
        a = float(np.sum(w * x * q * q))
        v = (x - a) * q - b * q_prev
        for u in basis:  # full reorthogonalization; depth is small
            v -= np.sum(w * v * u) * u
        b2 = float(np.sum(w * v * v))
        if not (b2 > 0.0 and np.isfinite(b2)):
            raise InstabilityError(k + 1, b2)
        b = math.sqrt(b2)
        diag[k] = a
        off[k] = b
        q_prev, q = q, v / b
        basis.append(q)
    return RecurrenceCoefficients(diag, off)


def stieltjes_recurrence(
    weight: Callable,
    support: tuple[float, float],
    depth: int,
    grid: int,
    scale: float = 1.0,
) -> RecurrenceCoefficients:
    """Recurrence coefficients of the normalized measure weight(x)dx on support.

    Compact supports are discretized with a Gauss-Chebyshev rule, the whole
    line with a scaled Gauss-Hermite rule.  Increasing `grid` converges to the
    true coefficients.
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    if grid < 50 * depth:
        raise PreconditionError(f"grid must be >= 50*depth = {50 * depth}")
    lo, hi = support
    if math.isinf(lo) or math.isinf(hi):
        x, w = _hermite_grid(weight, grid, scale=scale)
    else:
        x, w = _chebyshev_grid(weight, lo, hi, grid)
    if np.any(w < -1e-14 * max(1.0, float(np.max(np.abs(w))))):
        raise DegenerateMeasureError("weight is negative on the support")
    return _discrete_stieltjes(x, np.clip(w, 0.0, None), depth)


# ---------------------------------------------------------------------------
# Measure
# ---------------------------------------------------------------------------

_WEIGHT_REGISTRY: dict[str, Callable] = {}


def register_weight(key: str, evaluator: Callable) -> None:
    """Register a named weight evaluator for discretized measures."""
    _WEIGHT_REGISTRY[key] = evaluator


@dataclass
class Measure:
    """A reference probability measure with its orthonormal polynomial system."""

    family: str
    params: dict
    support: tuple[float, float]

    _diag: np.ndarray = field(default=None, repr=False, compare=False)
    _off: np.ndarray = field(default=None, repr=False, compare=False)
    _norm: float = field(default=1.0, repr=False, compare=False)

    @property
    def spec(self) -> "Family":
        try:
            return FAMILIES[self.family]
        except KeyError:
            raise ConfigurationError(f"unknown family {self.family!r}") from None

    @property
    def compact(self) -> bool:
        return math.isfinite(self.support[0]) and math.isfinite(self.support[1])

    @property
    def gaussian_n(self) -> int | None:
        """N of a Gaussian weight exp(-N x^2 / 2); None for other weights."""
        get = self.spec.gaussian_n
        return None if get is None else get(self)

    # -- weight density -----------------------------------------------------

    def weight(self, x) -> np.ndarray:
        """Density of the (normalized) measure with respect to Lebesgue."""
        return self.spec.weight(self, np.asarray(x, dtype=float))

    def log_weight(self, x) -> np.ndarray:
        """log of the density, computed stably (useful for large-n Gaussian)."""
        xv = np.asarray(x, dtype=float)
        if self.spec.log_weight is not None:
            return self.spec.log_weight(self, xv)
        with np.errstate(divide="ignore"):
            return np.log(self.weight(xv))

    def theta_density(self, theta) -> np.ndarray:
        """Density of the measure in theta, where x = mid + half*cos(theta)
        maps [0, pi] onto a compact support.

        Chebyshev and Jacobi weights are written in sin(theta/2) and
        cos(theta/2), since 1 -+ x = 2 sin^2(theta/2), 2 cos^2(theta/2): in x,
        1 - x*x loses all digits as theta nears 0 or pi.
        """
        th = np.asarray(theta, dtype=float)
        if self.spec.theta_density is not None:
            return self.spec.theta_density(self, th)
        lo, hi = self.support
        half = 0.5 * (hi - lo)
        return self.weight(0.5 * (hi + lo) + half * np.cos(th)) * half * np.sin(th)

    # -- recurrence coefficients, lazily extended ---------------------------

    def recurrence(self, depth: int) -> RecurrenceCoefficients:
        if depth < 1:
            raise PreconditionError("depth must be >= 1")
        if self._diag is None or len(self._diag) < depth:
            coeffs = self.spec.recurrence(self, max(depth, 16))
            self._diag, self._off = coeffs.diag, coeffs.offdiag
        return RecurrenceCoefficients(self._diag[:depth], self._off[:depth])

    def gauss_rule(self, m: int):
        """m-point Gauss rule with respect to the measure, as (nodes, weights)
        with the nodes ascending.  Small weights are accurate only in absolute
        terms (see gauss_quadrature_scaled); use gauss_rule_scaled to
        integrate products of polynomial values."""
        return self.gauss_rule_scaled(m, 1)[:2]

    def gauss_rule_scaled(self, m: int, ncols: int):
        """m-point Gauss rule with the sqrt-weight-scaled design, as
        (nodes, weights, S) in the conventions of gauss_quadrature_scaled:
        in closed form where the family has one, else by the Golub-Welsch
        eigensolve.  Not cached: CDKernel caches the rules it uses."""
        if self.spec.rule is not None:
            return self.spec.rule(m, ncols)
        return gauss_quadrature_scaled(self.recurrence(m), m, ncols)

    # -- serialization ------------------------------------------------------

    def to_json(self, depth: int = 0) -> dict:
        return {"family": self.family, "params": dict(self.params), "depth": depth}

    @classmethod
    def from_json(cls, obj: dict) -> "Measure":
        """The measure a config names; ConfigurationError on an unknown family,
        an unknown, missing or ill-typed parameter, or a bad value."""
        family = obj.get("family")
        spec = FAMILIES.get(family) if isinstance(family, str) else None
        if spec is None:
            raise ConfigurationError(f"unknown family {family!r}")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ConfigurationError(f"params must be a JSON object, got {params!r}")
        args = {}
        for key, value in params.items():
            kind = spec.params.get(key)
            if kind is None:
                raise ConfigurationError(f"family {family!r} has no parameter {key!r}")
            if kind in (int, float):
                value = config_number(value, f"params.{key}", integer=kind is int)
            elif not isinstance(value, kind):
                raise ConfigurationError(f"params.{key} must be a {kind.__name__}, got {value!r}")
            args[key] = value
        try:
            return spec.factory(**args)
        except (TypeError, ValueError, PreconditionError) as exc:
            raise ConfigurationError(f"bad parameters for family {family!r}: {exc}") from None


def chebyshev() -> Measure:
    """Arcsine probability measure dx / (pi sqrt(1-x^2)) on [-1, 1]."""
    return Measure("chebyshev1st", {}, (-1.0, 1.0))


def legendre() -> Measure:
    """Uniform probability measure dx / 2 on [-1, 1]."""
    return Measure("legendre", {}, (-1.0, 1.0))


def jacobi(a_exp: float, b_exp: float) -> Measure:
    """Normalized Jacobi weight (1-x)^a (1+x)^b on [-1, 1]."""
    if not (a_exp > -1.0 and b_exp > -1.0):
        raise ConfigurationError(f"Jacobi exponents must exceed -1, got ({a_exp}, {b_exp})")
    return Measure("jacobi", {"a_exp": float(a_exp), "b_exp": float(b_exp)}, (-1.0, 1.0))


def varying_gaussian(n: int) -> Measure:
    """Scaled Gaussian weight sqrt(n/2pi) exp(-n x^2 / 2) on the line."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return Measure("varying_gaussian", {"n": int(n)}, (-math.inf, math.inf))


def discretized(
    weight_key: str,
    support: tuple[float, float],
    grid: int = 1000,
    scale: float = 1.0,
) -> Measure:
    """User-supplied weight, referenced by registry key, normalized to mass 1."""
    if weight_key not in _WEIGHT_REGISTRY:
        raise ConfigurationError(f"weight key {weight_key!r} not registered")
    ev = _WEIGHT_REGISTRY[weight_key]
    lo, hi = support
    if math.isinf(lo) or math.isinf(hi):
        x, w = _hermite_grid(ev, grid, scale=scale)
    else:
        x, w = _chebyshev_grid(ev, lo, hi, grid)
    mass = float(np.sum(w))
    if not mass > 0.0:
        raise DegenerateMeasureError("weight integrates to zero on the support")
    m = Measure(
        "discretized",
        {"weight_key": weight_key, "support": list(support), "grid": int(grid),
         "scale": float(scale)},
        (float(lo), float(hi)),
    )
    m._norm = mass
    return m


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """Everything that depends on the family of a measure.

    The callables take the Measure first.  params maps each config parameter
    to its type (int, float, str or list); factory takes them by name.
    log_weight defaults to log(weight) and theta_density to
    weight(x(theta)) * half * sin(theta).  rule is a closed-form Gauss rule
    (m, ncols) -> (nodes, weights, S) like gauss_quadrature_scaled.
    gaussian_n is the N of a Gaussian weight exp(-N x^2 / 2), the scale of
    the HKPV line coordinate and of the tridiagonal model.  check_hkpv raises
    ConfigurationError where HKPV's arccos coordinate leaves the density
    unbounded.
    """

    factory: Callable
    recurrence: Callable
    weight: Callable
    params: dict = field(default_factory=dict)
    log_weight: Callable | None = None
    theta_density: Callable | None = None
    rule: Callable | None = None
    gaussian_n: Callable | None = None
    check_hkpv: Callable | None = None


def _chebyshev_weight(mu: Measure, x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 1.0 / (math.pi * np.sqrt(1.0 - x * x))
    return np.where(np.abs(x) < 1.0, val, 0.0)


def _jacobi_log_weight(mu: Measure, x: np.ndarray) -> np.ndarray:
    a, b = mu.params["a_exp"], mu.params["b_exp"]
    logc = (a + b + 1.0) * math.log(2.0) + betaln(a + 1.0, b + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lw = a * np.log(1.0 - x) + b * np.log(1.0 + x) - logc
    return np.where(np.abs(x) < 1.0, lw, -np.inf)


def _jacobi_theta_density(mu: Measure, th: np.ndarray) -> np.ndarray:
    a, b = mu.params["a_exp"], mu.params["b_exp"]
    with np.errstate(divide="ignore"):
        return (np.sin(0.5 * th) ** (2.0 * a + 1.0) * np.cos(0.5 * th) ** (2.0 * b + 1.0)
                * math.exp(-betaln(a + 1.0, b + 1.0)))


def _jacobi_check_hkpv(mu: Measure) -> None:
    # theta = arccos x turns (1 -+ x)^e into theta^(2e+1), unbounded for e < -1/2
    if min(mu.params["a_exp"], mu.params["b_exp"]) < -0.5:
        raise ConfigurationError(
            "HKPV needs Jacobi exponents >= -1/2: below that the arccos-coordinate "
            f"density is unbounded, got {mu.params}")


def _discretized_weight(mu: Measure, x: np.ndarray) -> np.ndarray:
    ev = _WEIGHT_REGISTRY[mu.params["weight_key"]]
    lo, hi = mu.support
    inside = (x >= lo) & (x <= hi)
    return np.where(inside, np.asarray(ev(x), dtype=float) / mu._norm, 0.0)


FAMILIES: dict[str, Family] = {
    "chebyshev1st": Family(
        chebyshev, lambda mu, depth: _chebyshev_coeffs(depth), _chebyshev_weight,
        theta_density=lambda mu, th: np.full(th.shape, 1.0 / math.pi), rule=_chebyshev_rule),
    "legendre": Family(
        legendre, lambda mu, depth: _legendre_coeffs(depth),
        lambda mu, x: np.where(np.abs(x) <= 1.0, 0.5, 0.0)),
    "jacobi": Family(
        jacobi, lambda mu, depth: _jacobi_coeffs(depth, mu.params["a_exp"], mu.params["b_exp"]),
        lambda mu, x: np.exp(_jacobi_log_weight(mu, x)), {"a_exp": float, "b_exp": float},
        log_weight=_jacobi_log_weight, theta_density=_jacobi_theta_density,
        check_hkpv=_jacobi_check_hkpv),
    "varying_gaussian": Family(
        varying_gaussian, lambda mu, depth: _varying_gaussian_coeffs(depth, mu.params["n"]),
        lambda mu, x: (math.sqrt(mu.params["n"] / (2.0 * math.pi))
                       * np.exp(-0.5 * mu.params["n"] * x * x)),
        {"n": int},
        log_weight=lambda mu, x: (0.5 * math.log(mu.params["n"] / (2.0 * math.pi))
                                  - 0.5 * mu.params["n"] * x * x),
        gaussian_n=lambda mu: mu.params["n"]),
    "discretized": Family(
        discretized,
        lambda mu, depth: stieltjes_recurrence(mu.weight, mu.support, depth,
                                               max(mu.params["grid"], 50 * depth),
                                               scale=mu.params["scale"]),
        _discretized_weight, {"weight_key": str, "support": list, "grid": int, "scale": float}),
}
