"""Reference probability measures, orthonormal polynomial systems and Gauss rules.

All polynomial systems use the orthonormal three-term recurrence

    b_{k+1} p_{k+1}(x) = (x - a_k) p_k(x) - b_k p_{k-1}(x),   p_{-1} = 0, p_0 = 1,

so the leading-coefficient ratio gamma_{n-1}/gamma_n equals b_n.  Every measure
is a probability measure with its recurrence in closed form.  Everything that
depends on the family of a measure is its entry in the table FAMILIES at the
end of this module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.special import betaln

from .errors import (
    ConfigurationError,
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
    "Coordinate",
    "EquilibriumDensity",
    "arcsine_density",
    "semicircle_density",
    "Family",
    "FAMILIES",
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

    @cached_property
    def steps(self) -> tuple:
        """The steps of orthonormal_prefix as Python floats, made on its first
        pass: (a, b) with a[j] the coefficient a_j, or None where it is +0.0
        and x - a_j == x exactly, and b[j] the coefficient b_{j+1}.  A Gauss
        rule by eigensolve never asks for them."""
        a = tuple(None if c == 0.0 and math.copysign(1.0, c) > 0.0 else c
                  for c in self.diag.tolist())
        return a, tuple(self.offdiag.tolist())

    @property
    def depth(self) -> int:
        return len(self.diag)


def orthonormal_prefix(coeffs: RecurrenceCoefficients, k: int, x) -> np.ndarray:
    """All of p_0(x),...,p_k(x) in one forward-recurrence pass.

    Returns an array of shape (k+1,) + shape(x).  A single point runs on
    Python floats, more points degree by degree in place; both take the
    same IEEE steps in the same order, so their values agree bit for bit.
    """
    if k < 0 or k > coeffs.depth:
        raise PreconditionError(f"index {k} out of range for depth {coeffs.depth}")
    xv = np.asarray(x, dtype=float)
    a, b = coeffs.steps
    if xv.size == 1:
        t = xv.item()
        p = [1.0]
        if k:
            p.append((t if a[0] is None else t - a[0]) / b[0])
        for j in range(1, k):
            p.append(((t if a[j] is None else t - a[j]) * p[j] - b[j - 1] * p[j - 1]) / b[j])
        return np.array(p).reshape((k + 1,) + xv.shape)
    out = np.empty((k + 1,) + xv.shape)
    out[0] = 1.0
    if k == 0:
        return out
    p = list(out)   # the rows as views, made once
    np.divide(xv if a[0] is None else xv - a[0], b[0], p[1])
    tmp = np.empty(xv.shape)
    for j in range(1, k):
        # p[j+1] = ((x - a_j) p[j] - b_j p[j-1]) / b_{j+1}, with no temporaries
        if a[j] is None:
            np.multiply(xv, p[j], p[j + 1])
        else:
            np.subtract(xv, a[j], tmp)
            np.multiply(tmp, p[j], p[j + 1])
        np.multiply(b[j - 1], p[j - 1], tmp)
        np.subtract(p[j + 1], tmp, p[j + 1])
        np.divide(p[j + 1], b[j], p[j + 1])
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
    # k = 1..depth-1, each term in the order of the scalar formula so that
    # every coefficient keeps its value bit for bit
    k = np.arange(1.0, depth)
    s = 2.0 * k + a + b
    diag[1:] = (b * b - a * a) / (s * (s + 2.0))
    kk = k + 1.0  # beta index: beta[k] = beta_{k+1} monic
    ss = 2.0 * kk + a + b
    beta[1:] = 4.0 * kk * (kk + a) * (kk + b) * (kk + a + b) / (ss * ss * (ss + 1.0) * (ss - 1.0))
    return RecurrenceCoefficients(diag, np.sqrt(beta))


def _varying_gaussian_coeffs(depth: int, n: int) -> RecurrenceCoefficients:
    k = np.arange(1, depth + 1, dtype=float)
    return RecurrenceCoefficients(np.zeros(depth), np.sqrt(k / float(n)))


# ---------------------------------------------------------------------------
# Measure
# ---------------------------------------------------------------------------

# Depths of RecurrenceCoefficients a measure keeps: a report asks for n and
# n + 1 per n (densities and kernels) and m per Gauss rule by eigensolve.
_RECURRENCE_STORE = 8


@dataclass
class Measure:
    """A reference probability measure with its orthonormal polynomial system."""

    family: str
    params: dict
    support: tuple[float, float]

    # The RecurrenceCoefficients handed out, one per depth (see recurrence).
    _store: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def spec(self) -> "Family":
        try:
            return FAMILIES[self.family]
        except KeyError:
            raise ConfigurationError(f"unknown family {self.family!r}") from None

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

    def coordinate(self, n: int) -> "Coordinate":
        """The coordinate in which HKPV proposes and panel rules lie at rank n:
        one in which the density of the measure is bounded."""
        return self.spec.coordinate(self, n)

    def equilibrium(self, n: int) -> "EquilibriumDensity":
        """The limit of w(x) K_n(x,x) / n: the equilibrium density of the
        measure at rank n."""
        return self.spec.equilibrium(self, n)

    # -- recurrence coefficients, lazily extended ---------------------------

    def recurrence(self, depth: int) -> RecurrenceCoefficients:
        """The first depth coefficients, as one object per depth: every
        CDKernel, Gauss rule and density of this measure at that depth shares
        it, and with it the step tuples of orthonormal_prefix.  The store
        keeps the _RECURRENCE_STORE newest depths, evicting the oldest first;
        the family's closed form rebuilds an evicted one with the same values
        (see Family)."""
        if depth < 1:
            raise PreconditionError("depth must be >= 1")
        coeffs = self._store.get(depth)
        if coeffs is None:
            coeffs = self.spec.recurrence(self, depth)
            if len(self._store) >= _RECURRENCE_STORE:
                del self._store[next(iter(self._store))]
            self._store[depth] = coeffs
        return coeffs

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
            args[key] = config_number(value, f"params.{key}", integer=kind is int)
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


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coordinate:
    """A coordinate u on [lo, hi] in which a measure's density is bounded.

    to_x maps u to x, to_u maps a float x back, clipped to [lo, hi], and
    density(u, x) at x = to_x(u) is the density of the measure in u, the
    weight times the Jacobian |dx/du|.
    """

    lo: float
    hi: float
    to_x: Callable
    to_u: Callable
    density: Callable

    def x_range(self) -> tuple[float, float]:
        """The ascending x-interval that [lo, hi] maps onto: the support of a
        compact measure, on the line the span past which its mass is far
        below double precision."""
        return tuple(sorted(float(x) for x in self.to_x(np.array([self.lo, self.hi]))))


def _theta_coordinate(mu: Measure, n: int) -> Coordinate:
    # x = mid + half cos(theta) on [0, pi], carrying the family's theta_density
    slo, shi = mu.support
    mid, half = 0.5 * (shi + slo), 0.5 * (shi - slo)
    return Coordinate(
        0.0, math.pi, lambda u: mid + half * np.cos(u),
        lambda x: math.acos(min(max((x - mid) / half, -1.0), 1.0)),
        lambda u, x: mu.spec.theta_density(mu, np.asarray(u, dtype=float)))


def _gaussian_coordinate(mu: Measure, n: int) -> Coordinate:
    # x itself, cut 10 standard deviations of exp(-N x^2 / 2) past the
    # spectral edge 2 sqrt(n / N): the mass beyond is far below double precision
    big_n = mu.params["n"]
    cut = 2.0 * math.sqrt(n / big_n) + 10.0 / math.sqrt(big_n)
    return Coordinate(-cut, cut, lambda u: u, lambda x: min(max(x, -cut), cut),
                      lambda u, x: mu.weight(x))


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
    radius = float(np.max(coeffs.diag[:n] + 2.0 * coeffs.offdiag[:n]))

    def ev(x):
        x = np.asarray(x, dtype=float)
        return 2.0 / (np.pi * radius * radius) * np.sqrt(
            np.maximum(radius * radius - x * x, 0.0))

    return EquilibriumDensity("SemicircleVaryingGaussian", ev, (-radius, radius))


# Off-diagonal scale of the tridiagonal Gaussian model: the beta = 2 case of
# Dumitriu-Edelman's chi_{beta k} / sqrt(2) entries (J. Math. Phys. 2002).
_TRIDIAG_OFFDIAG_SCALE = 1.0 / math.sqrt(2.0)


def _gue_points(mu: Measure, n: int, gen: np.random.Generator) -> np.ndarray:
    # eigenvalues of the beta = 2 tridiagonal model, scaled to exp(-N x^2 / 2)
    diag = gen.standard_normal(n)
    k = np.arange(n - 1, 0, -1)
    off = np.sqrt(gen.chisquare(2 * k)) * _TRIDIAG_OFFDIAG_SCALE
    try:
        vals = eigvalsh_tridiagonal(diag, off)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc
    return np.sort(vals) / math.sqrt(mu.params["n"])


@dataclass(frozen=True)
class Family:
    """Everything that depends on the family of a measure.

    The callables take the Measure first.  params maps each config parameter
    to its type, int or float; factory takes them by name.  coordinate(mu, n)
    is the Coordinate of HKPV proposals and panel rules at rank n, and
    equilibrium(mu, n) the EquilibriumDensity that w(x) K_n(x,x) / n tends
    to.  matrix_model(mu, n, gen), where the family has one, draws the rank-n
    ensemble, sorted, as the eigenvalues of a random matrix.  log_weight
    defaults to log(weight).  theta_density, the density in theta of
    x = cos(theta), is required by _theta_coordinate; it is written in
    sin(theta/2) and cos(theta/2), since 1 -+ x = 2 sin^2(theta/2),
    2 cos^2(theta/2), where 1 - x*x would lose all digits next to theta = 0
    and pi.  rule is a closed-form Gauss rule (m, ncols) -> (nodes, weights, S)
    like gauss_quadrature_scaled.  check_hkpv raises ConfigurationError where
    the family's coordinate leaves the density unbounded.

    recurrence(mu, depth) gives each coefficient as a function of its index
    alone, so the first k coefficients of any depth are those of depth k bit
    for bit: Measure.recurrence builds each depth afresh and relies on this.
    A new entry keeps it, for instance by computing every coefficient
    elementwise from its index with no running sum or product.
    """

    factory: Callable
    recurrence: Callable
    weight: Callable
    coordinate: Callable
    equilibrium: Callable
    params: dict = field(default_factory=dict)
    log_weight: Callable | None = None
    theta_density: Callable | None = None
    rule: Callable | None = None
    matrix_model: Callable | None = None
    check_hkpv: Callable | None = None


def _arcsine_equilibrium(mu: Measure, n: int) -> EquilibriumDensity:
    return arcsine_density(mu.support)


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


FAMILIES: dict[str, Family] = {
    "chebyshev1st": Family(
        chebyshev, lambda mu, depth: _chebyshev_coeffs(depth), _chebyshev_weight,
        _theta_coordinate, _arcsine_equilibrium,
        theta_density=lambda mu, th: np.full(th.shape, 1.0 / math.pi), rule=_chebyshev_rule),
    "legendre": Family(
        legendre, lambda mu, depth: _legendre_coeffs(depth),
        lambda mu, x: np.where(np.abs(x) <= 1.0, 0.5, 0.0), _theta_coordinate,
        _arcsine_equilibrium, theta_density=lambda mu, th: 0.5 * np.sin(th)),
    "jacobi": Family(
        jacobi, lambda mu, depth: _jacobi_coeffs(depth, mu.params["a_exp"], mu.params["b_exp"]),
        lambda mu, x: np.exp(_jacobi_log_weight(mu, x)), _theta_coordinate,
        _arcsine_equilibrium, {"a_exp": float, "b_exp": float},
        log_weight=_jacobi_log_weight, theta_density=_jacobi_theta_density,
        check_hkpv=_jacobi_check_hkpv),
    "varying_gaussian": Family(
        varying_gaussian, lambda mu, depth: _varying_gaussian_coeffs(depth, mu.params["n"]),
        lambda mu, x: (math.sqrt(mu.params["n"] / (2.0 * math.pi))
                       * np.exp(-0.5 * mu.params["n"] * x * x)),
        _gaussian_coordinate, semicircle_density, {"n": int},
        log_weight=lambda mu, x: (0.5 * math.log(mu.params["n"] / (2.0 * math.pi))
                                  - 0.5 * mu.params["n"] * x * x),
        matrix_model=_gue_points),
}
