"""Linear statistics of OPE configurations: sample evaluation and exact moments.

Exact means, variances and the moment generating function are computed by
quadrature of the kernel identities

    E X_f   = int f(x) K_n(x,x) dmu(x)
    Var X_f = int f^2 K_n(x,x) dmu(x) - iint f(x) f(y) K_n(x,y)^2 dmu(x) dmu(y)
    E e^{tX_f} = det(1 + (e^{tf}-1) K_n)

on one doubling ladder of quadrature rules that stops when successive rungs
agree.  One pass over the ladder serves every requested moment of f: each
rung evaluates f on its nodes once.  The variance is the two-term form
above, computed once; for polynomial f the tests check it, and the mean,
against the exact Jacobi-matrix moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import NumericalError, PreconditionError
from .kernel import CDKernel

__all__ = [
    "TestFunction",
    "ScaledStatistic",
    "eval_statistic",
    "eval_scaled_statistic",
    "exact_mean",
    "exact_variance",
    "exact_scaled_variance",
    "mgf",
    "log_mgf",
    "commutator_hs_norm_sq",
]

# Quadrature refinement policy (sizes in nodes, relative agreement target).
_M_BASE = 64
_M_CAP_FACTOR = 16
_M_CAP_BASE = 1024
_REFINE_RTOL = 1e-9
# 16-point Gauss-Legendre rule on [-1, 1], the panel of every composite rule.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class TestFunction:
    """A bounded test function with declared norms and regularity."""

    evaluator: Callable
    sup_norm: float
    lipschitz: Optional[float] = None
    support: Optional[tuple[float, float]] = None
    discontinuities: tuple = ()
    name: str = ""

    __test__ = False  # keep pytest from collecting this as a test class

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.asarray(self.evaluator(np.atleast_1d(arr)), dtype=float)
        return out.reshape(arr.shape)


@dataclass(frozen=True)
class ScaledStatistic:
    """Mesoscopic statistic X_{f,alpha,x*} = sum_j f(n^alpha (lambda_j - x*))."""

    f: TestFunction
    alpha: float
    xstar: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise PreconditionError("alpha must lie in [0, 1)")


def scaled_function(s: ScaledStatistic, n: int) -> TestFunction:
    """The macroscopic function x -> f(n^alpha (x - x*)) with mapped metadata."""
    scale = float(n) ** s.alpha
    f = s.f
    ev = lambda x: f.evaluator(scale * (np.asarray(x, dtype=float) - s.xstar))
    support = None
    if f.support is not None:
        support = (s.xstar + f.support[0] / scale, s.xstar + f.support[1] / scale)
    disc = tuple(s.xstar + d / scale for d in f.discontinuities)
    lip = None if f.lipschitz is None else f.lipschitz * scale
    return TestFunction(ev, f.sup_norm, lip, support, disc, name=f"{f.name}@a={s.alpha}")


def eval_statistic(sample, f: TestFunction) -> float:
    """X_f = sum_j f(lambda_j)."""
    return float(np.sum(f(sample.points)))


def eval_scaled_statistic(sample, s: ScaledStatistic, n: int) -> float:
    """X_{f,alpha,x*} evaluated on a sample of the size-n ensemble."""
    if n != sample.n:
        raise PreconditionError(f"sample has n={sample.n}, statistic expects n={n}")
    scale = float(n) ** s.alpha
    return float(np.sum(s.f(scale * (sample.points - s.xstar))))


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------

def _with_diagonal(nodes: np.ndarray, S: np.ndarray):
    # w_i K(x_i, x_i) = sum_j S_ij^2
    return nodes, S, np.einsum("ij,ij->i", S, S)


def _global_rule(kern: CDKernel, m: int):
    """m-point Gauss rule wrt mu as (nodes, S, kd) with the sqrt-weight-scaled
    design S[i, j] = sqrt(w_i) p_j(x_i) and its row norms kd_i = w_i K(x_i, x_i),
    cached on the kernel.  The scaled form keeps every entry O(1) for unbounded
    weights, where the raw design overflows while the weights underflow."""
    def build():
        nodes, _, S = kern.measure.gauss_rule_scaled(m, kern.n)
        return _with_diagonal(nodes, S)

    return kern.cached(("global", m), build)


def _panel_rule(kern: CDKernel, lo: float, hi: float, refine: float,
                breaks: Sequence[float] = ()):
    """Composite 16-point Gauss-Legendre rule for mu on [lo, hi], as (nodes, weights).

    The panels lie in the measure's Coordinate at rank n, between the ends of
    [lo, hi] clipped to its range, and carry its density with the Jacobian:
    on a compact support theta = arccos x, whose density keeps its digits
    next to theta = 0 and pi.  The span, of length L in that coordinate, is
    split at the breaks inside (lo, hi) and gets
    int(refine * max(32, int(2 n L) + 16)) panels, spread over its pieces by
    length.  refine = 1 is the base rule, the one every window integral
    without a ladder reads; _ladder's rungs are refine = 1/2, 1, 2, ..., 16.
    """
    n = kern.n
    co = kern.measure.coordinate(n)
    to = co.to_u
    brk = sorted({to(lo), to(hi)} | {to(d) for d in breaks if lo < d < hi})
    total = brk[-1] - brk[0]
    npanels = int(refine * max(32, int(2 * n * total) + 16))
    edges = [brk[0]]
    for a, b in zip(brk[:-1], brk[1:]):
        edges.extend(np.linspace(a, b, max(1, int(round(npanels * (b - a) / total))) + 1)[1:])
    edges = np.asarray(edges)
    h = 0.5 * np.diff(edges)               # panel half-widths and centres
    c = 0.5 * (edges[:-1] + edges[1:])
    u = (c[:, None] + h[:, None] * _GL_NODES[None, :]).ravel()
    x = co.to_x(u)
    return x, (h[:, None] * _GL_WEIGHTS[None, :]).ravel() * co.density(u, x)


def _window_rule(kern: CDKernel, lo: float, hi: float, breaks: Sequence[float], refine: float):
    """_panel_rule on [lo, hi] as (nodes, S, kd) like _global_rule, cached on
    the kernel."""
    def build():
        nodes, weights = _panel_rule(kern, lo, hi, refine, breaks)
        S = kern.design(nodes)
        S *= np.sqrt(weights)[:, None]   # in place: no second nodes-by-n array
        return _with_diagonal(nodes, S)

    return kern.cached(("window", round(lo, 15), round(hi, 15), tuple(breaks), refine), build)


def _window_for(kern: CDKernel, f: TestFunction):
    """f's finite support as the span of a window rule, or None for the
    mu-Gauss rule.  On a compact support a window that comes within 2 % of an
    end, or is wider than 60 % of the support, also takes the mu-Gauss rule:
    that rule integrates a Jacobi end weight exactly, whereas theta panels
    with jacobi(0.5, -0.3) stall at errors of 4e-7 that the ladder takes for
    convergence."""
    if f.support is None:
        return None
    wlo, whi = f.support
    if not (math.isfinite(wlo) and math.isfinite(whi)) or whi <= wlo:
        return None
    if kern.measure.compact:
        lo, hi = kern.measure.support
        margin = 0.02 * (hi - lo)
        if wlo < lo + margin or whi > hi - margin or whi - wlo > 0.6 * (hi - lo):
            return None
    return (wlo, whi)


def _term(term, fv: np.ndarray, S: np.ndarray, kd: np.ndarray) -> float:
    """One moment of X_f on a rule, from fv = f(nodes) and kd = w K(x, x)."""
    if term == "mean":
        # sum_i w_i f(x_i) K(x_i, x_i) with the weight folded into S
        return float((fv * kd).sum())
    if term == "variance":
        F = S.T @ (fv[:, None] * S)
        return float((fv * fv * kd).sum() - (F * F).sum())
    M = S.T @ (np.expm1(term * fv)[:, None] * S)
    M.reshape(-1)[:: M.shape[0] + 1] += 1.0   # the diagonal, in place
    # Cholesky reads one triangle of the symmetric M; M.T is M's own storage
    # in Fortran order, so LAPACK factors it in place
    L, info = dpotrf(M.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise NumericalError("MGF matrix lost positive-definiteness")
    logdet = 2.0 * float(np.log(L.diagonal()).sum())
    if not math.isfinite(logdet):
        raise NumericalError(f"log E e^{{tX_f}} is not finite at t={term}")
    return logdet


def _ladder(kern: CDKernel, f: TestFunction, m: int | None, terms: Sequence) -> list:
    """The moments of X_f named in terms ("mean", "variance", or a float t for
    log E e^{tX_f}), in that order, on the quadrature rule for f: _panel_rule
    on f's window if _window_for finds one, else the mu-Gauss rule.  Given m,
    the rule is the m-point mu-Gauss rule or the window's base panels;
    otherwise it is doubled, up to 16n + 1024 Gauss nodes or 16 times the
    base panel count, and each term stops at the first rung that agrees with
    its own previous rung, or at the cap, as it would if refined alone.

    The mu-Gauss rungs are 2n + 64, 4n + 128, ...; the window rungs are half
    the base panel count, then the base, 2, 4, ..., 16 times it.  So both
    ladders, when they converge on their second rung, end on the rule that
    the integrals without a ladder read: 4n + 128 nodes for a covering Nevai
    f (asymptotics._nevai_rule), the base panels for a windowed one, for
    concentration_mass and for every call given m.  The half-size rung only
    certifies the base rule; no term returns its value.

    A term that reaches the cap returns its value on that rung, converged or
    not: exact_variance of functions.get("step") on the Chebyshev kernel at
    n = 50 climbs to the cap 16n + 1024 and returns 0.3417412 against
    0.3418084 at m = 32000 (TestJointLadder's "step" cases rely on this
    behaviour).  Exact laws in place of quadrature would remove the cap."""
    n = kern.n
    if m is not None and m < n:
        raise PreconditionError(f"quadrature size m={m} below kernel rank n={n}")
    win = _window_for(kern, f)
    if win is None:
        size, cap = 2 * n + _M_BASE, _M_CAP_FACTOR * n + _M_CAP_BASE
    else:
        size, cap = 0.5, _M_CAP_FACTOR   # the base panel count's multiplier
    if m is not None:
        size = cap = m if win is None else 1
    vals = [None] * len(terms)   # each term's value on the last rung it reached
    todo = range(len(terms))
    while todo:
        if win is None:
            nodes, S, kd = _global_rule(kern, size)
        else:
            nodes, S, kd = _window_rule(kern, win[0], win[1], f.discontinuities, size)
        fv = f(nodes)
        left = []
        for i in todo:
            last = vals[i]
            vals[i] = val = _term(terms[i], fv, S, kd)
            if size < cap and (last is None
                               or not abs(val - last) / (1.0 + abs(val)) <= _REFINE_RTOL):
                left.append(i)
        todo, size = left, min(2 * size, cap)
    return vals


# ---------------------------------------------------------------------------
# Exact moments
# ---------------------------------------------------------------------------

def exact_mean(kern: CDKernel, f: TestFunction, m: int | None = None) -> float:
    """E X_f = int f(x) K_n(x,x) dmu(x) by quadrature."""
    return _ladder(kern, f, m, ("mean",))[0]


def exact_variance(kern: CDKernel, f: TestFunction, m: int | None = None) -> float:
    """Var X_f by the two-term form int f^2 K_n(x,x) dmu - ||F||_F^2.

    F_{jk} = int f p_j p_k dmu is the compression of f to the first n
    polynomials, so the cross term iint f(x) f(y) K_n(x,y)^2 costs
    O(size * n^2) with no size x size kernel matrix.  The ladder stops when
    successive rungs agree, or unconverged at its cap (see _ladder: about
    2e-4 relative for a step at n = 50); tests check the result against the
    Jacobi-matrix moments of polynomial f.
    """
    return _ladder(kern, f, m, ("variance",))[0]


def exact_scaled_variance(kern: CDKernel, s: ScaledStatistic, m: int | None = None) -> float:
    """Var X_{f,alpha,x*} with window-local quadrature refinement."""
    return exact_variance(kern, scaled_function(s, kern.n), m)


def log_mgf(kern: CDKernel, f: TestFunction, t: float, m: int | None = None) -> float:
    """log E[e^{t X_f}] = log det(1 + (e^{tf}-1) K_n), via a Cholesky factorization.

    On a rule with sqrt-weight-scaled design S the determinant is that of the
    n x n matrix M = I + S^T diag(e^{tf} - 1) S = (I - S^T S) + S^T diag(e^{tf}) S.
    The first summand is positive semidefinite: S^T S = I on a mu-Gauss
    rule, and on a window rule it approximates int_window p p^T dmu <= I.  The
    second is positive definite, as S has rank n.  So M is symmetric
    positive definite and log det M = 2 sum_j log L_jj for its Cholesky
    factor L.  A factorization that fails (M singular, as for a constant f
    with e^{tf} - 1 = -1 in floating point, or indefinite by rounding)
    raises NumericalError, as does a log-determinant that is not finite
    (e^{tf} overflows once t f exceeds about 709).
    """
    return _ladder(kern, f, m, (t,))[0]


def mgf(kern: CDKernel, f: TestFunction, t: float, m: int | None = None) -> float:
    """Moment generating function E[e^{t X_f}]; exactly 1 at t = 0."""
    if t == 0.0:
        return 1.0
    return math.exp(log_mgf(kern, f, t, m))


def commutator_hs_norm_sq(kern: CDKernel, f: TestFunction, m: int | None = None) -> float:
    """Squared Hilbert-Schmidt norm of [f, K_n]; equals twice the variance."""
    return 2.0 * exact_variance(kern, f, m)
