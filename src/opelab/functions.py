"""Named registry of test functions for linear statistics.

Experiment configs refer to functions by registry key (or by polynomial
coefficients) so that runs are reproducible without shipping code in configs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .linstat import TestFunction
from .measures import config_number

__all__ = ["REGISTRY", "get", "from_spec", "bounded_suite"]


def _bump(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi * xi))
    return out


def _grid_lipschitz(ev, lo=-3.0, hi=3.0, pts=20001) -> float:
    """Finite-difference estimate of the Lipschitz constant, padded by 5%."""
    x = np.linspace(lo, hi, pts)
    y = ev(x)
    slope = np.max(np.abs(np.diff(y) / np.diff(x)))
    return float(1.05 * slope)


def _step(x):
    return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, 0.0)


REGISTRY: dict[str, TestFunction] = {
    "identity": TestFunction(lambda x: np.asarray(x, dtype=float), sup_norm=1.0,
                             lipschitz=1.0, name="identity"),
    "square": TestFunction(lambda x: np.asarray(x, dtype=float) ** 2, sup_norm=1.0,
                           lipschitz=2.0, name="square"),
    "smooth_bump": TestFunction(_bump, sup_norm=1.0, lipschitz=_grid_lipschitz(_bump),
                                support=(-1.0, 1.0), name="smooth_bump"),
    "step": TestFunction(_step, sup_norm=1.0, discontinuities=(0.0,), name="step"),
    "cosine": TestFunction(lambda x: np.cos(np.pi * np.asarray(x, dtype=float)),
                           sup_norm=1.0, lipschitz=float(np.pi), name="cosine"),
}


def get(name: str) -> TestFunction:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown test function {name!r}; known: {sorted(REGISTRY)}"
        ) from None


def _clipped_poly(coeffs: np.ndarray) -> TestFunction:
    c = np.asarray(coeffs, dtype=float)
    head, *rest = c.tolist()[::-1]

    def ev(x):
        # Horner's rule in numpy's polyval order, c[-1] + x*0 first, so the
        # values are polyval's bit for bit; then clipped to [-1, 1].
        x = np.asarray(x, dtype=float)
        v = x * 0.0
        v += head
        for ck in rest:
            v *= x
            v += ck
        return np.minimum(np.maximum(v, -1.0), 1.0)

    return TestFunction(ev, sup_norm=1.0, lipschitz=_grid_lipschitz(ev),
                        name=f"poly{list(np.round(c, 6))}")


def from_spec(spec) -> TestFunction:
    """Resolve a registry key or {"poly": [c0, c1, ...]} into a TestFunction."""
    if isinstance(spec, str):
        return get(spec)
    if isinstance(spec, dict) and "poly" in spec:
        poly = spec["poly"]
        if not isinstance(poly, list) or not poly:
            raise ConfigurationError(
                f"poly must be a nonempty list of finite coefficients, got {poly!r}")
        return _clipped_poly(np.array([config_number(c, "poly coefficient") for c in poly]))
    raise ConfigurationError(f"cannot interpret test function spec {spec!r}")


def bounded_suite(count: int = 50) -> list[TestFunction]:
    """Deterministic family of clipped random polynomials (sup norm 1).

    Used for bound sweeps: every member is bounded by 1 and Lipschitz with a
    grid-estimated constant.
    """
    rng = np.random.default_rng(20240815)
    out = []
    for _ in range(count):
        deg = int(rng.integers(1, 5))
        coeffs = rng.uniform(-1.0, 1.0, size=deg + 1)
        out.append(_clipped_poly(coeffs))
    return out
