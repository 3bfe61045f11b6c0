import math

import numpy as np
import pytest

from opelab import asymptotics, functions, measures
from opelab import kernel as kernel_module
from opelab.errors import DomainError, PreconditionError
from opelab.kernel import (
    CDKernel,
    kernel_cd,
    kernel_matrix,
    kernel_sum,
    kernel_tilde,
    reproducing_residual,
    scaled_kernel,
)
from opelab.linstat import ScaledStatistic, _global_rule, _panel_rule, scaled_function

FAMILIES = {
    "chebyshev": measures.chebyshev,
    "legendre": measures.legendre,
    "varying_gaussian": lambda: measures.varying_gaussian(16),
}


class TestKernelSum:
    def test_chebyshev_diagonal_at_zero(self):
        # K_n(0,0) = 1 + 2*(#even k in 1..n-1): n=4 -> 3, n=5 -> 5
        mu = measures.chebyshev()
        assert kernel_sum(CDKernel(mu, 4), 0.0, 0.0) == pytest.approx(3.0, abs=1e-12)
        assert kernel_sum(CDKernel(mu, 5), 0.0, 0.0) == pytest.approx(5.0, abs=1e-12)

    def test_rank_one_kernel_is_constant(self):
        kern = CDKernel(measures.legendre(), 1)
        x = np.linspace(-1, 1, 9)
        assert np.allclose(kernel_sum(kern, x, x), 1.0)

    def test_symmetry(self):
        kern = CDKernel(measures.chebyshev(), 12)
        x = np.array([-0.3, 0.1, 0.6])
        y = np.array([0.2, -0.7, 0.4])
        assert np.allclose(kernel_sum(kern, x, y), kernel_sum(kern, y, x))

    def test_broadcasting_scalar_vs_vector(self):
        kern = CDKernel(measures.chebyshev(), 8)
        y = np.linspace(-0.8, 0.8, 5)
        vec = kernel_sum(kern, 0.25, y)
        assert vec.shape == (5,)
        assert vec[2] == pytest.approx(kernel_sum(kern, 0.25, y[2]))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_diagonal_matches_two_argument_call(self, family):
        """With y is x the recurrence runs once; the value is that of a copy."""
        kern = CDKernel(FAMILIES[family](), 20)
        x = np.linspace(-0.9, 0.9, 41)
        assert np.array_equal(kernel_sum(kern, x, x), kernel_sum(kern, x, x.copy()))
        assert kernel_sum(kern, 0.3, 0.3) == kernel_sum(kern, 0.3, float(np.float64(0.3)))
        assert np.array_equal(kernel_tilde(kern, x, x), kernel_tilde(kern, x, x.copy()))
        # design @ design.T may take the symmetric BLAS product: equal to rounding
        same, copy = kernel_matrix(kern, x, x), kernel_matrix(kern, x, x.copy())
        assert np.allclose(same, copy, rtol=1e-13, atol=1e-13 * np.max(np.abs(copy)))
        assert np.allclose(np.diag(same), kernel_sum(kern, x, x), rtol=1e-13)

    def test_rank_precondition(self):
        with pytest.raises(PreconditionError):
            CDKernel(measures.chebyshev(), 0)


class TestChristoffelDarbouxFormula:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_agreement_with_sum_on_separated_pairs(self, family):
        kern = CDKernel(FAMILIES[family](), 30)
        rng = np.random.default_rng(42)
        scale = 1.0 if family != "varying_gaussian" else 0.5
        for _ in range(200):
            x, y = rng.uniform(-0.9 * scale, 0.9 * scale, 2)
            if abs(x - y) < 1e-3:
                continue
            a = kernel_cd(kern, x, y)
            b = kernel_sum(kern, x, y)
            assert a == pytest.approx(b, rel=1e-8, abs=1e-8)

    def test_near_diagonal_routes_to_sum(self):
        kern = CDKernel(measures.chebyshev(), 20)
        x = 0.3
        assert kernel_cd(kern, x, x + 1e-9) == pytest.approx(
            kernel_sum(kern, x, x), rel=1e-9)

    def test_diagonal_exact(self):
        kern = CDKernel(measures.chebyshev(), 20)
        assert kernel_cd(kern, 0.5, 0.5) == pytest.approx(
            kernel_sum(kern, 0.5, 0.5), rel=0, abs=0)


class TestReproducingProperty:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_residual_small(self, family):
        kern = CDKernel(FAMILIES[family](), 50)
        rng = np.random.default_rng(7)
        scale = 1.0 if family != "varying_gaussian" else 1.5
        for _ in range(20):
            x, y = rng.uniform(-0.9 * scale, 0.9 * scale, 2)
            res = reproducing_residual(kern, x, y, m=50)
            assert res <= 1e-9 * (1.0 + abs(kernel_sum(kern, x, y)))

    def test_requires_enough_nodes(self):
        kern = CDKernel(measures.chebyshev(), 10)
        with pytest.raises(PreconditionError):
            reproducing_residual(kern, 0.1, 0.2, m=9)


class TestWeightedKernel:
    def test_tilde_no_underflow_large_n(self):
        """w^{1/2} is formed in log space; the plain weight underflows here."""
        mu = measures.varying_gaussian(2000)
        kern = CDKernel(mu, 10)
        val = kernel_tilde(kern, 0.01, 0.01)
        assert np.isfinite(val) and val > 0.0

    def test_tilde_outside_support_raises(self):
        kern = CDKernel(measures.chebyshev(), 5)
        with pytest.raises(DomainError):
            kernel_tilde(kern, 1.5, 0.0)

    def test_scaled_kernel_origin_is_one(self):
        kern = CDKernel(measures.chebyshev(), 50)
        assert scaled_kernel(kern, 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_kernel_domain_error(self):
        kern = CDKernel(measures.chebyshev(), 5)
        with pytest.raises(DomainError):
            scaled_kernel(kern, 0.99, 500.0, 0.0)


class TestTraceIdentity:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_trace_equals_rank(self, family, n):
        mu = FAMILIES[family]()
        kern = CDKernel(mu, n)
        nodes, weights = mu.gauss_rule(max(n, 2))
        P = kern.design(nodes)
        trace = float(np.sum(weights * np.einsum("ij,ij->i", P, P)))
        assert trace == pytest.approx(n, abs=1e-10 * n)


_ONE_PASS_FAMILIES = {
    "chebyshev": lambda n: measures.chebyshev(),
    "legendre": lambda n: measures.legendre(),
    "jacobi(0.5,-0.3)": lambda n: measures.jacobi(0.5, -0.3),
    "varying_gaussian": measures.varying_gaussian,
}


def _passes(monkeypatch):
    """Count orthonormal_prefix calls through measures and kernel alike."""
    calls = []
    inner = measures.orthonormal_prefix

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(measures, "orthonormal_prefix", counted)
    monkeypatch.setattr(kernel_module, "orthonormal_prefix", counted)
    return calls


def _panel_design(kern, lo, hi, breaks=()):
    """The base panels of [lo, hi] with their sqrt-weight-scaled design."""
    nodes, weights = _panel_rule(kern, lo, hi, 1, breaks)
    return nodes, np.sqrt(weights)[:, None] * kern.design(nodes)


def _nu_mean(kern, x, rule, g):
    """The mean of g under K_n(x,y)^2 dmu(y) / K_n(x,x) at each point of x,
    with one pass per point set."""
    nodes, S = rule
    p = kern.design(x)
    return np.square(p @ S.T) @ g(nodes) / np.sum(p * p, axis=1)


def _nevai_reference_rule(kern, f):
    """The rule of asymptotics._nevai_rule, built from its primitives: a
    continuous f covering the coordinate's x-range takes the mu-Gauss rule."""
    lo, hi = kern.measure.coordinate(kern.n).x_range()
    covers = (f.support is not None and not f.discontinuities
              and f.support[0] <= lo and hi <= f.support[1])
    if f.support is not None and not covers:
        return _panel_design(kern, *f.support, f.discontinuities)
    return _global_rule(kern, 4 * kern.n + 128)[:2]


class TestOnePassPerCall:
    """Each kernel call and Nevai functional runs the recurrence once, with
    the values of one pass per point set, bit for bit."""

    @pytest.fixture(params=sorted(_ONE_PASS_FAMILIES))
    def family(self, request):
        return request.param

    @pytest.fixture(params=[5, 50])
    def kern(self, request, family):
        return CDKernel(_ONE_PASS_FAMILIES[family](request.param), request.param)

    @staticmethod
    def _once(monkeypatch, fn):
        fn()   # builds and caches any quadrature rule first
        calls = _passes(monkeypatch)
        val = fn()
        assert len(calls) == 1
        monkeypatch.undo()
        return val

    @staticmethod
    def _scale(kern):
        # 1 on [-1, 1]; 1/2 on the line, whose bulk at rank n = N is [-2, 2]
        return 1.0 / kern.measure.equilibrium(kern.n).support[1]

    def test_kernel_functions(self, kern, monkeypatch):
        c = self._scale(kern)
        x, y = c * np.linspace(-0.9, 0.9, 17), c * np.linspace(-0.7, 0.95, 13)
        P = lambda z: measures.orthonormal_prefix(kern.coeffs, kern.n - 1, z)
        for xs, ys in ((x, y), (0.3 * c, y), (x, x.copy())):
            got = self._once(monkeypatch, lambda: kernel_matrix(kern, xs, ys))
            assert np.array_equal(got, kern.design(xs) @ kern.design(ys).T)
        for xs, ys in ((x, y[:1]), (0.3 * c, 0.1 * c), (0.25 * c, y), (x, x.copy())):
            got = self._once(monkeypatch, lambda: kernel_sum(kern, xs, ys))
            xb, yb = np.broadcast_arrays(xs, ys)
            want = np.sum(P(xb) * P(yb), axis=0)
            assert np.array_equal(got, want)
        n = kern.n
        for a, b in zip(x[::4], y[::3]):
            got = self._once(monkeypatch, lambda: kernel_cd(kern, a, b))
            pa = measures.orthonormal_prefix(kern.coeffs, n, float(a))
            pb = measures.orthonormal_prefix(kern.coeffs, n, float(b))
            b_n = kern.coeffs.offdiag[n - 1]
            assert got == float(b_n * (pa[n] * pb[n - 1] - pb[n] * pa[n - 1]) / (a - b))

    @pytest.mark.parametrize("path", ["restricted", "mu-Gauss"])
    def test_nevai_functionals(self, kern, path, monkeypatch):
        c = self._scale(kern)
        f = functions.get("smooth_bump" if path == "restricted" else "cosine")
        for x in (0.0, 0.31 * c, -0.47 * c):
            got = self._once(monkeypatch, lambda: asymptotics.nevai_integral(kern, f, x))
            rule = _nevai_reference_rule(kern, f)
            assert got == float(_nu_mean(kern, x, rule, f)[0]) - f(x)
        for x in (0.0, -0.1 * c):   # every x + s / n^alpha inside the support
            for alpha in (0.5, 0.8):
                got = self._once(monkeypatch,
                                 lambda: asymptotics.alpha_nevai_functional(kern, f, alpha, x))
                s = np.asarray(asymptotics._DEFAULT_S_GRID)
                xs = x + s / float(kern.n) ** alpha
                ft = scaled_function(ScaledStatistic(f, alpha, x), kern.n)
                vals = f(s) - _nu_mean(kern, xs, _nevai_reference_rule(kern, ft), ft)
                assert got == float(np.max(np.abs(vals), initial=0.0))

    def test_concentration_mass(self, kern, monkeypatch):
        c = self._scale(kern)
        for x in (0.0, 0.31 * c, -0.47 * c):
            for delta in (0.05, 0.1, 0.5):
                got = self._once(monkeypatch,
                                 lambda: asymptotics.concentration_mass(kern, x, delta))
                rule = _panel_design(kern, x - delta, x + delta)
                assert got == float(_nu_mean(kern, x, rule, np.ones_like)[0])
