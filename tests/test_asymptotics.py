import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from opelab import asymptotics, functions, linstat, measures
from opelab.errors import DomainError, PreconditionError
from opelab.kernel import CDKernel, kernel_sum, kernel_tilde, reproducing_residual, scaled_kernel
from opelab.linstat import TestFunction

BUMP = functions.get("smooth_bump")
SQUARE = functions.get("square")

# Classical families next to ones whose Gauss rules carry weights far below
# 1e-30 at moderate m.
FAMILIES = {
    "chebyshev": measures.chebyshev,
    "legendre": measures.legendre,
    "jacobi(20,0.5)": lambda: measures.jacobi(20.0, 0.5),
    "varying_gaussian(4)": lambda: measures.varying_gaussian(4),
    "varying_gaussian(16)": lambda: measures.varying_gaussian(16),
}


def _square_nevai_closed_form(kern, x, c=None):
    """int ((y - c)^2 - (x - c)^2) K_n(x,y)^2 / K_n(x,x) dmu(y) from the Jacobi matrix.

    With J the (n+1)x(n+1) Jacobi matrix, int (y - c)^2 p_j p_k dmu is the
    (j, k) entry of (J - c)^2 for j, k < n; c defaults to x.
    """
    n = kern.n
    c = x if c is None else c
    coeffs = kern.measure.recurrence(n + 1)
    J = (np.diag(coeffs.diag[:n + 1] - c) + np.diag(coeffs.offdiag[:n], 1)
         + np.diag(coeffs.offdiag[:n], -1))
    p = measures.orthonormal_prefix(kern.coeffs, n - 1, x)
    return float(p @ (J @ J)[:n, :n] @ p / (p @ p)) - (x - c) ** 2


def _bulk_edge(mu, n):
    """Half-width of the bulk of the rank-n kernel: that of its equilibrium law."""
    return mu.equilibrium(n).support[1]


class TestSineKernel:
    def test_removable_singularity(self):
        assert asymptotics.sine_kernel(0.3, 0.3) == 1.0

    def test_half_spacing(self):
        assert asymptotics.sine_kernel(0.0, 0.5) == pytest.approx(2.0 / math.pi)

    @pytest.mark.parametrize("k", [1, 2, -3])
    def test_integer_zeros(self, k):
        assert asymptotics.sine_kernel(0.0, float(k)) == pytest.approx(0.0, abs=1e-15)

    def test_even_and_bounded(self):
        for d in np.linspace(-4, 4, 33):
            v = asymptotics.sine_kernel(0.0, d)
            assert abs(v) <= 1.0
            assert v == pytest.approx(asymptotics.sine_kernel(0.0, -d))


class TestEquilibriumDensities:
    def test_arcsine_normalized(self):
        rho = asymptotics.arcsine_density()
        mass, _ = integrate.quad(lambda x: rho(x), -1, 1)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert rho(0.0) == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_semicircle_normalized(self):
        mu = measures.varying_gaussian(40)
        rho = asymptotics.semicircle_density(mu, 40)
        lo, hi = rho.support
        assert hi == pytest.approx(2.0, abs=1e-12)  # edge from the recurrence
        mass, _ = integrate.quad(lambda x: rho(x), lo, hi)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_semicircle_radius_scales_with_rank(self):
        mu = measures.varying_gaussian(100)
        rho = asymptotics.semicircle_density(mu, 25)
        assert rho.support[1] == pytest.approx(1.0, abs=1e-12)  # 2 sqrt(25/100)

    @pytest.mark.parametrize("family", sorted(measures.FAMILIES))
    def test_every_family_approaches_its_law(self, family):
        """w(x) K_n(x,x) / n tends to mu.equilibrium(n) on the middle half of
        its support, for each family of the table at its example parameters."""
        example = {"chebyshev1st": lambda n: measures.chebyshev(),
                   "legendre": lambda n: measures.legendre(),
                   "jacobi": lambda n: measures.jacobi(0.5, -0.3),
                   "varying_gaussian": measures.varying_gaussian}[family]
        errors = []
        for n in (50, 400):
            mu = example(n)
            rho = mu.equilibrium(n)
            lo, hi = rho.support
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            errors.append(asymptotics.totik_error(CDKernel(mu, n), rho,
                                                  (mid - 0.5 * half, mid + 0.5 * half)))
        assert errors[1] < errors[0]
        assert errors[1] <= 1.5e-3


class TestNevaiIntegral:
    def test_constant_is_exactly_zero(self):
        kern = CDKernel(measures.chebyshev(), 30)
        c = TestFunction(lambda x: np.full_like(x, 0.3), sup_norm=0.3)
        assert abs(asymptotics.nevai_integral(kern, c, 0.1)) < 1e-12

    def test_rank_one_reduction(self):
        # n=1: K is constant 1, so the integral is E_mu f - f(x)
        mu = measures.legendre()
        kern = CDKernel(mu, 1)
        got = asymptotics.nevai_integral(kern, functions.get("square"), 0.5)
        assert got == pytest.approx(1.0 / 3.0 - 0.25, abs=1e-10)

    def test_bump_magnitude_decreases(self):
        mu = measures.chebyshev()
        vals = [abs(asymptotics.nevai_integral(CDKernel(mu, n), BUMP, 0.0))
                for n in (25, 50, 100)]
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize("n", [50, 400])
    def test_global_path_matches_jacobi_closed_form(self, n):
        """Tiny Gauss weights meet huge kernel values on this path."""
        kern = CDKernel(measures.varying_gaussian(16), n)
        got = asymptotics.nevai_integral(kern, SQUARE, 0.5)
        assert got == pytest.approx(_square_nevai_closed_form(kern, 0.5, c=0.0),
                                    abs=1e-12)


    @pytest.mark.parametrize("a, b, x", [(0.5, -0.3, 0.0), (-0.3, 2.0, 0.9), (-0.3, 2.0, 0.0)])
    @pytest.mark.parametrize("n", [5, 50])
    def test_covering_support_matches_large_gauss_rule(self, a, b, x, n):
        """A continuous f whose support covers a Jacobi weight's singular
        ends takes the mu-Gauss rule; theta panels there were off by 2e-6."""
        kern = CDKernel(measures.jacobi(a, b), n)
        ev = lambda y: np.cos(np.pi * y)
        covering = TestFunction(ev, sup_norm=1.0, support=(-1.0, 1.0))
        nodes, S, _ = linstat._global_rule(kern, 16 * n + 1024)
        p = kern.design([x])[0]
        want = float(np.square(S @ p) @ ev(nodes) / (p @ p) - ev(x))
        assert asymptotics.nevai_integral(kern, covering, x) == pytest.approx(want, abs=1e-13)

    def test_covering_support_with_a_jump_keeps_the_split_panels(self):
        kern = CDKernel(measures.jacobi(0.5, -0.3), 20)
        step = TestFunction(lambda y: np.where(y >= 0.2, 1.0, 0.0), sup_norm=1.0,
                            support=(-1.0, 1.0), discontinuities=(0.2,))
        asymptotics.nevai_integral(kern, step, 0.0)
        assert [key[0] for key in kern.cache] == ["window"]
        assert next(iter(kern.cache))[3] == (0.2,)


class TestAlphaNevai:
    def test_constant_is_exactly_zero(self):
        kern = CDKernel(measures.chebyshev(), 20)
        c = TestFunction(lambda x: np.full_like(x, 0.9), sup_norm=0.9)
        assert asymptotics.alpha_nevai_functional(kern, c, 0.5, 0.0) < 1e-12

    def test_s_zero_alpha_zero_reduces_to_nevai(self):
        kern = CDKernel(measures.chebyshev(), 15)
        a = asymptotics.alpha_nevai_functional(kern, BUMP, 0.0, 0.0, s_grid=[0.0])
        b = abs(asymptotics.nevai_integral(kern, BUMP, 0.0))
        assert a == pytest.approx(b, rel=1e-8)

    def test_decreasing_along_n(self):
        mu = measures.chebyshev()
        vals = [asymptotics.alpha_nevai_functional(CDKernel(mu, n), BUMP, 0.5, 0.0)
                for n in (50, 100, 200)]
        assert vals[0] > vals[1] > vals[2]

    def test_out_of_support_evaluation_point(self):
        kern = CDKernel(measures.chebyshev(), 10)
        with pytest.raises(DomainError):
            asymptotics.alpha_nevai_functional(kern, BUMP, 0.1, 0.9, s_grid=[2.0])

    @pytest.mark.parametrize("alpha, xstar", [(0.5, 0.0), (0.8, 0.3)])
    def test_matches_whole_support_gauss_chebyshev(self, alpha, xstar):
        """nu_{x_s} has mass 1, inside f's window and outside it: the
        functional matches its definition on the closed-form m-point
        Gauss-Chebyshev rule (nodes cos((i + 1/2) pi / m), weights 1/m)."""
        n, m = 50, 20000
        kern = CDKernel(measures.chebyshev(), n)
        y = np.cos(np.pi * (np.arange(m) + 0.5) / m)
        s = np.asarray(asymptotics._DEFAULT_S_GRID)
        xs = xstar + s / float(n) ** alpha
        k = kern.design(xs) @ kern.design(y).T
        avg = (k * k) @ BUMP(float(n) ** alpha * (y - xstar)) / (m * kernel_sum(kern, xs, xs))
        want = float(np.max(np.abs(BUMP(s) - avg)))
        got = asymptotics.alpha_nevai_functional(kern, BUMP, alpha, xstar)
        assert got == pytest.approx(want, abs=1e-13)

    def test_global_path_matches_jacobi_closed_form(self):
        # alpha = 0, x_s = x* + s: the value at s is
        # -int ((y - x*)^2 - (x_s - x*)^2) K(x_s,y)^2 / K(x_s,x_s) dmu(y)
        kern = CDKernel(measures.varying_gaussian(16), 50)
        s_grid = [-0.4, -0.2, 0.0, 0.2, 0.4]
        got = asymptotics.alpha_nevai_functional(kern, SQUARE, 0.0, 0.5, s_grid=s_grid)
        want = max(abs(_square_nevai_closed_form(kern, 0.5 + s, c=0.5)) for s in s_grid)
        assert got == pytest.approx(want, abs=1e-12)


class TestConcentrationMass:
    def test_full_support_is_one(self):
        kern = CDKernel(measures.chebyshev(), 50)
        assert asymptotics.concentration_mass(kern, 0.0, 2.5) == pytest.approx(
            1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [200, 400, 800])
    def test_whole_line_is_one(self, n):
        """A window covering the cut of the line coordinate holds all the mass
        there is in double precision: the reproducing property gives 1."""
        kern = CDKernel(measures.varying_gaussian(16), n)
        assert asymptotics.concentration_mass(kern, 0.0, 100.0) == 1.0

    @pytest.mark.parametrize("xstar", [-0.5, -0.8])
    def test_window_to_tiny_weight_edge_is_one(self, xstar):
        """The window leaves out only (1 - 1e-9, 1], where (1 - y)^20 < 1e-180,
        so by the reproducing property the mass is 1 up to rounding."""
        kern = CDKernel(measures.jacobi(20.0, 0.5), 200)
        mass = asymptotics.concentration_mass(kern, xstar, 1.0 - 1e-9 - xstar)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_rank_one_is_measure_of_window(self):
        kern = CDKernel(measures.legendre(), 1)
        assert asymptotics.concentration_mass(kern, 0.2, 0.3) == pytest.approx(
            0.3, abs=1e-9)

    def test_increasing_toward_one(self):
        mu = measures.chebyshev()
        vals = [asymptotics.concentration_mass(CDKernel(mu, n), 0.0, 0.1)
                for n in (25, 50, 100)]
        assert vals[0] < vals[1] < vals[2] < 1.0

    def test_monotone_in_delta(self):
        kern = CDKernel(measures.chebyshev(), 40)
        masses = [asymptotics.concentration_mass(kern, 0.0, d)
                  for d in (0.05, 0.1, 0.2)]
        assert masses[0] < masses[1] < masses[2]


class TestUniversality:
    @pytest.mark.parametrize("n", [5, 50, 200])
    @pytest.mark.parametrize("family", ["chebyshev", "legendre", "jacobi(20,0.5)",
                                        "varying_gaussian(n)"])
    def test_matches_scalar_double_loop(self, family, n):
        mu = (measures.varying_gaussian(n) if family == "varying_gaussian(n)"
              else FAMILIES[family]())
        kern = CDKernel(mu, n)
        zeros, _ = mu.gauss_rule(n)
        x = 0.5 * (zeros[n // 2 - 1] + zeros[n // 2])  # bulk point between central zeros
        pts = np.linspace(-0.5, 0.5, 11)
        want = max(abs(scaled_kernel(kern, x, a, b) - asymptotics.sine_kernel(a, b))
                   for a in pts for b in pts)
        got = asymptotics.universality_error(kern, x, box=0.5, grid=11)
        assert got == pytest.approx(want, abs=1e-13)

    def test_rescaled_grid_outside_support(self):
        kern = CDKernel(measures.chebyshev(), 5)
        with pytest.raises(DomainError, match="left the support"):
            asymptotics.universality_error(kern, 0.95)

    def test_degenerate_box(self):
        kern = CDKernel(measures.chebyshev(), 30)
        assert asymptotics.universality_error(kern, 0.0, box=0.0, grid=1) == pytest.approx(
            0.0, abs=1e-12)

    def test_error_decreases_with_n(self):
        mu = measures.chebyshev()
        e50 = asymptotics.universality_error(CDKernel(mu, 50), 0.0, grid=11)
        e200 = asymptotics.universality_error(CDKernel(mu, 200), 0.0, grid=11)
        assert e200 < e50


class TestTotik:
    def test_self_comparison_is_zero(self):
        kern = CDKernel(measures.chebyshev(), 30)
        x = np.linspace(-0.5, 0.5, 11)
        vals = np.asarray(kernel_tilde(kern, x, x)) / 30.0
        rho = asymptotics.EquilibriumDensity(
            "self", lambda y: np.interp(y, x, vals), (-0.5, 0.5))
        assert asymptotics.totik_error(kern, rho, (-0.5, 0.5), grid=11) == pytest.approx(
            0.0, abs=1e-14)

    def test_chebyshev_converges_to_arcsine(self):
        mu = measures.chebyshev()
        rho = asymptotics.arcsine_density()
        e50 = asymptotics.totik_error(CDKernel(mu, 50), rho, (-0.5, 0.5))
        e200 = asymptotics.totik_error(CDKernel(mu, 200), rho, (-0.5, 0.5))
        assert e200 < e50
        assert e200 <= 0.02 / math.pi


class TestDecayDiagnostic:
    def test_flags_and_slope(self):
        d = asymptotics.decay_diagnostic([10, 20, 40], [0.4, 0.2, 0.1])
        assert d.is_decreasing
        assert d.fit_slope == pytest.approx(-1.0, abs=1e-10)

    def test_non_monotone_flagged(self):
        d = asymptotics.decay_diagnostic([10, 20, 40], [0.4, 0.5, 0.1])
        assert not d.is_decreasing

    def test_constant_function_all_zero(self):
        mu = measures.chebyshev()
        c = TestFunction(lambda x: np.full_like(x, 2.0), sup_norm=2.0)
        d = asymptotics.variance_decay_diagnostic(mu, c, 0.5, 0.0, [10, 20])
        assert np.allclose(d.values, 0.0, atol=1e-12)

    def test_bump_variance_rate(self):
        mu = measures.chebyshev()
        d = asymptotics.variance_decay_diagnostic(mu, BUMP, 0.5, 0.0, [50, 100, 200])
        assert d.is_decreasing and d.fit_slope < 0

    def test_alpha_range(self):
        with pytest.raises(PreconditionError):
            asymptotics.variance_decay_diagnostic(measures.chebyshev(), BUMP,
                                                  1.0, 0.0, [10, 20])


class TestGaussProductStability:
    """Kernel products integrated by a full Gauss rule stay exact to rounding
    for every family, including those whose rules have underflowing weights."""

    @given(family=st.sampled_from(sorted(FAMILIES)), n=st.integers(1, 200),
           u=st.floats(-0.9, 0.9), v=st.floats(-0.9, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_reproducing_residual(self, family, n, u, v):
        mu = FAMILIES[family]()
        kern = CDKernel(mu, n)
        edge = _bulk_edge(mu, n)
        x, y = u * edge, v * edge
        res = reproducing_residual(kern, x, y, m=n)
        assert res <= 1e-9 * (1.0 + abs(kernel_sum(kern, x, y)))

    @given(family=st.sampled_from(sorted(FAMILIES)), n=st.integers(1, 200),
           u=st.floats(-0.9, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_nevai_integral_global_path(self, family, n, u):
        mu = FAMILIES[family]()
        kern = CDKernel(mu, n)
        x = u * _bulk_edge(mu, n)
        got = asymptotics.nevai_integral(kern, SQUARE, x)
        want = _square_nevai_closed_form(kern, x, c=0.0)
        assert abs(got - want) <= 1e-9 * (1.0 + x * x)
