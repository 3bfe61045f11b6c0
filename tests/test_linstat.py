import functools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta, betainc, ndtr

from opelab import asymptotics, functions, linstat, measures
from opelab.errors import NumericalError, PreconditionError
from opelab.kernel import _CACHE_SIZE, CDKernel
from opelab.linstat import (
    ScaledStatistic,
    TestFunction,
    commutator_hs_norm_sq,
    eval_scaled_statistic,
    eval_statistic,
    exact_mean,
    exact_scaled_variance,
    exact_variance,
    log_mgf,
    mgf,
    scaled_function,
)
from opelab.sampler import RngStream, SampleConfiguration, _envelope, sample_ope

ONE = TestFunction(lambda x: np.ones_like(x), sup_norm=1.0, name="one")
IDENTITY = functions.get("identity")
SQUARE = functions.get("square")
BUMP = functions.get("smooth_bump")


_ORACLE_FAMILIES = {
    "chebyshev": lambda n: measures.chebyshev(),
    "legendre": lambda n: measures.legendre(),
    "varying_gaussian": measures.varying_gaussian,
    "jacobi(20,0.5)": lambda n: measures.jacobi(20.0, 0.5),
}


@functools.lru_cache(maxsize=None)
def _oracle_kernel(family, n):
    """One kernel per (family, n), so its Gauss rules are built once."""
    return CDKernel(_ORACLE_FAMILIES[family](n), n)


def _config(points):
    pts = np.sort(np.asarray(points, dtype=float))
    return SampleConfiguration(pts, seed=0, method="hkpv", n=len(pts))


class TestEvalStatistic:
    def test_counting(self):
        assert eval_statistic(_config([-0.5, 0.1, 0.7]), ONE) == 3.0

    def test_zero_function(self):
        zero = TestFunction(lambda x: np.zeros_like(x), sup_norm=1.0)
        assert eval_statistic(_config([-0.5, 0.1]), zero) == 0.0

    def test_square_arithmetic(self):
        assert eval_statistic(_config([-0.5, 0.5]), SQUARE) == pytest.approx(0.5)

    def test_scaled_reduces_to_global(self):
        sample = _config([-0.3, 0.2, 0.8])
        s = ScaledStatistic(SQUARE, alpha=0.0, xstar=0.0)
        assert eval_scaled_statistic(sample, s, 3) == pytest.approx(
            eval_statistic(sample, SQUARE))

    def test_scaled_empty_window(self):
        sample = _config([0.5, 0.9])
        s = ScaledStatistic(BUMP, alpha=0.9, xstar=-0.5)
        assert eval_scaled_statistic(sample, s, 2) == 0.0

    def test_scaled_wrong_n(self):
        with pytest.raises(PreconditionError):
            eval_scaled_statistic(_config([0.0]), ScaledStatistic(BUMP, 0.5, 0.0), 2)


class TestExactMean:
    def test_trace_for_constant_one(self):
        kern = CDKernel(measures.chebyshev(), 20)
        assert exact_mean(kern, ONE) == pytest.approx(20.0, rel=1e-12)

    def test_odd_function_symmetric_measure(self):
        kern = CDKernel(measures.chebyshev(), 7)
        assert exact_mean(kern, IDENTITY) == pytest.approx(0.0, abs=1e-12)

    def test_square_termwise_oracle_n3(self):
        # sum over j<3 of a_j^2 + b_j^2 + b_{j+1}^2 = 1/2 + 3/4 + 1/2
        kern = CDKernel(measures.chebyshev(), 3)
        assert exact_mean(kern, SQUARE) == pytest.approx(1.75, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_square_matches_recurrence_identity(self, n):
        mu = measures.chebyshev()
        kern = CDKernel(mu, n)
        co = mu.recurrence(n + 1)
        a, b = co.diag, np.concatenate([[0.0], co.offdiag])
        want = sum(a[j] ** 2 + b[j] ** 2 + b[j + 1] ** 2 for j in range(n))
        assert exact_mean(kern, SQUARE) == pytest.approx(want, rel=1e-12)

    def test_quadrature_below_rank_rejected(self):
        kern = CDKernel(measures.chebyshev(), 10)
        with pytest.raises(PreconditionError):
            exact_mean(kern, SQUARE, m=5)


class TestExactVariance:
    def test_constant_gives_zero(self):
        kern = CDKernel(measures.chebyshev(), 6)
        assert exact_variance(kern, ONE) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_identity_chebyshev(self, n):
        kern = CDKernel(measures.chebyshev(), n)
        assert exact_variance(kern, IDENTITY) == pytest.approx(0.25, abs=1e-10)

    def test_identity_legendre_n2(self):
        kern = CDKernel(measures.legendre(), 2)
        assert exact_variance(kern, IDENTITY) == pytest.approx(4.0 / 15.0, abs=1e-10)

    def test_variance_equals_squared_offdiag(self):
        """Var X_x = b_n^2 for any family (Christoffel-Darboux computation)."""
        mu = measures.varying_gaussian(8)
        for n in (2, 4, 7):
            kern = CDKernel(mu, n)
            b_n = mu.recurrence(n).offdiag[n - 1]
            assert exact_variance(kern, IDENTITY) == pytest.approx(b_n ** 2, rel=1e-10)

    def test_generic_bound(self):
        kern = CDKernel(measures.legendre(), 12)
        for f in functions.bounded_suite(8):
            assert exact_variance(kern, f) <= 2 * 12 * f.sup_norm ** 2

    @given(family=st.sampled_from(sorted(_ORACLE_FAMILIES)),
           n=st.sampled_from([5, 50, 200]),
           coeffs=st.lists(st.floats(-1, 1), min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_representation_agreement_polynomials(self, family, n, coeffs):
        """The quadrature moments of a raw polynomial f agree with its
        Jacobi-matrix moments: with F = f(J) for J truncated at n + deg f,
        E X_f = Tr F[:n,:n] and Var X_f = sum_{j<n<=l} F_jl^2."""
        c = np.array(coeffs)
        f = TestFunction(lambda x: np.polynomial.polynomial.polyval(x, c),
                         sup_norm=float(np.sum(np.abs(c))))
        kern = _oracle_kernel(family, n)
        co = kern.measure.recurrence(n + len(c) - 1)
        J = np.diag(co.diag) + np.diag(co.offdiag[:-1], 1) + np.diag(co.offdiag[:-1], -1)
        F = np.zeros_like(J)
        for ck in c[::-1]:  # Horner in the matrix J
            F = F @ J + ck * np.eye(len(J))
        assert exact_mean(kern, f) == pytest.approx(np.trace(F[:n, :n]), rel=1e-10, abs=1e-12)
        assert exact_variance(kern, f) == pytest.approx(
            np.sum(F[:n, n:] ** 2), rel=1e-10, abs=1e-12)


class TestScaledVariance:
    def test_alpha_zero_reduces(self):
        kern = CDKernel(measures.chebyshev(), 10)
        s = ScaledStatistic(SQUARE, alpha=0.0, xstar=0.0)
        assert exact_scaled_variance(kern, s) == pytest.approx(
            exact_variance(kern, SQUARE), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.8])
    def test_lipschitz_bound(self, alpha):
        mu = measures.chebyshev()
        n = 20
        kern = CDKernel(mu, n)
        b_n = mu.recurrence(n).offdiag[n - 1]
        for f in [BUMP, functions.get("cosine")] + functions.bounded_suite(5):
            s = ScaledStatistic(f, alpha, 0.0)
            bound = f.lipschitz ** 2 * b_n ** 2 * n ** (2 * alpha)
            assert exact_scaled_variance(kern, s) <= bound * (1 + 1e-9)

    def test_scaled_variance_rate_decreases(self):
        mu = measures.chebyshev()
        vals = []
        for n in (50, 100, 200):
            s = ScaledStatistic(BUMP, 0.5, 0.0)
            vals.append(n ** (-0.5) * exact_scaled_variance(CDKernel(mu, n), s))
        assert vals[0] > vals[1] > vals[2]


class TestMgf:
    def test_t_zero_is_one(self):
        assert mgf(CDKernel(measures.chebyshev(), 5), SQUARE, 0.0) == 1.0

    def test_constant_function(self):
        # X_f = c*n deterministically
        kern = CDKernel(measures.chebyshev(), 4)
        c, t = 0.7, 0.3
        f = TestFunction(lambda x: np.full_like(x, c), sup_norm=c)
        assert log_mgf(kern, f, t) == pytest.approx(t * c * 4, rel=1e-10)

    def test_cumulant_expansion_chebyshev(self):
        # log E e^{tX_x} = t^2 Var/2 + O(t^4) by symmetry; Var = 1/4
        kern = CDKernel(measures.chebyshev(), 5)
        val = log_mgf(kern, IDENTITY, 0.1)
        assert val == pytest.approx(0.00125, abs=5e-4)

    def test_derivatives_match_moments(self):
        kern = CDKernel(measures.chebyshev(), 8)
        f = SQUARE
        h = 1e-4
        lp, l0, lm = (log_mgf(kern, f, t) for t in (h, 0.0, -h))
        mean = exact_mean(kern, f)
        var = exact_variance(kern, f)
        assert (lp - lm) / (2 * h) == pytest.approx(mean, rel=1e-4)
        assert (lp - 2 * l0 + lm) / h ** 2 == pytest.approx(var, rel=1e-4)

    def test_mgf_positive_and_log_channel_consistent(self):
        kern = CDKernel(measures.legendre(), 6)
        t = 0.25
        assert mgf(kern, BUMP, t) == pytest.approx(math.exp(log_mgf(kern, BUMP, t)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("family", ["chebyshev", "legendre"])
    def test_non_finite_log_mgf_raises(self, family):
        # e^{800} overflows, so the log-determinant (exactly 3200) is not finite
        kern = CDKernel(_JOINT_FAMILIES[family](4), 4)
        with pytest.raises(NumericalError):
            log_mgf(kern, ONE, 800.0)
        with pytest.raises(NumericalError):
            mgf(kern, ONE, 800.0)


class TestCommutator:
    def test_constant_commutes(self):
        kern = CDKernel(measures.chebyshev(), 6)
        assert commutator_hs_norm_sq(kern, ONE) == pytest.approx(0.0, abs=1e-12)

    def test_identity_chebyshev(self):
        kern = CDKernel(measures.chebyshev(), 9)
        assert commutator_hs_norm_sq(kern, IDENTITY) == pytest.approx(0.5, abs=1e-10)

    def test_nonnegative(self):
        kern = CDKernel(measures.legendre(), 5)
        for f in functions.bounded_suite(5):
            assert commutator_hs_norm_sq(kern, f) >= 0.0


# cos(60x) at n = 5: alone, the mean stops at rung 2, the variance at rung 3
# and log E e^{0.2 X} at rung 4 of the mu-Gauss ladder.
COS60 = TestFunction(lambda x: np.cos(60.0 * x), sup_norm=1.0, name="cos60")
# A step with its breakpoint at 0, cut to a finite support: the window path.
WINDOWED_STEP = TestFunction(lambda x: np.where((x >= 0.0) & (x < 0.5), 1.0, 0.0),
                             sup_norm=1.0, support=(-0.5, 0.5), discontinuities=(0.0,),
                             name="windowed step")
_JOINT_FAMILIES = {
    "chebyshev": lambda n: measures.chebyshev(),
    "legendre": lambda n: measures.legendre(),
    "jacobi(0.5,-0.3)": lambda n: measures.jacobi(0.5, -0.3),
    "varying_gaussian": measures.varying_gaussian,
}


def _alone(kern, f, term, m):
    if term == "mean":
        return exact_mean(kern, f, m)
    if term == "variance":
        return exact_variance(kern, f, m)
    return log_mgf(kern, f, term, m)


def _rule_sizes(monkeypatch):
    """Record the size of every rule the ladder requests (on a window, the
    multiplier of its base panel count)."""
    sizes = []
    for name in ("_global_rule", "_window_rule"):
        rule = getattr(linstat, name)
        monkeypatch.setattr(linstat, name,
                            lambda *a, rule=rule: (sizes.append(a[-1]), rule(*a))[1])
    return sizes


class TestJointLadder:
    """One pass over the ladder for several terms equals refining each alone."""

    @pytest.mark.parametrize("family", sorted(_JOINT_FAMILIES))
    @pytest.mark.parametrize("fname", ["cos60", "bump@0.5", "windowed_step", "step"])
    @pytest.mark.parametrize("given_m", [False, True])
    def test_joint_equals_separate(self, family, fname, given_m):
        n = 5
        kern = CDKernel(_JOINT_FAMILIES[family](n), n)
        f = {"cos60": COS60, "windowed_step": WINDOWED_STEP, "step": functions.get("step"),
             "bump@0.5": scaled_function(ScaledStatistic(BUMP, 0.5, 0.1), n)}[fname]
        on_window = fname in ("bump@0.5", "windowed_step")
        assert (linstat._window_for(kern, f) is not None) == on_window
        m = 2 * n + 64 if given_m else None
        for terms in (("mean", "variance", 0.2), (-0.3, "variance", "mean", 0.2, -0.3),
                      ("variance", 0.2, "variance", "mean")):
            joint = linstat._ladder(CDKernel(kern.measure, n), f, m, terms)
            assert joint == [_alone(kern, f, term, m) for term in terms]

    @pytest.mark.parametrize("family", ["chebyshev", "legendre", "jacobi(0.5,-0.3)"])
    def test_each_term_stops_at_its_own_rung(self, family, monkeypatch):
        n = 5
        kern = CDKernel(_JOINT_FAMILIES[family](n), n)
        sizes = _rule_sizes(monkeypatch)
        alone, rungs = [], []
        for term in ("mean", "variance", 0.2):
            sizes.clear()
            alone.append(_alone(kern, COS60, term, None))
            rungs.append(list(sizes))
        assert [len(r) for r in rungs] == [2, 3, 4]
        sizes.clear()
        assert linstat._ladder(kern, COS60, None, (0.2, "variance", "mean")) == alone[::-1]
        assert sizes == rungs[-1]   # one rule request per rung


class TestCholeskyLogDet:
    """log_mgf by Cholesky against an LU log-determinant on the same rule."""

    @staticmethod
    def _slogdet(S, fv, t):
        M = np.eye(S.shape[1]) + S.T @ (np.expm1(t * fv)[:, None] * S)
        sign, logdet = np.linalg.slogdet(M)
        assert sign > 0.0
        return logdet

    @pytest.mark.parametrize("family", sorted(_JOINT_FAMILIES))
    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_matches_slogdet(self, family, n):
        mu = _JOINT_FAMILIES[family](n)
        kern = CDKernel(mu, n)
        m = 2 * n + 64
        nodes, _, S = mu.gauss_rule_scaled(m, n)
        bump = scaled_function(ScaledStatistic(BUMP, 0.5, 0.1), n)
        win = linstat._window_for(kern, bump)
        assert win is not None
        wnodes, wS, _ = linstat._window_rule(kern, win[0], win[1], bump.discontinuities, 1)
        for t in (0.33, -0.33, 0.2, 1e-3):
            for f in (IDENTITY, SQUARE, functions.get("cosine")):
                assert abs(log_mgf(kern, f, t, m) - self._slogdet(S, f(nodes), t)) <= 1e-12
            assert abs(log_mgf(kern, bump, t, m) - self._slogdet(wS, bump(wnodes), t)) <= 1e-12

    def test_singular_matrix_raises(self):
        # e^{-200} - 1 is exactly -1, but the mu-Gauss rule's M is
        # e^{-200} S^T S, not I - S^T S = 0; e^{-800} underflows to 0
        kern = CDKernel(measures.chebyshev(), 5)
        assert math.expm1(-200.0) == -1.0
        assert log_mgf(kern, ONE, -200.0) == pytest.approx(-1000.0, rel=1e-12)
        assert math.exp(-800.0) == 0.0
        with pytest.raises(NumericalError):
            log_mgf(kern, ONE, -800.0)

    @pytest.mark.parametrize("family", sorted(_JOINT_FAMILIES))
    def test_small_e_tf_keeps_its_digits(self, family):
        # I + S^T diag(e^{tf} - 1) S gave -79.99999948763033 on Chebyshev
        kern = CDKernel(_JOINT_FAMILIES[family](4), 4)
        assert log_mgf(kern, ONE, -20.0) == pytest.approx(-80.0, rel=1e-12)


class TestClippedPolynomial:
    """The Horner evaluator equals numpy's polyval, clipped, bit for bit."""

    X = np.concatenate([[0.0, -0.0, 1.0, -1.0, 3.0, -3.0], np.linspace(-3.0, 3.0, 1201),
                        np.random.default_rng(5).uniform(-3.0, 3.0, 500)])

    def _assert_bitwise(self, f, coeffs):
        want = np.clip(np.polynomial.polynomial.polyval(self.X, coeffs), -1.0, 1.0)
        got = f(self.X)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_bounded_suite(self):
        suite = functions.bounded_suite(50)
        rng = np.random.default_rng(20240815)   # the suite's own draws
        for f in suite:
            coeffs = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 5)) + 1)
            assert f.name == f"poly{list(np.round(coeffs, 6))}"
            self._assert_bitwise(f, coeffs)

    def test_from_spec(self):
        coeffs = [0.25, -0.0, 1.5, 0.0, -0.75]
        self._assert_bitwise(functions.from_spec({"poly": coeffs}), np.array(coeffs))


class TestRuleCache:
    """Every rule a kernel uses lives in its one bounded cache."""

    def test_sweep_stays_bounded_and_equals_fresh_kernels(self):
        n = 30
        kern = CDKernel(measures.chebyshev(), n)
        xs = np.linspace(-0.9, 0.9, 201)
        sweep = [exact_scaled_variance(kern, ScaledStatistic(BUMP, 0.5, float(x))) for x in xs]
        assert len(kern.cache) == _CACHE_SIZE   # full, so entries were evicted
        for i in range(0, len(xs), 20):
            stat = ScaledStatistic(BUMP, 0.5, float(xs[i]))
            assert exact_scaled_variance(CDKernel(measures.chebyshev(), n), stat) == sweep[i]
            assert exact_scaled_variance(kern, stat) == sweep[i]   # rebuilt after eviction

    def test_dropping_the_kernel_frees_its_rules(self):
        mu = measures.legendre()
        kern = CDKernel(mu, 10)
        var = exact_variance(kern, SQUARE)
        sample_ope(kern, RngStream(1, 0))
        held = [weakref.ref(linstat._global_rule(kern, 2 * 10 + 64)[1]),
                weakref.ref(_envelope(kern).heights)]
        assert all(ref() is not None for ref in held)
        del kern   # freed at once, with no cycle left for the collector
        assert all(ref() is None for ref in held)
        assert exact_variance(CDKernel(mu, 10), SQUARE) == var


def _gemm_variance(kern, f, m):
    """The two-term variance on the rule that m selects (the m-point mu-Gauss
    rule, or f's base window panels) by the product S^T diag(f) S."""
    win = linstat._window_for(kern, f)
    if win is None:
        nodes, S, kd = linstat._global_rule(kern, m)
    else:
        nodes, S, kd = linstat._window_rule(kern, win[0], win[1], f.discontinuities, 1)
    fv = f(nodes)
    F = S.T @ (fv[:, None] * S)
    return float((fv * fv * kd).sum() - (F * F).sum())


class TestGramSquare:
    """A variance given m reads the cross term off the rule's Gram square."""

    @pytest.mark.parametrize("family", sorted(_JOINT_FAMILIES))
    @pytest.mark.parametrize("n", [20, 50, 200])
    def test_matches_the_product_form(self, family, n):
        kern = CDKernel(_JOINT_FAMILIES[family](n), n)
        for m in (2 * n + 64, 4 * n + 128):
            for f in functions.bounded_suite(10) + [functions.get("cosine"), SQUARE]:
                v = exact_variance(kern, f, m)
                assert abs(v - _gemm_variance(kern, f, m)) <= 1e-12 * (1.0 + abs(v))
            assert ("gram", m) in kern.cache

    @pytest.mark.parametrize("family", sorted(_JOINT_FAMILIES))
    @pytest.mark.parametrize("n", [20, 50, 200, 400])
    def test_square_matches_the_jacobi_matrix(self, family, n):
        # Var X_{x^2} = sum_{j<n<=l} (J^2)_jl^2 for J truncated at n + 2
        kern = CDKernel(_JOINT_FAMILIES[family](n), n)
        co = kern.measure.recurrence(n + 2)
        J = np.diag(co.diag) + np.diag(co.offdiag[:-1], 1) + np.diag(co.offdiag[:-1], -1)
        m = 2 * n + 64
        want = np.sum((J @ J)[:n, n:] ** 2)
        assert exact_variance(kern, SQUARE, m) == pytest.approx(want, rel=1e-12)
        assert ("gram", m) in kern.cache

    @pytest.mark.parametrize("family", ["chebyshev", "legendre"])
    def test_fresh_equals_warm_in_either_order(self, family):
        n, m = 50, 164
        mu = _JOINT_FAMILIES[family](n)
        fs = functions.bounded_suite(1) + [SQUARE, functions.get("cosine")]
        fresh = [(exact_variance(CDKernel(mu, n), f), exact_variance(CDKernel(mu, n), f, m),
                  linstat._ladder(CDKernel(mu, n), f, m, (0.2, "mean", "variance")))
                 for f in fs]
        ladder_first, given_first = CDKernel(mu, n), CDKernel(mu, n)
        for f, (lad, fixed, joint) in zip(fs, fresh):
            assert exact_variance(ladder_first, f) == lad
            assert exact_variance(ladder_first, f, m) == fixed
            assert exact_variance(given_first, f, m) == fixed
            assert exact_variance(given_first, f) == lad
            assert linstat._ladder(given_first, f, m, (0.2, "mean", "variance")) == joint
            assert joint[2] == fixed

    @pytest.mark.parametrize("n, m, f", [(5, 74, SQUARE), (40, 1100, SQUARE),
                                         (50, 164, WINDOWED_STEP)])
    def test_small_rank_large_rule_and_window_take_the_product(self, n, m, f):
        # m > n^2, m^2 over _GRAM_DOUBLES, and a window rule
        kern = CDKernel(measures.chebyshev(), n)
        v = exact_variance(kern, f, m)
        assert not any(key[0] == "gram" for key in kern.cache)
        assert v == _gemm_variance(kern, f, m)

    def test_dropping_the_kernel_frees_the_gram_square(self):
        kern = CDKernel(measures.legendre(), 10)
        var = exact_variance(kern, SQUARE, 84)
        held = weakref.ref(kern.cache[("gram", 84)])
        del kern
        assert held() is None
        assert exact_variance(CDKernel(measures.legendre(), 10), SQUARE, 84) == var


def _moments_on(P, w, fv):
    """Mean and two-term variance of X_f on the rule (nodes, w) with design P."""
    S = np.sqrt(w)[:, None] * P
    kd = np.einsum("ij,ij->i", S, S)
    F = S.T @ (fv[:, None] * S)
    return float((fv * kd).sum()), float((fv * fv * kd).sum() - (F * F).sum())


_EDGE_FAMILIES = {
    "chebyshev": measures.chebyshev,
    "legendre": measures.legendre,
    "jacobi(0.5,-0.3)": lambda: measures.jacobi(0.5, -0.3),
    "jacobi(-0.3,2)": lambda: measures.jacobi(-0.3, 2.0),
    "jacobi(0.5,0.5)": lambda: measures.jacobi(0.5, 0.5),
}


@functools.lru_cache(maxsize=None)
def _edge_kernel(family, n):
    return CDKernel(_EDGE_FAMILIES[family](), n)


@functools.lru_cache(maxsize=None)
def _fine_gauss(family):
    """The 3000-point mu-Gauss rule with 50 design columns, built once."""
    return _EDGE_FAMILIES[family]().gauss_rule_scaled(3000, 50)


def _fine_theta(mu, n, f):
    """Mean and variance of X_f from 400 panels of 16 Gauss-Legendre points in
    theta = arccos x over f's support, with the theta-density in closed form:
    sin(theta/2)^(2a+1) cos(theta/2)^(2b+1) / B(a+1, b+1) for the Jacobi
    weight (1-x)^a (1+x)^b."""
    gx, gw = np.polynomial.legendre.leggauss(16)
    lo, hi = f.support
    edges = np.linspace(math.acos(min(hi, 1.0)), math.acos(max(lo, -1.0)), 401)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    theta = (mid[:, None] + half[:, None] * gx).ravel()
    if mu.family == "chebyshev1st":
        dens = 1.0 / math.pi
    elif mu.family == "legendre":
        dens = 0.5 * np.sin(theta)
    else:
        a, b = mu.params["a_exp"], mu.params["b_exp"]
        dens = (np.sin(0.5 * theta) ** (2.0 * a + 1.0) * np.cos(0.5 * theta) ** (2.0 * b + 1.0)
                / beta(a + 1.0, b + 1.0))
    x = np.cos(theta)
    return _moments_on(measures.design_matrix(mu.recurrence(n), n, x),
                       (half[:, None] * gw).ravel() * dens, f(x))


class TestNearEdgeWindows:
    """A scaled bump next to a hard edge keeps all of f: mean and variance
    against an independent fine rule.  A rule that stops 2 % short of the end
    gives a mean of 3.767 for 8.113 (Chebyshev, n = 50, alpha = 0.5,
    x* = 0.95)."""

    @pytest.mark.parametrize("family", ["chebyshev", "legendre", "jacobi(0.5,-0.3)",
                                        "jacobi(-0.3,2)"])
    @pytest.mark.parametrize("n", [20, 50])
    @pytest.mark.parametrize("xstar", [-0.99, -0.95, 0.9, 0.95, 0.99])
    def test_mean_and_variance(self, family, n, xstar):
        kern = _edge_kernel(family, n)
        for alpha in (0.3, 0.5, 0.8):
            f = scaled_function(ScaledStatistic(BUMP, alpha, xstar), n)
            if family.startswith("jacobi"):
                nodes, _, S = _fine_gauss(family)   # S carries the weights
                want = _moments_on(S[:, :n], np.ones(len(nodes)), f(nodes))
            else:
                want = _fine_theta(kern.measure, n, f)
            got = (exact_mean(kern, f), exact_variance(kern, f))
            for g, v in zip(got, want):
                assert abs(g - v) <= 1e-9 * (1.0 + abs(v)), (alpha, got, want)


class TestWindowsShortOfAnEnd:
    """A window that stops short of an end of the support keeps its panels,
    however close it comes: a mu-Gauss rule is exact for a polynomial times
    the weight but cannot see where f stops.  On these flat tops the mu-Gauss
    ladder is off by up to 3.6e-3; on the narrow bump it climbs five
    eigensolved rules to the cap and is 2.5e-11 off."""

    @pytest.mark.parametrize("a, b", [(0.5, -0.3), (-0.3, 2.0), (0.0, 0.0), (-0.8, 0.0)])
    @pytest.mark.parametrize("n", [5, 20])
    def test_flat_top_mean_and_variance(self, a, b, n):
        kern = CDKernel(measures.jacobi(a, b), n)
        for width in (0.05, 0.5):
            for gap in (1e-2, 1e-4):
                for lo, hi in ((-1.0 + gap, -1.0 + gap + width), (1.0 - gap - width, 1.0 - gap)):
                    f = TestFunction(
                        lambda x, lo=lo, hi=hi: np.where((lo < x) & (x < hi), 1.0, 0.0),
                        sup_norm=1.0, support=(lo, hi))
                    got = (exact_mean(kern, f), exact_variance(kern, f))
                    want = _fine_theta(kern.measure, n, f)
                    for g, v in zip(got, want):
                        assert abs(g - v) <= 1e-12 * (1.0 + abs(v)), (lo, hi, got, want)
                    assert linstat._window_for(kern, f) == (lo, hi)

    def test_narrow_bump_reads_the_base_window_rule(self):
        n, s = 200, ScaledStatistic(BUMP, 0.8, -0.97)
        kern = CDKernel(measures.legendre(), n)
        got = exact_scaled_variance(kern, s)
        assert sorted((key[0], key[-1]) for key in kern.cache) == [("window", 0.5),
                                                                    ("window", 1)]
        f = scaled_function(s, n)
        want = _window_reference(CDKernel(kern.measure, n), f, f.support, (), refine=16)[1]
        assert abs(got - want) <= 1e-13 * (1.0 + abs(want))


class TestPanelRuleWeights:
    """linstat._panel_rule integrates the measure itself to rounding, also on
    windows that touch or pass an end of the support."""

    WINDOWS = [(-1.0, -0.9), (0.95, 1.0), (-1.3, -0.5), (0.2, 1.7), (-0.999, 0.999)]

    @staticmethod
    def _mass(family, lo, hi):
        lo, hi = max(lo, -1.0), min(hi, 1.0)
        if family == "chebyshev":
            return (math.acos(lo) - math.acos(hi)) / math.pi
        if family == "legendre":
            return 0.5 * (hi - lo)
        # jacobi(a, b) = jacobi(0.5, 0.5): (1 + x) / 2 is Beta(b + 1, a + 1) distributed
        return betainc(1.5, 1.5, 0.5 * (1.0 + hi)) - betainc(1.5, 1.5, 0.5 * (1.0 + lo))

    @pytest.mark.parametrize("family", ["chebyshev", "legendre", "jacobi(0.5,0.5)"])
    @pytest.mark.parametrize("n", [5, 50])
    def test_window_mass(self, family, n):
        kern = _edge_kernel(family, n)
        for lo, hi in self.WINDOWS:
            for breaks in ((), (lo + 0.3 * (hi - lo), 0.0)):
                _, w = linstat._panel_rule(kern, lo, hi, 1, breaks)
                assert abs(w.sum() - self._mass(family, lo, hi)) <= 1e-13
        _, w = linstat._panel_rule(kern, -1.0, 1.0, 1)
        assert abs(w.sum() - 1.0) <= 1e-14

    def test_line_mass(self):
        n = 20
        kern = CDKernel(measures.varying_gaussian(n), n)
        _, w = linstat._panel_rule(kern, -0.5, 0.3, 1)
        assert abs(w.sum() - (ndtr(0.3 * math.sqrt(n)) - ndtr(-0.5 * math.sqrt(n)))) <= 1e-13
        _, w = linstat._panel_rule(kern, -math.inf, math.inf, 1)   # cut past the spectral edge
        assert abs(w.sum() - 1.0) <= 1e-14


class TestSharedCoordinate:
    """The HKPV envelope and the panel rules read one Coordinate per family."""

    MEASURES = [measures.chebyshev(), measures.legendre(), measures.jacobi(0.25, -0.25),
                measures.varying_gaussian(7)]

    def test_every_family_is_covered(self):
        assert sorted(mu.family for mu in self.MEASURES) == sorted(measures.FAMILIES)

    @pytest.mark.parametrize("index", range(len(MEASURES)))
    @pytest.mark.parametrize("n", [1, 12])
    def test_envelope_and_panels_span_the_coordinate(self, index, n):
        mu = self.MEASURES[index]
        kern = CDKernel(mu, n)
        co = mu.coordinate(n)
        assert tuple(_envelope(kern).edges[[0, -1]]) == (co.lo, co.hi)
        nodes, _ = linstat._panel_rule(kern, *mu.support, 1)
        xlo, xhi = sorted(co.to_x(np.array([co.lo, co.hi])))
        assert np.all((xlo <= nodes) & (nodes <= xhi))


class TestLineRoutesByCut:
    """On the line, _window_for measures a window against the coordinate's
    x-range, the cut 2 sqrt(n/N) + 10/sqrt(N), so a scaled bump that contains
    an end of it, or spans 60 % of it, takes the mu-Gauss ladder; its
    moments and Nevai integral keep the values of explicit panels."""

    @pytest.mark.parametrize("big_n,n,alpha,xstar", [(400, 4, 0.5, 0.0), (400, 4, 0.5, 0.3),
                                                     (100, 2, 0.3, 0.1)])
    def test_rerouted_values(self, big_n, n, alpha, xstar):
        kern = CDKernel(measures.varying_gaussian(big_n), n)
        ft = scaled_function(ScaledStatistic(BUMP, alpha, xstar), n)
        assert linstat._window_for(kern, ft) is None
        panels = CDKernel(kern.measure, n)   # a second cache: no rule is shared
        nodes, S, kd = linstat._window_rule(panels, *ft.support, (), 4)
        fv = ft(nodes)
        F = S.T @ (fv[:, None] * S)
        nodes, S, _ = linstat._window_rule(panels, *BUMP.support, (), 4)
        p = kern.design([xstar])[0]
        nevai = float(np.square(S @ p) @ BUMP(nodes) / (p @ p) - BUMP(xstar))
        pairs = [(exact_mean(kern, ft), float(fv @ kd)),
                 (exact_variance(kern, ft), float((fv * fv) @ kd - (F * F).sum())),
                 (asymptotics.nevai_integral(kern, BUMP, xstar), nevai)]
        for got, want in pairs:
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def _window_reference(kern, f, win, ts, refine=8, block=4096):
    """Mean, variance and log E e^{tX_f} for t in ts on the window's panel
    rule at the given refine, summed over blocks of nodes so that a large
    rule never holds its whole design at once."""
    nodes, weights = linstat._panel_rule(kern, win[0], win[1], refine, f.discontinuities)
    n = kern.n
    mean = square = 0.0
    F = np.zeros((n, n))
    M = [np.eye(n) for _ in ts]
    for i in range(0, len(nodes), block):
        S = np.sqrt(weights[i:i + block])[:, None] * kern.design(nodes[i:i + block])
        fv, kd = f(nodes[i:i + block]), (S * S).sum(axis=1)
        mean += (fv * kd).sum()
        square += (fv * fv * kd).sum()
        F += S.T @ (fv[:, None] * S)
        for Mt, t in zip(M, ts):
            Mt += S.T @ (np.expm1(t * fv)[:, None] * S)
    logdets = []
    for Mt in M:
        sign, logdet = np.linalg.slogdet(Mt)
        assert sign > 0.0
        logdets.append(logdet)
    return [mean, square - (F * F).sum(), *logdets]


class TestWindowLadder:
    """The window ladder reads a converged moment off the base panel rule and
    certifies it with the half-size rung: cold moments of a scaled bump agree
    with a fixed refine-8 rule, and the kernel then holds exactly those two
    window rules.  The half-size rung alone is off by up to 1.6e-12 here
    (Legendre, n = 5, alpha = 0.5, x* = 0.5)."""

    @pytest.mark.parametrize("family", ["chebyshev", "legendre", "jacobi(0.5,-0.3)",
                                        "jacobi(-0.3,2)"])
    @pytest.mark.parametrize("n", [5, 50, 400])
    def test_cold_moments_read_off_the_base_rule(self, family, n):
        mu = _EDGE_FAMILIES[family]()
        windows = 0
        for alpha in (0.2, 0.5, 0.8):
            for xstar in (0.0, 0.5, 0.9):
                f = scaled_function(ScaledStatistic(BUMP, alpha, xstar), n)
                kern = CDKernel(mu, n)
                win = linstat._window_for(kern, f)
                if win is None:
                    continue
                windows += 1
                got = [exact_mean(kern, f), exact_variance(kern, f),
                       log_mgf(kern, f, 0.3), log_mgf(kern, f, -0.3)]
                want = _window_reference(kern, f, win, (0.3, -0.3))
                for g, v in zip(got, want):
                    assert abs(g - v) <= 1e-13 * (1.0 + abs(v)), (alpha, xstar, got, want)
                assert sorted(key[-1] for key in kern.cache) == [0.5, 1], (alpha, xstar)
        assert windows
