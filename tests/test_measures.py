import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opelab import measures
from opelab.errors import (
    ConfigurationError,
    InstabilityError,
    PreconditionError,
)


class TestClassicalRecurrences:
    def test_chebyshev_coefficients(self):
        co = measures.chebyshev().recurrence(6)
        assert np.allclose(co.diag, 0.0)
        assert co.offdiag[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert np.allclose(co.offdiag[1:], 0.5)

    def test_legendre_coefficients(self):
        co = measures.legendre().recurrence(5)
        k = np.arange(1, 6)
        assert np.allclose(co.offdiag, k / np.sqrt(4.0 * k * k - 1.0))

    def test_jacobi_reduces_to_chebyshev(self):
        # (1-x)^{-1/2}(1+x)^{-1/2} is the arcsine weight
        cheb = measures.chebyshev().recurrence(8)
        jac = measures.jacobi(-0.5, -0.5).recurrence(8)
        assert np.allclose(jac.diag, cheb.diag, atol=1e-14)
        assert np.allclose(jac.offdiag, cheb.offdiag, atol=1e-14)

    def test_jacobi_reduces_to_legendre(self):
        leg = measures.legendre().recurrence(8)
        jac = measures.jacobi(0.0, 0.0).recurrence(8)
        assert np.allclose(jac.offdiag, leg.offdiag, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_varying_gaussian_coefficients(self, n):
        co = measures.varying_gaussian(n).recurrence(5)
        k = np.arange(1, 6)
        assert np.allclose(co.offdiag, np.sqrt(k / n))

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown family"):
            measures.Measure.from_json({"family": "hermite_physicists"})

    def test_bad_depth_rejected(self):
        with pytest.raises(PreconditionError):
            measures.legendre().recurrence(0)

    def test_recurrence_is_one_object_per_depth(self):
        mu = measures.jacobi(0.5, -0.3)
        co = mu.recurrence(20)
        deeper = mu.recurrence(100)   # extends the family's coefficients
        assert mu.recurrence(20) is co
        assert deeper.diag[:20].tobytes() == co.diag.tobytes()
        assert deeper.offdiag[:20].tobytes() == co.offdiag.tobytes()
        for depth in range(1, measures._RECURRENCE_STORE + 1):
            mu.recurrence(depth)
        assert len(mu._store) == measures._RECURRENCE_STORE
        again = mu.recurrence(20)      # evicted, then sliced anew: same values
        assert again is not co
        assert again.diag.tobytes() == co.diag.tobytes()
        assert again.offdiag.tobytes() == co.offdiag.tobytes()


class TestRecurrenceCoefficients:
    def test_nonpositive_offdiag_is_instability(self):
        with pytest.raises(InstabilityError) as exc:
            measures.RecurrenceCoefficients(np.zeros(3), np.array([0.5, 0.0, 0.5]))
        assert exc.value.index == 2

    def test_orthonormal_prefix_shapes(self):
        co = measures.chebyshev().recurrence(6)
        x = np.linspace(-0.9, 0.9, 7)
        vals = measures.orthonormal_prefix(co, 4, x)
        assert vals.shape == (5, 7)
        assert np.allclose(vals[0], 1.0)

    def test_chebyshev_values_match_cosine_form(self):
        # p_k(cos t) = sqrt(2) cos(k t) for k >= 1 under the arcsine measure
        co = measures.chebyshev().recurrence(8)
        t = 0.7
        vals = measures.orthonormal_prefix(co, 6, math.cos(t))
        for k in range(1, 7):
            assert vals[k] == pytest.approx(math.sqrt(2.0) * math.cos(k * t), abs=1e-12)


def _textbook_prefix(co, k, x):
    xv = np.asarray(x, dtype=float)
    a, b = co.diag, co.offdiag
    p = [np.ones_like(xv), (xv - a[0]) / b[0]]
    for j in range(1, k):
        p.append(((xv - a[j]) * p[j] - b[j - 1] * p[j - 1]) / b[j])
    return np.array(p[:k + 1])


_X_SHAPES = [0.3, -0.0, np.array(-0.7), np.linspace(-1.1, 1.1, 23),
             np.linspace(-0.95, 0.95, 12).reshape(3, 4), np.array([1e200, -3.0, -0.0, 0.0]),
             np.array([-0.45]), np.array([[0.62]]), np.array([1e200])]


class TestOrthonormalPrefixRecurrence:
    """orthonormal_prefix equals the textbook recurrence value for value."""

    @pytest.mark.parametrize("coeffs", [
        measures.chebyshev().recurrence(60),            # a = 0
        measures.legendre().recurrence(60),             # a = 0
        measures.jacobi(0.5, -0.3).recurrence(60),      # a != 0
        measures.RecurrenceCoefficients(np.full(60, -0.0), np.full(60, 0.5)),
    ], ids=["chebyshev", "legendre", "jacobi", "minus_zero_diag"])
    @pytest.mark.parametrize("k", [0, 1, 2, 49])
    @pytest.mark.parametrize("x", _X_SHAPES, ids=["float", "minus_zero", "0d", "1d", "2d",
                                                  "overflow", "one_point_1d", "one_point_2d",
                                                  "one_point_overflow"])
    def test_matches_textbook(self, coeffs, k, x):
        with np.errstate(over="ignore", invalid="ignore"):
            got = measures.orthonormal_prefix(coeffs, k, x)
            want = _textbook_prefix(coeffs, k, x)
        assert got.shape == (k + 1,) + np.shape(x)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_overflow_reaches_inf_and_nan(self):
        with np.errstate(over="ignore", invalid="ignore"):
            got = measures.orthonormal_prefix(measures.chebyshev().recurrence(60), 49, 1e200)
        assert np.isinf(got).any() and np.isnan(got).any()


class TestGaussQuadrature:
    def test_chebyshev_two_point_rule(self):
        nodes, weights = measures.chebyshev().gauss_rule(2)
        assert np.allclose(np.sort(nodes), [-1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert np.allclose(weights, [0.5, 0.5])

    @pytest.mark.parametrize("build", [measures.chebyshev, measures.legendre,
                                       lambda: measures.varying_gaussian(4)])
    def test_weights_sum_to_one(self, build):
        _, weights = build().gauss_rule(12)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-13)

    def test_moments_match_known_values(self):
        # arcsine even moments: E x^{2k} = binom(2k, k) / 4^k
        nodes, weights = measures.chebyshev().gauss_rule(10)
        for k, want in [(1, 0.5), (2, 0.375), (3, 0.3125)]:
            assert np.sum(weights * nodes ** (2 * k)) == pytest.approx(want, abs=1e-13)

    @given(m=st.integers(min_value=1, max_value=24))
    @settings(max_examples=20, deadline=None)
    def test_design_orthonormality(self, m):
        """The Gauss rule reproduces the Gram identity P^T W P = I."""
        mu = measures.legendre()
        nodes, weights, _ = measures.gauss_quadrature_scaled(mu.recurrence(m + 2), m + 2, 1)
        P = measures.design_matrix(mu.recurrence(m + 2), m, nodes)
        gram = P.T @ (weights[:, None] * P)
        assert np.allclose(gram, np.eye(m), atol=1e-10)


class TestClosedFormChebyshevRule:
    """Measure.gauss_rule_scaled builds the Chebyshev rule in closed form;
    the Golub-Welsch eigensolve of gauss_quadrature_scaled is its oracle."""

    @pytest.mark.parametrize("m", [1, 2, 17, 114, 328, 1000])
    @pytest.mark.parametrize("cols", ["one", "third", "all"])
    def test_matches_golub_welsch(self, m, cols):
        ncols = {"one": 1, "third": -(-m // 3), "all": m}[cols]
        mu = measures.chebyshev()
        nodes, weights, S = mu.gauss_rule_scaled(m, ncols)
        gx, gw, gS = measures.gauss_quadrature_scaled(mu.recurrence(m), m, ncols)
        assert S.shape == gS.shape == (m, ncols)
        assert np.max(np.abs(nodes - gx)) <= 1e-14
        assert np.max(np.abs(S - gS)) <= 1e-11
        assert np.max(np.abs(S.T @ S - np.eye(ncols))) <= 1e-14
        assert np.all(np.diff(nodes) > 0.0) and np.all(S[:, 0] > 0.0)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-14)
        assert np.array_equal(mu.gauss_rule(m)[0], nodes)

    def test_orthogonal_at_large_m(self):
        # cos(j * theta_i) without the integer reduction gives 3.4e-14 here
        _, _, S = measures.chebyshev().gauss_rule_scaled(3328, 800)
        assert np.max(np.abs(S.T @ S - np.eye(800))) <= 1e-14

    @pytest.mark.parametrize("m", [1, 2, 7, 40, 41])
    def test_even_moments_exact(self, m):
        # arcsine even moments E x^{2k} = binom(2k, k) / 4^k, exact for 2k <= 2m - 1
        nodes, weights = measures.chebyshev().gauss_rule(m)
        for k in range(0, m):
            want = math.comb(2 * k, k) / 4.0 ** k
            assert np.sum(weights * nodes ** (2 * k)) == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_size_preconditions(self):
        mu = measures.chebyshev()
        with pytest.raises(PreconditionError):
            mu.gauss_rule_scaled(0, 1)
        with pytest.raises(PreconditionError):
            mu.gauss_rule_scaled(4, 5)
        with pytest.raises(PreconditionError):
            mu.gauss_rule_scaled(4, 0)


def _table_examples():
    """One measure per family of the table."""
    examples = [measures.chebyshev(), measures.legendre(), measures.jacobi(0.25, -0.25),
                measures.varying_gaussian(7)]
    assert sorted(mu.family for mu in examples) == sorted(measures.FAMILIES)
    return examples


class TestMeasureObject:
    def test_weight_normalization(self):
        for mu in (measures.chebyshev(), measures.legendre(), measures.jacobi(0.5, 1.5)):
            x = np.linspace(-1 + 1e-6, 1 - 1e-6, 200001)
            mass = np.trapezoid(mu.weight(x), x)
            assert mass == pytest.approx(1.0, abs=5e-3)

    def test_log_weight_stable_for_large_n(self):
        mu = measures.varying_gaussian(400)
        lw = mu.log_weight(np.array([0.0, 1.0, 5.0]))
        assert np.all(np.isfinite(lw))
        assert mu.weight(np.array([5.0]))[0] == 0.0  # underflows in linear space

    def test_theta_density(self):
        theta = np.linspace(0.05, math.pi - 0.05, 41)
        compact = [mu for mu in _table_examples() if mu.compact]
        assert {mu.family for mu in compact} == {"chebyshev1st", "legendre", "jacobi"}
        for mu in compact + [measures.jacobi(0.5, 1.5), measures.jacobi(-0.5, 0.25)]:
            lo, hi = mu.support
            half = 0.5 * (hi - lo)
            want = mu.weight(0.5 * (lo + hi) + half * np.cos(theta)) * half * np.sin(theta)
            assert np.allclose(mu.theta_density(theta), want, rtol=1e-10, atol=0.0)
        # next to the ends 1 - x^2 cancels in x; the theta form keeps every digit
        ends = np.array([1e-9, math.pi - 1e-9])
        assert np.all(measures.chebyshev().theta_density(ends) == 1.0 / math.pi)
        s, c = np.sin(ends / 2), np.cos(ends / 2)
        a, b = 0.5, 1.5
        beta = math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)
        assert np.allclose(measures.jacobi(a, b).theta_density(ends),
                           s ** (2 * a + 1) * c ** (2 * b + 1) / beta, rtol=1e-12, atol=0.0)

    def test_json_round_trip(self):
        for mu in _table_examples():
            back = measures.Measure.from_json(mu.to_json())
            assert back.family == mu.family
            assert back.params == mu.params
            assert back.support == mu.support
