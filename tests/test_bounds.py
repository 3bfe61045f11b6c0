import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opelab import bounds, functions, measures
from opelab.errors import PreconditionError
from opelab.kernel import CDKernel
from opelab.linstat import TestFunction


class TestConstantA:
    def test_first_term(self):
        # m=0 summand alone: 2 e^2 2^{3/2}
        want = 2.0 * math.e ** 2 * 2.0 ** 1.5
        assert want == pytest.approx(41.79, abs=0.01)
        assert bounds.constant_A().value > want

    def test_partial_sums_monotone(self):
        terms = [(math.e / 3.0) ** m * (m + 2) ** 1.5 for m in range(60)]
        partial = np.cumsum(terms)
        assert np.all(np.diff(partial) > 0)

    def test_tail_certified(self):
        A = bounds.constant_A()
        assert A.tail_bound <= 1e-12 * A.value
        # ten more terms change nothing at the certified precision
        extra = sum((math.e / 3.0) ** m * (m + 2) ** 1.5
                    for m in range(A.terms_used, A.terms_used + 10))
        assert 2.0 * math.e ** 2 * extra <= 2e-12 * A.value

    def test_value_against_independent_summation(self):
        total = 0.0
        for m in range(2000):
            total += (math.e / 3.0) ** m * (m + 2) ** 1.5
        assert bounds.constant_A().value == pytest.approx(2 * math.e ** 2 * total,
                                                          rel=1e-12)


class TestGeneralBound:
    def test_regime_continuity(self):
        A = bounds.constant_A().value
        var, sup = 0.25, 1.0
        eps0 = 2.0 * A * var / (3.0 * sup)
        below = bounds.bound_thm31(var, sup, eps0 * (1 - 1e-13))
        above = bounds.bound_thm31(var, sup, eps0 * (1 + 1e-13))
        assert below.rhs == pytest.approx(above.rhs, rel=1e-10)
        assert below.regime != above.regime

    def test_exponential_example(self):
        A = bounds.constant_A().value
        rep = bounds.bound_thm31(0.25, 1.0, 100.0 * A)
        assert rep.regime == bounds.EXPONENTIAL
        assert rep.log_rhs - math.log(2.0) == pytest.approx(-100.0 * A / 6.0, rel=1e-12)

    def test_zero_variance_routes_exponential(self):
        rep = bounds.bound_thm31(0.0, 1.0, 0.5)
        assert rep.regime == bounds.EXPONENTIAL

    @given(eps=st.floats(1e-6, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_rhs_in_range(self, eps):
        rep = bounds.bound_thm31(0.3, 2.0, eps)
        assert 0.0 <= rep.rhs <= 2.0
        assert rep.log_rhs <= math.log(2.0) and math.isfinite(rep.log_rhs)


class TestGlobalBound:
    def test_small_eps_limit(self):
        assert bounds.bound_global(10, 1.0, 1e-12).rhs == pytest.approx(2.0, rel=1e-9)

    def test_example_n100(self):
        A = bounds.constant_A().value
        rep = bounds.bound_global(100, 1.0, 0.5)
        # min selector: 100*0.5*min(0.5/(8A), 1/6) = 25/(8A) since A > 3/8
        assert rep.regime == bounds.GAUSSIAN
        assert math.log(rep.rhs / 2.0) == pytest.approx(-25.0 / (8.0 * A), rel=1e-12)

    def test_doubling_n_squares_ratio(self):
        r1 = bounds.bound_global(50, 1.0, 0.4).rhs / 2.0
        r2 = bounds.bound_global(100, 1.0, 0.4).rhs / 2.0
        assert r2 == pytest.approx(r1 ** 2, rel=1e-9)

    @given(e1=st.floats(0.01, 10), e2=st.floats(0.01, 10))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_eps(self, e1, e2):
        lo, hi = sorted([e1, e2])
        assert bounds.bound_global(20, 1.0, hi).rhs <= bounds.bound_global(20, 1.0, lo).rhs


class TestNormalizedBound:
    def test_reduces_to_global_at_N_equals_n(self):
        a = bounds.bound_normalized(30, 30.0, 1.0, 0.7)
        b = bounds.bound_global(30, 1.0, 0.7)
        assert a.rhs == pytest.approx(b.rhs, rel=1e-12)

    def test_sqrt_n_gaussian_exponent_n_free(self):
        A = bounds.constant_A().value
        for n in (16, 64, 256):
            rep = bounds.bound_normalized(n, math.sqrt(n), 1.0, 0.5)
            # N^2 = n cancels in the Gaussian exponent
            assert math.log(rep.rhs / 2.0) == pytest.approx(-0.25 / (8.0 * A), rel=1e-9)

    def test_strictly_below_two(self):
        rep = bounds.bound_normalized(100, 100 ** 0.75, 1.0, 1.0)
        assert rep.rhs < 2.0


class TestLipschitzAndMesoBounds:
    def test_lipschitz_n_free(self):
        rep = bounds.bound_lipschitz(1.0, 1.0, 6.0)
        assert "n" not in rep.inputs

    def test_lipschitz_large_lip_degenerates(self):
        rep = bounds.bound_lipschitz(1e12, 1.0, 0.1)
        assert rep.rhs == pytest.approx(2.0, rel=1e-6)

    def test_lipschitz_exponential_candidate(self):
        rep = bounds.bound_lipschitz(1.0, 1.0, 6.0)
        # exponential candidate exponent is exactly 1; min selector decides
        assert rep.rhs <= 2.0 * math.exp(-min(1.0, 9.0 / bounds.constant_A().value / 4))

    def test_meso_alpha_zero_matches_global(self):
        a = bounds.bound_meso(40, 0.0, 1.0, 0.3)
        b = bounds.bound_global(40, 1.0, 0.3)
        assert a.rhs == pytest.approx(b.rhs, rel=1e-12)

    def test_meso_alpha_half_gaussian_exponent_n_free(self):
        A = bounds.constant_A().value
        g = [bounds.bound_meso(n, 0.5, 1.0, 0.2) for n in (25, 400)]
        assert g[0].rhs == pytest.approx(g[1].rhs, rel=1e-9)  # n^{1-2a} = 1 wins

    def test_meso_lipschitz_variant_flagged(self):
        rep = bounds.bound_meso(50, 0.5, 1.0, 0.2, lipschitz=2.0)
        assert rep.asymptotic
        assert rep.bound_name == "MesoLipschitzThm46II"

    def test_local_example(self):
        rep = bounds.bound_local(100, 0.5, 1.0, 0.6)
        # exponent 0.6 * 100^{0.5} / 6 = 1
        assert rep.rhs == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
        assert rep.asymptotic

    def test_local_decreasing_in_n(self):
        vals = [bounds.bound_local(n, 0.3, 1.0, 0.5).rhs for n in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]

    def test_rank_bound_instantiation(self):
        """Thm 3.3 with rank n coincides with the global bound after the
        epsilon -> n*epsilon substitution."""
        n, sup, eps = 25, 1.0, 0.4
        a = bounds.bound_rank(n, sup, n * eps)
        b = bounds.bound_global(n, sup, eps)
        assert a.rhs == pytest.approx(b.rhs, rel=1e-12)


class TestLemma32:
    def test_t_zero(self):
        kern = CDKernel(measures.chebyshev(), 5)
        lhs, rhs, holds = bounds.lemma32_check(kern, functions.get("square"), 0.0)
        assert lhs == rhs == 0.0 and holds

    def test_constant_function_linear_log_mgf(self):
        kern = CDKernel(measures.chebyshev(), 5)
        f = TestFunction(lambda x: np.full_like(x, 0.4), sup_norm=0.4)
        lhs, rhs, holds = bounds.lemma32_check(kern, f, 0.5)
        assert holds and lhs <= 1e-9

    def test_clipped_identity_example(self):
        kern = CDKernel(measures.chebyshev(), 10)
        f = functions.get("identity")
        lhs, rhs, holds = bounds.lemma32_check(kern, f, 0.3)
        assert holds
        # second-cumulant limit: lhs/t^2 stays below the half commutator norm
        from opelab.linstat import commutator_hs_norm_sq
        assert lhs / 0.09 <= 0.5 * commutator_hs_norm_sq(kern, f) * (1 + 1e-6)

    def test_out_of_range_t(self):
        kern = CDKernel(measures.chebyshev(), 5)
        with pytest.raises(PreconditionError):
            bounds.lemma32_check(kern, functions.get("square"), 0.5)


class TestWilsonAndMc:
    def test_wilson_contains_point_estimate(self):
        lo, hi = bounds.wilson_interval(13, 100)
        assert lo < 0.13 < hi

    def test_wilson_zero_successes(self):
        lo, hi = bounds.wilson_interval(0, 1000)
        assert lo == 0.0 and hi < 0.005

    def test_mc_requires_replicas(self):
        kern = CDKernel(measures.chebyshev(), 3)
        with pytest.raises(PreconditionError):
            bounds.tail_probability_mc(kern, functions.get("square"), [0.1], 10,
                                       None, 3.0)

    def test_mc_range_bound_eps_gives_zero(self):
        from opelab.sampler import RngStream
        kern = CDKernel(measures.chebyshev(), 4)
        f = functions.get("square")
        res = bounds.tail_probability_mc(kern, f, [3.0], replicas=1000,
                                         rng=RngStream(2, 0), normalization=4.0)[0]
        # eps above the range bound 2 sup |f|: empirically impossible
        assert res["empirical"] == 0.0
        assert res["dominated"]
