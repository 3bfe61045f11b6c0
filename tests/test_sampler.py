import math

import numpy as np
import pytest
from scipy import stats

from opelab import functions, measures
from opelab.errors import ConfigurationError, NumericalError
from opelab.kernel import CDKernel, kernel_sum
from opelab.linstat import exact_mean, exact_variance
from opelab.sampler import (
    RngStream,
    SampleConfiguration,
    _orthonormalize,
    check_sampleable,
    export_samples,
    sample_gue_batch,
    sample_gue_tridiagonal,
    sample_ope,
    sample_ope_batch,
)


class TestRngStream:
    def test_determinism(self):
        a = RngStream(123, 4).generator().random(5)
        b = RngStream(123, 4).generator().random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().random(5)
        b = RngStream(123, 1).generator().random(5)
        assert not np.array_equal(a, b)

    @pytest.mark.filterwarnings("error")
    def test_every_u64_seed_is_its_own_stream(self):
        """Seeds from 2^63 up keep every bit: neighbours differ, and the
        largest seed is not seed 0."""
        draws = [RngStream(seed, index).generator().random(3)
                 for seed in (0, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
                 for index in (0, 2**64 - 1)]
        assert len({d.tobytes() for d in draws}) == len(draws)


class TestSampleConfiguration:
    def test_sorted_invariant(self):
        with pytest.raises(Exception):
            SampleConfiguration(np.array([0.5, -0.5]), 0, "hkpv", 2)

    def test_count_invariant(self):
        with pytest.raises(Exception):
            SampleConfiguration(np.array([0.1]), 0, "hkpv", 2)


class TestOpeSampler:
    def test_determinism(self):
        kern = CDKernel(measures.chebyshev(), 8)
        a = sample_ope(kern, RngStream(17, 0))
        b = sample_ope(kern, RngStream(17, 0))
        assert np.array_equal(a.points, b.points)

    def test_count_and_sort(self):
        kern = CDKernel(measures.legendre(), 13)
        s = sample_ope(kern, RngStream(1, 2))
        assert s.n == 13 and len(s.points) == 13
        assert np.all(np.diff(s.points) >= 0)
        assert np.all((s.points >= -1.0) & (s.points <= 1.0))

    def test_rank_one_is_base_measure(self):
        """n=1: the single point is distributed as the measure itself."""
        kern = CDKernel(measures.chebyshev(), 1)
        draws = sample_ope_batch(kern, RngStream(23, 0), 4000).ravel()
        ks = stats.kstest(draws, lambda x: np.arcsin(np.clip(x, -1, 1)) / np.pi + 0.5)
        assert ks.statistic <= 0.025

    def test_mean_statistic_matches_quadrature(self):
        mu = measures.chebyshev()
        kern = CDKernel(mu, 20)
        reps = 600
        samples = sample_ope_batch(kern, RngStream(29, 0), reps)
        vals = np.sum(samples ** 2, axis=1)
        want = exact_mean(kern, functions.get("square"))
        se = np.std(vals, ddof=1) / np.sqrt(reps)
        assert abs(np.mean(vals) - want) <= 4 * se

    def test_repulsion_vs_iid(self):
        """Closest pairs are rarer than for iid draws from the 1-pt marginal."""
        mu = measures.chebyshev()
        n, reps = 10, 400
        kern = CDKernel(mu, n)
        samples = sample_ope_batch(kern, RngStream(31, 0), reps)
        gap = np.min(np.diff(np.sort(samples, axis=1)), axis=1)
        # iid draws from K(x,x) dmu / n via rank-1 residual-free proposals
        gen = RngStream(37, 0).generator()
        nodes, weights = mu.gauss_rule(400)
        P = kern.design(nodes)
        probs = weights * np.einsum("ij,ij->i", P, P) / n
        probs /= probs.sum()
        iid = nodes[gen.choice(len(nodes), size=(reps, n), p=probs)]
        gap_iid = np.min(np.diff(np.sort(iid, axis=1)), axis=1)
        thresh = 0.1 / n
        assert np.mean(gap < thresh) < np.mean(gap_iid < thresh)

    def test_one_point_marginal_histogram(self):
        """Pooled sample points follow K_n(x,x) dmu / n (multinomial bands)."""
        mu = measures.legendre()
        n, reps = 6, 800
        kern = CDKernel(mu, n)
        pts = sample_ope_batch(kern, RngStream(41, 0), reps).ravel()
        edges = np.linspace(-1, 1, 21)
        counts, _ = np.histogram(pts, edges)
        nodes, weights = mu.gauss_rule(600)
        P = kern.design(nodes)
        dens = weights * np.einsum("ij,ij->i", P, P) / n
        probs = np.array([dens[(nodes >= a) & (nodes < b)].sum()
                          for a, b in zip(edges[:-1], edges[1:])])
        probs /= probs.sum()
        total = pts.size
        for c, p in zip(counts, probs):
            sigma = np.sqrt(total * p * (1 - p))
            assert abs(c - total * p) <= 4 * sigma + 3

    @pytest.mark.parametrize("mu, n", [
        (measures.chebyshev(), 5),
        (measures.legendre(), 12),
        (measures.jacobi(0.5, 0.5), 8),
        (measures.varying_gaussian(10), 10),
    ], ids=["chebyshev", "legendre", "jacobi", "varying_gaussian"])
    def test_square_statistic_moments(self, mu, n):
        """MC mean (4 SE) and variance (5 SE) of X_{x^2} match the exact
        moments.  The variance is what a stale pool residual gets wrong: the
        one-point marginal, and so the mean, survives it."""
        reps = 4000
        kern = CDKernel(mu, n)
        x = np.sum(sample_ope_batch(kern, RngStream(43, 0), reps) ** 2, axis=1)
        f = functions.get("square")
        se_mean = np.std(x, ddof=1) / np.sqrt(reps)
        assert abs(np.mean(x) - exact_mean(kern, f)) <= 4 * se_mean
        var = np.var(x, ddof=1)
        se_var = np.sqrt(max(np.mean((x - np.mean(x)) ** 4) - var * var, 0.0) / reps)
        assert abs(var - exact_variance(kern, f)) <= 5 * se_var


class TestGramSchmidtStep:
    """The sampler's orthonormalization of an accepted kernel section against
    i = 40 orthonormal sections in R^50, at a chosen residual fraction
    |v|^2/|p|^2 of the section outside their span, against three passes of
    classical Gram-Schmidt in long double.  Sample-identity tests cannot see
    a loss of orthogonality here; it shows up only in the residual kernel
    diagonal of later steps."""

    n, i = 50, 40
    fractions = [0.9, 0.5, 0.49, 1e-2, 1e-6, 1e-10]
    # fixed before measuring: max |B b| against ~45 eps, and b's forward error
    # against the same times the conditioning |p| / |v| of the step
    tol = 1e-14

    def _case(self, fraction):
        gen = np.random.default_rng(53)
        q, _ = np.linalg.qr(gen.standard_normal((self.n, self.n)))
        basis = np.empty((self.i + 1, self.n))
        basis[:self.i] = q[:, :self.i].T
        inside = q[:, :self.i] @ gen.standard_normal(self.i)
        outside = q[:, self.i:] @ gen.standard_normal(self.n - self.i)
        # the in-span part is shrunk by 1e-9 so that a fraction of 1/2 stays
        # at or above 1/2 after rounding
        p = (math.sqrt(1.0 - fraction) * (1.0 - 1e-9) * inside / np.linalg.norm(inside)
             + math.sqrt(fraction) * outside / np.linalg.norm(outside))
        return basis, p

    def _reference(self, B, p):
        B, v = B.astype(np.longdouble), p.astype(np.longdouble)
        for _ in range(3):
            v -= B.T @ (B @ v)
        return v / np.sqrt(v @ v)

    @pytest.mark.parametrize("fraction", fractions)
    def test_residual_accuracy(self, fraction):
        basis, p = self._case(fraction)
        B = basis[:self.i]
        _orthonormalize(basis, self.i, p, float(p @ p))
        b = basis[self.i]
        ref = self._reference(B, p)
        assert np.max(np.abs(B.astype(np.longdouble) @ b)) <= self.tol
        assert np.max(np.abs(b - ref)) <= self.tol / math.sqrt(fraction)

    @pytest.mark.parametrize("fraction", fractions)
    def test_second_pass_only_on_cancellation(self, fraction):
        basis, p = self._case(fraction)
        passes = _orthonormalize(basis, self.i, p, float(p @ p))
        assert passes == (1 if fraction >= 0.5 else 2)


class TestSampleability:
    @pytest.mark.parametrize("a_exp, b_exp", [(-0.8, 0.0), (0.0, -0.95)])
    def test_singular_jacobi_rejected(self, a_exp, b_exp):
        kern = CDKernel(measures.jacobi(a_exp, b_exp), 20)
        with pytest.raises(ConfigurationError, match="-1/2"):
            sample_ope(kern, RngStream(2, 0))

    def test_boundary_exponent_accepted(self):
        check_sampleable(measures.jacobi(-0.5, -0.5))
        s = sample_ope(CDKernel(measures.jacobi(-0.5, 0.0), 6), RngStream(2, 0))
        assert s.n == 6

    def test_envelope_dominates_next_to_the_ends(self):
        # within ~3e-8 of theta = 0, pi the x-coordinate weight 1/sqrt(1 - x^2)
        # can be off by more than the envelope's 5 % pad
        from opelab.sampler import _envelope

        kern = CDKernel(measures.chebyshev(), 50)
        env = _envelope(kern)
        gap = np.linspace(1e-9, 1e-7, 2001)
        for u, cell in ((gap, 0), (np.pi - gap, len(env.heights) - 1)):
            *_, dens = env._density(u)
            assert np.all(dens <= env.heights[cell])
            assert dens == pytest.approx((2 * 50 - 1) / np.pi, rel=1e-10)

    def test_overflowing_envelope_raises_numerical_error(self):
        kern = CDKernel(measures.varying_gaussian(400), 400)
        with pytest.raises(NumericalError, match="overflows"):
            sample_ope(kern, RngStream(1, 0))


class TestTridiagonalModel:
    def test_n1_is_standard_normal(self):
        draws = np.array([sample_gue_tridiagonal(1, RngStream(2, i)).points[0]
                          for i in range(2000)])
        assert stats.kstest(draws, "norm").statistic <= 0.03

    @pytest.mark.parametrize("n", [2, 5])
    def test_second_moment_calibration(self, n):
        """Frozen off-diagonal scale: E sum lambda^2 matches the quadrature
        value n for the matching varying Gaussian weight."""
        reps = 4000
        vals = np.sum(sample_gue_batch(n, RngStream(3, 0), reps) ** 2, axis=1)
        kern = CDKernel(measures.varying_gaussian(n), n)
        want = exact_mean(kern, functions.get("square"))
        se = np.std(vals, ddof=1) / np.sqrt(reps)
        assert want == pytest.approx(n, rel=1e-10)
        assert abs(np.mean(vals) - want) <= 4 * se

    def test_weight_n_other_than_rank(self):
        """Rank 4 under exp(-16 x^2 / 2): the eigenvalues scale by 1/sqrt(16),
        not by 1/sqrt(rank)."""
        n, big_n, reps = 4, 16, 4000
        vals = np.sum(sample_gue_batch(n, RngStream(1, 0), reps, big_n) ** 2, axis=1)
        want = exact_mean(CDKernel(measures.varying_gaussian(big_n), n), functions.get("square"))
        se = np.std(vals, ddof=1) / np.sqrt(reps)
        assert want == pytest.approx(1.0, rel=1e-10)
        assert abs(np.mean(vals) - want) <= 4 * se
        one = sample_gue_tridiagonal(n, RngStream(1, 0), big_n).points
        assert np.array_equal(one * 2.0, sample_gue_tridiagonal(n, RngStream(1, 0)).points)

    def test_cross_validation_ks(self):
        n, reps = 10, 1500
        kern = CDKernel(measures.varying_gaussian(n), n)
        hkpv = np.sum(sample_ope_batch(kern, RngStream(5, 0), reps) ** 2, axis=1)
        tri = np.sum(sample_gue_batch(n, RngStream(7, 0), reps) ** 2, axis=1)
        assert stats.ks_2samp(hkpv, tri).statistic <= 0.05


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        mu = measures.chebyshev()
        kern = CDKernel(mu, 4)
        samples = sample_ope_batch(kern, RngStream(19, 0), 3)
        path = tmp_path / "samples.csv"
        export_samples(path, samples, mu, seed=19, method="hkpv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# measure=")
        assert lines[2] == "replicate_id,point_index,value"
        body = [ln.split(",") for ln in lines[3:]]
        assert len(body) == 12
        back = np.array([float(v) for _, _, v in body]).reshape(3, 4)
        assert np.array_equal(back, samples)
