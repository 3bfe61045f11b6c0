"""Exact sampling of orthogonal polynomial ensembles.

The ensemble is the rank-n projection determinantal process with the
Christoffel-Darboux kernel, sampled point by point from the conditional
densities (sequential HKPV scheme).  Proposals come from a step-function
majorant of the one-point marginal K_n(x,x) w(x)/n, built in a coordinate in
which the density is bounded (theta = arccos x on compact supports, a
truncated standardized coordinate on the line); the majorant dominates the
target on every cell by construction and this is re-asserted at run time, so
accepted draws follow the conditional law exactly.  Each replica draws one
i.i.d. proposal pool, with the residual kernel diagonal of every entry kept
current, and the n sequential steps use it up in order.

A tridiagonal random-matrix model provides an independent sampler for the
varying Gaussian weight, used as a cross-validation oracle.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import ConfigurationError, NumericalError, PreconditionError, SamplingStallError
from .kernel import CDKernel
from .measures import Measure, design_matrix

__all__ = [
    "RngStream",
    "SampleConfiguration",
    "sample_ope",
    "sample_ope_batch",
    "sample_gue_tridiagonal",
    "check_sampleable",
    "export_samples",
]

_PROPOSAL_CAP = 1_000_000
_ENVELOPE_CELLS = 4096
_ENVELOPE_PAD = 1.05
# Design entries (points x rank) in one proposal pool.
_POOL_DOUBLES = 1_000_000
# Design entries per chunk of the envelope build: its 4096 x 17 subsample grid
# holds 70k points, so the unchunked design takes 28 MB at n = 50 and 220 MB
# at n = 400.
_ENVELOPE_CHUNK_DOUBLES = 1_000_000
# A pool holds this multiple of the expected tries still to come.
_POOL_HEADROOM = 1.2

# Off-diagonal scale of the tridiagonal Gaussian model: the beta = 2 case of
# Dumitriu-Edelman's chi_{beta k} / sqrt(2) entries (J. Math. Phys. 2002).
_TRIDIAG_OFFDIAG_SCALE = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class RngStream:
    """Counter-based RNG stream: (seed, stream_index) fixes the draw sequence."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64 and 0 <= self.stream_index < 2**64):
            raise ConfigurationError("seed and stream_index must be u64")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_index]))

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.seed, self.stream_index + offset)


@dataclass(frozen=True)
class SampleConfiguration:
    """One draw of the n-point ensemble, sorted ascending."""

    points: np.ndarray
    seed: int
    method: str
    n: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.shape != (self.n,):
            raise PreconditionError(f"expected {self.n} points, got shape {pts.shape}")
        if np.any(np.diff(pts) < 0):
            raise PreconditionError("points must be sorted ascending")


# ---------------------------------------------------------------------------
# Step-majorant proposal for the one-point marginal
# ---------------------------------------------------------------------------

def check_sampleable(measure: Measure, method: str = "hkpv") -> None:
    """ConfigurationError unless `method` can sample the ensemble of `measure`.

    HKPV needs a bounded marginal density in its proposal coordinate: on
    compact supports theta = arccos x, where the family's check_hkpv rejects
    weights whose density stays unbounded; on the line only a Gaussian
    weight exp(-N x^2 / 2) has a proposal coordinate.  The tridiagonal model
    exists only for a Gaussian weight.
    """
    if method == "tridiagonal":
        if measure.gaussian_n is None:
            raise ConfigurationError(
                f"tridiagonal method needs a Gaussian weight, not family {measure.family!r}")
        return
    if not measure.compact and measure.gaussian_n is None:
        raise ConfigurationError(f"cannot sample family {measure.family!r} on unbounded support")
    if measure.spec.check_hkpv is not None:
        measure.spec.check_hkpv(measure)


class _MarginalEnvelope:
    """Piecewise-constant majorant of the marginal density in a tame coordinate.

    The marginal K_n(x,x) w(x) dx is mapped to a coordinate u where it is
    bounded: u = theta with x = mid + half*cos(theta) on compact supports
    (absorbing integrable endpoint singularities into the Jacobian, with the
    weight taken from Measure.theta_density so that the pad is not eaten by
    rounding next to theta = 0, pi), or
    u = x itself on a truncated interval for the Gaussian-type line weights,
    where the truncated mass is far below double precision.
    """

    def __init__(self, kern: CDKernel):
        check_sampleable(kern.measure)
        # no reference to kern, whose cache holds the envelope
        self.measure, self.coeffs, self.n = kern.measure, kern.coeffs, kern.n
        n = kern.n
        lo, hi = kern.measure.support
        self.compact = kern.measure.compact
        if self.compact:
            self.half, self.mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            self.u_lo, self.u_hi = 0.0, np.pi
        else:
            nn = kern.measure.gaussian_n
            # spectral edge at 2*sqrt(n/nn) in x units; pad well past it
            edge = 2.0 * math.sqrt(n / nn)
            pad = 10.0 / math.sqrt(nn)
            self.u_lo, self.u_hi = -(edge + pad), edge + pad
        edges = np.linspace(self.u_lo, self.u_hi, _ENVELOPE_CELLS + 1)
        self.edges = edges
        # estimate the per-cell max of the transformed density on subsamples,
        # a chunk of cells at a time; overflow is reported below
        sub = 17
        t = (np.arange(sub) + 0.5) / sub
        u = edges[:-1, None] + np.diff(edges)[:, None] * t[None, :]
        chunk = max(1, _ENVELOPE_CHUNK_DOUBLES // (sub * n))
        with np.errstate(over="ignore", invalid="ignore"):
            peak = np.concatenate([
                self._density(u[c:c + chunk].ravel())[2].reshape(-1, sub).max(axis=1)
                for c in range(0, _ENVELOPE_CELLS, chunk)])
        self.heights = _ENVELOPE_PAD * peak
        cellmass = self.heights * np.diff(edges)
        self.total = float(np.sum(cellmass))
        if not (math.isfinite(self.total) and np.all(np.isfinite(self.heights))):
            raise NumericalError(
                f"non-finite proposal envelope at rank {n}: the forward recurrence "
                "p_j(x) overflows where the weight underflows")
        self.cum = np.cumsum(cellmass) / self.total

    def _to_x(self, u: np.ndarray) -> np.ndarray:
        if self.compact:
            return self.mid + self.half * np.cos(u)
        return u

    def _density(self, u: np.ndarray):
        """(x, design at x, marginal density of x in the u coordinate with Jacobian)."""
        x = self._to_x(u)
        P = design_matrix(self.coeffs, self.n, x)
        kdiag = np.einsum("ij,ij->i", P, P)
        w = self.measure.theta_density(u) if self.compact else self.measure.weight(x)
        return x, P, kdiag * w

    def propose(self, gen: np.random.Generator, size: int):
        """Draw u from the normalized step density; return (x, design, height@u)."""
        r = gen.random(size)
        cell = np.searchsorted(self.cum, r)
        frac = gen.random(size)
        u = self.edges[cell] + frac * (self.edges[cell + 1] - self.edges[cell])
        x, P, dens = self._density(u)
        if np.any(dens > self.heights[cell] * (1.0 + 1e-12)):
            raise NumericalError("proposal majorant breached; envelope grid too coarse")
        return x, P, self.heights[cell], dens


def _envelope(kern: CDKernel) -> _MarginalEnvelope:
    return kern.cached(("envelope",), lambda: _MarginalEnvelope(kern))


# ---------------------------------------------------------------------------
# Sequential conditional sampling
# ---------------------------------------------------------------------------

def _sample_one(kern: CDKernel, env: _MarginalEnvelope, gen: np.random.Generator) -> np.ndarray:
    """One n-point configuration by sequential conditionals on a shared pool.

    A pool entry is a proposal x from the envelope, its design row, its
    envelope height, one acceptance uniform and its residual kernel diagonal
    kres(x) = K(x,x) - sum_{l<i} (P(x) . b_l)^2 over the sections b_l chosen
    so far.  Step i accepts the first unused entry whose uniform falls below
    (residual density)/(majorant) and moves the cursor past it.  Which entry
    step i takes depends only on the entries up to it, so the entries after
    it are still i.i.d. draws from the envelope, independent of everything
    accepted so far, and step i+1 may use them.  An empty pool is refilled
    with one envelope draw sized to the expected tries still to come.
    """
    n = kern.n
    basis = np.empty((n, n))  # orthonormal coefficient vectors of chosen sections
    points = np.empty(n)
    cur = end = 0  # entries [cur, end) of the pool are unused
    for i in range(n):
        tries = 0  # pool entries examined since the last acceptance
        while True:
            if cur == end:
                if tries >= _PROPOSAL_CAP:
                    raise SamplingStallError(i, tries, {
                        "n": n, "accepted_points": points[:i].tolist(),
                        "envelope_mass": env.total,
                    })
                # with r points left a try succeeds at rate ~ r/total, so about
                # total * (1 + 1/2 + ... + 1/r) <= total * (ln r + 1) tries remain
                size = int(_POOL_HEADROOM * env.total * (math.log(n - i) + 1.0)) + 1
                size = min(size, max(1, _POOL_DOUBLES // n))
                x, P, height, dens = env.propose(gen, size)
                kdiag = np.einsum("ij,ij->i", P, P)
                proj = P @ basis[:i].T
                kres = kdiag - np.einsum("ij,ij->i", proj, proj)
                # accept with prob (residual density)/(majorant): exact because
                # the majorant dominates the full marginal, hence the residual too
                bar = gen.random(size) * height
                gain = dens / np.maximum(kdiag, 1e-300)
                cur, end = 0, size
            hit = bar[cur:] < gain[cur:] * kres[cur:]
            k = int(hit.argmax())
            if hit[k]:
                j = cur + k
                break
            tries += end - cur
            cur = end
        points[i] = x[j]
        # Gram-Schmidt the new kernel section against the accepted ones,
        # with one re-orthogonalization pass for numerical drift
        v = P[j].copy()
        for _ in range(2):
            if i:
                v -= basis[:i].T @ (basis[:i] @ v)
        norm = math.sqrt(v @ v)
        if norm <= 0.0:
            raise NumericalError("degenerate residual section in Gram-Schmidt")
        basis[i] = v / norm
        cur = j + 1
        kres[cur:] -= (P[cur:] @ basis[i]) ** 2
    return np.sort(points)


def sample_ope(kern: CDKernel, rng: RngStream) -> SampleConfiguration:
    """Draw one exact sample of the n-point ensemble."""
    env = _envelope(kern)
    pts = _sample_one(kern, env, rng.generator())
    return SampleConfiguration(pts, rng.seed, "hkpv", kern.n)


def sample_ope_batch(kern: CDKernel, rng: RngStream, replicas: int) -> np.ndarray:
    """replicas x n array of independent samples on consecutive substreams."""
    env = _envelope(kern)
    out = np.empty((replicas, kern.n))
    for r in range(replicas):
        out[r] = _sample_one(kern, env, rng.child(r).generator())
    return out


# ---------------------------------------------------------------------------
# Tridiagonal matrix model for the varying Gaussian weight
# ---------------------------------------------------------------------------

def _gue_points(n: int, gen: np.random.Generator, weight_n: int) -> np.ndarray:
    diag = gen.standard_normal(n)
    k = np.arange(n - 1, 0, -1)
    off = np.sqrt(gen.chisquare(2 * k)) * _TRIDIAG_OFFDIAG_SCALE
    try:
        vals = eigvalsh_tridiagonal(diag, off)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc
    return np.sort(vals) / math.sqrt(weight_n)


def sample_gue_tridiagonal(n: int, rng: RngStream,
                           weight_n: int | None = None) -> SampleConfiguration:
    """Eigenvalues of the beta=2 tridiagonal model, matching the rank-n
    ensemble of the varying Gaussian weight exp(-N x^2 / 2), N = weight_n
    (default n)."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    points = _gue_points(n, rng.generator(), n if weight_n is None else weight_n)
    return SampleConfiguration(points, rng.seed, "tridiagonal", n)


def sample_gue_batch(n: int, rng: RngStream, replicas: int,
                     weight_n: int | None = None) -> np.ndarray:
    """replicas draws of sample_gue_tridiagonal, one child substream each."""
    weight_n = n if weight_n is None else weight_n
    out = np.empty((replicas, n))
    for r in range(replicas):
        out[r] = _gue_points(n, rng.child(r).generator(), weight_n)
    return out


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_samples(path, samples: np.ndarray, measure: Measure, seed: int, method: str):
    """Write replicate samples as CSV with a metadata header."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    with open(path, "w", newline="") as fh:
        fh.write(f"# measure={json.dumps(measure.to_json(), sort_keys=True)}\n")
        fh.write(f"# n={samples.shape[1]} seed={seed} method={method}\n")
        writer = csv.writer(fh)
        writer.writerow(["replicate_id", "point_index", "value"])
        for r, row in enumerate(samples):
            for j, val in enumerate(row):
                writer.writerow([r, j, format(val, ".17g")])
