"""Exact sampling of orthogonal polynomial ensembles.

The ensemble is the rank-n projection determinantal process with the
Christoffel-Darboux kernel, sampled point by point from the conditional
densities (sequential HKPV scheme).  Proposals come from a step-function
majorant of the one-point marginal K_n(x,x) w(x)/n, built in the measure's
Coordinate, in which the density is bounded; the majorant dominates the
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

# A Gram-Schmidt pass that keeps at least this share of |P(x)|^2 needs no
# second pass: the DGKS test with kappa^2 = 1/2 (see _orthonormalize).
_DGKS_KEEP = 0.5

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
        # as uint64: a list with an entry >= 2^63 would pass through float64
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

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

    HKPV needs a bounded marginal density in the family's coordinate, which
    the family's check_hkpv asserts.  The tridiagonal model exists only for
    a Gaussian weight.
    """
    if method == "tridiagonal":
        if measure.gaussian_n is None:
            raise ConfigurationError(
                f"tridiagonal method needs a Gaussian weight, not family {measure.family!r}")
        return
    if measure.spec.check_hkpv is not None:
        measure.spec.check_hkpv(measure)


class _MarginalEnvelope:
    """Piecewise-constant majorant of the marginal density in a tame coordinate.

    The marginal K_n(x,x) w(x) dx is read in the measure's Coordinate u, where
    it is bounded: theta = arccos x on a compact support, with the Jacobian
    absorbing integrable endpoint singularities and the density written in
    theta so that the pad is not eaten by rounding next to theta = 0, pi; x
    itself, cut where the mass beyond is far below double precision, on the
    line.
    """

    def __init__(self, kern: CDKernel):
        check_sampleable(kern.measure)
        # no reference to kern, whose cache holds the envelope
        n = kern.n
        self.coord, self.coeffs, self.n = kern.measure.coordinate(n), kern.coeffs, n
        self.edges = edges = np.linspace(self.coord.lo, self.coord.hi, _ENVELOPE_CELLS + 1)
        # estimate the per-cell max of the transformed density on subsamples,
        # a chunk of cells at a time; overflow is reported below
        sub = 17
        t = (np.arange(sub) + 0.5) / sub
        u = edges[:-1, None] + np.diff(edges)[:, None] * t[None, :]
        chunk = max(1, _ENVELOPE_CHUNK_DOUBLES // (sub * n))
        with np.errstate(over="ignore", invalid="ignore"):
            peak = np.concatenate([
                self._density(u[c:c + chunk].ravel())[3].reshape(-1, sub).max(axis=1)
                for c in range(0, _ENVELOPE_CELLS, chunk)])
        self.heights = _ENVELOPE_PAD * peak
        cellmass = self.heights * np.diff(edges)
        self.total = float(np.sum(cellmass))
        if not (math.isfinite(self.total) and np.all(np.isfinite(self.heights))):
            raise NumericalError(
                f"non-finite proposal envelope at rank {n}: the forward recurrence "
                "p_j(x) overflows where the weight underflows")
        self.cum = np.cumsum(cellmass) / self.total

    def _density(self, u: np.ndarray):
        """(x, design at x, K(x,x), marginal density of x in the u coordinate
        with Jacobian)."""
        x = self.coord.to_x(u)
        P = design_matrix(self.coeffs, self.n, x)
        kdiag = np.einsum("ij,ij->i", P, P)
        return x, P, kdiag, kdiag * self.coord.density(u, x)

    def propose(self, gen: np.random.Generator, size: int):
        """Draw u from the normalized step density; return
        (x, design, K(x,x), height@u, density@u)."""
        r = gen.random(size)
        cell = np.searchsorted(self.cum, r)
        frac = gen.random(size)
        u = self.edges[cell] + frac * (self.edges[cell + 1] - self.edges[cell])
        x, P, kdiag, dens = self._density(u)
        if np.any(dens > self.heights[cell] * (1.0 + 1e-12)):
            raise NumericalError("proposal majorant breached; envelope grid too coarse")
        return x, P, kdiag, self.heights[cell], dens


def _envelope(kern: CDKernel) -> _MarginalEnvelope:
    return kern.cached(("envelope",), lambda: _MarginalEnvelope(kern))


# ---------------------------------------------------------------------------
# Sequential conditional sampling
# ---------------------------------------------------------------------------

def _orthonormalize(basis: np.ndarray, i: int, p: np.ndarray, pp: float) -> int:
    """Write the kernel section p = P(x), with pp = |p|^2, orthonormalized
    against basis[:i] into basis[i]; return the number of Gram-Schmidt passes.

    Classical Gram-Schmidt with the "twice is enough" test of Daniel, Gragg,
    Kaufman & Stewart (Math. Comp. 30, 1976): the residual v of one pass is
    kept when |v| >= kappa |p| with kappa = 1/sqrt(2), that is when
    |v|^2 >= pp / 2, and is otherwise projected out once more (Giraud,
    Langou & Rozloznik, Comput. Math. Appl. 50, 2005, analyse both cases).
    """
    B = basis[:i]
    v = p - B.T @ (B @ p)
    vv = v @ v
    passes = 1
    if vv < _DGKS_KEEP * pp:
        v -= B.T @ (B @ v)
        vv = v @ v
        passes = 2
    if vv <= 0.0:
        raise NumericalError("degenerate residual section in Gram-Schmidt")
    np.divide(v, math.sqrt(vv), out=basis[i])
    return passes


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

    The accepted section P(x) is orthonormalized against the chosen ones by
    classical Gram-Schmidt, re-orthogonalized only when the first pass
    cancels: a second pass runs when |v|^2 < |P(x)|^2 / 2, the DGKS test with
    kappa = 1/sqrt(2) (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30,
    1976; Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005).  The
    pool, the envelope and the acceptance rule do not depend on it.
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
                x, P, kdiag, height, dens = env.propose(gen, size)
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
        _orthonormalize(basis, i, P[j], kdiag[j])
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
