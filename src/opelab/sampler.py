"""Exact sampling of orthogonal polynomial ensembles.

The ensemble is the rank-n projection determinantal process with the
Christoffel-Darboux kernel, sampled point by point from the conditional
densities (sequential HKPV scheme).  Proposals come from a step-function
majorant of the one-point marginal K_n(x,x) w(x)/n, built in the measure's
Coordinate, in which the density is bounded; the majorant dominates the
target on every cell by construction and this is re-asserted at run time, so
accepted draws follow the conditional law exactly.  Each replica draws one
i.i.d. proposal pool, and the n sequential steps use it up in order; the
residual kernel diagonal of an entry is brought up to date, a block at a
time, only when the scan reaches it.

A family with a matrix_model in the table of opelab.measures (today the
varying Gaussian weight, by the beta = 2 tridiagonal model) has a second,
independent sampler, used as a cross-validation oracle: the eigenvalues of
the random matrix, one Philox substream per replica.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, PreconditionError, SamplingStallError
from .kernel import CDKernel
from .measures import Measure, design_matrix

__all__ = [
    "RngStream",
    "SampleConfiguration",
    "sample_ope",
    "sample_ope_batch",
    "sample_matrix_model",
    "sample_matrix_model_batch",
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
# A caught-up block of the pool holds about total * (this + 1/r) entries with
# r points left: the tries from r points left down to r/4, and one more step's.
_WINDOW_SPAN = math.log(4.0)
# A block holds at least this many entries: on fewer rows a GEMM costs mostly
# its call overhead.
_MIN_BLOCK = 64

# A Gram-Schmidt pass that keeps at least this share of |P(x)|^2 needs no
# second pass: the DGKS test with kappa^2 = 1/2 (see _orthonormalize).
_DGKS_KEEP = 0.5


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
    the family's check_hkpv asserts.  The tridiagonal method needs the
    family's matrix_model.
    """
    if method == "tridiagonal":
        if measure.spec.matrix_model is None:
            raise ConfigurationError(
                f"tridiagonal method needs a matrix model, which family {measure.family!r} lacks")
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
        # rounding leaves the sum a few ulps off 1, and a draw at or past the
        # last entry would land in no cell
        self.cum[-1] = 1.0

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

def _orthonormalize(basis: np.ndarray, i: int, p: np.ndarray, pp: float,
                    bp: np.ndarray) -> int:
    """Write the kernel section p = P(x), with pp = |p|^2 and bp = basis[:i] @ p
    its projections on the chosen sections, orthonormalized against basis[:i]
    into basis[i]; return the number of Gram-Schmidt passes.

    Classical Gram-Schmidt with the "twice is enough" test of Daniel, Gragg,
    Kaufman & Stewart (Math. Comp. 30, 1976): the residual v of one pass is
    kept when |v| >= kappa |p| with kappa = 1/sqrt(2), that is when
    |v|^2 >= pp / 2, and is otherwise projected out once more (Giraud,
    Langou & Rozloznik, Comput. Math. Appl. 50, 2005, analyse both cases).
    The first pass reads bp, which the pool's residual bookkeeping already
    holds; the second computes its projections afresh.
    """
    B = basis[:i]
    v = p - B.T @ bp
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


def _catch_up(P: np.ndarray, kdiag: np.ndarray, basis: np.ndarray, i: int,
              proj: np.ndarray, kres: np.ndarray, lo: int, hi: int) -> None:
    """Bring pool entries [lo, hi) up to date with the sections basis[:i]:
    their projections proj[lo:hi, :i] in one GEMM, and their residual kernel
    diagonal kres = K(x,x) - |proj|^2."""
    if i == 0:  # no sections yet
        kres[lo:hi] = kdiag[lo:hi]
        return
    blk = P[lo:hi] @ basis[:i].T
    proj[lo:hi, :i] = blk
    kres[lo:hi] = kdiag[lo:hi] - np.einsum("ij,ij->i", blk, blk)


def _fold(P: np.ndarray, basis: np.ndarray, i: int,
          proj: np.ndarray, kres: np.ndarray, lo: int, hi: int) -> None:
    """Fold the new section basis[i] into the entries [lo, hi), which are
    current with basis[:i]."""
    col = P[lo:hi] @ basis[i]
    proj[lo:hi, i] = col
    kres[lo:hi] -= col * col


def _sample_one(kern: CDKernel, env: _MarginalEnvelope, gen: np.random.Generator) -> np.ndarray:
    """One n-point configuration by sequential conditionals on a shared pool.

    A pool entry is a proposal x from the envelope, its design row, one
    acceptance threshold (uniform x majorant / density ratio, taken once per
    pool) and, once the scan reaches it, its projections on the sections
    b_l chosen so far and its residual kernel diagonal
    kres(x) = K(x,x) - sum_{l<i} (P(x) . b_l)^2.  Step i accepts the first
    unused entry whose residual exceeds its threshold, i.e. whose uniform
    falls below (residual density)/(majorant), and moves the cursor past it.
    Which entry step i takes depends only on the entries up to it, so the
    entries after it are still i.i.d. draws from the envelope, independent
    of everything accepted so far, and step i+1 may use them.  An empty pool
    is refilled with one envelope draw sized to the expected tries still to
    come.

    Residuals are kept current only on a scan window [cur, hi) of the pool.
    When the scan runs out of window, the next block of entries is brought
    up to date with one GEMM against all chosen sections, sized to about
    total * (ln 4 + 1/r) tries with r points left (at least _MIN_BLOCK
    entries); each accepted section is folded into the window alone.  Every
    entry is tested once, when its residual accounts for exactly the
    sections chosen before its step.

    The accepted section P(x) is orthonormalized against the chosen ones by
    classical Gram-Schmidt from its stored projections, re-orthogonalized
    only when the first pass cancels: a second pass runs when
    |v|^2 < |P(x)|^2 / 2, the DGKS test with kappa = 1/sqrt(2) (Daniel,
    Gragg, Kaufman & Stewart, Math. Comp. 30, 1976; Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50, 2005).  The pool, the envelope and
    the acceptance rule do not depend on it.  The last step needs neither
    its section nor the residuals after it.
    """
    n = kern.n
    basis = np.empty((n, n))  # orthonormal coefficient vectors of chosen sections
    points = np.empty(n)
    # entries [cur, hi) of the pool are unused and current with basis[:i];
    # entries [hi, end) are unused and not yet caught up
    cur = hi = end = 0
    for i in range(n):
        tries = 0  # pool entries examined since the last acceptance
        while True:
            if cur == hi:
                if hi == end:
                    if tries >= _PROPOSAL_CAP:
                        raise SamplingStallError(i, tries, {
                            "n": n, "accepted_points": points[:i].tolist(),
                            "envelope_mass": env.total,
                        })
                    # with r points left a try succeeds at rate ~ r/total, so
                    # about total * (1 + 1/2 + ... + 1/r) <= total * (ln r + 1)
                    # tries remain
                    size = int(_POOL_HEADROOM * env.total * (math.log(n - i) + 1.0)) + 1
                    size = min(size, max(1, _POOL_DOUBLES // n))
                    x, P, kdiag, height, dens = env.propose(gen, size)
                    # accept with prob (residual density)/(majorant): exact
                    # because the majorant dominates the full marginal, hence
                    # the residual too; a zero density never accepts
                    with np.errstate(divide="ignore", invalid="ignore"):
                        thr = gen.random(size) * height / (dens / np.maximum(kdiag, 1e-300))
                    proj = np.empty((size, n))
                    kres = np.empty(size)
                    cur = hi = 0
                    end = size
                block = int(env.total * (_WINDOW_SPAN + 1.0 / (n - i))) + 2
                new = min(end, hi + max(_MIN_BLOCK, block))
                _catch_up(P, kdiag, basis, i, proj, kres, hi, new)
                hi = new
            hit = kres[cur:hi] > thr[cur:hi]
            k = int(hit.argmax())
            if hit[k]:
                j = cur + k
                break
            tries += hi - cur
            cur = hi
        points[i] = x[j]
        cur = j + 1
        if i + 1 < n:
            _orthonormalize(basis, i, P[j], kdiag[j], proj[j, :i])
            _fold(P, basis, i, proj, kres, cur, hi)
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
# The family's random-matrix model
# ---------------------------------------------------------------------------

def sample_matrix_model(measure: Measure, n: int, rng: RngStream) -> SampleConfiguration:
    """One draw of the rank-n ensemble from the family's matrix model."""
    points = sample_matrix_model_batch(measure, n, rng, 1)[0]
    return SampleConfiguration(points, rng.seed, "tridiagonal", n)


def sample_matrix_model_batch(measure: Measure, n: int, rng: RngStream,
                              replicas: int) -> np.ndarray:
    """replicas x n array of draws of the family's matrix model, one child
    substream each (child 0 is rng's own stream); ConfigurationError for a
    family without one."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    check_sampleable(measure, "tridiagonal")
    out = np.empty((replicas, n))
    for r in range(replicas):
        out[r] = measure.spec.matrix_model(measure, n, rng.child(r).generator())
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
