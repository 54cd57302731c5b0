"""Exact synthesis of discretized sample paths.

The increments of the process on a uniform grid form a stationary Gaussian
vector sequence whose matrix autocovariance is known in closed form.  The
sequence is embedded into a block-circulant covariance, diagonalized by the
FFT into one Hermitian p x p matrix per frequency, factored by
eigendecomposition, excited with complex Gaussian noise and transformed
back.  As long as every frequency matrix is positive semidefinite, the real
and the imaginary part are two independent sequences with exactly the
target covariance (Chan & Wood 1999; Helgason, Pipiras & Abry 2011), and
both are used.  Paths are the cumulative sums of the increments, pinned to
zero at the origin.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .model import MfbmParams, InvalidParamsError, check_existence, \
    increment_cross_covariance

# Relative tolerance (w.r.t. the largest eigenvalue) below which negative
# frequency-matrix eigenvalues count as numerical noise.
EMBED_REL_TOL = 1e-9

# The circulant size starts at the smallest power of two >= 2 (n - 1) and is
# doubled at most this many times before falling back to eigenvalue clipping.
MAX_DOUBLINGS = 6

# Version of the map from (seed, replicate) to Gaussian variates.  Scheme 2:
# replicates 2k and 2k + 1 are the real and the imaginary half of noise draw
# k of one Philox stream keyed by the seed.  Scheme 1 keyed one stream per
# replicate with derive_seed(seed, replicate).
SEED_SCHEME = 2

# Complex noise per synthesis chunk, in bytes.  A chunk's working set is
# about four times this; at 512 KB an ensemble's peak memory is that of
# one-path-at-a-time synthesis, while 4 MB chunks raise it by 15 MB and are
# no faster.
_CHUNK_BYTES = 512 << 10


@dataclass(frozen=True)
class EmbeddingReport:
    """Diagnostics of the block-circulant factorization."""

    circulant_size: int
    min_eigenvalue: float
    correction: str             # 'none' | 'clip'

    def __post_init__(self):
        if self.correction not in ("none", "clip"):
            raise ValueError("correction must be 'none' or 'clip'")


@dataclass(frozen=True)
class SamplePath:
    """Discretized trajectory: values[j, i] = x_j(i * dt), x(0) = 0."""

    params: MfbmParams
    n: int
    dt: float
    values: np.ndarray
    seed: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.params.p, self.n):
            raise ValueError("values shape inconsistent with params.p and n")
        if np.any(values[:, 0] != 0.0):
            raise ValueError("paths must start at zero")
        object.__setattr__(self, "values", values)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=1)


class _CirculantFactor:
    def __init__(self, m: int, factor: np.ndarray, report: EmbeddingReport):
        self.m = m
        self.factor = factor          # (m, p, p) complex
        self.report = report


def _increment_blocks(params: MfbmParams, lags: np.ndarray, dt: float) -> np.ndarray:
    p = params.p
    out = np.empty((lags.size, p, p))
    for j in range(p):
        for k in range(p):
            out[:, j, k] = increment_cross_covariance(params, j, k, lags, dt=dt)
    return out


def _try_embedding(params: MfbmParams, n: int, dt: float, m: int):
    half = m // 2
    lags = np.concatenate([np.arange(half + 1), np.arange(half + 1 - m, 0)])
    blocks = _increment_blocks(params, lags.astype(float), dt)
    # the half-way block is its own reflection; symmetrize to keep the
    # frequency matrices Hermitian
    blocks[half] = 0.5 * (blocks[half] + blocks[half].T)
    lam = np.fft.fft(blocks, axis=0)
    lam = 0.5 * (lam + np.conj(np.transpose(lam, (0, 2, 1))))
    evals, evecs = np.linalg.eigh(lam)
    return evals, evecs


def build_embedding(params: MfbmParams, n: int, dt: float) -> _CirculantFactor:
    """Frequency-domain factor of the block-circulant embedding.

    Doubles the circulant size on failure, up to MAX_DOUBLINGS times, then
    falls back to clipping the offending eigenvalues with a loud report.
    """
    if n < 2:
        raise ValueError("need at least two grid points")
    m = 1
    while m < 2 * (n - 1):
        m *= 2
    attempts = 0
    while True:
        evals, evecs = _try_embedding(params, n, dt, m)
        lam_min = float(evals.min())
        lam_max = float(evals.max())
        if lam_min >= -EMBED_REL_TOL * lam_max:
            correction = "none"
            break
        if attempts >= MAX_DOUBLINGS:
            correction = "clip"
            warnings.warn(
                f"circulant embedding not nonnegative definite after "
                f"{attempts} doublings (min eigenvalue {lam_min:.3e}); "
                f"clipping to zero, simulation is approximate", RuntimeWarning)
            break
        m *= 2
        attempts += 1
    clipped = np.clip(evals, 0.0, None)
    factor = np.einsum("fij,fj,fkj->fik", evecs, np.sqrt(clipped), np.conj(evecs))
    report = EmbeddingReport(circulant_size=m, min_eigenvalue=lam_min,
                             correction=correction)
    return _CirculantFactor(m=m, factor=factor, report=report)


_factor_cache: OrderedDict = OrderedDict()
_factor_lock = threading.Lock()
_FACTOR_CACHE_SIZE = 8


def _cached_embedding(params: MfbmParams, n: int, dt: float) -> _CirculantFactor:
    """Cached factor of admissible parameters.

    Admissibility is checked on a cache miss, before the build, so a cached
    factor implies admissible parameters and a hit needs no check.
    """
    key = (params.fingerprint(), n, dt)
    with _factor_lock:
        if key in _factor_cache:
            _factor_cache.move_to_end(key)
            return _factor_cache[key]
    _require_admissible(params)
    fac = build_embedding(params, n, dt)
    with _factor_lock:
        _factor_cache[key] = fac
        while len(_factor_cache) > _FACTOR_CACHE_SIZE:
            _factor_cache.popitem(last=False)
    return fac


def embedding_report(params: MfbmParams, n: int, dt: float) -> EmbeddingReport:
    return _cached_embedding(params, n, dt).report


def derive_seed(seed: int, replicate: int) -> int:
    """Deterministic 64-bit seed for one replicate of an ensemble.

    Public for callers that key their own streams; the ensemble does not use
    it since seed scheme 2.
    """
    ss = np.random.SeedSequence(entropy=[int(seed), int(replicate)])
    return int(ss.generate_state(1, np.uint64)[0])


def _require_admissible(params: MfbmParams) -> None:
    res = check_existence(params)
    if not res.admissible:
        raise InvalidParamsError(
            "parameters are not admissible: smallest eigenvalue of the "
            f"existence matrix is {res.min_eigenvalue:.6e}")


def _synthesize(params: MfbmParams, n: int, dt: float, seed: int,
                count: int):
    """Values of ``count`` paths, shape (count, p, n), and the embedding report.

    Noise draw k is ``standard_normal((2, m, p))`` of one Philox stream keyed
    by ``seed``, taken in chunks of whole draws; replicate 2k is the real
    half of its inverse FFT and replicate 2k + 1 the imaginary half.  A
    trailing odd replicate takes only the real half.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    fac = _cached_embedding(params, n, dt)
    m, p = fac.m, params.p
    scale = math.sqrt(m)
    out = np.empty((count, p, n))
    out[:, :, 0] = 0.0
    pairs = (count + 1) // 2
    per_chunk = max(1, _CHUNK_BYTES // (16 * m * p))
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    for first in range(0, pairs, per_chunk):
        k = min(per_chunk, pairs - first)
        z = rng.standard_normal((k, 2, m, p))
        w = z[:, 0] + 1j * z[:, 1]
        v = np.empty_like(w)
        for b in range(k):
            # one draw at a time: the batched contraction is slower and a
            # matmul would change the bits
            np.einsum("fij,fj->fi", fac.factor, w[b], out=v[b])
        y = np.fft.ifft(v, axis=1)
        for half, part in enumerate((y.real, y.imag)):
            reps = range(2 * first + half, min(2 * (first + k), count), 2)
            if reps:
                inc = scale * part[:len(reps), :n - 1]
                out[reps.start:reps.stop:2, :, 1:] = \
                    np.cumsum(inc, axis=1).transpose(0, 2, 1)
    return out, fac.report


def simulate(params: MfbmParams, n: int, dt: float, seed: int):
    """Simulate one path; deterministic in ``seed``.

    Returns (SamplePath, EmbeddingReport).  The path is replicate 0 of
    ``replicate_ensemble`` with the same seed (seed scheme 2): the real half
    of the first noise draw of the counter-based Philox generator keyed by
    the seed, drawn in a fixed (frequency, component) order, so results do
    not depend on scheduling.
    """
    values, report = _synthesize(params, n, dt, seed, 1)
    return SamplePath(params=params, n=n, dt=dt, values=values[0],
                      seed=int(seed)), report


def replicate_ensemble(params: MfbmParams, n: int, dt: float, seed: int,
                       count: int):
    """``count`` independent paths from one Philox stream keyed by ``seed``.

    Seed scheme 2 (``SEED_SCHEME``): replicates 2k and 2k + 1 are the real
    and the imaginary half of noise draw k, so replicate 0 is
    ``simulate(seed)`` and a smaller count gives a prefix of a larger one.
    Every path carries the ensemble seed in ``SamplePath.seed``; the values
    are views into one (count, p, n) array.  ``derive_seed`` is not used.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    values, _ = _synthesize(params, n, dt, seed, count)
    return [SamplePath(params=params, n=n, dt=dt, values=v, seed=int(seed))
            for v in values]
