"""Exact synthesis of discretized sample paths.

The increments of the process on a uniform grid form a stationary Gaussian
vector sequence whose matrix autocovariance is known in closed form.  The
sequence is embedded into a block-circulant covariance, diagonalized by the
FFT into one Hermitian p x p matrix per frequency, factored by
eigendecomposition, excited with complex Gaussian noise and transformed
back; the real part has exactly the target covariance as long as every
frequency matrix is positive semidefinite.  Paths are the cumulative sums of
the increments, pinned to zero at the origin.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
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
    """Deterministic 64-bit seed for one replicate of an ensemble."""
    ss = np.random.SeedSequence(entropy=[int(seed), int(replicate)])
    return int(ss.generate_state(1, np.uint64)[0])


def _require_admissible(params: MfbmParams) -> None:
    res = check_existence(params)
    if not res.admissible:
        raise InvalidParamsError(
            "parameters are not admissible: smallest eigenvalue of the "
            f"existence matrix is {res.min_eigenvalue:.6e}")


def simulate(params: MfbmParams, n: int, dt: float, seed: int):
    """Simulate one path; deterministic in ``seed``.

    Returns (SamplePath, EmbeddingReport).  Gaussian variates come from the
    counter-based Philox generator keyed by the seed, drawn in a fixed
    (frequency, component) order, so results do not depend on scheduling.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    fac = _cached_embedding(params, n, dt)
    m, p = fac.m, params.p
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    z = rng.standard_normal((2, m, p))
    w = z[0] + 1j * z[1]
    v = np.einsum("fij,fj->fi", fac.factor, w)
    y = math.sqrt(m) * np.fft.ifft(v, axis=0).real
    x = np.vstack([np.zeros((1, p)), np.cumsum(y[:n - 1], axis=0)])
    path = SamplePath(params=params, n=n, dt=dt, values=x.T.copy(), seed=int(seed))
    return path, fac.report


def replicate_ensemble(params: MfbmParams, n: int, dt: float, seed: int,
                       count: int, threads: int = 1):
    """``count`` independent paths; replicate r is simulate(derive_seed(seed, r)).

    Identical inputs give bit-identical ensembles; replicates may fan out
    across threads with deterministic output ordering.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _cached_embedding(params, n, dt)  # check and build once before fanning out
    seeds = [derive_seed(seed, r) for r in range(count)]

    def one(s: int) -> SamplePath:
        return simulate(params, n, dt, s)[0]

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, seeds))
    return [one(s) for s in seeds]
