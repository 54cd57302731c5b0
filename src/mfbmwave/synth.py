"""Exact synthesis of discretized sample paths.

The increments of the process on a uniform grid form a stationary Gaussian
vector sequence whose matrix autocovariance is known in closed form.  The
sequence is embedded into a block-circulant covariance, diagonalized by the
FFT into one Hermitian p x p matrix per frequency, factored by its
Hermitian square root on the half spectrum, excited with complex Gaussian
noise and transformed back.  As long as every frequency matrix is positive
semidefinite, the real and the imaginary part are two independent sequences
with exactly the target covariance (Chan & Wood 1999; Helgason, Pipiras &
Abry 2011), and both are used.  Paths are the cumulative sums of the
increments, pinned to zero at the origin.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import model
from .model import (MfbmParams, MfbmwaveError, InvalidParamsError,
                    check_existence, check_integer, check_seed, check_step,
                    require_bytes, run_pieces)

# Relative tolerance (w.r.t. the largest eigenvalue) below which negative
# frequency-matrix eigenvalues count as numerical noise.
EMBED_REL_TOL = 1e-9

# The circulant size starts at the smallest power of two >= 2 (n - 1) and is
# doubled at most this many times before falling back to eigenvalue clipping.
MAX_DOUBLINGS = 6

# Version of the map from (seed, replicate) to path values.  Scheme 1 keyed
# one stream per replicate with derive_seed(seed, replicate).  Scheme 2 made
# replicates 2k and 2k + 1 the real and the imaginary half of noise draw k
# of one Philox stream keyed by the seed.  Scheme 3 keeps that noise map and
# scheme 2's factor, the Hermitian square root of each frequency matrix, but
# computes it on the half spectrum: values agree with scheme 2 to rounding,
# about 1e-15 relative, and bits do not.
SEED_SCHEME = 3


@dataclass(frozen=True)
class EmbeddingReport:
    """Diagnostics of the block-circulant factorization."""

    circulant_size: int
    min_eigenvalue: float
    correction: str             # 'none' | 'clip'

    def __post_init__(self):
        if self.correction not in ("none", "clip"):
            raise MfbmwaveError("correction must be 'none' or 'clip'")


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Discretized trajectory: values[j, i] = x_j(i * dt), x(0) = 0.

    ``n``, ``dt`` and ``seed`` pass the rules of ``model``; the values are
    checked as a block of one path (``_check``), the rule a stream checks a
    chunk by.  Paths compare and hash by identity.
    """

    params: MfbmParams
    n: int
    dt: float
    values: np.ndarray
    seed: int

    def __post_init__(self):
        n, dt = check_integer("n", self.n), check_step(self.dt)
        seed, values = check_seed(self.seed), np.asarray(self.values, float)
        self._check(self.params, n, values[None])
        vars(self).update(n=n, dt=dt, values=values, seed=seed)

    @staticmethod
    def _check(params: MfbmParams, n: int, block: np.ndarray) -> None:
        """Refuse a block that is not (reps, p, n) paths of at least one point
        starting at zero: -0.0 passes, a non-zero, NaN or infinite origin not."""
        if block.ndim != 3 or block.shape[1:] != (params.p, n):
            raise MfbmwaveError("values shape inconsistent with params.p and n")
        if not n:
            raise MfbmwaveError("a path needs at least one point")
        if np.count_nonzero(block[:, :, 0]):
            raise MfbmwaveError("paths must start at zero")

    @classmethod
    def _of_block(cls, params: MfbmParams, n: int, dt: float,
                  block: np.ndarray, seed: int):
        """The paths of a (reps, p, n) float block, each a view of its row: a
        generator that checks the block once at the first next (``_check``)
        and then makes each path without a per-path check, as frozen as the
        constructor's."""
        cls._check(params, n, block)
        fields = {"params": params, "n": n, "dt": dt, "seed": seed}
        for values in block:
            path = object.__new__(cls)
            vars(path).update(fields, values=values)    # past the frozen setattr
            yield path

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=1)


@dataclass(frozen=True, eq=False)
class _CirculantFactor:
    """The Hermitian square roots S(f) of Lambda(f) for f <= m/2,
    m = report.circulant_size, packed; conj S(m - f) serves f > m/2.

    ``diag`` (p, m/2 + 1) holds the real diagonal S_ii and ``lower``
    (p (p - 1) / 2, m/2 + 1) the strict lower triangle S_kj, k > j, in the
    row-major order of ``np.tril_indices(p, -1)`` (``_lower``); S_jk is
    conj S_kj.  The two hold 8 p^2 bytes a frequency, half of the full
    complex matrices, and lose nothing: the diagonal's imaginary part is
    zero and the upper triangle is the conjugate of the lower.
    """

    diag: np.ndarray
    lower: np.ndarray
    report: EmbeddingReport


def _lower(k: int, j: int) -> int:
    """Row of entry (k, j), k > j, in a packed strict lower triangle: the
    order of ``np.tril_indices(p, -1)``, in which ``model.pack_triangles``
    stores eta."""
    return k * (k - 1) // 2 + j


def _build_bytes(m: int, p: int) -> int:
    """Upper estimate of the bytes a build at circulant size m holds.

    The packed half spectrum, 8 p^2 bytes a frequency (``_CirculantFactor``),
    the larger of two stages' per-worker arrays times the workers of that
    stage (``model.workers``), and 12 KB of small objects that do not grow
    with m.  A pair of components (``_pair_spectrum``) holds its row of m
    floats and up to three kernel arrays of m/2 + 2 floats; the reflected
    row, and one spectrum row of m/2 + 1 complex values, come after the
    kernel's arrays are freed and are smaller.  A piece of f frequency
    matrices is counted as the matrices unpacked for ``eigh``, 16 p^2 bytes
    each, as many bytes of eigenvectors, the eigenvalues and two arrays
    their size, and one product of f values.  ``_square_root`` runs after
    the unpacked matrices are freed, and its conjugate column, or numpy's
    ufunc buffer while the eigenvectors are scaled, is no larger than they.
    Traced peaks of builds from n = 2 to 2^16 at p = 1, 2 and 3, and to
    2^14 at p = 8, lie between 0.32 of the estimate, at n = 2 where the
    12 KB are most of it, and the estimate; from n = 1000 on, above 0.73.
    """
    freqs = m // 2 + 1
    spectrum = freqs * p * p * 8
    pair = 8 * m + 24 * (m // 2 + 2)
    pieces = _eigh_pieces(freqs, p)
    f = -(-freqs // pieces)             # matrices in the largest piece
    piece = f * (32 * p * p + 24 * p + 16)
    pairs = model.pieces(p * (p + 1) // 2, m)
    return (spectrum + max(model.workers(pairs) * pair,
                           model.workers(pieces) * piece) + (12 << 10))


def _first_size(n: int, p: int) -> int:
    """First circulant size, the smallest power of two >= 2 (n - 1).

    An MfbmwaveError if n < 2 or if a build at that size would exceed the
    memory budget (``require_bytes``); the check allocates nothing.
    """
    if n < 2:
        raise MfbmwaveError(f"need at least two grid points, got n = {n}")
    m = 1
    while m < 2 * (n - 1):
        m *= 2
    require_bytes(_build_bytes(m, p), f"the embedding of n = {n}")
    return m


def _circulant_row(params: MfbmParams, j: int, k: int, dt: float,
                   row: np.ndarray) -> None:
    """Circulant row jk of the increment covariance into ``row`` (m floats).

    Entry i is gamma_jk(h) at lag h = i for i <= m/2 and h = i - m above;
    row kj is this row at the negated lags, gamma_kj(h) = gamma_jk(-h).  The
    m/2 lag is its own reflection: it holds
    0.5 (gamma_jk(m/2) + gamma_jk(-m/2)), which keeps the frequency
    matrices Hermitian.  One kernel evaluation on the half grid
    |t| = dt (0 .. m/2 + 1) gives both signs (``kernel_both_signs``), and
    the difference stencil of :func:`increment_cross_covariance` is filled
    into ``row`` in place, with the same floating-point operations.
    """
    m = row.size
    half = m // 2
    t = np.arange(half + 2.0)
    t *= dt
    t[0] = 1.0                  # any magnitude: w(0) = 0 is set below
    pos, neg = model.kernel_both_signs(params, j, k, t)  # w(dt t), w(-dt t)
    pos[0] = neg[0] = 0.0
    # lag h >= 0: w(dt (1 - h)) + w(-dt (1 + h)) - 2 w(-dt h); at h = 0
    # subtracting 2 w(0) = +0.0 leaves every float as it is
    row[0] = pos[1] + neg[1]
    np.add(neg[:half], neg[2:], out=row[1:half + 1])
    # lag -u at i = m - u: w(dt (1 + u)) + w(dt (u - 1)) - 2 w(dt u)
    below = row[:half:-1]
    np.add(pos[2:half + 1], pos[:half - 1], out=below)
    far = pos[half + 1] + pos[half - 1]         # the lag -m/2
    pos *= 2.0
    neg *= 2.0
    row[1:half + 1] -= neg[1:half + 1]
    below -= pos[1:half]
    far -= pos[half]
    c = 0.5 * params.sigma[j] * params.sigma[k]
    row *= c
    near = row[half]
    row[half] = 0.5 * (near + (c * far if k > j else near))


def _pair_spectrum(params: MfbmParams, j: int, k: int, dt: float,
                   diag: np.ndarray, lower: np.ndarray) -> None:
    """Entry kj of the half spectrum into the packed ``diag`` or ``lower``.

    The rfft of circulant row jj, whose real part goes into ``diag[j]``, or,
    for j < k, the average 0.5 (Lambda_kj + conj Lambda_jk) of the rffts of
    rows kj and jk into ``lower[_lower(k, j)]``: ``eigh`` reads the lower
    triangle only, and the real part of its diagonal.  Lambda_jk is made in
    that row and conjugated there; Lambda_kj is a temporary row.
    """
    row = np.empty(2 * (diag.shape[-1] - 1))
    _circulant_row(params, j, k, dt, row)
    if k == j:
        diag[j] = np.fft.rfft(row).real
        return
    low = lower[_lower(k, j)]
    np.fft.rfft(row, out=low)
    np.conjugate(low, out=low)
    row[1:] = row[:0:-1]        # row kj; numpy copies the overlapping source
    kj = np.fft.rfft(row)
    del row                     # before the sum, as _build_bytes counts
    low += kj
    low *= 0.5


# Frequency matrices per piece of the eigendecomposition and square root
# up to p = 32; from p = 33 on, as many entries as 1024 times this, 2^22.
# A half spectrum of fewer than two pieces' worth is one piece, factored
# inline; pieces of a larger one hold between this and twice as many.
_PIECE_MATRICES = 4096


def _eigh_pieces(freqs: int, p: int) -> int:
    """Pieces of ``eigh`` and the root over ``freqs`` p x p frequency
    matrices.  Not ``model.pieces``: a piece's unpacked matrices and
    eigenvector arrays are its own, and the count bounds them per worker
    (``_build_bytes``), also where one piece would hold them all."""
    per_piece = max(1, min(_PIECE_MATRICES, 1024 * _PIECE_MATRICES // (p * p)))
    return max(1, freqs // per_piece)


def _try_embedding(params: MfbmParams, dt: float, m: int):
    """Factor of the half spectrum Lambda(f), f = 0..m/2, and its eigenvalue range.

    Returns (diag, lower, lam_min, lam_max), the packed Hermitian square
    roots of :func:`_square_root` (``_CirculantFactor``).  The circulant
    rows are real, so Lambda(m - f) = conj Lambda(f) and the half spectrum
    has every eigenvalue of the full one.  The spectrum is made one
    component pair j <= k at a time (``_pair_spectrum``) into the packed
    arrays, with no (p, p, m) array of blocks; ``eigh`` and the root then
    run on contiguous pieces of it, each piece unpacked into its own
    (f, p, p) matrices, whose upper triangle is zero and never read, and
    its root packed over its spectrum.  A piece whose packed spectrum is
    not all finite raises the overflow MfbmwaveError before ``eigh``
    (LAPACK may not converge on it), and one with an eigenvalue that is not
    finite before its root; overflow in the kernel is not warned about.
    """
    p = params.p
    freqs = m // 2 + 1
    # one block, the diagonal and then the lower triangle, freed as one
    # mapping: glibc raises its mmap threshold to the size of a freed
    # mapping of up to 32 MB, and a lower triangle of its own (25 MB at
    # p = 3, m = 2^20) would move later path-sized arrays onto the heap,
    # which keeps them (up to 40 MB more peak RSS in a process that builds,
    # drops and rebuilds that factor)
    block = np.empty(p * p * freqs)
    diag = block[:p * freqs].reshape(p, freqs)
    lower = block[p * freqs:].view(complex).reshape(-1, freqs)
    pairs = [(j, k) for j in range(p) for k in range(j, p)]
    comps, (rows, cols) = np.arange(p), np.tril_indices(p, -1)  # _lower

    def pair(lo, hi):
        for j, k in pairs[lo:hi]:
            _pair_spectrum(params, j, k, dt, diag, lower)

    with np.errstate(over="ignore", invalid="ignore"):
        run_pieces(pair, len(pairs), model.pieces(len(pairs), m))

    def piece(lo, hi):
        if (np.isfinite(diag[:, lo:hi]).all()
                and np.isfinite(lower[:, lo:hi]).all()):
            lam = np.zeros((hi - lo, p, p), dtype=complex)
            lam[:, comps, comps] = diag[:, lo:hi].T
            lam[:, rows, cols] = lower[:, lo:hi].T
            evals, evecs = np.linalg.eigh(lam)
            del lam
            low, high = float(evals.min()), float(evals.max())
            if math.isfinite(low) and math.isfinite(high):
                _square_root(evals, evecs, diag[:, lo:hi], lower[:, lo:hi])
                return low, high
        raise MfbmwaveError(f"the increment covariance overflows at "
                            f"dt = {dt}: its spectrum is not finite")

    lows, highs = zip(*run_pieces(piece, freqs, _eigh_pieces(freqs, p)))
    return diag, lower, min(lows), max(highs)


def _square_root(evals: np.ndarray, evecs: np.ndarray, diag: np.ndarray,
                 lower: np.ndarray) -> None:
    """Hermitian square root S(f) = V sqrt(max(D, 0)) V^H, packed.

    Computed as U U^H with U = V max(D, 0)^(1/4), which overwrites
    ``evecs``: the real part of S_ii into ``diag`` (p, f), whose imaginary
    part is zero (each term is x conj x), and S_ik, i > k, into ``lower``
    (p (p - 1) / 2, f).  S(m - f) = conj S(f) is the square root of
    Lambda(m - f).
    """
    np.multiply(evecs, np.sqrt(np.sqrt(np.clip(evals, 0.0, None)))[:, None, :],
                out=evecs)
    for i in range(evecs.shape[1]):
        for k in range(i + 1):
            s = np.einsum("fj,fj->f", evecs[:, i], np.conj(evecs[:, k]))
            if k == i:
                diag[i] = s.real
            else:
                lower[_lower(i, k)] = s


def build_embedding(params: MfbmParams, n: int, dt: float) -> _CirculantFactor:
    """Half-spectrum factor of the block-circulant embedding.

    Doubles the circulant size on failure, up to MAX_DOUBLINGS times, then
    falls back to clipping the offending eigenvalues with a loud report.  A
    doubling is also refused, and the clip taken, when the next size would
    exceed ``model.MEMORY_BUDGET``, the budget of ``require_bytes``.  Without
    it MAX_DOUBLINGS would reach m = 2^27 from n = 2^20, about 7.5 GB at
    p = 3 on one CPU and 10 GB on two (``_build_bytes``).  An MfbmwaveError
    refuses an ``n`` or ``dt`` that fails the rules of ``model``, first; a
    first size beyond the budget (``_first_size``); a spectrum that is not
    finite (a dt at which the kernel overflows), which no doubling mends,
    before ``eigh`` sees it; and a finite spectrum whose eigenvalues are not
    all finite.

    The half spectrum is made one component pair at a time: the kernel on
    half the lags, the two circulant rows and their rfft.  A pair is a task
    of m samples for ``model.pieces``, so from m = 2^18 (n > 2^16 + 1) each
    pair is a piece.  ``eigh`` and the square root run on pieces of about
    4096 frequency matrices, and of about 2^22 entries from p = 33 on
    (``_eigh_pieces``), a count that bounds each worker's unpacked matrices
    and eigenvector arrays.  ``model.run_pieces`` runs both stages on
    the caller and one thread per further CPU.  A pair, and each matrix,
    goes through the same operations wherever it runs, so the factor and
    the report do not depend on the split or the number of threads, bit for
    bit.  The speed-up of the threads has been measured on 2 CPUs only
    (about 1.3 times on ``eigh`` and the root); how the build scales on more
    CPUs, or under a CPU quota below the affinity mask, is not known.
    """
    n, dt = check_integer("n", n), check_step(dt)
    m = _first_size(n, params.p)
    attempts = 0
    while True:
        diag, lower, lam_min, lam_max = _try_embedding(params, dt, m)
        if lam_min >= -EMBED_REL_TOL * lam_max:
            correction = "none"
            break
        if attempts >= MAX_DOUBLINGS:
            reason = f"after {attempts} doublings"
        elif (need := _build_bytes(2 * m, params.p)) > model.MEMORY_BUDGET:
            reason = (f"at size {m}: the next size needs {need} bytes, more "
                      f"than the budget of {model.MEMORY_BUDGET}")
        else:
            del diag, lower
            m *= 2
            attempts += 1
            continue
        correction = "clip"
        warnings.warn(
            f"circulant embedding not nonnegative definite {reason} "
            f"(min eigenvalue {lam_min:.3e}); clipping to zero, simulation "
            f"is approximate", RuntimeWarning)
        break
    report = EmbeddingReport(circulant_size=m, min_eigenvalue=lam_min,
                             correction=correction)
    return _CirculantFactor(diag=diag, lower=lower, report=report)


@functools.lru_cache(maxsize=8)
def _cached_embedding(params: MfbmParams, n: int, dt: float) -> _CirculantFactor:
    """Factor of admissible parameters; the eight most recently used are kept.

    Keyed by value, so equal parameter sets built apart share a factor.
    Admissibility is checked on a miss, before the build: a cached factor
    implies admissible parameters, and a refused set caches nothing.  Two
    threads that miss on one key at once may both build it.
    """
    res = check_existence(params)
    if not res.admissible:
        raise InvalidParamsError(
            "parameters are not admissible: smallest eigenvalue of the "
            f"existence matrix is {res.min_eigenvalue:.6e}")
    return build_embedding(params, n, dt)


def embedding_report(params: MfbmParams, n: int, dt: float) -> EmbeddingReport:
    return _cached_embedding(params, check_integer("n", n),
                             check_step(dt)).report


def derive_seed(seed: int, replicate: int) -> int:
    """Deterministic 64-bit seed for one replicate of an ensemble.

    Public for callers that key their own streams; the ensemble does not use
    it since seed scheme 2.
    """
    ss = np.random.SeedSequence(entropy=[int(seed), int(replicate)])
    return int(ss.generate_state(1, np.uint64)[0])


def iter_ensemble(params: MfbmParams, n: int, dt: float, seed: int,
                  count: int):
    """Paths 0 .. count - 1 of the ensemble keyed by ``seed``, as a generator.

    Noise draw k is ``standard_normal((2, m, p))`` of one Philox stream keyed
    by ``seed``, and w = z[0] + i z[1] is coloured by S(f) for f <= m/2 and
    by conj S(m - f) above; replicates 2k and 2k + 1 are the real and the
    imaginary half of its inverse FFT, and a trailing odd replicate takes
    only the real half.  Draws are taken in chunks of ``model.CHUNK_BYTES``
    (at least one draw), a draw counted as its noise and its coloured
    spectrum, 32 m p bytes.  A chunk's paths, views into one block checked
    once (``SamplePath._of_block``), are yielded once they are made: one
    chunk is held at any count, and checked against the memory budget before
    the first draw.  Arguments are checked at the first next, before any
    factor is built: ``n``, ``count`` (at least 1), ``seed`` and ``dt`` pass
    the rules of ``model``.

    The caller colours a chunk in blocks of CHUNK_BYTES // (32 p)
    frequencies, all m of them when the chunk holds several draws, each
    from a block-sized complex copy of the noise, into a spectrum of its
    own.  A stream of two chunks or more, or of one draw larger than
    CHUNK_BYTES, on more than one CPU (``model.workers``), draws its noise
    on one worker thread ahead of the caller when the budget also holds the
    thread's pool and, for a second chunk, a second noise buffer.  The
    noise then comes in units, each drawn in place into its chunk's noise
    buffer, one of two of 16 m p bytes a draw: a chunk's draws whole, or a
    block of a cut draw's real half and then of its imaginary half, which
    the caller colours once it is in.  A unit is drawn once the caller is
    done with the unit two before it, and so with the buffer's last chunk,
    and every unit in stream order, so each holds the bits of the serial
    draw.  The buffers are held until the stream ends or is closed.
    The thread is joined once the last chunk's units are in, before its
    inverse FFT, so that no idle worker holds a malloc arena beside the
    FFT's threads, and also at close() or an error; an error of a draw is
    raised at the next that wants its chunk.  Otherwise a chunk's draws are
    drawn whole on the caller, and a chunk's noise is freed before its
    first path is yielded.

    The inverse FFT and cumsum run on ``model.run_pieces`` in
    min(p, k m p // ``model.PIECE_SAMPLES``) blocks of component rows for a
    chunk of k draws, so a single path splits from n > 2^16 + 1 at p = 2 or
    3 (not the rule of ``model.pieces``: a block writes into arrays the call
    holds, and may cut below one row's ``PIECE_SAMPLES``).  The cumsum runs
    in the paths' rows, so how the threads meet does not move a chunk's
    peak.  A frequency takes the same operations in any block, a row in any
    transform block, and a draw the same bits on any thread, so the bits do
    not depend on the units or the split.
    """
    n, count = check_integer("n", n), check_integer("count", count, 1)
    seed, dt = check_seed(seed), check_step(dt)
    fac = _cached_embedding(params, n, dt)
    m, p = fac.report.circulant_size, params.p
    diag, lower = fac.diag, fac.lower
    half = m // 2
    scale = math.sqrt(m)
    pairs = (count + 1) // 2
    per_chunk = max(1, model.CHUNK_BYTES // (32 * m * p))
    chunks = -(-pairs // per_chunk)
    freqs = min(m, max(1, model.CHUNK_BYTES // (32 * p)))  # m: no draw is cut

    def shape(first):
        # the draws, paths and transform blocks of the chunk from draw first
        k = min(per_chunk, pairs - first)
        return (k, min(2 * k, count - 2 * first),
                min(p, max(1, k * m * p // model.PIECE_SAMPLES)))

    # the first chunk is the largest: noise, coloured spectrum, a block's
    # copy and product, paths, temporaries
    k, reps, blocks = shape(0)
    need = (8 * p * (4 * k * m + 2 * k * freqs + reps * n + k * n - k)
            + (16 * k * min(freqs, half + 1) if p > 1 else 0)
            + model.workers(blocks) * 32 * min(k * p * m // 2, np.getbufsize())
            + (12 << 10))
    require_bytes(need, f"a chunk of {reps} paths of {n} points")
    # the draw-ahead adds the other noise buffer and the pool's objects
    ahead = ((chunks > 1 or freqs < m) and model.workers(2) > 1
             and need + (chunks > 1) * 16 * k * m * p + (12 << 10)
             <= model.MEMORY_BUDGET)
    # a cut draw is coloured in rows of the one draw: numpy takes another
    # loop, with other bits, for a (1, 1) operand of a one-frequency block
    at = 0 if freqs < m else slice(None)
    rng = np.random.Generator(np.random.Philox(key=seed))
    firsts = range(0, pairs, per_chunk)

    def units():
        # a chunk's units in stream order, (side, lo, hi): side None for the
        # chunk's draws whole, 0 and 1 for a block of a cut draw's real and
        # imaginary half drawn ahead, of frequencies lo .. hi - 1
        if not ahead or freqs == m:
            yield None, 0, m
            return
        for side in (0, 1):
            for lo in range(0, m, freqs):
                yield side, lo, min(lo + freqs, m)

    def draw(z, side, lo, hi):
        # a unit in place in its chunk's noise z, (k, 2, m, p)
        out = z if side is None else z[:, side, lo:hi]
        rng.standard_normal(out.shape, out=out)

    taken = 0           # units the caller is done with
    drawn = deque()     # the units drawn ahead, in stream order

    def feed():
        # submit each unit once the caller is done with the unit two before
        # it, and so with the chunk two before, the last in the unit's buffer
        u = 0
        for chunk, first in enumerate(firsts):
            z = noise[chunk % 2, :shape(first)[0]]
            for unit in units():
                while u >= taken + 2:
                    yield
                drawn.append(pool.submit(draw, z, *unit))
                u += 1

    def colour(z, w, v, product, lo, hi):
        # v = S w at frequencies lo .. hi - 1, w the block's complex copy of
        # the noise z: S(f) up to m/2, and above it conj S(m - f) w =
        # conj(S(m - f) conj(w)), so both halves take plain products of S;
        # S_ij is the real diagonal for j = i and conj S_ji above it
        w = w[:, :, :hi - lo]
        w.real = z[:, 0, lo:hi].transpose(0, 2, 1)
        w.imag = z[:, 1, lo:hi].transpose(0, 2, 1)
        for a, b in ((lo, min(hi, half + 1)), (max(lo, half + 1), hi)):
            if a >= b:
                continue
            wa, va = w[at, :, a - lo:b - lo], v[at, :, a:b]
            if a <= half:
                d, low = diag[:, a:b], lower[:, a:b]
            else:
                d, low = diag[:, m - a:m - b:-1], lower[:, m - a:m - b:-1]
                np.negative(wa.imag, out=wa.imag)
            for i in range(p):
                for j in range(p):
                    s = (d[i] if j == i else low[_lower(i, j)] if j < i
                         else np.conj(low[_lower(j, i)]))
                    if j == 0:
                        row = np.multiply(s, wa[..., 0, :], out=va[..., i, :])
                    else:
                        row += np.multiply(s, wa[..., j, :],
                                           out=product[at, :b - a])
            if a > half:
                np.conjugate(va, out=va)

    if ahead:
        from concurrent.futures import ThreadPoolExecutor
        noise = np.empty((min(2, chunks), per_chunk, 2, m, p))
        pool = ThreadPoolExecutor(1)
    feeder = feed() if ahead else iter(())
    try:
        next(feeder, None)
        for chunk, first in enumerate(firsts):
            k, reps, blocks = shape(first)
            z = noise[chunk % 2, :k] if ahead else np.empty((k, 2, m, p))
            v = np.empty((k, p, m), dtype=complex)
            w = np.empty((k, p, freqs), dtype=complex)
            product = np.empty((k, min(freqs, half + 1) if p > 1 else 0),
                               dtype=complex)
            for side, lo, hi in units():
                if ahead:
                    drawn.popleft().result()
                else:
                    draw(z, side, lo, hi)
                if side == 0:
                    # nothing to colour until the imaginary half is in: the
                    # block's spectrum pages are faulted in now, while the
                    # worker draws, not while the caller colours
                    v[..., lo:hi] = 0.0
                else:
                    for a in range(lo, hi, freqs):
                        colour(z, w, v, product, a, min(a + freqs, hi))
                taken += 1
                next(feeder, None)
            if ahead and chunk == chunks - 1:
                pool.shutdown()     # all drawn: no worker beside the split
            del z, w, product   # the noise, on the caller, before the paths
            out = np.empty((reps, p, n))
            out[:, :, 0] = 0.0

            def transform(*bounds):
                # a block of component rows: inverse FFT, cumsum
                rows = slice(*bounds)
                vb = v[:, rows]
                y = np.fft.ifft(vb, axis=-1, out=vb)
                for imag, part in enumerate((y.real, y.imag)):
                    paths = out[imag::2, rows, 1:]
                    np.multiply(part[:len(paths), :, :n - 1], scale, out=paths)
                    np.add.accumulate(paths, axis=-1, out=paths)

            run_pieces(transform, p, blocks)
            del v               # not held while the caller works on paths
            yield from SamplePath._of_block(params, n, dt, out, seed)
            del out             # nor the paths, once the caller drops them
    finally:
        if ahead:               # joins the worker, also at close() or an error
            pool.shutdown(cancel_futures=True)


def simulate(params: MfbmParams, n: int, dt: float, seed: int):
    """Simulate one path; deterministic in ``seed``.

    Returns (SamplePath, EmbeddingReport).  The path is replicate 0 of
    ``iter_ensemble`` with the same seed (seed scheme 3): the real half of
    the first noise draw of the Philox stream keyed by the seed, so results
    do not depend on scheduling.  A draw of more than ``model.CHUNK_BYTES``
    (32 m p bytes: n > 2^14 + 1, 2^13 + 1 and 2^12 + 1 at p = 1, 2 and 3)
    is coloured in blocks of frequencies; on more than one CPU a worker
    thread draws those blocks in place into the draw's noise, ahead of the
    colouring, and the inverse FFT is split by component rows from
    n > 2^16 + 1 at p = 2 or 3, with the bits of the serial path; the
    speed-up has been measured on 2 CPUs only.
    """
    return (next(iter_ensemble(params, n, dt, seed, 1)),
            embedding_report(params, n, dt))


def replicate_ensemble(params: MfbmParams, n: int, dt: float, seed: int,
                       count: int):
    """The ``count`` paths of ``iter_ensemble``, as a list: replicate 0 is
    ``simulate(seed)``, a smaller count gives a prefix of a larger one, and
    every path carries the ensemble seed.  The list holds all count x p x n
    values; its sizes and then the memory budget are checked before the
    first draw."""
    n, count = check_integer("n", n), check_integer("count", count, 1)
    require_bytes(count * params.p * n * 8, f"{count} paths of {n} points")
    return list(iter_ensemble(params, n, dt, seed, count))
