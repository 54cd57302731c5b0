"""Analyzing wavelets and the continuous wavelet transform of sampled paths.

The default family is built from Gaussian-derivative atoms
psi_m(t) = He_m(t) exp(-t^2 / 2) (probabilists' Hermite polynomial times a
Gaussian).  Atoms of order m have exactly m vanishing moments, rapid decay
(all polynomial moments integrable), and closed-form Fourier transforms and
pair correlations, which makes exact reference values available for every
derived quantity.  Complex linear combinations of atoms are supported so the
machinery stays valid for complex analyzing wavelets.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import model
from .model import (MfbmwaveError, check_integer, check_seed, check_step,
                    require_bytes)

# Standardized truncation radius: wavelet support is treated as |t| <= 10,
# where the Gaussian-derivative mass is < 1e-20.
TRUNCATION_RADIUS = 10.0

# Smallest resolvable scale, in units of the sampling step.
MIN_SCALE_FACTOR = 4.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _hermite_unit(K: int, x):
    """He_K(x) for K >= 1, in the operations of ``hermeval(x, e_K)``.

    Clenshaw's recurrence b_n = c_n + x b_(n+1) - (n + 1) b_(n+2) with a
    single unit coefficient, in numpy's order, so the values keep the bits
    of ``numpy.polynomial.hermite_e.hermeval``.  A float x gives a float, an
    array x an array.
    """
    c0, c1 = 0.0, 1.0
    for n in range(K - 1, 0, -1):
        c0, c1 = 0.0 - c1 * n, c0 + c1 * x
    return c0 + c1 * x


class HermiteWavelet:
    """Linear combination of Gaussian-derivative atoms, the one analyzing wavelet.

    ``terms`` is a sequence of (coefficient, order) pairs with distinct
    orders; the vanishing-moment order of the combination is the smallest
    atom order present.  ``eval`` is the time domain, ``eval_ft`` the
    frequency domain with psi_hat(w) = int psi(t) exp(-i w t) dt.
    """

    def __init__(self, terms):
        terms = [(complex(c), int(m)) for c, m in terms]
        if not terms:
            raise MfbmwaveError("at least one atom required")
        orders = [m for _, m in terms]
        if len(set(orders)) != len(orders):
            raise MfbmwaveError("atom orders must be distinct")
        if min(orders) < 1:
            raise MfbmwaveError("atom orders must be >= 1 (zero-mean requirement)")
        if max(orders) > 12:
            raise MfbmwaveError("atom orders above 12 are rejected "
                                "(Hermite recurrence conditioning)")
        if any(c == 0 for c, _ in terms):
            raise MfbmwaveError("zero coefficients are not allowed")
        self.terms = sorted(terms, key=lambda cm: cm[1])
        self.vanishing_moments = self.terms[0][1]
        self.is_real = all(c.imag == 0.0 for c, _ in self.terms)
        # psi_hat(w) = sqrt(2 pi) exp(-w^2/2) sum_m c_m (-i)^m w^m
        self._ft_terms = [(c * (-1j) ** m, m) for c, m in self.terms]

    def __repr__(self):
        body = " + ".join(f"({c:g})*psi_{m}" for c, m in self.terms)
        return f"HermiteWavelet({body})"

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        g = np.exp(-0.5 * t * t)
        out = sum(c * _hermite_unit(m, t) for c, m in self.terms) * g
        return out if not self.is_real else np.real(out)

    def eval_ft(self, omega):
        """psi_hat(omega), from the coefficients c_m (-i)^m made at construction.

        A Python float (or int) gives a complex with no array made, which is
        what a QUADPACK integrand calls; anything else is taken as an array.
        """
        if isinstance(omega, (int, float)):
            w, exp = omega, math.exp
        else:
            w, exp = np.asarray(omega, dtype=float), np.exp
        return (sum(d * w ** m for d, m in self._ft_terms)
                * (_SQRT_2PI * exp(-0.5 * w * w)))

    @property
    def moment(self) -> complex:
        # atoms of higher order are orthogonal to t^M, so only the lowest
        # order contributes: int t^M He_M(t) exp(-t^2/2) dt = M! sqrt(2 pi)
        c0, M = self.terms[0]
        value = c0 * math.factorial(M) * _SQRT_2PI
        return value.real if self.is_real else value

    @property
    def ft_leading_coeff(self) -> complex:
        """Leading Taylor coefficient of psi_hat at 0: psi_hat^(M)(0) / M!,
        which is sqrt(2 pi) c_M (-i)^M."""
        return self._ft_terms[0][0] * _SQRT_2PI

    def pair_correlation(self, a1: float, a2: float):
        """Return D(tau) = int conj(psi(t/a1)) psi((t+tau)/a2) dt as a callable.

        Each atom pair (m1, m2) contributes C He_K(tau/s) exp(-tau^2 / 2s^2)
        with K = m1 + m2 and s = hypot(a1, a2) (``_atom_pair_prefactor``).
        The pairs are merged by K into coefficients b_K (``_merged_pairs``);
        D sums b_K He_K(tau/s), each He_K by its three-term recurrence
        (``_hermite_unit``), and multiplies by one exponential.  A Python
        float tau gives a float (a complex for a complex wavelet) with no
        array made, which is what a QUADPACK integrand calls; an array tau
        gives an array.
        """
        s = math.hypot(a1, a2)
        coeffs = self._merged_pairs(a1, a2)

        def D(tau):
            if isinstance(tau, (int, float)):
                x, exp = tau / s, math.exp
            else:
                x, exp = np.asarray(tau, dtype=float) / s, np.exp
            acc = 0.0
            for K, b in coeffs:
                acc = acc + b * _hermite_unit(K, x)
            return acc * exp(-0.5 * x * x)

        return D

    def _merged_pairs(self, a1: float, a2: float) -> list:
        """(K, b_K) by ascending K = m1 + m2, b_K the sum over its atom pairs
        of conj(c1) c2 ``_atom_pair_prefactor``; real for a real wavelet."""
        merged = {}
        for c1, m1 in self.terms:
            for c2, m2 in self.terms:
                K = m1 + m2
                merged[K] = (merged.get(K, 0j) + c1.conjugate() * c2
                             * _atom_pair_prefactor(m1, a1, m2, a2))
        return sorted((K, b.real if self.is_real else b) for K, b in merged.items())


def _atom_pair_prefactor(m1: int, a1: float, m2: int, a2: float) -> float:
    """Constant C of the atom pair correlation C He_K(tau/s) exp(-tau^2 / 2s^2).

    The closed form of int psi_m1(t/a1) psi_m2((t+tau)/a2) dt, obtained in
    the frequency domain: the product of atom transforms is a polynomial
    times a Gaussian of variance s^2 = a1^2 + a2^2, whose inverse transform
    is a Hermite function of tau/s.
    """
    K = m1 + m2
    s = math.hypot(a1, a2)
    try:
        return ((-1.0) ** m1 * _SQRT_2PI * a1 ** (m1 + 1) * a2 ** (m2 + 1)
                * s ** (-1 - K))
    except OverflowError:
        raise MfbmwaveError(f"scales {a1} and {a2} overflow the closed form "
                            f"of order {K}") from None


def gaussian_derivative(M: int) -> HermiteWavelet:
    """M-th Gaussian-derivative wavelet psi_M(t) = He_M(t) exp(-t^2/2).

    Has exactly M vanishing moments with int t^M psi_M dt = M! sqrt(2 pi),
    and psi_hat(w) = (-i)^M sqrt(2 pi) w^M exp(-w^2/2).
    """
    return HermiteWavelet([(1.0, M)])


@dataclass(frozen=True, eq=False)
class WaveletField:
    """Wavelet coefficients d[j, scale, shift] of a sampled multivariate path.

    Fields compare and hash by identity: their coefficients are an array.
    """

    coeffs: np.ndarray          # shape (p, n_scales, n_shifts); float64 from a
                                # real wavelet, complex128 from a complex one
    scales: np.ndarray          # finite, strictly positive, ascending
    shifts: np.ndarray          # shift times b on the sampling grid; cwt
                                # takes any, empirical_wavelet_cov needs
                                # them uniform and ascending
    dt: float                   # sampling step of the source path
    n: int                      # source path length, at least 1
    seed: int | None = None     # source path seed, if any

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs)
        coeffs = coeffs.astype(complex if np.iscomplexobj(coeffs) else float,
                               copy=False)
        scales = np.asarray(self.scales, dtype=float)
        shifts = np.asarray(self.shifts, dtype=float)
        if coeffs.ndim != 3 or scales.ndim != 1 or coeffs.shape[1] != scales.size \
                or coeffs.shape[2] != shifts.size:
            raise MfbmwaveError("coefficient array inconsistent with scale/shift grids")
        # plain floats; NaN fails both comparisons
        s = scales.tolist()
        if not (all(0.0 < a < math.inf for a in s)
                and all(a < b for a, b in zip(s, s[1:]))):
            raise MfbmwaveError("scales must be finite, strictly positive and sorted")
        seed = None if self.seed is None else check_seed(self.seed)
        vars(self).update(coeffs=coeffs, scales=scales, shifts=shifts,
                          dt=check_step(self.dt),
                          n=check_integer("n", self.n, 1), seed=seed)

    @property
    def p(self) -> int:
        return self.coeffs.shape[0]

    def scale_index(self, a: float) -> int:
        """Index of scale ``a``, to 1e-9 relative; else a MissingScaleError."""
        idx = int(np.argmin(np.abs(self.scales - a)))
        if not math.isclose(self.scales[idx], a, rel_tol=1e-9, abs_tol=1e-12):
            raise MissingScaleError(f"scale {a} not present in field")
        return idx


class GridError(MfbmwaveError):
    """A scale or shift grid that the sampled path cannot resolve."""


class MissingScaleError(GridError, KeyError):
    """A scale that a wavelet field does not hold."""

    __str__ = GridError.__str__     # KeyError's would quote the message


def shift_margin(scale: float, dt: float) -> int:
    """Number of grid points the wavelet support extends past a shift."""
    return int(math.ceil(TRUNCATION_RADIUS * scale / dt))


def valid_shift_range(n: int, dt: float, scale: float) -> tuple[int, int]:
    """Inclusive index range [lo, hi] of admissible shifts for one scale."""
    L = shift_margin(scale, dt)
    lo, hi = L, n - 1 - L
    if lo > hi:
        raise GridError(f"path too short for scale {scale}: no admissible shifts")
    return lo, hi


def _grid(n: int, dt: float, scales, shifts):
    """Sorted scales and shift indices of a transform, checked against the path."""
    dt = check_step(dt)
    scales = np.sort(np.atleast_1d(np.asarray(scales, dtype=float)))
    if scales.size == 0 or not np.all(np.isfinite(scales)):
        raise GridError(f"scales must be a non-empty list of finite values, "
                        f"got {scales.tolist()}")
    if np.any(np.diff(scales) == 0.0):
        raise GridError(f"scales must be distinct, got {scales.tolist()}")
    for a in scales:
        if a < MIN_SCALE_FACTOR * dt:
            raise GridError(f"scale {a} below resolution threshold "
                            f"{MIN_SCALE_FACTOR} * dt = {MIN_SCALE_FACTOR * dt}")
    lo, hi = valid_shift_range(n, dt, scales[-1])
    if shifts is None:
        return scales, np.arange(lo, hi + 1)
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    if shifts.size == 0:
        raise GridError("shifts must be a non-empty list")
    shift_idx = np.rint(shifts / dt).astype(int)
    if not np.allclose(shift_idx * dt, shifts, rtol=0.0, atol=1e-9 * dt):
        raise GridError("shifts must lie on the sampling grid")
    if shift_idx.min() < lo or shift_idx.max() > hi:
        raise GridError(
            f"shift too close to path boundary for scale {scales[-1]}: "
            f"admissible index range is [{lo}, {hi}]")
    return scales, shift_idx


def _fast_len(n: int) -> int:
    """Least 5-smooth integer 2^a 3^b 5^c >= n, the N of ``_transform``.

    Every 3^b 5^c below the next power of two is raised to the least power
    of two times it that reaches n; the smallest of those is the answer, the
    value of scipy.fft.next_fast_len(n, real=True).
    """
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _transform_bytes(count: int, p: int, n: int, dt: float, real: bool,
                     scales: np.ndarray, n_shifts: int) -> int:
    """Bytes ``_transform`` holds at once for ``count`` paths, an upper bound.

    Per (path, component) row: its stacked values, its spectrum and its
    coefficients.  Per worker (``model.workers`` of the call's pieces): a
    product and a length-N correlation row and gathered shifts per row,
    two placed kernels (one is replaced while the other is alive), a kernel
    spectrum, its conjugate and an FFT row buffer, and the kernel taps at
    the largest scale.  Once per call: the shift indices and times.
    """
    rows = count * p
    N = _fast_len(n)
    spec = 16 * (N // 2 + 1)
    item = 8 if real else 16
    taps = 2 * shift_margin(scales[-1], dt) + 1
    workers = model.workers(model.pieces(scales.size * (1 if real else 2),
                                         rows * N))
    per_worker = (rows * (spec + 8 * N + 8 * n_shifts) + 16 * N + 3 * spec
                  + 48 * taps)
    return (rows * (8 * n + spec + item * scales.size * n_shifts)
            + workers * per_worker + 16 * n_shifts)


def _kept(scratch, key: str, shape: tuple, dtype=float) -> np.ndarray:
    """This thread's array under ``key`` in ``scratch``, made at its first
    call, cut to ``shape[0]`` rows: the chunks of a stream never grow."""
    if not hasattr(scratch, key):
        setattr(scratch, key, np.empty(shape, dtype))
    return getattr(scratch, key)[:shape[0]]


def _transform(values: np.ndarray, dt: float, wavelet: HermiteWavelet,
               scales: np.ndarray, shift_idx: np.ndarray,
               scratch: threading.local) -> np.ndarray:
    """Coefficients of a (count, p, n) value array, shape (count, p, S, n_shifts).

    One real FFT of each (replicate, component) row, zero-filled to the
    5-smooth length N = ``_fast_len(n)`` >= n, serves every scale.  Per
    scale the kernel g(m) = conj(psi(m dt / a)) dt / sqrt(a), |m| <= L, is
    placed circularly at index m mod N, and the coefficient at shift b is
    the circular correlation sum_m x(b + m) g(m) =
    irfft(rfft(x) conj(rfft(g)))(b); a complex kernel is correlated as its
    real and imaginary parts.  Every admissible shift keeps b + m inside
    [0, n) (``valid_shift_range``), so the circular sum is the defining one.
    N is scipy's real fast length, computed here so that the transform
    never imports scipy.

    The coefficients are float64 for a real wavelet and complex128 for a
    complex one.  Consecutive shift indices (the default grid) are read from
    the correlation as one slice.  The rows' FFT is made on the caller.  Each
    scale, and each part of a complex kernel, is a task of rows N samples,
    a correlation of every row, which ``model.pieces`` splits (one path of
    p components once p N >= 2^18) and ``model.run_pieces`` runs on the
    caller and one thread per further CPU; below, one piece runs every
    scale on the caller.  Each thread keeps its product and correlation
    rows, and the caller its spectra, in the stream's ``scratch``
    (``_kept``): the caller's serve every chunk, a worker's end with its
    thread.  A piece takes the same operations on any thread, so the bits
    do not depend on the split.
    """
    count, p, n = values.shape
    rows = count * p
    N = _fast_len(n)
    tasks = scales.size * (1 if wavelet.is_real else 2)   # (scale, part) pairs
    spectra = np.fft.rfft(values.reshape(rows, n), N, axis=-1,
                          out=_kept(scratch, "spectra", (rows, N // 2 + 1),
                                    complex))
    first = shift_idx[0]
    if np.array_equal(shift_idx, np.arange(first, first + shift_idx.size)):
        taken = slice(first, first + shift_idx.size)
    else:
        taken = shift_idx
    out = np.empty((rows, scales.size, shift_idx.size),
                   dtype=float if wavelet.is_real else complex)
    targets = (out,) if wavelet.is_real else (out.real, out.imag)

    def piece(lo, hi):
        product = _kept(scratch, "product", spectra.shape, complex)
        corr = _kept(scratch, "corr", (rows, N))
        last = None
        for t in range(lo, hi):
            ia, j = divmod(t, len(targets))
            if ia != last:
                last, a = ia, scales[ia]
                L = shift_margin(a, dt)
                m = np.arange(-L, L + 1)
                kernel = np.conj(wavelet.eval(m * dt / a)) * (dt / math.sqrt(a))
                parts = [kernel] if wavelet.is_real else [kernel.real, kernel.imag]
            g = np.zeros(N)
            g[m % N] = parts[j]
            np.multiply(spectra, np.conj(np.fft.rfft(g)), out=product)
            np.fft.irfft(product, N, axis=-1, out=corr)
            targets[j][:, ia] = corr[:, taken]

    model.run_pieces(piece, tasks, model.pieces(tasks, rows * N))
    return out.reshape(count, p, scales.size, shift_idx.size)


def cwt(path, wavelet: HermiteWavelet, scales, shifts=None) -> WaveletField:
    """Continuous wavelet transform of a sampled path, an ensemble of one.

    d[j, a, b] = a^(-1/2) sum_i x_j(t_i) conj(psi((t_i - b) / a)) dt, made
    by ``cwt_ensemble``.  Scales below MIN_SCALE_FACTOR * dt are refused;
    so are shifts b whose support |t - b| <= TRUNCATION_RADIUS * a at the
    largest scale, ``shift_margin`` grid points each side, sticks out of
    the sampled window.  Both raise ``GridError``.

    ``shifts`` defaults to every grid time admissible at the largest scale.

    For a long path (p N >= 2^18) the scales are correlated on threads
    (``_transform``); the coefficients are the same bit for bit.  The
    speed-up has been measured on 2 CPUs only.
    """
    return next(cwt_ensemble([path], wavelet, scales, shifts))


def cwt_ensemble(paths, wavelet: HermiteWavelet, scales, shifts=None):
    """Wavelet fields of paths that share one grid, made chunk by chunk.

    A generator: field r is ``cwt(paths[r], ...)``, bit for bit, but the
    paths are transformed in chunks of ``model.CHUNK_BYTES`` (at least one
    path), a path counted as the larger of its values and its field, so an
    ensemble streams into ``empirical_wavelet_cov`` in bounded memory.  The
    first chunk, the largest, is refused before it is transformed if the
    transform's working set (``_transform_bytes``) is over the memory budget
    (``require_bytes``).  Every path must have the first path's sampling
    step, component count and length.  The stream's scratch is one
    ``threading.local``: each chunk stacks its values into the first
    chunk's array and reuses the caller's spectra, product and correlation
    rows (``_transform``) until the stream ends.  The coefficients are
    float64 for a real wavelet and complex128 for a complex one.
    """
    pending = iter(paths)
    first = next(pending, None)
    if first is None:
        return
    p, n = np.shape(first.values)
    scales, shift_idx = _grid(n, first.dt, scales, shifts)
    dt = float(first.dt)
    shift_times = shift_idx * dt
    nbytes = (8 if wavelet.is_real else 16) * p * scales.size * shift_idx.size
    per_chunk = max(1, model.CHUNK_BYTES // max(8 * p * n, nbytes))
    chunk = [first, *itertools.islice(pending, per_chunk - 1)]
    require_bytes(_transform_bytes(len(chunk), p, n, dt, wavelet.is_real, scales,
                                   shift_idx.size),
                  f"the wavelet transform of {len(chunk)} path(s) of {p} "
                  f"components at {scales.size} scale(s) and {shift_idx.size} "
                  f"shifts")
    scratch = threading.local()
    while chunk:
        for path in chunk:
            if float(path.dt) != dt:
                raise MfbmwaveError("paths of an ensemble must share one "
                                    "sampling step")
            if np.shape(path.values) != (p, n):
                raise MfbmwaveError(f"paths of an ensemble must share one "
                                    f"shape, got {np.shape(path.values)} "
                                    f"after {(p, n)}")
        values = np.stack([np.asarray(path.values, dtype=float)
                           for path in chunk],
                          out=_kept(scratch, "values", (len(chunk), p, n)))
        coeffs = _transform(values, dt, wavelet, scales, shift_idx, scratch)
        for path, c in zip(chunk, coeffs):
            yield WaveletField(coeffs=c, scales=scales, shifts=shift_times,
                               dt=dt, n=n, seed=getattr(path, "seed", None))
        chunk = list(itertools.islice(pending, per_chunk))
