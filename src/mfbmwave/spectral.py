"""Cross-spectral density of the wavelet field and its consistency checks.

The covariance of the wavelet coefficients at scales a1, a2 admits the
spectral representation cov(h) = (1/2 pi) int S(w) exp(i w h) dw with

    S(w) = sqrt(a1 a2) sigma_j sigma_k Gamma(a+1) zeta_jk(w)
           * conj(psi_hat(a1 w)) psi_hat(a2 w) / |w|^(a+1),      a = H_j + H_k,

where the complex weight zeta_jk (``model.zeta``) combines the symmetric
(rho) and antisymmetric (eta) parameters and psi_hat is
``HermiteWavelet.eval_ft``.  S is written once: a float w gives a complex
with no numpy call, an array of w an array.  The module also evaluates the
trigonometric integral representations of |v|^a, sign(v)|v|^a, v_+^a, v_-^a
and of the v log|v| limit that underlie the spectral formula, each by direct
numerical quadrature so the closed forms can be confronted with an
independent route.  Those integrals are even or odd in v, so a batch asks
for each at |v| and applies the sign of v afterwards, and a memo made per
call runs each distinct quadrature once.  Their integrands are closures over
plain floats, with math.cos/math.sin and the exponent -alpha - 1 hoisted, so
a QUADPACK point costs no numpy call.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import MfbmParams, MfbmwaveError, require_bytes, zeta
from .quadrature import quad_checked, quad_complex
from .wavelets import HermiteWavelet
from .wavstats import WaveletCovQuery, theoretical_wavelet_cov

# The v log|v| representation exists only as a limit from below; it is
# realized at alpha = 1 - eps for these eps and Richardson-extrapolated.
LIMIT_EPS = (1e-4, 1e-5, 1e-6)

_VARIANTS = ("abs", "sign_abs", "plus", "minus", "hlog")

# Bytes per frequency that a grid and ``cross_spectral_density`` on it hold
# at once, an upper bound: at the peak of S (``_spectral_density``) the grid
# (8), the weights zeta (16), conj psi_hat(a1 w) (16), a2 w (8), and in
# psi_hat(a2 w) a partial sum, the next term and their sum (3 x 16).  Numpy's
# reuse of temporaries only lowers it.
_DENSITY_BYTES = 8 + 16 + 16 + 8 + 3 * 16


def make_log_omega_grid(w_min: float = 1e-4, w_max: float = 1e3,
                        points_per_decade: int = 64) -> np.ndarray:
    """Symmetric log-spaced frequency grid excluding zero."""
    if not (0.0 < w_min < w_max and w_max / w_min < math.inf):
        raise MfbmwaveError(f"need 0 < w_min < w_max with a finite ratio, got "
                            f"w_min = {w_min}, w_max = {w_max}")
    if not (points_per_decade > 0 and 10.0 ** (1 / points_per_decade) > 1.0):
        raise MfbmwaveError(f"points_per_decade must be positive and give "
                            f"distinct grid points, got {points_per_decade}")
    n = max(2, int(math.ceil(math.log10(w_max / w_min) * points_per_decade)))
    require_bytes(2 * n * _DENSITY_BYTES, f"a grid of {2 * n} frequencies and "
                  f"the working set of their spectral density")
    pos = np.logspace(math.log10(w_min), math.log10(w_max), n)
    return np.concatenate([-pos[::-1], pos])


def _zero_free(omegas) -> np.ndarray:
    """``omegas`` as a float array; an MfbmwaveError if it holds w = 0."""
    omegas = np.asarray(omegas, dtype=float)
    if np.any(omegas == 0.0):
        raise MfbmwaveError("zero frequency is excluded; its limit is "
                            "described by zero_frequency_behavior")
    return omegas


@dataclass(frozen=True)
class SpectrumGrid:
    """Cross-spectral density samples on a zero-free frequency grid."""

    query: WaveletCovQuery
    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omegas = _zero_free(self.omegas)
        values = np.asarray(self.values, dtype=complex)
        if omegas.shape != values.shape:
            raise MfbmwaveError("frequency grid and values must align")
        if not np.all(np.isfinite(values.view(float))):
            raise MfbmwaveError("spectral values must be finite")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)


def _spectral_density(query: WaveletCovQuery, params: MfbmParams,
                      wavelet: HermiteWavelet):
    """S(w) of the query as a callable, for w != 0.

    The prefactor times zeta on each side of w = 0 is hoisted out.  A Python
    float w gives a complex with no numpy call, one polynomial and one
    exponential per scale; an array gives an array.  ``S(w, f1, f2)`` takes
    psi_hat(a1 w) and psi_hat(a2 w) as given, for a caller that has them.
    """
    j, k, a1, a2 = query.j, query.k, query.a1, query.a2
    alpha = params.alpha(j, k)
    pref = float(math.sqrt(a1 * a2) * params.sigma[j] * params.sigma[k]
                 * math.gamma(alpha + 1.0))
    z_pos = pref * zeta(params, j, k, 1.0)
    z_neg = pref * zeta(params, j, k, -1.0)
    expo = alpha + 1.0
    psi_hat = wavelet.eval_ft

    def S(w, f1=None, f2=None):
        if isinstance(w, np.ndarray):
            z = np.where(w > 0.0, z_pos, z_neg)
        else:
            z = z_pos if w > 0.0 else z_neg
        # psi_hat(a1 w) is freed once conjugated, before psi_hat(a2 w)
        q = ((psi_hat(a1 * w) if f1 is None else f1).conjugate()
             * (psi_hat(a2 * w) if f2 is None else f2))
        return z * q / abs(w) ** expo

    return S


def cross_spectral_density(query: WaveletCovQuery, params: MfbmParams,
                           wavelet: HermiteWavelet, omegas) -> SpectrumGrid:
    """Pointwise cross-spectral density of the wavelet field on a grid."""
    omegas = _zero_free(omegas)
    return SpectrumGrid(query=query, omegas=omegas,
                        values=_spectral_density(query, params, wavelet)(omegas))


@dataclass(frozen=True)
class ZeroFrequencyLaw:
    """|S(w)| ~ prefactor * |w|^exponent as w -> 0."""

    exponent: float
    prefactor: float


def zero_frequency_behavior(query: WaveletCovQuery, params: MfbmParams,
                            wavelet: HermiteWavelet) -> ZeroFrequencyLaw:
    """Low-frequency power law of the cross-spectral density modulus.

    The exponent is 2M - 1 - (H_j + H_k): positive once the vanishing-moment
    order M exceeds (H_j + H_k + 1) / 2, in which case the wavelet field has
    no spectral divergence at zero frequency.  The prefactor uses the leading
    Taylor coefficient psi_hat^(M)(0) / M! of the transform at zero.
    """
    j, k, a1, a2 = query.j, query.k, query.a1, query.a2
    alpha = params.alpha(j, k)
    M = wavelet.vanishing_moments
    lead = abs(wavelet.ft_leading_coeff) ** 2
    pref = ((a1 * a2) ** (M + 0.5) * params.sigma[j] * params.sigma[k]
            * math.gamma(alpha + 1.0) * lead * abs(zeta(params, j, k, 1.0)))
    return ZeroFrequencyLaw(exponent=2.0 * M - 1.0 - alpha, prefactor=float(pref))


def fit_zero_frequency_slope(query: WaveletCovQuery, params: MfbmParams,
                             wavelet: HermiteWavelet):
    """Log-log fit of |S| at 48 points on [1e-4, 1e-2]; validates the
    zero-frequency law."""
    from .estimate import fit_power_law

    omegas = np.logspace(-4.0, -2.0, 48)
    grid = cross_spectral_density(query, params, wavelet, omegas)
    return fit_power_law(omegas, np.abs(grid.values))


@dataclass(frozen=True)
class CoherenceResult:
    """Closed-form versus definition-based coherence on a frequency grid.

    ``closed_form`` evaluates the literal expression
    |zeta_jk|^2 Gamma(a+1)^2 / (Gamma(2H_j+1) Gamma(2H_k+1)) times the
    transform phase ratio; ``definition`` evaluates |S_jk|^2 / (S_jj S_kk)
    from the spectral densities themselves.  The two differ by the diagonal
    weights sin(pi H_j) sin(pi H_k); the ratio is reported, not asserted.
    """

    query: WaveletCovQuery
    omegas: np.ndarray
    closed_form: np.ndarray
    definition: np.ndarray
    discrepancy: np.ndarray


def coherence(query: WaveletCovQuery, params: MfbmParams, wavelet: HermiteWavelet,
              omegas) -> CoherenceResult:
    """Both coherences of the query on ``omegas``, a grid without w = 0."""
    j, k, a1, a2 = query.j, query.k, query.a1, query.a2
    omegas = _zero_free(omegas)
    alpha = params.alpha(j, k)
    z = zeta(params, j, k, omegas)
    g_ratio = (math.gamma(alpha + 1.0) ** 2
               / (math.gamma(2.0 * params.H[j] + 1.0)
                  * math.gamma(2.0 * params.H[k] + 1.0)))
    f1 = wavelet.eval_ft(a1 * omegas)
    f2 = wavelet.eval_ft(a2 * omegas)
    phase = (f1 * np.conj(f2)) / (np.conj(f1) * f2)
    closed = np.abs(z) ** 2 * g_ratio * phase

    s12 = _spectral_density(query, params, wavelet)(omegas, f1, f2)
    s11 = _spectral_density(WaveletCovQuery(j, j, a1, a1), params,
                            wavelet)(omegas, f1, f1)
    s22 = _spectral_density(WaveletCovQuery(k, k, a2, a2), params,
                            wavelet)(omegas, f2, f2)
    definition = np.abs(s12) ** 2 / (s11.real * s22.real)

    with np.errstate(invalid="ignore", divide="ignore"):
        disc = definition / closed
    return CoherenceResult(query=query, omegas=omegas, closed_form=closed,
                           definition=definition, discrepancy=disc)


# ---------------------------------------------------------------------------
# Trigonometric integral representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepresentationKernel:
    """Selector for one representation identity.

    variants: 'abs' for |v|^a, 'sign_abs' for sign(v)|v|^a, 'plus'/'minus'
    for the one-sided powers, 'hlog' for the v log|v| limit (alpha fixed
    at 1, approached from below).  The regularizer g_alpha vanishes for
    alpha < 1 and is the identity for alpha > 1.
    """

    alpha: float
    variant: str

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise MfbmwaveError(f"unknown variant {self.variant!r}")
        if self.variant == "hlog":
            if self.alpha != 1.0:
                raise MfbmwaveError("hlog realizes the alpha -> 1- limit; set alpha = 1")
        else:
            if not (0.0 < self.alpha < 2.0) or self.alpha == 1.0:
                raise MfbmwaveError("power variants need alpha in (0, 2) \\ {1}")


def representation_lhs(kernel: RepresentationKernel, v: float) -> float:
    """Closed-form left side of the representation identity."""
    a = kernel.alpha
    if v == 0.0:
        return 0.0
    if kernel.variant == "abs":
        return abs(v) ** a
    if kernel.variant == "sign_abs":
        return math.copysign(abs(v) ** a, v)
    if kernel.variant == "plus":
        return v ** a if v > 0 else 0.0
    if kernel.variant == "minus":
        return (-v) ** a if v < 0 else 0.0
    return v * math.log(abs(v))


def _abs_integral(alpha: float, v: float) -> float:
    # 2 int_0^inf (1 - cos(w v)) w^(-alpha-1) dw, v > 0; the non-oscillatory
    # tail is added in closed form, the cosine tail by the QUADPACK Fourier
    # integrator.
    alpha, v = float(alpha), float(v)
    expo = -alpha - 1.0
    A = 60.0 * math.pi / v
    head = quad_checked(lambda w: (1.0 - math.cos(w * v)) * w ** expo,
                        0.0, A, epsabs=1e-11, epsrel=1e-11, limit=600)
    tail_pow = A ** (-alpha) / alpha
    tail_cos = quad_checked(lambda w: w ** expo, A, np.inf,
                            weight="cos", wvar=v, epsabs=1e-12)
    return 2.0 * (head + tail_pow - tail_cos)


def _sign_integral(alpha: float, v: float) -> float:
    # 2 int_0^inf (sin(w v) - g_alpha(w v)) w^(-alpha-1) dw, v > 0
    alpha, v = float(alpha), float(v)
    expo = -alpha - 1.0
    A = 60.0 * math.pi / v
    if alpha > 1.0:
        head = quad_checked(lambda w: (math.sin(w * v) - w * v) * w ** expo,
                            0.0, A, epsabs=1e-11, epsrel=1e-11, limit=600)
        tail_lin = -v * A ** (1.0 - alpha) / (alpha - 1.0)
    else:
        head = quad_checked(lambda w: math.sin(w * v) * w ** expo,
                            0.0, A, epsabs=1e-11, epsrel=1e-11, limit=600)
        tail_lin = 0.0
    tail_sin = quad_checked(lambda w: w ** expo, A, np.inf,
                            weight="sin", wvar=v, epsabs=1e-12)
    return 2.0 * (head + tail_sin + tail_lin)


def _hlog_head(alpha: float, av: float, A: float) -> float:
    # head of the renormalized frequency integral
    #   -(1/2) int sign(w) [sin(w v) - v sin(w)] |w|^(-alpha-1) dw
    # at v = av > 0; the subtracted linear term removes the 1/(1 - alpha)
    # divergence, which is invisible to any zero-mean wavelet correlation.
    expo = -alpha - 1.0
    return quad_checked(
        lambda w: (math.sin(w * av) - av * math.sin(w)) * w ** expo,
        0.0, A, epsabs=1e-12, epsrel=1e-12, limit=800)


def _sin_tail(alpha: float, A: float, wvar: float) -> float:
    # int_A^inf sin(wvar w) w^(-alpha-1) dw
    expo = -alpha - 1.0
    return quad_checked(lambda w: w ** expo, A, np.inf,
                        weight="sin", wvar=wvar, epsabs=1e-13)


def bahr_essen_batch(kernels, vs) -> list[list[float]]:
    """Numerical right sides of several representation identities at several points.

    Returns one row per kernel, holding its value at each v of ``vs``.  Each
    quadrature function is wrapped in a memo made for this call, so each
    distinct quadrature runs once per call and none is kept across calls:

    - the 'abs' integral is even in v and the 'sign_abs' integral odd, so
      each is asked for at (alpha, |v|), and v and -v share it with the
      sign of v applied afterwards;
    - 'plus' and 'minus' are the exact half sum and half difference of the
      'abs' and 'sign_abs' values, mirroring their derivation;
    - the 'hlog' integral is odd in v: its head and v-tail are asked for at
      (eps, |v|), and its unit-frequency tail at (eps, cut), which every
      |v| >= 1 shares.  The sign is applied to each eps value, before the
      Richardson extrapolation.
    """
    abs_int = functools.cache(_abs_integral)
    sign_int = functools.cache(_sign_integral)
    hlog_head = functools.cache(_hlog_head)
    sin_tail = functools.cache(_sin_tail)

    def abs_val(a, v):
        pref = math.gamma(a + 1.0) * math.sin(math.pi * a / 2.0) / math.pi
        return pref * abs_int(a, abs(v))

    def sign_val(a, v):
        pref = math.gamma(a + 1.0) * math.cos(math.pi * a / 2.0) / math.pi
        return math.copysign(1.0, v) * pref * sign_int(a, abs(v))

    def hlog_val(alpha, v):
        # head + tail_v - |v| tail_1 at |v|; tail_1 depends on v only
        # through the cut A, and at |v| = 1 it is tail_v
        av = abs(v)
        A = 60.0 * math.pi / min(av, 1.0)
        odd = hlog_head(alpha, av, A) + sin_tail(alpha, A, av) - av * sin_tail(alpha, A, 1.0)
        return -math.copysign(1.0, v) * odd

    def value(kernel, v):
        a = kernel.alpha
        if v == 0.0:
            return 0.0
        if kernel.variant == "abs":
            return abs_val(a, v)
        if kernel.variant == "sign_abs":
            return sign_val(a, v)
        if kernel.variant == "plus":
            return 0.5 * (abs_val(a, v) + sign_val(a, v))
        if kernel.variant == "minus":
            return 0.5 * (abs_val(a, v) - sign_val(a, v))
        vals = [hlog_val(1.0 - eps, v) for eps in LIMIT_EPS]
        first = [(10.0 * y - x) / 9.0 for x, y in zip(vals, vals[1:])]
        return (100.0 * first[1] - first[0]) / 99.0

    vs = [float(v) for v in vs]
    return [[value(k, v) for v in vs] for k in kernels]


def bahr_essen_eval(kernel: RepresentationKernel, v: float) -> float:
    """Numerical right side of the selected representation identity: a batch
    of one of :func:`bahr_essen_batch`."""
    return bahr_essen_batch([kernel], [v])[0][0]


# ---------------------------------------------------------------------------
# Spectral inversion and time-frequency consistency
# ---------------------------------------------------------------------------

def _ft_cutoff(wavelet: HermiteWavelet, a1: float, a2: float, alpha: float) -> float:
    """Frequency beyond which the spectral integrand is negligible."""
    ws = np.logspace(-4, 4, 801) / min(a1, a2)
    env = (np.abs(wavelet.eval_ft(a1 * ws) * wavelet.eval_ft(a2 * ws))
           * ws ** (-alpha - 1.0))
    peak = env.max()
    above = np.nonzero(env > 1e-17 * peak)[0]
    return float(ws[above[-1]] * 1.5)


def inverse_spectral_cov(query: WaveletCovQuery, params: MfbmParams,
                         wavelet: HermiteWavelet, h: float) -> complex:
    """Covariance at lag h from the spectral density: (1/2 pi) int S e^{iwh} dw.

    For real analyzing wavelets S(-w) = conj(S(w)), so the integral is folded
    onto w > 0 and doubled on the real part, which keeps the result real by
    construction.  Oscillatory lags use the QUADPACK cosine/sine weights.
    For a complex wavelet the two half lines are folded into one integrand
    S(w) e^{iwh} + S(-w) e^{-iwh} on (0, W), one pass for the real part and
    one for the imaginary part.  The integrand S is built once per query
    (``_spectral_density``) and evaluated in plain floats at each QUADPACK
    point, with the phase exp(i w h) from ``cmath.exp``.
    """
    j, k = query.j, query.k
    alpha = params.alpha(j, k)
    W = _ft_cutoff(wavelet, query.a1, query.a2, alpha)
    S = _spectral_density(query, params, wavelet)
    # at h != 0 the integrable |w|^(2M-1-alpha) head is split from the
    # oscillatory part at w0
    w0 = min(0.5, 0.5 / abs(h), W / 4.0) if h != 0.0 else None

    if not wavelet.is_real:
        # without the breakpoint w0, QUADPACK's error estimate can miss the
        # head of the folded integrand and stop early
        val = quad_complex(
            lambda w: S(w) * cmath.exp(1j * w * h) + S(-w) * cmath.exp(-1j * w * h),
            0.0, W, epsabs=1e-12, epsrel=1e-11, limit=800,
            points=None if w0 is None else [w0])
        return val / (2.0 * math.pi)

    if w0 is None:
        val = quad_checked(lambda w: S(w).real, 0.0, W,
                           epsabs=1e-12, epsrel=1e-11, limit=800)
        return complex(val / math.pi)
    head = quad_checked(lambda w: (S(w) * cmath.exp(1j * w * h)).real, 0.0, w0,
                        epsabs=1e-12, epsrel=1e-11, limit=400)
    re = quad_checked(lambda w: S(w).real, w0, W,
                      weight="cos", wvar=h, epsabs=1e-12)
    im = quad_checked(lambda w: S(w).imag, w0, W,
                      weight="sin", wvar=h, epsabs=1e-12)
    return complex((head + re - im) / math.pi)


@dataclass(frozen=True)
class ConsistencyReport:
    """Inverse spectral transform against the closed-form covariance."""

    query: WaveletCovQuery
    h_values: np.ndarray
    time_values: np.ndarray
    freq_values: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.max_rel_error < self.tol)


def spectral_vs_time_consistency(query: WaveletCovQuery, params: MfbmParams,
                                 wavelet: HermiteWavelet) -> ConsistencyReport:
    """Max relative deviation between the two independent covariance routes.

    Compared at the lags 0, 1 and 4, against the tolerance 1e-3.
    ``time_values`` come from the closed form :func:`theoretical_wavelet_cov`,
    ``freq_values`` from :func:`inverse_spectral_cov`.
    """
    h_values = np.array([0.0, 1.0, 4.0])
    time_vals = np.array([
        theoretical_wavelet_cov(
            WaveletCovQuery(query.j, query.k, query.a1, query.a2, h),
            params, wavelet)
        for h in h_values])
    freq_vals = np.array([
        inverse_spectral_cov(query, params, wavelet, h) for h in h_values])
    scale = np.maximum(np.abs(time_vals), 1e-30)
    rel = np.abs(time_vals - freq_vals) / scale
    return ConsistencyReport(query=query, h_values=h_values,
                             time_values=time_vals, freq_values=freq_vals,
                             rel_errors=rel, max_rel_error=float(rel.max()),
                             tol=1e-3)
