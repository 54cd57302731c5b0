"""Cross-spectral density of the wavelet field and its consistency checks.

The covariance of the wavelet coefficients at scales a1, a2 admits the
spectral representation cov(h) = (1/2 pi) int S(w) exp(i w h) dw with

    S(w) = sqrt(a1 a2) sigma_j sigma_k Gamma(a+1) zeta_jk(w)
           * conj(psi_hat(a1 w)) psi_hat(a2 w) / |w|^(a+1),      a = H_j + H_k,

where the complex weight zeta_jk combines the symmetric (rho) and
antisymmetric (eta) parameters.  The module also evaluates the trigonometric
integral representations of |v|^a, sign(v)|v|^a, v_+^a, v_-^a and of the
v log|v| limit that underlie the spectral formula, each by direct numerical
quadrature so the closed forms can be confronted with an independent route.
Those integrals are even or odd in v, so a batch of points integrates each
distinct |v| once and applies the sign of v afterwards.  Their integrands are
closures over plain floats, with math.cos/math.sin and the exponent -alpha - 1
hoisted, so a QUADPACK point costs no numpy call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import MfbmParams, MfbmwaveError, require_bytes
from .quadrature import quad_checked, quad_complex
from .wavelets import HermiteWavelet, _SQRT_2PI
from .wavstats import WaveletCovQuery, theoretical_wavelet_cov

# Absolute target for the representation-identity quadratures.
REP_TOL = 1e-8

# The v log|v| representation exists only as a limit from below; it is
# realized at alpha = 1 - eps for these eps and Richardson-extrapolated.
LIMIT_EPS = (1e-4, 1e-5, 1e-6)

_VARIANTS = ("abs", "sign_abs", "plus", "minus", "hlog")


def zeta(params: MfbmParams, j: int, k: int, omega):
    """Complex frequency weight of the cross-spectral density.

    rho_jk sin(pi a/2) + i eta_jk cos(pi a/2) sign(w) off the critical
    exponent; rho_jk + i (pi/2) eta_jk sign(w) at a = 1.  Only the sign of
    ``omega`` enters.
    """
    model._check_index(params, j, k)
    sgn = np.sign(np.asarray(omega, dtype=float))
    rho = params.rho[j, k]
    eta = params.eta[j, k]
    a = params.alpha(j, k)
    if params.is_log_branch(j, k):
        out = rho + 1j * (math.pi / 2.0) * eta * sgn
    else:
        out = (rho * math.sin(math.pi * a / 2.0)
               + 1j * eta * math.cos(math.pi * a / 2.0) * sgn)
    return out if np.ndim(omega) else complex(out)


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
    require_bytes(2 * n * (8 + 16), f"a grid of {2 * n} frequencies and "
                  f"their spectral values")
    pos = np.logspace(math.log10(w_min), math.log10(w_max), n)
    return np.concatenate([-pos[::-1], pos])


@dataclass(frozen=True)
class SpectrumGrid:
    """Cross-spectral density samples on a zero-free frequency grid."""

    query: WaveletCovQuery
    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if omegas.shape != values.shape:
            raise MfbmwaveError("frequency grid and values must align")
        if np.any(omegas == 0.0):
            raise MfbmwaveError("zero frequency excluded from spectrum grids")
        if not np.all(np.isfinite(values.view(float))):
            raise MfbmwaveError("spectral values must be finite")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)


def _spectral_values(query: WaveletCovQuery, params: MfbmParams,
                     wavelet: HermiteWavelet, omegas: np.ndarray) -> np.ndarray:
    j, k, a1, a2 = query.j, query.k, query.a1, query.a2
    alpha = params.alpha(j, k)
    pref = (math.sqrt(a1 * a2) * params.sigma[j] * params.sigma[k]
            * math.gamma(alpha + 1.0))
    q = np.conj(wavelet.eval_ft(a1 * omegas)) * wavelet.eval_ft(a2 * omegas)
    return pref * zeta(params, j, k, omegas) * q / np.abs(omegas) ** (alpha + 1.0)


def cross_spectral_density(query: WaveletCovQuery, params: MfbmParams,
                           wavelet: HermiteWavelet, omegas) -> SpectrumGrid:
    """Pointwise cross-spectral density of the wavelet field on a grid."""
    omegas = np.asarray(omegas, dtype=float)
    if np.any(omegas == 0.0):
        raise MfbmwaveError("zero frequency is excluded; its limit is "
                            "described by zero_frequency_behavior")
    return SpectrumGrid(query=query, omegas=omegas,
                        values=_spectral_values(query, params, wavelet, omegas))


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
                             wavelet: HermiteWavelet, w_lo: float = 1e-4,
                             w_hi: float = 1e-2, n: int = 48):
    """Log-log fit of |S| on [w_lo, w_hi]; validates the zero-frequency law."""
    from .estimate import fit_power_law

    omegas = np.logspace(math.log10(w_lo), math.log10(w_hi), n)
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
    j, k, a1, a2 = query.j, query.k, query.a1, query.a2
    omegas = np.asarray(omegas, dtype=float)
    alpha = params.alpha(j, k)
    z = zeta(params, j, k, omegas)
    g_ratio = (math.gamma(alpha + 1.0) ** 2
               / (math.gamma(2.0 * params.H[j] + 1.0)
                  * math.gamma(2.0 * params.H[k] + 1.0)))
    f1 = wavelet.eval_ft(a1 * omegas)
    f2 = wavelet.eval_ft(a2 * omegas)
    phase = (f1 * np.conj(f2)) / (np.conj(f1) * f2)
    closed = np.abs(z) ** 2 * g_ratio * phase

    s12 = _spectral_values(query, params, wavelet, omegas)
    s11 = _spectral_values(WaveletCovQuery(j, j, a1, a1), params, wavelet, omegas)
    s22 = _spectral_values(WaveletCovQuery(k, k, a2, a2), params, wavelet, omegas)
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

    @property
    def g_alpha(self) -> str:
        return "identity" if self.alpha > 1.0 else "zero"


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


def _hlog_integrals(alpha: float, mags) -> dict:
    # renormalized frequency integral
    #   -(1/2) int sign(w) [sin(w v) - v sin(w)] |w|^(-alpha-1) dw;
    # the subtracted linear term removes the 1/(1 - alpha) divergence, which
    # is invisible to any zero-mean wavelet correlation.  Odd in v: this maps
    # each |v| in ``mags`` to head + tail_v - |v| tail_1, and the caller
    # multiplies by -sign(v).  tail_1 depends on v only through the cut A,
    # and at |v| = 1 it is tail_v, so each sine tail is integrated once.
    expo = -alpha - 1.0
    tails = {}

    def sin_tail(A, wvar):
        if (A, wvar) not in tails:
            tails[A, wvar] = quad_checked(lambda w: w ** expo, A, np.inf,
                                          weight="sin", wvar=wvar, epsabs=1e-13)
        return tails[A, wvar]

    out = {}
    for av in mags:
        A = 60.0 * math.pi / min(av, 1.0)
        head = quad_checked(
            lambda w: (math.sin(w * av) - av * math.sin(w)) * w ** expo,
            0.0, A, epsabs=1e-12, epsrel=1e-12, limit=800)
        out[av] = head + sin_tail(A, av) - av * sin_tail(A, 1.0)
    return out


def bahr_essen_batch(kernels, vs) -> list[list[float]]:
    """Numerical right sides of several representation identities at several points.

    Returns one row per kernel, holding its value at each v of ``vs``.  Each
    distinct quadrature runs once per call, and none is kept across calls:

    - the 'abs' integral is even in v and the 'sign_abs' integral odd, so
      each is integrated once per (alpha, |v|), and v and -v share it with
      the sign of v applied afterwards;
    - 'plus' and 'minus' are the exact half sum and half difference of the
      'abs' and 'sign_abs' values, mirroring their derivation;
    - the 'hlog' integral is odd in v: its head and v-tail run once per
      (eps, |v|), and its unit-frequency tail once per (eps, cut).  The sign
      is applied to each eps value, before the Richardson extrapolation.
    """
    kernels = list(kernels)
    vs = [float(v) for v in vs]
    mags = sorted({abs(v) for v in vs if v != 0.0})

    def alphas(*variants):
        return sorted({k.alpha for k in kernels if k.variant in variants})

    abs_int = {(a, m): _abs_integral(a, m)
               for a in alphas("abs", "plus", "minus") for m in mags}
    sign_int = {(a, m): _sign_integral(a, m)
                for a in alphas("sign_abs", "plus", "minus") for m in mags}
    hlog_int = ({eps: _hlog_integrals(1.0 - eps, mags) for eps in LIMIT_EPS}
                if any(k.variant == "hlog" for k in kernels) else {})

    def abs_val(a, v):
        pref = math.gamma(a + 1.0) * math.sin(math.pi * a / 2.0) / math.pi
        return pref * abs_int[a, abs(v)]

    def sign_val(a, v):
        pref = math.gamma(a + 1.0) * math.cos(math.pi * a / 2.0) / math.pi
        return math.copysign(1.0, v) * pref * sign_int[a, abs(v)]

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
        vals = [-math.copysign(1.0, v) * hlog_int[eps][abs(v)] for eps in LIMIT_EPS]
        first = [(10.0 * y - x) / 9.0 for x, y in zip(vals, vals[1:])]
        return (100.0 * first[1] - first[0]) / 99.0

    return [[value(k, v) for v in vs] for k in kernels]


def bahr_essen_eval(kernel: RepresentationKernel, v: float) -> float:
    """Numerical right side of the selected representation identity.

    A batch of one of :func:`bahr_essen_batch`, so each distinct integral is
    computed once: the integrals are even ('abs') or odd ('sign_abs',
    'hlog') in v and run at |v|, and the one-sided powers are exact half
    sums and differences of one 'abs' and one 'sign_abs' evaluation,
    mirroring their derivation.
    """
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


def _spectral_integrand(query: WaveletCovQuery, params: MfbmParams,
                        wavelet: HermiteWavelet):
    """S(w) of ``_spectral_values`` as a closure over plain floats, w != 0.

    The prefactor times zeta on each side of w = 0 and the transform
    coefficients c (-i)^m are hoisted out, so a float w costs one polynomial
    and one exponential per scale and a complex S(w) comes back.
    """
    j, k, a1, a2 = query.j, query.k, query.a1, query.a2
    alpha = params.alpha(j, k)
    pref = float(math.sqrt(a1 * a2) * params.sigma[j] * params.sigma[k]
                 * math.gamma(alpha + 1.0))
    z_pos = pref * zeta(params, j, k, 1.0)
    z_neg = pref * zeta(params, j, k, -1.0)
    expo = alpha + 1.0
    ft = [(c * (-1j) ** m, m) for c, m in wavelet.terms]

    def psi_hat(x):
        return (sum(d * x ** m for d, m in ft)
                * (_SQRT_2PI * math.exp(-0.5 * x * x)))

    def S(w):
        q = psi_hat(a1 * w).conjugate() * psi_hat(a2 * w)
        return (z_pos if w > 0.0 else z_neg) * q / abs(w) ** expo

    return S


def inverse_spectral_cov(query: WaveletCovQuery, params: MfbmParams,
                         wavelet: HermiteWavelet, h: float) -> complex:
    """Covariance at lag h from the spectral density: (1/2 pi) int S e^{iwh} dw.

    For real analyzing wavelets S(-w) = conj(S(w)), so the integral is folded
    onto w > 0 and doubled on the real part, which keeps the result real by
    construction.  Oscillatory lags use the QUADPACK cosine/sine weights.
    The integrand S is built once per query (``_spectral_integrand``) and
    evaluated in plain floats at each QUADPACK point, with the phase
    exp(i w h) from ``cmath.exp``.
    """
    j, k = query.j, query.k
    alpha = params.alpha(j, k)
    W = _ft_cutoff(wavelet, query.a1, query.a2, alpha)
    S = _spectral_integrand(query, params, wavelet)

    if not wavelet.is_real:
        up = quad_complex(lambda w: S(w) * cmath.exp(1j * w * h), 0.0, W,
                          epsabs=1e-12, epsrel=1e-11, limit=800)
        down = quad_complex(lambda w: S(-w) * cmath.exp(-1j * w * h), 0.0, W,
                            epsabs=1e-12, epsrel=1e-11, limit=800)
        return (up + down) / (2.0 * math.pi)

    if h == 0.0:
        val = quad_checked(lambda w: S(w).real, 0.0, W,
                           epsabs=1e-12, epsrel=1e-11, limit=800)
        return complex(val / math.pi)
    # split the integrable |w|^(2M-1-alpha) head from the oscillatory part
    w0 = min(0.5, 0.5 / abs(h), W / 4.0)
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
                                 wavelet: HermiteWavelet, h_values=(0.0, 1.0, 4.0),
                                 tol: float = 1e-3) -> ConsistencyReport:
    """Max relative deviation between the two independent covariance routes.

    ``time_values`` come from the closed form :func:`theoretical_wavelet_cov`,
    ``freq_values`` from :func:`inverse_spectral_cov`.
    """
    h_values = np.asarray(h_values, dtype=float)
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
                             tol=tol)
