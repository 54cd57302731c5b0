"""Exact second-order statistics of the wavelet field, without simulation.

The cross-covariance of wavelet coefficients at scales a1, a2 and shift lag h
is the double integral of the process kernel against the analyzing wavelet,

    cov(j, k, a1, a2, h)
        = -(sigma_j sigma_k / 2) sqrt(a1 a2)
          * int int w_jk(a2 t2 - a1 t1 - h) conj(psi(t1)) psi(t2) dt1 dt2,

equivalently a single integral of w_jk against the wavelet pair correlation.
For the Gaussian-derivative (Hermite) family the pair correlation of two
atoms is a Hermite function, and the single integral reduces to confluent
hypergeometric functions (DLMF 12.5.1, 12.7.14, 13.2.39):
:func:`theoretical_wavelet_cov` evaluates that closed form in near and far
field alike.  :func:`wavelet_cov_quadrature` keeps the one-dimensional
adaptive quadrature as the independent cross-check; its integrand, kernel
times pair correlation, is built once per query and evaluated in plain
floats at each QUADPACK point, with no closed form inside.  The module also
exposes the scale-power law of the instantaneous covariance and the
closed-form large-lag decay.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import MfbmParams, MfbmwaveError
from .quadrature import quad_checked, quad_complex
from .wavelets import HermiteWavelet, TRUNCATION_RADIUS, _SQRT_2PI

# Quadrature target of wavelet_cov_quadrature: QUADPACK stops once the error
# estimate of the kernel integral is below QUAD_TOL * 1e-3 absolute or 1e-11
# relative, whichever is looser.
QUAD_TOL = 1e-8

# |h| beyond this multiple of the integration half-width switches the
# quadrature to the series-subtracted residual kernel (keeps |y/h| <= 1/2).
_FAR_FACTOR = 2.0


class DegenerateAsymptoticsError(MfbmwaveError):
    """Leading-order coefficient vanishes; only an o(|h|^(1-2M)) bound holds."""


@dataclass(frozen=True)
class WaveletCovQuery:
    """Query for E[d^j_{a1, b+h} conj(d^k_{a2, b})]: j and k pass
    ``check_integer``, the scales ``check_step`` and h ``check_finite``."""

    j: int
    k: int
    a1: float
    a2: float
    h: float = 0.0

    def __post_init__(self):
        model.check_integer("j", self.j), model.check_integer("k", self.k)
        model.check_step("scales", self.a1), model.check_step("scales", self.a2)
        model.check_finite("lag h", self.h)


def binom_gen(alpha: float, ell: int) -> float:
    """Generalized binomial coefficient alpha (alpha-1) ... (alpha-ell+1) / ell!."""
    out = 1.0
    for i in range(ell):
        out *= (alpha - i) / (i + 1)
    return out


def _half_width(a1: float, a2: float) -> float:
    # certified support box |t1|, |t2| <= TRUNCATION_RADIUS maps to
    # |a2 t2 - a1 t1| <= TRUNCATION_RADIUS * (a1 + a2)
    return TRUNCATION_RADIUS * (a1 + a2)


def _near_kernel(params: MfbmParams, j: int, k: int):
    """w_jk(u) of ``model.kernel_w`` as a closure over plain floats.

    The same two branch formulas, (rho - eta sign(u)) |u|^alpha and
    rho |u| + eta u log|u|, with 0 at u = 0, for a float u at a time.
    """
    rho = float(params.rho[j, k])
    eta = float(params.eta[j, k])
    alpha = params.alpha(j, k)
    power = np.power

    if params.is_log_branch(j, k):
        def w(u):
            if u == 0.0:
                return 0.0
            au = abs(u)
            return rho * au + eta * u * math.log(au)
    else:
        # numpy's power, not the float ** (libm's pow): on CPUs where numpy
        # runs its own SIMD pow the two differ in the last bit for about 5 %
        # of arguments, and the cancelling near-field integrals pass that
        # on.  One scalar ufunc call keeps kernel_w's bits.
        def w(u):
            if u == 0.0:
                return 0.0
            return (rho - eta if u > 0.0 else rho + eta) * float(power(abs(u), alpha))

    return w


def _residual_kernel(params: MfbmParams, j: int, k: int, h: float, order: int):
    """w_jk(y - h) minus its Taylor polynomial of degree < order around y = 0.

    Valid for |y| < |h|; evaluated by the tail of the binomial (or logarithm)
    series so that no cancellation occurs.  Polynomials of degree < order
    integrate to zero against the pair correlation of a wavelet with
    2 * vanishing_moments >= order, so subtracting them leaves the covariance
    unchanged while removing the large |h|^alpha foreground.  The closure
    takes and returns plain floats.
    """
    eta = float(params.eta[j, k])
    alpha = params.alpha(j, k)

    if params.is_log_branch(j, k):
        # rho |y - h| is exactly linear on |y| < |h|, so only the logarithmic
        # part survives: c_d = -eta h^(1-d) / (d (d-1)) for d >= max(order, 2)
        start = max(order, 2)
        h_pow = h ** (1 - start)

        def residual(y):
            x = y / h
            acc = 0.0
            powe = y ** start * h_pow
            for d in range(start, start + 220):
                t = -eta * powe / (d * (d - 1))
                acc += t
                powe = powe * x
                if abs(t) <= 1e-18 * (abs(acc) + 1e-300):
                    break
            return acc

        return residual

    sgn = 1.0 if h > 0 else -1.0
    scale = (float(params.rho[j, k]) + eta * sgn) * abs(h) ** alpha
    c0 = binom_gen(alpha, order)

    def residual(y):
        x = -y / h
        acc = 0.0
        c = c0
        powx = x ** order
        for ell in range(order, order + 220):
            t = c * powx
            acc += t
            c *= (alpha - ell) / (ell + 1)
            powx = powx * x
            if abs(t) <= 1e-18 * (abs(acc) + 1e-300):
                break
        return scale * acc

    return residual


_SQRT_PI = math.sqrt(math.pi)

# scipy.special's hyp1f1 and rgamma, bound by the first closed-form query
# (_kernel_integral) so that importing the package loads no scipy.
hyp1f1 = rgamma = None


def _bind_special():
    global hyp1f1, rgamma
    from scipy.special import hyp1f1, rgamma


def _power_integral(K: int, alpha: float, rho: float, eta: float, c: float) -> float:
    """int (rho - eta sign(x)) |x|^alpha He_K(x + c) exp(-(x + c)^2 / 2) dx.

    By DLMF 12.5.1 this is Gamma(alpha+1) exp(-c^2/4) times a combination of
    D_nu(c) and D_nu(-c), nu = K - alpha - 1.  ``even`` and ``odd`` are the
    parts of exp(-c^2/4) D_nu(-c) 2^(-nu/2) even and odd in c, written by
    DLMF 12.7.14 and Kummer's transformation 13.2.39 so that they stay
    finite and accurate for every |c| (pbdv leaves the double range past
    |c| ~ 50).
    """
    nu = K - alpha - 1.0
    x = -0.5 * c * c
    even = _SQRT_PI * rgamma(0.5 * (1.0 - nu)) * hyp1f1(0.5 * (1.0 + nu), 0.5, x)
    odd = _SQRT_2PI * rgamma(-0.5 * nu) * c * hyp1f1(1.0 + 0.5 * nu, 1.5, x)
    g = 2.0 * math.gamma(alpha + 1.0) * 2.0 ** (0.5 * nu)
    if K % 2 == 0:
        return g * (rho * even + eta * odd)
    return -g * (eta * even + rho * odd)


def _log_integral(K: int, rho: float, eta: float, c: float) -> float:
    """int (rho |x| + eta x log|x|) He_K(x + c) exp(-(x + c)^2 / 2) dx.

    The x log|x| part is the alpha-derivative at 1 of the sign(x)|x|^alpha
    integral, _power_integral(K, alpha, 0, -1, c).  At alpha = 1 exactly one
    factor of that product vanishes, the 1/Gamma at its pole -n with
    n = K // 2 - 1; its argument moves as alpha / 2, and the derivative of
    1/Gamma at -n is (-1)^n n!.  The product rule leaves that derivative
    times the remaining factors, with no difference quotient.
    """
    n = K // 2 - 1
    x = -0.5 * c * c
    d_rgamma = 0.5 * (-1.0) ** n * math.factorial(n)
    g = 2.0 * 2.0 ** (0.5 * (K - 2))
    if K % 2 == 0:
        d_eta = -g * d_rgamma * _SQRT_2PI * c * hyp1f1(0.5 * K, 1.5, x)
    else:
        d_eta = g * d_rgamma * _SQRT_PI * hyp1f1(0.5 * (K - 1), 0.5, x)
    return _power_integral(K, 1.0, rho, 0.0, c) + eta * d_eta


def _kernel_integral(params: MfbmParams, j: int, k: int, wavelet: HermiteWavelet,
                     a1: float, a2: float, h: float) -> complex:
    """int w_jk(y - h) D(y) dy in closed form, D the pair correlation at (a1, a2).

    D is the sum of b_K He_K(y/s) exp(-y^2 / 2s^2), s = hypot(a1, a2), over
    the atom pairs merged by K (``HermiteWavelet._merged_pairs``).  With
    y = s (x + c), c = h/s, the homogeneity of w_jk leaves b_K s^(alpha+1)
    times one _power_integral or _log_integral per K.
    """
    if hyp1f1 is None:
        _bind_special()
    rho = float(params.rho[j, k])
    eta = float(params.eta[j, k])
    log_branch = params.is_log_branch(j, k)
    alpha = 1.0 if log_branch else params.alpha(j, k)
    s = math.hypot(a1, a2)
    c = h / s
    total = sum(b * s ** (alpha + 1.0)
                * (_log_integral(K, rho, eta, c) if log_branch
                   else _power_integral(K, alpha, rho, eta, c))
                for K, b in wavelet._merged_pairs(a1, a2))
    return complex(total.real) if wavelet.is_real else complex(total)


def theoretical_wavelet_cov(query: WaveletCovQuery, params: MfbmParams,
                            wavelet: HermiteWavelet) -> complex:
    """Exact wavelet cross-covariance in closed form.

    Covers the Gaussian-derivative family (:class:`HermiteWavelet`) in near
    and far field, on both kernel branches, to within about 1e-13 relative of
    30-digit references; :func:`wavelet_cov_quadrature` is the independent
    cross-check.  A lag so large that the closed form is not finite raises
    an MfbmwaveError.
    """
    j, k, a1, a2, h = query.j, query.k, query.a1, query.a2, query.h
    model._check_index(params, j, k)
    pref = -0.5 * params.sigma[j] * params.sigma[k] / math.sqrt(a1 * a2)
    cov = pref * _kernel_integral(params, j, k, wavelet, a1, a2, h)
    if not cmath.isfinite(cov):
        raise MfbmwaveError(f"the closed form at lag h = {h} is not finite")
    return cov


def wavelet_cov_quadrature(query: WaveletCovQuery, params: MfbmParams,
                           wavelet: HermiteWavelet) -> complex:
    """Wavelet cross-covariance by adaptive quadrature.

    The independent numerical route behind :func:`theoretical_wavelet_cov`.
    Uses the one-dimensional form against the wavelet pair correlation.  For
    |h| far outside the correlation support the kernel is replaced by its
    series residual of degree >= 2M, which removes the cancellation against
    the |h|^alpha foreground.  The integrand is built once per query, from
    the kernel closure (``_near_kernel`` or ``_residual_kernel``) and the
    pair correlation, and each QUADPACK point is evaluated in plain floats.
    No closed form of the covariance enters it.

    The accuracy target is absolute: QUADPACK stops once its error estimate
    of the kernel integral (before the factor
    -sigma_j sigma_k / (2 sqrt(a1 a2))) is below ``QUAD_TOL * 1e-3`` or 1e-11
    relative, whichever is looser.  Values near or below the absolute target
    therefore carry a large relative error: 3e-4 at M = 3, a1 = a2 = 1,
    h = 512, where the covariance is 8e-14.
    """
    j, k, a1, a2, h = query.j, query.k, query.a1, query.a2, query.h
    model._check_index(params, j, k)
    D = wavelet.pair_correlation(a1, a2)
    L = _half_width(a1, a2)
    pref = -0.5 * params.sigma[j] * params.sigma[k] / math.sqrt(a1 * a2)

    if abs(h) >= _FAR_FACTOR * L:
        wtilde = _residual_kernel(params, j, k, h, 2 * wavelet.vanishing_moments)
        f = lambda y: wtilde(y) * D(y)
        points = None
    else:
        w = _near_kernel(params, j, k)
        f = lambda y: w(y - h) * D(y)
        points = [h] if -L < h < L else None

    epsabs = QUAD_TOL * 1e-3
    if wavelet.is_real:
        val = quad_checked(f, -L, L, epsabs=epsabs, epsrel=1e-11, points=points)
        return complex(pref * val)
    return pref * quad_complex(f, -L, L, epsabs=epsabs, epsrel=1e-11,
                               points=points)


@dataclass(frozen=True)
class ScaleLawResult:
    """Instantaneous (h = 0) covariance constant and its scale-free correlation.

    cov(j, k, a, a, h=0) = -(sigma_j sigma_k / 2) z_jk a^(exponent) at every
    scale a, with exponent = H_j + H_k + 1; the correlation is independent of
    the scale and equals 1 on the diagonal.
    """

    z_jk: complex
    correlation: complex
    exponent: float
    sigma_product: float

    def covariance(self, a: float) -> complex:
        return -0.5 * self.sigma_product * self.z_jk * a ** self.exponent


def scale_law_constant(params: MfbmParams, wavelet: HermiteWavelet,
                       j: int, k: int) -> ScaleLawResult:
    """Scale-law constant z_jk and the scale-free instantaneous correlation."""
    model._check_index(params, j, k)
    z_jk, z_jj, z_kk = (_kernel_integral(params, jj, kk, wavelet, 1.0, 1.0, 0.0)
                        for jj, kk in ((j, k), (j, j), (k, k)))
    for label, z in (("j", z_jj), ("k", z_kk)):
        if z.real >= 0.0 or abs(z.imag) > 1e-12 * abs(z.real):
            raise RuntimeError(
                f"internal error: diagonal constant z_{label}{label} = {z} "
                "must be real negative (variance positivity)")
    correlation = -z_jk / math.sqrt(z_jj.real * z_kk.real)
    return ScaleLawResult(z_jk=z_jk, correlation=correlation,
                          exponent=params.alpha(j, k) + 1.0,
                          sigma_product=float(params.sigma[j] * params.sigma[k]))


@dataclass(frozen=True)
class AsymptoticLaw:
    """Leading-order large-lag covariance cov ~ amplitude(h) |h|^exponent.

    kappa >= 0 collects the wavelet moment constant C(2M, M) (a1 a2)^M
    |int t^M psi|^2; tau_plus / tau_minus carry the parameter dependence for
    sign(h) = +/-.  The prediction includes the sqrt(a1 a2) factor of the
    covariance normalization and the (-1)^M sign fixed by the 2M-th moment of
    the wavelet pair correlation; both are cross-checked against quadrature.
    """

    kappa: float
    tau_plus: float
    tau_minus: float
    exponent: float
    vanishing_moments: int
    scale_root: float
    sigma_product: float
    log_branch: bool

    def tau(self, h: float) -> float:
        return self.tau_plus if h > 0 else self.tau_minus

    def value(self, h: float) -> complex:
        if h == 0.0:
            raise MfbmwaveError("asymptotic prediction requires |h| > 0")
        t = self.tau(h)
        if t == 0.0:
            raise DegenerateAsymptoticsError(
                "leading coefficient vanishes for this sign of h; covariance "
                f"is only o(|h|^{1 - 2 * self.vanishing_moments}) "
                "(upper-bound regime)")
        sign = (-1.0) ** self.vanishing_moments
        return complex(-0.5 * self.sigma_product * self.scale_root * sign
                       * self.kappa * t * abs(h) ** self.exponent)


def asymptotic_law(params: MfbmParams, wavelet: HermiteWavelet, j: int, k: int,
                   a1: float = 1.0, a2: float = 1.0) -> AsymptoticLaw:
    """Large-lag decay law of the wavelet cross-covariance."""
    M = wavelet.vanishing_moments
    model._check_index(params, j, k)
    model.check_step("scales", a1), model.check_step("scales", a2)
    alpha = params.alpha(j, k)
    rho = float(params.rho[j, k])
    eta = float(params.eta[j, k])
    kappa = (math.comb(2 * M, M) * (a1 * a2) ** M * abs(wavelet.moment) ** 2)
    if params.is_log_branch(j, k):
        tau_p = -eta / (2 * M * (2 * M - 1))
        tau_m = +eta / (2 * M * (2 * M - 1))
    else:
        c = binom_gen(alpha, 2 * M)
        tau_p = (rho + eta) * c
        tau_m = (rho - eta) * c
    return AsymptoticLaw(kappa=kappa, tau_plus=tau_p, tau_minus=tau_m,
                         exponent=alpha - 2 * M, vanishing_moments=M,
                         scale_root=math.sqrt(a1 * a2),
                         sigma_product=float(params.sigma[j] * params.sigma[k]),
                         log_branch=params.is_log_branch(j, k))


def asymptotic_wavelet_cov(query: WaveletCovQuery, params: MfbmParams,
                           wavelet: HermiteWavelet) -> complex:
    """Leading-order prediction of the covariance at large |h|."""
    law = asymptotic_law(params, wavelet, query.j, query.k, query.a1, query.a2)
    return law.value(query.h)

