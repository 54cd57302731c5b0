"""Slow independent references used only by the tests.

``theoretical_wavelet_cov_2d`` is the two-dimensional quadrature of the
defining double integral of the wavelet cross-covariance, evaluated in plain
floats through ``wavelet_at`` and ``kernel_at`` (written here, sharing no
code with the library's quadrature integrands), and
``wavelet_autocorrelation`` the correlation of two dilated-shifted wavelets
built on ``HermiteWavelet.pair_correlation``.  ``bahr_essen_pointwise`` is
the representation right side evaluated one point at a time, each variant
with its own quadratures written here with numpy's ``np.cos``/``np.sin``,
in the arithmetic order the library's float closures must keep bit for bit.
Nothing in the library calls them.
"""

import math

import numpy as np
from scipy.integrate import dblquad

from mfbmwave.model import MfbmParams
from mfbmwave.quadrature import quad_checked
from mfbmwave.spectral import LIMIT_EPS, RepresentationKernel
from mfbmwave.wavelets import HermiteWavelet, TRUNCATION_RADIUS
from mfbmwave.wavstats import WaveletCovQuery


def wavelet_autocorrelation(wavelet: HermiteWavelet, a1: float, a2: float, h: float):
    """Correlation between the dilated-shifted wavelets at scales a1, a2, lag h.

    Returns an evaluator for
    Gamma(v) = int psi_{a1,b+h}(u) conj(psi_{a2,b}(u+v)) du,
    which is independent of the base point b.
    """
    if a1 <= 0.0 or a2 <= 0.0:
        raise ValueError("scales must be positive")
    D = wavelet.pair_correlation(a1, a2)
    norm = 1.0 / math.sqrt(a1 * a2)

    def gamma(v):
        return norm * np.conj(D(np.asarray(v, dtype=float) + h))

    return gamma


def wavelet_at(wavelet: HermiteWavelet):
    """psi(t) of ``wavelet.eval`` for one float t, as a float (complex if complex).

    Sums c He_m(t) over the atoms, He_m by the forward recurrence
    He_(n+1) = t He_n - n He_(n-1), times one ``math.exp``.
    """
    terms = [(c.real if wavelet.is_real else c, m) for c, m in wavelet.terms]
    top = max(m for _, m in terms)

    def psi(t):
        he = [1.0, t]
        for n in range(1, top):
            he.append(t * he[n] - n * he[n - 1])
        return sum(c * he[m] for c, m in terms) * math.exp(-0.5 * t * t)

    return psi


def kernel_at(params: MfbmParams, j: int, k: int):
    """w_jk(u) of ``model.kernel_w`` for one float u, as a float."""
    rho = float(params.rho[j, k])
    eta = float(params.eta[j, k])
    alpha = params.alpha(j, k)
    log_branch = params.is_log_branch(j, k)

    def w(u):
        if u == 0.0:
            return 0.0
        if log_branch:
            return rho * abs(u) + eta * u * math.log(abs(u))
        return (rho - (eta if u > 0.0 else -eta)) * abs(u) ** alpha

    return w


def theoretical_wavelet_cov_2d(query: WaveletCovQuery, params: MfbmParams,
                               wavelet: HermiteWavelet, tol: float = 1e-9) -> complex:
    """Independent two-dimensional quadrature of the defining double integral.

    The test oracle of :func:`theoretical_wavelet_cov` and
    :func:`wavelet_cov_quadrature`, both of which must agree with it to the
    quadrature tolerance; at a fraction of a second per call in floats it is
    still too slow for anything else.
    """
    j, k, a1, a2, h = query.j, query.k, query.a1, query.a2, query.h
    R = TRUNCATION_RADIUS
    pref = -0.5 * params.sigma[j] * params.sigma[k] * math.sqrt(a1 * a2)
    psi = wavelet_at(wavelet)
    w = kernel_at(params, j, k)

    def integrand(t2, t1):
        return w(a2 * t2 - a1 * t1 - h) * psi(t1).conjugate() * psi(t2)

    if wavelet.is_real:
        re, _ = dblquad(integrand, -R, R, -R, R, epsabs=tol, epsrel=1e-9)
        return complex(pref * re)
    re, _ = dblquad(lambda t2, t1: integrand(t2, t1).real,
                    -R, R, -R, R, epsabs=tol, epsrel=1e-9)
    im, _ = dblquad(lambda t2, t1: integrand(t2, t1).imag,
                    -R, R, -R, R, epsabs=tol, epsrel=1e-9)
    return pref * complex(re, im)


def _abs_at(alpha: float, av: float) -> float:
    A = 60.0 * math.pi / av
    head = quad_checked(lambda w: (1.0 - np.cos(w * av)) * w ** (-alpha - 1.0),
                        0.0, A, epsabs=1e-11, epsrel=1e-11, limit=600)
    tail_pow = A ** (-alpha) / alpha
    tail_cos = quad_checked(lambda w: w ** (-alpha - 1.0), A, np.inf,
                            weight="cos", wvar=av, epsabs=1e-12)
    return 2.0 * (head + tail_pow - tail_cos)


def _sign_at(alpha: float, av: float) -> float:
    A = 60.0 * math.pi / av
    if alpha > 1.0:
        head = quad_checked(lambda w: (np.sin(w * av) - w * av) * w ** (-alpha - 1.0),
                            0.0, A, epsabs=1e-11, epsrel=1e-11, limit=600)
        tail_lin = -av * A ** (1.0 - alpha) / (alpha - 1.0)
    else:
        head = quad_checked(lambda w: np.sin(w * av) * w ** (-alpha - 1.0),
                            0.0, A, epsabs=1e-11, epsrel=1e-11, limit=600)
        tail_lin = 0.0
    tail_sin = quad_checked(lambda w: w ** (-alpha - 1.0), A, np.inf,
                            weight="sin", wvar=av, epsabs=1e-12)
    return 2.0 * (head + tail_sin + tail_lin)


def _hlog_at(alpha: float, v: float) -> float:
    av = abs(v)
    A = 60.0 * math.pi / min(av, 1.0)
    head = quad_checked(
        lambda w: (np.sin(w * av) - av * np.sin(w)) * w ** (-alpha - 1.0),
        0.0, A, epsabs=1e-12, epsrel=1e-12, limit=800)
    tail_v = quad_checked(lambda w: w ** (-alpha - 1.0), A, np.inf,
                          weight="sin", wvar=av, epsabs=1e-13)
    tail_1 = quad_checked(lambda w: w ** (-alpha - 1.0), A, np.inf,
                          weight="sin", wvar=1.0, epsabs=1e-13)
    return -math.copysign(1.0, v) * (head + tail_v - av * tail_1)


def bahr_essen_pointwise(kernel: RepresentationKernel, v: float) -> float:
    """Right side of one representation identity at one point, nothing shared."""
    a = kernel.alpha
    if v == 0.0:
        return 0.0
    if kernel.variant == "hlog":
        vals = [_hlog_at(1.0 - eps, v) for eps in LIMIT_EPS]
        first = [(10.0 * y - x) / 9.0 for x, y in zip(vals, vals[1:])]
        return (100.0 * first[1] - first[0]) / 99.0
    abs_val = (math.gamma(a + 1.0) * math.sin(math.pi * a / 2.0) / math.pi
               * _abs_at(a, abs(v)))
    sign_val = (math.copysign(1.0, v)
                * (math.gamma(a + 1.0) * math.cos(math.pi * a / 2.0) / math.pi)
                * _sign_at(a, abs(v)))
    return {"abs": abs_val, "sign_abs": sign_val,
            "plus": 0.5 * (abs_val + sign_val),
            "minus": 0.5 * (abs_val - sign_val)}[kernel.variant]
