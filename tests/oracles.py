"""Slow independent references used only by the tests.

``theoretical_wavelet_cov_2d`` is the two-dimensional quadrature of the
defining double integral of the wavelet cross-covariance, and
``wavelet_autocorrelation`` the correlation of two dilated-shifted wavelets
built on ``HermiteWavelet.pair_correlation``.  Nothing in the library calls
them.
"""

import math

import numpy as np
from scipy.integrate import dblquad

from mfbmwave import model
from mfbmwave.model import MfbmParams
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


def theoretical_wavelet_cov_2d(query: WaveletCovQuery, params: MfbmParams,
                               wavelet: HermiteWavelet, tol: float = 1e-9) -> complex:
    """Independent two-dimensional quadrature of the defining double integral.

    The test oracle of :func:`theoretical_wavelet_cov` and
    :func:`wavelet_cov_quadrature`, both of which must agree with it to the
    quadrature tolerance; at seconds per call it is too slow for anything
    else.
    """
    j, k, a1, a2, h = query.j, query.k, query.a1, query.a2, query.h
    R = TRUNCATION_RADIUS
    pref = -0.5 * params.sigma[j] * params.sigma[k] * math.sqrt(a1 * a2)

    def integrand(t2, t1):
        return (model.kernel_w(params, j, k, a2 * t2 - a1 * t1 - h)
                * np.conj(wavelet.eval(t1)) * wavelet.eval(t2))

    re, _ = dblquad(lambda t2, t1: np.real(integrand(t2, t1)),
                    -R, R, -R, R, epsabs=tol, epsrel=1e-9)
    if wavelet.is_real:
        return complex(pref * re)
    im, _ = dblquad(lambda t2, t1: np.imag(integrand(t2, t1)),
                    -R, R, -R, R, epsabs=tol, epsrel=1e-9)
    return pref * complex(re, im)
