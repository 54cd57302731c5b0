import math
import re
import struct

import numpy as np
import pytest
from scipy.integrate import quad

from mfbmwave import wavstats
from mfbmwave.model import MfbmParams, MfbmwaveError, kernel_w
from mfbmwave.verify import XCHECK_ABS, XCHECK_REL
from mfbmwave.wavelets import HermiteWavelet, gaussian_derivative
from mfbmwave.wavstats import (
    WaveletCovQuery,
    DegenerateAsymptoticsError,
    theoretical_wavelet_cov,
    wavelet_cov_quadrature,
    scale_law_constant,
    asymptotic_law,
    asymptotic_wavelet_cov,
    binom_gen,
)
from oracles import theoretical_wavelet_cov_2d, wavelet_at


def flandrin_variance(h, sigma, a, wavelet):
    """Independent oracle for the single-component wavelet variance.

    Var(d_a) = a^(2H+1) * (-sigma^2/2) * int int |t2-t1|^(2H) psi(t1) psi(t2),
    reduced to one dimension through the plain autocorrelation of psi,
    computed here by direct quadrature (no closed forms), with psi evaluated
    in floats by ``oracles.wavelet_at`` for a real wavelet.
    """
    psi = wavelet_at(wavelet)

    def phi(v):
        val, _ = quad(lambda t: psi(t) * psi(t + v), -12, 12, limit=300)
        return val

    inner, _ = quad(lambda v: abs(v) ** (2 * h) * phi(v), -24, 24,
                    limit=400, points=[0.0])
    return a ** (2 * h + 1) * (-0.5 * sigma ** 2) * inner


class TestNearKernel:
    """The quadrature's float kernel closure against ``model.kernel_w``."""

    @pytest.mark.parametrize("params, j, k", [
        (MfbmParams.bivariate(0.3, 0.6, rho=0.5, eta=0.1), 0, 1),
        (MfbmParams.bivariate(0.3, 0.6, rho=0.5, eta=0.1), 1, 0),
        (MfbmParams.bivariate(0.4, 0.8, rho=0.6), 1, 1),
        (MfbmParams.bivariate(0.3, 0.7, rho=0.4, eta=0.2), 0, 1),   # log branch
        (MfbmParams.bivariate(0.3, 0.7, rho=0.4, eta=0.2), 1, 0),   # log branch
    ])
    def test_matches_kernel_w(self, params, j, k):
        w = wavstats._near_kernel(params, j, k)
        assert w(0.0) == 0.0
        for u in (-600.0, -37.25, -1.0, -0.3, -1e-9, 1e-9, 0.3, 1.0, 2.5, 512.0):
            got, want = w(u), kernel_w(params, j, k, u)
            assert type(got) is float
            assert abs(got - want) <= 1e-14 * abs(want)


class TestTheoreticalCov:
    def test_fbm_wavelet_variance(self):
        w = gaussian_derivative(1)
        for hurst, a in ((0.3, 1.0), (0.7, 2.0)):
            params = MfbmParams.univariate(hurst, sigma=1.4)
            got = theoretical_wavelet_cov(WaveletCovQuery(0, 0, a, a, 0.0), params, w)
            want = flandrin_variance(hurst, 1.4, a, w)
            assert got.real == pytest.approx(want, rel=1e-8)
            assert got.real > 0.0
            assert abs(got.imag) < 1e-12

    def test_scale_doubling_power_law(self):
        params = MfbmParams.bivariate(0.3, 0.4, rho=0.5, eta=0.1)
        w = gaussian_derivative(1)
        c1 = theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, 0.0), params, w)
        c2 = theoretical_wavelet_cov(WaveletCovQuery(0, 1, 2.0, 2.0, 0.0), params, w)
        assert (c2 / c1).real == pytest.approx(2.0 ** (0.7 + 1.0), rel=1e-9)

    def test_agrees_with_2d_quadrature(self):
        params = MfbmParams.bivariate(0.3, 0.6, rho=0.5, eta=0.1)
        w = gaussian_derivative(1)
        for (a1, a2, h) in ((1.0, 1.0, 0.0), (1.0, 2.0, 1.5)):
            one_d = theoretical_wavelet_cov(WaveletCovQuery(0, 1, a1, a2, h), params, w)
            two_d = theoretical_wavelet_cov_2d(WaveletCovQuery(0, 1, a1, a2, h),
                                               params, w, tol=1e-9)
            assert two_d == pytest.approx(one_d, abs=5e-8)

    def test_hermitian_symmetry(self):
        params = MfbmParams.bivariate(0.35, 0.6, rho=0.4, eta=0.15)
        w = HermiteWavelet([(1.0, 1), (0.4j, 2)])
        for (a1, a2, h) in ((1.0, 2.0, 1.0), (2.0, 1.0, -3.0), (1.5, 1.5, 0.5)):
            lhs = theoretical_wavelet_cov(WaveletCovQuery(0, 1, a1, a2, h), params, w)
            rhs = theoretical_wavelet_cov(WaveletCovQuery(1, 0, a2, a1, -h), params, w)
            assert lhs == pytest.approx(np.conj(rhs), rel=1e-9, abs=1e-12)

    def test_near_far_field_agreement(self):
        # both quadrature regimes must agree where they overlap
        params = MfbmParams.bivariate(0.3, 0.6, rho=0.5, eta=0.1)
        w = gaussian_derivative(1)
        L = 10.0 * 2.0
        for h in (L * 2.0, L * 2.0 + 5.0):
            q_far = theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h),
                                            params, w)
            # force the direct route by querying just inside the threshold
            q_near = theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h - 0.5),
                                             params, w)
            q_far_prev = theoretical_wavelet_cov(
                WaveletCovQuery(0, 1, 1.0, 1.0, h + 0.5), params, w)
            # smooth in h: the three values interpolate monotonically
            assert min(abs(q_near), abs(q_far_prev)) <= abs(q_far) * 1.01
            assert abs(q_far) <= max(abs(q_near), abs(q_far_prev)) * 1.01

    def test_near_far_field_agreement_quadrature(self):
        # the quadrature route switches to its series residual at |h| = 2 L
        params = MfbmParams.bivariate(0.3, 0.6, rho=0.5, eta=0.1)
        w = gaussian_derivative(1)
        L = 10.0 * 2.0
        for h in (L * 2.0, L * 2.0 + 5.0):
            q_far = wavelet_cov_quadrature(WaveletCovQuery(0, 1, 1.0, 1.0, h),
                                           params, w)
            q_near = wavelet_cov_quadrature(
                WaveletCovQuery(0, 1, 1.0, 1.0, h - 0.5), params, w)
            q_far_prev = wavelet_cov_quadrature(
                WaveletCovQuery(0, 1, 1.0, 1.0, h + 0.5), params, w)
            assert min(abs(q_near), abs(q_far_prev)) <= abs(q_far) * 1.01
            assert abs(q_far) <= max(abs(q_near), abs(q_far_prev)) * 1.01
            closed = theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h),
                                             params, w)
            assert abs(q_far - closed) <= XCHECK_ABS + XCHECK_REL * abs(closed)

    def test_complex_quadrature_bytes(self):
        # a complex wavelet's real and imaginary quadratures, near (|h| < L)
        # and far (|h| >= 2 L = 60) from the pair correlation's support
        params = MfbmParams.bivariate(0.35, 0.6, rho=0.4, eta=0.15)
        w = HermiteWavelet([(1.0, 1), (0.4j, 2)])
        for h, want in ((1.5, ("5db856a04da3ed3f", "7db2a8d177ccd63f")),
                        (80.0, ("c1aaffe7a61b63bf", "ddc6975d3f4b03bf"))):
            got = wavelet_cov_quadrature(WaveletCovQuery(0, 1, 1.0, 2.0, h),
                                         params, w)
            assert (struct.pack("<d", got.real).hex(),
                    struct.pack("<d", got.imag).hex()) == want

    def test_even_odd_parameter_decomposition(self):
        # rho part even in h, eta part odd in h, for a real wavelet
        w = gaussian_derivative(1)
        rho_only = MfbmParams.bivariate(0.3, 0.5, rho=0.5, eta=0.0)
        eta_only = MfbmParams.bivariate(0.3, 0.5, rho=0.0, eta=0.2)
        for h in (0.7, 2.0, 5.0):
            ce = theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h),
                                         rho_only, w)
            ce_m = theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, -h),
                                           rho_only, w)
            assert ce == pytest.approx(ce_m, rel=1e-9, abs=1e-12)
            co = theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h),
                                         eta_only, w)
            co_m = theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, -h),
                                           eta_only, w)
            assert co == pytest.approx(-co_m, rel=1e-9, abs=1e-12)

    def test_lag_summability_for_high_order(self):
        # alpha - 2M < -1 makes the lag sums Cauchy
        params = MfbmParams.bivariate(0.4, 0.8, rho=0.6)
        w = gaussian_derivative(2)
        hs = np.arange(45.0, 165.0, 4.0)
        mags = [abs(theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h),
                                            params, w)) for h in hs]
        partial = np.cumsum(mags)
        # tail increments shrink: for the expected |h|^(-2.8) decay the last
        # ten increments carry about 8% of the mass of the first ten
        assert partial[-1] - partial[-10] < 0.12 * (partial[9] - partial[0])
        assert mags[-1] / mags[0] < (hs[-1] / hs[0]) ** (-2.5)


# Reference values computed apart from the library, with mpmath at 40 digits
# from the parabolic-cylinder form
#   I = C s^(alpha+1) Gamma(alpha+1) exp(-c^2/4)
#       [(rho - eta) D_nu(c) + (-1)^K (rho + eta) D_nu(-c)],  nu = K - alpha - 1,
# with the log branch as the numerical alpha-derivative of that form.  The
# near-field log-branch values agree with a 40-digit quadrature of the
# defining single integral to better than 1e-23.
POWER_REFERENCE = (   # H = (0.3, 0.45), rho = 0.5, eta = 0.1, psi_3
    ((1.0, 1.0, 30.0), -2.505291870770914e-7),
    ((1.0, 2.0, 60.0), -7.3446063058562605e-8),
    ((2.0, 3.0, -90.0), -2.7346005631017115e-7),
    ((1.0, 1.0, 512.0), -8.2045409220728387e-14),
)
LOG_REFERENCE = (     # H = (0.3, 0.7), rho = 0.4, eta = 0.2
    (((1.0, 1),), (1.0, 2.0, 1.5), 0.55279890512717036),
    (((1.0, 2),), (2.0, 3.0, -40.0), -0.001821423765433309),
    (((1.0, 1),), (1.0, 1.0, 512.0), -0.0012271939931985232),
    (((1.0, 1), (0.5j, 2)), (1.0, 2.0, 3.0),
     -0.19137862117536241 + 0.45023890084682414j),
)


class TestClosedForm:
    def test_power_branch_reference_values(self):
        params = MfbmParams.bivariate(0.3, 0.45, rho=0.5, eta=0.1)
        w = gaussian_derivative(3)
        for (a1, a2, h), want in POWER_REFERENCE:
            got = theoretical_wavelet_cov(WaveletCovQuery(0, 1, a1, a2, h), params, w)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_log_branch_reference_values(self):
        params = MfbmParams.bivariate(0.3, 0.7, rho=0.4, eta=0.2)
        for terms, (a1, a2, h), want in LOG_REFERENCE:
            got = theoretical_wavelet_cov(WaveletCovQuery(0, 1, a1, a2, h), params,
                                          HermiteWavelet(terms))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_one_integral_per_hermite_order(self, monkeypatch):
        # atoms of orders 1, 2, 3 form 9 pairs but only K = 2 .. 6
        orders = []
        power = wavstats._power_integral
        monkeypatch.setattr(wavstats, "_power_integral",
                            lambda K, *args: orders.append(K) or power(K, *args))
        w = HermiteWavelet([(1.0, 1), (0.5j, 2), (-0.25, 3)])
        theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 2.0, 3.0),
                                MfbmParams.bivariate(0.3, 0.45, rho=0.5), w)
        assert orders == [2, 3, 4, 5, 6]


class TestScaleLaw:
    def test_diagonal_correlation_is_one(self):
        params = MfbmParams.bivariate(0.35, 0.6, rho=0.4, eta=0.1)
        res = scale_law_constant(params, gaussian_derivative(1), 0, 0)
        assert res.correlation == pytest.approx(1.0, rel=1e-10)

    def test_scale_free_correlation(self):
        params = MfbmParams.bivariate(0.35, 0.6, rho=0.4, eta=0.1)
        w = gaussian_derivative(2)
        res = scale_law_constant(params, w, 0, 1)
        for a in (1.0, 8.0):
            cov01 = theoretical_wavelet_cov(WaveletCovQuery(0, 1, a, a, 0.0), params, w)
            v0 = theoretical_wavelet_cov(WaveletCovQuery(0, 0, a, a, 0.0), params, w)
            v1 = theoretical_wavelet_cov(WaveletCovQuery(1, 1, a, a, 0.0), params, w)
            corr = cov01 / math.sqrt(v0.real * v1.real)
            assert corr == pytest.approx(res.correlation, rel=1e-8, abs=1e-10)

    def test_prediction_matches_quadrature(self):
        params = MfbmParams.bivariate(0.3, 0.7, rho=0.5, eta=0.2)  # log branch
        w = gaussian_derivative(1)
        res = scale_law_constant(params, w, 0, 1)
        for a in (1.0, 4.0):
            want = theoretical_wavelet_cov(WaveletCovQuery(0, 1, a, a, 0.0), params, w)
            assert res.covariance(a) == pytest.approx(want, rel=1e-8)

    def test_eta_flip_conjugates_z(self):
        # for a complex wavelet the odd kernel part flips sign with eta
        w = HermiteWavelet([(1.0, 1), (0.6j, 2)])
        plus = scale_law_constant(MfbmParams.bivariate(0.3, 0.5, rho=0.4, eta=0.2),
                                  w, 0, 1)
        minus = scale_law_constant(MfbmParams.bivariate(0.3, 0.5, rho=0.4, eta=-0.2),
                                   w, 0, 1)
        assert plus.z_jk.real == pytest.approx(minus.z_jk.real, rel=1e-9)
        assert plus.z_jk.imag == pytest.approx(-minus.z_jk.imag, rel=1e-9)
        assert plus.z_jk.imag != 0.0

    def test_real_wavelet_z_is_real(self):
        res = scale_law_constant(MfbmParams.bivariate(0.3, 0.5, rho=0.4, eta=0.2),
                                 gaussian_derivative(1), 0, 1)
        assert abs(res.z_jk.imag) < 1e-12


class TestAsymptotics:
    def test_kappa_value_m1(self):
        # C(2,1) * |sqrt(2 pi)|^2 = 4 pi at unit scales
        law = asymptotic_law(MfbmParams.bivariate(0.3, 0.4, rho=0.5),
                             gaussian_derivative(1), 0, 1)
        assert law.kappa == pytest.approx(4.0 * math.pi, rel=1e-12)
        assert law.kappa == pytest.approx(12.566370614359172, rel=1e-12)

    def test_tau_power_branch(self):
        # rho=1, eta=0, alpha=0.7, M=1: tau = C(0.7, 2) = -0.105
        assert binom_gen(0.7, 2) == pytest.approx(-0.105, rel=1e-14)
        law = asymptotic_law(MfbmParams.bivariate(0.35, 0.35, rho=1.0),
                             gaussian_derivative(1), 0, 1)
        assert law.tau_plus == pytest.approx(-0.105, rel=1e-12)
        assert law.tau_minus == pytest.approx(-0.105, rel=1e-12)

    def test_tau_log_branch(self):
        # alpha=1, M=1, eta=0.2, h>0: tau = -0.1
        law = asymptotic_law(MfbmParams.bivariate(0.3, 0.7, rho=0.4, eta=0.2),
                             gaussian_derivative(1), 0, 1)
        assert law.log_branch
        assert law.tau_plus == pytest.approx(-0.1, rel=1e-12)
        assert law.tau_minus == pytest.approx(+0.1, rel=1e-12)

    def test_prediction_at_zero_lag(self):
        law = asymptotic_law(MfbmParams.bivariate(0.3, 0.4, rho=0.5),
                             gaussian_derivative(1), 0, 1)
        with pytest.raises(MfbmwaveError, match=r"requires \|h\| > 0"):
            law.value(0.0)

    def test_ratio_approaches_one(self):
        params = MfbmParams.bivariate(0.35, 0.35, rho=1.0)
        w = gaussian_derivative(1)
        devs = []
        for h in (40.0, 80.0, 160.0, 320.0):
            q = theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h), params, w)
            a = asymptotic_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h), params, w)
            devs.append(abs(q / a - 1.0))
        assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))
        assert devs[-1] < 0.01

    def test_ratio_with_unequal_scales(self):
        params = MfbmParams.bivariate(0.4, 0.8, rho=0.6)
        w = gaussian_derivative(2)
        q = theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 2.0, 400.0), params, w)
        a = asymptotic_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 2.0, 400.0), params, w)
        assert abs(q / a - 1.0) < 0.01

    def test_log_branch_ratio(self):
        params = MfbmParams.bivariate(0.3, 0.7, rho=0.4, eta=0.2)
        w = gaussian_derivative(1)
        for h in (300.0, -300.0):
            q = theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h), params, w)
            a = asymptotic_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h), params, w)
            assert abs(q / a - 1.0) < 0.01

    def test_degenerate_prefactor_reported(self):
        # rho + eta sign(h) = 0 for h > 0
        params = MfbmParams.bivariate(0.3, 0.5, rho=0.2, eta=-0.2)
        with pytest.raises(DegenerateAsymptoticsError):
            asymptotic_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, 5.0), params,
                                   gaussian_derivative(1))
        # opposite sign is fine
        val = asymptotic_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, -5.0), params,
                                     gaussian_derivative(1))
        assert val != 0.0

    def test_eta_zero_log_branch_degenerate(self):
        params = MfbmParams.bivariate(0.3, 0.7, rho=0.4, eta=0.0)
        with pytest.raises(DegenerateAsymptoticsError):
            asymptotic_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, 5.0), params,
                                   gaussian_derivative(1))


class TestDecayFit:
    def test_pure_power_law_recovered(self):
        from mfbmwave.estimate import fit_power_law
        xs = 2.0 ** np.arange(5, 10)
        ys = 3.0 * xs ** (-2.0)
        rep = fit_power_law(xs, ys)
        assert rep.slope == pytest.approx(-2.0, abs=1e-12)
        assert rep.slope_se < 1e-12


@pytest.mark.parametrize("a1, a2", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0),
                                    (1.0, math.inf), (True, 1.0), (1.0, "1")])
def test_query_scales_positive_and_finite(a1, a2):
    with pytest.raises(MfbmwaveError, match="scales must be positive"):
        WaveletCovQuery(0, 1, a1, a2)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, True, "0"])
def test_query_lag_finite(h):
    with pytest.raises(MfbmwaveError, match="lag h must be finite"):
        WaveletCovQuery(0, 1, 1.0, 1.0, h)


@pytest.mark.parametrize("a1", [0.0, -1.0, math.nan, math.inf, True])
def test_asymptotic_law_scales(a1):
    # the scales were unchecked: a1 = 0 gave a zero law, NaN a NaN one
    params = MfbmParams.bivariate(0.3, 0.4, rho=0.5)
    for a, b in ((a1, 1.0), (1.0, a1)):
        with pytest.raises(MfbmwaveError, match="scales must be positive"):
            asymptotic_law(params, gaussian_derivative(2), 0, 1, a, b)


@pytest.mark.parametrize("a1, a2, h", [(1.0, 1.0, 10 ** 400),
                                       (1.0, 1.0, -10 ** 400),
                                       (10 ** 400, 1.0, 0.0),
                                       (1.0, 10 ** 400, 0.0)],
                         ids=["h", "-h", "a1", "a2"])
def test_query_fits_a_float(a1, a2, h):
    # such an int compares as finite, and the closed form's float() of it
    # raised OverflowError; the step and finite rules refuse it
    with pytest.raises(MfbmwaveError,
                       match="scales must be positive and finite|lag h must be finite"):
        WaveletCovQuery(0, 1, a1, a2, h)
    query = WaveletCovQuery(0, 1, 2 ** 3, 4, -(2 ** 60))   # ints that fit
    assert (query.a1, query.h) == (8, -(2 ** 60))


@pytest.mark.parametrize("h", [1e300, -1e300])
def test_closed_form_never_nan(h):
    # |h|^alpha overflows on the power branch: an error naming the lag, not
    # a NaN covariance
    params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
    with pytest.raises(MfbmwaveError,
                       match=re.escape(f"lag h = {h} is not finite")):
        theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h), params,
                                gaussian_derivative(1))
