import math
from dataclasses import replace

import numpy as np
import pytest

import mfbmwave.estimate as estimate
from mfbmwave.model import MfbmParams, MfbmwaveError
from mfbmwave.synth import replicate_ensemble
from mfbmwave.wavelets import (
    WaveletField, HermiteWavelet, gaussian_derivative, cwt, cwt_ensemble)
from mfbmwave.wavstats import WaveletCovQuery, theoretical_wavelet_cov, scale_law_constant
from mfbmwave.spectral import cross_spectral_density
from mfbmwave.estimate import (
    fit_power_law,
    jackknife_se,
    empirical_wavelet_cov,
    empirical_cross_spectrum,
)

PARAMS = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
WAVELET = gaussian_derivative(1)
SCALES = [4.0, 8.0]


@pytest.fixture(scope="module")
def fields():
    paths = replicate_ensemble(PARAMS, 1024, 1.0, seed=101, count=240)
    return [cwt(p, WAVELET, SCALES) for p in paths]


class TestFitPowerLaw:
    def test_exact_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        rep = fit_power_law(xs, 3.0 * xs ** -2.0)
        assert rep.slope == pytest.approx(-2.0, abs=1e-13)
        assert rep.slope_se == pytest.approx(0.0, abs=1e-12)
        assert rep.n_used == 5 and rep.n_excluded == 0

    def test_two_point_fit_has_no_standard_error(self):
        rep = fit_power_law([2.0, 30.0], [1.0, 0.1])
        assert rep.slope == pytest.approx(math.log(0.1) / math.log(15.0),
                                          rel=1e-14)
        assert math.isnan(rep.slope_se)
        assert rep.n_used == 2

    def test_scale_law_slope_from_theory(self):
        scales = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        covs = [theoretical_wavelet_cov(WaveletCovQuery(0, 1, a, a, 0.0),
                                        PARAMS, WAVELET) for a in scales]
        rep = fit_power_law(scales, np.abs(covs))
        assert rep.slope == pytest.approx(0.4 + 0.7 + 1.0, abs=0.02)

    def test_exclusions_reported(self):
        xs = np.array([1.0, 2.0, 4.0, -3.0, 8.0])
        ys = np.array([1.0, 0.5, 0.25, 0.125, 0.0])
        rep = fit_power_law(xs, ys)
        assert rep.n_excluded == 2
        assert rep.n_used == 3

    def test_range_filter(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        rep = fit_power_law(xs, xs ** -1.0, fit_range=(2.0, 8.0))
        assert rep.n_used == 3


class TestJackknife:
    def test_matches_closed_form_for_mean(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(200)
        assert jackknife_se(x) == pytest.approx(x.std(ddof=1) / math.sqrt(x.size),
                                                rel=1e-10)

    def test_se_shrinks_with_replicates(self):
        # doubling the replicate count shrinks the jackknife SE by ~ 1/sqrt(2)
        ratios = []
        for trial in range(10):
            paths = replicate_ensemble(PARAMS, 256, 1.0, seed=500 + trial, count=64)
            flds = [cwt(p, WAVELET, [4.0]) for p in paths]
            q = WaveletCovQuery(0, 1, 4.0, 4.0)
            half = empirical_wavelet_cov(flds[:32], q, [0])
            full = empirical_wavelet_cov(flds, q, [0])
            ratios.append(full.se_real[0] / half.se_real[0])
        mean_ratio = np.mean(ratios)
        assert abs(mean_ratio - 1.0 / math.sqrt(2.0)) < 0.2 * (1.0 / math.sqrt(2.0))


class TestEmpiricalCov:
    def test_zero_fields_give_zero(self):
        coeffs = np.zeros((2, 1, 64), dtype=complex)
        fld = WaveletField(coeffs=coeffs, scales=np.array([4.0]),
                           shifts=np.arange(64.0), dt=1.0, n=256)
        out = empirical_wavelet_cov([fld] * 30, WaveletCovQuery(0, 1, 4.0, 4.0),
                                    [0, 1, 2])
        np.testing.assert_array_equal(out.mean, 0.0)

    def test_requires_min_replicates(self):
        coeffs = np.zeros((1, 1, 8), dtype=complex)
        fld = WaveletField(coeffs=coeffs, scales=np.array([4.0]),
                           shifts=np.arange(8.0), dt=1.0, n=64)
        with pytest.raises(ValueError):
            empirical_wavelet_cov([fld] * 10, WaveletCovQuery(0, 0, 4.0, 4.0), [0])

    def test_lag_zero_required(self):
        coeffs = np.zeros((1, 1, 8), dtype=complex)
        fld = WaveletField(coeffs=coeffs, scales=np.array([4.0]),
                           shifts=np.arange(8.0), dt=1.0, n=64)
        with pytest.raises(ValueError):
            empirical_wavelet_cov([fld] * 30, WaveletCovQuery(0, 0, 4.0, 4.0), [1, 2])

    def test_matches_theory(self, fields):
        q = WaveletCovQuery(0, 1, 4.0, 4.0)
        lags = [0, 1, 2, 4, 8]
        out = empirical_wavelet_cov(fields, q, lags)
        hits = 0
        for il, lag in enumerate(lags):
            want = theoretical_wavelet_cov(
                WaveletCovQuery(0, 1, 4.0, 4.0, lag * out.shift_spacing),
                PARAMS, WAVELET)
            z = abs(out.mean[il].real - want.real) / out.se_real[il]
            hits += z < 3.0
        assert hits >= 4

    def test_cross_scale_matches_theory(self, fields):
        q = WaveletCovQuery(0, 1, 4.0, 8.0)
        out = empirical_wavelet_cov(fields, q, [0, 2])
        for il, lag in enumerate([0, 2]):
            want = theoretical_wavelet_cov(
                WaveletCovQuery(0, 1, 4.0, 8.0, lag * out.shift_spacing),
                PARAMS, WAVELET)
            z = abs(out.mean[il].real - want.real) / out.se_real[il]
            assert z < 4.0

    def test_even_in_lag_when_time_reversible(self):
        params = MfbmParams.bivariate(0.4, 0.6, rho=0.5, eta=0.0)
        paths = replicate_ensemble(params, 512, 1.0, seed=301, count=100)
        flds = [cwt(p, WAVELET, [4.0]) for p in paths]
        q = WaveletCovQuery(0, 1, 4.0, 4.0)
        out = empirical_wavelet_cov(flds, q, [-4, -2, 0, 2, 4])
        for neg, pos in ((0, 4), (1, 3)):
            diff = abs(out.mean[neg].real - out.mean[pos].real)
            se = math.hypot(out.se_real[neg], out.se_real[pos])
            assert diff < 3.5 * se

    def test_instantaneous_correlation_estimate(self, fields):
        # scale-free correlation at one scale, against the exact constant
        q01 = WaveletCovQuery(0, 1, 4.0, 4.0)
        q00 = WaveletCovQuery(0, 0, 4.0, 4.0)
        q11 = WaveletCovQuery(1, 1, 4.0, 4.0)
        c01 = empirical_wavelet_cov(fields, q01, [0]).mean[0].real
        c00 = empirical_wavelet_cov(fields, q00, [0]).mean[0].real
        c11 = empirical_wavelet_cov(fields, q11, [0]).mean[0].real
        got = c01 / math.sqrt(c00 * c11)
        want = scale_law_constant(PARAMS, WAVELET, 0, 1).correlation
        assert got == pytest.approx(want.real, abs=0.05)


class TestEmpiricalSpectrum:
    def test_white_coefficients_flat(self):
        rng = np.random.default_rng(11)
        s2, nb, reps = 1.7, 512, 60
        flds = []
        for _ in range(reps):
            coeffs = math.sqrt(s2) * (rng.standard_normal((1, 1, nb))
                                      + 0j * np.zeros((1, 1, nb)))
            flds.append(WaveletField(coeffs=coeffs, scales=np.array([4.0]),
                                     shifts=np.arange(float(nb)), dt=1.0, n=1024))
        omegas = np.linspace(0.3, 2.8, 12)
        out = empirical_cross_spectrum(flds, WaveletCovQuery(0, 0, 4.0, 4.0), omegas)
        # sampled white sequence has flat density s2 * spacing
        target = s2 * 1.0
        z = np.abs(out.mean.real - target) / out.se_real
        assert np.mean(z < 4.0) > 0.9

    def test_matches_spectral_density(self):
        # scale 2 keeps the Gaussian transform roll-off inside the tested
        # band; at larger scales the density falls below the leakage floor
        # well before omega = 2
        paths = replicate_ensemble(PARAMS, 1024, 0.5, seed=202, count=240)
        flds = [cwt(p, WAVELET, [2.0]) for p in paths]
        q = WaveletCovQuery(0, 1, 2.0, 2.0)
        omegas = np.linspace(0.05, 2.0, 24)
        out = empirical_cross_spectrum(flds, q, omegas)
        theory = cross_spectral_density(q, PARAMS, WAVELET, omegas).values
        z_re = np.abs(out.mean.real - theory.real) / out.se_real
        z_im = np.abs(out.mean.imag - theory.imag) / out.se_imag
        assert np.mean(z_re < 4.0) > 0.85
        assert np.mean(z_im < 4.0) > 0.85

    def test_parseval_consistency(self, fields):
        q = WaveletCovQuery(0, 0, 4.0, 4.0)
        spacing = 1.0
        omegas = np.linspace(1e-3, math.pi / spacing, 2048)
        out = empirical_cross_spectrum(fields, q, omegas)
        integral = 2.0 * np.trapezoid(out.mean.real, omegas) / (2.0 * math.pi)
        lag0 = empirical_wavelet_cov(fields, q, [0]).mean[0].real
        assert integral == pytest.approx(lag0, rel=0.05)

    def test_rejects_nonuniform_shifts(self):
        coeffs = np.zeros((1, 1, 9), dtype=complex)
        shifts = np.array([0.0, 1.0, 2.0, 3.0, 4.5, 6.0, 7.0, 8.0, 9.0])
        fld = WaveletField(coeffs=coeffs, scales=np.array([4.0]),
                           shifts=shifts, dt=1.0, n=64)
        with pytest.raises(ValueError):
            empirical_cross_spectrum([fld] * 30, WaveletCovQuery(0, 0, 4.0, 4.0),
                                     np.array([0.5]))


def loop_wavelet_cov(fields, q, lags):
    """Per-replicate, per-lag complex means and a scalar jackknife per lag."""
    ia1, ia2 = fields[0].scale_index(q.a1), fields[0].scale_index(q.a2)
    per_rep = np.empty((len(fields), len(lags)), dtype=complex)
    for r, f in enumerate(fields):
        dj, dk = f.coeffs[q.j, ia1], f.coeffs[q.k, ia2]
        nb = dj.size
        for il, lag in enumerate(lags):
            if lag >= 0:
                per_rep[r, il] = (dj[lag:] * np.conj(dk[:nb - lag])).mean()
            else:
                per_rep[r, il] = (dj[:nb + lag] * np.conj(dk[-lag:])).mean()

    def jack(v):
        r = v.size
        loo = (v.sum() - v) / (r - 1)
        return math.sqrt((r - 1) / r * np.sum((loo - loo.mean()) ** 2))

    se_re = np.array([jack(per_rep[:, il].real) for il in range(len(lags))])
    se_im = np.array([jack(per_rep[:, il].imag) for il in range(len(lags))])
    return per_rep.mean(axis=0), se_re, se_im


def loop_cross_spectrum(fields, q, omegas):
    """Two vector-matrix products per field."""
    ia1, ia2 = fields[0].scale_index(q.a1), fields[0].scale_index(q.a2)
    shifts = fields[0].shifts
    delta = shifts[1] - shifts[0]
    taper = np.hanning(shifts.size)
    norm = delta * np.sum(taper ** 2)
    phase = np.exp(-1j * np.outer(shifts - shifts[0], omegas))
    per_rep = np.array([
        delta * ((taper * f.coeffs[q.j, ia1]) @ phase)
        * np.conj(delta * ((taper * f.coeffs[q.k, ia2]) @ phase)) / norm
        for f in fields])
    return per_rep.mean(axis=0)


class TestStreamedEstimators:
    LAGS = [-17, -4, -1, 0, 1, 2, 5, 17, 60]

    @pytest.fixture(scope="class")
    def complex_fields(self):
        paths = replicate_ensemble(PARAMS, 512, 1.0, seed=77, count=45)
        wavelet = HermiteWavelet([(1.0, 1), (0.5j, 2)])
        return list(cwt_ensemble(paths, wavelet, [4.0, 8.0]))

    @pytest.mark.parametrize("q", [WaveletCovQuery(0, 1, 4.0, 4.0),
                                   WaveletCovQuery(1, 0, 8.0, 4.0),
                                   WaveletCovQuery(1, 1, 4.0, 4.0)])
    def test_matches_loop_reference(self, fields, complex_fields, q):
        # mean to 1e-14; the jackknife SE is a difference of sums whose
        # condition number (|estimate| / its spread, about 20 here) scales
        # the per-replicate rounding, so it is held to 1e-13
        for flds in (fields, complex_fields):
            out = empirical_wavelet_cov(flds, q, self.LAGS)
            mean, se_re, se_im = loop_wavelet_cov(flds, q, self.LAGS)
            scale = np.abs(mean).max()
            np.testing.assert_allclose(out.mean, mean, rtol=1e-14, atol=1e-14 * scale)
            se_scale = max(se_re.max(), se_im.max())
            np.testing.assert_allclose(out.se_real, se_re, rtol=1e-13,
                                       atol=1e-13 * se_scale)
            np.testing.assert_allclose(out.se_imag, se_im, rtol=1e-13,
                                       atol=1e-13 * se_scale)
            assert out.replicates == len(flds)

    def test_real_rows_give_zero_imaginary_part(self, fields):
        out = empirical_wavelet_cov(fields, WaveletCovQuery(0, 1, 4.0, 8.0), self.LAGS)
        assert not out.mean.imag.any() and not out.se_imag.any()

    def test_generator_equals_list(self, fields, monkeypatch):
        q = WaveletCovQuery(0, 1, 4.0, 8.0)
        want = empirical_wavelet_cov(fields, q, self.LAGS)
        # blocks of 7 fields: 240 replicates end in a partial block
        monkeypatch.setattr(estimate, "_BLOCK_BYTES",
                            7 * 2 * fields[0].coeffs.itemsize * fields[0].shifts.size)
        for source in (fields, (f for f in fields)):
            got = empirical_wavelet_cov(source, q, self.LAGS)
            np.testing.assert_array_equal(got.mean, want.mean)
            np.testing.assert_array_equal(got.se_real, want.se_real)
            np.testing.assert_array_equal(got.se_imag, want.se_imag)
            assert got.replicates == want.replicates

    def test_too_few_from_generator(self, fields):
        q = WaveletCovQuery(0, 1, 4.0, 4.0)
        with pytest.raises(ValueError, match="need >= 30"):
            empirical_wavelet_cov((f for f in fields[:29]), q, [0])
        with pytest.raises(ValueError, match="need >= 30"):
            empirical_wavelet_cov(iter(()), q, [0])

    def test_cross_spectrum_matches_loop(self, fields, complex_fields, monkeypatch):
        # the periodogram falls by more than ten decades over these
        # frequencies, and far below its peak both versions hold DFT
        # rounding only, so the agreement is normwise
        omegas = np.linspace(0.05, 2.0, 64)
        for flds in (fields, complex_fields):
            monkeypatch.setattr(estimate, "_BLOCK_BYTES",
                                7 * 2 * flds[0].coeffs.itemsize * flds[0].shifts.size)
            q = WaveletCovQuery(0, 1, 4.0, 8.0)
            want = loop_cross_spectrum(flds, q, omegas)
            got = empirical_cross_spectrum((f for f in flds), q, omegas)
            np.testing.assert_allclose(got.mean, want, rtol=0.0,
                                       atol=1e-13 * np.abs(want).max())


class TestRealFields:
    """A real field and the same field cast to complex give the same bits."""

    LAGS = np.array([-17, -4, -1, 0, 1, 2, 5, 17, 60])

    @staticmethod
    def as_complex(fields):
        return [replace(f, coeffs=f.coeffs.astype(complex)) for f in fields]

    def test_fields_are_real(self, fields):
        assert fields[0].coeffs.dtype == np.float64

    def test_lagged_means(self, fields):
        dj = np.stack([f.coeffs[0, 0] for f in fields[:40]])
        dk = np.stack([f.coeffs[1, 1] for f in fields[:40]])
        real = estimate._lagged_means(dj, dk, self.LAGS)
        cast = estimate._lagged_means(dj.astype(complex), dk.astype(complex),
                                      self.LAGS)
        assert_bits_equal(real, cast)

    def test_wavelet_cov(self, fields):
        q = WaveletCovQuery(0, 1, 4.0, 8.0)
        real = empirical_wavelet_cov(fields, q, self.LAGS)
        cast = empirical_wavelet_cov(self.as_complex(fields), q, self.LAGS)
        for name in ("mean", "se_real", "se_imag"):
            assert_bits_equal(getattr(real, name), getattr(cast, name))

    def test_cross_spectrum(self, fields):
        q = WaveletCovQuery(0, 1, 4.0, 8.0)
        omegas = np.linspace(0.05, 2.0, 16)
        real = empirical_cross_spectrum(fields[:60], q, omegas)
        cast = empirical_cross_spectrum(self.as_complex(fields[:60]), q, omegas)
        for name in ("mean", "se_real", "se_imag"):
            assert_bits_equal(getattr(real, name), getattr(cast, name))


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


class TestErrorContract:
    """Each input check of the estimators raises the package's one error."""

    @staticmethod
    def field(shifts):
        return WaveletField(coeffs=np.zeros((1, 1, len(shifts))),
                            scales=np.array([4.0]), shifts=shifts, dt=1.0, n=64)

    def test_too_few_shifts(self):
        fld = self.field(np.arange(7.0))
        with pytest.raises(MfbmwaveError, match="too few shifts"):
            empirical_cross_spectrum([fld] * 30, WaveletCovQuery(0, 0, 4.0, 4.0),
                                     np.array([0.5]))

    def test_nonuniform_shifts(self):
        fld = self.field(np.array([0.0, 1.0, 2.0, 3.0, 4.5, 6.0, 7.0, 8.0, 9.0]))
        with pytest.raises(MfbmwaveError, match="shift grid must be uniform"):
            empirical_cross_spectrum([fld] * 30, WaveletCovQuery(0, 0, 4.0, 4.0),
                                     np.array([0.5]))

    def test_negative_standard_error(self):
        with pytest.raises(MfbmwaveError, match="standard errors must be nonnegative"):
            estimate.EmpiricalCov(query=WaveletCovQuery(0, 0, 4.0, 4.0),
                                  lags=np.array([0]), mean=np.zeros(1),
                                  se_real=np.array([-1.0]), se_imag=np.zeros(1),
                                  replicates=30, shift_spacing=1.0)


class TestEmpiricalDecaySlope:
    @pytest.mark.slow
    def test_decay_exponent_from_monte_carlo(self):
        # large-lag slope of the empirical cross-covariance approaches
        # H_j + H_k - 2M.  The slope spreads by 0.1-0.2 from seed to seed
        # at 1200 replicates, so 4800 are needed for the 0.15 tolerance; the
        # fields are streamed from a generator, so only the paths are held
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        paths = replicate_ensemble(params, 8192, 1.0, seed=607, count=4800)
        lags = np.array([0, 32, 48, 64, 96, 128])
        est = empirical_wavelet_cov(cwt_ensemble(paths, WAVELET, [4.0]),
                                    WaveletCovQuery(0, 1, 4.0, 4.0), lags)
        assert est.replicates == 4800
        rep = fit_power_law(lags[1:].astype(float), np.abs(est.mean.real[1:]))
        assert rep.slope == pytest.approx(0.4 + 0.7 - 2.0, abs=0.15)


class TestFieldStationarity:
    def test_coefficient_ensemble_mean_zero(self, fields):
        # zero-mean Gaussian field: replicate mean of d vanishes
        reps = len(fields)
        coeffs = np.stack([f.coeffs[0, 0, ::50].real for f in fields])
        mean = coeffs.mean(axis=0)
        se = coeffs.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.mean(np.abs(mean) < 4.0 * se) > 0.9

    def test_shift_covariance_stationary(self, fields):
        # Cov(d^0_{a, b+h}, d^1_{a, b}) does not depend on the base point b
        reps = len(fields)
        h = 3
        b0, b1 = 100, 700
        prods0 = np.array([(f.coeffs[0, 0, b0 + h] * np.conj(f.coeffs[1, 0, b0])).real
                           for f in fields])
        prods1 = np.array([(f.coeffs[0, 0, b1 + h] * np.conj(f.coeffs[1, 0, b1])).real
                           for f in fields])
        diff = prods0.mean() - prods1.mean()
        se = math.sqrt(prods0.var(ddof=1) / reps + prods1.var(ddof=1) / reps)
        assert abs(diff) < 3.5 * se


class TestUnbiasedness:
    def test_zscores_standard_normal_like(self):
        # z-scores of (empirical - theory) / SE at lag 0 across independent
        # configurations should average near zero
        rng = np.random.default_rng(42)
        zs = []
        for c in range(50):
            h1, h2 = rng.uniform(0.25, 0.8, size=2)
            rho = rng.uniform(-0.3, 0.3)
            params = MfbmParams.bivariate(h1, h2, rho=rho)
            paths = replicate_ensemble(params, 256, 1.0, seed=9000 + c, count=40)
            flds = [cwt(p, WAVELET, [4.0]) for p in paths]
            q = WaveletCovQuery(0, 1, 4.0, 4.0)
            out = empirical_wavelet_cov(flds, q, [0])
            want = theoretical_wavelet_cov(q, params, WAVELET)
            zs.append((out.mean[0].real - want.real) / out.se_real[0])
        assert abs(np.mean(zs)) < 0.5


class TestLagRule:
    @pytest.mark.parametrize("lags, n_shifts, message", [
        ([1, 2], None, "lag 0"), ([], 10, "lag 0"),
        ([0, -10], 10, "lag 10 exceeds available shifts \\(10\\)"),
        ([0, 10 ** 300], 10, "exceeds available shifts")])
    def test_refused(self, lags, n_shifts, message):
        with pytest.raises(MfbmwaveError, match=message):
            estimate._check_lags(lags, n_shifts)

    def test_admitted(self):
        estimate._check_lags([0, -9, 9], 10)
        estimate._check_lags(np.array([0, 3]))

    def test_fit_needs_two_points(self):
        with pytest.raises(MfbmwaveError, match="needs >= 2 usable points"):
            fit_power_law([1.0], [1.0])
