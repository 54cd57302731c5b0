import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import mfbmwave.estimate as estimate
import mfbmwave.model as model
import mfbmwave.wavelets as wavelets
from mfbmwave.model import MfbmParams, MfbmwaveError, params_from_text
from mfbmwave.synth import embedding_report, iter_ensemble, replicate_ensemble
from mfbmwave.wavelets import (
    WaveletField, HermiteWavelet, gaussian_derivative, cwt, cwt_ensemble)
from mfbmwave.wavstats import WaveletCovQuery, theoretical_wavelet_cov, scale_law_constant
from mfbmwave.estimate import (
    fit_power_law,
    jackknife_se,
    empirical_wavelet_cov,
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

    def test_spaced_grid_matches_theory(self, fields):
        # every second shift: lag h is time lag 2h, and the estimate must
        # be read against the theory there
        spaced = [replace(f, coeffs=f.coeffs[:, :, ::2], shifts=f.shifts[::2])
                  for f in fields]
        q = WaveletCovQuery(0, 1, 4.0, 4.0)
        lags = [0, 1, 2, 4]
        out = empirical_wavelet_cov(spaced, q, lags)
        assert out.shift_spacing == 2.0 * fields[0].dt
        hits = 0
        for il, lag in enumerate(lags):
            want = theoretical_wavelet_cov(
                WaveletCovQuery(0, 1, 4.0, 4.0, lag * out.shift_spacing),
                PARAMS, WAVELET)
            z = abs(out.mean[il].real - want.real) / out.se_real[il]
            hits += z < 3.0
        assert hits >= 3

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

    # SHA-256 of the bytes of mean, se_real and se_imag, in that order: how
    # the fields are read, whole or in blocks, must not move a bit
    PINS = {"fields": "d1d2336a5bda0d85ac03485b6048d4e8"
                      "8ba38453e7c21edb38e622c7ecb1ad20",
            "complex_fields": "0f14cf9c2d2efed982a008781bcfd218"
                              "f371a939ec5ed038ff7bc6aeebe69d07"}

    @pytest.mark.parametrize("name", ["fields", "complex_fields"])
    def test_generator_equals_list(self, name, request, monkeypatch):
        flds = request.getfixturevalue(name)
        q = WaveletCovQuery(0, 1, 4.0, 8.0)
        # blocks at the default size (75 real fields, 93 complex ones); then
        # blocks of 7 fields, so 240 and 45 replicates each end in a partial
        # block
        for per_block in (None, 7):
            if per_block:
                monkeypatch.setattr(model, "CHUNK_BYTES", per_block * 2
                                    * flds[0].coeffs.itemsize * flds[0].shifts.size)
            for source in (flds, (f for f in flds)):
                got = empirical_wavelet_cov(source, q, self.LAGS)
                digest = hashlib.sha256(b"".join(
                    getattr(got, part).tobytes()
                    for part in ("mean", "se_real", "se_imag"))).hexdigest()
                assert digest == self.PINS[name]
                assert got.replicates == len(flds)

    def test_too_few_from_generator(self, fields):
        q = WaveletCovQuery(0, 1, 4.0, 4.0)
        with pytest.raises(ValueError, match="need >= 30"):
            empirical_wavelet_cov((f for f in fields[:29]), q, [0])
        with pytest.raises(ValueError, match="need >= 30"):
            empirical_wavelet_cov(iter(()), q, [0])


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


class TestChunkSizes:
    """Items per chunk of each stage of the streamed chain under one
    ``model.CHUNK_BYTES``.  Synthesis and transform chunks are those of the
    former per-stage sizes: 512 KB of noise, and 1 MB of a path's values or
    field, whichever is larger."""

    PARAMS = {1: MfbmParams.univariate(0.3), 2: PARAMS,
              3: params_from_text("p: 3\nH: 0.3 0.5 0.7\nsigma: 1 1 1\n"
                                  "rho: 1 0.3 1 0.2 0.3 1\n"
                                  "eta: 0.05 0.05 0.05\n")}

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", [64, 4096, 2 ** 17])
    def test_synthesis(self, p, n):
        # the paths of one chunk view one block; two whole chunks and the
        # real half of a draw
        params = self.PARAMS[p]
        m = embedding_report(params, n, 1.0).circulant_size
        draws = max(1, (512 << 10) // (16 * m * p))
        blocks = {}
        for path in iter_ensemble(params, n, 1.0, 5, 4 * draws + 1):
            blocks.setdefault(id(path.values.base), path.values.base)
        assert [b.shape for b in blocks.values()] == [
            (2 * draws, p, n), (2 * draws, p, n), (1, p, n)]

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", [128, 4096, 2 ** 17])
    def test_transform(self, monkeypatch, p, n):
        # 128 points, not 64, admit scale 4; three scales make the field
        # larger than the values at 4096 points and 2^17, not at 128
        scales = [4.0, 5.0, 6.0]
        field = 8 * p * len(scales) * (n - 120)
        per_chunk = max(1, (1 << 20) // max(8 * p * n, field))
        rows = []
        transform = wavelets._transform
        monkeypatch.setattr(wavelets, "_transform", lambda values, *args:
                            rows.append(values.shape[0])
                            or transform(values, *args))
        paths = iter_ensemble(self.PARAMS[p], n, 1.0, 5, 2 * per_chunk + 1)
        fields = cwt_ensemble(paths, gaussian_derivative(1), scales)
        assert next(fields).coeffs.nbytes == field
        assert 1 + sum(1 for _ in fields) == 2 * per_chunk + 1
        assert rows == [per_chunk, per_chunk, 1]

    @pytest.mark.parametrize("cast, chunk, per_block", [
        (False, None, 75), (True, None, 37), (False, 1, 1)])
    def test_estimator(self, fields, monkeypatch, cast, chunk, per_block):
        # 864 shifts: blocks of 75 real or 37 complex fields; a chunk of one
        # byte holds one field
        if cast:
            fields = TestRealFields.as_complex(fields)
        if chunk:
            monkeypatch.setattr(model, "CHUNK_BYTES", chunk)
        itemsize, nb = fields[0].coeffs.itemsize, fields[0].shifts.size
        assert per_block == max(1, model.CHUNK_BYTES // (2 * itemsize * nb))
        rows = []
        lagged_means = estimate._lagged_means
        monkeypatch.setattr(estimate, "_lagged_means", lambda dj, *args:
                            rows.append(dj.shape[0])
                            or lagged_means(dj, *args))
        empirical_wavelet_cov(fields, WaveletCovQuery(0, 1, 4.0, 8.0), [0, 1])
        whole, rest = divmod(len(fields), per_block)
        assert rows == [per_block] * whole + [rest] * (rest > 0)


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


class TestErrorContract:
    """Each input check of the estimators raises the package's one error."""

    @staticmethod
    def field(shifts):
        return WaveletField(coeffs=np.zeros((1, 1, len(shifts))),
                            scales=np.array([4.0]), shifts=shifts, dt=1.0, n=64)

    @pytest.mark.parametrize("shifts", [
        [40, 41, 43, 47, 55, 71, 103, 167, 300, 400],   # non-uniform
        [50, 40, 45],                                    # unsorted
        [50, 45, 40, 35],                                # descending
        [40, 40, 40]])                                   # repeated
    def test_shift_grid_refused(self, shifts):
        # a lag counts shifts, so only a uniform ascending grid has one
        # time step per lag
        fld = self.field(np.array(shifts, dtype=float))
        with pytest.raises(MfbmwaveError, match="shift grid must be uniform "
                                                "and strictly ascending"):
            empirical_wavelet_cov([fld] * 30, WaveletCovQuery(0, 0, 4.0, 4.0),
                                  [0, 1])

    @pytest.mark.parametrize("shifts, spacing", [
        ([40.0], 1.0),                  # one shift: only lag 0, spacing dt
        ([40.0, 42.0, 44.0, 46.0], 2.0)])  # uniform, not unit
    def test_shift_grid_admitted(self, shifts, spacing):
        out = empirical_wavelet_cov([self.field(np.array(shifts))] * 30,
                                    WaveletCovQuery(0, 0, 4.0, 4.0), [0])
        assert out.shift_spacing == spacing and out.replicates == 30

    @pytest.mark.parametrize("a1, a2", [(5.0, 4.0), (4.0, 5.0)])
    def test_missing_scale_refused(self, a1, a2):
        fld = WaveletField(coeffs=np.zeros((1, 2, 3)), scales=[4.0, 8.0],
                           shifts=[40.0, 41.0, 42.0], dt=1.0, n=64)
        with pytest.raises(MfbmwaveError) as err:
            empirical_wavelet_cov([fld] * 30, WaveletCovQuery(0, 0, a1, a2),
                                  [0])
        # still a KeyError to callers that caught one; the message unquoted
        assert isinstance(err.value, KeyError)
        assert str(err.value) == "scale 5.0 not present in field"

    def test_mixed_shift_grids_refused(self, monkeypatch):
        # as many shifts at spacing 1 as at spacing 2: read at the first
        # field's spacing, half the lag-1 products would be at time lag 2
        paths = replicate_ensemble(MfbmParams.bivariate(0.4, 0.7, rho=0.5),
                                   512, 1.0, seed=11, count=40)
        wavelet = gaussian_derivative(2)
        flds = [cwt(path, wavelet, [4.0],
                    range(40, 240) if r < 20 else range(40, 440, 2))
                for r, path in enumerate(paths)]
        assert flds[0].shifts.size == flds[20].shifts.size
        query = WaveletCovQuery(0, 1, 4.0, 4.0)
        monkeypatch.setattr(model, "CHUNK_BYTES", 7 * 2 * 8 * 200)
        for fields in (flds, iter(flds)):
            with pytest.raises(MfbmwaveError,
                               match="field 20 has other shifts than field 0"):
                empirical_wavelet_cov(fields, query, [0, 1])
        assert empirical_wavelet_cov(flds[20:] * 2, query, [0, 1]).shift_spacing \
            == 2.0

    def test_other_scales_refused(self):
        # scale 8 is row 1 of the first field and row 0 of field 31
        same = self.field(np.arange(40.0, 50.0))
        fld = WaveletField(coeffs=np.zeros((1, 2, 10)), scales=[4.0, 8.0],
                           shifts=np.arange(40.0, 50.0), dt=1.0, n=64)
        other = replace(fld, scales=np.array([8.0, 16.0]))
        with pytest.raises(MfbmwaveError,
                           match="field 31 has other scales than field 0"):
            empirical_wavelet_cov([fld] * 31 + [other] * 9,
                                  WaveletCovQuery(0, 0, 8.0, 8.0), [0])
        with pytest.raises(MfbmwaveError,
                           match="field 30 has other scales than field 0"):
            empirical_wavelet_cov([same] * 30 + [fld],
                                  WaveletCovQuery(0, 0, 4.0, 4.0), [0])

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
        ([0, 10 ** 300], 10, "exceeds available shifts"),
        # np.ravel made [0, True] the int array [0, 1]
        ([0, True], 10, "got True"), ([False, 1], 10, "got False"),
        ([0, np.True_], 10, "got np.True_"), ([0, "1"], 10, "got '1'")])
    def test_refused(self, lags, n_shifts, message):
        with pytest.raises(MfbmwaveError, match=message):
            estimate._check_lags(lags, n_shifts)

    def test_admitted(self):
        estimate._check_lags([0, -9, 9], 10)
        estimate._check_lags(np.array([0, 3]))
        estimate._check_lags([np.int64(0), np.float32(2.0), 4.0], 10)

    def test_integral_floats_admitted(self, fields):
        got = empirical_wavelet_cov(fields, WaveletCovQuery(0, 1, 4.0, 4.0),
                                    [0.0, 2.0])
        assert got.lags.tolist() == [0, 2] and got.lags.dtype == int

    @pytest.mark.parametrize("lags, message", [
        ([0, 0.9], "got 0.9"), ([0, 1.5], "got 1.5"), ([0, math.nan], "got nan"),
        ([0, -math.inf], "got -inf"), ([0, 1e30], "exceeds available shifts")])
    def test_not_integral_refused(self, fields, lags, message):
        # a lag is a finite integral number, checked before the cast to int,
        # which reads 0.9 as lag 0 and 1.5 as lag 1
        with pytest.raises(MfbmwaveError, match=message):
            estimate._check_lags(lags, 864)
        with pytest.raises(MfbmwaveError, match=message):
            empirical_wavelet_cov(fields, WaveletCovQuery(0, 1, 4.0, 4.0), lags)

    def test_fit_needs_two_points(self):
        with pytest.raises(MfbmwaveError, match="needs >= 2 usable points"):
            fit_power_law([1.0], [1.0])

    @pytest.mark.parametrize("xs, message", [
        ([2.0, 2.0, 2.0], "got 3 \\(0 excluded\\)"),
        ([2.0, -1.0, 2.0], "got 2 \\(1 excluded\\)")])
    def test_fit_needs_two_distinct_x(self, xs, message):
        # equal x leave the slope undefined: refused, not a NaN fit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MfbmwaveError, match="distinct x, " + message):
                fit_power_law(xs, [1.0, 2.0, 3.0])
