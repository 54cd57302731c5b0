import hashlib
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import hermite_e
from scipy.fft import next_fast_len
from scipy.integrate import quad

import mfbmwave.model as model
import mfbmwave.wavelets as wavelets
from mfbmwave.model import MfbmParams, MfbmwaveError
from mfbmwave.synth import replicate_ensemble
from mfbmwave.wavelets import (
    HermiteWavelet,
    GridError,
    gaussian_derivative,
    cwt,
    cwt_ensemble,
    shift_margin,
    valid_shift_range,
    TRUNCATION_RADIUS,
)
from oracles import wavelet_autocorrelation

SQRT_2PI = math.sqrt(2.0 * math.pi)


def quad_moment(wavelet, m):
    re, _ = quad(lambda t: t ** m * np.real(wavelet.eval(t)),
                 -TRUNCATION_RADIUS, TRUNCATION_RADIUS, limit=200)
    im, _ = quad(lambda t: t ** m * np.imag(wavelet.eval(t)),
                 -TRUNCATION_RADIUS, TRUNCATION_RADIUS, limit=200)
    return complex(re, im)


class TestGaussianDerivative:
    def test_order_bounds(self):
        with pytest.raises(ValueError):
            gaussian_derivative(0)
        with pytest.raises(ValueError):
            gaussian_derivative(13)

    def test_first_order_shape_and_moment(self):
        w = gaussian_derivative(1)
        ts = np.linspace(-4, 4, 41)
        np.testing.assert_allclose(w.eval(ts), ts * np.exp(-0.5 * ts ** 2),
                                   rtol=1e-14, atol=1e-15)
        assert complex(w.moment) == pytest.approx(SQRT_2PI, rel=1e-14)
        assert abs(w.moment - 2.5066282746310002) < 1e-12
        assert quad_moment(w, 1) == pytest.approx(SQRT_2PI, rel=1e-10)

    def test_vanishing_moments_by_quadrature(self):
        for M in (1, 2, 3, 5):
            w = gaussian_derivative(M)
            for m in range(M):
                assert abs(quad_moment(w, m)) < 1e-10
            assert quad_moment(w, M) == pytest.approx(
                math.factorial(M) * SQRT_2PI, rel=1e-9)

    def test_ft_zero_at_origin(self):
        for M in (1, 2, 4):
            assert gaussian_derivative(M).eval_ft(0.0) == 0.0

    def test_ft_array_bits(self):
        # SHA-256 recorded before the coefficients c (-i)^m were made once
        w = HermiteWavelet([(1.0, 1), (0.5j, 2)])
        got = w.eval_ft(np.linspace(-12.0, 12.0, 896))
        assert hashlib.sha256(got.tobytes()).hexdigest() == (
            "67c88daf24aac7a8a2febd4177bf5b3ea41c94616f9187eba22181b77ce3b632")

    @pytest.mark.parametrize("omega, re, im", [
        (0.37, "-0x1.48252332cb8d6p-3", "-0x1.bb7074c12ebf1p-1"),
        (-1.25, "-0x1.cb0c169a086d6p-1", "0x1.6f3cdee1a0578p+0"),
        (2.0, "-0x1.5b607c16eda24p-1", "-0x1.5b607c16eda24p-1"),
        # math.exp and np.exp differ in the last bit here; the float path
        # takes math.exp, as the spectral integrand always did
        (-2.5, "-0x1.606d699665d68p-2", "0x1.19f121451e453p-2"),
    ])
    def test_ft_float_bits(self, omega, re, im):
        # recorded from the float psi_hat of the spectral integrand before
        # eval_ft became the only psi_hat
        got = HermiteWavelet([(1.0, 1), (0.5, 2)]).eval_ft(omega)
        assert type(got) is complex
        assert (got.real.hex(), got.imag.hex()) == (re, im)

    def test_ft_matches_quadrature(self):
        # psi_hat(w) = int psi(t) exp(-i w t) dt on a frequency grid
        for M in (1, 2, 3):
            w = gaussian_derivative(M)
            for omega in (0.0, 0.35, 1.0, 2.5, -1.7):
                re, _ = quad(lambda t: np.real(w.eval(t)) * math.cos(omega * t),
                             -TRUNCATION_RADIUS, TRUNCATION_RADIUS, limit=200)
                im, _ = quad(lambda t: -np.real(w.eval(t)) * math.sin(omega * t),
                             -TRUNCATION_RADIUS, TRUNCATION_RADIUS, limit=200)
                assert complex(re, im) == pytest.approx(complex(w.eval_ft(omega)),
                                                        abs=1e-8)


class TestHermiteCombination:
    def test_complex_combination_contract(self):
        w = HermiteWavelet([(1.0, 1), (0.5j, 2)])
        assert w.vanishing_moments == 1
        assert not w.is_real
        assert complex(w.moment) == pytest.approx(SQRT_2PI, rel=1e-12)
        assert quad_moment(w, 0) == pytest.approx(0.0, abs=1e-10)
        got = quad_moment(w, 2)
        expected = 0.5j * 2 * SQRT_2PI
        assert got == pytest.approx(expected, rel=1e-9)

    def test_duplicate_orders_rejected(self):
        with pytest.raises(ValueError):
            HermiteWavelet([(1.0, 1), (2.0, 1)])

    def test_pair_correlation_matches_quadrature(self):
        w = HermiteWavelet([(1.0, 1), (0.5j, 3)])
        a1, a2 = 1.5, 2.0
        D_closed = w.pair_correlation(a1, a2)
        R = TRUNCATION_RADIUS * a1
        for tau in (-2.0, 0.0, 0.7, 3.1):
            f = lambda t: np.conj(w.eval(t / a1)) * w.eval((t + tau) / a2)
            re, _ = quad(lambda t: np.real(f(t)), -R, R, limit=200)
            im, _ = quad(lambda t: np.imag(f(t)), -R, R, limit=200)
            assert complex(D_closed(tau)) == pytest.approx(complex(re, im),
                                                           abs=1e-9)


PAIR_WAVELETS = (gaussian_derivative(1), gaussian_derivative(2),
                 gaussian_derivative(3), HermiteWavelet([(1, 1), (0.5j, 2)]))


def per_atom_pair_correlation(wavelet, a1, a2, tau):
    """D(tau) and the sum of its terms' moduli, one term per atom pair.

    Each pair is conj(c1) c2 C He_(m1+m2)(tau/s) exp(-tau^2 / 2s^2), with
    C = (-1)^m1 sqrt(2 pi) a1^(m1+1) a2^(m2+1) s^(-1-m1-m2), s = hypot(a1, a2).
    """
    s = math.hypot(a1, a2)
    x = np.asarray(tau, dtype=float) / s
    total, size = 0j, 0.0
    for c1, m1 in wavelet.terms:
        for c2, m2 in wavelet.terms:
            K = m1 + m2
            C = (-1.0) ** m1 * SQRT_2PI * a1 ** (m1 + 1) * a2 ** (m2 + 1) * s ** (-1 - K)
            term = (np.conj(c1) * c2 * C * hermite_e.hermeval(x, [0.0] * K + [1.0])
                    * np.exp(-0.5 * x * x))
            total, size = total + term, size + np.abs(term)
    return total, size


class TestPairCorrelationFloats:
    """D(float), the QUADPACK integrand's form, against arrays and atom pairs."""

    @pytest.mark.parametrize("wavelet", PAIR_WAVELETS, ids=repr)
    @pytest.mark.parametrize("a1, a2", [(1.0, 1.0), (1.5, 2.0), (3.0, 0.7)])
    def test_float_matches_array_and_atom_pairs(self, wavelet, a1, a2):
        D = wavelet.pair_correlation(a1, a2)
        taus = math.hypot(a1, a2) * np.linspace(-14.0, 14.0, 113)
        from_array = D(taus)
        assert from_array.dtype == (np.float64 if wavelet.is_real else np.complex128)
        want, size = per_atom_pair_correlation(wavelet, a1, a2, taus)
        for tau, arr, ref, bound in zip(taus.tolist(), from_array, want, size):
            got = D(tau)
            assert type(got) is (float if wavelet.is_real else complex)
            assert abs(got - arr) <= 1e-14 * abs(arr)
            # relative to the terms' moduli: the atom pairs' sum may cancel
            assert abs(got - ref) <= 1e-14 * bound


class TestAutocorrelation:
    def test_energy_at_zero(self):
        # a1 = a2 = 1, h = 0, M = 1, v = 0 gives int |psi_1|^2 = sqrt(pi)/2
        g = wavelet_autocorrelation(gaussian_derivative(1), 1.0, 1.0, 0.0)
        assert complex(g(0.0)) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)
        assert abs(complex(g(0.0)) - 0.886226925452758) < 1e-12

    def test_hermitian_symmetry(self):
        w = HermiteWavelet([(1.0, 2), (0.3j, 3)])
        g = wavelet_autocorrelation(w, 1.3, 1.3, 0.0)
        for v in (0.4, 1.1, 2.7):
            assert complex(g(-v)) == pytest.approx(np.conj(complex(g(v))), rel=1e-12)

    def test_zero_total_mass(self):
        g = wavelet_autocorrelation(gaussian_derivative(1), 1.0, 2.0, 0.5)
        total, _ = quad(lambda v: np.real(g(v)), -40, 40, limit=400)
        assert abs(total) < 1e-10

    def test_matches_direct_quadrature(self):
        w = gaussian_derivative(2)
        a1, a2, h = 1.0, 2.0, 0.7
        g = wavelet_autocorrelation(w, a1, a2, h)

        def direct(v):
            f = lambda u: (w.eval((u - h) / a1) / math.sqrt(a1)
                           * np.conj(w.eval((u + v) / a2)) / math.sqrt(a2))
            val, _ = quad(lambda u: np.real(f(u)), -30, 30, limit=400)
            return val

        for v in (-1.0, 0.0, 2.3):
            assert complex(g(v)) == pytest.approx(direct(v), abs=1e-10)

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            wavelet_autocorrelation(gaussian_derivative(1), 0.0, 1.0, 0.0)


def make_path(values, dt):
    values = np.atleast_2d(values)
    return SimpleNamespace(values=values, dt=dt, n=values.shape[1], seed=None)


class TestCwt:
    def test_constant_path_annihilated(self):
        path = make_path(3.0 * np.ones(512), dt=0.25)
        field = cwt(path, gaussian_derivative(1), scales=[2.0])
        assert np.max(np.abs(field.coeffs)) < 1e-10 * 3.0

    def test_linear_path_annihilated_m2(self):
        t = np.arange(512) * 0.25
        field = cwt(make_path(t, 0.25), gaussian_derivative(2), scales=[2.0])
        assert np.max(np.abs(field.coeffs)) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(400)
        y = rng.standard_normal(400)
        dt = 0.5
        w = gaussian_derivative(1)
        fa = cwt(make_path(x, dt), w, scales=[4.0])
        fb = cwt(make_path(y, dt), w, scales=[4.0])
        fc = cwt(make_path(2.5 * x - 1.25 * y, dt), w, scales=[4.0])
        np.testing.assert_allclose(fc.coeffs, 2.5 * fa.coeffs - 1.25 * fb.coeffs,
                                   rtol=1e-12, atol=1e-12)

    def test_matches_direct_sum(self):
        # both ends of the largest scale's shift range, a smaller scale, a
        # complex wavelet, explicit shifts; n = 307 is prime, so the rows
        # are zero-filled to a longer FFT length
        dt, scales = 0.5, [2.25, 3.0]
        for n in (300, 307):
            x = np.random.default_rng(9).standard_normal(n)
            t = np.arange(n) * dt
            lo, hi = valid_shift_range(n, dt, scales[-1])
            picked = (lo, 97, hi - 1, hi)
            for w in (gaussian_derivative(2), HermiteWavelet([(1, 1), (0.5j, 2)])):
                path = make_path(x, dt)
                cases = [(cwt(path, w, scales), (lo, lo + 1, 60, 150, 220, hi)),
                         (cwt(path, w, scales, shifts=t[list(picked)]), picked)]
                for field, b_indices in cases:
                    for ia, a in enumerate(scales):
                        for b_idx in b_indices:
                            b = t[b_idx]
                            direct = (np.sum(x * np.conj(w.eval((t - b) / a)))
                                      * dt / math.sqrt(a))
                            pos = np.where(np.isclose(field.shifts, b))[0]
                            assert pos.size == 1
                            assert complex(field.coeffs[0, ia, pos[0]]) == \
                                pytest.approx(direct, rel=1e-10)

    def test_scale_below_resolution_rejected(self):
        path = make_path(np.zeros(256), dt=1.0)
        with pytest.raises(ValueError):
            cwt(path, gaussian_derivative(1), scales=[2.0])

    def test_boundary_shift_rejected(self):
        path = make_path(np.zeros(256), dt=1.0)
        with pytest.raises(ValueError):
            cwt(path, gaussian_derivative(1), scales=[4.0], shifts=[1.0])

    def test_off_grid_shift_rejected(self):
        path = make_path(np.zeros(256), dt=1.0)
        with pytest.raises(ValueError):
            cwt(path, gaussian_derivative(1), scales=[4.0], shifts=[100.5])

    def test_valid_range(self):
        lo, hi = valid_shift_range(256, 1.0, 4.0)
        assert lo == 40 and hi == 215
        with pytest.raises(ValueError):
            valid_shift_range(64, 1.0, 4.0)


def per_row_cwt(values, dt, wavelet, scales, shift_idx):
    """One numpy real FFT correlation per component, scale and kernel part:
    the transform's circular correlation as a loop, kept apart from the
    batched code.  Float64 for a real wavelet, complex128 otherwise."""
    p, n = values.shape
    N = next_fast_len(n, real=True)
    out = np.zeros((p, len(scales), shift_idx.size),
                   dtype=float if wavelet.is_real else complex)
    for j in range(p):
        spectrum = np.fft.rfft(values[j], N)
        for ia, a in enumerate(scales):
            L = shift_margin(a, dt)
            m = np.arange(-L, L + 1)
            kernel = np.conj(wavelet.eval(m * dt / a)) * (dt / math.sqrt(a))
            out[j, ia].real = correlate(spectrum, kernel.real, m, N)[shift_idx]
            if not wavelet.is_real:
                out[j, ia].imag = correlate(spectrum, kernel.imag, m, N)[shift_idx]
    return out


def correlate(spectrum, taps, m, N):
    g = np.zeros(N)
    g[m % N] = taps
    return np.fft.irfft(spectrum * np.conj(np.fft.rfft(g)), N)


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(np.asarray(a).view(float), np.asarray(b).view(float))


@pytest.mark.slow
def test_fast_len_matches_scipy():
    # the transform's N is scipy's real fast length, so coefficients keep
    # their bits without importing scipy.fft
    for n in [*range(1, 2 ** 16 + 1), 2 ** 19 - 1, 2 ** 19 + 1, 2 ** 20 + 1]:
        assert wavelets._fast_len(n) == next_fast_len(n, real=True), n


class TestCwtEnsemble:
    COMPLEX = HermiteWavelet([(1.0, 1), (0.5j, 2)])
    TRIVARIATE = MfbmParams(
        H=[0.3, 0.5, 0.7], sigma=[1.0, 1.0, 1.0],
        rho=[[1.0, 0.3, 0.2], [0.3, 1.0, 0.3], [0.2, 0.3, 1.0]],
        eta=[[0.0, 0.05, 0.05], [-0.05, 0.0, 0.05], [-0.05, -0.05, 0.0]])

    def check(self, paths, wavelet, scales, shifts=None):
        fields = list(cwt_ensemble(paths, wavelet, scales, shifts=shifts))
        assert len(fields) == len(paths)
        for path, field in zip(paths, fields):
            single = cwt(path, wavelet, scales, shifts=shifts)
            assert_bits_equal(field.coeffs, single.coeffs)
            np.testing.assert_array_equal(field.shifts, single.shifts)
            np.testing.assert_array_equal(field.scales, single.scales)
            assert field.seed == single.seed == path.seed
            shift_idx = np.rint(single.shifts / path.dt).astype(int)
            assert_bits_equal(single.coeffs, per_row_cwt(
                path.values, path.dt, wavelet, single.scales, shift_idx))

    @pytest.mark.parametrize("count", [1, 7])
    def test_bit_identical_to_per_path(self, count):
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        paths = replicate_ensemble(params, 512, 0.5, seed=31, count=count)
        self.check(paths, gaussian_derivative(2), [2.0, 5.0])

    def test_across_chunk_boundaries(self, monkeypatch):
        # chunks of 5 rows: pairs of bivariate replicates and a trailing one;
        # then chunks of 2 rows, which split a trivariate replicate
        params = MfbmParams.bivariate(0.3, 0.8, rho=0.4, eta=0.05)
        paths = replicate_ensemble(params, 256, 1.0, seed=8, count=7)
        monkeypatch.setattr(model, "CHUNK_BYTES", 5 * 8 * 256)
        self.check(paths, gaussian_derivative(1), [4.0, 6.0])
        paths = replicate_ensemble(self.TRIVARIATE, 256, 1.0, seed=9, count=3)
        monkeypatch.setattr(model, "CHUNK_BYTES", 2 * 8 * 256)
        self.check(paths, gaussian_derivative(1), [4.0])

    @pytest.mark.parametrize("p, n, later", [
        (2, 300, False), (2, 300, True), (2, 200, True), (3, 256, False),
        (3, 256, True)])
    def test_paths_of_other_shape_refused(self, monkeypatch, p, n, later):
        # two bivariate paths of 256 points fix the shape; the third path
        # comes in their chunk or, in one-path chunks, in a later one, which
        # would transform 300 points on the first path's shift grid
        pair = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        odd = pair if p == 2 else self.TRIVARIATE
        paths = [*replicate_ensemble(pair, 256, 1.0, seed=1, count=2),
                 *replicate_ensemble(odd, n, 1.0, seed=2, count=1)]
        if later:
            monkeypatch.setattr(model, "CHUNK_BYTES", 1)
        fields = cwt_ensemble(paths, gaussian_derivative(1), [4.0])
        if later:
            assert [next(fields).n for _ in range(2)] == [256, 256]
        with pytest.raises(MfbmwaveError, match=re.escape(
                f"one shape, got ({p}, {n}) after (2, 256)")):
            next(fields)

    def test_default_chunks(self):
        # 1 MB chunks hold 16 bivariate paths of n = 4096; 37 paths span three
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        paths = replicate_ensemble(params, 4096, 1.0, seed=5, count=37)
        self.check(paths, gaussian_derivative(2), [4.0])

    def test_complex_wavelet_and_explicit_shifts(self):
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        paths = replicate_ensemble(params, 512, 1.0, seed=12, count=5)
        self.check(paths, self.COMPLEX, [4.0, 8.0])
        self.check(paths, self.COMPLEX, [4.0, 8.0],
                   shifts=[90.0, 91.0, 200.0, 333.0, 421.0])

    def test_length_not_fast(self):
        # n = 509 is prime; the FFT length is the next fast one
        assert next_fast_len(509, real=True) > 509
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        paths = replicate_ensemble(params, 509, 1.0, seed=4, count=3)
        self.check(paths, gaussian_derivative(2), [4.0, 7.0])
        self.check(paths, self.COMPLEX, [4.0, 7.0])

    def test_coefficient_dtype(self):
        # real coefficients for a real wavelet, complex for a complex one
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        paths = replicate_ensemble(params, 256, 1.0, seed=2, count=3)
        for wavelet, dtype in ((gaussian_derivative(2), np.float64),
                               (self.COMPLEX, np.complex128)):
            assert cwt(paths[0], wavelet, [4.0, 6.0]).coeffs.dtype == dtype
            for field in cwt_ensemble(paths, wavelet, [4.0, 6.0]):
                assert field.coeffs.dtype == dtype

    def test_explicit_shifts_match_default_grid(self):
        # gathered shifts, out of order and with a repeat, read the same
        # correlation values as the sliced default grid
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        path = replicate_ensemble(params, 512, 1.0, seed=6, count=1)[0]
        for wavelet in (gaussian_derivative(2), self.COMPLEX):
            full = cwt(path, wavelet, [4.0, 8.0])
            picked = [0, 1, 7, 50, 3, full.shifts.size - 1, 7]
            some = cwt(path, wavelet, [4.0, 8.0], shifts=full.shifts[picked])
            assert_bits_equal(some.coeffs,
                              np.ascontiguousarray(full.coeffs[:, :, picked]))

    def test_peak_memory_below_complex_field(self):
        # the float64 field and the per-call FFT buffers stay below the
        # bytes of the same field held as complex128
        values = np.cumsum(np.random.default_rng(1).standard_normal((3, 2 ** 16)),
                           axis=1)
        path = SimpleNamespace(values=values, dt=1.0, n=2 ** 16, seed=None)
        scales = [4.0 * 2.0 ** (k / 2) for k in range(8)]
        tracemalloc.start()
        try:
            field = cwt(path, gaussian_derivative(2), scales)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        complex_bytes = field.coeffs.size * np.dtype(complex).itemsize
        assert peak < complex_bytes

    def test_empty_and_invalid(self):
        assert list(cwt_ensemble([], gaussian_derivative(1), [4.0])) == []
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        paths = replicate_ensemble(params, 256, 1.0, seed=1, count=2)
        with pytest.raises(GridError):
            next(cwt_ensemble(paths, gaussian_derivative(1), [2.0]))
        with pytest.raises(GridError):
            next(cwt_ensemble(paths, gaussian_derivative(1), [40.0]))

    def test_working_set_over_budget(self, monkeypatch):
        # n = 256, scales 4 and 6: 256 - 2 * 60 = 136 shifts.  Three paths
        # make one chunk of 6 rows, each holding 256 values, two spectra of
        # 129 complex bins, a 256-point correlation, 136 gathered shifts and
        # 2 x 136 float64 coefficients; once per call come two placed
        # kernels, three spectra, the 121 taps at scale 6 and two shift grids
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        paths = replicate_ensemble(params, 256, 1.0, seed=1, count=3)
        row = 8 * 256 + 2 * 16 * 129 + 8 * 256 + 8 * 136
        once = 16 * 256 + 3 * 16 * 129 + 48 * 121 + 16 * 136
        need = 6 * (row + 2 * 136 * 8) + once
        assert need == 87200
        monkeypatch.setattr(model, "MEMORY_BUDGET", need)
        assert len(list(cwt_ensemble(paths, gaussian_derivative(1),
                                     [4.0, 6.0]))) == 3

        def refuse(*args):
            raise AssertionError("field transformed")

        monkeypatch.setattr(wavelets, "_transform", refuse)
        fields = cwt_ensemble(paths, self.COMPLEX, [4.0, 6.0])
        with pytest.raises(MfbmwaveError, match=f"needs {need + 6 * 2 * 136 * 8} "
                                                f"bytes, over the budget of {need}"):
            next(fields)
        monkeypatch.setattr(model, "MEMORY_BUDGET", need - 1)
        with pytest.raises(MfbmwaveError, match=r"wavelet transform of 3 path\(s\) "
                                                r"of 2 components at 2 scale\(s\) "
                                                r"and 136 shifts needs 87200"):
            next(cwt_ensemble(paths, gaussian_derivative(1), [4.0, 6.0]))

    @pytest.mark.parametrize("wavelet", [gaussian_derivative(2), COMPLEX])
    def test_working_set_bounds_traced_peak(self, wavelet, monkeypatch):
        # the predicted bytes of one path of n = 2^16 at one scale are at
        # least what the transform allocates through numpy
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        path = replicate_ensemble(params, 1 << 16, 1.0, seed=2, count=1)[0]
        predicted = []
        monkeypatch.setattr(wavelets, "require_bytes",
                            lambda need, what: predicted.append(need))
        tracemalloc.start()
        try:
            field = cwt(path, wavelet, [8.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.coeffs.shape == (2, 1, (1 << 16) - 160)
        assert len(predicted) == 1
        assert predicted[0] >= peak > field.coeffs.nbytes

    def test_chunks_sized_by_field(self, monkeypatch):
        # 40 scales make a field of 2 x 40 x 352 float64 coefficients, 27
        # times its path's values; a chunk holds three such fields
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        paths = replicate_ensemble(params, 512, 1.0, seed=3, count=7)
        scales = np.linspace(4.0, 8.0, 40)
        monkeypatch.setattr(model, "CHUNK_BYTES", 3 * 2 * 40 * 352 * 8)
        rows = []
        transform = wavelets._transform
        monkeypatch.setattr(wavelets, "_transform", lambda values, *args:
                            rows.append(values.shape[0])
                            or transform(values, *args))
        fields = list(cwt_ensemble(paths, gaussian_derivative(2), scales))
        assert rows == [3, 3, 1]
        assert fields[0].coeffs.shape == (2, 40, 352)
        self.check(paths, gaussian_derivative(2), scales)

    @pytest.mark.parametrize("wavelet", [gaussian_derivative(2), COMPLEX])
    @pytest.mark.parametrize("samples, keys", [
        (1 << 18, {"values", "spectra", "product", "corr"}),
        (1, {"values", "spectra", "product", "corr"})])
    def test_chunks_keep_scratch(self, monkeypatch, wavelet, samples, keys):
        # chunks of three paths and then one: each stacks its values into
        # the first chunk's array and reuses the caller's spectra, product
        # and correlation rows, also where a chunk is split into pieces
        # (here one per scale and part, all run on the caller)
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        paths = replicate_ensemble(params, 512, 1.0, seed=3, count=7)
        scales = [4.0, 8.0]
        field = (8 if wavelet.is_real else 16) * 2 * 2 * 352
        monkeypatch.setattr(model, "CHUNK_BYTES", 3 * field)
        monkeypatch.setattr(model, "PIECE_SAMPLES", samples)
        monkeypatch.setattr(model, "workers", lambda count: 1)
        calls = []
        transform = wavelets._transform

        def record(values, *args):
            coeffs = transform(values, *args)
            calls.append((values, dict(vars(args[-1]))))   # the caller's
            return coeffs

        monkeypatch.setattr(wavelets, "_transform", record)
        fields = list(cwt_ensemble(paths, wavelet, scales))
        assert fields[0].coeffs.nbytes == field
        assert [len(values) for values, _ in calls] == [3, 3, 1]
        first = calls[0][1]
        assert set(first) == keys
        for values, kept in calls:
            assert kept.keys() == first.keys()
            assert all(kept[key] is first[key] for key in first)
            assert values.base is first["values"]
        monkeypatch.setattr(wavelets, "_transform", transform)
        self.check(paths, wavelet, scales)


class TestInputChecks:
    @pytest.mark.parametrize("scales, shifts", [
        ([], None), ([4.0, float("nan")], None), ([float("inf")], None),
        ([4.0], [])])
    def test_empty_or_nonfinite_grid(self, scales, shifts):
        with pytest.raises(GridError, match="non-empty"):
            wavelets._grid(128, 1.0, scales, shifts)

    def test_repeated_scale(self):
        with pytest.raises(GridError, match="scales must be distinct"):
            wavelets._grid(128, 1.0, [4.0, 5.0, 4.0], None)

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf"),
                                    10 ** 400])
    def test_bad_step(self, dt):
        with pytest.raises(MfbmwaveError, match="dt must be positive and finite"):
            wavelets._grid(128, dt, [4.0], None)

    @pytest.mark.parametrize("order", [0, 13])
    def test_order_range(self, order):
        with pytest.raises(MfbmwaveError, match="atom orders"):
            gaussian_derivative(order)

    def test_overflowing_scale(self):
        with pytest.raises(MfbmwaveError, match="overflow the closed form"):
            wavelets._atom_pair_prefactor(1, 1e300, 1, 1.0)

    def test_field_grid_mismatch(self):
        with pytest.raises(MfbmwaveError, match="inconsistent with scale/shift"):
            wavelets.WaveletField(coeffs=np.zeros((1, 2, 5)), scales=[4.0],
                                  shifts=np.arange(5.0), dt=1.0, n=64)

    @staticmethod
    def field(dt=1.0, n=64, seed=None):
        return wavelets.WaveletField(coeffs=np.zeros((1, 1, 5)), scales=[4.0],
                                     shifts=np.arange(5.0), dt=dt, n=n,
                                     seed=seed)

    @pytest.mark.parametrize("dt", [-1.0, "x", float("nan"), True, 10 ** 400])
    def test_field_step(self, dt):
        with pytest.raises(MfbmwaveError,
                           match="dt must be positive and finite"):
            self.field(dt=dt)

    @pytest.mark.parametrize("n, seed, match", [
        (16.0, 1, "n must be an integer"), (0, 1, "need n >= 1, got 0"),
        (-5, 1, "need n >= 1, got -5"), (64, 1.5, "seed must be an integer"),
        (64, -1, r"seed must lie in \[0, 2\*\*64\)"),
        (64, 2 ** 64, r"seed must lie in \[0, 2\*\*64\)")])
    def test_field_size_and_seed(self, n, seed, match):
        # n -5 and each seed were a struct.error from save_field
        with pytest.raises(MfbmwaveError, match=match):
            self.field(n=n, seed=seed)

    def test_field_stores_float_and_ints(self):
        fld = self.field(dt=np.float32(0.5), n=np.int64(64),
                         seed=np.uint64(7))
        assert type(fld.dt) is float and fld.dt == 0.5
        assert type(fld.n) is int and type(fld.seed) is int
        assert self.field(seed=None).seed is None

    @pytest.mark.parametrize("scales", [
        [6.0, 4.0], [4.0, 4.0], [0.0, 4.0], [-1.0, 4.0],
        [4.0, float("nan")], [float("nan"), 4.0], [4.0, float("inf")]])
    def test_field_scales_refused(self, scales):
        # NaN and +inf passed the numpy comparisons of scales <= 0
        with pytest.raises(MfbmwaveError, match="finite, strictly positive and sorted"):
            wavelets.WaveletField(coeffs=np.zeros((1, 2, 5)), scales=scales,
                                  shifts=np.arange(5.0), dt=1.0, n=64)

    def test_field_scales_two_dimensional(self):
        with pytest.raises(MfbmwaveError, match="inconsistent with scale/shift"):
            wavelets.WaveletField(coeffs=np.zeros((1, 2, 5)), scales=[[4.0, 6.0]],
                                  shifts=np.arange(5.0), dt=1.0, n=64)

    def test_ensemble_of_mixed_steps(self):
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        paths = [*replicate_ensemble(params, 128, 1.0, seed=1, count=1),
                 *replicate_ensemble(params, 128, 0.5, seed=1, count=1)]
        with pytest.raises(MfbmwaveError, match="one sampling step"):
            list(cwt_ensemble(paths, gaussian_derivative(1), [4.0]))

    def test_field_compares_by_identity(self):
        a, b = (wavelets.WaveletField(coeffs=np.zeros((1, 1, 5)), scales=[4.0],
                                      shifts=np.arange(5.0), dt=1.0, n=64)
                for _ in range(2))
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2
