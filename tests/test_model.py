import hashlib
import io
import math

import numpy as np
import pytest

from mfbmwave.model import (
    MfbmParams,
    InvalidParamsError,
    ParamsFormatError,
    kernel_w,
    cross_covariance,
    increment_cross_covariance,
    check_existence,
    existence_matrix,
    max_admissible_rho,
    zeta,
    params_to_text,
    params_from_text,
    load_params,
    pack_triangles,
    unpack_triangles,
)
from mfbmwave.verify import verify_existence


def random_params(rng, p=3):
    # rescale off-diagonals until the set is admissible
    H = rng.uniform(0.15, 0.85, size=p)
    sigma = rng.uniform(0.5, 2.0, size=p)
    rho = np.eye(p)
    eta = np.zeros((p, p))
    for i in range(p):
        for j in range(i):
            rho[i, j] = rho[j, i] = rng.uniform(-0.4, 0.4)
            eta[i, j] = rng.uniform(-0.2, 0.2)
            eta[j, i] = -eta[i, j]
    params = MfbmParams(H=H, sigma=sigma, rho=rho, eta=eta)
    c = 1.0
    while not check_existence(params).admissible:
        c *= 0.5
        params = MfbmParams(H=H, sigma=sigma,
                            rho=np.eye(p) + c * (rho - np.eye(p)), eta=c * eta)
    return params


VALID_ENTRIES = {"H": ["0.4", "0.7"], "sigma": ["1", "1.5"],
                 "rho": ["1", "0.5", "1"], "eta": ["0.1"]}


def bivariate_text(entries) -> str:
    return "p: 2\n" + "".join(f"{key}: {' '.join(tokens)}\n"
                              for key, tokens in entries.items())


VALID_TEXT = bivariate_text(VALID_ENTRIES)

SUBSTITUTES = ["nan", "inf", "-inf", "1e400", "0", "-0.0", "2", "1.0000000000005"]


def judged(values):
    """(params or None, params or None): the constructor's verdict on the
    bivariate ``values`` by key, and that of a .mfbm path holding them."""
    from mfbmwave.containers import ContainerError, load_path, save_path
    from mfbmwave.synth import SamplePath

    rho, eta = unpack_triangles(2, values["rho"], values["eta"])
    try:
        direct = MfbmParams(H=np.array(values["H"]), sigma=np.array(values["sigma"]),
                            rho=rho, eta=eta)
    except InvalidParamsError:
        direct = None
    buf = io.BytesIO()
    save_path(SamplePath(MfbmParams.bivariate(0.3, 0.4), 2, 1.0, np.zeros((2, 2)), 0),
              buf)
    raw = buf.getvalue()
    # the header (8 bytes) and p n dt seed (28) precede H, sigma, rho and eta
    blob = b"".join(np.array(values[key], dtype="<f8").tobytes()
                    for key in ("H", "sigma", "rho", "eta"))
    try:
        stored = load_path(io.BytesIO(raw[:36] + blob + raw[36 + len(blob):])).params
    except ContainerError:
        stored = None
    return direct, stored


class TestValidation:
    def test_rejects_bad_hurst(self):
        with pytest.raises(InvalidParamsError):
            MfbmParams.bivariate(0.0, 0.5)
        with pytest.raises(InvalidParamsError):
            MfbmParams.bivariate(0.4, 1.0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InvalidParamsError):
            MfbmParams.bivariate(0.3, 0.4, sigma1=0.0)

    def test_rejects_asymmetric_rho(self):
        with pytest.raises(InvalidParamsError):
            MfbmParams(H=[0.3, 0.4], sigma=[1, 1],
                       rho=np.array([[1.0, 0.5], [0.4, 1.0]]),
                       eta=np.zeros((2, 2)))

    def test_rejects_non_antisymmetric_eta(self):
        with pytest.raises(InvalidParamsError):
            MfbmParams(H=[0.3, 0.4], sigma=[1, 1], rho=np.eye(2),
                       eta=np.array([[0.0, 0.1], [0.1, 0.0]]))

    def test_index_out_of_range(self):
        params = MfbmParams.bivariate(0.3, 0.4)
        with pytest.raises(IndexError):
            kernel_w(params, 0, 2, 1.0)

    # each bad input and its exact message; the non-finite sigma, eta and H
    # entries marked "new" were accepted before the checks compared floats
    BAD_INPUTS = [
        (dict(H=[]), "H must be a non-empty vector"),
        (dict(H=[[0.3, 0.4]]), "H must be a non-empty vector"),
        (dict(H=[0.0, 0.4]), "every Hurst exponent must lie in (0, 1)"),
        (dict(H=[0.3, 1.0]), "every Hurst exponent must lie in (0, 1)"),
        (dict(H=[0.3, math.inf]), "every Hurst exponent must lie in (0, 1)"),
        (dict(H=[-math.inf, 0.4]), "every Hurst exponent must lie in (0, 1)"),
        (dict(H=[0.3, math.nan]), "every Hurst exponent must lie in (0, 1)"),  # new
        (dict(sigma=[0.0, 1.0]), "sigma must be a length-p vector of positive amplitudes"),
        (dict(sigma=[1.0, -2.0]), "sigma must be a length-p vector of positive amplitudes"),
        (dict(sigma=[-math.inf, 1.0]), "sigma must be a length-p vector of positive amplitudes"),
        (dict(sigma=[1.0]), "sigma must be a length-p vector of positive amplitudes"),
        (dict(sigma=[1.0, math.inf]), "every amplitude sigma must be finite"),  # new
        (dict(sigma=[math.nan, 1.0]), "every amplitude sigma must be finite"),  # new
        (dict(rho=np.eye(3)), "rho and eta must be p x p matrices"),
        (dict(eta=np.zeros((1, 1))), "rho and eta must be p x p matrices"),
        (dict(rho=[[1.0, 0.5], [0.4, 1.0]]), "rho must be symmetric"),
        (dict(rho=[[1.0, math.nan], [math.nan, 1.0]]), "every rho entry must be finite"),
        (dict(rho=[[1.1, 0.0], [0.0, 1.0]]), "rho must have unit diagonal"),
        (dict(rho=[[math.inf, 0.0], [0.0, 1.0]]), "every rho entry must be finite"),
        (dict(rho=[[1.0 + 2e-12, 0.0], [0.0, 1.0]]), "rho must have unit diagonal"),
        (dict(rho=[[1.0, 1.5], [1.5, 1.0]]), "rho entries must lie in [-1, 1]"),
        (dict(rho=[[1.0, math.inf], [math.inf, 1.0]]), "every rho entry must be finite"),
        (dict(rho=[[1.0, -math.inf], [-math.inf, 1.0]]), "every rho entry must be finite"),
        (dict(eta=[[0.0, 0.2], [0.2, 0.0]]), "eta must be antisymmetric"),
        (dict(eta=[[0.1, 0.0], [0.0, 0.0]]), "eta must be antisymmetric"),
        (dict(eta=[[0.0, math.nan], [-math.nan, 0.0]]), "every eta entry must be finite"),
        (dict(eta=[[math.inf, 0.0], [0.0, 0.0]]), "every eta entry must be finite"),
        (dict(eta=[[0.0, math.inf], [-math.inf, 0.0]]), "every eta entry must be finite"),  # new
        (dict(eta=[[0.0, -math.inf], [math.inf, 0.0]]), "every eta entry must be finite"),  # new
        (dict(rho=[[math.nan, 0.5], [0.5, 1.0]]), "every rho entry must be finite"),  # new
    ]

    @staticmethod
    def refusal(kwargs) -> InvalidParamsError:
        args = dict(H=[0.3, 0.4], sigma=[1.0, 1.0], rho=np.eye(2),
                    eta=np.zeros((2, 2)))
        args.update(kwargs)
        with pytest.raises(InvalidParamsError) as err:
            MfbmParams(**{k: np.array(v, dtype=float) for k, v in args.items()})
        return err.value

    @pytest.mark.parametrize("kwargs, message", BAD_INPUTS)
    def test_bad_input_messages(self, kwargs, message):
        assert str(self.refusal(kwargs)) == message

    @pytest.mark.parametrize("kwargs, message", BAD_INPUTS)
    def test_bad_input_names_entry(self, kwargs, message):
        (entry,) = kwargs
        assert self.refusal(kwargs).key == entry

    def test_tolerances_kept(self):
        # entries within 1e-12 of symmetry, of a unit diagonal and of the
        # [-1, 1] range pass
        MfbmParams(H=[0.3, 0.4], sigma=[1.0, 1.0],
                   rho=[[1.0 + 5e-13, 0.5 + 5e-13], [0.5, 1.0]],
                   eta=[[0.0, 0.1 + 5e-13], [-0.1, 0.0]])
        MfbmParams.bivariate(0.3, 0.4, rho=1.0 + 1e-12)
        MfbmParams.bivariate(0.3, 0.4, rho=-1.0 - 1e-12)

    def test_unit_diagonal_stored_exactly(self):
        near = MfbmParams(H=[0.3, 0.4], sigma=[1.0, 1.0],
                          rho=[[1.0 + 5e-13, 0.5], [0.5, 1.0 - 5e-13]],
                          eta=np.zeros((2, 2)))
        assert near.rho[0, 0] == 1.0 and near.rho[1, 1] == 1.0
        assert near == MfbmParams.bivariate(0.3, 0.4, rho=0.5)
        assert not near.rho.flags.writeable


class TestErrorHierarchy:
    def test_one_base(self):
        import mfbmwave
        from mfbmwave.cli import ConfigError

        for cls in (ConfigError, InvalidParamsError, ParamsFormatError,
                    mfbmwave.GridError, mfbmwave.DegenerateAsymptoticsError,
                    mfbmwave.containers.ContainerError):
            assert issubclass(cls, mfbmwave.MfbmwaveError)
        assert issubclass(mfbmwave.MfbmwaveError, ValueError)
        assert not issubclass(mfbmwave.QuadratureError, mfbmwave.MfbmwaveError)

    def test_index_error_is_both(self):
        from mfbmwave import MfbmwaveError

        params = MfbmParams.bivariate(0.3, 0.4)
        for j, k in ((2, 0), (0, -1)):
            with pytest.raises(MfbmwaveError, match="out of range") as err:
                kernel_w(params, j, k, 1.0)
            assert isinstance(err.value, IndexError)

    @pytest.mark.parametrize("index", [0.5, True, "0"])
    def test_index_must_be_an_integer(self, index):
        from mfbmwave import MfbmwaveError
        from mfbmwave.wavelets import gaussian_derivative
        from mfbmwave.wavstats import WaveletCovQuery, theoretical_wavelet_cov

        params = MfbmParams.bivariate(0.3, 0.4)
        calls = [lambda j, k: kernel_w(params, j, k, 1.0),
                 lambda j, k: cross_covariance(params, j, k, 1.0, 2.0),
                 lambda j, k: increment_cross_covariance(params, j, k, 1.0),
                 lambda j, k: zeta(params, j, k, 1.0),
                 lambda j, k: theoretical_wavelet_cov(
                     WaveletCovQuery(j, k, 1.0, 1.0), params,
                     gaussian_derivative(1))]
        for call in calls:
            for j, k, name in ((index, 1, "j"), (1, index, "k")):
                with pytest.raises(MfbmwaveError,
                                   match=f"{name} must be an integer") as err:
                    call(j, k)
                assert not isinstance(err.value, IndexError)
        # numpy integers pass
        assert kernel_w(params, np.int64(1), np.int32(0), 0.0) == 0.0


class TestKernel:
    def test_brownian_diagonal(self):
        # rho_jj = 1, eta_jj = 0 gives |h|^(2H)
        params = MfbmParams.univariate(0.5)
        assert kernel_w(params, 0, 0, -3.0) == pytest.approx(3.0, abs=1e-15)

    def test_log_branch_at_unit_lag(self):
        # log 1 = 0 kills the eta term, rho = 0 kills the rest
        params = MfbmParams.bivariate(0.3, 0.7, rho=0.0, eta=0.2)
        assert kernel_w(params, 0, 1, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_power_branch_value(self):
        # (0.5 - 0.1) * 2^0.7, evaluated directly
        params = MfbmParams.bivariate(0.3, 0.4, rho=0.5, eta=0.1)
        expected = 0.4 * 2.0 ** 0.7
        assert kernel_w(params, 0, 1, 2.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.6498019170849885, rel=1e-12)

    def test_zero_lag_both_branches(self):
        for params in (MfbmParams.bivariate(0.3, 0.4, rho=0.5, eta=0.1),
                       MfbmParams.bivariate(0.3, 0.7, rho=0.5, eta=0.1)):
            assert kernel_w(params, 0, 1, 0.0) == 0.0

    def test_transpose_symmetry(self):
        # w_jk(h) = w_kj(-h) from rho symmetry and eta antisymmetry
        rng = np.random.default_rng(7)
        params = random_params(rng)
        hs = rng.uniform(-5, 5, size=64)
        for j in range(params.p):
            for k in range(params.p):
                np.testing.assert_allclose(
                    kernel_w(params, j, k, hs), kernel_w(params, k, j, -hs),
                    rtol=1e-14, atol=1e-15)


class TestCrossCovariance:
    def test_zero_time(self):
        rng = np.random.default_rng(5)
        params = random_params(rng)
        ts = rng.uniform(-3, 3, size=16)
        for j in range(params.p):
            for k in range(params.p):
                np.testing.assert_allclose(
                    cross_covariance(params, j, k, 0.0, ts), 0.0, atol=1e-14)

    def test_brownian_variance(self):
        params = MfbmParams.univariate(0.5)
        assert cross_covariance(params, 0, 0, 2.0, 2.0) == pytest.approx(2.0)

    def test_cross_value(self):
        # 0.25 * 2^0.7 for H=(0.3,0.4), rho=0.5, eta=0, s=1, t=2
        params = MfbmParams.bivariate(0.3, 0.4, rho=0.5)
        expected = 0.25 * 2.0 ** 0.7
        assert cross_covariance(params, 0, 1, 1.0, 2.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.4061261981781178, rel=1e-12)

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(11)
        params = random_params(rng)
        for _ in range(20):
            s, t = rng.uniform(-4, 4, size=2)
            j, k = rng.integers(0, params.p, size=2)
            assert cross_covariance(params, j, k, s, t) == pytest.approx(
                cross_covariance(params, k, j, t, s), rel=1e-12, abs=1e-14)

    def test_time_reversibility_iff_eta_zero(self):
        rng = np.random.default_rng(13)
        params = MfbmParams.bivariate(0.3, 0.6, rho=0.4, eta=0.0)
        for _ in range(20):
            s, t = rng.uniform(-4, 4, size=2)
            assert cross_covariance(params, 0, 1, s, t) == pytest.approx(
                cross_covariance(params, 0, 1, -s, -t), rel=1e-12, abs=1e-14)
        skewed = MfbmParams.bivariate(0.3, 0.6, rho=0.4, eta=0.2)
        assert cross_covariance(skewed, 0, 1, 1.0, 2.0) != pytest.approx(
            cross_covariance(skewed, 0, 1, -1.0, -2.0), rel=1e-6)

    def test_univariate_reduction(self):
        # direct fBm formula as the oracle
        rng = np.random.default_rng(17)
        for h in (0.2, 0.5, 0.8):
            sigma = 1.3
            params = MfbmParams.univariate(h, sigma=sigma)
            for _ in range(10):
                s, t = rng.uniform(-3, 3, size=2)
                direct = 0.5 * sigma ** 2 * (abs(s) ** (2 * h) + abs(t) ** (2 * h)
                                             - abs(t - s) ** (2 * h))
                assert cross_covariance(params, 0, 0, s, t) == pytest.approx(
                    direct, rel=1e-13, abs=1e-14)


class TestIncrementCovariance:
    def test_brownian_increments_white(self):
        params = MfbmParams.univariate(0.5)
        assert increment_cross_covariance(params, 0, 0, 1) == pytest.approx(0.0, abs=1e-15)
        assert increment_cross_covariance(params, 0, 0, 0) == pytest.approx(1.0)

    def test_matches_fgn_autocovariance(self):
        params = MfbmParams.univariate(0.7, sigma=1.5)
        hs = np.arange(0, 12)
        expected = 0.5 * 1.5 ** 2 * (np.abs(hs + 1) ** 1.4 + np.abs(hs - 1) ** 1.4
                                     - 2.0 * np.abs(hs) ** 1.4)
        np.testing.assert_allclose(increment_cross_covariance(params, 0, 0, hs),
                                   expected, rtol=1e-13)

    def test_step_scaling(self):
        # gamma at step dt equals dt^(Hj+Hk) times the unit-step value
        params = MfbmParams.bivariate(0.3, 0.6, rho=0.4, eta=0.1)
        hs = np.arange(-5, 6)
        dt = 0.25
        got = increment_cross_covariance(params, 0, 1, hs, dt=dt)
        scaled = dt ** 0.9 * increment_cross_covariance(params, 0, 1, hs)
        np.testing.assert_allclose(got, scaled, rtol=1e-12, atol=1e-15)

    def test_cross_decay_exponent(self):
        # log-log slope of |gamma| over h in [2^6, 2^12] approaches Hj+Hk-2
        params = MfbmParams.bivariate(0.3, 0.4, rho=0.5)
        hs = 2.0 ** np.arange(6, 13)
        g = np.abs(increment_cross_covariance(params, 0, 1, hs))
        slope = np.polyfit(np.log(hs), np.log(g), 1)[0]
        assert slope == pytest.approx(0.7 - 2.0, abs=0.02)


class TestExistence:
    def test_equal_hurst_unconstrained(self):
        for rho in (-1.0, -0.3, 0.0, 0.7, 1.0):
            params = MfbmParams.bivariate(0.3, 0.3, rho=rho)
            assert check_existence(params).admissible

    def test_diagonal_always_admissible(self):
        rng = np.random.default_rng(23)
        H = rng.uniform(0.1, 0.9, size=4)
        params = MfbmParams(H=H, sigma=np.ones(4), rho=np.eye(4), eta=np.zeros((4, 4)))
        res = check_existence(params)
        assert res.admissible
        assert res.min_eigenvalue > 0.0

    def test_inadmissible_far_hurst_pair(self):
        # the admissibility bound for H=(0.1, 0.8) sits near 0.514
        assert not check_existence(MfbmParams.bivariate(0.1, 0.8, rho=0.6)).admissible
        assert check_existence(MfbmParams.bivariate(0.1, 0.8, rho=0.5)).admissible

    def test_monotone_in_coupling_strength(self):
        rng = np.random.default_rng(29)
        params = random_params(rng)
        for c in (0.0, 0.25, 0.5, 0.75, 1.0):
            shrunk = MfbmParams(
                H=params.H, sigma=params.sigma,
                rho=np.eye(params.p) + c * (params.rho - np.eye(params.p)),
                eta=c * params.eta)
            assert check_existence(shrunk).admissible


class TestExistenceMatrix:
    P3 = MfbmParams(H=np.array([0.3, 0.7, 0.45]), sigma=np.array([1.0, 1.3, 0.8]),
                    rho=np.array([[1, 0.3, 0.1], [0.3, 1, -0.2], [0.1, -0.2, 1]]),
                    eta=np.array([[0, 0.2, -0.1], [-0.2, 0, 0.05],
                                  [0.1, -0.05, 0]]))

    def test_is_gamma_times_zeta_at_negative_frequency(self):
        assert self.P3.is_log_branch(0, 1)
        G = existence_matrix(self.P3)
        for j in range(3):
            for k in range(3):
                want = math.gamma(self.P3.alpha(j, k) + 1.0) * zeta(self.P3, j, k, -1.0)
                assert G[j, k] == want, (j, k)

    def test_bits(self):
        # SHA-256 recorded before the matrix was built from zeta
        got = hashlib.sha256(existence_matrix(self.P3).tobytes()).hexdigest()
        assert got == "f471ff1abfcf38a42f809d3f20217cb4744136263c9cbb08c928c61a0547ecb3"


class TestMaxAdmissibleRho:
    def test_equal_hurst_gives_one(self):
        assert max_admissible_rho(0.5, 0.5) == 1.0
        assert max_admissible_rho(0.2, 0.2) == 1.0

    def test_known_bound(self):
        # closed form: sqrt(G(2h1+1) G(2h2+1) sin(pi h1) sin(pi h2)) /
        #              (G(h1+h2+1) sin(pi (h1+h2)/2))
        def bound(h1, h2):
            return math.sqrt(math.gamma(2 * h1 + 1) * math.gamma(2 * h2 + 1)
                             * math.sin(math.pi * h1) * math.sin(math.pi * h2)) / (
                math.gamma(h1 + h2 + 1) * math.sin(math.pi * (h1 + h2) / 2))

        for pair in ((0.1, 0.8), (0.1, 0.2), (0.3, 0.6)):
            assert max_admissible_rho(*pair) == pytest.approx(bound(*pair), abs=2e-4)
        assert max_admissible_rho(0.1, 0.8) == pytest.approx(0.514, abs=1e-3)

    @pytest.mark.parametrize("pair", [(0.0, 0.5), (0.5, 1.0), (math.nan, 0.5)])
    def test_hurst_refused_by_constructor(self, pair):
        with pytest.raises(InvalidParamsError,
                           match=r"^every Hurst exponent must lie in \(0, 1\)$") as err:
            max_admissible_rho(*pair)
        assert err.value.key == "H"

    def test_swap_symmetry(self):
        assert max_admissible_rho(0.25, 0.65) == pytest.approx(
            max_admissible_rho(0.65, 0.25), abs=2e-4)

    @pytest.mark.parametrize("pair, bits", [
        ((0.1, 0.8), "0x1.072c000000000p-1"),
        ((0.8, 0.1), "0x1.072c000000000p-1"),
        ((0.1, 0.2), "0x1.e364000000000p-1"),
        ((0.35, 0.35), "0x1.0000000000000p+0"),
    ])
    def test_bisection_bits(self, pair, bits):
        assert max_admissible_rho(*pair).hex() == bits

    def test_existence_suite_bits(self):
        measured = [c["measured"].hex() for c in verify_existence()["checks"]]
        assert measured == ["0x1.0000000000000p+0", "0x1.0000000000000p+0",
                            "0x1.072c000000000p-1", "0x1.072c000000000p-1",
                            "0x1.e364000000000p-1", "0x1.072c000000000p-1",
                            "0x1.0000000000000p+0"]


class TestTextFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(31)
        params = random_params(rng, p=3)
        again = params_from_text(params_to_text(params))
        np.testing.assert_allclose(again.H, params.H, rtol=0, atol=0)
        np.testing.assert_allclose(again.sigma, params.sigma, rtol=0, atol=0)
        np.testing.assert_allclose(again.rho, params.rho, rtol=0, atol=0)
        np.testing.assert_allclose(again.eta, params.eta, rtol=0, atol=0)

    def test_comments_and_blank_lines(self):
        text = "# two components\np: 2\nH: 0.4 0.7\n\nsigma: 1 1\nrho: 1 0.5 1\neta: 0.1\n"
        params = params_from_text(text)
        assert params.rho[0, 1] == 0.5
        assert params.eta[1, 0] == 0.1
        assert params.eta[0, 1] == -0.1

    def test_line_numbered_diagnostics(self):
        bad = "p: 2\nH: 0.4 1.7\nsigma: 1 1\nrho: 1 0.5 1\neta: 0.1\n"
        with pytest.raises(ParamsFormatError) as err:
            params_from_text(bad)
        assert err.value.line == 2
        bad_rho = "p: 2\nH: 0.4 0.7\nsigma: 1 1\nrho: 1 1.5 1\neta: 0.1\n"
        with pytest.raises(ParamsFormatError) as err:
            params_from_text(bad_rho)
        assert err.value.line == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ParamsFormatError):
            params_from_text("p: 1\nH: 0.5\nsigma: 1\nrho: 1\neta:\nbogus: 3\n")

    def test_nonfinite_entries_name_their_line(self):
        text = "p: 2\nH: 0.4 0.7\nsigma: 1 {}\nrho: 1 0.5 1\neta: {}\n"
        for sigma, eta, line, message in (
                ("inf", "0.1", 3, "every amplitude sigma must be finite"),
                ("nan", "0.1", 3, "every amplitude sigma must be finite"),
                ("1", "-inf", 5, "every eta entry must be finite"),
                ("1", "nan", 5, "every eta entry must be finite")):
            with pytest.raises(ParamsFormatError) as err:
                params_from_text(text.format(sigma, eta))
            assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")
        # a non-finite rho entry, on the diagonal or off it, is not a
        # symmetry fault
        for rho in ("nan 0.5 1", "1 nan 1", "1 0.5 -inf"):
            bad = f"p: 2\nH: 0.4 0.7\nsigma: 1 1\nrho: {rho}\neta: 0.1\n"
            with pytest.raises(ParamsFormatError) as err:
                params_from_text(bad)
            assert str(err.value) == "line 4: every rho entry must be finite"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "0",
                                       "-0.0", "1.0000000000005", "-2"])
    def test_p_must_be_positive_integer(self, token):
        # int() of the first four would raise ValueError or OverflowError
        with pytest.raises(ParamsFormatError) as err:
            params_from_text(VALID_TEXT.replace("p: 2", f"p: {token}"))
        assert str(err.value) == "line 1: p must be a single positive integer"

    @pytest.mark.parametrize("key, index", [(key, index)
                                            for key, tokens in VALID_ENTRIES.items()
                                            for index in range(len(tokens))])
    @pytest.mark.parametrize("token", SUBSTITUTES)
    def test_reader_agrees_with_constructor(self, key, index, token):
        entries = {k: list(tokens) for k, tokens in VALID_ENTRIES.items()}
        entries[key][index] = token
        text = bivariate_text(entries)
        direct, stored = judged({k: [float(t) for t in tokens]
                                 for k, tokens in entries.items()})
        if direct is None:
            assert stored is None
            with pytest.raises(ParamsFormatError) as err:
                params_from_text(text)
            assert err.value.line == text.splitlines().index(
                f"{key}: {' '.join(entries[key])}") + 1
        else:
            assert stored.fingerprint() == direct.fingerprint()
            assert params_from_text(text).fingerprint() == direct.fingerprint()

    def test_file_not_utf8(self, tmp_path):
        f = tmp_path / "params.bin"
        f.write_bytes(b"p: 2\nH: 0.4 0.7\n\xff\xfe\n")
        with pytest.raises(ParamsFormatError, match="not UTF-8 text") as err:
            load_params(f)
        assert err.value.line == 3


class TestValueSemantics:
    """Parameter sets compare and hash by their entries."""

    def test_round_trips_equal(self, tmp_path):
        from mfbmwave.containers import load_path_file, save_path_file
        from mfbmwave.synth import SamplePath

        params = random_params(np.random.default_rng(32), p=3)
        again = params_from_text(params_to_text(params))
        assert again is not params
        assert again == params and hash(again) == hash(params)
        path = SamplePath(params=params, n=2, dt=1.0, values=np.zeros((3, 2)),
                          seed=0)
        save_path_file(path, tmp_path / "p.mfbm")
        loaded = load_path_file(tmp_path / "p.mfbm").params
        assert loaded == params and hash(loaded) == hash(params)
        assert loaded.fingerprint() == params.fingerprint()
        assert len({params, again, loaded}) == 1

    def test_any_entry_changes_equality(self):
        base = random_params(np.random.default_rng(33), p=3)
        entries = [("H", (j,)) for j in range(3)] + \
            [("sigma", (j,)) for j in range(3)] + \
            [(name, (j, k)) for name in ("rho", "eta")
             for j in range(3) for k in range(j)]
        for name, index in entries:
            values = {key: np.array(getattr(base, key))
                      for key in ("H", "sigma", "rho", "eta")}
            values[name][index] += 1e-3
            if name in ("rho", "eta"):
                sign = 1.0 if name == "rho" else -1.0
                values[name][index[::-1]] = sign * values[name][index]
            other = MfbmParams(**values)
            assert other != base and not other == base, (name, index)
            assert hash(other) != hash(base), (name, index)
        assert MfbmParams.univariate(0.5) != MfbmParams.bivariate(0.5, 0.5)

    def test_negative_zero_eta(self):
        plus = MfbmParams.bivariate(0.3, 0.7, rho=0.4, eta=0.0)
        minus = MfbmParams.bivariate(0.3, 0.7, rho=0.4, eta=-0.0)
        assert np.signbit(minus.eta[0, 1])
        assert minus == plus and hash(minus) == hash(plus)

    def test_other_types(self):
        params = MfbmParams.bivariate(0.3, 0.7, rho=0.4)
        assert (params == "x") is False
        assert (params != "x") is True
        assert params.__eq__(params.fingerprint()) is NotImplemented


class TestTriangles:
    def test_row_major_order_and_inverse(self):
        params = random_params(np.random.default_rng(5), p=3)
        rho_low, eta_low = pack_triangles(params)
        r, e = params.rho, params.eta
        np.testing.assert_array_equal(
            rho_low, [r[0, 0], r[1, 0], r[1, 1], r[2, 0], r[2, 1], r[2, 2]])
        np.testing.assert_array_equal(eta_low, [e[1, 0], e[2, 0], e[2, 1]])
        rho, eta = unpack_triangles(3, rho_low, eta_low)
        np.testing.assert_array_equal(rho, params.rho)
        np.testing.assert_array_equal(eta, params.eta)

    def test_text_document_layout(self):
        params = MfbmParams(H=[0.3, 0.5, 0.7], sigma=[1.0, 2.0, 3.0],
                            rho=[[1.0, 0.1, 0.2], [0.1, 1.0, 0.3], [0.2, 0.3, 1.0]],
                            eta=[[0.0, -0.4, -0.5], [0.4, 0.0, -0.6],
                                 [0.5, 0.6, 0.0]])
        text = params_to_text(params)
        assert text.splitlines()[3:] == ["rho: 1 0.10000000000000001 1 "
                                         "0.20000000000000001 "
                                         "0.29999999999999999 1",
                                         "eta: 0.40000000000000002 0.5 "
                                         "0.59999999999999998"]
        assert params_to_text(params_from_text(text)) == text
