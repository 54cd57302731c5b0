import numpy as np
import pytest

from mfbmwave.model import (
    MfbmParams,
    InvalidParamsError,
    cross_covariance,
    increment_cross_covariance,
)
import mfbmwave.synth as synth
from mfbmwave.synth import (
    build_embedding,
    embedding_report,
    simulate,
    replicate_ensemble,
)


def stacked_values(paths):
    return np.stack([p.values for p in paths])  # (reps, p, n)


class TestBasics:
    def test_rejects_inadmissible(self):
        bad = MfbmParams.bivariate(0.1, 0.8, rho=0.7)
        with pytest.raises(InvalidParamsError):
            simulate(bad, 64, 1.0, seed=1)
        with pytest.raises(InvalidParamsError):
            replicate_ensemble(bad, 64, 1.0, seed=1, count=3)
        # a failed check caches nothing: the second call is refused as well
        with pytest.raises(InvalidParamsError):
            simulate(bad, 64, 1.0, seed=1)

    def test_admissibility_checked_once_per_embedding(self, monkeypatch):
        import mfbmwave.synth as synth

        calls = []
        check = synth.check_existence
        monkeypatch.setattr(synth, "check_existence",
                            lambda params: calls.append(1) or check(params))
        params = MfbmParams.bivariate(0.35, 0.55, rho=0.25, eta=0.05)
        replicate_ensemble(params, 40, 1.0, seed=3, count=5)
        assert len(calls) == 1
        simulate(params, 40, 1.0, seed=4)
        replicate_ensemble(params, 40, 1.0, seed=5, count=2)
        assert len(calls) == 1

    def test_deterministic(self):
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        p1, r1 = simulate(params, 128, 0.5, seed=42)
        p2, r2 = simulate(params, 128, 0.5, seed=42)
        np.testing.assert_array_equal(p1.values, p2.values)
        assert r1.correction == "none"
        p3, _ = simulate(params, 128, 0.5, seed=43)
        assert not np.array_equal(p1.values, p3.values)

    def test_starts_at_zero(self):
        params = MfbmParams.bivariate(0.3, 0.6, rho=0.2)
        path, _ = simulate(params, 64, 1.0, seed=7)
        np.testing.assert_array_equal(path.values[:, 0], 0.0)

    def test_embedding_size(self):
        params = MfbmParams.univariate(0.7)
        fac = build_embedding(params, 64, 1.0)
        assert fac.m == 128
        assert fac.report.correction == "none"
        rep = embedding_report(params, 64, 1.0)
        assert rep.circulant_size == 128

    def test_ensemble_determinism_and_derivation(self):
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        e1 = replicate_ensemble(params, 64, 1.0, seed=5, count=3)
        e2 = replicate_ensemble(params, 64, 1.0, seed=5, count=3)
        for a, b in zip(e1, e2):
            np.testing.assert_array_equal(a.values, b.values)
        single, _ = simulate(params, 64, 1.0, seed=5)
        np.testing.assert_array_equal(e1[0].values, single.values)
        assert all(path.seed == 5 for path in e1)


def reference_paths(params, n, dt, seed, count):
    """Seed scheme 2 spelled out one noise draw at a time."""
    fac = build_embedding(params, n, dt)
    m, p = fac.m, params.p
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    while len(out) < count:
        z = rng.standard_normal((2, m, p))
        v = np.einsum("fij,fj->fi", fac.factor, z[0] + 1j * z[1])
        y = np.fft.ifft(v, axis=0)
        for half in (y.real, y.imag)[:count - len(out)]:
            inc = np.sqrt(m) * half[:n - 1]
            x = np.vstack([np.zeros((1, p)), np.cumsum(inc, axis=0)])
            out.append(x.T)
    return out


def split_halves(params, n, seed, pairs):
    """Real and imaginary halves of ``pairs`` noise draws, each (pairs, p n)."""
    x = stacked_values(replicate_ensemble(params, n, 1.0, seed=seed,
                                          count=2 * pairs))
    x = x.reshape(2 * pairs, -1)
    return x[0::2], x[1::2]


def path_covariance(params, n):
    grid = np.arange(n, dtype=float)
    pn = params.p * n
    theory = np.empty((pn, pn))
    for j in range(params.p):
        for k in range(params.p):
            theory[j * n:(j + 1) * n, k * n:(k + 1) * n] = cross_covariance(
                params, j, k, grid[:, None], grid[None, :])
    return theory


class TestSeedScheme:
    PARAMS = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)

    def test_matches_reference_scheme(self):
        # count 5: two whole draws and the real half of a third
        got = replicate_ensemble(self.PARAMS, 64, 1.0, seed=17, count=5)
        want = reference_paths(self.PARAMS, 64, 1.0, 17, 5)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.values, b)
        single, _ = simulate(self.PARAMS, 64, 1.0, seed=17)
        np.testing.assert_array_equal(single.values, want[0])

    def test_odd_count_ends_with_real_half(self):
        odd = replicate_ensemble(self.PARAMS, 64, 1.0, seed=23, count=3)
        even = replicate_ensemble(self.PARAMS, 64, 1.0, seed=23, count=4)
        np.testing.assert_array_equal(odd[2].values,
                                      reference_paths(self.PARAMS, 64, 1.0, 23, 3)[2])
        assert not np.array_equal(odd[2].values, even[3].values)

    @pytest.mark.parametrize("n, short, long", [(64, 3, 7), (4096, 33, 40)])
    def test_prefix_stable(self, n, short, long):
        fac = build_embedding(self.PARAMS, n, 1.0)
        per_chunk = max(1, synth._CHUNK_BYTES // (16 * fac.m * self.PARAMS.p))
        if n == 4096:  # both ensembles draw a second chunk
            assert per_chunk < (short + 1) // 2
        a = replicate_ensemble(self.PARAMS, n, 1.0, seed=31, count=short)
        b = replicate_ensemble(self.PARAMS, n, 1.0, seed=31, count=long)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.values, y.values)

    def test_halves_exact_and_independent(self):
        # Criterion 8's rule for the real and the imaginary halves apart, and
        # their cross-covariance (zero in theory) on the non-degenerate entries
        n, pairs = 64, 20_000
        even, odd = split_halves(self.PARAMS, n, 4711, pairs)
        theory = path_covariance(self.PARAMS, n)
        var = np.diag(theory)
        se = np.sqrt(np.maximum(np.outer(var, var) + theory ** 2, 0.0) / pairs)
        for x in (even, odd):
            emp = x.T @ x / pairs
            assert (np.abs(emp - theory) <= 4.0 * se + 1e-12).mean() >= 0.99
        live = var > 0.0
        cross = (even.T @ odd / pairs)[np.ix_(live, live)]
        cross_se = np.sqrt(np.outer(var[live], var[live]) / pairs)
        assert (np.abs(cross) <= 4.0 * cross_se).mean() >= 0.99


class TestLaw:
    def test_brownian_increments_iid(self):
        # H = 0.5: increments are white with variance dt
        params = MfbmParams.univariate(0.5)
        n = 2 ** 16
        path, _ = simulate(params, n, 0.25, seed=11)
        inc = path.increments()[0]
        assert inc.var() == pytest.approx(0.25, rel=0.02)
        lag1 = np.corrcoef(inc[1:], inc[:-1])[0, 1]
        assert abs(lag1) < 4.0 / np.sqrt(n)

    def test_instantaneous_correlation(self):
        # sample Corr(x_1(1), x_2(1)) near rho over replicates
        rho = 0.3
        params = MfbmParams.bivariate(0.4, 0.8, rho=rho)
        n, dt, reps = 65, 1.0 / 64.0, 10_000
        paths = replicate_ensemble(params, n, dt, seed=21, count=reps)
        ends = stacked_values(paths)[:, :, -1]         # (reps, 2) values at t=1
        corr = np.corrcoef(ends[:, 0], ends[:, 1])[0, 1]
        se = (1.0 - rho ** 2) / np.sqrt(reps)
        assert abs(corr - rho) < 3.0 * se

    def test_increment_covariance_matches_model(self):
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        n, dt, reps = 256, 1.0, 400
        paths = replicate_ensemble(params, n, dt, seed=33, count=reps)
        incs = np.diff(stacked_values(paths), axis=2)   # (reps, 2, n-1)
        for (j, k) in ((0, 0), (0, 1), (1, 1)):
            for lag in range(0, 9):
                a = incs[:, j, lag:]
                b = incs[:, k, :incs.shape[2] - lag]
                per_rep = np.mean(a * b, axis=1)
                est = per_rep.mean()
                se = per_rep.std(ddof=1) / np.sqrt(reps)
                want = increment_cross_covariance(params, j, k, lag, dt=dt)
                assert abs(est - want) < 3.5 * se + 1e-12, (j, k, lag)

    def test_small_n_exactness(self):
        # reduced version of the full covariance closure
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        n, reps = 16, 20_000
        paths = replicate_ensemble(params, n, 1.0, seed=55, count=reps)
        x = stacked_values(paths).reshape(reps, -1)     # (reps, 2n)
        emp = x.T @ x / reps
        theory = path_covariance(params, n)
        se = np.sqrt(np.maximum(
            np.outer(np.diag(theory), np.diag(theory)) + theory ** 2, 0.0) / reps)
        ok = np.abs(emp - theory) <= 4.0 * se + 1e-12
        assert ok.mean() > 0.99

    def test_self_similar_variance_growth(self):
        # sample variance of x(t) grows like t^(2H)
        reps, n, dt = 200, 2 ** 12, 1.0
        for hurst in (0.35, 0.7):
            params = MfbmParams.univariate(hurst)
            paths = replicate_ensemble(params, n, dt, seed=77, count=reps)
            x = stacked_values(paths)[:, 0, :]
            idx = np.unique(np.geomspace(8, n - 1, 24).astype(int))
            var = x[:, idx].var(axis=0, ddof=1)
            slope = np.polyfit(np.log(idx * dt), np.log(var), 1)[0]
            assert slope == pytest.approx(2.0 * hurst, abs=0.05)

    def test_stationary_increments_windows(self):
        # lag-0 increment covariance agrees across two disjoint windows
        params = MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1)
        reps, n = 600, 512
        paths = replicate_ensemble(params, n, 1.0, seed=91, count=reps)
        incs = np.diff(stacked_values(paths), axis=2)
        first = incs[:, 0, 10:110] * incs[:, 1, 10:110]
        second = incs[:, 0, 300:400] * incs[:, 1, 300:400]
        m1 = first.mean(axis=1)
        m2 = second.mean(axis=1)
        diff = m1.mean() - m2.mean()
        se = np.sqrt(m1.var(ddof=1) / reps + m2.var(ddof=1) / reps)
        assert abs(diff) < 3.5 * se

    def test_ensemble_mean_zero(self):
        params = MfbmParams.bivariate(0.4, 0.6, rho=0.3)
        reps = 2000
        paths = replicate_ensemble(params, 64, 1.0, seed=13, count=reps)
        x = stacked_values(paths)
        mean = x.mean(axis=0)
        sd = x.std(axis=0, ddof=1) / np.sqrt(reps)
        ok = np.abs(mean[:, 1:]) <= 4.0 * sd[:, 1:]
        assert ok.mean() > 0.98
