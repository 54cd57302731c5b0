import dataclasses
import hashlib
import importlib.util
import inspect
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfbmwave.model import (
    MfbmParams,
    MfbmwaveError,
    InvalidParamsError,
    cross_covariance,
    increment_cross_covariance,
    params_from_text,
)
import mfbmwave.model as model
import mfbmwave.synth as synth
import mfbmwave.wavelets as wavelets
from mfbmwave.synth import (
    build_embedding,
    EmbeddingReport,
    SamplePath,
    embedding_report,
    simulate,
    replicate_ensemble,
)
from mfbmwave.wavelets import HermiteWavelet, gaussian_derivative


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
        assert fac.report.circulant_size == 128
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


class TestCache:
    """The factors of the eight most recently used (params, n, dt) are kept."""

    def test_least_recently_used_evicted(self, monkeypatch):
        builds, build = [], synth.build_embedding
        monkeypatch.setattr(synth, "build_embedding",
                            lambda *key: builds.append(key[2]) or build(*key))
        params = MfbmParams.bivariate(0.3, 0.6, rho=0.2)
        # steps no other test uses, so that these eight fill the cache
        steps = [1.0 + k / 1024 for k in range(1, 10)]
        for dt in steps[:8]:
            embedding_report(params, 8, dt)
        assert builds == steps[:8]
        embedding_report(params, 8, steps[0])     # a hit refreshes its key
        assert builds == steps[:8]
        embedding_report(params, 8, steps[8])     # evicts steps[1]
        assert builds == steps
        embedding_report(params, 8, steps[0])
        assert builds == steps
        embedding_report(params, 8, steps[1])
        assert builds == steps + [steps[1]]

    def test_equal_params_share_a_factor(self, monkeypatch):
        calls, check = [], synth.check_existence
        monkeypatch.setattr(synth, "check_existence",
                            lambda params: calls.append(1) or check(params))
        first = MfbmParams.bivariate(0.35, 0.65, rho=0.3, eta=0.1)
        second = MfbmParams.bivariate(0.35, 0.65, rho=0.3, eta=0.1)
        assert first is not second
        a = synth._cached_embedding(first, 24, 1.0 + 1 / 2048)
        b = synth._cached_embedding(second, 24, 1.0 + 1 / 2048)
        assert a is b and len(calls) == 1


def unpacked(fac):
    """The packed half factor as full (p, p, m/2 + 1) matrices, with the bits
    the full layout stored: the lower triangle's conjugate above it, and
    -0.0 as the diagonal's imaginary part, which the full layout's square
    root gave at every entry."""
    p, freqs = fac.diag.shape
    root = np.empty((p, p, freqs), dtype=complex)
    rows, cols = np.tril_indices(p, -1)
    root[rows, cols] = fac.lower
    root[cols, rows] = np.conj(fac.lower)
    diag = np.arange(p)
    root.real[diag, diag] = fac.diag
    root.imag[diag, diag] = -0.0
    return root


def full_factor(fac):
    """The stored half factor and its conjugate mirror, (m, p, p)."""
    half = fac.report.circulant_size // 2
    root = unpacked(fac).transpose(2, 0, 1)
    return np.concatenate([root, np.conj(root[half - 1:0:-1])])


def reference_paths(params, n, dt, seed, count):
    """Seed scheme 3 spelled out one noise draw at a time."""
    fac = build_embedding(params, n, dt)
    m, p = fac.report.circulant_size, params.p
    a = full_factor(fac)
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    while len(out) < count:
        z = rng.standard_normal((2, m, p))
        w = z[0] + 1j * z[1]
        v = np.empty((m, p), dtype=complex)
        for i in range(p):
            v[:, i] = a[:, i, 0] * w[:, 0]
            for j in range(1, p):
                v[:, i] += a[:, i, j] * w[:, j]
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

    def test_paths_view_their_chunk(self, monkeypatch):
        # each path is a view into its chunk's block, no copy: chunks of two
        # draws hold paths 0-3 and then 4
        monkeypatch.setattr(model, "CHUNK_BYTES", 2 * 32 * 128 * 2)
        paths = replicate_ensemble(self.PARAMS, 64, 1.0, seed=17, count=5)
        blocks = [paths[0].values.base, paths[4].values.base]
        assert [b.shape for b in blocks] == [(4, 2, 64), (1, 2, 64)]
        for r, path in enumerate(paths):
            block = blocks[r // 4]
            assert path.values.base is block
            assert np.shares_memory(path.values, block[r % 4])
            assert path.seed == 17 and type(path.seed) is int

    @pytest.mark.parametrize("count", [11, 12])
    def test_stream_equals_list(self, count):
        # n = 4096: chunks of two draws, so 11 paths span three chunks and
        # end with the real half of a draw
        stream = synth.iter_ensemble(self.PARAMS, 4096, 1.0, 29, count)
        assert inspect.isgenerator(stream)
        got = list(stream)
        listed = replicate_ensemble(self.PARAMS, 4096, 1.0, seed=29,
                                    count=count)
        assert len(got) == len(listed) == count
        assert len({id(path.values.base) for path in got}) == 3
        for a, b in zip(got, listed):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.seed == b.seed == 29

    def test_odd_count_ends_with_real_half(self):
        odd = replicate_ensemble(self.PARAMS, 64, 1.0, seed=23, count=3)
        even = replicate_ensemble(self.PARAMS, 64, 1.0, seed=23, count=4)
        np.testing.assert_array_equal(odd[2].values,
                                      reference_paths(self.PARAMS, 64, 1.0, 23, 3)[2])
        assert not np.array_equal(odd[2].values, even[3].values)

    @pytest.mark.parametrize("n, short, long", [(64, 3, 7), (4096, 33, 40)])
    def test_prefix_stable(self, n, short, long):
        fac = build_embedding(self.PARAMS, n, 1.0)
        m = fac.report.circulant_size
        per_chunk = max(1, model.CHUNK_BYTES // (32 * m * self.PARAMS.p))
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


TRIVARIATE = params_from_text(
    "p: 3\nH: 0.3 0.5 0.7\nsigma: 1 1 1\n"
    "rho: 1 0.3 1 0.2 0.3 1\neta: 0.05 0.05 0.05\n")
LOG_PAIR = MfbmParams.bivariate(0.3, 0.7, rho=0.4, eta=0.2)
POWER_PAIR = MfbmParams.bivariate(0.3, 0.45, rho=0.4, eta=0.2)
# psi_1 + 0.5i psi_2, a complex analyzing wavelet
COMPLEX = HermiteWavelet([(1.0, 1), (0.5j, 2)])
# equal exponents and rho = 1: every frequency matrix has rank one
RANK_ONE = MfbmParams.bivariate(0.6, 0.6, rho=1.0)
# not nonnegative definite after MAX_DOUBLINGS doublings from n = 32
CLIPPED = MfbmParams.bivariate(0.2, 0.95, rho=0.3697)
# eight components off the log branch, every H_j + H_k < 1; admissible, and
# its embeddings are exact at the sizes the memory tests use
OCTAVARIATE = params_from_text(
    "p: 8\nH: 0.15 0.2 0.25 0.3 0.35 0.4 0.45 0.48\n"
    "sigma: 0.5 0.7 0.9 1.1 1.3 1.5 1.7 2\n"
    "rho: " + " ".join("1" if k == j else "0.2"
                       for k in range(8) for j in range(k + 1)) + "\n"
    "eta: " + " ".join(f"{0.02 * (-1) ** (j + k):g}"
                       for k in range(8) for j in range(k)) + "\n")


@pytest.mark.parametrize("params, n, seed, count, digest", [
    (TestSeedScheme.PARAMS, 64, 17, 5,
     "c2e44745eafbd32627b979c25500941880e3c06cc2fb2f2f8adef2f1e8857d99"),
    (TRIVARIATE, 100, 29, 3,
     "14b2fb41446c756edb7fa738c194741d619c9610e79ffc5023811556a5c9c72a")])
def test_ensemble_values_pinned(params, n, seed, count, digest):
    # a change of these bits is a new seed scheme: bump SEED_SCHEME
    values = stacked_values(replicate_ensemble(params, n, 1.0, seed=seed,
                                               count=count))
    assert values.shape == (count, params.p, n)
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest
    assert synth.SEED_SCHEME == 3


class TestDrawAhead:
    """A stream of two chunks or more draws its noise on one worker thread,
    ahead of the caller, when there are two CPUs, with the bits of the
    serial draw."""

    # n = 4096: chunks of two draws, 11 paths in three; n = 1000 at p = 3:
    # chunks of five draws, 31 paths in four, the last of one draw
    STREAMS = [(TestSeedScheme.PARAMS, 4096, 11, 3,
                "b9485f1082fee2b30aa519b129bd56aea30df9e1443133c9fcfe894084c05059"),
               (TRIVARIATE, 1000, 31, 4,
                "57ff42e352e5b2ebf2befa43b29636765c41e85cc6cda19ec2b1a885bc30098a")]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("params, n, count, chunks, digest", STREAMS,
                             ids=["p2-n4096", "p3-n1000"])
    def test_stream_values_pinned(self, monkeypatch, workers, params, n,
                                  count, chunks, digest):
        # the digests of the serial draw, on the caller and on the worker
        split(monkeypatch, synth._PIECE_MATRICES, workers)
        paths = list(synth.iter_ensemble(params, n, 1.0, 28, count))
        assert len({id(path.values.base) for path in paths}) == chunks
        values = stacked_values(paths)
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    def test_bits_hold_under_fast_switching(self, monkeypatch):
        # the draw-ahead beside three colouring blocks on eight workers, with
        # threads switching every microsecond
        _, n, count, _, pinned = self.STREAMS[1]
        split(monkeypatch, synth._PIECE_MATRICES, 8, samples=1)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            values = stacked_values(synth.iter_ensemble(TRIVARIATE, n, 1.0, 28,
                                                        count))
        finally:
            sys.setswitchinterval(interval)
        assert hashlib.sha256(values.tobytes()).hexdigest() == pinned
        assert threading.active_count() == before

    def test_draws_run_on_one_worker(self, monkeypatch):
        draws = record_draws(monkeypatch)
        split(monkeypatch, synth._PIECE_MATRICES, 2)
        replicate_ensemble(TRIVARIATE, 1000, 1.0, seed=28, count=31)
        assert [k for k, _ in draws] == [5, 5, 5, 1]
        assert len({t for _, t in draws}) == 1
        assert threading.get_ident() not in {t for _, t in draws}

    @pytest.mark.parametrize("workers, count", [(1, 31), (2, 10)])
    def test_no_thread_without_a_second_chunk_or_cpu(self, monkeypatch,
                                                     workers, count):
        # one CPU, or 10 paths in one chunk of five draws: all on the caller
        split(monkeypatch, synth._PIECE_MATRICES, workers)
        monkeypatch.setattr(threading.Thread, "start", refuse_thread)
        draws = record_draws(monkeypatch)
        replicate_ensemble(TRIVARIATE, 1000, 1.0, seed=28, count=count)
        assert {t for _, t in draws} == {threading.get_ident()}

    @pytest.mark.parametrize("ahead", [False, True])
    def test_budget_without_the_second_buffer(self, monkeypatch, ahead):
        # a budget that holds a serial chunk but not the draw-ahead's second
        # noise buffer streams on the caller, one that holds both draws
        # ahead; both keep the pinned bits
        _, n, count, _, pinned = self.STREAMS[1]
        split(monkeypatch, synth._PIECE_MATRICES, 2)
        m = embedding_report(TRIVARIATE, n, 1.0).circulant_size
        k = model.CHUNK_BYTES // (32 * m * 3)
        monkeypatch.setattr(model, "MEMORY_BUDGET",
                            chunk_bytes(k, 2 * k, m, 3, n, ahead))
        if not ahead:
            monkeypatch.setattr(threading.Thread, "start", refuse_thread)
        draws = record_draws(monkeypatch)
        values = stacked_values(synth.iter_ensemble(TRIVARIATE, n, 1.0, 28,
                                                    count))
        assert hashlib.sha256(values.tobytes()).hexdigest() == pinned
        assert ((threading.get_ident() in {t for _, t in draws})
                is not ahead)

    def test_close_joins_the_worker(self, monkeypatch):
        split(monkeypatch, synth._PIECE_MATRICES, 2)
        before = threading.active_count()
        stream = synth.iter_ensemble(TRIVARIATE, 1000, 1.0, 28, 31)
        next(stream)
        assert threading.active_count() == before + 1
        stream.close()
        assert threading.active_count() == before
        # and so does the end of the stream
        assert len(list(synth.iter_ensemble(TRIVARIATE, 1000, 1.0, 28, 31))) == 31
        assert threading.active_count() == before

    @pytest.mark.parametrize("fail_at", [1, 2, 4])
    def test_draw_error_reaches_next(self, monkeypatch, fail_at):
        # draw i is chunk i - 1: its error is raised at the next that wants
        # the chunk, after the paths of every chunk before it
        split(monkeypatch, synth._PIECE_MATRICES, 2)
        record_draws(monkeypatch, fail_at=fail_at)
        before = threading.active_count()
        stream = synth.iter_ensemble(TRIVARIATE, 1000, 1.0, 28, 31)
        got = []
        with pytest.raises(FloatingPointError, match="forced draw failure"):
            for path in stream:
                got.append(path)
        assert len(got) == 10 * (fail_at - 1)
        assert threading.active_count() == before

    # draws larger than the default chunk: one trivariate path at
    # m = 2^19, and three bivariate paths in two chunks at m = 2^15
    LONG = [(TRIVARIATE, 2 ** 17 + 5, 1,
             "6e8f4c7f89742a0d39e10d32f61d8b637c2b60e0a316bba45a2ac4ae6eb685cc"),
            (LOG_PAIR, 10000, 3,
             "2e78a6c4bbc4d6b00c746b955945324964483eadb82665befc1e88e84ae00abe")]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("freqs", [None, 5000])
    @pytest.mark.parametrize("params, n, count, digest", LONG,
                             ids=["p3-path", "p2-stream"])
    def test_units_values_pinned(self, monkeypatch, workers, freqs, params, n,
                                 count, digest):
        # the digests of the serial draw, drawn whole on the caller or in
        # units on the worker: units of the default chunk, or of 5000
        # frequencies, one of which straddles m/2 and the last partial
        split(monkeypatch, synth._PIECE_MATRICES, workers)
        if workers == 1:
            monkeypatch.setattr(threading.Thread, "start", refuse_thread)
        p = params.p
        m = embedding_report(params, n, 1.0).circulant_size
        if freqs is not None:
            monkeypatch.setattr(model, "CHUNK_BYTES", 32 * p * freqs)
            assert (m // 2 + 1) % freqs and m % freqs
        freqs = model.CHUNK_BYTES // (32 * p)
        assert freqs < m
        draws = record_draws(monkeypatch)
        values = stacked_values(synth.iter_ensemble(params, n, 1.0, 32, count))
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest
        units = 2 * -(-m // freqs) if workers > 1 else 1
        assert len(draws) == (count + 1) // 2 * units

    def test_units_hold_under_fast_switching(self, monkeypatch):
        # units of 1000 frequencies drawn ahead beside two transform blocks
        # on eight workers, with threads switching every microsecond
        params, n, count, digest = self.LONG[1]
        split(monkeypatch, synth._PIECE_MATRICES, 8, samples=1)
        monkeypatch.setattr(model, "CHUNK_BYTES", 32 * params.p * 1000)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            values = stacked_values(synth.iter_ensemble(params, n, 1.0, 32,
                                                        count))
        finally:
            sys.setswitchinterval(interval)
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest
        assert threading.active_count() == before

    @pytest.mark.parametrize("ahead", [False, True])
    def test_budget_without_the_unit_buffers(self, monkeypatch, ahead):
        # a budget that holds the serial chunk of a long draw but not the
        # draw-ahead's two unit buffers draws on the caller, one that holds
        # them on the worker, with the same bits
        params, n = LOG_PAIR, 10000
        split(monkeypatch, synth._PIECE_MATRICES, 1)
        inline = stacked_values(synth.iter_ensemble(params, n, 1.0, 32, 2))
        split(monkeypatch, synth._PIECE_MATRICES, 2)
        m = embedding_report(params, n, 1.0).circulant_size
        budget = chunk_bytes(1, 2, m, 2, n, True, chunks=1)
        monkeypatch.setattr(model, "MEMORY_BUDGET", budget - (not ahead))
        if not ahead:
            monkeypatch.setattr(threading.Thread, "start", refuse_thread)
        draws = record_draws(monkeypatch)
        values = stacked_values(synth.iter_ensemble(params, n, 1.0, 32, 2))
        assert values.tobytes() == inline.tobytes()
        assert ({t for _, t in draws} == {threading.get_ident()}) is not ahead
        assert len(draws) == (4 if ahead else 1)

    @pytest.mark.parametrize("fail_at, paths", [(3, 0), (7, 2)])
    def test_unit_error_reaches_next(self, monkeypatch, fail_at, paths):
        # units of two blocks a half: draw 3 is the first imaginary block of
        # chunk 0, draw 7 that of chunk 1; the error is raised at the next
        # that wants the chunk
        split(monkeypatch, synth._PIECE_MATRICES, 2)
        record_draws(monkeypatch, fail_at=fail_at)
        before = threading.active_count()
        stream = synth.iter_ensemble(LOG_PAIR, 10000, 1.0, 32, 3)
        got = []
        with pytest.raises(FloatingPointError, match="forced draw failure"):
            for path in stream:
                got.append(path)
        assert len(got) == paths
        assert threading.active_count() == before

    def test_close_after_the_first_path_of_a_long_path(self, monkeypatch):
        # the worker that drew the units is joined once the last unit is
        # in, before the inverse FFT's split and the first path
        split(monkeypatch, synth._PIECE_MATRICES, 2)
        draws = record_draws(monkeypatch)
        before = threading.active_count()
        stream = synth.iter_ensemble(LOG_PAIR, 10000, 1.0, 32, 2)
        next(stream)
        assert len(draws) == 4
        assert threading.get_ident() not in {t for _, t in draws}
        assert threading.active_count() == before
        stream.close()
        assert threading.active_count() == before


def refuse_thread(thread):
    raise AssertionError("thread started")


def record_draws(monkeypatch, fail_at=None):
    """Record (chunk draws, thread) of every noise draw of the streams made
    from here on; draw number ``fail_at`` raises a FloatingPointError."""
    draws, generator = [], np.random.Generator

    class Recording:
        def __init__(self, bit_generator):
            self.rng = generator(bit_generator)

        def standard_normal(self, size, **kwargs):
            draws.append((size[0], threading.get_ident()))
            if len(draws) == fail_at:
                raise FloatingPointError("forced draw failure")
            return self.rng.standard_normal(size, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Recording)
    return draws


def reference_blocks(params, m, dt):
    """Circulant blocks (m, p, p), every pair and lag from the model."""
    half = m // 2
    lags = np.concatenate([np.arange(half + 1), np.arange(half + 1 - m, 0)])
    out = np.empty((m, params.p, params.p))
    for j in range(params.p):
        for k in range(params.p):
            out[:, j, k] = increment_cross_covariance(params, j, k,
                                                      lags.astype(float), dt=dt)
    out[half] = 0.5 * (out[half] + out[half].T)
    return out


def full_spectrum(params, m, dt):
    """Hermitian frequency matrices of the embedding at all m frequencies."""
    lam = np.fft.fft(reference_blocks(params, m, dt), axis=0)
    return 0.5 * (lam + np.conj(np.swapaxes(lam, 1, 2)))


def factor_square(fac):
    a = full_factor(fac)
    return a @ np.conj(np.swapaxes(a, 1, 2))


def hermitian_root(lam):
    d, v = np.linalg.eigh(lam)
    return (v * np.sqrt(np.clip(d, 0.0, None))[:, None, :]) @ \
        np.conj(np.swapaxes(v, 1, 2))


class TestFactor:
    @pytest.mark.parametrize("params", [LOG_PAIR, TRIVARIATE])
    @pytest.mark.parametrize("n", [64, 1000])
    def test_square_is_full_spectrum(self, params, n):
        fac = build_embedding(params, n, 1.0)
        m = fac.report.circulant_size
        p, freqs = params.p, m // 2 + 1
        assert fac.diag.shape == (p, freqs) and fac.diag.dtype == float
        assert fac.lower.shape == (p * (p - 1) // 2, freqs)
        assert fac.lower.dtype == complex
        lam = full_spectrum(params, m, 1.0)
        scale = np.abs(lam).max()
        assert np.abs(factor_square(fac) - lam).max() <= 1e-13 * scale
        # the Hermitian square root, as the full-spectrum factor of scheme 2
        root = hermitian_root(lam)
        assert np.abs(full_factor(fac) - root).max() <= \
            1e-12 * np.abs(root).max()
        full_min = np.linalg.eigvalsh(lam).min()
        assert fac.report.min_eigenvalue == pytest.approx(full_min, rel=1e-12,
                                                          abs=1e-13 * scale)

    @pytest.mark.parametrize("params, n, count",
                             [(LOG_PAIR, 64, 5), (TRIVARIATE, 1000, 3)])
    def test_paths_of_scheme_2_to_rounding(self, params, n, count):
        # scheme 2 coloured the same noise by the root of the full spectrum
        m = build_embedding(params, n, 1.0).report.circulant_size
        root = hermitian_root(full_spectrum(params, m, 1.0))
        rng = np.random.Generator(np.random.Philox(key=99))
        want = []
        while len(want) < count:
            z = rng.standard_normal((2, m, params.p))
            y = np.fft.ifft(np.einsum("fij,fj->fi", root, z[0] + 1j * z[1]),
                            axis=0)
            for part in (y.real, y.imag):
                inc = np.sqrt(m) * part[:n - 1].T
                want.append(np.hstack([np.zeros((params.p, 1)),
                                       np.cumsum(inc, axis=1)]))
        got = stacked_values(replicate_ensemble(params, n, 1.0, seed=99,
                                                count=count))
        want = np.stack(want[:count])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("params", [LOG_PAIR, TRIVARIATE])
    @pytest.mark.parametrize("dt", [1.0, 0.37])
    @pytest.mark.parametrize("m", [2, 8, 256])
    def test_blocks_bit_equal_to_model(self, params, dt, m):
        # the circulant rows of each pair j <= k, and row kj as its reflection
        p = params.p
        got = np.empty((p, p, m))
        for j in range(p):
            for k in range(j, p):
                synth._circulant_row(params, j, k, dt, got[j, k])
                if k > j:
                    got[k, j, 0] = got[j, k, 0]
                    got[k, j, 1:] = got[j, k, :0:-1]
        np.testing.assert_array_equal(got.transpose(2, 0, 1),
                                      reference_blocks(params, m, dt))

    def test_rank_one_factor(self):
        fac = build_embedding(RANK_ONE, 16, 1.0)
        assert fac.report.correction == "none"
        lam = full_spectrum(RANK_ONE, fac.report.circulant_size, 1.0)
        assert np.abs(factor_square(fac) - lam).max() <= \
            1e-13 * np.abs(lam).max()

    def test_rank_one_path_law(self):
        n, reps = 16, 20_000
        x = stacked_values(replicate_ensemble(RANK_ONE, n, 1.0, seed=64,
                                              count=reps))
        np.testing.assert_allclose(x[:, 0], x[:, 1], rtol=0.0, atol=1e-12)
        x = x.reshape(reps, -1)
        emp = x.T @ x / reps
        theory = path_covariance(RANK_ONE, n)
        var = np.diag(theory)
        se = np.sqrt(np.maximum(np.outer(var, var) + theory ** 2, 0.0) / reps)
        assert (np.abs(emp - theory) <= 4.0 * se + 1e-12).mean() > 0.99

    def test_clip_path_clips(self):
        with pytest.warns(RuntimeWarning, match="after 6 doublings"):
            fac = build_embedding(CLIPPED, 32, 1.0)
        assert fac.report.correction == "clip"
        assert fac.report.circulant_size == 64 * 2 ** synth.MAX_DOUBLINGS
        lam = full_spectrum(CLIPPED, fac.report.circulant_size, 1.0)
        d, v = np.linalg.eigh(lam)
        assert fac.report.min_eigenvalue == pytest.approx(d.min(), rel=1e-12)
        assert d.min() < 0.0
        clipped = (v * np.clip(d, 0.0, None)[:, None, :]) @ \
            np.conj(np.swapaxes(v, 1, 2))
        assert np.abs(factor_square(fac) - clipped).max() <= \
            1e-13 * np.abs(lam).max()
        assert np.abs(full_factor(fac) - hermitian_root(lam)).max() <= \
            1e-12 * np.abs(full_factor(fac)).max()


def build_bytes(m, p):
    """The packed half spectrum, a real diagonal and a complex strict lower
    triangle, then the larger of the pair stage's and the factor stage's
    per-worker arrays times their workers, and 12 KB of small objects."""
    freqs = m // 2 + 1
    pairs = p * (p + 1) // 2 if m >= model.PIECE_SAMPLES else 1
    per_piece = synth._PIECE_MATRICES if p <= 32 else max(
        1, 1024 * synth._PIECE_MATRICES // (p * p))
    pieces = max(1, freqs // per_piece)
    f = -(-freqs // pieces)
    pair = 8 * m + 24 * (m // 2 + 2)     # a row and three kernel arrays
    # the unpacked matrices and eigenvectors, the eigenvalues and two arrays
    # their size, and a product of f values
    piece = f * (2 * 16 * p * p + 24 * p + 16)
    spectrum = freqs * (8 * p + 16 * (p * (p - 1) // 2))
    return (spectrum + max(model.workers(pairs) * pair,
                           model.workers(pieces) * piece) + 12288)


def chunk_bytes(k, reps, m, p, n, ahead, chunks=3):
    """The draw and its complex copy, the chunk's paths and the scaled half
    of a cumsum, one colouring product at p > 1, per transform worker two
    complex ufunc buffers, and 12 KB of small objects; when ``ahead``, the
    draw-ahead's second noise buffer if there is a second chunk, its two
    unit buffers if a draw is cut into units, and 12 KB more for its thread
    pool."""
    blocks = min(p, max(1, k * m * p // model.PIECE_SAMPLES))
    product = 16 * k * (m // 2 + 1) if p > 1 else 0
    buffers = 2 * 16 * min(k * p * m // 2, 8192)
    freqs = min(m, max(1, model.CHUNK_BYTES // (32 * p)))
    draw_ahead = ((chunks > 1) * 16 * k * m * p + (freqs < m) * 16 * freqs * p
                  + 12288)
    return (2 * 16 * k * m * p + reps * p * n * 8 + k * p * (n - 1) * 8
            + product + model.workers(blocks) * buffers + 12288
            + ahead * draw_ahead)


# p = 1, 2 and 3, off the log branch and on it, and p = 8 off it
BRANCHES = {
    (1, False): MfbmParams.univariate(0.3),
    (1, True): MfbmParams.univariate(0.5),
    (2, False): POWER_PAIR,
    (2, True): LOG_PAIR,
    (3, False): params_from_text(
        "p: 3\nH: 0.2 0.3 0.4\nsigma: 1 2 0.5\n"
        "rho: 1 0.3 1 0.2 0.3 1\neta: 0.05 -0.02 0.05\n"),
    (3, True): TRIVARIATE,
    (8, False): OCTAVARIATE,
}


class TestMemory:
    def setup_method(self):
        np.fft.rfft(np.zeros(8))        # numpy.fft's lazy import is one-off
        import concurrent.futures.thread    # so is the draw-ahead's  # noqa: F401

    def test_budget_stops_doubling(self, monkeypatch):
        sizes = []
        attempt = synth._try_embedding
        monkeypatch.setattr(synth, "_try_embedding",
                            lambda params, dt, m: sizes.append(m)
                            or attempt(params, dt, m))
        monkeypatch.setattr(model, "MEMORY_BUDGET", build_bytes(64, 2))
        with pytest.warns(RuntimeWarning, match="budget"):
            fac = build_embedding(CLIPPED, 32, 1.0)
        assert sizes == [64]
        assert fac.report.correction == "clip"
        assert fac.report.circulant_size == 64

    def test_budget_bounds_doublings(self):
        # computed, not run: MAX_DOUBLINGS from n = 2^20 reaches m = 2^27,
        # 7.5 GB on one CPU and more on several
        assert synth._build_bytes(2 ** 27, 3) == build_bytes(2 ** 27, 3)
        assert build_bytes(2 ** 27, 3) > 7e9 > model.MEMORY_BUDGET

    @pytest.mark.parametrize("n, p, log", [
        (n, p, log) for n in (2, 64, 1000, 2 ** 14, 2 ** 16)
        for p, log in sorted(BRANCHES) if p < 8 or n <= 2 ** 14])
    def test_count_bounds_peak(self, p, log, n):
        self.check_build_peak(BRANCHES[p, log], n)

    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_factor_bytes(self, p):
        # a real diagonal and a complex strict lower triangle: 8 p^2 bytes a
        # frequency, half of the full complex matrices
        fac = build_embedding(BRANCHES[p, False], 1000, 1.0)
        freqs = fac.report.circulant_size // 2 + 1
        assert fac.diag.nbytes + fac.lower.nbytes == 8 * p * p * freqs

    def test_build_peak_split(self, monkeypatch):
        # 256 pieces of the factor and the six pairs on two threads
        split(monkeypatch, 64, 2, samples=1)
        seen = piece_threads(monkeypatch, np.fft, "rfft", meet=2)
        self.check_build_peak(TRIVARIATE, 2 ** 14)
        assert len(set(seen)) == 2

    @staticmethod
    def check_build_peak(params, n):
        """The count bounds the traced peak, and is at most 3.5 times it."""
        tracemalloc.start()
        try:
            fac = build_embedding(params, n, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fac.report.correction == "none"
        m = fac.report.circulant_size
        assert synth._build_bytes(m, params.p) == build_bytes(m, params.p)
        assert peak <= build_bytes(m, params.p) <= 3.5 * peak

    @pytest.mark.parametrize("p", [1, 2, 3,
                                   pytest.param(8, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("n, noise", [(64, model.CHUNK_BYTES // 2),
                                          (4096, model.CHUNK_BYTES // 2),
                                          (2 ** 15, model.CHUNK_BYTES // 2),
                                          (1000, 1), (2 ** 14, 2 ** 13)])
    def test_chunk_count_bounds_peak(self, monkeypatch, p, n, noise):
        # ``noise`` bytes of draw and as many of its complex copy per chunk:
        # the default chunk, a draw larger than which is cut into units at
        # n = 2^15; one of 2 bytes, which holds a single draw in units of
        # one frequency; or one of 16 KB, whose units at n = 2^14 hold 512 / p
        monkeypatch.setattr(model, "CHUNK_BYTES", 2 * noise)
        self.check_chunk_peak(monkeypatch, BRANCHES[p, False], n)

    def test_chunk_peak_split(self, monkeypatch):
        # three transform blocks of one component on two threads, after the
        # caller's colouring: each chunk's threads are the caller and one
        # other, whose ident a later chunk need not reuse
        split(monkeypatch, 2 ** 62, 2, samples=1)
        embedding_report(TRIVARIATE, 4096, 1.0)     # the factor, cached
        seen = piece_threads(monkeypatch, np.fft, "ifft", meet=2)
        calls, run = [], synth.run_pieces

        def each_call(*args):
            seen.clear()
            run(*args)
            calls.append(set(seen))

        monkeypatch.setattr(synth, "run_pieces", each_call)
        self.check_chunk_peak(monkeypatch, TRIVARIATE, 4096)
        assert len(calls) == 4          # simulate, then three chunks
        for threads in calls:
            assert threading.get_ident() in threads and len(threads) == 2

    @staticmethod
    def check_chunk_peak(monkeypatch, params, n):
        """The count of one chunk bounds its traced peak, and is at most
        twice it.  The next chunks peak no higher once their paths are
        dropped.  When its first path is yielded the stream holds the
        chunk's paths and, on more than one CPU, the two noise buffers of
        the draw-ahead and its unit buffers if a draw is cut into units; on
        one CPU the noise is freed."""
        simulate(params, n, 1.0, seed=3)        # the factor, cached
        m = embedding_report(params, n, 1.0).circulant_size
        p = params.p
        k = max(1, model.CHUNK_BYTES // (32 * m * p))
        ahead = model.workers(2) > 1            # three chunks: the worker runs
        need = chunk_bytes(k, 2 * k, m, p, n, ahead)
        # the stream checks the serial count before its first draw
        serial = chunk_bytes(k, 2 * k, m, p, n, False)
        monkeypatch.setattr(model, "MEMORY_BUDGET", serial - 1)
        with pytest.raises(MfbmwaveError, match=f"a chunk of {2 * k} paths "
                                                f"of {n} points needs {serial} "):
            next(synth.iter_ensemble(params, n, 1.0, 3, 6 * k))
        monkeypatch.setattr(model, "MEMORY_BUDGET", need)
        stream = synth.iter_ensemble(params, n, 1.0, 3, 6 * k)
        tracemalloc.start()
        try:
            first = next(stream)
            held, peak = tracemalloc.get_traced_memory()
            del first
            tracemalloc.reset_peak()
            for _ in range(4 * k):          # into the third chunk
                next(stream)
            _, later = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            stream.close()
        assert peak <= need <= 2.0 * peak
        assert later <= peak + (4 << 10)
        # the draw-ahead: two noise buffers, the unit buffers and its
        # thread's pool
        freqs = min(m, max(1, model.CHUNK_BYTES // (32 * p)))
        assert held <= (8 * 2 * k * p * n
                        + ahead * (2 * 16 * k * m * p
                                   + (freqs < m) * 16 * freqs * p + (12 << 10))
                        + (4 << 10))

    def test_first_size_over_budget(self, monkeypatch):
        attempt = synth._try_embedding
        sizes = []
        monkeypatch.setattr(synth, "_try_embedding",
                            lambda params, dt, m: sizes.append(m)
                            or attempt(params, dt, m))
        monkeypatch.setattr(model, "MEMORY_BUDGET", build_bytes(64, 2) - 1)
        with pytest.raises(MfbmwaveError, match="over the budget"):
            build_embedding(CLIPPED, 33, 1.0)
        assert sizes == []
        monkeypatch.setattr(model, "MEMORY_BUDGET", build_bytes(64, 2))
        fac = build_embedding(MfbmParams.bivariate(0.3, 0.4), 33, 1.0)
        assert fac.report.circulant_size == 64
        assert sizes == [64]

    def test_first_size_refused_before_allocation(self, monkeypatch):
        # computed, not run: n = 10^8 at p = 2 starts at m = 2^28, 9.7 GB
        # on one CPU and more on several
        n = 10 ** 8
        assert 2 ** 27 < 2 * (n - 1) <= 2 ** 28
        assert build_bytes(2 ** 28, 2) > 9e9 > model.MEMORY_BUDGET

        def refuse(*args):
            raise AssertionError("embedding build attempted")

        monkeypatch.setattr(synth, "_try_embedding", refuse)
        with pytest.raises(MfbmwaveError, match="over the budget"):
            simulate(MfbmParams.bivariate(0.3, 0.4), n, 1.0, seed=1)

    def test_ensemble_over_budget(self, monkeypatch):
        params = MfbmParams.bivariate(0.3, 0.4)
        with pytest.raises(MfbmwaveError, match="over the budget"):
            replicate_ensemble(params, 64, 1.0, seed=1, count=10 ** 300)
        monkeypatch.setattr(model, "MEMORY_BUDGET", 3 * 2 * 64 * 8 - 1)
        with pytest.raises(MfbmwaveError, match="3 paths of 64 points"):
            replicate_ensemble(params, 64, 1.0, seed=1, count=3)


def digest(fac):
    """SHA-256 of the factor, unpacked to the full layout, and of the
    report's minimum eigenvalue."""
    return (hashlib.sha256(np.ascontiguousarray(unpacked(fac).transpose(2, 0, 1))
                           .tobytes()).hexdigest(),
            hashlib.sha256(np.float64(fac.report.min_eigenvalue).tobytes())
            .hexdigest())


def split(monkeypatch, piece, workers, samples=None):
    """Force ``piece`` frequency matrices per piece on ``workers`` threads,
    and splits of ``samples`` samples in synthesis and transforms."""
    monkeypatch.setattr(synth, "_PIECE_MATRICES", piece)
    monkeypatch.setattr(model, "workers", lambda count: min(workers, count))
    if samples is not None:
        monkeypatch.setattr(model, "PIECE_SAMPLES", samples)


def piece_threads(monkeypatch, owner=np.linalg, name="eigh", meet=1,
                  fail_at=None):
    """Record the thread of every call of ``owner.name``, a per-piece step.

    The first call of each thread waits until ``meet`` threads have made
    one, so that each of them runs a piece however fast the others are;
    call number ``fail_at`` raises a LinAlgError.
    """
    seen, lock, step = [], threading.Lock(), getattr(owner, name)
    barrier = threading.Barrier(meet, timeout=30)

    def record(*args, **kwargs):
        with lock:
            me = threading.get_ident()
            first = me not in seen
            seen.append(me)
            if len(seen) == fail_at:
                raise np.linalg.LinAlgError("forced failure")
        if first:
            barrier.wait()
        return step(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return seen


class TestPieces:
    """The half spectrum is made one component pair at a time and factored
    in pieces, on one thread or several."""

    @pytest.mark.parametrize("params, n", [(LOG_PAIR, 64), (TRIVARIATE, 100),
                                           (RANK_ONE, 16), (CLIPPED, 32)])
    def test_bits_do_not_depend_on_split(self, monkeypatch, params, n):
        builds = []
        # samples = 1 makes each pair a piece
        for piece, workers, samples in ((2 ** 62, 1, 2 ** 62), (3, 1, 1),
                                        (3, 2, 1), (5, 2, 2 ** 62),
                                        (2 ** 62, 2, 1)):
            split(monkeypatch, piece, workers, samples)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # CLIPPED
                builds.append(build_embedding(params, n, 1.0))
        inline = builds[0]
        assert (params is CLIPPED) == (inline.report.correction == "clip")
        for fac in builds[1:]:
            assert fac.report == inline.report
            assert digest(fac) == digest(inline)

    def test_factor_pinned(self):
        # the bits of one eigh call over the whole half spectrum
        fac = build_embedding(TRIVARIATE, 2 ** 14, 1.0)
        assert fac.report.circulant_size == 2 ** 15
        assert fac.report.correction == "none"
        assert digest(fac) == (
            "16ba728c628d26c10ce6f55f13bac6617a6454bab91b0ee3c63187fb6d2a30b3",
            "d199ab32ca3a29cfbb8c27ea8b2f81b90573244351067d2da27f6bfbd81b5456")

    @pytest.mark.parametrize("params, n, pinned", [
        (LOG_PAIR, 64, (
            "240015a38e950db99ed963f3a31f1323cfeeb856907bb3f351049d54b936040e",
            "730f5e2c50b0c67753703d56ad4edca3885fdf194f06cb01c562a178a51713ac")),
        (RANK_ONE, 16, (
            "2c4373075d8c4b3c788245fb8e52a04bc2390ae4bd158d082ccecaaf47857c86",
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc")),
        (CLIPPED, 32, (
            "c7ba0f669cf4502e2411287e4ff7fcc19f329712fb537f267ebbb6cadd49e9cf",
            "cf8c1f76b7f0a1b821b4992435b9eb154a1e22ec383dfa806b7fb84daa77b221")),
    ], ids=["log-pair", "rank-one", "clipped"])
    def test_small_factor_pinned(self, params, n, pinned):
        # the bits of the log branch, of a rank-one factor's zero eigenvalues
        # and of a clipped factor, whose clipped columns are zero
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # CLIPPED
            fac = build_embedding(params, n, 1.0)
        assert digest(fac) == pinned

    @pytest.mark.slow
    def test_factor_pinned_where_split(self):
        # m = 2^18: by default the six pairs are pieces, and eigh runs in 32
        assert model.pieces(6, 2 ** 18) == 6
        fac = build_embedding(TRIVARIATE, 2 ** 17 + 1, 1.0)
        assert fac.report.circulant_size == 2 ** 18
        assert fac.report.correction == "none"
        assert digest(fac) == (
            "33ea7806548d932341bb29597fa9e53602b448e9c81b910b2d62dfea325c5246",
            "30f322d1fd5ddb251e884703cf56bc4a461179516c89212e192f29fd785a2a62")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("tasks, count", [(7, 3), (1, 1), (4, 4)])
    def test_runner_ranges(self, monkeypatch, workers, tasks, count):
        # each task in exactly one range, the ranges contiguous, the results
        # in range order although the first range ends last; one piece, or
        # one worker, starts no thread
        split(monkeypatch, 2 ** 62, workers)
        starts, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: starts.append(thread)
                            or start(thread))
        calls, lock = [], threading.Lock()

        def work(lo, hi):
            if lo == 0 and count > 1:
                time.sleep(0.01)
            with lock:
                calls.append((lo, hi))
            return list(range(lo, hi))

        results = model.run_pieces(work, tasks, count)
        ranges = sorted(calls)
        assert len(ranges) == count
        assert [t for lo, hi in ranges for t in range(lo, hi)] == \
            list(range(tasks))
        assert all(hi > lo for lo, hi in ranges)
        assert results == [list(range(lo, hi)) for lo, hi in ranges]
        assert len(starts) == min(workers, count) - 1

    def test_piece_counts_of_the_shared_rule(self):
        # a pair of the build splits once its circulant row holds 2^18
        # samples, a scale of the transform once its correlation over every
        # row does
        for e in range(3, 23):
            for pairs in (1, 3, 6):
                assert model.pieces(pairs, 2 ** e) == (pairs if e >= 18 else 1)
        for rows in (1, 2, 3, 60):
            edge = -(-2 ** 18 // rows)      # the least N with rows N >= 2^18
            for N in (edge - 2, edge - 1, edge, edge + 1, 2 * edge):
                for tasks in (1, 2, 8):
                    assert model.pieces(tasks, rows * N) == (
                        tasks if rows * N >= 2 ** 18 else 1)
        # one path of n = 2^19 at p = 3 (m = 2^20): 6 pair pieces, 128 eigh
        # pieces, 8 transform pieces at 8 scales
        assert model.pieces(6, 2 ** 20) == 6
        assert synth._eigh_pieces(2 ** 19 + 1, 3) == 128
        assert model.pieces(8, 3 * wavelets._fast_len(2 ** 19)) == 8
        # the half spectrum of n = 4096 is one eigh piece up to p = 32, and
        # pieces of 1024 matrices, 2^22 entries, at p = 64
        assert [synth._eigh_pieces(4097, p) for p in (1, 8, 32, 33, 64)] == \
            [1, 1, 1, 1, 4]

    def test_split_runs_on_threads(self, monkeypatch):
        default = synth._PIECE_MATRICES, model.PIECE_SAMPLES
        split(monkeypatch, 3, 2)
        seen = piece_threads(monkeypatch, meet=2)
        build_embedding(TRIVARIATE, 100, 1.0)
        assert len(seen) == (256 // 2 + 1) // 3
        assert len(set(seen)) == 2
        for piece, workers in ((3, 1), (2 ** 62, 2)):
            split(monkeypatch, piece, workers)
            seen = piece_threads(monkeypatch)
            build_embedding(TRIVARIATE, 100, 1.0)
            assert set(seen) == {threading.get_ident()}
        # each pair a piece: one rfft per diagonal pair, two per other pair
        split(monkeypatch, 2 ** 62, 2, samples=1)
        seen = piece_threads(monkeypatch, np.fft, "rfft", meet=2)
        build_embedding(TRIVARIATE, 100, 1.0)
        assert len(seen) == 9 and len(set(seen)) == 2
        # n = 64 at the default rule: rows of 128 samples, 65 matrices
        split(monkeypatch, default[0], 2, default[1])
        starts = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: starts.append(thread))
        seen = piece_threads(monkeypatch, np.fft, "rfft")
        build_embedding(TRIVARIATE, 64, 1.0)
        assert starts == [] and set(seen) == {threading.get_ident()}

    def test_workers_take_callers_error_state(self, monkeypatch):
        # numpy keeps its floating-point error state per thread; the pair
        # stage runs under the build's own, which ignores overflow
        split(monkeypatch, 3, 2, samples=1)
        seen = piece_threads(monkeypatch, meet=2)
        pairs = piece_threads(monkeypatch, synth, "_pair_spectrum", meet=2)
        states, root = [], synth._square_root
        monkeypatch.setattr(synth, "_square_root",
                            lambda *args: states.append(np.geterr())
                            or root(*args))
        pair_states, spectrum = [], synth._pair_spectrum
        monkeypatch.setattr(synth, "_pair_spectrum",
                            lambda *args: pair_states.append(np.geterr())
                            or spectrum(*args))
        with np.errstate(divide="ignore", over="raise", under="warn",
                         invalid="print"):
            want = np.geterr()
            build_embedding(TRIVARIATE, 100, 1.0)
        assert len(set(seen)) == 2 and len(set(pairs)) == 2
        assert len(states) == len(seen) and all(s == want for s in states)
        want.update(over="ignore", invalid="ignore")
        assert len(pair_states) == 6
        assert all(s == want for s in pair_states)

    @pytest.mark.parametrize("samples", [2 ** 62, 1])
    def test_overflow_refused_without_warning(self, monkeypatch, samples):
        # the pieces of a spectrum that is not finite take neither eigh nor
        # a square root; with samples = 1 the pairs overflow on two threads
        split(monkeypatch, 3, 2, samples)
        pairs = piece_threads(monkeypatch, synth, "_pair_spectrum",
                              meet=1 if samples > 1 else 2)
        seen = piece_threads(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MfbmwaveError, match="spectrum is not finite"):
                build_embedding(MfbmParams.bivariate(0.7, 0.8, rho=0.5), 64,
                                1e300)
        assert seen == []
        assert len(pairs) == 3 and len(set(pairs)) == (2 if samples == 1
                                                        else 1)

    @pytest.mark.parametrize("piece, workers", [(2 ** 62, 1), (3, 2)])
    def test_infinite_eigenvalue_refused(self, monkeypatch, piece, workers):
        # a finite spectrum whose first eigh call gives an infinite
        # eigenvalue: that piece raises before its square root, unwarned
        split(monkeypatch, piece, workers)
        eigh, lock, calls = np.linalg.eigh, threading.Lock(), []

        def poisoned(a):
            evals, evecs = eigh(a)
            with lock:
                calls.append(len(a))
                if len(calls) == 1:
                    evals[0, -1] = np.inf
            return evals, evecs

        monkeypatch.setattr(np.linalg, "eigh", poisoned)
        finite, square_root = [], synth._square_root
        monkeypatch.setattr(synth, "_square_root",
                            lambda evals, *args: finite.append(
                                bool(np.isfinite(evals).all()))
                            or square_root(evals, *args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MfbmwaveError, match="spectrum is not finite"):
                build_embedding(TRIVARIATE, 100, 1.0)
        assert calls and all(finite) and len(finite) < len(calls)
        if piece == 2 ** 62:
            assert calls == [129] and finite == []

    @pytest.mark.parametrize("piece, workers", [(2 ** 62, 1), (3, 2)])
    def test_overflow_refused_before_eigh(self, monkeypatch, piece, workers):
        # LAPACK does not converge on this spectrum: it must not be asked
        split(monkeypatch, piece, workers)
        seen = piece_threads(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MfbmwaveError, match="spectrum is not finite"):
                build_embedding(TRIVARIATE, 100, 1e300)
        assert seen == []

    def test_traced_names_stay_on_main_thread(self, monkeypatch,
                                              fresh_embedding_cache):
        # the benchmark's span stack assumes one thread
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        calls = []

        def recorder(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)
            return wrapper

        # every reference the library holds, as the tracer replaces them
        traced = [(name, getattr(importlib.import_module(f"mfbmwave.{mod}"),
                                 name)) for mod, name in spans.TRACED]
        modules = [m for key, m in list(sys.modules.items())
                   if key == "mfbmwave" or key.startswith("mfbmwave.")]
        for name, fn in traced:
            for module in modules:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, recorder(name, fn))
        split(monkeypatch, 3, 2)
        # check_existence calls eigh too, on the main thread
        seen = piece_threads(monkeypatch, synth, "_square_root", meet=2)
        synth.replicate_ensemble(TRIVARIATE, 100, 1.0, seed=3, count=2)
        assert len(set(seen)) == 2
        # one recorder per split call: its barrier meets the call's threads
        split(monkeypatch, 3, 2, samples=1)
        seen = piece_threads(monkeypatch, np.fft, "ifft", meet=2)
        path, _ = synth.simulate(TRIVARIATE, 100, 1.0, seed=4)
        assert len(seen) == 3 and len(set(seen)) == 2
        seen = piece_threads(monkeypatch, np.fft, "irfft", meet=2)
        wavelets.cwt(path, gaussian_derivative(2), [4.0, 4.5])
        assert len(seen) == 2 and len(set(seen)) == 2
        assert {"replicate_ensemble", "check_existence", "build_embedding",
                "simulate", "cwt"} <= {name for name, _ in calls}
        assert all(t is threading.main_thread() for _, t in calls)

    def test_more_workers_than_cores(self, monkeypatch):
        # each pair and one matrix a piece on 8 threads that switch every
        # microsecond: each piece runs once, and the bits hold
        inline = digest(build_embedding(TRIVARIATE, 100, 1.0))
        split(monkeypatch, 1, 8, samples=1)
        before = threading.active_count()
        seen = piece_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fac = build_embedding(TRIVARIATE, 100, 1.0)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 256 // 2 + 1
        assert digest(fac) == inline
        assert threading.active_count() == before

    @pytest.mark.parametrize("fail_at", [1, 5, 40])
    def test_piece_error_reaches_caller(self, monkeypatch, fail_at):
        split(monkeypatch, 3, 2)
        before = threading.active_count()
        piece_threads(monkeypatch, fail_at=fail_at)
        with pytest.raises(np.linalg.LinAlgError, match="forced failure"):
            build_embedding(TRIVARIATE, 100, 1.0)
        assert threading.active_count() == before

    @pytest.mark.parametrize("params", [LOG_PAIR, TRIVARIATE])
    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    @pytest.mark.parametrize("noise", [model.CHUNK_BYTES // 2, 1])
    def test_synthesis_bits_do_not_depend_on_split(self, monkeypatch, params,
                                                   count, noise):
        # ``noise`` bytes of draw and as many of its complex copy per chunk;
        # a chunk of 2 bytes holds one draw: replicate 6 of 7 is a chunk of
        # its own, the real half of its draw
        monkeypatch.setattr(model, "CHUNK_BYTES", 2 * noise)
        inline = stacked_values(synth.iter_ensemble(params, 100, 1.0, 11,
                                                    count))
        m, p = embedding_report(params, 100, 1.0).circulant_size, params.p
        k = 1 if noise == 1 else (count + 1) // 2
        # p blocks of one component, then two blocks
        for samples, workers in ((1, 1), (1, 2), (k * m * p // 2, 2)):
            split(monkeypatch, 2 ** 62, workers, samples)
            seen = piece_threads(monkeypatch, np.fft, "ifft")
            values = stacked_values(synth.iter_ensemble(params, 100, 1.0, 11,
                                                        count))
            assert values.tobytes() == inline.tobytes()
            chunks = (count + 1) // 2 // k
            blocks = p if samples == 1 else 2
            assert len(seen) == chunks * blocks

    def test_synthesis_split_runs_on_threads(self, monkeypatch):
        split(monkeypatch, 2 ** 62, 2, samples=1)
        seen = piece_threads(monkeypatch, np.fft, "ifft", meet=2)
        simulate(TRIVARIATE, 100, 1.0, seed=5)
        assert len(seen) == 3 and len(set(seen)) == 2
        # one worker, then the default threshold: a chunk of 2 x 256 x 3
        # samples is one piece
        for samples, workers in ((1, 1), (1 << 18, 2)):
            split(monkeypatch, 2 ** 62, workers, samples)
            seen = piece_threads(monkeypatch, np.fft, "ifft")
            replicate_ensemble(TRIVARIATE, 100, 1.0, seed=5, count=4)
            assert len(seen) == (3 if samples == 1 else 1)
            assert set(seen) == {threading.get_ident()}

    def test_synthesis_products_not_shared(self, monkeypatch):
        # three transform blocks of one row on three threads, more than the
        # CPUs, beside the draw-ahead of units of 100 frequencies: every
        # colouring product is made on the caller, 9 per piece of a unit
        # (the unit across m/2 is two), so no two threads share one
        inline = stacked_values(replicate_ensemble(TRIVARIATE, 512, 1.0,
                                                   seed=4, count=2))
        split(monkeypatch, 2 ** 62, 3, samples=1)
        monkeypatch.setattr(model, "CHUNK_BYTES", 32 * 3 * 100)
        multiply, lock, products = np.multiply, threading.Lock(), []

        def recording(*args, **kwargs):
            # a colouring product: a factor entry, real on the diagonal,
            # times the complex noise
            if np.iscomplexobj(args[1]):
                with lock:
                    products.append(threading.get_ident())
            return multiply(*args, **kwargs)

        monkeypatch.setattr(np, "multiply", recording)
        seen = piece_threads(monkeypatch, np.fft, "ifft", meet=3)
        values = stacked_values(replicate_ensemble(TRIVARIATE, 512, 1.0,
                                                   seed=4, count=2))
        assert values.tobytes() == inline.tobytes()
        assert len(set(seen)) == 3
        assert products == [threading.get_ident()] * 9 * (-(-1024 // 100) + 1)

    @pytest.mark.parametrize("fail_at", [1, 2, 3])
    def test_synthesis_error_reaches_caller(self, monkeypatch, fail_at):
        simulate(TRIVARIATE, 100, 1.0, seed=5)      # the factor, cached
        split(monkeypatch, 2 ** 62, 2, samples=1)
        before = threading.active_count()
        piece_threads(monkeypatch, np.fft, "ifft", fail_at=fail_at)
        with pytest.raises(np.linalg.LinAlgError, match="forced failure"):
            simulate(TRIVARIATE, 100, 1.0, seed=5)
        assert threading.active_count() == before

    @pytest.mark.parametrize("wavelet", [gaussian_derivative(2), COMPLEX])
    @pytest.mark.parametrize("shifts", [None, np.arange(160.0, 352.0, 3.0)])
    def test_transform_bits_do_not_depend_on_split(self, monkeypatch, wavelet,
                                                   shifts):
        paths = replicate_ensemble(LOG_PAIR, 512, 1.0, seed=4, count=3)
        scales = [4.0, 8.0, 16.0]

        def coeffs():
            return np.stack([f.coeffs for f in
                             wavelets.cwt_ensemble(paths, wavelet, scales,
                                                   shifts)])

        inline = coeffs()
        pieces = len(scales) * (1 if wavelet.is_real else 2)
        for workers, meet in ((1, 1), (2, 2)):
            split(monkeypatch, 2 ** 62, workers, samples=1)
            seen = piece_threads(monkeypatch, np.fft, "irfft", meet=meet)
            assert coeffs().tobytes() == inline.tobytes()
            assert len(seen) == pieces and len(set(seen)) == workers

    @pytest.mark.parametrize("fail_at", [1, 2, 6])
    def test_transform_error_reaches_caller(self, monkeypatch, fail_at):
        path, _ = simulate(LOG_PAIR, 512, 1.0, seed=6)
        split(monkeypatch, 2 ** 62, 2, samples=1)
        before = threading.active_count()
        piece_threads(monkeypatch, np.fft, "irfft", fail_at=fail_at)
        with pytest.raises(np.linalg.LinAlgError, match="forced failure"):
            wavelets.cwt(path, COMPLEX, [4.0, 8.0, 16.0])
        assert threading.active_count() == before

    @pytest.mark.parametrize("wavelet", [gaussian_derivative(2), COMPLEX])
    @pytest.mark.parametrize("shifts", [None, np.arange(100.0, 140.0, 5.0)])
    def test_transform_peak_split(self, monkeypatch, wavelet, shifts):
        # each of the two workers holds its own product and correlation
        # rows; with few shifts they are most of the transform's memory
        path, _ = simulate(LOG_PAIR, 1 << 14, 1.0, seed=7)
        values = path.values[None]
        scales, shift_idx = wavelets._grid(path.n, 1.0, [4.0, 8.0], shifts)

        def count(workers):
            split(monkeypatch, 2 ** 62, workers, samples=1)
            return wavelets._transform_bytes(1, 2, path.n, 1.0,
                                             wavelet.is_real, scales,
                                             shift_idx.size)

        one, bound = count(1), count(2)
        seen = piece_threads(monkeypatch, np.fft, "irfft", meet=2)
        tracemalloc.start()
        try:
            wavelets._transform(values, 1.0, wavelet, scales, shift_idx,
                                threading.local())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(set(seen)) == 2
        assert peak <= bound
        if shifts is not None:
            assert peak > one


class TestInputChecks:
    PARAMS = MfbmParams.bivariate(0.3, 0.4)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 10 ** 300])
    def test_seed_range(self, seed):
        with pytest.raises(MfbmwaveError,
                           match=r"seed must lie in \[0, 2\*\*64\)"):
            simulate(self.PARAMS, 16, 1.0, seed=seed)
        with pytest.raises(MfbmwaveError, match="seed"):
            replicate_ensemble(self.PARAMS, 16, 1.0, seed=seed, count=2)

    def test_seed_bounds_admitted(self):
        for seed in (0, 2 ** 64 - 1):
            path, _ = simulate(self.PARAMS, 16, 1.0, seed=seed)
            assert path.seed == seed

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_too_few_points(self, n):
        with pytest.raises(MfbmwaveError, match="at least two grid points"):
            simulate(self.PARAMS, n, 1.0, seed=1)

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf"),
                                    True, "1.0", None, 1j, 10 ** 400, "x"])
    def test_bad_step(self, monkeypatch, dt):
        # one check, before any factor is built or cached: zero built an
        # all-zero factor reported as exact, -1 and NaN were refused as an
        # overflow, True built, and a string was a TypeError; the increment
        # covariance returned zeros at 0 and -1, NaN at NaN, and raised
        # numpy's UFuncTypeError at "x" and OverflowError at 10^400
        with pytest.raises(MfbmwaveError, match="dt must be positive"):
            increment_cross_covariance(self.PARAMS, 0, 1, [0, 1], dt)
        def refuse(*args):
            raise AssertionError("factor built")

        monkeypatch.setattr(synth, "check_existence", refuse)
        monkeypatch.setattr(synth, "_try_embedding", refuse)
        match = "dt must be positive and finite"
        with pytest.raises(MfbmwaveError, match=match):
            build_embedding(self.PARAMS, 64, dt)
        monkeypatch.setattr(synth, "_cached_embedding", refuse)
        with pytest.raises(MfbmwaveError, match=match):
            embedding_report(self.PARAMS, 16, dt)   # a hit on 1.0 took True
        with pytest.raises(MfbmwaveError, match=match):
            simulate(self.PARAMS, 16, dt, seed=1)
        with pytest.raises(MfbmwaveError, match=match):
            next(synth.iter_ensemble(self.PARAMS, 16, dt, 1, 2))

    @pytest.mark.parametrize("dt", [1, np.float32(0.5), np.int64(2)])
    def test_step_as_float(self, dt):
        path, _ = simulate(self.PARAMS, 16, dt, seed=1)
        assert type(path.dt) is float and path.dt == dt
        assert path.times.dtype == float

    def test_count(self):
        with pytest.raises(MfbmwaveError, match="count >= 1"):
            replicate_ensemble(self.PARAMS, 16, 1.0, seed=1, count=0)

    @pytest.mark.parametrize("n, seed, count, name", [
        (16, 1.5, 2, "seed"), (16, 1.9, 2, "seed"), (16, True, 2, "seed"),
        (16.0, 1, 2, "n"), (True, 1, 2, "n"),
        (16, 1, 3.0, "count"), (16, 1, True, "count")])
    def test_integers_only(self, monkeypatch, n, seed, count, name):
        # refused before any factor is built: a float seed is not truncated
        # to another seed's path, and a float n builds no factor that numpy
        # then refuses
        def refuse(*args):
            raise AssertionError("factor built")

        monkeypatch.setattr(synth, "_cached_embedding", refuse)
        match = f"{name} must be an integer"
        with pytest.raises(MfbmwaveError, match=match):
            replicate_ensemble(self.PARAMS, n, 1.0, seed=seed, count=count)
        if count == 2:
            with pytest.raises(MfbmwaveError, match=match):
                simulate(self.PARAMS, n, 1.0, seed=seed)

    def test_numpy_integers_admitted(self):
        want = replicate_ensemble(self.PARAMS, 16, 1.0, seed=5, count=3)
        got = replicate_ensemble(self.PARAMS, np.int64(16), 1.0,
                                 seed=np.uint64(5), count=np.int32(3))
        assert stacked_values(got).tobytes() == stacked_values(want).tobytes()
        assert all(path.seed == 5 and type(path.seed) is int for path in got)

    @pytest.mark.parametrize("n, count, name", [
        ("64", 3, "n"), (64, "3", "count")])
    def test_ensemble_sizes_before_budget(self, monkeypatch, n, count, name):
        # a string size or count was a TypeError from the budget's product
        def refuse(*args):
            raise AssertionError("budget checked")

        monkeypatch.setattr(synth, "require_bytes", refuse)
        with pytest.raises(MfbmwaveError, match=f"{name} must be an integer"):
            replicate_ensemble(self.PARAMS, n, 1.0, seed=3, count=count)

    @pytest.mark.parametrize("n", [64.5, "64"])
    def test_report_size(self, monkeypatch, n):
        # refused before the cache: 64.5 gave the report of a factor of
        # size 128, and a string was a TypeError
        def refuse(*args):
            raise AssertionError("factor built")

        monkeypatch.setattr(synth, "_cached_embedding", refuse)
        monkeypatch.setattr(synth, "_try_embedding", refuse)
        for call in (embedding_report, build_embedding):
            with pytest.raises(MfbmwaveError, match="n must be an integer"):
                call(self.PARAMS, n, 1.0)

    def test_report_correction(self):
        with pytest.raises(MfbmwaveError, match="correction must be"):
            EmbeddingReport(circulant_size=32, min_eigenvalue=0.0,
                            correction="shift")

    def test_path_shape(self):
        with pytest.raises(MfbmwaveError, match="values shape inconsistent"):
            SamplePath(self.PARAMS, 16, 1.0, np.zeros((2, 15)), seed=1)

    @pytest.mark.parametrize("origin", [1.0, -1e-300, float("nan"),
                                        float("inf"), -float("inf")])
    def test_path_start(self, origin):
        values = np.zeros((2, 16))
        values[1, 0] = origin
        with pytest.raises(MfbmwaveError, match="paths must start at zero"):
            SamplePath(self.PARAMS, 16, 1.0, values, seed=1)

    def test_path_start_accepted(self):
        values = np.zeros((2, 16))
        values[0, 0] = -0.0
        path = SamplePath(self.PARAMS, 16, 1.0, values, seed=1)
        assert path.values is values
        listed = SamplePath(self.PARAMS, 16, 1.0, values.tolist(), seed=1)
        assert listed.values.dtype == float
        np.testing.assert_array_equal(listed.values, values)

    @pytest.mark.parametrize("dt", [-1.0, "x", float("nan"), 0.0, True,
                                    10 ** 400])
    def test_path_step(self, dt):
        # -1.0 made times 0, -1, -2, ...; NaN and -1.0 survived a save/load
        with pytest.raises(MfbmwaveError,
                           match="dt must be positive and finite"):
            SamplePath(self.PARAMS, 16, dt, np.zeros((2, 16)), seed=1)

    @pytest.mark.parametrize("n, seed, match", [
        (16.0, 1, "n must be an integer"),
        (16, 1.5, "seed must be an integer"),
        (16, -1, r"seed must lie in \[0, 2\*\*64\)"),
        (16, 2 ** 64, r"seed must lie in \[0, 2\*\*64\)")])
    def test_path_size_and_seed(self, n, seed, match):
        # each was a struct.error from save_path
        with pytest.raises(MfbmwaveError, match=match):
            SamplePath(self.PARAMS, n, 1.0, np.zeros((2, 16)), seed=seed)

    def test_path_stores_float_and_ints(self):
        path = SamplePath(self.PARAMS, np.int64(16), np.float32(0.5),
                          np.zeros((2, 16)), seed=np.uint64(2 ** 64 - 1))
        assert type(path.n) is int and type(path.seed) is int
        assert type(path.dt) is float and path.dt == 0.5
        assert path.seed == 2 ** 64 - 1

    def test_path_compares_by_identity(self):
        a, b = (SamplePath(self.PARAMS, 3, 1.0, np.zeros((2, 3)), seed=0)
                for _ in range(2))
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2


class TestBlockPaths:
    """The stream makes a chunk's paths from its block after one check of
    the block (``SamplePath._of_block``), with the attributes and the
    refusals of the public constructor, which checks one path by the same
    rules."""

    PARAMS = TestInputChecks.PARAMS

    def refused(self, block, n, match):
        """The same block is refused with the same message by the stream's
        route and, a path at a time, by the constructor's."""
        with pytest.raises(MfbmwaveError, match=match):
            list(SamplePath._of_block(self.PARAMS, n, 1.0, block, 7))
        with pytest.raises(MfbmwaveError, match=match):
            for values in block:
                SamplePath(self.PARAMS, n, 1.0, values, seed=7)

    @pytest.mark.parametrize("shape, n", [((3, 3, 16), 16), ((3, 2, 15), 16),
                                          ((2, 16), 16), ((3, 2, 16), 17)])
    def test_shape(self, shape, n):
        self.refused(np.zeros(shape), n, "values shape inconsistent")

    def test_no_points(self):
        self.refused(np.zeros((3, 2, 0)), 0, "at least one point")

    @pytest.mark.parametrize("origin", [1.0, -1e-300, float("nan"),
                                        float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (2, 1)])
    def test_start(self, origin, where):
        block = np.zeros((3, 2, 16))
        block[where + (0,)] = origin
        self.refused(block, 16, "paths must start at zero")

    def test_start_accepted(self):
        block = np.zeros((3, 2, 16))
        block[:, :, 0] = -0.0
        paths = list(SamplePath._of_block(self.PARAMS, 16, 1.0, block, 7))
        assert len(paths) == 3
        for r, path in enumerate(paths):
            assert path.values.base is block
            assert np.shares_memory(path.values, block[r])

    def test_stream_paths_frozen(self):
        path = next(synth.iter_ensemble(self.PARAMS, 16, 1.0, 3, 2))
        assert type(path) is SamplePath
        for field in dataclasses.fields(SamplePath):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(path, field.name, None)

    def test_stream_paths_match_constructor(self, monkeypatch):
        # chunks of two draws: paths 0-3 view one block and path 4 another
        monkeypatch.setattr(model, "CHUNK_BYTES", 2 * 32 * 32 * 2)
        paths = list(synth.iter_ensemble(self.PARAMS, 16, 0.5, np.uint64(9),
                                         5))
        blocks = [paths[0].values.base, paths[4].values.base]
        assert [b.shape for b in blocks] == [(4, 2, 16), (1, 2, 16)]
        for r, path in enumerate(paths):
            public = SamplePath(self.PARAMS, 16, 0.5, path.values, 9)
            for field in dataclasses.fields(SamplePath):
                got, want = getattr(path, field.name), getattr(public, field.name)
                assert got is want or (got == want and type(got) is type(want))
            assert path.values.base is blocks[r // 4]
            assert np.shares_memory(path.values, blocks[r // 4][r % 4])
