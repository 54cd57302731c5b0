"""The four benchmark workloads.

Each workload has a set-up (parameter load and, where it has one, the cold
circulant-embedding build), a round of timed operations repeated until the
run's time is up, an untimed ``absorb`` step that checks or accumulates the
round's outputs, final checks, and a self-test that feeds every check one
deliberately wrong input.  Library calls go through module attributes
(``synth.simulate``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import shutil
import time

import numpy as np

from mfbmwave import cli, containers, model, synth, verify, wavelets, wavstats
from mfbmwave import spectral
from mfbmwave.wavstats import WaveletCovQuery

import checks


def sub_seed(seed, *keys):
    """63-bit seed for one round or input, derived from the run seed."""
    ss = np.random.SeedSequence([int(seed), *[int(k) for k in keys]])
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def first_circulant(n):
    m = 1
    while m < 2 * (n - 1):
        m *= 2
    return m


class Workload:
    name = ""
    setup_repeats = 3
    n = 0                      # path length of the synthesis, 0 if none
    dt = 1.0
    params_text = ""
    calibration = "small"      # speed kernel of the run (run.KERNELS)

    def __init__(self, seed, workdir, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.params_file = workdir / "params.txt"
        self.params_file.write_text(self.params_text, encoding="utf-8")
        self.params = None
        self.errors = []
        self.results = {}      # check name -> list of (passed, detail)
        # called after every operation; returns the seconds it took, which
        # ``paused`` collects so that rounds can leave them out
        self.tick = lambda: 0.0
        self.paused = 0.0

    # -- set-up ------------------------------------------------------------

    def setup(self, i):
        """Parameter load and one cold embedding build.

        Every repetition but the last builds the factor directly; the last
        goes through the public cached entry point, so the cache the rounds
        use is filled by a cold build too.
        """
        self.params = model.load_params(self.params_file)
        if not self.n:
            return
        if i < self.setup_repeats - 1:
            synth.build_embedding(self.params, self.n, self.dt)
        else:
            synth.embedding_report(self.params, self.n, self.dt)

    def embedding(self):
        """(circulant size, doublings) from the public embedding report."""
        if not self.n:
            return 0, 0
        rep = synth.embedding_report(self.params, self.n, self.dt)
        return rep.circulant_size, int(round(math.log2(
            rep.circulant_size / first_circulant(self.n))))

    # -- helpers -----------------------------------------------------------

    def op(self, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failed operation."""
        try:
            return fn(*args, **kwargs), True
        except Exception as exc:  # noqa: BLE001 - any library error is a failure
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None, False
        finally:
            self.paused += self.tick()

    def record(self, name, result):
        self.results.setdefault(name, []).append(result)

    def summary(self):
        """One (passed, detail) per check: the first failure, else the last."""
        out = {}
        for name, results in self.results.items():
            bad = [r for r in results if not r[0]]
            out[name] = bad[0] if bad else results[-1]
        return out

    def headline(self, round_times):
        return {}


# ---------------------------------------------------------------------------

BIVARIATE = "p: 2\nH: 0.4 0.7\nsigma: 1 1\nrho: 1 0.5 1\neta: 0.1\n"


class EnsembleN64(Workload):
    """Tens of thousands of n = 64 paths through replicate_ensemble."""

    name = "ensemble-n64"
    n = 64
    params_text = BIVARIATE
    count = 500

    def __init__(self, *args):
        super().__init__(*args)
        self.sum_xx = np.zeros((2 * self.n, 2 * self.n))
        self.paths = 0
        self._pending = None

    def round(self, r):
        self._pending, ok = self.op(synth.replicate_ensemble, self.params, self.n,
                                    self.dt, sub_seed(self.seed, r), self.count)
        return 1, 0 if ok else 1

    def absorb(self, r):
        if self._pending is None:
            return
        x = np.stack([p.values.reshape(-1) for p in self._pending])
        self.sum_xx += x.T @ x
        self.paths += x.shape[0]
        self._pending = None

    def _theory(self):
        return checks.path_covariance_theory(self.params, self.n, self.dt,
                                             model.cross_covariance)

    def final_checks(self):
        if self.paths:
            self.record("path-covariance-4se",
                        checks.covariance_within_se(self.sum_xx, self.paths,
                                                    self._theory()))
        else:
            self.record("path-covariance-4se", (False, "no paths"))

    def self_tests(self):
        wrong = model.MfbmParams(H=self.params.H + 0.05, sigma=self.params.sigma,
                                 rho=self.params.rho, eta=self.params.eta)
        paths = synth.replicate_ensemble(wrong, self.n, self.dt,
                                         sub_seed(self.seed, 10 ** 6), 2000)
        x = np.stack([p.values.reshape(-1) for p in paths])
        return {"path-covariance-4se (H + 0.05)":
                checks.covariance_within_se(x.T @ x, x.shape[0], self._theory())}

    def headline(self, round_times):
        return {"paths_per_s": self.count / np.median(round_times),
                "paths": self.paths}


# ---------------------------------------------------------------------------

class ClosureN4096(Workload):
    """The CLI chain simulate -> cwt -> estimate, in-process via cli.main."""

    name = "closure-n4096"
    n = 4096
    params_text = BIVARIATE
    sim_count = 4
    est_count = 300
    wavelet_m = 2
    scales = (4.0, 8.0, 16.0, 32.0)
    lags = tuple(range(17))
    n_direct = 5

    def __init__(self, *args):
        super().__init__(*args)
        out = self.workdir / "out"
        self.dirs = {s: out / s for s in ("simulate", "cwt", "estimate")}
        configs = {
            "simulate": {"params": str(self.params_file), "n": self.n,
                         "dt": self.dt, "count": self.sim_count},
            "cwt": {"path_file": str(self.dirs["simulate"] / "path_0000.mfbm"),
                    "wavelet_m": self.wavelet_m, "scales": list(self.scales)},
            "estimate": {"params": str(self.params_file),
                         "wavelet_m": self.wavelet_m, "n": self.n, "dt": self.dt,
                         "count": self.est_count, "a1": self.scales[0],
                         "a2": self.scales[0], "lags": list(self.lags)},
        }
        self.argv = {}
        for step, config in configs.items():
            cfg = self.workdir / f"{step}.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            self.argv[step] = ["--config", str(cfg), "--out", str(self.dirs[step]),
                               step]
        self.codes = []
        self.last = {}

    def round(self, r):
        seed = sub_seed(self.seed, r)
        self.codes = []
        for step in ("simulate", "cwt", "estimate"):
            argv = ["--seed", str(seed)] + self.argv[step]
            with self.tracer.span(f"cli.{step}"):
                code, ok = self.op(cli.main, argv)
            self.codes.append(code if ok else "exception")
        return 3, sum(c != 0 for c in self.codes)

    def absorb(self, r):
        codes = self.codes
        self.record("cli-exit-codes", checks.all_zero_exit(codes))
        if codes[0] == 0:
            self._check_simulate()
        if codes[1] == 0 and "path" in self.last:
            self._check_cwt(r)
        if codes[2] == 0:
            self._check_estimate()
        shutil.rmtree(self.workdir / "out", ignore_errors=True)

    def _check_simulate(self):
        sim = self.dirs["simulate"]
        written = json.loads((sim / "embedding_report.json").read_text())
        self.record("simulate-embedding-report", checks.exact_embedding(written))
        for i in range(self.sim_count):
            times, csv_values = checks.read_path_csv(sim / f"path_{i:04d}.csv")
            p, n, dt, _, bin_values = checks.read_path_container(
                sim / f"path_{i:04d}.mfbm")
            self.record("path-csv-matches-container",
                        checks.bit_equal(csv_values, bin_values, f"path {i}"))
            self.record("path-csv-times",
                        checks.bit_equal(times, np.arange(n) * dt, f"path {i} times"))
            if i == 0:
                self.last["path"] = bin_values.copy()
                self.last["csv"] = csv_values

    def _check_cwt(self, r):
        values = self.last["path"]
        scales, shifts, coeffs = checks.read_field_container(
            self.dirs["cwt"] / "field.mfbm")
        rng = np.random.default_rng(sub_seed(self.seed, r, 1))
        picks = rng.choice(shifts.size, size=self.n_direct, replace=False)
        got, want, mag = [], [], []
        for ia, a in enumerate(scales):
            for ib in picks:
                d, m = checks.direct_cwt(values, self.dt, self.wavelet_m, a, shifts[ib])
                got.append(coeffs[:, ia, ib])
                want.append(d)
                mag.append(m)
        got, want, mag = np.array(got), np.array(want), np.array(mag)
        self.record("cwt-direct-sum", checks.cwt_matches_direct(got, want, mag))
        self.last["cwt"] = (got, want, mag)

    def _check_estimate(self):
        rows = checks.read_csv_rows(self.dirs["estimate"] / "estimate_cov.csv")
        shape_ok = ([int(row["lag"]) for row in rows] == list(self.lags)
                    and all(int(row["replicates"]) == self.est_count for row in rows))
        self.record("estimate-grid", (shape_ok, f"{len(rows)} lags, "
                                                f"{self.est_count} replicates"))
        self.record("estimate-vs-theory", checks.estimate_within_se(rows))
        self.last["rows"] = rows

    def final_checks(self):
        # the estimate configuration (n, dt) gets its own embedding report
        rep = synth.embedding_report(self.params, self.n, self.dt)
        self.record("estimate-embedding-report",
                    checks.exact_embedding(vars(rep)))

    def self_tests(self):
        out = {
            "cli-exit-codes (one step exits 2)": checks.all_zero_exit([0, 2, 0]),
            "embedding-report (clipped)": checks.exact_embedding(
                {"correction": "clip", "circulant_size": 8192}),
        }
        if "csv" in self.last:
            csv_values = self.last["csv"].copy()
            csv_values[1, 17] = np.nextafter(csv_values[1, 17], np.inf)
            out["path-csv-matches-container (one ulp)"] = checks.bit_equal(
                csv_values, self.last["path"], "path 0")
        if "cwt" in self.last:
            got, want, mag = self.last["cwt"]
            got = got.copy()
            got[3, 1] += 1e-6 * mag[3, 1]
            out["cwt-direct-sum (one coefficient + 1e-6)"] = \
                checks.cwt_matches_direct(got, want, mag)
        if "rows" in self.last:
            rows = [dict(row) for row in self.last["rows"]]
            rows[4]["mean_re"] = str(float(rows[4]["theory_re"])
                                     + 6.0 * float(rows[4]["se_re"]))
            out["estimate-vs-theory (mean = theory + 6 SE)"] = checks.estimate_within_se(rows)
        return out

    def headline(self, round_times):
        return {"closure_s": float(np.median(round_times))}


# ---------------------------------------------------------------------------

TRIVARIATE = ("p: 3\nH: 0.3 0.5 0.7\nsigma: 1 1 1\n"
              "rho: 1 0.3 1 0.2 0.3 1\neta: 0.05 0.05 0.05\n")


class LongPathP3(Workload):
    """One trivariate path of n = 2^19 (circulant size 2^20) per round."""

    name = "long-path-p3"
    n = 2 ** 19
    params_text = TRIVARIATE
    calibration = "fft"        # large FFTs and memory traffic, not call overhead
    wavelet_m = 2
    scales = tuple(4.0 * 2 ** i for i in range(8))

    def __init__(self, *args):
        super().__init__(*args)
        self.wavelet = wavelets.gaussian_derivative(self.wavelet_m)
        self.file = self.workdir / "path.mfbm"
        self.sum_sq = np.zeros((3, len(self.scales)))
        self.shifts = 0
        self.paths = 0
        self._pending = None

    def round(self, r):
        failed = 0
        res, ok = self.op(synth.simulate, self.params, self.n, self.dt,
                          sub_seed(self.seed, r))
        path, report = res if ok else (None, None)
        failed += not ok
        saved = ok and self.op(containers.save_path_file, path, self.file)[1]
        failed += not saved
        loaded, loaded_ok = self.op(containers.load_path_file, self.file) \
            if saved else (None, False)
        failed += not loaded_ok
        field, cwt_ok = self.op(wavelets.cwt, loaded, self.wavelet, self.scales) \
            if loaded_ok else (None, False)
        failed += not cwt_ok
        self._pending = (path, report, loaded, field)
        return 4, failed

    def absorb(self, r):
        path, report, loaded, field = self._pending
        self._pending = None
        if report is not None:
            self.record("embedding-exact", checks.exact_embedding(vars(report)))
        if loaded is not None:
            p, n, dt, seed, values = checks.read_path_container(self.file)
            self.record("container-bytes-match-path",
                        checks.bit_equal(values, path.values, "file vs path"))
            self.record("container-round-trip",
                        checks.bit_equal(loaded.values, path.values, "loaded vs path"))
            same_header = ((p, n, dt, seed) == (path.params.p, path.n, path.dt, path.seed)
                           and loaded.params.fingerprint() == path.params.fingerprint())
            self.record("container-header", (same_header, f"p={p} n={n} dt={dt}"))
            self.last_values = path.values
        if field is not None:
            self.sum_sq += np.mean(np.abs(field.coeffs) ** 2, axis=2)
            self.shifts = field.coeffs.shape[2]
            self.paths += 1
        self.file.unlink(missing_ok=True)

    def _moments(self):
        H = self.params.H
        theory = np.array([[wavstats.theoretical_wavelet_cov(
            WaveletCovQuery(j, j, a, a, 0.0), self.params, self.wavelet).real
            for a in self.scales] for j in range(3)])
        margins = [wavelets.shift_margin(a, self.dt) for a in self.scales]
        moments = [checks.sampled_transform_moments(
            self.wavelet_m, self.scales, self.dt, H[j], margins) for j in range(3)]
        exact = np.array([var for var, _ in moments])
        cov_sq = np.array([cs for _, cs in moments])
        return theory, exact, cov_sq

    def _variance_checks(self, sample, theory, exact, cov_sq):
        per_scale, slopes = [], []
        for j in range(3):
            for ia in range(len(self.scales)):
                per_scale.append(checks.variance_matches_theory(
                    sample[j, ia], self.shifts, self.paths, exact[j, ia],
                    cov_sq[j, ia, ia], theory[j, ia]))
            rel_cov = (2.0 * cov_sq[j] / (self.shifts * self.paths)
                       / np.outer(exact[j], exact[j]))
            slopes.append(checks.slope_matches(
                np.array(self.scales), sample[j], rel_cov, exact[j],
                2.0 * self.params.H[j] + 1.0))
        return per_scale, slopes

    def final_checks(self):
        if not self.paths:
            self.record("scale-variance", (False, "no transformed paths"))
            return
        self._moments_cache = self._moments()
        sample = self.sum_sq / self.paths
        per_scale, slopes = self._variance_checks(sample, *self._moments_cache)
        for res in per_scale:
            self.record("scale-variance", res)
        for res in slopes:
            self.record("scale-slope", res)

    def self_tests(self):
        out = {"embedding-exact (clipped)": checks.exact_embedding(
            {"correction": "clip", "circulant_size": 2 ** 20})}
        if hasattr(self, "last_values"):
            bad = self.last_values.copy()
            bad.view(np.uint64)[2, 1000] ^= np.uint64(1)
            out["container-round-trip (one bit)"] = checks.bit_equal(
                bad, self.last_values, "flipped")
        if self.paths:
            sample = self.sum_sq / self.paths
            per_scale, _ = self._variance_checks(1.21 * sample, *self._moments_cache)
            out["scale-variance (coefficients x 1.1)"] = (
                all(ok for ok, _ in per_scale),
                next((d for ok, d in per_scale if not ok), per_scale[-1][1]))
            tilt = sample * (np.array(self.scales) / self.scales[0]) ** 0.1
            _, slopes = self._variance_checks(tilt, *self._moments_cache)
            out["scale-slope (slope + 0.1)"] = (
                all(ok for ok, _ in slopes),
                next((d for ok, d in slopes if not ok), slopes[-1][1]))
        return out

    def headline(self, round_times):
        return {"long_path_s": float(np.median(round_times)), "paths": self.paths}


# ---------------------------------------------------------------------------

def _power(eta):
    return model.MfbmParams.bivariate(0.3, 0.45, rho=0.5, eta=eta)


def _log(eta):
    return model.MfbmParams.bivariate(0.35, 0.65, rho=0.4, eta=eta)


# psi_1 + 0.5i psi_2: a complex analyzing wavelet with one vanishing moment
COMPLEX_TERMS = [(1.0, 1), (0.5j, 2)]

# class, params, wavelet (M or complex), (a1, a2), near or far
GRID = (
    ("near", _power(0.1), 1, (1.0, 1.0), "near"),
    ("near", _power(-0.1), 1, (1.0, 2.0), "near"),
    ("near", _power(0.1), 2, (1.0, 2.0), "near"),
    ("near", _power(-0.1), 2, (2.0, 3.0), "near"),
    ("near", _power(-0.1), 3, (1.0, 1.0), "near"),
    ("near", _power(0.1), 3, (2.0, 3.0), "near"),
    ("far", _power(0.1), 1, (1.0, 1.0), "far"),
    ("far", _power(-0.1), 2, (1.0, 2.0), "far"),
    ("far", _power(0.1), 3, (2.0, 3.0), "far"),
    ("far", _power(-0.1), 1, (1.0, 2.0), "far"),
    ("log", _log(0.2), 1, (1.0, 2.0), "near"),
    ("log", _log(-0.2), 2, (1.0, 1.0), "near"),
    ("log", _log(0.2), 3, (1.0, 2.0), "far"),
    ("complex", _power(0.1), "complex", (1.0, 2.0), "near"),
    ("complex", _power(-0.1), "complex", (1.0, 1.0), "far"),
)

SUITE_ORDER = ("existence", "bahr", "scaling", "decay", "spectrum-consistency")


class TheoryVerify(Workload):
    """A grid of covariance queries, then the five verify suites."""

    name = "theory-verify"
    params_text = BIVARIATE
    scale_factor = 2.0          # exact in binary, so scaled lags are exact

    def __init__(self, *args):
        super().__init__(*args)
        rng = np.random.default_rng(sub_seed(self.seed, 0))
        self.grid = []
        for cls, params, wav, (a1, a2), zone in GRID:
            if wav == "complex":
                wavelet = wavelets.HermiteWavelet(COMPLEX_TERMS)
            else:
                wavelet = wavelets.gaussian_derivative(wav)
            span = a1 + a2
            if zone == "near":
                h = span * rng.uniform(-0.5, 0.5)
            else:
                h = span * rng.uniform(20.0, 30.0) * rng.choice((-1.0, 1.0))
            h = round(h * 64.0) / 64.0
            self.grid.append((cls, zone, params, wavelet, a1, a2, h))
        self.values = None
        self.reports = []
        self.grid_times, self.suite_times = [], []

    def queries(self):
        return 3 * len(self.grid)

    def round(self, r):
        c = self.scale_factor
        values, failed = [], 0
        t0, paused0 = time.perf_counter(), self.paused
        for cls, _, params, wavelet, a1, a2, h in self.grid:
            with self.tracer.span(f"wavstats.cov.{cls}"):
                triple = []
                for q in (WaveletCovQuery(0, 1, a1, a2, h),
                          WaveletCovQuery(0, 1, c * a1, c * a2, c * h),
                          WaveletCovQuery(1, 0, a2, a1, -h)):
                    v, ok = self.op(wavstats.theoretical_wavelet_cov, q, params, wavelet)
                    failed += not ok
                    triple.append(v)
            values.append(triple)
        t1, paused1 = time.perf_counter(), self.paused
        reports = []
        for suite in SUITE_ORDER:
            with self.tracer.span(f"verify.{suite}"):
                rep, ok = self.op(verify.SUITES[suite])
            failed += not ok
            if ok:
                reports.append(rep)
        t2 = time.perf_counter()
        self.grid_times.append(t1 - t0 - (paused1 - paused0))
        self.suite_times.append(t2 - t1 - (self.paused - paused1))
        self._pending = (values, reports)
        return self.queries() + len(SUITE_ORDER), failed

    def absorb(self, r):
        values, reports = self._pending
        c = self.scale_factor
        for (cls, _, params, _, _, _, _), (v, v2, v3) in zip(self.grid, values):
            if v is None:
                continue
            if v2 is not None:
                self.record("self-similarity",
                            checks.self_similar(v, v2, params.alpha(0, 1) + 1.0, c))
            if v3 is not None:
                self.record("hermitian", checks.hermitian(v, v3))
        if self.values is None:
            self.values = values
        else:
            same = all(a == b for row, row0 in zip(values, self.values)
                       for a, b in zip(row, row0))
            self.record("repeatable", (same, "grid values identical to round 0"))
        self.record("suites-passed", checks.suites_passed(reports))
        self.reports = reports

    def final_checks(self):
        for (cls, zone, params, wavelet, a1, a2, h), (v, _, _) in zip(self.grid, self.values):
            if zone != "near" or v is None:
                continue
            s = spectral.inverse_spectral_cov(WaveletCovQuery(0, 1, a1, a2),
                                              params, wavelet, h)
            self.record("spectral-inversion", checks.spectral_agrees(v, s))
            self._spectral = (v, s)

    def self_tests(self):
        (cls, _, params, _, _, _, _), (v, v2, v3) = self.grid[0], self.values[0]
        failing = {"suite": "bahr", "passed": False}
        out = {
            "suites-passed (one failed report)": checks.suites_passed(
                self.reports + [failing]),
            "self-similarity (value x 1.001)": checks.self_similar(
                v, v2 * 1.001, params.alpha(0, 1) + 1.0, self.scale_factor),
            "hermitian (value x 1.001)": checks.hermitian(v, v3 * 1.001),
        }
        if hasattr(self, "_spectral"):
            v, s = self._spectral
            out["spectral-inversion (value x 1.01)"] = checks.spectral_agrees(v * 1.01, s)
        return out

    def headline(self, round_times):
        return {"theory_queries_per_s": self.queries() / float(np.median(self.grid_times)),
                "verify_s": float(np.median(self.suite_times)),
                "queries_per_round": self.queries(),
                "queries_per_class": {cls: 3 * sum(g[0] == cls for g in self.grid)
                                      for cls in ("near", "far", "log", "complex")}}


WORKLOADS = {w.name: w for w in (EnsembleN64, ClosureN4096, LongPathP3, TheoryVerify)}
