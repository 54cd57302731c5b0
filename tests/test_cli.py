import csv
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import mfbmwave
from mfbmwave import cli, model, wavelets
from mfbmwave.cli import main
from mfbmwave.model import MfbmParams, save_params


@pytest.fixture()
def params_file(tmp_path):
    f = tmp_path / "params.txt"
    save_params(MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1), f)
    return f


@pytest.fixture()
def bad_params_file(tmp_path):
    f = tmp_path / "bad.txt"
    save_params(MfbmParams.bivariate(0.1, 0.8, rho=0.7), f)
    return f


def write_config(tmp_path, name, payload):
    f = tmp_path / name
    f.write_text(json.dumps(payload))
    return f


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def package_env():
    """The environment of a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(mfbmwave.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    return env


SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def test_import_leaves_out_scipy():
    # scipy is most of the import cost of the package; scipy.special and
    # scipy.integrate load on their first use
    code = f"import sys, mfbmwave, mfbmwave.cli; print({SCIPY_LOADED})"
    out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_leaves_out_executors_and_logging():
    # the embedding build runs its pieces on plain threads, and the
    # ensemble's draw-ahead imports its executor on first use; these two
    # modules would add about 7 ms to every import
    code = ("import sys, mfbmwave, mfbmwave.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] in ('concurrent', 'logging')))")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_simulate_and_cwt_leave_out_scipy(tmp_path, params_file):
    sim = write_config(tmp_path, "sim.json",
                       {"params": str(params_file), "n": 256, "dt": 1.0})
    cwt = write_config(tmp_path, "cwt.json",
                       {"path_file": str(tmp_path / "o" / "path_0000.mfbm"),
                        "wavelet_m": 2, "scales": [4.0, 8.0]})
    for cfg, command in ((sim, "simulate"), (cwt, "cwt")):
        code = (f"import sys; from mfbmwave.cli import main; "
                f"rc = main(['--config', {str(cfg)!r}, '--seed', '5', "
                f"'--out', {str(tmp_path / 'o')!r}, {command!r}]); "
                f"print(rc, {SCIPY_LOADED})")
        out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "0 []", command
    assert (tmp_path / "o" / "field.csv").exists()


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path, params_file):
        cfg = write_config(tmp_path, "sim.json",
                           {"params": str(params_file), "n": 64, "dt": 1.0})
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        for out in (out1, out2):
            rc = main(["--config", str(cfg), "--seed", "7",
                       "--out", str(out), "simulate"])
            assert rc == 0
        assert (out1 / "path_0000.csv").read_bytes() == \
            (out2 / "path_0000.csv").read_bytes()
        assert (out1 / "path_0000.mfbm").read_bytes() == \
            (out2 / "path_0000.mfbm").read_bytes()
        report = json.loads((out1 / "embedding_report.json").read_text())
        assert report["correction"] == "none"
        assert report["circulant_size"] == 128

    def test_inadmissible_params_exit_2(self, tmp_path, bad_params_file, capsys):
        cfg = write_config(tmp_path, "sim.json",
                           {"params": str(bad_params_file), "n": 64, "dt": 1.0})
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                   "simulate"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "smallest eigenvalue" in err

    def test_unknown_config_key_exit_2(self, tmp_path, params_file):
        cfg = write_config(tmp_path, "sim.json",
                           {"params": str(params_file), "n": 64, "dt": 1.0,
                            "bogus": True})
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                   "simulate"])
        assert rc == 2

    def test_ensemble_count(self, tmp_path, params_file):
        cfg = write_config(tmp_path, "sim.json",
                           {"params": str(params_file), "n": 32, "dt": 1.0,
                            "count": 3, "seed": 5})
        out = tmp_path / "o"
        rc = main(["--config", str(cfg), "--out", str(out), "simulate"])
        assert rc == 0
        assert sorted(p.name for p in out.glob("path_*.csv")) == \
            ["path_0000.csv", "path_0001.csv", "path_0002.csv"]

    def test_first_path_independent_of_count(self, tmp_path, params_file):
        outs = []
        for count in (1, 3):
            cfg = write_config(tmp_path, f"sim{count}.json",
                               {"params": str(params_file), "n": 64, "dt": 1.0,
                                "count": count, "seed": 12})
            out = tmp_path / f"o{count}"
            assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
            outs.append(out)
        assert (outs[0] / "path_0000.mfbm").read_bytes() == \
            (outs[1] / "path_0000.mfbm").read_bytes()
        report = json.loads((outs[1] / "embedding_report.json").read_text())
        assert report["seed_scheme"] == 3


class TestEmbeddingExitCode:
    def test_clip_fallback_exits_3(self, tmp_path, params_file, monkeypatch):
        import mfbmwave.cli as cli
        from mfbmwave.synth import EmbeddingReport

        monkeypatch.setattr(
            cli, "embedding_report",
            lambda *a, **k: EmbeddingReport(circulant_size=128,
                                            min_eigenvalue=-1e-3,
                                            correction="clip"))
        cfg = write_config(tmp_path, "sim.json",
                           {"params": str(params_file), "n": 64, "dt": 1.0})
        out = tmp_path / "o"
        rc = main(["--config", str(cfg), "--out", str(out), "simulate"])
        assert rc == 3
        # outputs are still written, loudly marked approximate
        assert (out / "path_0000.csv").exists()
        report = json.loads((out / "embedding_report.json").read_text())
        assert report["correction"] == "clip"

    def test_estimate_clip_fallback_exits_3(self, tmp_path, params_file,
                                            monkeypatch):
        import mfbmwave.cli as cli
        from mfbmwave.synth import EmbeddingReport

        monkeypatch.setattr(
            cli, "embedding_report",
            lambda *a, **k: EmbeddingReport(circulant_size=512,
                                            min_eigenvalue=-1e-3,
                                            correction="clip"))
        cfg = write_config(tmp_path, "e.json",
                           {"params": str(params_file), "wavelet_m": 1,
                            "n": 256, "dt": 1.0, "count": 30, "lags": [0, 1]})
        out = tmp_path / "o"
        rc = main(["--config", str(cfg), "--out", str(out), "estimate"])
        assert rc == 3
        # the estimate is still written, loudly marked approximate
        assert (out / "estimate_cov.csv").exists()
        report = json.loads((out / "embedding_report.json").read_text())
        assert report["correction"] == "clip"
        assert report["seed_scheme"] == 3

    def test_build_budget_clip_exits_3(self, tmp_path, monkeypatch,
                                       fresh_embedding_cache):
        import mfbmwave.synth as synth

        # not nonnegative definite at m = 64; the budget admits that build
        # and not the doubling to 128
        assert synth._build_bytes(64, 2) < synth._build_bytes(128, 2)
        monkeypatch.setattr(model, "MEMORY_BUDGET", synth._build_bytes(64, 2))
        params = tmp_path / "p.txt"
        save_params(MfbmParams.bivariate(0.2, 0.95, rho=0.3697), params)
        cfg = write_config(tmp_path, "sim.json",
                           {"params": str(params), "n": 32, "dt": 1.0})
        out = tmp_path / "o"
        with pytest.warns(RuntimeWarning, match="budget"):
            rc = main(["--config", str(cfg), "--out", str(out), "simulate"])
        assert rc == 3
        report = json.loads((out / "embedding_report.json").read_text())
        assert report["correction"] == "clip"
        assert report["circulant_size"] == 64


class TestValidationExitCodes:
    def run(self, tmp_path, capsys, command, payload):
        words = command.split()
        cfg = write_config(tmp_path, f"{words[0]}.json", payload)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), *words])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_estimate_decay_fit_through_one_lag(self, tmp_path, params_file,
                                                capsys):
        # the positive lags 2 and 2 are one distinct x: no NaN fit is written
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.run(tmp_path, capsys, "estimate",
                           {"params": str(params_file), "n": 256, "dt": 1.0,
                            "count": 30, "lags": [0, 2, 2],
                            "fit_decay": True})
        assert "power-law fit needs >= 2 usable points at distinct x" in err
        assert not (tmp_path / "o" / "estimate_fit.csv").exists()

    def test_simulate_count_zero(self, tmp_path, params_file, capsys):
        err = self.run(tmp_path, capsys, "simulate",
                       {"params": str(params_file), "n": 64, "dt": 1.0, "count": 0})
        assert "count >= 1" in err

    def test_simulate_infinite_sigma(self, tmp_path, capsys):
        # refused when the file is read, not as an overflowing covariance
        params = tmp_path / "inf.txt"
        params.write_text("p: 2\nH: 0.4 0.7\nsigma: 1 inf\nrho: 1 0.5 1\neta: 0.1\n")
        err = self.run(tmp_path, capsys, "simulate",
                       {"params": str(params), "n": 64, "dt": 1.0})
        assert err == "error: line 3: every amplitude sigma must be finite\n"

    @pytest.mark.parametrize("line, entry", [
        (1, "p: nan"), (1, "p: inf"), (4, "rho: nan 0.5 1"), (5, "eta: nan")])
    def test_simulate_bad_params_entry(self, tmp_path, capsys, line, entry):
        # each refused at the line of its entry, none with a traceback
        lines = ["p: 2", "H: 0.4 0.7", "sigma: 1 1", "rho: 1 0.5 1", "eta: 0.1"]
        lines[line - 1] = entry
        params = tmp_path / "bad.txt"
        params.write_text("\n".join(lines) + "\n")
        err = self.run(tmp_path, capsys, "simulate",
                       {"params": str(params), "n": 64, "dt": 1.0})
        assert err.startswith(f"error: line {line}: ")

    def test_estimate_too_few_replicates(self, tmp_path, params_file, capsys):
        err = self.run(tmp_path, capsys, "estimate",
                       {"params": str(params_file), "n": 256, "dt": 1.0,
                        "count": 29})
        assert "count >= 30" in err

    def test_simulate_wrong_typed_n(self, tmp_path, params_file, capsys):
        err = self.run(tmp_path, capsys, "simulate",
                       {"params": str(params_file), "n": "abc", "dt": 1.0})
        assert "'n': 'abc' is not an int" in err

    def test_estimate_lags_not_a_list(self, tmp_path, params_file, capsys,
                                      no_synthesis):
        err = self.run(tmp_path, capsys, "estimate",
                       {"params": str(params_file), "n": 256, "dt": 1.0,
                        "count": 30, "lags": "0 1"})
        assert "'lags' must be a list" in err

    def test_theory_cov_negative_scale(self, tmp_path, params_file, capsys):
        err = self.run(tmp_path, capsys, "theory cov",
                       {"params": str(params_file), "h_values": [0.0],
                        "a1": -1.0})
        assert "scales must be positive" in err

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), 1e300])
    def test_theory_cov_lag_not_finite(self, tmp_path, params_file, capsys,
                                       h):
        # JSON NaN and Infinity: the query refuses them; at 1e300 the closed
        # form is not finite.  Neither writes a NaN row
        err = self.run(tmp_path, capsys, "theory cov",
                       {"params": str(params_file), "wavelet_m": 1,
                        "h_values": [h]})
        assert ("lag h must be finite" in err if h != 1e300
                else "the closed form at lag h = 1e+300 is not finite" in err)
        assert not (tmp_path / "o" / "theory_cov.csv").exists()

    def test_cwt_directory_as_path_file(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "cwt",
                       {"path_file": str(tmp_path), "wavelet_m": 1,
                        "scales": [4.0]})
        assert str(tmp_path) in err

    @pytest.fixture()
    def path_file(self, tmp_path, params_file):
        cfg = write_config(tmp_path, "sim.json",
                           {"params": str(params_file), "n": 128, "dt": 1.0})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "sim"),
                     "simulate"]) == 0
        return tmp_path / "sim" / "path_0000.mfbm"

    def test_cwt_scale_below_resolution(self, tmp_path, path_file, capsys):
        err = self.run(tmp_path, capsys, "cwt",
                       {"path_file": str(path_file), "wavelet_m": 1,
                        "scales": [3.0]})
        assert "below resolution threshold" in err

    def test_cwt_scale_too_large(self, tmp_path, path_file, capsys):
        err = self.run(tmp_path, capsys, "cwt",
                       {"path_file": str(path_file), "wavelet_m": 1,
                        "scales": [4.0, 8.0]})
        assert "path too short" in err

    def test_cwt_working_set_over_budget(self, tmp_path, path_file, capsys,
                                         monkeypatch):
        # n = 128, scale 4: 128 - 2 * 40 = 48 shifts of 2 float64 components,
        # a field of 768 bytes that fits; the transform's working set does not
        need = wavelets._transform_bytes(1, 2, 128, 1.0, True, np.array([4.0]), 48)
        assert need == 19616
        monkeypatch.setattr(model, "MEMORY_BUDGET", need - 1)

        def refuse(*args):
            raise AssertionError("field transformed")

        monkeypatch.setattr(wavelets, "_transform", refuse)
        err = self.run(tmp_path, capsys, "cwt",
                       {"path_file": str(path_file), "wavelet_m": 1,
                        "scales": [4.0]})
        assert "the wavelet transform of 1 path(s) of 2 components at 1 " \
               "scale(s) and 48 shifts needs 19616 bytes, over the budget " \
               "of 19615" in err

    def test_cwt_garbage_path_file(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.mfbm"
        garbage.write_bytes(bytes(range(256)) * 3)
        err = self.run(tmp_path, capsys, "cwt",
                       {"path_file": str(garbage), "wavelet_m": 1,
                        "scales": [4.0]})
        assert "bad magic" in err

    def test_cwt_cut_path_file(self, tmp_path, path_file, capsys):
        cut = tmp_path / "cut.mfbm"
        cut.write_bytes(path_file.read_bytes()[:20])
        err = self.run(tmp_path, capsys, "cwt",
                       {"path_file": str(cut), "wavelet_m": 1,
                        "scales": [4.0]})
        assert "truncated container" in err

    def test_cwt_path_without_points(self, tmp_path, path_file, capsys):
        # n sits after the header (8 bytes) and p (4); n = 0 stores no values
        # after dt, seed (16) and the parameters (8 doubles at p = 2)
        raw = bytearray(path_file.read_bytes())
        raw[12:20] = struct.pack("<Q", 0)
        empty = tmp_path / "empty.mfbm"
        empty.write_bytes(bytes(raw[:8 + 28 + 64]))
        err = self.run(tmp_path, capsys, "cwt",
                       {"path_file": str(empty), "wavelet_m": 1,
                        "scales": [4.0]})
        assert "a path needs at least one point" in err

    @pytest.mark.parametrize("dt", [float("nan"), 0.0, -1.0])
    def test_cwt_path_with_bad_step(self, tmp_path, path_file, capsys, dt):
        # dt sits after the header (8 bytes), p and n (12)
        raw = bytearray(path_file.read_bytes())
        raw[20:28] = struct.pack("<d", dt)
        bad = tmp_path / "bad_step.mfbm"
        bad.write_bytes(bytes(raw))
        err = self.run(tmp_path, capsys, "cwt",
                       {"path_file": str(bad), "wavelet_m": 1,
                        "scales": [4.0]})
        assert err == (f"error: invalid stored path: dt must be positive and "
                       f"finite, got {dt!r}\n")

    @pytest.mark.parametrize("command", ["simulate", "cwt"])
    @pytest.mark.parametrize("basename", ["../x", "a/b", "<absolute>", "",
                                          ".", "x\0", ["x"]])
    def test_basename_is_a_plain_file_name(self, tmp_path, params_file,
                                           path_file, capsys, command,
                                           basename):
        if basename == "<absolute>":
            basename = str(tmp_path / "x")
        payload = {
            "simulate": {"params": str(params_file), "n": 64, "dt": 1.0},
            "cwt": {"path_file": str(path_file), "wavelet_m": 1,
                    "scales": [4.0]},
        }[command]
        before = set(tmp_path.rglob("*"))
        err = self.run(tmp_path, capsys, command,
                       {**payload, "basename": basename})
        assert f"'basename': {basename!r} is not a plain file name" in err
        written = set(tmp_path.rglob("*")) - before
        assert written <= {tmp_path / f"{command}.json"}

    @pytest.mark.parametrize("command, key", [("simulate", "params"),
                                              ("cwt", "path_file")])
    def test_path_with_nul_refused(self, tmp_path, params_file, path_file,
                                   capsys, command, key):
        payload = {
            "simulate": {"params": str(params_file), "n": 64, "dt": 1.0},
            "cwt": {"path_file": str(path_file), "wavelet_m": 1,
                    "scales": [4.0]},
        }[command]
        err = self.run(tmp_path, capsys, command, {**payload, key: "a\0b"})
        assert err == f"error: config key {key!r}: 'a\\x00b' is not a path\n"
        assert not (tmp_path / "o").exists()

    def test_out_with_nul_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for suite in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, suite, _refuse_suite)
        rc = main(["--out", "a\0b", "verify", "existence"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "error: --out 'a\\x00b' is not a path\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["no", 1])
    def test_fit_decay_is_a_json_boolean(self, tmp_path, params_file, capsys,
                                         no_synthesis, value):
        err = self.run(tmp_path, capsys, "estimate",
                       {"params": str(params_file), "n": 256, "dt": 1.0,
                        "count": 30, "fit_decay": value})
        assert f"'fit_decay': {value!r} is not a bool" in err

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_float_keys_refuse_bools(self, tmp_path, params_file, capsys,
                                     no_synthesis, command):
        err = self.run(tmp_path, capsys, command,
                       {"params": str(params_file), "n": 256, "dt": True,
                        "count": 30})
        assert "'dt': True is not a float" in err

    @pytest.fixture()
    def no_synthesis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ensemble synthesized before the grid check")

        monkeypatch.setattr(cli, "iter_ensemble", refuse)

    def test_estimate_lag_beyond_shifts(self, tmp_path, params_file, capsys,
                                        no_synthesis):
        err = self.run(tmp_path, capsys, "estimate",
                       {"params": str(params_file), "n": 256, "dt": 1.0,
                        "count": 30, "lags": [0, 300]})
        assert "lag 300 exceeds available shifts" in err

    def test_estimate_lags_without_zero(self, tmp_path, params_file, capsys,
                                        no_synthesis):
        err = self.run(tmp_path, capsys, "estimate",
                       {"params": str(params_file), "n": 256, "dt": 1.0,
                        "count": 30, "lags": [1, 2]})
        assert "lag 0" in err

    def test_estimate_scale_below_resolution(self, tmp_path, params_file,
                                             capsys, no_synthesis):
        err = self.run(tmp_path, capsys, "estimate",
                       {"params": str(params_file), "n": 4096, "dt": 1.0,
                        "count": 3000, "a1": 2.0})
        assert "below resolution threshold" in err

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_out_of_range(self, tmp_path, params_file, capsys, seed):
        err = self.run(tmp_path, capsys, "simulate",
                       {"params": str(params_file), "n": 32, "dt": 1.0,
                        "seed": seed})
        assert "seed must lie in [0, 2**64)" in err
        assert not list((tmp_path / "o").glob("path_*"))

    def test_largest_seed(self, tmp_path, params_file):
        cfg = write_config(tmp_path, "sim.json",
                           {"params": str(params_file), "n": 32, "dt": 1.0,
                            "seed": 2 ** 64 - 1})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "simulate"]) == 0

    @pytest.mark.parametrize("key, value", [("j", 2), ("k", -1)])
    def test_estimate_index_before_synthesis(self, tmp_path, params_file,
                                             capsys, no_synthesis, key, value):
        err = self.run(tmp_path, capsys, "estimate",
                       {"params": str(params_file), "n": 256, "dt": 1.0,
                        "count": 30, key: value})
        assert "out of range for p=2" in err

    @pytest.mark.parametrize("kind", ["cov", "spectrum", "coherence",
                                      "scaling"])
    def test_theory_index(self, tmp_path, params_file, capsys, kind):
        err = self.run(tmp_path, capsys, f"theory {kind}",
                       {"params": str(params_file), "j": 2,
                        "h_values": [0.0]})
        assert "out of range for p=2" in err

    def test_estimate_first_size_over_budget(self, tmp_path, params_file,
                                             capsys, no_synthesis, monkeypatch):
        from mfbmwave import synth

        # computed, not run: n = 10^8 at p = 2 starts at m = 2^28, 14 GB
        # on one CPU and more on several
        n = 10 ** 8
        m = 2 ** 28
        assert m // 2 < 2 * (n - 1) <= m
        assert synth._build_bytes(m, 2) > 12e9 > model.MEMORY_BUDGET

        def refuse(*args):
            raise AssertionError("n-length shift grid allocated")

        monkeypatch.setattr(cli, "_grid", refuse)
        err = self.run(tmp_path, capsys, "estimate",
                       {"params": str(params_file), "n": n, "dt": 1.0,
                        "count": 30})
        assert "over the budget" in err

    @pytest.mark.parametrize("key, value", [("n", 32.9), ("n", True),
                                            ("count", False), ("seed", 1.5)])
    def test_int_keys_must_be_integral(self, tmp_path, params_file, capsys,
                                       key, value):
        err = self.run(tmp_path, capsys, "simulate",
                       {"params": str(params_file), "n": 32, "dt": 1.0,
                        key: value})
        assert f"{value!r} is not an int" in err

    def test_estimate_index_must_be_integral(self, tmp_path, params_file,
                                             capsys, no_synthesis):
        err = self.run(tmp_path, capsys, "estimate",
                       {"params": str(params_file), "n": 256, "dt": 1.0,
                        "count": 30, "j": -1.5})
        assert "'j': -1.5 is not an int" in err

    def test_integral_float_accepted(self, tmp_path, params_file):
        cfg = write_config(tmp_path, "sim.json",
                           {"params": str(params_file), "n": 32.0, "dt": 1.0,
                            "count": 2.0})
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
        assert len(list(out.glob("path_*.csv"))) == 2

    @pytest.mark.parametrize("scales, message", [
        ([], "at least one scale"), ([1.0, 0.0], "scales must be positive")])
    def test_theory_scaling_scales(self, tmp_path, params_file, capsys,
                                   scales, message):
        err = self.run(tmp_path, capsys, "theory scaling",
                       {"params": str(params_file), "scales": scales})
        assert message in err

    def test_theory_cov_overflowing_scale(self, tmp_path, params_file, capsys):
        err = self.run(tmp_path, capsys, "theory cov",
                       {"params": str(params_file), "a1": 1e300,
                        "h_values": [0.0]})
        assert "overflow" in err

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan")])
    def test_estimate_bad_dt(self, tmp_path, params_file, capsys,
                             no_synthesis, dt):
        err = self.run(tmp_path, capsys, "estimate",
                       {"params": str(params_file), "n": 256, "dt": dt,
                        "count": 30, "a1": 4.0})
        assert "dt must be positive and finite" in err

    @pytest.mark.parametrize("payload, message", [
        ({"scales": []}, "non-empty list of finite values"),
        ({"scales": [4.0, float("nan")]}, "non-empty list of finite values"),
        ({"scales": [4.0, 4.0]}, "scales must be distinct"),
        ({"scales": [4.0], "shifts": []}, "shifts must be a non-empty list"),
        ({"scales": [4.0], "wavelet_m": 13}, "above 12"),
        ({"scales": [4.0], "wavelet_m": 0}, "orders must be >= 1"),
    ])
    def test_cwt_grid_and_order(self, tmp_path, path_file, capsys, payload,
                                message):
        err = self.run(tmp_path, capsys, "cwt",
                       {"path_file": str(path_file), "wavelet_m": 1,
                        **payload})
        assert message in err

    @pytest.mark.parametrize("payload", [{"omegas": [0.0, 1.0]},
                                         {"omega_min": 0.0},
                                         {"points_per_decade": 10 ** 300},
                                         {"points_per_decade": 10 ** 8},
                                         {"points_per_decade": 10 ** 15}])
    def test_theory_spectrum_grid(self, tmp_path, params_file, capsys,
                                  payload):
        self.run(tmp_path, capsys, "theory spectrum",
                 {"params": str(params_file), **payload})

    def test_theory_coherence_zero_frequency(self, tmp_path, params_file,
                                             capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.run(tmp_path, capsys, "theory coherence",
                           {"params": str(params_file), "omegas": [0.0, 1.0]})
        assert "zero frequency is excluded" in err

    def test_simulate_params_not_utf8(self, tmp_path, capsys):
        params = tmp_path / "params.bin"
        params.write_bytes(bytes(range(256)))
        err = self.run(tmp_path, capsys, "simulate",
                       {"params": str(params), "n": 64, "dt": 1.0})
        assert "not UTF-8 text" in err

    def test_simulate_overflowing_step(self, tmp_path, capsys, monkeypatch):
        import mfbmwave.synth as synth

        sizes = []
        attempt = synth._try_embedding
        monkeypatch.setattr(synth, "_try_embedding",
                            lambda params, dt, m: sizes.append(m)
                            or attempt(params, dt, m))
        params = tmp_path / "p.txt"
        save_params(MfbmParams.bivariate(0.7, 0.8, rho=0.5), params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.run(tmp_path, capsys, "simulate",
                           {"params": str(params), "n": 64, "dt": 1e300})
        assert "spectrum is not finite" in err
        assert sizes == [128]
        assert not list((tmp_path / "o").glob("path_*"))

    def test_simulate_overflowing_step_stderr(self, tmp_path):
        params = tmp_path / "p.txt"
        save_params(MfbmParams.bivariate(0.7, 0.8, rho=0.5), params)
        self.check_overflow_stderr(tmp_path, params, 64)

    def test_simulate_overflowing_step_no_convergence(self, tmp_path):
        # a spectrum on which LAPACK's eigh does not converge
        params = tmp_path / "p.txt"
        params.write_text("p: 3\nH: 0.3 0.5 0.7\nsigma: 1 1 1\n"
                          "rho: 1 0.3 1 0.2 0.3 1\neta: 0.05 0.05 0.05\n")
        self.check_overflow_stderr(tmp_path, params, 100)

    @staticmethod
    def check_overflow_stderr(tmp_path, params, n):
        # a fresh interpreter: numpy's floating-point warnings would reach
        # stderr ahead of the one error line
        cfg = write_config(tmp_path, "sim.json",
                           {"params": str(params), "n": n, "dt": 1e300})
        run = subprocess.run(
            [sys.executable, "-m", "mfbmwave.cli", "--config", str(cfg),
             "--out", str(tmp_path / "o"), "simulate"],
            env=package_env(), capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
        assert "spectrum is not finite" in run.stderr


class TestCwtCommand:
    def test_cwt_of_stored_path(self, tmp_path, params_file):
        sim_cfg = write_config(tmp_path, "sim.json",
                               {"params": str(params_file), "n": 256, "dt": 1.0})
        out = tmp_path / "o"
        assert main(["--config", str(sim_cfg), "--seed", "3",
                     "--out", str(out), "simulate"]) == 0
        cwt_cfg = write_config(tmp_path, "cwt.json",
                               {"path_file": str(out / "path_0000.mfbm"),
                                "wavelet_m": 1, "scales": [4.0]})
        assert main(["--config", str(cwt_cfg), "--out", str(out), "cwt"]) == 0
        rows = read_csv(out / "field.csv")
        assert rows[0] == ["component", "scale", "shift", "re", "im"]
        assert len(rows) > 100


class TestTheory:
    def test_cov_csv(self, tmp_path, params_file):
        cfg = write_config(tmp_path, "t.json",
                           {"params": str(params_file), "wavelet_m": 1,
                            "j": 0, "k": 1, "a1": 1.0, "a2": 1.0,
                            "h_values": [0.0, 32.0, 64.0]})
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out),
                     "theory", "cov"]) == 0
        rows = read_csv(out / "theory_cov.csv")
        assert rows[0][:5] == ["j", "k", "a1", "a2", "h"]
        assert len(rows) == 4
        ratio = float(rows[3][-1])
        assert abs(ratio - 1.0) < 0.1

    def test_spectrum_csv(self, tmp_path, params_file):
        cfg = write_config(tmp_path, "t.json",
                           {"params": str(params_file), "wavelet_m": 1,
                            "omegas": [0.5, 1.0, -0.5]})
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out),
                     "theory", "spectrum"]) == 0
        rows = read_csv(out / "theory_spectrum.csv")
        assert rows[0] == ["j", "k", "a1", "a2", "omega", "re", "im", "abs",
                           "zeta_re", "zeta_im"]
        assert len(rows) == 4

    def test_scaling_csv(self, tmp_path, params_file):
        cfg = write_config(tmp_path, "t.json", {"params": str(params_file),
                                                "wavelet_m": 2})
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out),
                     "theory", "scaling"]) == 0
        rows = read_csv(out / "theory_scaling.csv")
        data = np.array([[float(v) for v in r] for r in rows[1:]])
        slope = np.polyfit(np.log(data[:, 0]), np.log(np.abs(data[:, 1])), 1)[0]
        assert slope == pytest.approx(0.4 + 0.7 + 1.0, abs=0.02)

    def test_coherence_csv(self, tmp_path, params_file):
        cfg = write_config(tmp_path, "t.json",
                           {"params": str(params_file), "wavelet_m": 1,
                            "a1": 2.0, "a2": 2.0,
                            "omegas": [0.1, 0.5, 1.0]})
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out),
                     "theory", "coherence"]) == 0
        rows = read_csv(out / "theory_coherence.csv")
        defs = [float(r[3]) for r in rows[1:]]
        assert max(defs) - min(defs) < 1e-10


class TestEstimateCommand:
    def test_estimate_csv(self, tmp_path, params_file):
        cfg = write_config(tmp_path, "e.json",
                           {"params": str(params_file), "wavelet_m": 1,
                            "n": 512, "dt": 1.0, "count": 40, "seed": 11,
                            "a1": 4.0, "a2": 4.0, "lags": [0, 1, 2],
                            "fit_decay": False})
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "estimate"]) == 0
        rows = read_csv(out / "estimate_cov.csv")
        assert rows[0][:4] == ["lag", "h", "mean_re", "mean_im"]
        assert len(rows) == 4
        # loose agreement sanity: lag-0 estimate within 6 SE of theory
        lag0 = rows[1]
        z = abs(float(lag0[2]) - float(lag0[6])) / float(lag0[4])
        assert z < 6.0
        report = json.loads((out / "embedding_report.json").read_text())
        assert report["correction"] == "none"
        assert report["seed_scheme"] == 3


    def test_estimate_streams_past_the_ensemble_budget(self, tmp_path,
                                                        params_file,
                                                        monkeypatch):
        # a budget one byte below the ensemble's count x p x n floats, at
        # which the list form is refused; the build, one synthesis chunk and
        # one transform chunk fit, and the estimate keeps its bytes
        payload = {"params": str(params_file), "wavelet_m": 2, "n": 256,
                   "dt": 1.0, "count": 2000, "seed": 3, "a1": 4.0,
                   "a2": 4.0, "lags": [0, 1, 2]}
        cfg = write_config(tmp_path, "e.json", payload)
        outs = [tmp_path / "free", tmp_path / "capped"]
        assert main(["--config", str(cfg), "--out", str(outs[0]),
                     "estimate"]) == 0
        monkeypatch.setattr(model, "MEMORY_BUDGET", 2000 * 2 * 256 * 8 - 1)
        with pytest.raises(model.MfbmwaveError, match="over the budget"):
            mfbmwave.replicate_ensemble(model.load_params(params_file), 256,
                                        1.0, 3, 2000)
        assert main(["--config", str(cfg), "--out", str(outs[1]),
                     "estimate"]) == 0
        a, b = ((out / "estimate_cov.csv").read_bytes() for out in outs)
        assert a == b

    def test_unread_scales_change_neither_output_nor_peak(self, tmp_path,
                                                          params_file):
        # 40 scales in [4, 32] and [32] alone fix the same shift grid; only
        # a1 and a2 are transformed, so output bytes and traced peak agree.
        # A first run fills the factor cache and imports scipy.special.
        base = {"params": str(params_file), "wavelet_m": 2, "n": 2048,
                "dt": 1.0, "count": 30, "seed": 5, "a1": 4.0, "a2": 8.0,
                "lags": [0, 1, 4]}
        runs = [("warm", [32.0]), ("one", [32.0]),
                ("many", np.linspace(4.0, 32.0, 40).tolist())]
        peaks = {}
        for name, scales in runs:
            cfg = write_config(tmp_path, f"{name}.json",
                               {**base, "scales": scales})
            tracemalloc.start()
            try:
                rc = main(["--config", str(cfg), "--out", str(tmp_path / name),
                           "estimate"])
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 0
        assert (tmp_path / "one" / "estimate_cov.csv").read_bytes() == \
            (tmp_path / "many" / "estimate_cov.csv").read_bytes()
        assert abs(peaks["many"] - peaks["one"]) <= 0.1 * peaks["one"]


def _refuse_suite():
    raise AssertionError("suite run despite a config key")


class TestVerifyCommand:
    @pytest.mark.parametrize("config", ["key", "not json", "not utf-8",
                                        "missing"])
    def test_config_refused_before_any_suite(self, tmp_path, capsys,
                                             monkeypatch, config):
        for suite in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, suite, _refuse_suite)
        cfg = tmp_path / "v.json"
        if config == "key":
            cfg.write_text(json.dumps({"seed": 1}))
        elif config == "not json":
            cfg.write_text("{seed")
        elif config == "not utf-8":
            cfg.write_bytes(b"\xff{}")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                   "verify", "existence"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_existence_suite(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "verify", "existence"])
        assert rc == 0
        report = json.loads((out / "verify_existence.json").read_text())
        assert report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert "bound-H(0.1,0.8)" in names
        text = capsys.readouterr().out
        assert "suite existence: PASS" in text

    def test_bahr_suite_writes_rows(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "verify", "bahr"])
        assert rc == 0
        rows = read_csv(out / "bahr_identities.csv")
        assert rows[0] == ["variant", "alpha", "v", "lhs", "rhs", "abs_err"]
        assert len(rows) > 100

    @pytest.mark.parametrize("suite", sorted(cli.SUITES))
    def test_check_runtimes(self, tmp_path, suite):
        out = tmp_path / "o"
        assert main(["--out", str(out), "verify", suite]) == 0
        report = json.loads((out / f"verify_{suite}.json").read_text())
        runtimes = [c["runtime_seconds"] for c in report["checks"]]
        assert runtimes and all(t >= 0.0 for t in runtimes)
        # the checks split the suite's time: their sum is the suite runtime,
        # up to the rounding of each
        assert sum(runtimes) <= report["runtime_seconds"] + 5e-4 + 5e-7 * len(runtimes)


_FUZZ_BAD = [0, 1, -1, -1.5, 0.0, 2, 13, 1e300, [], [0], [-1.0], "x", None,
             True, float("nan"), "", ".", "..", "../x", "a/b", "o/../x",
             "x/", "params.txt"]
_FUZZ_HUGE = [float("nan"), float("inf"), 1e300, 10 ** 8, 2 ** 64, -(2 ** 63)]
# valid sizes stay small.  A huge n or points_per_decade is refused before
# anything is allocated, but a huge count is valid input, bounded only by time
# and disk: count draws no finite value over its cap
_FUZZ_CAPS = {"n": 512, "count": 40, "points_per_decade": 512}
# the memory budget during the fuzz: the default payloads fit (the estimate
# transform's first chunk, 30 paths of 256 points, holds 0.6 MB), and an
# estimate ensemble near the size caps may make a transform that does not
_FUZZ_BUDGET = 1 << 20


def _fuzz_values(key):
    """Values for one config key: the single bad values, wrong types and
    signs, NaN, small sizes and sizes far over a budget."""
    st = pytest.importorskip("hypothesis").strategies

    def drawn(values):
        # a huge count runs: NaN, infinite and negative counts stay
        return [v for v in values if key != "count"
                or not (isinstance(v, (int, float)) and math.isfinite(v)
                        and v > _FUZZ_CAPS[key])]

    number = st.one_of(st.integers(-3, _FUZZ_CAPS.get(key, 20)),
                       st.floats(-20.0, 20.0),
                       st.sampled_from(drawn(_FUZZ_HUGE)))
    return st.one_of(st.sampled_from(drawn(_FUZZ_BAD)), number,
                     st.sampled_from(["x", "", "1"]), st.booleans(), st.none(),
                     st.lists(number, max_size=3))


def test_fuzz_draws_no_huge_count():
    # a valid count of 10^8 or more would run for hours: the fuzz keeps its
    # NaN, infinite and negative counts only
    hyp = pytest.importorskip("hypothesis")
    drawn = set()

    @hyp.settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(_fuzz_values("count"))
    def check(value):
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, (int, float)):
                assert not (math.isfinite(v) and v > _FUZZ_CAPS["count"]), v
                drawn.add(str(v))

    check()
    assert {"nan", "inf", "-9223372036854775808"} <= drawn


_THEORY = {"params": "<params>", "wavelet_m": 1, "j": 0, "k": 1, "a1": 1.0,
           "a2": 1.0}
_FUZZ_COMMANDS = {
    "simulate": {"params": "<params>", "n": 64, "dt": 1.0, "count": 2,
                 "basename": "path", "seed": 1},
    "cwt": {"path_file": "<path>", "wavelet_m": 1, "scales": [4.0],
            "shifts": [60.0], "basename": "field"},
    "theory cov": {**_THEORY, "h_values": [0.0, 8.0]},
    "theory spectrum": {**_THEORY, "omega_min": 0.1, "omega_max": 10.0,
                        "points_per_decade": 4},
    "theory coherence": {**_THEORY, "omegas": [0.5, 1.0]},
    "theory scaling": {**_THEORY, "scales": [1.0, 2.0]},
    "estimate": {"params": "<params>", "wavelet_m": 1, "n": 256, "dt": 1.0,
                 "count": 30, "j": 0, "k": 1, "a1": 4.0, "a2": 4.0,
                 "scales": [8.0], "lags": [0, 1, 2], "fit_decay": True,
                 "seed": 1},
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    params = root / "params.txt"
    save_params(MfbmParams.bivariate(0.4, 0.7, rho=0.5, eta=0.1), params)
    cfg = write_config(root, "sim.json", {"params": str(params), "n": 128,
                                          "dt": 1.0})
    assert main(["--config", str(cfg), "--out", str(root / "sim"),
                 "simulate"]) == 0
    return root, params, root / "sim" / "path_0000.mfbm"


def _fuzz_case():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    all_keys = sorted({key for command in cli._COMMANDS.values()
                       for key in cli._config_keys(command)})

    @st.composite
    def case(draw):
        command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS) + ["verify"]))
        payload = dict(_FUZZ_COMMANDS.get(command, {}))
        keys = sorted(cli._config_keys(cli._COMMANDS[command.split()[0]]))
        if command == "verify":
            # verify takes no key: any one is refused before a suite runs
            command += " " + draw(st.sampled_from(sorted(cli.SUITES)))
            keys = all_keys
        for key in draw(st.lists(st.sampled_from(keys), min_size=1,
                                 max_size=3, unique=True)):
            if draw(st.booleans()) and key in payload:
                del payload[key]
            else:
                payload[key] = draw(_fuzz_values(key))
        if command in ("cwt", "estimate") and draw(st.booleans()):
            # up to 300 scales that the fuzz paths resolve, with or without
            # cwt's one fixed shift
            size = draw(st.integers(1, 300))
            payload["scales"] = draw(st.lists(st.floats(4.0, 4.5),
                                              min_size=size, max_size=size,
                                              unique=True))
            if command == "cwt" and draw(st.booleans()):
                payload.pop("shifts", None)
        return command, payload

    return case()


@pytest.mark.slow
def test_fuzzed_configs_exit_cleanly(fuzz_files, monkeypatch, capsys):
    """No config value ends in a traceback: every run exits 0, 2 or 3, and
    exit 2 prints exactly one ``error:`` line.  No run writes outside the
    output directory, and ``verify`` refuses its config before any suite."""
    hyp = pytest.importorskip("hypothesis")
    root, params, path_file = fuzz_files
    monkeypatch.chdir(root)
    monkeypatch.setattr(model, "MEMORY_BUDGET", _FUZZ_BUDGET)
    for suite in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, suite, _refuse_suite)

    def outside_out():
        return {f for f in root.rglob("*")
                if f.relative_to(root).parts[0] != "o"}

    @hyp.settings(max_examples=150, deadline=None, derandomize=True,
                  suppress_health_check=list(hyp.HealthCheck))
    @hyp.given(_fuzz_case())
    def check(case):
        command, payload = case
        files = {"<params>": str(params), "<path>": str(path_file)}
        payload = {k: files.get(v, v) if isinstance(v, str) else v
                   for k, v in payload.items()}
        cfg = write_config(root, "fuzz.json", payload)
        before = outside_out()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["--config", str(cfg), "--out", str(root / "o"),
                       *command.split()])
        err = capsys.readouterr().err
        assert outside_out() == before, (command, payload)
        assert rc in ((2,) if command.startswith("verify") else (0, 2, 3)), \
            (command, payload, rc)
        if rc == 2:
            lines = [l for l in err.splitlines() if l.startswith("error:")]
            assert len(lines) == 1, (command, payload, err)

    check()
