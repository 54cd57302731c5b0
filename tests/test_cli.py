import csv
import json

import numpy as np
import pytest

from mfbmwave import cli
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

    def test_build_budget_clip_exits_3(self, tmp_path, monkeypatch):
        from collections import OrderedDict

        import mfbmwave.synth as synth

        # not nonnegative definite at m = 64; the doubling to 128 would
        # hold 128 * 4 * 8 + 2 * 65 * 4 * 16 + 65 * 2 * 8 = 13.4 kB
        monkeypatch.setattr(synth, "_BUILD_BUDGET", 10_000)
        monkeypatch.setattr(synth, "_factor_cache", OrderedDict())
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

    def test_simulate_count_zero(self, tmp_path, params_file, capsys):
        err = self.run(tmp_path, capsys, "simulate",
                       {"params": str(params_file), "n": 64, "dt": 1.0, "count": 0})
        assert "count >= 1" in err

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

    @pytest.fixture()
    def no_synthesis(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ensemble synthesized before the grid check")

        monkeypatch.setattr(cli, "replicate_ensemble", refuse)

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


class TestVerifyCommand:
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
