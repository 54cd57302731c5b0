"""Batch command-line front end.

Subcommands: simulate, cwt, theory {cov|spectrum|coherence|scaling},
estimate, verify {bahr|decay|scaling|spectrum-consistency|existence}.
Experiments are driven by a JSON config file; unknown keys are rejected
before any computation.  All outputs are plot-ready CSV or JSON written to
the output directory; commands are deterministic given the seed and
side-effect free outside that directory.

Exit codes: 0 success, 1 verification suite failed, 2 validation error,
3 embedding failure (clipped, approximate output was still written).  Exit 2
means an ``MfbmwaveError`` (bad config or parameters, an out-of-range size,
seed, wavelet order, component index or scale, an unresolvable scale, shift
or lag grid, a corrupt container), a file that cannot be read or written, or
a config that is not JSON; it prints one ``error:`` line.
``QuadratureError``, a numerical non-convergence, is not an MfbmwaveError.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .model import MfbmwaveError, _check_index, load_params
from .synth import SEED_SCHEME, _first_size, embedding_report, replicate_ensemble
from .wavelets import _grid, gaussian_derivative, cwt, cwt_ensemble
from .wavstats import (
    WaveletCovQuery,
    DegenerateAsymptoticsError,
    asymptotic_wavelet_cov,
    theoretical_wavelet_cov,
)
from .spectral import cross_spectral_density, coherence, make_log_omega_grid, zeta
from .estimate import (MIN_REPLICATES, _check_lags, empirical_wavelet_cov,
                       fit_power_law)
from .containers import (
    field_to_csv_file,
    load_path_file,
    path_to_csv_file,
    save_field_file,
    save_path_file,
)
from .verify import SUITES

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_VALIDATION = 2
EXIT_EMBEDDING = 3


class ConfigError(MfbmwaveError):
    pass


_ALLOWED_KEYS = {
    "simulate": {"params", "n", "dt", "count", "basename", "seed"},
    "cwt": {"path_file", "wavelet_m", "scales", "shifts", "basename"},
    "theory": {"params", "wavelet_m", "j", "k", "a1", "a2", "h_values",
               "scales", "omega_min", "omega_max", "points_per_decade",
               "omegas"},
    "estimate": {"params", "wavelet_m", "n", "dt", "count", "j", "k",
                 "a1", "a2", "scales", "lags", "fit_decay", "seed"},
    "verify": set(),
}


def _load_config(args, command) -> dict:
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            config = json.load(f)
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(config) - _ALLOWED_KEYS[command]
        if unknown:
            raise ConfigError(
                f"unknown config keys for {command!r}: {sorted(unknown)}")
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def _need(config, key, command):
    if key not in config:
        raise ConfigError(f"{command!r} requires config key {key!r}")
    return config[key]


def _typed(kind, value, key):
    """``kind(value)`` for the config value of ``key``; a ConfigError if it
    does not convert, or if an int is asked for and ``value`` is a bool or a
    float with a fractional part."""
    try:
        if kind is int and (isinstance(value, bool) or isinstance(value, float)
                            and not value.is_integer()):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config key {key!r}: {value!r} is not "
                          f"{'an' if kind is int else 'a'} {kind.__name__}") \
            from None


def _typed_list(kind, value, key) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"config key {key!r} must be a list, got {value!r}")
    return [_typed(kind, v, key) for v in value]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in row])


def _report_embedding(out: Path, params, n: int, dt: float) -> int:
    """Write embedding_report.json; EXIT_EMBEDDING if eigenvalues were clipped."""
    report = embedding_report(params, n, dt)
    with open(out / "embedding_report.json", "w", encoding="utf-8") as f:
        json.dump({"circulant_size": report.circulant_size,
                   "min_eigenvalue": report.min_eigenvalue,
                   "correction": report.correction,
                   "seed_scheme": SEED_SCHEME}, f, indent=2)
    if report.correction != "none":
        print("embedding failure: eigenvalues clipped, output approximate",
              file=sys.stderr)
        return EXIT_EMBEDDING
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args, "simulate")
    params = load_params(_typed(str, _need(config, "params", "simulate"),
                                "params"))
    n = _typed(int, _need(config, "n", "simulate"), "n")
    dt = _typed(float, _need(config, "dt", "simulate"), "dt")
    count = _typed(int, config.get("count", 1), "count")
    seed = _typed(int, config.get("seed", 0), "seed")
    basename = config.get("basename", "path")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    paths = replicate_ensemble(params, n, dt, seed, count)
    for r, path in enumerate(paths):
        stem = out / f"{basename}_{r:04d}"
        path_to_csv_file(path, stem.with_suffix(".csv"))
        save_path_file(path, stem.with_suffix(".mfbm"))
    return _report_embedding(out, params, n, dt)


def cmd_cwt(args) -> int:
    config = _load_config(args, "cwt")
    path = load_path_file(_typed(str, _need(config, "path_file", "cwt"),
                                 "path_file"))
    wavelet = gaussian_derivative(
        _typed(int, _need(config, "wavelet_m", "cwt"), "wavelet_m"))
    scales = _typed_list(float, _need(config, "scales", "cwt"), "scales")
    shifts = config.get("shifts")
    if shifts is not None:
        shifts = _typed_list(float, shifts, "shifts")
    field = cwt(path, wavelet, scales, shifts=shifts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    basename = config.get("basename", "field")
    field_to_csv_file(field, out / f"{basename}.csv")
    save_field_file(field, out / f"{basename}.mfbm")
    return EXIT_OK


def cmd_theory(args) -> int:
    config = _load_config(args, "theory")
    params = load_params(_typed(str, _need(config, "params", "theory"),
                                "params"))
    wavelet = gaussian_derivative(_typed(int, config.get("wavelet_m", 1),
                                         "wavelet_m"))
    j = _typed(int, config.get("j", 0), "j")
    k = _typed(int, config.get("k", min(1, params.p - 1)), "k")
    _check_index(params, j, k)
    query = WaveletCovQuery(j, k, _typed(float, config.get("a1", 1.0), "a1"),
                            _typed(float, config.get("a2", 1.0), "a2"))
    a1, a2 = query.a1, query.a2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.kind == "cov":
        h_values = _typed_list(float, _need(config, "h_values", "theory cov"),
                               "h_values")
        rows = []
        for h in h_values:
            q = WaveletCovQuery(j, k, a1, a2, h)
            c = theoretical_wavelet_cov(q, params, wavelet)
            try:
                a = asymptotic_wavelet_cov(q, params, wavelet) if h != 0 else complex("nan")
            except DegenerateAsymptoticsError:
                a = complex("nan")
            ratio = (c / a).real if a == a and a != 0 else float("nan")
            rows.append((j, k, a1, a2, h, c.real, c.imag, a.real, a.imag,
                         ratio))
        _write_csv(out / "theory_cov.csv",
                   ["j", "k", "a1", "a2", "h", "re", "im",
                    "asymptotic_re", "asymptotic_im", "ratio"], rows)
    elif args.kind == "spectrum":
        if "omegas" in config:
            omegas = np.asarray(_typed_list(float, config["omegas"], "omegas"))
        else:
            omegas = make_log_omega_grid(
                _typed(float, config.get("omega_min", 1e-4), "omega_min"),
                _typed(float, config.get("omega_max", 1e3), "omega_max"),
                _typed(int, config.get("points_per_decade", 64),
                       "points_per_decade"))
        grid = cross_spectral_density(query, params, wavelet, omegas)
        rows = []
        for w, s in zip(grid.omegas, grid.values):
            z = zeta(params, j, k, w)
            rows.append((j, k, a1, a2, float(w), s.real, s.imag, abs(s),
                         z.real, z.imag))
        _write_csv(out / "theory_spectrum.csv",
                   ["j", "k", "a1", "a2", "omega", "re", "im", "abs",
                    "zeta_re", "zeta_im"], rows)
    elif args.kind == "coherence":
        if "omegas" in config:
            omegas = np.asarray(_typed_list(float, config["omegas"], "omegas"))
        else:
            omegas = np.linspace(0.05, 2.0, 64)
        res = coherence(query, params, wavelet, omegas)
        rows = [(float(w), c.real, c.imag, float(d), disc.real, disc.imag)
                for w, c, d, disc in zip(res.omegas, res.closed_form,
                                         res.definition, res.discrepancy)]
        _write_csv(out / "theory_coherence.csv",
                   ["omega", "closed_form_re", "closed_form_im",
                    "definition", "discrepancy_re", "discrepancy_im"], rows)
    else:  # scaling
        scales = _typed_list(
            float, config.get("scales", [1.0, 2.0, 4.0, 8.0, 16.0]), "scales")
        if not scales:
            raise ConfigError("'theory scaling' needs at least one scale")
        alpha = params.alpha(j, k)
        covs = [theoretical_wavelet_cov(WaveletCovQuery(j, k, a, a, 0.0),
                                        params, wavelet) for a in scales]
        anchor = abs(covs[0]) / scales[0] ** (alpha + 1.0)
        rows = [(float(a), c.real, c.imag, anchor * a ** (alpha + 1.0))
                for a, c in zip(scales, covs)]
        _write_csv(out / "theory_scaling.csv",
                   ["a", "cov_re", "cov_im", "predicted_abs"], rows)
    return EXIT_OK


def cmd_estimate(args) -> int:
    config = _load_config(args, "estimate")
    params = load_params(_typed(str, _need(config, "params", "estimate"),
                                "params"))
    wavelet = gaussian_derivative(_typed(int, config.get("wavelet_m", 1),
                                         "wavelet_m"))
    n = _typed(int, _need(config, "n", "estimate"), "n")
    dt = _typed(float, _need(config, "dt", "estimate"), "dt")
    count = _typed(int, config.get("count", 100), "count")
    if count < MIN_REPLICATES:
        raise ConfigError(f"'estimate' needs count >= {MIN_REPLICATES}, "
                          f"got {count}")
    seed = _typed(int, config.get("seed", 0), "seed")
    j = _typed(int, config.get("j", 0), "j")
    k = _typed(int, config.get("k", min(1, params.p - 1)), "k")
    _check_index(params, j, k)
    a1 = _typed(float, config.get("a1", 4.0 * dt), "a1")
    a2 = _typed(float, config.get("a2", a1), "a2")
    scales = sorted(set(_typed_list(float, config.get("scales", []), "scales"))
                    | {a1, a2})
    lags = _typed_list(int, config.get("lags", [0, 1, 2, 4, 8]), "lags")
    # size (first: the grid allocates n shift indices), grid and lags are
    # checked before synthesis; the largest scale fixes the shift grid
    _first_size(n, params.p)
    _, shift_idx = _grid(n, dt, scales, None)
    _check_lags(lags, shift_idx.size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    paths = replicate_ensemble(params, n, dt, seed, count)
    query = WaveletCovQuery(j, k, a1, a2)
    fields = cwt_ensemble(paths, wavelet, sorted({a1, a2}), shift_idx * dt)
    emp = empirical_wavelet_cov(fields, query, lags)
    rows = []
    for il, lag in enumerate(emp.lags):
        h = lag * emp.shift_spacing
        theo = theoretical_wavelet_cov(WaveletCovQuery(j, k, a1, a2, h),
                                       params, wavelet)
        rows.append((int(lag), h, emp.mean[il].real, emp.mean[il].imag,
                     emp.se_real[il], emp.se_imag[il], theo.real, theo.imag,
                     emp.replicates))
    _write_csv(out / "estimate_cov.csv",
               ["lag", "h", "mean_re", "mean_im", "se_re", "se_im",
                "theory_re", "theory_im", "replicates"], rows)
    if config.get("fit_decay"):
        pos = emp.lags > 0
        rep = fit_power_law(emp.lags[pos] * emp.shift_spacing,
                            np.abs(emp.mean[pos]))
        _write_csv(out / "estimate_fit.csv",
                   ["slope", "intercept", "slope_se", "range_lo", "range_hi",
                    "n_used", "n_excluded"],
                   [(rep.slope, rep.intercept, rep.slope_se,
                     rep.fit_range[0], rep.fit_range[1],
                     rep.n_used, rep.n_excluded)])
    return _report_embedding(out, params, n, dt)


def cmd_verify(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = SUITES[args.suite]()
    rows = report.pop("rows", None)
    with open(out / f"verify_{args.suite}.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
    if rows is not None:
        _write_csv(out / "bahr_identities.csv",
                   ["variant", "alpha", "v", "lhs", "rhs", "abs_err"], rows)
    for c in report["checks"]:
        flag = "ADVISORY" if c["advisory"] else ("PASS" if c["passed"] else "FAIL")
        print(f"[{flag}] {c['name']}: measured={c['measured']:.6g} "
              f"target={c['target']:.6g} tol={c['tolerance']:.2g}")
    print(f"suite {args.suite}: {'PASS' if report['passed'] else 'FAIL'} "
          f"({report['runtime_seconds']} s)")
    return EXIT_OK if report["passed"] else EXIT_SUITE_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbmwave",
        description="Multivariate fractional Brownian motion: exact synthesis "
                    "and wavelet second-order theory")
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="64-bit seed")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="sample paths by circulant embedding")
    sub.add_parser("cwt", help="continuous wavelet transform of a stored path")
    theory = sub.add_parser("theory", help="closed-form second-order theory")
    theory.add_argument("kind", choices=["cov", "spectrum", "coherence", "scaling"])
    sub.add_parser("estimate", help="Monte Carlo estimates against theory")
    verify = sub.add_parser("verify", help="verification suites")
    verify.add_argument("suite", choices=sorted(SUITES))
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "cwt": cmd_cwt,
    "theory": cmd_theory,
    "estimate": cmd_estimate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MfbmwaveError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
