"""Batch command-line front end.

Subcommands: simulate, cwt, theory {cov|spectrum|coherence|scaling},
estimate, verify {bahr|decay|scaling|spectrum-consistency|existence}.
Experiments are driven by a JSON config file.  The keyword-only parameters
of each ``cmd_*`` function are its config keys, each with its kind and
default; ``verify`` has none.  The config is bound to them before any
computation: an unknown key, a missing required key and a value of the
wrong kind are refused.  Numbers refuse a JSON boolean, ``bool`` keys take
only one, ``basename`` is a plain file name, and the paths ``params``,
``path_file`` and ``--out`` refuse a NUL character.  ``--seed`` sets ``seed``
for the commands that take one.  All outputs are plot-ready CSV or JSON
written to the output directory; commands are deterministic given the seed
and side-effect free outside that directory.

Exit codes: 0 success, 1 verification suite failed, 2 validation error,
3 embedding failure (clipped, approximate output was still written).  Exit 2
means an ``MfbmwaveError`` (bad config or parameters, an out-of-range size,
seed, wavelet order, component index or scale, an unresolvable scale, shift
or lag grid, a corrupt container), a file that cannot be read or written, or
a config that is not UTF-8 JSON; it prints one ``error:`` line.
``QuadratureError``, a numerical non-convergence, is not an MfbmwaveError.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import sys
from pathlib import Path
from typing import NewType, get_args, get_origin, get_type_hints

import numpy as np

from .model import MfbmwaveError, _check_index, load_params
from .synth import SEED_SCHEME, _first_size, embedding_report, iter_ensemble
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


# a config string that names a file in the output directory: no directory
# part, and not "", "." or ".."
FileName = NewType("FileName", str)
# a config string that names a file to read: no NUL character, which no
# path on a POSIX or Windows file system holds
PathName = NewType("PathName", str)


def _config_keys(command) -> dict:
    """Config key -> (kind, default) of ``command``: its keyword-only
    parameters, the one declaration of its keys."""
    hints = get_type_hints(command)
    return {name: (hints[name], p.default)
            for name, p in inspect.signature(command).parameters.items()
            if p.kind is p.KEYWORD_ONLY}


def _load_config(args, command) -> dict:
    """The arguments of ``command``: its config keys, typed, from the JSON
    config, with ``--seed`` as ``seed`` where it takes one; its other
    parameters (``out``, ``kind``, ``suite``) from the command line."""
    if "\0" in str(args.out):
        raise ConfigError(f"--out {str(args.out)!r} is not a path")
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            config = json.load(f)
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
    keys = _config_keys(command)
    unknown = set(config) - set(keys)
    if unknown:
        raise ConfigError(
            f"unknown config keys for {args.command!r}: {sorted(unknown)}")
    if args.seed is not None and "seed" in keys:
        config["seed"] = args.seed
    for key, (kind, default) in keys.items():
        if key in config:
            config[key] = _typed(kind, config[key], key)
        elif default is inspect.Parameter.empty:
            raise ConfigError(
                f"{args.command!r} requires config key {key!r}")
    config.update((name, getattr(args, name))
                  for name in inspect.signature(command).parameters
                  if name not in keys)
    return config


def _typed(kind, value, key):
    """The config value of ``key`` as ``kind``; a ConfigError if it is not
    one.  Numbers convert, but a bool is no number and an int no float with
    a fractional part; a str, bool, FileName or PathName must be one as it
    stands.  ``list[kind]`` takes a list, ``kind | None`` also null."""
    if type(None) in get_args(kind):
        if value is None:
            return None
        kind = get_args(kind)[0]
    if get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(
                f"config key {key!r} must be a list, got {value!r}")
        return [_typed(get_args(kind)[0], v, key) for v in value]
    if kind in (int, float):
        try:
            if not (isinstance(value, bool) or kind is int and isinstance(
                    value, float) and not value.is_integer()):
                return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    elif kind is FileName:
        if (isinstance(value, str) and value not in ("", ".", "..")
                and "\0" not in value and os.path.basename(value) == value):
            return value
    elif kind is PathName:
        if isinstance(value, str) and "\0" not in value:
            return value
    elif isinstance(value, kind):
        return value
    name = {FileName: "plain file name",
            PathName: "path"}.get(kind, kind.__name__)
    raise ConfigError(f"config key {key!r}: {value!r} is not "
                      f"{'an' if kind is int else 'a'} {name}")


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


def cmd_simulate(out: Path, *, params: PathName, n: int, dt: float,
                 count: int = 1, basename: FileName = "path",
                 seed: int = 0) -> int:
    params = load_params(params)
    out.mkdir(parents=True, exist_ok=True)

    for r, path in enumerate(iter_ensemble(params, n, dt, seed, count)):
        stem = out / f"{basename}_{r:04d}"
        path_to_csv_file(path, stem.with_suffix(".csv"))
        save_path_file(path, stem.with_suffix(".mfbm"))
    return _report_embedding(out, params, n, dt)


def cmd_cwt(out: Path, *, path_file: PathName, wavelet_m: int,
            scales: list[float], shifts: list[float] | None = None,
            basename: FileName = "field") -> int:
    field = cwt(load_path_file(path_file), gaussian_derivative(wavelet_m),
                scales, shifts=shifts)
    out.mkdir(parents=True, exist_ok=True)
    field_to_csv_file(field, out / f"{basename}.csv")
    save_field_file(field, out / f"{basename}.mfbm")
    return EXIT_OK


def cmd_theory(out: Path, kind: str, *, params: PathName, wavelet_m: int = 1,
               j: int = 0, k: int | None = None, a1: float = 1.0,
               a2: float = 1.0, h_values: list[float] | None = None,
               scales: list[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
               omega_min: float = 1e-4, omega_max: float = 1e3,
               points_per_decade: int = 64,
               omegas: list[float] | None = None) -> int:
    params = load_params(params)
    wavelet = gaussian_derivative(wavelet_m)
    k = min(1, params.p - 1) if k is None else k
    _check_index(params, j, k)
    query = WaveletCovQuery(j, k, a1, a2)
    a1, a2 = query.a1, query.a2
    out.mkdir(parents=True, exist_ok=True)

    if kind == "cov":
        if h_values is None:
            raise ConfigError("'theory cov' requires config key 'h_values'")
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
    elif kind == "spectrum":
        omegas = (make_log_omega_grid(omega_min, omega_max, points_per_decade)
                  if omegas is None else np.asarray(omegas))
        grid = cross_spectral_density(query, params, wavelet, omegas)
        rows = []
        for w, s in zip(grid.omegas, grid.values):
            z = zeta(params, j, k, w)
            rows.append((j, k, a1, a2, float(w), s.real, s.imag, abs(s),
                         z.real, z.imag))
        _write_csv(out / "theory_spectrum.csv",
                   ["j", "k", "a1", "a2", "omega", "re", "im", "abs",
                    "zeta_re", "zeta_im"], rows)
    elif kind == "coherence":
        omegas = (np.linspace(0.05, 2.0, 64) if omegas is None
                  else np.asarray(omegas))
        res = coherence(query, params, wavelet, omegas)
        rows = [(float(w), c.real, c.imag, float(d), disc.real, disc.imag)
                for w, c, d, disc in zip(res.omegas, res.closed_form,
                                         res.definition, res.discrepancy)]
        _write_csv(out / "theory_coherence.csv",
                   ["omega", "closed_form_re", "closed_form_im",
                    "definition", "discrepancy_re", "discrepancy_im"], rows)
    else:  # scaling
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


def cmd_estimate(out: Path, *, params: PathName, n: int, dt: float,
                 wavelet_m: int = 1, count: int = 100, j: int = 0,
                 k: int | None = None, a1: float | None = None,
                 a2: float | None = None, scales: list[float] = (),
                 lags: list[int] = (0, 1, 2, 4, 8), fit_decay: bool = False,
                 seed: int = 0) -> int:
    params = load_params(params)
    wavelet = gaussian_derivative(wavelet_m)
    if count < MIN_REPLICATES:
        raise ConfigError(f"'estimate' needs count >= {MIN_REPLICATES}, "
                          f"got {count}")
    k = min(1, params.p - 1) if k is None else k
    _check_index(params, j, k)
    a1 = 4.0 * dt if a1 is None else a1
    a2 = a1 if a2 is None else a2
    scales = sorted(set(scales) | {a1, a2})
    # size (first: the grid allocates n shift indices), grid and lags are
    # checked before synthesis; the largest scale fixes the shift grid
    _first_size(n, params.p)
    _, shift_idx = _grid(n, dt, scales, None)
    _check_lags(lags, shift_idx.size)
    out.mkdir(parents=True, exist_ok=True)

    paths = iter_ensemble(params, n, dt, seed, count)
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
    if fit_decay:
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


def cmd_verify(out: Path, suite: str) -> int:
    out.mkdir(parents=True, exist_ok=True)
    report = SUITES[suite]()
    rows = report.pop("rows", None)
    with open(out / f"verify_{suite}.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
    if rows is not None:
        _write_csv(out / "bahr_identities.csv",
                   ["variant", "alpha", "v", "lhs", "rhs", "abs_err"], rows)
    for c in report["checks"]:
        flag = "ADVISORY" if c["advisory"] else ("PASS" if c["passed"] else "FAIL")
        print(f"[{flag}] {c['name']}: measured={c['measured']:.6g} "
              f"target={c['target']:.6g} tol={c['tolerance']:.2g}")
    print(f"suite {suite}: {'PASS' if report['passed'] else 'FAIL'} "
          f"({report['runtime_seconds']} s)")
    return EXIT_OK if report["passed"] else EXIT_SUITE_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbmwave",
        description="Multivariate fractional Brownian motion: exact synthesis "
                    "and wavelet second-order theory")
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="64-bit seed")
    parser.add_argument("--out", type=Path, default=".",
                        help="output directory")
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
    command = _COMMANDS[args.command]
    try:
        return command(**_load_config(args, command))
    except (MfbmwaveError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
