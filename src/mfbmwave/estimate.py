"""Empirical second-order statistics of simulated wavelet fields.

Estimators close the loop against the exact theory: sample cross-covariance
across replicates (and along shifts, exploiting stationarity), and the shared
log-log regression used for every power-law exponent check.  Standard errors
come from a replicate-level jackknife only; coefficients along one path are
correlated, so within-path averaging is used for variance reduction but not
for inference.

Fields are streamed: the covariance estimator reads them in blocks of
``model.CHUNK_BYTES`` (at least one field), a field counted as its two
stacked coefficient rows, so a generator such as ``cwt_ensemble`` is never
held in full.  Beside one block, memory grows only with replicates x lags
of per-replicate estimates.
A field of a real wavelet holds float64 coefficients and one of a complex
wavelet complex128; a block is sized from the field's item size, and the
imaginary parts enter the products only for complex fields.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import MfbmwaveError
from .wavstats import WaveletCovQuery

MIN_REPLICATES = 30


@dataclass(frozen=True)
class FitReport:
    """Result of an ordinary least-squares fit of log|y| on log x."""

    slope: float
    intercept: float
    slope_se: float
    fit_range: tuple
    n_used: int
    n_excluded: int
    residuals: np.ndarray


def fit_power_law(xs, ys) -> FitReport:
    """OLS of log|y| on log x; returns slope, intercept and slope standard error.

    Points with non-positive x or vanishing or non-finite |y| are excluded
    and counted in the report; ``fit_range`` is the x range of the rest,
    which must hold two distinct x.  A fit through two points has no
    residual degree of freedom; its slope standard error is nan.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.abs(np.asarray(ys))
    mask = np.isfinite(xs) & np.isfinite(ys) & (xs > 0.0) & (ys > 1e-290)
    n_excluded = int(xs.size - mask.sum())
    x = np.log(xs[mask])
    y = np.log(ys[mask])
    n = x.size
    if np.unique(x).size < 2:
        raise MfbmwaveError(f"power-law fit needs >= 2 usable points at "
                            f"distinct x, got {n} ({n_excluded} excluded)")
    sxx = np.sum((x - x.mean()) ** 2)
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = n - 2
    slope_se = (float(math.sqrt(np.sum(resid ** 2) / dof / sxx)) if dof
                else math.nan)
    rng = (float(xs[mask].min()), float(xs[mask].max()))
    return FitReport(slope=slope, intercept=intercept, slope_se=slope_se,
                     fit_range=rng, n_used=n, n_excluded=n_excluded,
                     residuals=resid)


def jackknife_se(values: np.ndarray):
    """Delete-one jackknife standard error of the mean of real values.

    Along the last axis: a float for one sample, an array for a stack.
    """
    values = np.ascontiguousarray(values, dtype=float)
    r = values.shape[-1]
    total = values.sum(axis=-1, keepdims=True)
    loo = (total - values) / (r - 1)
    dev = loo - loo.mean(axis=-1, keepdims=True)
    se = np.sqrt((r - 1) / r * np.sum(dev ** 2, axis=-1))
    return float(se) if se.ndim == 0 else se


def _check_lags(lags, n_shifts=None) -> None:
    """The lag grid of a covariance estimate holds finite integral numbers,
    lag 0 among them and, given the number of shifts, no |lag| >= n_shifts."""
    values = np.ravel(lags).tolist()
    for lag in values:
        if not (isinstance(lag, int)
                or isinstance(lag, float) and lag.is_integer()):
            raise MfbmwaveError(f"lags must be finite integral numbers, "
                                f"got {lag!r}")
    if 0 not in values:
        raise MfbmwaveError("lag grid must contain lag 0")
    if n_shifts is None:
        return
    top = max(abs(int(lag)) for lag in values)
    if top >= n_shifts:
        raise MfbmwaveError(f"lag {top} exceeds available shifts ({n_shifts})")


@dataclass(frozen=True)
class EmpiricalCov:
    """Replicate-averaged wavelet cross-covariance estimates per lag."""

    query: WaveletCovQuery
    lags: np.ndarray            # integer shift lags
    mean: np.ndarray            # complex estimates per lag
    se_real: np.ndarray
    se_imag: np.ndarray
    replicates: int
    shift_spacing: float

    def __post_init__(self):
        _check_lags(np.asarray(self.lags))
        if np.any(np.asarray(self.se_real) < 0) or np.any(np.asarray(self.se_imag) < 0):
            raise MfbmwaveError("standard errors must be nonnegative")


def _lagged_means(dj: np.ndarray, dk: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Shift averages of dj[:, b + lag] conj(dk[:, b]), shape (B, n_lags).

    In real arithmetic, one row-wise dot product per part and lag; the
    imaginary parts enter only for complex rows (a complex wavelet).
    """
    nb = dj.shape[1]
    complex_rows = np.iscomplexobj(dj) or np.iscomplexobj(dk)
    if complex_rows:
        jr, kr = dj.real.copy(), dk.real.copy()
        ji, ki = dj.imag.copy(), dk.imag.copy()
    else:
        jr, kr = dj, dk
    re = np.zeros((dj.shape[0], lags.size))
    im = np.zeros_like(re)
    for il, lag in enumerate(lags):
        x = slice(lag, None) if lag >= 0 else slice(None, nb + lag)
        y = slice(None, nb - lag) if lag >= 0 else slice(-lag, None)

        def dot(u, v):
            return np.einsum("rb,rb->r", u[:, x], v[:, y])

        re[:, il] = dot(jr, kr)
        if complex_rows:
            re[:, il] += dot(ji, ki)
            im[:, il] = dot(ji, kr) - dot(jr, ki)
    count = nb - np.abs(lags)
    return (re / count) + 1j * (im / count)


def _require_grid(r: int, name: str, grid: np.ndarray, first: np.ndarray) -> None:
    """Refuse field r if its grid is not the first field's.

    ``cwt_ensemble`` gives every field the same grid arrays, so the
    comparison is by identity first.
    """
    if grid is not first and not np.array_equal(grid, first):
        raise MfbmwaveError(f"field {r} has other {name} than field 0")


def empirical_wavelet_cov(fields, query: WaveletCovQuery, lags) -> EmpiricalCov:
    """Estimate E[d^j_{a1, b+h} conj(d^k_{a2, b})] at integer shift lags.

    Averages along shifts within each replicate, then across replicates;
    standard errors are delete-one jackknife over replicates.  ``fields``
    may be any iterable, a generator included; it is read one block at a
    time, a block being the rows d^j at scale a1 and d^k at scale a2 of
    consecutive fields, stacked.  A lag counts shifts, so the shift grid
    must be uniform and strictly ascending, and every field must have the
    scales and shifts of the first.
    """
    pending = iter(fields)
    f0 = next(pending, None)
    if f0 is None:
        raise MfbmwaveError(f"need >= {MIN_REPLICATES} replicates, got 0")
    ia1 = f0.scale_index(query.a1)
    ia2 = f0.scale_index(query.a2)
    nb = f0.shifts.size
    _check_lags(lags, nb)
    lags = np.asarray(lags, dtype=int)
    spacing = f0.dt
    if nb > 1:
        steps = np.diff(f0.shifts)
        spacing = float(steps[0])
        if not (spacing > 0.0
                and np.allclose(steps, spacing, rtol=1e-9, atol=0.0)):
            raise MfbmwaveError("shift grid must be uniform and strictly "
                                "ascending")

    per_block = max(1, model.CHUNK_BYTES // (2 * f0.coeffs.itemsize * nb))
    rest = itertools.chain([f0], pending)
    per_rep = []
    seen = 0
    while block := list(itertools.islice(rest, per_block)):
        for r, f in enumerate(block, seen):
            _require_grid(r, "scales", f.scales, f0.scales)
            _require_grid(r, "shifts", f.shifts, f0.shifts)
        seen += len(block)
        per_rep.append(_lagged_means(
            np.stack([f.coeffs[query.j, ia1, :] for f in block]),
            np.stack([f.coeffs[query.k, ia2, :] for f in block]), lags))
    per_rep = np.concatenate(per_rep)
    if per_rep.shape[0] < MIN_REPLICATES:
        raise MfbmwaveError(f"need >= {MIN_REPLICATES} replicates, "
                            f"got {per_rep.shape[0]}")
    return EmpiricalCov(query=query, lags=lags, mean=per_rep.mean(axis=0),
                        se_real=jackknife_se(per_rep.real.T),
                        se_imag=jackknife_se(per_rep.imag.T),
                        replicates=per_rep.shape[0], shift_spacing=spacing)
