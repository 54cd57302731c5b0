"""Checks of the program's outputs, computed apart from the code under test.

Every check returns ``(passed, detail)``.  Each one is also run once on a
deliberately wrong input by the workload's self-test, which must make it
fail.  Tolerances are derived from sampling error, quadrature targets or
floating-point exactness, never from a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
import struct

import numpy as np
from scipy.signal import fftconvolve

# Binary container layout (README of the package: magic MFBM1, kind byte,
# version, then a fixed header); parsed here with struct, not with the
# library's reader.
_MAGIC = b"MFBM1"


def _ok(passed, detail):
    return bool(passed), detail


# ---------------------------------------------------------------------------
# Independent readers
# ---------------------------------------------------------------------------

def _read_header(raw, kind):
    if raw[:5] != _MAGIC:
        raise ValueError("bad magic")
    got_kind, _version = struct.unpack_from("<BH", raw, 5)
    if got_kind != kind:
        raise ValueError(f"container kind {got_kind}, expected {kind}")
    return 8


def read_path_container(filename):
    """(p, n, dt, seed, values) of a path container."""
    with open(filename, "rb") as f:
        raw = f.read()
    off = _read_header(raw, 1)
    p, n, dt, seed = struct.unpack_from("<IQdQ", raw, off)
    nbytes = 8 * p * n
    values = np.frombuffer(raw[len(raw) - nbytes:], dtype="<f8").reshape(p, n)
    return p, n, dt, seed, values


def read_field_container(filename):
    """(scales, shifts, coeffs) of a wavelet-field container."""
    with open(filename, "rb") as f:
        raw = f.read()
    off = _read_header(raw, 2)
    p, ns, nb, _dt, _n, _seed = struct.unpack_from("<IIQdQQ", raw, off)
    off += struct.calcsize("<IIQdQQ")
    scales = np.frombuffer(raw, dtype="<f8", count=ns, offset=off)
    off += 8 * ns
    shifts = np.frombuffer(raw, dtype="<f8", count=nb, offset=off)
    off += 8 * nb
    flat = np.frombuffer(raw, dtype="<f8", count=2 * p * ns * nb, offset=off)
    flat = flat.reshape(p, ns, nb, 2)
    return scales, shifts, flat[..., 0] + 1j * flat[..., 1]


def read_path_csv(filename):
    """(times, values) of a path CSV, parsed with float()."""
    with open(filename, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    data = np.array([[float(tok) for tok in row] for row in rows if row])
    return data[:, 0], data[:, 1:].T.copy()


def read_csv_rows(filename):
    with open(filename, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


# ---------------------------------------------------------------------------
# Generic checks
# ---------------------------------------------------------------------------

def all_zero_exit(codes):
    bad = [c for c in codes if c != 0]
    return _ok(not bad, f"{len(codes)} CLI steps, non-zero exits {bad}")


def exact_embedding(report):
    """The embedding report of a configuration says the synthesis is exact."""
    return _ok(report["correction"] == "none" and report["circulant_size"] > 0,
               f"correction {report['correction']!r}, circulant size "
               f"{report['circulant_size']}")


def bit_equal(a, b, label):
    a = np.ascontiguousarray(a, dtype="<f8")
    b = np.ascontiguousarray(b, dtype="<f8")
    same = a.shape == b.shape and np.array_equal(a.view("<u8"), b.view("<u8"))
    return _ok(same, f"{label}: {a.size} values bit-identical" if same
               else f"{label}: values differ")


# ---------------------------------------------------------------------------
# ensemble-n64: path covariance against the closed form
# ---------------------------------------------------------------------------

def path_covariance_theory(params, n, dt, cross_covariance):
    """Closed-form covariance of the stacked path values (p n x p n)."""
    p = params.p
    t = np.arange(n, dtype=float) * dt
    out = np.empty((p * n, p * n))
    for j in range(p):
        for k in range(p):
            out[j * n:(j + 1) * n, k * n:(k + 1) * n] = cross_covariance(
                params, j, k, t[:, None], t[None, :])
    return out


def covariance_within_se(sum_xx, count, theory, z=4.0, share=0.99):
    """At least ``share`` of the entries lie within z Gaussian SE of theory.

    The SE of a zero-mean product moment is sqrt((C_aa C_bb + C_ab^2) / N),
    the fourth-moment formula of acceptance criterion 8.
    """
    emp = sum_xx / count
    var = np.outer(np.diag(theory), np.diag(theory)) + theory ** 2
    se = np.sqrt(np.maximum(var, 0.0) / count)
    frac = float(np.mean(np.abs(emp - theory) <= z * se + 1e-12))
    return _ok(frac >= share, f"{frac:.4%} of {theory.shape[0]}x{theory.shape[1]} "
                              f"entries within {z:g} SE over {count} paths")


# ---------------------------------------------------------------------------
# closure-n4096: direct wavelet sums and the Monte Carlo closure
# ---------------------------------------------------------------------------

def hermite_atom(M, t):
    """psi_M(t) = He_M(t) exp(-t^2/2) by the probabilists' recurrence."""
    h_prev, h = np.ones_like(t), t
    for m in range(1, M):
        h_prev, h = h, t * h - m * h_prev
    return h * np.exp(-0.5 * t * t)


def direct_cwt(values, dt, M, scale, shift):
    """a^(-1/2) sum_i x(t_i) psi_M((t_i - b)/a) dt over the whole path."""
    t = np.arange(values.shape[-1]) * dt
    psi = hermite_atom(M, (t - shift) / scale)
    terms = values * psi
    return terms.sum(axis=-1) * dt / math.sqrt(scale), \
        np.abs(terms).sum(axis=-1) * dt / math.sqrt(scale)


def cwt_matches_direct(coeffs, direct, magnitude, rel=1e-9):
    """Coefficients equal the defining sum up to rounding of the FFT route.

    The library truncates the wavelet at |t| <= 10 a (mass < 1e-20) and
    convolves by FFT; both errors are far below 1e-9 of the sum of |terms|.
    """
    err = np.abs(np.asarray(coeffs) - np.asarray(direct))
    worst = float(np.max(err / magnitude))
    return _ok(worst <= rel, f"{err.size} coefficients, worst error "
                             f"{worst:.2e} of sum |terms| (tol {rel:g})")


def estimate_within_se(rows, z=5.0):
    """Monte Carlo mean within z jackknife SE of the theory column, per lag.

    z = 5 keeps the family-wise false-alarm rate of a run (tens of lags)
    below 1e-4; a real error in synthesis or theory moves z by far more.
    """
    worst = 0.0
    for row in rows:
        for part in ("re", "im"):
            diff = abs(float(row[f"mean_{part}"]) - float(row[f"theory_{part}"]))
            se = float(row[f"se_{part}"])
            if se > 0.0:
                worst = max(worst, diff / se)
            elif diff > 1e-12:
                worst = math.inf
    return _ok(worst <= z, f"{len(rows)} lags, max |z| {worst:.2f} (limit {z:g})")


# ---------------------------------------------------------------------------
# long-path-p3: per-scale variance of the sampled transform
# ---------------------------------------------------------------------------

def _sampled_kernel(M, scale, dt, margin):
    """a^(-1/2) dt psi_M(m dt / a) for m = -margin .. margin."""
    m = np.arange(-margin, margin + 1)
    return hermite_atom(M, m * dt / scale) * dt / math.sqrt(scale)


def sampled_transform_moments(M, scales, dt, hurst, margins):
    """Exact second moments of the sampled transform of an fBm, all scales.

    For d_i(b) = sum_m g_i(m) x(b + m dt) with g_i = a_i^(-1/2) dt
    psi((m dt)/a_i) and sum g_i = 0 (to rounding),
    gamma_ij(h) = E[d_i(b) d_j(b + h dt)] = -1/2 sum_k r_ij(k) |(k + h) dt|^(2H),
    where r_ij is the cross-correlation of the sampled kernels.  Returns
    (variance[i] = gamma_ii(0), cov_sq[i, j] = sum over h of gamma_ij(h)^2).
    The mean squares S_i over the same N shifts of P Gaussian paths have
    Cov(S_i, S_j) = 2 cov_sq[i, j] / (N P): the scales share the path, so
    their sample variances are correlated (about 0.5 between neighbours).
    """
    kernels = [_sampled_kernel(M, a, dt, L) for a, L in zip(scales, margins)]
    ns = len(kernels)
    variance = np.empty(ns)
    cov_sq = np.empty((ns, ns))
    for i in range(ns):
        for j in range(i, ns):
            K = margins[i] + margins[j]
            r = fftconvolve(kernels[i][::-1], kernels[j])     # lags -K .. K
            width = 4 * max(margins[i], margins[j])
            k = np.arange(-K - width, K + width + 1)
            w = np.abs(k * dt) ** (2.0 * hurst)
            gam = -0.5 * fftconvolve(w, r[::-1], mode="valid")
            # gam[width] is the covariance at shift lag h = 0
            if i == j:
                variance[i] = float(gam[width])
            cov_sq[i, j] = cov_sq[j, i] = float(np.sum(gam ** 2))
    return variance, cov_sq


def variance_matches_theory(sample_var, n_shifts, n_paths, exact_var,
                            gamma_sq, theory_var, z=5.0):
    """Pooled sample variance within z SE plus the discretization bias.

    The SE is the exact one of the sampled transform; the bias is the exact
    gap between the sampled and the continuous transform variance.
    """
    se = math.sqrt(2.0 * gamma_sq / (n_shifts * n_paths))
    bias = abs(exact_var - theory_var)
    tol = z * se + bias
    dev = abs(sample_var - theory_var)
    return _ok(dev <= tol, f"variance {sample_var:.6g} vs theory {theory_var:.6g}: "
                           f"|dev| {dev / theory_var:.3%}, tol {z:g} SE "
                           f"{z * se / theory_var:.3%} + bias {bias / theory_var:.3%}")


def ols_weights(x):
    x = np.asarray(x, dtype=float)
    return (x - x.mean()) / np.sum((x - x.mean()) ** 2)


def slope_matches(scales, sample_var, rel_cov, exact_var, target, z=5.0):
    """Log-log slope of variance on scale against 2 H + 1.

    Tolerance: z times the delta-method SE of the OLS slope plus the slope
    bias of the exact sampled-transform variances.  ``rel_cov`` is the
    covariance matrix of the relative errors of ``sample_var``; the scales
    are positively correlated, which makes the SE about 25 % larger than
    if they were independent.
    """
    w = ols_weights(np.log(scales))
    slope = float(w @ np.log(sample_var))
    bias = abs(float(w @ np.log(exact_var)) - target)
    se = float(math.sqrt(w @ rel_cov @ w))
    tol = z * se + bias
    return _ok(abs(slope - target) <= tol,
               f"slope {slope:.4f} vs 2H+1 = {target:.4f} (tol {tol:.4f})")


# ---------------------------------------------------------------------------
# theory-verify: exact symmetries of the covariance
# ---------------------------------------------------------------------------

# The quadrature asks for 1e-11 relative accuracy; two independent
# quadratures of the same value agree well inside 100 times that.
SYMMETRY_REL = 1e-9


def self_similar(base, scaled, exponent, c):
    want = c ** exponent * base
    err = abs(scaled - want) / abs(want)
    return _ok(err <= SYMMETRY_REL, f"self-similarity error {err:.2e}")


def hermitian(value, swapped):
    err = abs(value - np.conj(swapped)) / abs(value)
    return _ok(err <= SYMMETRY_REL, f"Hermitian error {err:.2e}")


def spectral_agrees(value, spectral_value, rel=1e-3):
    err = abs(value - spectral_value) / abs(value)
    return _ok(err <= rel, f"spectral inversion error {err:.2e} (tol {rel:g})")


def suites_passed(reports):
    failed = [r["suite"] for r in reports if not r["passed"]]
    return _ok(not failed, f"{len(reports)} suites, failed {failed}")
