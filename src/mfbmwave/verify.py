"""Self-contained verification suites.

Each suite confronts closed-form results with an independent numerical route
and returns a machine-auditable report: one entry per check with the
measured value, target, tolerance, provenance tag, pass flag and runtime.
Checks marked advisory document known discrepancies without failing the
suite.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import __version__
from .model import MfbmParams, check_existence, max_admissible_rho
from .wavelets import gaussian_derivative
from .wavstats import (
    WaveletCovQuery,
    asymptotic_wavelet_cov,
    scale_law_constant,
    theoretical_wavelet_cov,
    wavelet_cov_quadrature,
)
from .spectral import (
    RepresentationKernel,
    bahr_essen_batch,
    coherence,
    fit_zero_frequency_slope,
    representation_lhs,
    spectral_vs_time_consistency,
    zero_frequency_behavior,
)
from .estimate import fit_power_law

BAHR_ALPHAS = (0.25, 0.5, 0.75, 1.25, 1.5, 1.75)
BAHR_VS = (-5.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0)
_POWER_VARIANTS = ("abs", "sign_abs", "plus", "minus")

# Mixed tolerance of the closed-form-vs-quadrature checks, |closed - quad| <=
# XCHECK_ABS + XCHECK_REL |closed|.  It covers the quadrature's own error:
# its absolute target is 1e-11 on the kernel integral, at most 5e-12 on the
# covariance for the unit-amplitude configurations at scales >= 1 used here,
# and its relative target is 1e-11.
XCHECK_ABS = 1e-10
XCHECK_REL = 1e-9


def _check(name, measured, target, tolerance, provenance, note=None,
           advisory=False):
    measured = float(measured)
    target = float(target)
    tolerance = float(tolerance)
    entry = {
        "name": name,
        "measured": measured,
        "target": target,
        "tolerance": tolerance,
        "provenance": provenance,
        "passed": bool(abs(measured - target) <= tolerance),
        "advisory": bool(advisory),
    }
    if note:
        entry["note"] = note
    return entry


def _closed_vs_quadrature(label, queries, params, wavelet):
    """Closed-form covariance against the independent quadrature route."""
    worst = 0.0
    for q in queries:
        closed = theoretical_wavelet_cov(q, params, wavelet)
        quad = wavelet_cov_quadrature(q, params, wavelet)
        worst = max(worst, abs(closed - quad) / (XCHECK_ABS + XCHECK_REL * abs(closed)))
    where = ", ".join(f"(a1={q.a1:g}, a2={q.a2:g}, h={q.h:g})" for q in queries)
    entry = _check(
        f"closed-form-vs-quadrature-{label}", worst, 0.0, 1.0,
        "closed-form-vs-quadrature",
        note=f"max |closed - quadrature| / ({XCHECK_ABS:g} + {XCHECK_REL:g} "
             f"|closed|) over {where}")
    entry.update(abs_tol=XCHECK_ABS, rel_tol=XCHECK_REL)
    return entry


class _Checks(list):
    """A suite's check entries, each given its ``runtime_seconds`` on append.

    A check's runtime is the wall time since the previous append (or since
    the list was made, for the first check): the work that produced it.
    """

    def __init__(self):
        super().__init__()
        self.started = self._lap = time.perf_counter()

    def append(self, entry):
        now = time.perf_counter()
        entry["runtime_seconds"] = round(now - self._lap, 6)
        self._lap = now
        super().append(entry)


def _finish(suite, checks, extra=None):
    report = {
        "suite": suite,
        "generator": f"mfbmwave {__version__}",
        "checks": list(checks),
        "passed": all(c["passed"] or c["advisory"] for c in checks),
        "runtime_seconds": round(time.perf_counter() - checks.started, 3),
    }
    if extra:
        report.update(extra)
    return report


def verify_existence() -> dict:
    """Admissibility bound checks for the bivariate parameter set."""
    checks = _Checks()
    for h in (0.35, 0.5):
        checks.append(_check(
            f"equal-hurst-unconstrained-H{h}", max_admissible_rho(h, h), 1.0,
            0.0, "closed-form", note="no constraint binds when H_1 = H_2"))
    bound_18 = max_admissible_rho(0.1, 0.8)
    checks.append(_check(
        "bound-H(0.1,0.8)", bound_18, 0.514, 1e-3, "published-value",
        note="bisection against the spectral admissibility matrix"))
    closed = math.sqrt(math.gamma(1.2) * math.gamma(2.6)
                       * math.sin(0.1 * math.pi) * math.sin(0.8 * math.pi)) / (
        math.gamma(1.9) * math.sin(0.45 * math.pi))
    checks.append(_check(
        "bound-H(0.1,0.8)-closed-form", bound_18, closed, 2e-4, "closed-form"))
    bound_12 = max_admissible_rho(0.1, 0.2)
    checks.append(_check(
        "bound-H(0.1,0.2)-quoted-pairing", bound_12, 0.514, 1e-3,
        "published-value", advisory=True,
        note="documented discrepancy: the quoted 0.514 bound is reproduced "
             "at the Hurst pair (0.1, 0.8); the pair (0.1, 0.2) yields "
             f"{bound_12:.4f} by the same closed form, cross-checked by two "
             "independent routes"))
    checks.append(_check(
        "bound-swap-symmetry", max_admissible_rho(0.8, 0.1), bound_18, 2e-4,
        "derived"))
    checks.append(_check(
        "admissibility-flip-at-bound",
        float(check_existence(MfbmParams.bivariate(0.1, 0.8, rho=0.50)).admissible
              and not check_existence(MfbmParams.bivariate(0.1, 0.8, rho=0.52)).admissible),
        1.0, 0.0, "derived"))
    return _finish("existence", checks)


def verify_bahr() -> dict:
    """Trigonometric representation identities, quadrature vs closed form.

    Every value comes from one :func:`bahr_essen_batch` call, which runs each
    distinct quadrature once; the first check's runtime carries that call.
    """
    checks = _Checks()
    groups = [(variant, BAHR_ALPHAS, 1e-6, variant, None)
              for variant in _POWER_VARIANTS]
    groups.append(("hlog", (1.0,), 1e-5, "hlog-limit", "alpha -> 1- limit, "
                   "Richardson extrapolated over eps in {1e-4, 1e-5, 1e-6}"))
    kernels = [RepresentationKernel(alpha, variant)
               for variant, alphas, *_ in groups for alpha in alphas]
    table = dict(zip(kernels, bahr_essen_batch(kernels, BAHR_VS)))
    rows = []
    for variant, alphas, tolerance, name, note in groups:
        worst = 0.0
        for alpha in alphas:
            kern = RepresentationKernel(alpha, variant)
            for v, rhs in zip(BAHR_VS, table[kern]):
                lhs = representation_lhs(kern, v)
                worst = max(worst, abs(rhs - lhs) / max(1.0, abs(lhs)))
                rows.append((variant, alpha, v, lhs, rhs, abs(rhs - lhs)))
        checks.append(_check(f"representation-{name}-max-rel-err", worst,
                             0.0, tolerance, "quadrature-vs-closed-form",
                             note=note))
    exact = 0.0
    for a, s, p, m in zip(*(table[RepresentationKernel(1.25, variant)]
                            for variant in _POWER_VARIANTS)):
        exact = max(exact, abs(p - 0.5 * (a + s)), abs(m - 0.5 * (a - s)))
    checks.append(_check("one-sided-half-sum-identity", exact, 0.0, 0.0,
                         "exact-identity"))
    return _finish("bahr", checks, extra={"rows": rows})


_SCALING_SETS = (
    ("equal-hurst", MfbmParams.bivariate(0.35, 0.35, rho=0.6)),
    ("generic", MfbmParams.bivariate(0.3, 0.45, rho=0.5, eta=0.1)),
    ("critical-exponent", MfbmParams.bivariate(0.4, 0.6, rho=0.5, eta=0.2)),
)


def verify_scaling() -> dict:
    """Scale-power law of the instantaneous covariance."""
    checks = _Checks()
    wavelet = gaussian_derivative(2)
    scales = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    for label, params in _SCALING_SETS:
        alpha = params.alpha(0, 1)
        covs = [theoretical_wavelet_cov(WaveletCovQuery(0, 1, a, a, 0.0),
                                        params, wavelet) for a in scales]
        rep = fit_power_law(scales, np.abs(covs))
        checks.append(_check(f"scale-exponent-{label}", rep.slope, alpha + 1.0,
                             0.02, "closed-form"))
        law = scale_law_constant(params, wavelet, 0, 1)
        corr_lo = covs[0] / math.sqrt(
            theoretical_wavelet_cov(WaveletCovQuery(0, 0, 1.0, 1.0), params,
                                    wavelet).real
            * theoretical_wavelet_cov(WaveletCovQuery(1, 1, 1.0, 1.0), params,
                                      wavelet).real)
        checks.append(_check(
            f"scale-free-correlation-{label}", abs(corr_lo - law.correlation),
            0.0, 1e-7, "closed-form",
            note="instantaneous correlation at a = 1 equals the scale-free constant"))
        checks.append(_closed_vs_quadrature(
            label, [WaveletCovQuery(0, 1, a, a, 0.0) for a in (1.0, 16.0)],
            params, wavelet))
    return _finish("scaling", checks)


_DECAY_CONFIGS = (
    ("M1", MfbmParams.bivariate(0.4, 0.8, rho=0.6), 1, 1.2 - 2.0),
    ("M2", MfbmParams.bivariate(0.4, 0.8, rho=0.6), 2, 1.2 - 4.0),
    ("log-branch-M1", MfbmParams.bivariate(0.3, 0.7, rho=0.4, eta=0.2), 1, -1.0),
)


def verify_decay() -> dict:
    """Large-lag decay of the wavelet covariance against its closed-form law."""
    checks = _Checks()
    hs = np.geomspace(2.0 ** 5, 2.0 ** 9, 9)   # hs[-1] is exactly 512
    at_h512 = {}
    for label, params, M, slope_target in _DECAY_CONFIGS:
        wavelet = gaussian_derivative(M)
        exact = np.array([
            theoretical_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h),
                                    params, wavelet) for h in hs])
        asyms = np.array([
            asymptotic_wavelet_cov(WaveletCovQuery(0, 1, 1.0, 1.0, h),
                                   params, wavelet) for h in hs])
        at_h512[label] = (exact[-1], asyms[-1])
        rep = fit_power_law(hs, np.abs(exact))
        checks.append(_check(f"decay-slope-{label}", rep.slope, slope_target,
                             0.05, "closed-form"))
        devs = np.abs(exact.real / asyms.real - 1.0)
        checks.append(_check(f"decay-ratio-at-h512-{label}", devs[-1], 0.0,
                             0.1, "closed-form-vs-asymptotic-law"))
        checks.append(_check(
            f"decay-ratio-monotone-{label}",
            float(np.all(np.diff(devs) < 0.0)), 1.0, 0.0, "derived",
            note="|exact/asymptotic - 1| decreases along the lag grid"))
        # h = 32 takes the quadrature's direct route, h = 512 its series residual
        checks.append(_closed_vs_quadrature(
            label, [WaveletCovQuery(0, 1, 1.0, 1.0, h) for h in (hs[0], hs[-1])],
            params, wavelet))
    cov_m1, asym_m1 = at_h512["M1"]
    ratio_sign = cov_m1.real / asym_m1.real
    checks.append(_check(
        "asymptotic-sign-factor", math.copysign(1.0, ratio_sign), 1.0, 0.0,
        "closed-form-vs-asymptotic-law",
        note="the leading-order prediction carries the factor "
             "(-1)^M sqrt(a1 a2) relative to the bare kappa * tau constant; "
             "the sign is fixed by the 2M-th moment of the wavelet pair "
             "correlation and confirmed here against the exact covariance, "
             "itself cross-checked against quadrature"))
    return _finish("decay", checks)


def verify_spectrum_consistency() -> dict:
    """Inverse spectral transform against the closed-form covariance."""
    checks = _Checks()
    configs = (
        ("power-branch", MfbmParams.bivariate(0.35, 0.35, rho=0.5, eta=0.1), 1),
        ("log-branch", MfbmParams.bivariate(0.3, 0.7, rho=0.3, eta=0.2), 1),
        ("alpha-above-one", MfbmParams.bivariate(0.4, 0.8, rho=0.6), 2),
    )
    for label, params, M in configs:
        rep = spectral_vs_time_consistency(
            WaveletCovQuery(0, 1, 1.0, 2.0), params, gaussian_derivative(M))
        checks.append(_check(f"inverse-transform-{label}", rep.max_rel_error,
                             0.0, 1e-3, "spectral-inversion-vs-closed-form",
                             note="lags {0, 1, 4}, relative deviation"))
    # zero-frequency power law
    for label, params, M in (("M1-alpha0.7", MfbmParams.bivariate(0.35, 0.35, rho=0.5), 1),
                             ("M2-alpha1.2", MfbmParams.bivariate(0.4, 0.8, rho=0.6), 2)):
        q = WaveletCovQuery(0, 1, 1.0, 2.0)
        law = zero_frequency_behavior(q, params, gaussian_derivative(M))
        rep = fit_zero_frequency_slope(q, params, gaussian_derivative(M))
        checks.append(_check(f"zero-frequency-slope-{label}", rep.slope,
                             law.exponent, 0.02, "log-log-fit"))
    # coherence flatness at equal scales and the documented closed-form gap
    params = MfbmParams.bivariate(0.35, 0.6, rho=0.4, eta=0.15)
    omegas = np.linspace(0.05, 2.0, 64)
    res = coherence(WaveletCovQuery(0, 1, 2.0, 2.0), params,
                    gaussian_derivative(2), omegas)
    checks.append(_check("coherence-flat-equal-scales",
                         float(np.max(np.abs(res.definition - res.definition[0]))),
                         0.0, 1e-10, "derived"))
    disc = complex(res.discrepancy[0])
    expected_disc = 1.0 / (math.sin(math.pi * 0.35) * math.sin(math.pi * 0.6))
    checks.append(_check(
        "coherence-definition-vs-closed-form", disc.real, expected_disc, 1e-6,
        "derived", advisory=True,
        note="the definition-based coherence differs from the literal closed "
             "form by the diagonal weights sin(pi H_j) sin(pi H_k); the factor "
             "is reported, not asserted"))
    return _finish("spectrum-consistency", checks)


SUITES = {
    "existence": verify_existence,
    "bahr": verify_bahr,
    "scaling": verify_scaling,
    "decay": verify_decay,
    "spectrum-consistency": verify_spectrum_consistency,
}
