"""Thin wrappers around QUADPACK with explicit failure reporting.

``scipy.integrate`` is imported by the first ``quad_checked`` call, not with
the package, so that only the quadrature routes pay its 0.25-0.6 s of start-up.
The import statement in the function costs under 1 us per call, against
about 1 ms of QUADPACK.
"""

from __future__ import annotations

import warnings

import numpy as np


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not converge; carries the achieved error."""

    def __init__(self, message: str, achieved_error: float):
        self.achieved_error = achieved_error
        super().__init__(f"{message} (achieved error {achieved_error:.3e})")


def quad_checked(f, a, b, *, epsabs=1e-11, epsrel=1e-11, points=None,
                 limit=400, weight=None, wvar=None) -> float:
    """scipy.integrate.quad with non-convergence surfaced as QuadratureError.

    Round-off reports are tolerated when the achieved absolute error is
    already below a loose multiple of the request; QUADPACK flags those even
    when the result is good.
    """
    from scipy.integrate import quad

    kwargs = dict(limit=limit, full_output=True)
    if weight is not None:
        kwargs.update(weight=weight, wvar=wvar, epsabs=epsabs)
    else:
        kwargs.update(epsabs=epsabs, epsrel=epsrel)
        if points is not None:
            kwargs["points"] = points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = quad(f, a, b, **kwargs)
    value, abserr = out[0], out[1]
    if len(out) >= 4:  # message present => ier != 0
        ok_anyway = abserr <= max(epsabs * 100.0, abs(value) * max(epsrel, 1e-10) * 100.0)
        if not ok_anyway:
            raise QuadratureError(str(out[3]), achieved_error=abserr)
    return value


def quad_complex(f, a, b, **kwargs) -> complex:
    """Complex-valued integrand via separate real and imaginary quadratures."""
    re = quad_checked(lambda x: np.real(f(x)), a, b, **kwargs)
    im = quad_checked(lambda x: np.imag(f(x)), a, b, **kwargs)
    return complex(re, im)
