"""Property test: the closed-form covariance against the quadrature route."""

import pytest

from mfbmwave.model import MfbmParams
from mfbmwave.verify import XCHECK_ABS, XCHECK_REL
from mfbmwave.wavelets import HermiteWavelet
from mfbmwave.wavstats import (
    WaveletCovQuery,
    theoretical_wavelet_cov,
    wavelet_cov_quadrature,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

WAVELETS = (((1.0, 1),), ((1.0, 2),), ((1.0, 3),), ((1.0, 1), (0.5j, 2)))


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True)
@hypothesis.given(
    h1=st.floats(0.05, 0.95),
    h2=st.floats(0.05, 0.95),
    log_branch=st.booleans(),
    rho=st.floats(-1.0, 1.0),
    eta=st.floats(-1.0, 1.0),
    a1=st.floats(0.5, 4.0),
    a2=st.floats(0.5, 4.0),
    lag=st.floats(-3.0, 3.0),
    terms=st.sampled_from(WAVELETS),
)
def test_closed_form_matches_quadrature_near_field(h1, h2, log_branch, rho, eta,
                                                   a1, a2, lag, terms):
    if log_branch:
        h2 = 1.0 - h1
    params = MfbmParams.bivariate(h1, h2, rho=rho, eta=eta)
    query = WaveletCovQuery(0, 1, a1, a2, lag * (a1 + a2))
    wavelet = HermiteWavelet(terms)
    closed = theoretical_wavelet_cov(query, params, wavelet)
    quad = wavelet_cov_quadrature(query, params, wavelet)
    assert abs(closed - quad) <= XCHECK_ABS + XCHECK_REL * abs(closed)
