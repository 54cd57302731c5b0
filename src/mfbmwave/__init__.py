"""Multivariate fractional Brownian motion: exact synthesis and wavelet second-order theory."""

__version__ = "0.1.0"

from .model import (
    MfbmwaveError,
    MfbmParams,
    InvalidParamsError,
    ParamsFormatError,
    ExistenceResult,
    kernel_w,
    cross_covariance,
    increment_cross_covariance,
    zeta,
    existence_matrix,
    check_existence,
    max_admissible_rho,
    params_to_text,
    params_from_text,
    load_params,
    save_params,
)
from .synth import (
    SamplePath,
    EmbeddingReport,
    build_embedding,
    embedding_report,
    derive_seed,
    simulate,
    iter_ensemble,
    replicate_ensemble,
)
from .wavelets import (
    HermiteWavelet,
    WaveletField,
    GridError,
    gaussian_derivative,
    cwt,
    cwt_ensemble,
)
from .wavstats import (
    WaveletCovQuery,
    ScaleLawResult,
    AsymptoticLaw,
    DegenerateAsymptoticsError,
    theoretical_wavelet_cov,
    wavelet_cov_quadrature,
    scale_law_constant,
    asymptotic_law,
    asymptotic_wavelet_cov,
)
from .spectral import (
    SpectrumGrid,
    RepresentationKernel,
    ZeroFrequencyLaw,
    CoherenceResult,
    ConsistencyReport,
    make_log_omega_grid,
    cross_spectral_density,
    zero_frequency_behavior,
    fit_zero_frequency_slope,
    coherence,
    representation_lhs,
    bahr_essen_batch,
    bahr_essen_eval,
    inverse_spectral_cov,
    spectral_vs_time_consistency,
)
from .estimate import (
    FitReport,
    EmpiricalCov,
    fit_power_law,
    empirical_wavelet_cov,
)
from .quadrature import QuadratureError
