"""gapspec: spectra, Fredholm determinants and eigenvalue expansions for the
sine, Airy and Bessel integrable kernels."""

from .specfun import backend_name
from .errors import (
    ArgumentError,
    DegeneracyError,
    DomainError,
    NumericalError,
    PoleError,
    PrecisionWarning,
)
from .kernels import (
    SINE,
    AIRY,
    Family,
    IntervalSpec,
    KernelSpec,
    airy_convolution,
    bessel_spec,
    kernel_eval,
)
from .operator import (
    Discretization,
    Quadrature,
    Spectrum,
    build_discretization,
    compute_spectrum,
    compute_spectrum_with_vectors,
    counting_prob,
    counting_ratio,
    d_ds_log_det,
    fredholm_det,
    gauss_legendre,
    log_fredholm_det,
    trace_norm,
)
from .asymptotics import (
    TransitionExpansion,
    airy_gap,
    airy_logderiv_asymp,
    bessel_gap,
    bessel_logderiv_asymp,
    chi_decompose,
    d_coeff,
    eig_law,
    p_of_chi,
    sigma_pm,
    sine_det_crit,
    sine_det_sub,
    stokes_chi,
    stokes_v,
    transition,
)
from .verify import (
    ScanResult,
    commuting_residual,
    convolution_check,
    det_ratio_scan,
    eig_ratio_scan,
    lidskii_split,
    logderiv_check,
    run_acceptance,
    stokes_crossing_scan,
)

__version__ = "0.1.0"
