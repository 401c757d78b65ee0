"""Offset linear canonical transforms and Bessel-zero sampling in polar
coordinates: quadrature transforms, exactly bandlimited field synthesis,
and the zero-grid reconstruction series, with a verification harness."""

from .bessel import (
    BesselOrder,
    ZeroTable,
    bessel_j,
    bessel_j_prime,
    bessel_jn_chain,
    bessel_zero,
    bessel_zeros,
    lambda_sum,
    lambda_truncation,
    normalized_zero,
    normalized_zeros,
)
from .params import InverseParams, KernelParams, OffsetParams
from .transforms import (
    PolarGrid,
    QuadratureAccuracyError,
    SpectrumField,
    fourier_coefficients,
    hankel_transform,
    olct_forward,
    olct_inverse,
    olct_series,
    olct_via_ft,
    olcht_forward,
    olcht_inverse,
    parseval_residual,
    spectral_extent,
    spectral_grid,
)
from .synthesis import (
    FourierBesselSpectrum,
    PolarField,
    SynthesizedField,
    lommel_kernel,
    random_spectrum,
    sonine_profile,
    synthesize,
    synthesize_sonine,
)
from .sampling import (
    ReconstructionReport,
    SampleGrid,
    SampleSet,
    default_m_sum,
    reconstruct_field,
    reconstruct_isotropic,
    reconstruct_spectrum,
    sample_count,
    sample_field,
    stark_interpolate,
    stark_kernel,
    theta_kernel,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    emit_report,
    run_complexity_sweep,
    run_offset_investigation,
    run_reduction_suite,
)

__version__ = "0.1.0"
