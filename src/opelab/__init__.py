"""opelab: orthogonal polynomial ensembles — exact sampling, linear
statistics, concentration bounds, and bulk-asymptotics diagnostics."""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DomainError,
    InstabilityError,
    NumericalError,
    OpelabError,
    PreconditionError,
    SamplingStallError,
)
from .measures import Measure, RecurrenceCoefficients, chebyshev, jacobi, legendre, varying_gaussian
from .kernel import CDKernel, kernel_cd, kernel_matrix, kernel_sum, kernel_tilde, scaled_kernel
from .linstat import (
    ScaledStatistic,
    TestFunction,
    eval_scaled_statistic,
    eval_statistic,
    exact_mean,
    exact_scaled_variance,
    exact_variance,
    log_mgf,
    mgf,
)
from .sampler import (
    RngStream,
    SampleConfiguration,
    sample_matrix_model,
    sample_ope,
)
from .bounds import BoundReport, ConstantA, constant_A
from .asymptotics import DecayDiagnostic, EquilibriumDensity, sine_kernel
