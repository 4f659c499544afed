"""Line-search-free adaptive accelerated gradient method with rate certificates."""

from .diagnostics import (
    CERTIFICATE_KINDS,
    RateCertificate,
    certificate_kinds,
    certify,
    energy,
    format_certificates,
    initial_D,
    phi,
    rho,
    write_violations_csv,
)
from .problems import (
    SmoothProblem,
    load_matrix_csv,
    make_log_sum_exp,
    make_logistic,
    make_quadratic,
    make_symmetric_log_sum_exp,
)
from .schedule import (
    PROFILES,
    AlgoParams,
    NonConvexInputError,
    advance_step,
    default_params,
    floor_q,
    local_smoothness,
    next_t,
    validate_params,
)
from .solver import (
    DivergenceError,
    StopCriteria,
    Trace,
    TraceRecord,
    read_trace_csv,
    run_adaagm,
    run_gd,
    run_nesterov,
    write_trace_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
