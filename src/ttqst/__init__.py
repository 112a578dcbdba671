"""Quantum state tomography for matrix product operators via TT completion."""

__version__ = "0.1.0"

from .manifold import (  # noqa: F401
    ManifoldError,
    TangentGeometry,
    TangentVector,
    ksl_retract,
    retract,
    trimmed_retract,
)
from .measurement import (  # noqa: F401
    ExactSource,
    GaussianSource,
    MeasurementStream,
    ShotSource,
    make_stream,
)
from .mpo import (  # noqa: F401
    Mpo,
    MpoError,
    Mps,
    coeff_to_mpo,
    hermitian_decompose,
    is_hermitian_cores,
    make_basis,
    mpo_to_coeff,
    mps_to_mpo,
)
from .serialize import read_ttc1, read_ttr1, write_ttc1, write_ttr1  # noqa: F401
from .solvers import (  # noqa: F401
    InitConfig,
    InitError,
    NonFiniteError,
    RunTrace,
    SolverConfig,
    SolverError,
    StepError,
    orgd_run,
    rgd_offline_run,
    rsgd_run,
    spectral_init,
)
from .states import StateSpec, ghz, ising_ground, pure_state_coeff, random_mps  # noqa: F401
from .tt import (  # noqa: F401
    CoherenceReport,
    TtError,
    TtTensor,
    coherence_report,
    left_orthogonalize,
    tt_axpy,
    tt_dense,
    tt_distance,
    tt_inner,
    tt_norm,
    ttsvd,
)
