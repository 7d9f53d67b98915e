"""Free additive convolution by subordination, single-ring spectral
densities, and Monte Carlo verification of their bulk local laws."""

__version__ = "0.1.0"

from . import freeconv, linalg, locallaw, measure, models, ringlaw  # noqa: F401
from .freeconv import (  # noqa: F401
    CertificateReport,
    ConvergenceError,
    SubordinationState,
    boundary_density,
    bulk_bound_certificate,
    solve_delta_conv,
    solve_phi_system,
)
from .measure import (  # noqa: F401
    DiscreteMeasure,
    RingGeometry,
    nevanlinna_rep,
    radii,
    reference_measure,
    stieltjes,
    symmetrize,
)
