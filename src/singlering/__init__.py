"""Free additive convolution by subordination, single-ring spectral
densities, and Monte Carlo verification of their bulk local laws."""

__version__ = "0.1.0"

from . import freeconv, linalg, locallaw, measure, models, ringlaw  # noqa: F401
