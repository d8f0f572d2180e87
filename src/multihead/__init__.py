"""Multi-headed coherent-state superpositions.

Two families of states built from the N-th roots of one complex amplitude:
an equal-weight statistical mixture and an equal-weight coherent
superposition (the generalized cat states).  Closed-form statistics, Fock
matrix elements, Wigner functions and parity are provided alongside an
independent truncated Fock-space oracle that cross-validates every result.
"""

__version__ = "0.1.0"

from .closed_form import (
    MomentTable,
    QuadratureVariances,
    fock_element,
    mandel_q,
    mean_photon,
    moment,
    moment_table,
    normalization,
    parity,
    pnd,
    quadrature_variances,
    wigner,
    wigner_grid,
)
from .compare import ValidationReport, validate_spec
from .errors import (
    CapacityError,
    CutoffInsufficientError,
    InternalConsistencyError,
    InvalidInputError,
    MultiheadError,
    TruncationError,
    UndefinedStatisticError,
)
from .fockspace import (
    FockVector,
    build_coherent,
    build_state,
    choose_cutoff,
    oracle_moment,
    oracle_parity,
    oracle_wigner,
)
from .roots import PolarAmplitude, nth_roots, root_sum
from .states import Family, StateSpec
from .sweeps import Quantity, SweepTemplate, find_crossings, squeezing_window, sweep

__all__ = [
    "__version__",
    "PolarAmplitude",
    "nth_roots",
    "root_sum",
    "Family",
    "StateSpec",
    "MomentTable",
    "QuadratureVariances",
    "normalization",
    "moment",
    "moment_table",
    "mean_photon",
    "mandel_q",
    "quadrature_variances",
    "fock_element",
    "pnd",
    "wigner",
    "wigner_grid",
    "parity",
    "FockVector",
    "choose_cutoff",
    "build_coherent",
    "build_state",
    "oracle_moment",
    "oracle_wigner",
    "oracle_parity",
    "ValidationReport",
    "validate_spec",
    "Quantity",
    "SweepTemplate",
    "sweep",
    "find_crossings",
    "squeezing_window",
    "MultiheadError",
    "InvalidInputError",
    "UndefinedStatisticError",
    "InternalConsistencyError",
    "TruncationError",
    "CutoffInsufficientError",
    "CapacityError",
]
