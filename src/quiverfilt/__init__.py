"""Exact-arithmetic toolkit for quiver representations.

Finite acyclic quivers over the rationals or a prime field: Hom and Ext
computation, brick and semibrick certification, relative socle filtrations,
universal short exact sequences and their iterated towers, endomorphism
ring towers, and tame (Kronecker) defect diagnostics.  Everything is exact;
no floating point anywhere.
"""

from types import ModuleType as _ModuleType

from .bricks import (
    AlgebraPresentation,
    BrickReport,
    SemiBrickCert,
    SemiBrickRefusal,
    check_semibrick,
    end_algebra,
    is_brick,
)
from .errors import (
    BudgetError,
    FormatError,
    InapplicableError,
    InvariantError,
    ToolkitError,
    UndecidedError,
)
from .filtration import (
    Filtration,
    FiltrationResult,
    SemisimpleDecomposition,
    decompose_semisimple,
    filt_membership,
    verify_filtration,
    x_socle,
    x_socle_filtration,
)
from .formats import FORMAT_VERSION, load, parse, save, serialize
from .homext import (
    ExtCocycle,
    ExtSpace,
    ShortExactSequence,
    cocycle_of,
    connecting_map,
    ext_basis,
    extension_middle,
    hom_basis,
    is_split,
    pullback,
    pushout,
    ses_equivalence_witness,
    ses_equivalent,
)
from .linalg import GF, QQ, Field, Matrix
from .quivers import (
    Quiver,
    defect,
    euler_form,
    linear_quiver,
    radical_vector,
    representation_type,
    symmetrized_euler_matrix,
)
from .reps import (
    Morphism,
    Rep,
    SubrepInclusion,
    cokernel,
    compose,
    direct_sum,
    image,
    is_isomorphic,
    kernel,
    standard_module,
    subrep_from_spans,
)
from .tame import (
    PointOnLine,
    PreprojectiveTowerReport,
    kronecker,
    preprojective_tower_report,
    quasi_simple,
)
from .towers import (
    EndTower,
    Tower,
    dimension_budget,
    end_basis_of_ext,
    end_ring_tower,
    is_universal,
    tower,
    uniserial_check,
    universal_sequence,
)

__version__ = "1.0.0"

# Every public name imported above; submodules are bound here too and are left out.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
