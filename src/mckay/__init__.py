"""Exact verification of the multiplicative two-dimensional McKay correspondence.

The package builds, for every finite subgroup of SL2 of ADE type, the local
ring of the minimal resolution of the quotient singularity and the invariant
orbifold (Chen-Ruan) ring of the quotient stack, constructs the square-root
weighted character matrix between their degree-one parts, and machine-checks
in exact cyclotomic arithmetic that this matrix is a multiplicative,
pairing-preserving isomorphism -- locally per group and globally on synthetic
surface models with several singular points.
"""

from .cyclo import (
    CycNum,
    integer_sqrt_embed,
    rational,
    zeta,
)
from .groups import (
    ConjugacyStructure,
    FiniteGroup,
    GroupValidationError,
    alternating_group,
    build_binary_polyhedral,
    cyclic_group,
    dihedral_group,
    group_from_cayley,
    group_from_generators,
    symmetric_group,
)
from .chartab import (
    CharacterTable,
    CharacterTableError,
    McKayGraph,
    NotAffineADEError,
    character_table,
    class_multiplication_tensor,
    classify_affine_ade,
    mckay_graph,
    tensor_multiplicity,
)
from .algebra import GradedAlgebra
from .orbifold import (
    ObstructionEntry,
    age,
    invariant_subalgebra,
    local_orbifold_algebra,
    obstruction_class,
)
from .resolution import gram_matrix, local_resolution_algebra
from .correspondence import (
    CheckResult,
    CorrespondenceMap,
    VerificationReport,
    branch_sqrt,
    char_minor_determinant,
    phi_local,
    verify_correspondence,
    verify_local,
)
from .surface import (
    SurfaceConfigError,
    SurfaceModel,
    assemble_global,
    load_surface,
    parse_surface,
    verify_global,
)

__version__ = "0.1.0"

__all__ = [
    "CycNum",
    "zeta",
    "rational",
    "integer_sqrt_embed",
    "FiniteGroup",
    "ConjugacyStructure",
    "GroupValidationError",
    "build_binary_polyhedral",
    "group_from_cayley",
    "group_from_generators",
    "cyclic_group",
    "dihedral_group",
    "symmetric_group",
    "alternating_group",
    "CharacterTable",
    "CharacterTableError",
    "McKayGraph",
    "NotAffineADEError",
    "character_table",
    "class_multiplication_tensor",
    "tensor_multiplicity",
    "mckay_graph",
    "classify_affine_ade",
    "GradedAlgebra",
    "ObstructionEntry",
    "age",
    "obstruction_class",
    "local_orbifold_algebra",
    "invariant_subalgebra",
    "local_resolution_algebra",
    "gram_matrix",
    "CorrespondenceMap",
    "VerificationReport",
    "CheckResult",
    "branch_sqrt",
    "phi_local",
    "verify_local",
    "verify_correspondence",
    "char_minor_determinant",
    "SurfaceModel",
    "SurfaceConfigError",
    "parse_surface",
    "load_surface",
    "assemble_global",
    "verify_global",
    "__version__",
]
