"""The package's public names: ``from quiverfilt import *`` exports exactly these."""

import types

import quiverfilt

# Recorded from the hand-written ``__all__`` that listed every name by hand.
EXPORTED = [
    "AlgebraPresentation",
    "BrickReport",
    "BudgetError",
    "EndTower",
    "ExtCocycle",
    "ExtSpace",
    "FORMAT_VERSION",
    "Field",
    "Filtration",
    "FiltrationResult",
    "FormatError",
    "GF",
    "InapplicableError",
    "InvariantError",
    "Matrix",
    "Morphism",
    "PointOnLine",
    "PreprojectiveTowerReport",
    "QQ",
    "Quiver",
    "Rep",
    "SemiBrickCert",
    "SemiBrickRefusal",
    "SemisimpleDecomposition",
    "ShortExactSequence",
    "SubrepInclusion",
    "ToolkitError",
    "Tower",
    "UndecidedError",
    "check_semibrick",
    "cocycle_of",
    "cokernel",
    "compose",
    "connecting_map",
    "decompose_semisimple",
    "defect",
    "dimension_budget",
    "direct_sum",
    "end_algebra",
    "end_basis_of_ext",
    "end_ring_tower",
    "euler_form",
    "ext_basis",
    "extension_middle",
    "filt_membership",
    "hom_basis",
    "image",
    "is_brick",
    "is_isomorphic",
    "is_split",
    "is_universal",
    "kernel",
    "kronecker",
    "linear_quiver",
    "load",
    "parse",
    "preprojective_tower_report",
    "pullback",
    "pushout",
    "quasi_simple",
    "radical_vector",
    "representation_type",
    "save",
    "serialize",
    "ses_equivalence_witness",
    "ses_equivalent",
    "standard_module",
    "subrep_from_spans",
    "symmetrized_euler_matrix",
    "tower",
    "uniserial_check",
    "universal_sequence",
    "verify_filtration",
    "x_socle",
    "x_socle_filtration",
]


def test_all_is_the_pinned_sorted_list():
    assert quiverfilt.__all__ == EXPORTED


def test_star_import_binds_exactly_the_exported_objects():
    namespace = {}
    exec("from quiverfilt import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == EXPORTED
    for name in EXPORTED:
        assert namespace[name] is getattr(quiverfilt, name)
        assert not isinstance(namespace[name], types.ModuleType)


def test_version_is_not_exported():
    assert quiverfilt.__version__ == "1.0.0"
    assert "__version__" not in quiverfilt.__all__
