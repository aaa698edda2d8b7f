"""Twisted forms of split toric varieties over non-closed fields.

Exact-arithmetic toolkit: fans and their automorphism groups, class groups,
Galois cohomology of the associated tori, and classification reports for
forms of toric varieties over the reals, finite fields, and symbolic
relative-Brauer coefficient data.
"""

from .classify import (
    BUILTIN_NAMES,
    ClassificationReport,
    REAL_TOWER,
    ReportEntry,
    SURFACE_LABELS,
    builtin_fan,
    classify_fan,
    classify_projective,
    classify_surface_real,
    descent_status,
    evaluate,
    partition_cocharacter_matrix,
    partitions_dividing,
    render,
    surface_table,
)
from .cohomology import (
    brute_force_h1_finite,
    finite_field_torus_module,
    h1_cyclic_norm_formula,
    h1_real_involution,
    hom_class_h1,
    oracle_routes,
)
from .exact_linalg import FGAbelianGroup, IntMatrix, smith_normal_form
from .fan_aut import automorphism_group, identify_gl2_class, involution_type
from .fans import Fan, class_group, cox_data, is_complete, validate_fan
from .galois import (
    FiniteFieldBackend,
    GroupSpec,
    RealComplexBackend,
    SymbolicBrauerBackend,
    enumerate_hom_classes,
    norm_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "ClassificationReport",
    "Fan",
    "FGAbelianGroup",
    "FiniteFieldBackend",
    "GroupSpec",
    "IntMatrix",
    "REAL_TOWER",
    "RealComplexBackend",
    "ReportEntry",
    "SURFACE_LABELS",
    "SymbolicBrauerBackend",
    "automorphism_group",
    "brute_force_h1_finite",
    "builtin_fan",
    "class_group",
    "classify_fan",
    "classify_projective",
    "classify_surface_real",
    "cox_data",
    "descent_status",
    "enumerate_hom_classes",
    "evaluate",
    "finite_field_torus_module",
    "h1_cyclic_norm_formula",
    "h1_real_involution",
    "hom_class_h1",
    "identify_gl2_class",
    "involution_type",
    "is_complete",
    "norm_quotient",
    "oracle_routes",
    "partition_cocharacter_matrix",
    "partitions_dividing",
    "render",
    "smith_normal_form",
    "surface_table",
    "validate_fan",
    "__version__",
]
