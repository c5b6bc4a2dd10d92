"""Structure-theoretic decompositions of real matrix groups and Lie algebras.

Exact-rational and tolerance-controlled float computation of element
classifications, elliptic/hyperbolic/unipotent decompositions, exp/log on
their bijective loci, trace-form reductivity tests, unipotent radicals and
reductive complements, flags and triangularizations, Cartan and Iwasawa
factorizations, restricted root systems, and replica subgroups.
"""

from .cartan_iwasawa import (
    CartanSplit,
    KANTriple,
    RootDatum,
    cartan_split,
    iwasawa_kan,
    maximal_abelian,
    nilpotent_part_n,
    polar_kak,
    restricted_roots,
)
from .errors import NashkitError
from .explog import (
    exp_hyperbolic,
    exp_nilpotent,
    log_exponential,
    log_hyperbolic,
    log_unipotent,
    matrix_exp,
)
from .jordan import (
    ADDITIVE,
    ALGEBRA,
    GROUP,
    MULTIPLICATIVE,
    ElementClass,
    JordanTriple,
    abelian_ehu_split,
    additive_jordan,
    classify,
    multiplicative_jordan,
    sn_split,
)
from .liealg import (
    ADJOINT,
    DERIVED,
    LOWER_CENTRAL,
    NATURAL,
    LeviDecomp,
    LieAlgebraData,
    TraceFormGram,
    algebra_from_basis,
    is_nilpotent,
    is_reductive,
    is_semisimple_element,
    is_solvable,
    levi_complement,
    lie_closure,
    radical,
    series,
    trace_form,
    unipotent_radical,
)
from .matrix_core import (
    APPROX,
    EXACT,
    Matrix,
    Spectrum,
    char_poly,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    spectrum,
)
from .polynomial import Polynomial, squarefree_part
from .replica import (
    ReplicaDatum,
    exponent_lattice,
    hom_space_dimension,
    replica,
    replica_hyperbolic,
    replica_unipotent,
)
from .triangularize import Flag, common_eigenvector, engel_flag, split_triangularize

__version__ = "0.1.0"

__all__ = [
    "APPROX", "EXACT", "Matrix", "Polynomial", "Spectrum",
    "char_poly", "squarefree_part", "nullspace", "spectrum",
    "matrix_to_json", "matrix_from_json",
    "GROUP", "ALGEBRA", "MULTIPLICATIVE", "ADDITIVE",
    "ElementClass", "JordanTriple", "sn_split", "additive_jordan",
    "multiplicative_jordan", "classify", "abelian_ehu_split",
    "exp_nilpotent", "log_unipotent", "exp_hyperbolic", "log_hyperbolic",
    "log_exponential", "matrix_exp",
    "NATURAL", "ADJOINT", "DERIVED", "LOWER_CENTRAL",
    "LieAlgebraData", "TraceFormGram", "LeviDecomp",
    "algebra_from_basis", "lie_closure", "series", "is_solvable", "is_nilpotent",
    "radical", "trace_form", "is_reductive", "unipotent_radical",
    "levi_complement", "is_semisimple_element",
    "Flag", "engel_flag", "split_triangularize", "common_eigenvector",
    "CartanSplit", "RootDatum", "KANTriple",
    "cartan_split", "maximal_abelian", "restricted_roots", "nilpotent_part_n",
    "polar_kak", "iwasawa_kan",
    "ReplicaDatum", "exponent_lattice", "hom_space_dimension",
    "replica", "replica_hyperbolic", "replica_unipotent",
    "NashkitError",
]
