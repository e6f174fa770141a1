"""Exact counting of regular semisimple conjugacy classes in finite classical groups.

Three independent routes — closed-form formulas, generating-function coefficient
extraction, and brute-force enumeration over characteristic polynomials — with
cross-verification, plus censuses of the irreducible-polynomial families that
drive the generating functions.
"""

from .census import (
    CensusCount,
    CensusKind,
    EnumerationBoundError,
    census_count,
    enumeration_cap,
    hermitian_pairs,
    hermitian_self_reciprocal_irreducibles,
    irreducibles,
    reciprocal_pairs,
    self_reciprocal_irreducibles,
)
from .closedform import Family, GroupSpec, rs_count, rs_symbolic
from .conjugation import (
    CharacterIndex,
    det_discrete_log,
    hermitian_reciprocal,
    is_hermitian_self_reciprocal,
    is_self_reciprocal,
    reciprocal,
    type_sign,
    unitary_circle_generator,
    unitary_det_discrete_log,
)
from .fields import (
    GF,
    Poly,
    ff_from_order,
    ff_generator,
    ff_make,
    frobenius,
    is_irreducible,
    is_squarefree,
    multiplicative_order,
    subfield_codes,
)
from .genfun import (
    Identity,
    VerificationReport,
    admissible_parity,
    gf_count,
    verify_identity,
)
from .oracle import (
    OracleResult,
    oracle_constant_histogram,
    oracle_count,
    oracle_unitary_histogram,
)
from .series import QPoly

__all__ = [
    "CensusCount",
    "CensusKind",
    "CharacterIndex",
    "EnumerationBoundError",
    "Family",
    "GF",
    "GroupSpec",
    "Identity",
    "OracleResult",
    "Poly",
    "QPoly",
    "VerificationReport",
    "admissible_parity",
    "census_count",
    "det_discrete_log",
    "enumeration_cap",
    "ff_from_order",
    "ff_generator",
    "ff_make",
    "frobenius",
    "gf_count",
    "hermitian_pairs",
    "hermitian_reciprocal",
    "hermitian_self_reciprocal_irreducibles",
    "irreducibles",
    "is_hermitian_self_reciprocal",
    "is_irreducible",
    "is_self_reciprocal",
    "is_squarefree",
    "multiplicative_order",
    "oracle_constant_histogram",
    "oracle_count",
    "oracle_unitary_histogram",
    "reciprocal",
    "reciprocal_pairs",
    "rs_count",
    "rs_symbolic",
    "self_reciprocal_irreducibles",
    "subfield_codes",
    "type_sign",
    "unitary_circle_generator",
    "unitary_det_discrete_log",
    "verify_identity",
]

__version__ = "0.1.0"
