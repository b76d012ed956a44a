"""Exact verification of the unital direct-sum decompositions of the 3x3
matrix algebra: catalog, symbolic verifier, orbit invariants, finite-field
search oracle, and the induced splitting operators."""

from .catalog import (
    COMPLEMENTS,
    D_TEMPLATES,
    LEMMA5_SUBALGEBRAS,
    CatalogEntry,
    ComplementDef,
    builtin_catalog,
    catalog_io,
    entry_by_id,
    load_catalog,
    save_catalog,
    specialize,
)
from .errors import M3DecompError
from .invariants import Fingerprint, classify_2dim, fingerprint, idempotents, radical
from .linalg import ff_inverse, ff_rank
from .maps import (
    AlgebraMap,
    apply_map,
    conjugation,
    is_algebra_map,
    phi_map,
    psi_map,
    theta,
    transpose_map,
)
from .matrices import (
    Mat3,
    Subspace,
    contains,
    contains_identity,
    is_direct_sum,
    is_subalgebra,
    mat_mul,
    span,
)
from .patterns import PATTERNS, PivotPattern, get_pattern
from .rota_baxter import RBOperator, check_rb_identity, rb_for_entry, splitting_rb
from .scalars import (
    ConstraintSet,
    MultiPoly,
    PolynomialRing,
    QQ,
    constraint_satisfied,
    poly_eval,
)
from .search import (
    coverage_report,
    enumerate_complements_fp,
    orbit_partition_fp,
    t4_t6_separation,
)
from .verifier import (
    VerifyReport,
    compare_with_reference_system,
    derive_closure_system,
    verify_catalog,
    verify_entry,
    verify_remarks,
)

__version__ = "0.1.0"
