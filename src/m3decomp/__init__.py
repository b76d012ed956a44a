"""Exact verification of the unital direct-sum decompositions of the 3x3
matrix algebra: catalog, symbolic verifier, orbit invariants, finite-field
search oracle, and the induced splitting operators."""

from .catalog import (
    COMPLEMENTS,
    LEMMA5_SUBALGEBRAS,
    CatalogEntry,
    ComplementDef,
    builtin_catalog,
    entry_by_id,
    load_catalog,
    save_catalog,
)
from .errors import M3DecompError
from .invariants import Fingerprint, classify_2dim, fingerprint, idempotents, radical
from .linalg import echelonize, ff_inverse
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
from .matrices import Mat3, Subspace, is_direct_sum, span
from .patterns import PATTERNS, PivotPattern, get_pattern
from .rota_baxter import RBOperator, check_rb_identity, rb_for_entry, splitting_rb
from .scalars import (
    ConstraintSet,
    MultiPoly,
    PolynomialRing,
    constraint_satisfied,
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
    verify_entry,
    verify_remarks,
)

__version__ = "0.1.0"
