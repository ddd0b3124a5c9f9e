"""Exact diagram algebra for finite-type knot invariants.

Chord and trivalent diagrams on an oriented circle, STU/IHX relations
and canonical bases over exact rationals, su(N) weight systems, knot
polynomials (Kauffman bracket / Jones, two-variable skein), exact
truncated power series, and the extraction of primitive geometric
factors from knot polynomials via exponential factorization.

All arithmetic is exact; every reported value is an identity, not an
approximation.  All public types are immutable values.
"""

from .diagrams import (
    EMPTY,
    Component,
    DecompositionReport,
    Diagram,
    DiagramSum,
    SignedDiagram,
    canonical_key,
    canonicalize,
    chord_diagram,
    chord_diagrams,
    connected_diagrams,
    decompose,
    degree,
    has_isolated_chord,
    one_vertex_diagrams,
    parse,
    product,
    random_diagram,
    serialize,
)
from .relations import (
    QuotientSpace,
    RelationSet,
    dimension,
    four_t_relations,
    ihx,
    internal_edges,
    quotient_space,
    reduce_to_chords,
    stu,
)
from .basis import (
    BasisChangeMatrix,
    BasisChangeReport,
    BasisElement,
    CanonicalBasis,
    Coordinates,
    canonical_basis,
    cached_basis,
    coordinates,
    divides,
    is_valid_sum,
    load_basis,
    save_basis,
    shared_basis,
    transform_alphas,
    validate_basis_change,
)
from .weights import (
    DEFAULT_CONFIG,
    WeightConfig,
    check_multiplicativity,
    weight_product_group,
    weight_sun,
    weight_sun_at,
    weight_sun_deframed,
    weight_sun_deframed_at,
)
from .series import (
    RationalSeries,
    exp_series,
    log_series,
    substitute_exponential,
)
from .laurent import Laurent1, Laurent2
from .knots import (
    BraidWord,
    BudgetExceededError,
    PlanarDiagram,
    braid_closure,
    connected_sum,
    determinant,
    homfly,
    jones,
    kauffman_bracket,
    parse_pd,
    pd_to_text,
    rational_knot,
    sun_slice,
)
from .knot_table import knot, knot_names
from .factorization import (
    FRAMING_LABEL,
    CompositeIdentity,
    ExtractionResult,
    FactorizationReport,
    LogExpansion,
    ResummationIdentity,
    derive_composite_identities,
    extract_alphas,
    knot_log_expansion,
    knot_series,
    log_invariant,
    reextract_under_change,
    resum_family,
    verify_factorization,
)

import sys

from . import diagrams, knots

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache of the package; values are recomputed on demand.

    Clears each `functools.cache` that a loaded submodule defines, and the
    two dict caches: `diagrams._CANON_CACHE` (seeded by enumeration) and
    `knots._HOMFLY_MEMO` (keyed by a skein state's walk code; it is not
    minimized, so one diagram under other crossing ids may take two
    entries).
    """
    diagrams._CANON_CACHE.clear()
    knots._HOMFLY_MEMO.clear()
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and obj.__module__ == name:
                    obj.cache_clear()
