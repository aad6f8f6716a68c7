"""Exact computation with knot group presentations of twisted torus knots.

The package builds Wirtinger presentations from a built-in three-component
surgery link, reduces them to two-generator knot group presentations, checks
the data against the non-left-orderability surgery criterion, and verifies
finite quotients with Todd-Coxeter coset enumeration.
"""

from .words import (
    Generator,
    SubstitutionError,
    Word,
    is_conjugate,
    is_positive_excluding,
    word,
)
from .presentations import (
    HomologySummary,
    LaurentPolynomial,
    Presentation,
    PresentationError,
    add_relators,
    alexander_polynomial,
    class_in_h1,
    homology,
    smith_normal_form,
    tietze_eliminate,
)
from .wirtinger import (
    Crossing,
    DiagramError,
    LinkDiagram,
    PeripheralSystem,
    add_twist_relations,
    builtin_link_L,
    diagram_from_json,
    diagram_to_json,
    peripheral_system,
    wirtinger_presentation,
)
from .twisted_torus import (
    KnotGroupModel,
    PipelineError,
    ProofCheck,
    ProofReport,
    SubstitutionChain,
    TwistParams,
    closed_form,
    derive_from_diagram,
    substitution_chain,
    verify_proof,
)
from .criterion import (
    CriterionError,
    CriterionReport,
    ITShape,
    Slope,
    Verdict,
    check_family_slope,
    decide,
    match_it_shape,
    minimal_integer_bound,
)
from .coset_enum import (
    DEFAULT_MAX_COSETS,
    EnumerationResult,
    surgered_presentation,
    todd_coxeter,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
