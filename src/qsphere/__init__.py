"""qsphere: symbolic and numeric toolkit for two q-deformed sphere *-algebras.

The package normalizes algebra elements against oriented rewrite rules,
constructs the truncated irreducible representations of the quotient
algebra, and machine-checks the identities both layers are built on.
"""

from .algebra import (
    Element,
    Generator,
    Presentation,
    PresentationError,
    RewriteFuelError,
    Word,
    normalize,
    presentation_S,
    presentation_Sigma,
    quotient_map,
    star,
    x,
    y,
)
from .expr import ExprSyntaxError, SourceSpan, parse, print_canonical
from .rep import (
    RepConfig,
    SparseMatrix,
    apply_element,
    basis_state,
    matrix,
    matrix_json,
    yn1_spectrum,
)
from .scalar import (
    DomainError,
    LaurentPoly,
    RadicalScalar,
    cyclotomic,
    qpochhammer,
    radical_canonicalize,
)
from .verify import (
    CheckReport,
    check_confluence,
    check_kernel_structure,
    check_lemma_aux,
    check_lemma_main,
    check_lowest_weight_basis,
    check_relations_in_rep,
    check_symbolic_relations,
    run_suite,
)

__version__ = "0.1.0"
