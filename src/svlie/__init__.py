"""Exact symbolic engine for the twisted Schrodinger-Virasoro Lie algebra.

Scalars are Gaussian rationals, elements are finite linear combinations of
the basis {L[n], Y[n], M[n], C}, and every operation (brackets, derivation
rules, automorphisms, classification oracles) is computed in closed form
with equality checked exactly.
"""

from .algebra import (
    BasisVector,
    C,
    Element,
    L,
    M,
    Window,
    Y,
    ZERO_ELEMENT,
    bracket,
    bracket_basis,
    centralizer_window,
    exp_ad,
    format_element,
    jacobi_residual,
    single,
)
from .autgroup import (
    AutomorphismParams,
    FactorizationError,
    automorphism_window_map,
    compose,
    compose_oracle,
    factorize,
    identity,
    invert,
)
from .derivations import (
    ClassifiedDerivation,
    DerivationError,
    WindowMap,
    apply_classified,
    classified_window_map,
    classify_degree0,
    decompose,
    equivariant_hom_nullity,
    is_automorphism_window,
    leibniz_check,
    outer_independence_kernel,
)
from .expr import params_from_json, params_to_json, parse_basis_vector, parse_element
from .scalar import (
    I,
    LinearSystem,
    ONE,
    ParseError,
    Scalar,
    ZERO,
    format_scalar,
    nullspace,
    parse_scalar,
)
from .autgroup import apply as apply_automorphism

__version__ = "0.1.0"
