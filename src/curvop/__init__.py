"""Numerical toolkit for algebraic curvature operators of the second kind.

Assembles and diagonalizes the curvature operator on traceless symmetric
2-tensors, grades its eigenvalue positivity, minimizes isotropic
curvature over orthonormal 4-frames, and stress-tests the implications
between those conditions on random and closed-form model tensors.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    BianchiViolation,
    CurvopError,
    DimensionMismatch,
    DimensionTooSmall,
    FrameNotOrthonormal,
    IndexOutOfRange,
    IoFailure,
    NoConvergence,
    NotSymmetric,
    ParameterOutOfRange,
    ParseError,
    SymmetryConflict,
    ValidationFailure,
)
from .tensor import (
    SIGN_CONVENTION,
    CurvatureTensor,
    bianchi_project,
    from_dict,
    load_tensor,
    new_from_components,
    ricci,
    save_tensor,
    to_dict,
    write_json_atomic,
)
from .secondkind import (
    ALPHA_ALWAYS,
    ALPHA_UNATTAINABLE,
    PredicateSpec,
    Spectrum,
    alpha_star,
    eigen_sym,
    k_alpha_positive,
    k_alpha_value,
    lambda2_basis,
    lambda2_dim,
    named_conditions,
    parse_predicate,
    positivity_profile,
    s20_basis,
    s20_dim,
    second_kind_matrix,
)
from .conditions import (
    FrameSearchResult,
    check_frame,
    IdentityReport,
    isotropic_value,
    min_isotropic,
    pullback,
    random_frame,
    ricci_min,
    second_kind_spectrum,
    verify_pic_identities,
    verify_ric_identities,
)
from .models import (
    ModelSpec,
    build_model,
    complex_space_form,
    constant_curvature,
    cp2_explicit,
    flat,
    interpolate,
    parse_model,
    product,
    random_curvature,
    shift,
)
from .harness import (
    Counterexample,
    ProbeReport,
    TrialReport,
    boost_to_hypothesis,
    emit_report,
    implication_trial,
    replay_counterexample,
    sharpness_probe,
)

# the import blocks above are the one list; the submodules they bind stay out
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
