"""The package's public surface: adding or removing a name is a deliberate edit here."""

import curvop

PUBLIC_NAMES = [
    "ALPHA_ALWAYS", "ALPHA_UNATTAINABLE", "BianchiViolation", "Counterexample",
    "CurvatureTensor", "CurvopError", "DimensionMismatch", "DimensionTooSmall",
    "FrameNotOrthonormal", "FrameSearchResult", "IdentityReport", "IndexOutOfRange",
    "IoFailure", "ModelSpec", "NoConvergence", "NotSymmetric", "ParameterOutOfRange",
    "ParseError", "PredicateSpec", "ProbeReport",
    "SIGN_CONVENTION", "Spectrum", "SymmetryConflict", "TrialReport",
    "ValidationFailure", "alpha_star", "bianchi_project", "boost_to_hypothesis",
    "build_model", "check_frame", "complex_space_form", "constant_curvature",
    "cp2_explicit", "eigen_sym", "emit_report", "flat",
    "from_dict", "implication_trial", "interpolate", "isotropic_value",
    "k_alpha_positive", "k_alpha_value", "lambda2_basis", "lambda2_dim", "load_tensor",
    "min_isotropic", "named_conditions", "new_from_components", "parse_model",
    "parse_predicate", "positivity_profile", "product", "pullback",
    "random_curvature", "random_frame", "replay_counterexample", "ricci",
    "ricci_min", "s20_basis", "s20_dim", "save_tensor", "second_kind_matrix",
    "second_kind_spectrum", "sharpness_probe", "shift", "to_dict",
    "verify_pic_identities", "verify_ric_identities", "write_json_atomic",
]


def test_public_names_are_pinned():
    assert sorted(curvop.__all__) == PUBLIC_NAMES


def test_submodules_stay_attributes_but_not_exports():
    for name in ("conditions", "errors", "harness", "models", "secondkind", "tensor"):
        assert hasattr(curvop, name) and name not in curvop.__all__
