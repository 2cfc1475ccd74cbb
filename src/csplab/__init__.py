"""csplab: exact q-analogue arithmetic, combinatorial group actions, and
mechanical verification of root-of-unity fixed-point counts."""

from .errors import (
    CapExceeded,
    CspLabError,
    InexactDivision,
    NegativeExponent,
    NonCommutingActions,
    NonIntegerEvaluation,
    NotNearlyFree,
    PreconditionError,
    UnknownFamily,
)
from .qpoly import (
    BivariatePolynomial,
    IntPolynomial,
    cyclotomic,
    eulerian_poly,
    eval_at_root,
    exact_divide,
    face_poly,
    fold_mod_qn,
    gaussian_binomial,
    plethysm_e,
    plethysm_h,
    q_catalan,
    q_factorial,
    q_fuss_catalan_A,
    q_int,
    q_proper_triangulations,
    q_ratio,
    subst_t_q_inverse,
)
from .sieve import (
    CSPInstance,
    CSPReport,
    CyclicAction,
    Orbit,
    action_from_objects,
    berget_eu_reiner_toy,
    build_report,
    corrupt_polynomial,
    fixed_count,
    list_families,
    orbit_decompose,
    registry_instantiate,
    verify_bicsp,
    verify_csp_orbits,
    verify_csp_roots,
)

__version__ = "0.1.0"
