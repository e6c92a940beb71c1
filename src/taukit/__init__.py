"""Exact computations with tau_2-tilting modules, torsion pairs and
2-cluster-tilting subcategories over bound quiver algebras."""

from .algebra import (
    Algebra,
    NotAdmissibleError,
    QuiverSpec,
    SpecError,
    UnsupportedQuotientError,
    build_algebra,
    opposite,
    parse_algebra,
    parse_spec,
    quotient_by_idempotent,
    quotient_by_monomial_ideal,
    serialize_spec,
)
from .arknit import (
    BudgetExceededError,
    IndecIndex,
    KnitIncompleteError,
    LimitExceededError,
    ar_quiver_dot,
    brute_force_indecomposables,
    knit_indecomposables,
)
from .exactlin import Mat, PrimeField, kernel_basis, rank, rref, solve
from .highercat import (
    ExactSeq,
    FailedResolutionError,
    NotTwoExactError,
    Subcat,
    c_resolution,
    d_pullback,
    glue_two_resolutions,
    is_d_cluster_tilting,
)
from .modcat import (
    ModMap,
    Module,
    annihilator_basis,
    annihilator_is_zero,
    annihilator_vertices,
    cosyzygy,
    costable_hom_dim,
    decompose,
    direct_sum,
    dual,
    ext_dim,
    global_dimension,
    hom_basis,
    hom_dim,
    injective,
    injective_envelope,
    is_isomorphic,
    map_parts,
    proj_dim,
    projective,
    projective_cover,
    reject_into,
    simple,
    stable_hom_dim,
    syzygy,
    tau,
    tau_d,
    tau_d_inv,
    tau_inv,
    trace_from,
    transpose,
    zero_module,
)
from .tautilt import (
    CorrespondenceReport,
    add_coresolution,
    annihilator_quotient,
    ext_projective_generator,
    fac_cap_C,
    is_2_tilting,
    is_support_tau2_tilting,
    verify_theorem1,
)
from .torsion import (
    TorsPair2FF,
    canonical_sequence,
    enumerate_2ff_torsion_pairs,
    is_2_finite,
    is_torsion_pair_2ff,
    pushout_lift_check,
)

__version__ = "0.1.0"
