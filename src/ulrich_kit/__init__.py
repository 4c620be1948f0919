"""Exact-arithmetic toolkit for twisted-vanishing (Ulrich) sheaves and
objects on small model varieties.

Everything runs on exact rationals: cohomology tables from closed-form
counting rules, numerical Chern data, derived-category bookkeeping for
formal complexes, K-lattice rank gates, and divisorial stability
charges on surfaces.
"""

from ._version import __version__
from .bridgeland import (
    INFINITE,
    ChargeValue,
    HeartVerdict,
    ScanRow,
    central_charge,
    heart_gate,
    question_scan,
    slope,
    torsion_classify,
    ulrich_charge_closed_form,
)
from .chern import (
    NumClass,
    chern_admissible,
    class_of,
    euler_char,
    twist_class,
    ulrich_chern_solve,
)
from .cohomology import sheaf_column, sheaf_table
from .complexes import (
    FormalComplex,
    GlueWitness,
    HyperTableResult,
    PushforwardReport,
    TriangleVerdict,
    direct_sum_complexes,
    external_product,
    formal_complex,
    hyper_table,
    pushforward_finite,
    restrict_hyperplane,
    shift,
    triangle_2of3,
)
from .errors import UlrichKitError
from .generators import (
    Collection,
    EllipticWitness,
    GateResult,
    K0Class,
    MembershipVerdict,
    beilinson_collection,
    elliptic_witness,
    generator_gate,
    k0_class,
    kapranov_collection,
    lattice_rank,
    orthogonal_membership,
    register_collection,
)
from .rational import format_rational, parse_rational
from .sheaves import (
    AbstractSheaf,
    DirectSum,
    ExternalTensor,
    LineBundle,
    SemistableEC,
    Spinor,
    direct_sum,
    format_sheaf,
    line_bundle,
    parse_sheaf,
    tensor_line,
    validate_descriptor,
)
from .tables import CohomologyTable
from .ulrich import (
    Criterion,
    UlrichVerdict,
    abstract_ulrich_sheaf,
    ext_dimension,
    is_initialized,
    is_ulrich_object,
    is_ulrich_sheaf,
    pn_decompose,
    quadric_decompose,
    yoneda_build,
)
from .variety import (
    VarietyModel,
    default_window,
    elliptic_curve,
    format_variety,
    hyperplane_model,
    invariants,
    parse_variety,
    product_proj,
    proj_space,
    quadric,
    rank1_surface,
)

__all__ = [name for name in dir() if not name.startswith("_")]
