"""Exact invariants of metrized graphs and semistable fiber configurations.

Core objects: MetrizedGraph / GraphPoint / RDivisor (graphs module), the
admissible measure and Green system (green module), closed-form composition
formulas (closedforms), fiber configurations (fibers), slope and Bogomolov
bound arithmetic (bounds), and a floating-point cross-check solver (oracle).
"""

from .bounds import (
    MAX_GENUS,
    FibrationStats,
    InequalityCheck,
    admissible_self_intersection,
    bogomolov_radius_sq,
    ch_xiao_check,
    noether_omega_sq,
    omega_sq_lower_sharp,
    omega_sq_lower_weak,
    radius_sq_closed_form,
    reference_radius_sq,
    slope_check,
    slope_sharp_rhs,
    total_e,
)
from .closedforms import (
    attach_circle_e,
    chain_e,
    chain_green_end,
    chain_recursion,
    join_e,
    join_green_diag,
    segment_invariants,
)
from .errors import (
    BadDelta,
    BadRational,
    ConstancyViolation,
    DanglingEndpoint,
    DegenerateDivisor,
    DegreeMinusTwo,
    Disconnected,
    EdgeNotFound,
    Error,
    GenusTooLarge,
    GenusTooSmall,
    InputError,
    NoBoundWarning,
    NodeNotFound,
    NonpositiveCoefficient,
    NonpositiveLength,
    NotAChain,
    ParseError,
    PointOffGraph,
    PreconditionError,
    RegimeUnspecified,
    SizeMismatch,
    UnknownComponent,
    UnknownVertex,
)
from .fibers import (
    Component,
    FiberConfiguration,
    FiberNode,
    FiberReport,
    NodeType,
    classify_node,
    configuration_graph,
    delta_vector,
    fiber_e,
    fiber_e_closed_form,
    fiber_genus,
    fiber_report,
    is_chain_of_stable_components,
    omega_divisor,
    unstable_components,
)
from .graphs import (
    Edge,
    GraphPoint,
    MetrizedGraph,
    RDivisor,
    as_point,
    circle_graph,
    one_point_sum,
    path_graph,
    scale_lengths,
    segment_graph,
    subdivide_at,
    theta_graph,
)
from .green import (
    AdmissibleMeasure,
    GreenSystem,
    admissible_measure,
    canonical_measure,
    constant_c,
    e_invariant,
    e_of_system,
    e_via_basepoint,
    green_eval,
    green_system,
)
from .oracle import (
    convergence_report,
    discretize,
    numeric_green,
    numeric_resistance,
    observed_orders,
)
from .resistance import effective_resistance, resistance_in_deleted_edge

__all__ = [name for name in dir() if not name.startswith("_")]
