"""sewkit: numerical sewing and knitting engines for approximate flows.

Given a local approximate flow on a family of metric spaces, the sewing
engine composes it over refining subdivisions into the unique nearby exact
flow, with certified constants and error bounds.  Over a metric parameter
space, the knitting engine verifies that holonomy along Lipschitz paths
depends only on the Lipschitz homotopy class, at a certified rate in the
net mesh.
"""
from .errors import (
    BoundViolation,
    ConfigError,
    DomainMismatch,
    EndpointMismatch,
    InadmissibleRegularity,
    InsufficientSamples,
    ModelDomainError,
    NonConvergence,
    NonFiniteValue,
    SewkitError,
    WrongMode,
)
from .flows import MODE_KNITTING, MODE_SEWING, ApproxFlowModel, HoelderData, Readout
from .knitting import (
    HomotopyNet,
    build_net,
    holonomy,
    knit_bound,
    knit_compare,
    pair_lipschitz,
    row_map,
)
from .metric import (
    MetricSpace,
    ProbedMap,
    circle_fiber,
    compose,
    compose_chain,
    identity_map,
    map_distance_value,
    plane_grid,
    real_line,
    rotation_map,
    translation_map,
)
from .models import (
    FlatConnection,
    make_additive,
    make_additive_sin,
    make_euler,
    make_euler_linear,
    make_euler_matrix,
    make_euler_sin,
    make_flat_connection,
    make_young,
)
from .paths import (
    LipPath,
    arc_path,
    circle_path,
    concat_reverse_order,
    constant_path,
    ellipse_arc_path,
    groupoid_axiom_check,
    path_from_csv,
    path_to_csv,
    pl_thin_reduce,
    polyline,
    pullback_flow,
    reparametrize,
    reverse_path,
    segment_path,
    square_loop,
    subpath,
)
from .sewing import (
    SewCertificate,
    SewLevel,
    chain_distances,
    compose_along,
    constant_K,
    corollary_bound,
    four_point_defect,
    inverse_defect,
    inverse_defect_bound,
    refinement_bound,
    sew,
    within_bound,
    zeta,
)
from .subdivision import (
    Subdivision,
    dyadic_refine,
    joint,
    mesh,
    regular,
)
from .certify import (
    FitReport,
    FitSample,
    fit_strong_four_point,
    fit_three_point,
    interval_four_point_samples,
    interval_three_point_samples,
    annulus_four_point_samples,
    annulus_three_point_samples,
)

__version__ = "0.1.0"
