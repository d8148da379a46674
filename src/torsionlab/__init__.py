"""Metric-affine geometry engine and path-integral laboratory.

Charts (holonomic maps or raw triad fields) feed a point-local tensor
pipeline -- metric, connections, torsion, contortion, curvatures -- which in
turn drives classical trajectory integrators, crystal-defect loop
invariants, and sliced imaginary-time propagators with selectable path
measures.
"""

__version__ = "0.1.0"

from ._local import LocalGeometry
from .charts import BUILTIN_CHARTS, Chart, builtin_chart, load_chart, save_chart
from .config import ToleranceProfile, active_profile
from .connection import (
    affine_connection,
    christoffel,
    connection_bundle,
    connection_derivatives,
    contortion,
    covariant_derivative,
    identity_residuals,
    metricity_residual,
    torsion_tensor,
    torsion_trace,
)
from .curvature import (
    cartan_curvature,
    curvature_relation_check,
    geometry_point,
    ricci_scalar_einstein,
    riemann_curvature,
)
from .defects import (
    BurgersResult,
    DefectChart,
    LoopSpec,
    angle_gradient,
    burgers_vector,
    frank_angle,
    line_integral,
    make_disclination,
    make_dislocation,
    square_loop,
    torsion_flux,
    winding_integral,
)
from .dynamics import (
    Trajectory,
    VariationRun,
    closure_defect_by_quadrature,
    commutation_defect,
    integrate_autoparallel,
    integrate_geodesic,
    kinetic_energy,
    nonholonomic_variation,
    solve_variation_ode,
    straight_line_image,
    torsion_el_residual,
    variation_matrices,
)
from .errors import (
    DegenerateTriadError,
    DimensionMismatchError,
    EvaluationError,
    ExpressionParseError,
    GridMismatchError,
    GridTooCoarseError,
    MultipletMismatchError,
    NonFiniteError,
    NumericError,
    SamplingError,
    SingularPointError,
    TorsionLabError,
    ValidationError,
)
from .expressions import Expression
from .pathintegral import (
    Ring,
    ShortTimeConfig,
    SlicedPropagator,
    SpectrumLevels,
    SpectrumResult,
    Sphere,
    build_propagator,
    delta_jacobian,
    effective_potential,
    extract_spectrum,
    jacobian_action_naive,
    jacobian_action_qep,
    midpoint_action,
    postpoint_action,
    prepoint_action,
    richardson_order1,
    spectrum_ladder,
)
