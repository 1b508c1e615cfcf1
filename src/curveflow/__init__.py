"""curveflow: exact simulation of linear nonlocal curvature flows of
convex plane curves via support-function spectra."""

from .diagnostics import (
    InequalityReport,
    build_report,
    convergence_residual,
    gage,
    go1,
    go2,
    ipd_decay_ratio,
    ipr_monotone,
    isoperimetric,
    reports_to_csv,
)
from .flows import (
    Constant,
    FlowState,
    HDomainError,
    LinTsai,
    MaCheng,
    NonlocalTerm,
    PanYang,
    PowerSum,
    area_along_flow,
    evaluate_h,
    flow_state,
    format_flow_term,
    length_rate,
    parse_flow_term,
)
from .heat import known_scalars, propagate
from .integrate import (
    AreaVanishesCurvatureBlowup,
    ConvergesToCircle,
    CurvatureSingularity,
    IntegratorControls,
    LengthBlowupRescaledCircle,
    LengthVanishesSingularityForced,
    Outcome,
    TerminationEvent,
    Trajectory,
    Undetermined,
    describe_outcome,
    integrate,
    state_record,
    summarize,
)
from .support import (
    CONVEXITY_EPS,
    ConvexityError,
    CurveSamples,
    GeometricSummary,
    SupportSpectrum,
    curve_length,
    curve_position,
    enclosed_area,
    evaluate_support,
    isoperimetric_deficit,
    limit_circle,
    project_from_samples,
    radius_extrema,
    radius_of_curvature,
    spectrum_from_dict,
    spectrum_from_polygon,
    sq_curvature_integral,
    support_derivative,
    theta_grid,
    total_inverse_curvature,
    validate_convexity,
)

__version__ = "0.1.0"
