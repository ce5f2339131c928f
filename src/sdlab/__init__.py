"""Second-order feedback quantizers: simulation, certified stability
regions, invariance checking, reconstruction accuracy, and threshold
sweeps.  See the subcommand front end in sdlab.cli for file outputs.
"""

from .certificates import (
    VARIANT_EQ5,
    VARIANT_REMARK,
    StabilityCertificate,
    beta_bound,
    feasible_alpha_interval,
    max_beta_theoretical,
    printed_gamma_interval_report,
    thm1_certificate,
    thm2_certificate,
    unchecked_certificate,
)
from .errors import (
    CoverageError,
    DegenerateConfigurationError,
    DivergenceError,
    InfeasibleError,
    InsufficientDataError,
    InvalidInputError,
    NoSolutionError,
    ResourceError,
    SdlabError,
)
from .filters import FilterSpec, design_filter
from .invariance import InvarianceReport, verify_invariance
from .modulator import (
    ModulatorState,
    QuantizerKind,
    SchemeParams,
    Trajectory,
    kth_difference,
    quantize,
    residual_identity,
    run,
    step,
)
from .pipeline import (
    BandlimitedSignal,
    SamplingConfig,
    error_curve,
    first_order_quantize,
    gen_signal,
    order_fit,
    perfect_sample_error,
    reconstruct,
    reconstruction_error_of,
    sampling_plan,
    sup_error,
)
from .region import (
    PlanePoint,
    RegionSpec,
    b1_eval,
    b2_eval,
    corner_u0,
    gamma_from_u1,
    map_sl,
    map_sr,
    region_contains,
    step_region,
    u1_from_gamma,
    yilmaz_gamma_range,
)
from .serialize import (
    csv_text,
    filter_norms_dict,
    fmt_float,
    json_text,
    sweep_fieldnames,
    trajectory_csv_text,
    write_csv,
    write_filter_csv,
    write_json,
    write_region_csv,
    write_trajectory_csv,
)
from .sweeps import (
    DEFAULT_SEED,
    SweepConfig,
    find_beta_threshold,
    is_stable,
    measure_vmax,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    vmax_at_theoretical,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SdlabError", "InvalidInputError", "DivergenceError",
    "InsufficientDataError", "InfeasibleError", "NoSolutionError",
    "CoverageError", "ResourceError", "DegenerateConfigurationError",
    # modulator
    "QuantizerKind", "SchemeParams", "ModulatorState", "Trajectory",
    "quantize", "step", "run", "residual_identity", "kth_difference",
    # region
    "PlanePoint", "RegionSpec", "b1_eval", "b2_eval", "corner_u0",
    "region_contains", "gamma_from_u1", "u1_from_gamma",
    "yilmaz_gamma_range", "map_sl", "map_sr", "step_region",
    # certificates
    "StabilityCertificate", "VARIANT_REMARK", "VARIANT_EQ5", "beta_bound",
    "feasible_alpha_interval",
    "thm1_certificate", "thm2_certificate", "max_beta_theoretical",
    "unchecked_certificate", "printed_gamma_interval_report",
    # invariance
    "InvarianceReport", "verify_invariance",
    # filters / pipeline
    "FilterSpec", "design_filter", "BandlimitedSignal", "SamplingConfig",
    "gen_signal", "sampling_plan", "reconstruct", "sup_error",
    "perfect_sample_error", "error_curve", "order_fit",
    "first_order_quantize", "reconstruction_error_of",
    # sweeps
    "DEFAULT_SEED", "SweepConfig", "is_stable",
    "find_beta_threshold", "measure_vmax", "run_fig1", "run_fig2",
    "run_fig3", "run_fig4", "vmax_at_theoretical",
    # serialize
    "fmt_float", "csv_text", "json_text", "write_csv", "write_json",
    "trajectory_csv_text", "write_trajectory_csv", "write_region_csv",
    "write_filter_csv", "filter_norms_dict", "sweep_fieldnames",
]
