"""unitprune: specialize feedforward networks per input collection.

A network that serves many correlated inputs (say, hundreds of pooled
regions from one image) usually has units that stay at exactly zero for all
of them. This package finds those units from a single probe input, removes
them with exact parameter accounting, and certifies what the removal can do
to the outputs: nothing at all at threshold zero, a computed bound above it.
"""

from .errors import ContractViolation, FormatError, UsageError, ValidationError
from .linalg import matvec, relu
from .model import (
    ActivationKind,
    ActivationProfile,
    DenseLayer,
    Network,
    ParamCount,
    forward,
    gen_network,
    load_network,
    output,
    param_count,
    save_network,
)
from .prune import (
    LabelMap,
    PruneConfig,
    PruneReport,
    PruneSelection,
    backward_prune,
    channel_columns,
    column_drop_bound,
    deviation_bound,
    forward_prune,
    load_labelmap,
    load_report,
    prune_input_channels,
    prune_output_topn,
    prune_units,
    save_labelmap,
    save_report,
    select_channels,
    select_units,
)
from .report import (
    DeviationReport,
    SweepPoint,
    compare_outputs,
    sweep,
    sweep_csv,
)
from .scene import (
    FeatureMap,
    Roi,
    Scene,
    channel_sums,
    gen_scene,
    load_scene,
    roi_pool,
    save_scene,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationKind",
    "ActivationProfile",
    "ContractViolation",
    "DenseLayer",
    "DeviationReport",
    "FeatureMap",
    "FormatError",
    "LabelMap",
    "Network",
    "ParamCount",
    "PruneConfig",
    "PruneReport",
    "PruneSelection",
    "Roi",
    "Scene",
    "SweepPoint",
    "UsageError",
    "ValidationError",
    "backward_prune",
    "channel_columns",
    "channel_sums",
    "column_drop_bound",
    "compare_outputs",
    "deviation_bound",
    "forward",
    "forward_prune",
    "gen_network",
    "gen_scene",
    "load_labelmap",
    "load_network",
    "load_report",
    "load_scene",
    "matvec",
    "output",
    "param_count",
    "prune_input_channels",
    "prune_output_topn",
    "prune_units",
    "relu",
    "save_labelmap",
    "save_network",
    "save_report",
    "save_scene",
    "select_channels",
    "select_units",
    "sweep",
    "sweep_csv",
]
