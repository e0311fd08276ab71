"""bspkit: deterministic BSP programming with an exact-cost simulator.

Programs are ordinary Python callables built from four primitives (nprocs,
mkpar, apply, put) plus the proj destructor, or from the put-free
scatter/gather sublanguage, which also runs on nested machine trees.  The
engine executes them either on a purely sequential simulator with exact
communication/synchronization counts or on a barrier-synchronized thread
pool, and the perfmodel module fits polynomial cost models to benchmark
sweeps over (processors x data size).
"""

__version__ = "0.1.0"

from .errors import (
    BspError,
    CapacityError,
    DimensionError,
    ProgramError,
    RoutingError,
    UsageError,
    ValidationError,
)
from .model import (
    CommMatrix,
    CostTrace,
    Inbox,
    Leaf,
    MachineConfig,
    Node,
    ParVec,
    SuperstepRecord,
    h_relation,
    superstep_cost,
)
from .engine import RunReport, estimate_runtime, run
from .bsml import apply, mkpar, nprocs, proj, put
from .sgl import gather, lmap, run_nested, scatter, translate_to_bsml

__all__ = [
    "__version__",
    "BspError",
    "CapacityError",
    "DimensionError",
    "ProgramError",
    "RoutingError",
    "UsageError",
    "ValidationError",
    "CommMatrix",
    "CostTrace",
    "Inbox",
    "Leaf",
    "MachineConfig",
    "Node",
    "ParVec",
    "SuperstepRecord",
    "h_relation",
    "superstep_cost",
    "RunReport",
    "estimate_runtime",
    "run",
    "apply",
    "mkpar",
    "nprocs",
    "proj",
    "put",
    "gather",
    "lmap",
    "run_nested",
    "scatter",
    "translate_to_bsml",
]
