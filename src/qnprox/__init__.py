"""Matrix-free convex solver combining proximal-extragradient acceleration
with an online-learned curvature matrix, plus NAG and BFGS baselines and a
synthetic logistic-regression benchmark.  Internals are imported from their
own modules."""

from .baselines import BaselineConfig, bfgs_solve, nag_solve
from .datasets import (LogisticDataset, LogisticObjective,
                       SyntheticLogisticSpec, generate_logistic,
                       read_dataset_csv, write_dataset_csv)
from .errors import (ConfigurationError, ConvergenceError, NumericsError,
                     SolverError)
from .oracles import CountingOracle, OracleCounters
from .solver import SolverConfig, solve
from .trace import RunRecord, TraceRow, read_trace_csv, write_trace_csv

__all__ = [
    "solve", "SolverConfig",
    "BaselineConfig", "nag_solve", "bfgs_solve",
    "LogisticDataset", "LogisticObjective", "SyntheticLogisticSpec",
    "generate_logistic", "read_dataset_csv", "write_dataset_csv",
    "ConfigurationError", "ConvergenceError", "NumericsError", "SolverError",
    "RunRecord", "TraceRow", "read_trace_csv", "write_trace_csv",
    "CountingOracle", "OracleCounters",
]

__version__ = "0.1.0"
