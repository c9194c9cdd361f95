"""Distance shrinkage estimation for Euclidean distance matrices.

All distance matrices in this package hold squared Euclidean distances.
The estimator subtracts lambda/(2n) from every observed squared distance
and projects the result once onto the EDM cone, which solves the
trace-penalized kernel estimation problem exactly. The projection solves
its n-dimensional dual, one multiplier per diagonal entry, by a
semismooth Newton method. Penalties shift that dual without changing its
spectrum, so a grid of penalties is fitted as one path, each fit started
from the last (``shrinkage_path``).

``__all__`` lists the paper-facing API: the matrix types and their
transforms and metrics, the noise model, the projection and its three-point
analysis, the estimator and its path over a penalty grid with the
classical-scaling baseline and penalty rule, and the simulation study.
Building blocks such as ``project_c1`` and ``pair_stream``, and the
result types stay importable from their modules.
"""

from .core import (
    EdmMatrix,
    Embedding,
    MinTraceKernel,
    SymHollowMatrix,
    average_squared_loss,
    center_gram,
    certify_edm,
    edm_from_coords,
    kruskal_stress,
    similarity_to_dissimilarity,
)
from .noise import NoiseModel, add_noise
from .projection import (
    NotConvergedError,
    SolverConfig,
    analyze_dim3,
    project_edm_cone,
)
from .shrinkage import (
    classical_mds,
    distance_shrinkage,
    objective_value,
    recommended_lambda,
    risk_bound,
    shrinkage_path,
    truncate_rank,
)
from .simulate import (
    SimConfig,
    helix_coords,
    report_csv,
    report_json,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "SymHollowMatrix",
    "EdmMatrix",
    "MinTraceKernel",
    "Embedding",
    "center_gram",
    "certify_edm",
    "edm_from_coords",
    "similarity_to_dissimilarity",
    "kruskal_stress",
    "average_squared_loss",
    "NoiseModel",
    "add_noise",
    "SolverConfig",
    "NotConvergedError",
    "project_edm_cone",
    "analyze_dim3",
    "distance_shrinkage",
    "shrinkage_path",
    "classical_mds",
    "truncate_rank",
    "objective_value",
    "recommended_lambda",
    "risk_bound",
    "SimConfig",
    "helix_coords",
    "run_experiment",
    "report_json",
    "report_csv",
]
