"""certmap: certainty maps for test-retest fMRI activation.

Models the replicated per-voxel p-values as a mixture of the uniform null
and the non-central-t alternative, fits (lam, delta) per voxel by maximum
likelihood, and derives optimal thresholds, true-activation and
true-inactivation certainties, and ROC summaries, with a simulation harness
for validating recovery.
"""

__version__ = "0.1.0"

from .certainty import (
    CertaintyMaps,
    CertaintyRecord,
    auc,
    certainty_volume,
    frontier,
    optimal_threshold,
    rho_minus,
    rho_plus,
)
from .fit import VolumeFit, VoxelFit, fit_volume, fit_voxel
from .model import (
    MixtureParams,
    PValueVector,
    mixture_cdf,
    mixture_logpdf,
    mixture_pdf,
    power,
    voxel_loglik,
)
from .simulate import (
    GroundTruthField,
    SimulationReport,
    generate_replications,
    hellinger_sq,
    make_composite,
    make_ground_truth,
    robustness_split,
    run_simulation,
    sample_pvalue,
    split_replications,
)
from .thresholding import (
    ActivationMap,
    bh_fdr,
    overlap_matrix,
    percent_overlap,
    threshold_with_frontier,
)
from .volume import (
    ReplicationSet,
    VolumeContainer,
    import_csv,
    read_container,
    t_to_p,
    write_container,
)

__all__ = [
    "__version__",
    "ActivationMap",
    "CertaintyMaps",
    "CertaintyRecord",
    "GroundTruthField",
    "MixtureParams",
    "PValueVector",
    "ReplicationSet",
    "SimulationReport",
    "VolumeContainer",
    "VolumeFit",
    "VoxelFit",
    "auc",
    "bh_fdr",
    "certainty_volume",
    "fit_volume",
    "fit_voxel",
    "frontier",
    "generate_replications",
    "hellinger_sq",
    "import_csv",
    "make_composite",
    "make_ground_truth",
    "mixture_cdf",
    "mixture_logpdf",
    "mixture_pdf",
    "optimal_threshold",
    "overlap_matrix",
    "percent_overlap",
    "power",
    "read_container",
    "rho_minus",
    "rho_plus",
    "robustness_split",
    "run_simulation",
    "sample_pvalue",
    "split_replications",
    "t_to_p",
    "threshold_with_frontier",
    "voxel_loglik",
    "write_container",
]
