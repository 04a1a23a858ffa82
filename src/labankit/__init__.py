"""Laban Movement Analysis descriptors and ordinal motion classification
for SMPL skeleton trajectories.

Pipeline: skeleton files -> fragments -> per-frame LMA descriptor
matrices -> 110-dim aggregate vectors -> Kruskal-Wallis feature ranking
and cross-validated multinomial logistic regression over four ordinal
tiers (with three-way and binary remappings).
"""

__version__ = "0.1.0"

from .skeleton import (
    SMPL_JOINT_COUNT,
    SMPL_JOINT_NAMES,
    VALID_TIERS,
    DatasetManifest,
    ManifestEntry,
    SkeletonError,
    SkeletonSequence,
    balance_dataset,
    load_manifest,
    load_sequence,
    save_manifest,
    save_sequence,
    slice_fragments,
)
from .descriptors import (
    DIRECTNESS_HALF_WINDOW_S,
    FEATURE_NAMES_110,
    FEATURE_SCHEMA_VERSION,
    FRAME_FEATURE_NAMES,
    TRACKED_JOINT_INDICES,
    TRACKED_JOINT_NAMES,
    aggregate,
    fragment_features,
    frame_matrix,
)
from .stats import (
    Standardizer,
    kruskal_wallis,
    rank_features,
)
from .classifier import (
    LinearModel,
    TrainConfig,
    load_model,
    predict,
    predict_proba,
    save_model,
    train,
)
from .evaluation import (
    TASKS,
    EvalReport,
    TaskSpec,
    cross_validate,
    get_task,
    remap_task,
    render_confusion,
)
from .features_io import (
    FeatureTable,
    read_features_csv,
    write_features_csv,
)
from .synth import N_REGIMES, RegimeSpec, generate
