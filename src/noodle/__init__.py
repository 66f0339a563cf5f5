"""Out-of-distribution detection that stays reliable under noisy training labels.

The pipeline: a small MLP encoder is trained with a noise-robust loss
(transition-matrix forward correction, SCE, or GCE) plus a column-sparsity
penalty on the residual of a per-batch low-rank decomposition of the latent
features; the cleaned training embeddings become a reference store, and test
inputs are scored by (negated) k-th nearest neighbor distance on the unit
sphere, with Mahalanobis / max-softmax / energy baselines.
"""

from .datagen import (
    DataSpec,
    LabeledSet,
    NoiseSpec,
    inject_symmetric_noise,
    load_features_csv,
    load_ood_csv,
    make_gaussian_mixture,
    make_ood_set,
    save_features_csv,
    save_ood_csv,
)
from .decompose import FeatureSplit, grad_through_split, normalize_columns, split_features
from .linalg import approx_topk_singular_vectors, qr_thin
from .losses import (
    LossOutput,
    TransitionMatrix,
    classification_loss,
    cross_entropy,
    forward_corrected_ce,
    gce_loss,
    init_near_identity,
    joint_loss,
    sce_loss,
    sparsity_loss,
)
from .metrics import ScoreReport, auroc, emit_report, fpr_at_tpr, id_accuracy, make_report
from .model import (
    DivergenceError,
    MlpParams,
    backward,
    forward,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from .scoring import (
    EmbeddingStore,
    EvalSpec,
    batch_scores,
    build_store,
    load_store,
    save_store,
    select_threshold,
)
from .trainer import (
    TrainConfig,
    TrainResult,
    derive_streams,
    extract_reference_store,
    params_checksum,
    train,
)

__version__ = "0.1.0"
