"""Disentangled multi-label embedding learning.

Three learning families (triplet-, proxy-, and classification-based) over a
shared masked embedding layout, with a unified evaluation harness: training
time ratio, multi-label R@K, tag AUC, and triplet prediction.
"""

from .autodiff import Adam, PlateauSchedule, Tensor, grad
from .benchmark import evaluate_model, run_benchmark
from .config import ExperimentConfig, default_config, default_label_space
from .data import Dataset, Item, SyntheticSpec, generate_splits, generate_synthetic
from .errors import (
    ConfigurationError,
    DatasetError,
    DisembedError,
    GraphError,
    TrainingDivergedError,
)
from .labelspace import LabelSpace, Mask, Notion, build_masks
from .model import (
    CentroidBank,
    EmbeddingNet,
    NetConfig,
    class_scores,
    embed,
    init_params,
    masked_embed,
)
from .sampling import Triplet, TripletBatch, TripletSampler, batch_iterator
from .evaluation import (
    EvalReport,
    auc_tags,
    build_prototypes,
    recall_at_k,
    retrieval_recall,
    training_time_ratio,
    triplet_accuracy,
)
from .trainer import (
    TrainedModel,
    TrainResult,
    VariantConfig,
    paper_variants,
    train,
    validation_loss,
)

__version__ = "0.1.0"
