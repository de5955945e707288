"""Matrix-product-state image classification in plain numpy.

Grayscale images are lifted into a tensor-product feature space one pixel
at a time; a matrix product state with one label-carrying core scores all
classes in a single contraction. Training differentiates the contraction
itself, so every core updates at once under Adam.
"""

__version__ = "0.1.0"

from .autodiff import Gradients, Tape, backward, grad_check
from .contraction import Strategy, brute_force_logits, forward_batch, predict_batch
from .dataset import (
    ImageSet,
    downsample,
    downsample_images,
    label_histogram,
    load_idx_images,
    load_idx_labels,
    load_image_set,
    load_split,
    synthetic_blobs,
    synthetic_digits,
    take,
)
from .encoding import DEFAULT_FEATURE_MAP, FeatureMap, encode_batch
from .errors import (
    CheckpointError,
    ConfigError,
    ConsistencyError,
    DimensionError,
    DomainError,
    IdxParseError,
    MpsError,
    NumericError,
)
from .model import (
    MpsClassifier,
    expected_parameter_count,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .losses import cross_entropy_loss, mean_square_loss
from .training import (
    AdamState,
    EpochMetrics,
    LossKind,
    TrainConfig,
    adam_step,
    batch_loss,
    evaluate,
    init_adam,
    loss_and_gradients,
    train,
    write_metrics_csv,
)
