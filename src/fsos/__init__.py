"""Few-shot one-class and open-set classification heads, with the episodic
training and evaluation harness they are measured by."""

__version__ = "0.1.0"

from .autodiff import (
    PrimitiveError,
    Tape,
    TapeError,
    Tensor,
    backward,
    gradient_check,
)
from .backbone import (
    DEFAULT_IMAGE_SPEC,
    DEFAULT_VECTOR_SPEC,
    BackboneParams,
    BackboneSpec,
    embed,
    embed_branch,
    init_backbone,
)
from .data import Dataset, SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .episodes import (
    Episode,
    EpisodeConfig,
    EvaluationReport,
    MetaBceGate,
    MetaSplit,
    OcmlGate,
    ThresholdGate,
    TrainSchedule,
    calibrate_threshold_baseline,
    confidence_interval,
    evaluate_oneclass,
    evaluate_openset,
    run_meta_training,
    sample_episode,
)
from .metrics import UNKNOWN
from .optim import make_optimizer
