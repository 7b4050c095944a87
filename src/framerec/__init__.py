"""Joint multimedia item and key-frame recommendation from implicit feedback.

The model learns collaborative and visual user profiles from item-level
feedback alone.  Frame-level attention decides which frames represent an
item; a second attention decides, per user-item pair, how much the
collaborative and visual channels each contribute.  The same visual profile
that helps rank items then ranks the frames inside an item.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    SplitDataset,
    check_dataset,
    load_dataset,
    load_frame_likes,
    load_split,
    prune_dataset,
    save_dataset,
    save_split,
    split_ratings,
)
from .errors import (
    ConfigError,
    EmptyDatasetError,
    FrameRecError,
    IntegrityError,
    MissingFramesError,
    NonFiniteError,
    ParseError,
    SamplingError,
    UnsupportedTaskError,
    check_seed,
)
from .evaluation import (
    EvalReport,
    evaluate_frame_rec,
    evaluate_item_rec,
    random_frame_baseline,
    rank_metrics,
    rank_of_first,
)
from .model import (
    ModelConfig,
    ModelParams,
    active_param_names,
    dataset_digest,
    init_params,
    item_visual_table,
    load_checkpoint,
    save_checkpoint,
    score_frames,
    score_pairs,
)
from .synth import PlantedModel, SynthConfig, generate_synthetic, planted_frame_likes
from .training import (
    AdamState,
    GradCheckReport,
    TrainConfig,
    TrainLog,
    adam_step,
    batch_gradients,
    batch_loss,
    bpr_pair_loss,
    finite_diff_check,
    fit,
    gradcheck_instance,
    init_adam_state,
    sample_epoch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
