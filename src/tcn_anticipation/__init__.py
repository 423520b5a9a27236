"""Multi-modal temporal convolutional networks for short-term action anticipation."""

from .baseline import LstmConfig, LstmEncoderDecoder
from .bench import BenchReport, bench_models, branch_macs, lstm_macs
from .branch import Branch, BranchConfig, multitask_loss, required_input_length
from .checkpoint import (CheckpointError, branch_checkpoint_tensors, branch_from_checkpoint,
                         fusion_checkpoint_tensors, fusion_from_checkpoint, load_checkpoint,
                         parameter_hash, save_checkpoint)
from .data import DatasetError, Sample, Split, read_dataset, stack_features, write_dataset
from .fusion import MODALITIES, STRATEGIES, FusionConfig, FusionModel, late_fusion
from .metrics import MetricsReport, class_mean_top5_recall, evaluate_predictions, top_k_accuracy
from .synthetic import (SyntheticSpec, complementary_spec, generate_synthetic, learnable_spec,
                        long_range_spec)
from .tensor import NonFiniteError, Rng, Tensor, TensorError
from .training import SgdConfig, TrainResult, lr_at_epoch, train_branch, train_fusion

__version__ = "0.1.0"
