"""Instance-specific embedding masking for domain generalization.

Train a small mask-generator network over a frozen encoder/predictor pair so
that, per input, domain-specific embedding dimensions are softly filtered out
before prediction. Includes a permutation-importance global-mask baseline, a
synthetic multi-domain benchmark with known shared/specific features, and
empirical generalization-bound diagnostics.
"""

from .mask import MaskGenConfig, inference_mask
from .nn import Mlp, ParamStore, SplitModel, load_params, save_params, split_model
from .synthbench import BenchmarkSpec, DomainDataset, generate_benchmark
from .train import TrainConfig, TrainTrace, train_emg, train_erm
from .evaluate import accuracy, aggregate_runs, bound_terms, emg_masks
from .baseline import global_mask_from_scores, permutation_importance, sweep_mask_percent

__all__ = [
    "MaskGenConfig",
    "inference_mask",
    "Mlp",
    "ParamStore",
    "SplitModel",
    "load_params",
    "save_params",
    "split_model",
    "BenchmarkSpec",
    "DomainDataset",
    "generate_benchmark",
    "TrainConfig",
    "TrainTrace",
    "train_emg",
    "train_erm",
    "accuracy",
    "aggregate_runs",
    "bound_terms",
    "emg_masks",
    "global_mask_from_scores",
    "permutation_importance",
    "sweep_mask_percent",
]
