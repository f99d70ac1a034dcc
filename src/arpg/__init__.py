"""Random-order parallel autoregressive generation over discrete token grids.

A two-pass decoder: pass 1 builds content key/value pairs from known tokens
under causal (or block-causal) self-attention; pass 2 decodes arbitrary target
positions in parallel from position-rotated [MASK] queries against that shared
cache. Training shuffles each sequence by a fresh random permutation, so any
generation order and any per-step token count works at inference time.
"""

__version__ = "0.1.0"

from .model import ArpgParams, ModelConfig, param_count
from .decoding import (DecodeConfig, KvCache, TokenGrid, cache_scalar_count,
                       expand, generate, inpaint, sequential_reference_decode,
                       sequential_reference_generate)
from .ordering import DecodeSchedule, schedule_counts
from .training import (OptimState, ToyDatasetSpec, TrainConfig, evaluate,
                       make_dataset, train_loop, train_step, verify_grid)
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "ArpgParams", "ModelConfig", "param_count",
    "DecodeConfig", "KvCache", "TokenGrid", "cache_scalar_count",
    "generate", "inpaint", "expand", "sequential_reference_decode",
    "sequential_reference_generate",
    "DecodeSchedule", "schedule_counts",
    "OptimState", "ToyDatasetSpec", "TrainConfig",
    "evaluate", "make_dataset", "train_loop", "train_step", "verify_grid",
    "load_checkpoint", "save_checkpoint",
    "__version__",
]
