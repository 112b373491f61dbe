"""Memory-recurrent transformer language modeling with stochastic layer
skipping (retained memory) and stochastic cross-head attention.

The package root exports the API the README documents; everything else is
imported from its module (``memxl.autodiff``, ``memxl.train``, ...).
"""

from .model import MemoryLM, ModelConfig
from .rng import RngHub
from .skip import SkipSchedule
from .train import TrainConfig, Trainer, train

__version__ = "0.1.0"

__all__ = [
    "MemoryLM",
    "ModelConfig",
    "RngHub",
    "SkipSchedule",
    "TrainConfig",
    "Trainer",
    "train",
]
