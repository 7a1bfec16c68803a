"""vrlkit: deterministic training and uncertainty evaluation for ERM and
Mixup-family vicinal objectives on desk-scale classifiers."""

from .datagen import CorruptionSpec, Dataset
from .evalkit import BinningSpec, EntropyProfile, Temperature
from .nn import LayerSpec, Network, OptimState
from .tensor import RngState, ShapeError
from .trainer import DivergedError, EnsembleModel, ExperimentRecord, TrainConfig
from .uncertainty import ClassGaussians, LaplacePosterior, UncertaintyScores
from .vicinal import BetaParams, MixedBatch

__version__ = "0.1.0"

__all__ = [
    "BetaParams",
    "BinningSpec",
    "ClassGaussians",
    "CorruptionSpec",
    "Dataset",
    "DivergedError",
    "EnsembleModel",
    "EntropyProfile",
    "ExperimentRecord",
    "LaplacePosterior",
    "LayerSpec",
    "MixedBatch",
    "Network",
    "OptimState",
    "RngState",
    "ShapeError",
    "Temperature",
    "TrainConfig",
    "UncertaintyScores",
    "__version__",
]
