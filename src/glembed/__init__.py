"""Context-conditional exponential-family embedding models.

Fits per-entity embedding and context vectors by maximizing conditional
log-likelihoods with Adagrad stochastic gradients, and provides held-out
evaluation protocols and qualitative analysis queries.
"""

from .core import DataMatrix, EmbeddingBank, Link
from .contexts import (SpatialLayout, WindowSpec, build_basket_context, build_knn_context,
                       build_window_context)
from .families import Family, FamilySpec
from .train import TrainConfig, train
from .evaluate import EvalReport, SplitSpec, make_split

__version__ = "0.1.0"

__all__ = [
    "DataMatrix",
    "EmbeddingBank",
    "Link",
    "SpatialLayout",
    "WindowSpec",
    "build_basket_context",
    "build_knn_context",
    "build_window_context",
    "Family",
    "FamilySpec",
    "TrainConfig",
    "train",
    "EvalReport",
    "SplitSpec",
    "make_split",
    "__version__",
]
