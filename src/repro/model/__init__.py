"""Model layer: the hashed-weight perceptron detector, its training kernels,
the parallel ensemble trainer, and the versioned artifact store."""

from .artifact import ArtifactStore, LoadedArtifact, PublishResult
from .kernels import ONLINE_KERNELS, fit_epoch_blocked, fit_epoch_reference
from .perceptron import (
    HashedPerceptron,
    ensemble_margins,
    ensemble_partial_fit,
    margin_scales,
    trace_verdicts,
)
from .train_pool import TrainedMember, train_ensemble

__all__ = [
    "ArtifactStore",
    "HashedPerceptron",
    "LoadedArtifact",
    "ONLINE_KERNELS",
    "PublishResult",
    "TrainedMember",
    "ensemble_margins",
    "ensemble_partial_fit",
    "fit_epoch_blocked",
    "fit_epoch_reference",
    "margin_scales",
    "train_ensemble",
    "trace_verdicts",
]
